"""Benchmark two commits in alternating pairs and write a bench-pairs-v1 file.

    python3 tools/bench_pairs.py PARENT CHANGE --seed S --out BENCH_N.json \\
        [--workloads W ...] [--description "what the change does"] \\
        [--claim WORKLOAD:METRIC]

Each commit is exported with ``git archive`` into its own temporary tree, and
both trees are byte-compiled alike. For every workload, ten pairs (``PAIRS``)
run ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``,
T being BENCHMARK.json's ``run_seconds``; pair i runs in the parent's tree
first when i is even and in the change's tree first when i is odd. Each
run's gated metrics (its last stdout line) and all its metrics
(``result.json``) are kept.

The summary gives each side's quartiles per metric (numpy's linear
percentiles over that side's runs) and, per metric, the pairwise comparison:
the pairs the change wins (by the metric's better direction, ties counting
for neither), the median of the per-pair differences (change - parent) and
that median relative to the parent's median. ``no_regression`` checks every
end-to-end metric of BENCHMARK.json against its bound on every workload; a
``--claim`` is met when there are at least ``PAIRS`` pairs, the change wins
at least nine tenths of them and its median beats the parent's by more than
the parent's interquartile range. Run from a checkout of the repository
(the commits are read from it); nothing is written but the output file and
the temporary trees.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = "bench-pairs-v1"
RUN_TIMEOUT_S = 900
PAIRS = 10   # alternating pairs per workload; a claim over fewer is not met


# ---- the summary step (pure: canned results in, numbers out) ---------------


def quartiles(values) -> dict:
    """p25, median, p75 and their spread, numpy's linear percentiles."""
    p25, median, p75 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"p25": float(p25), "median": float(median), "p75": float(p75),
            "iqr": float(p75 - p25)}


def _gain(parent: float, change: float, better: str) -> float:
    """How much better the change reads than the parent (> 0: better)."""
    return parent - change if better == "lower" else change - parent


def pairwise(parent, change, better: str) -> dict:
    """Wins, ties and the median per-pair difference of matched runs."""
    if len(parent) != len(change):
        raise ValueError("pairs need one parent and one change run each")
    gains = [_gain(p, c, better) for p, c in zip(parent, change)]
    median_diff = float(np.median([c - p for p, c in zip(parent, change)]))
    parent_median = float(np.median(parent))
    return {"change_wins": sum(g > 0 for g in gains), "ties": sum(g == 0 for g in gains),
            "pairs": len(gains), "median_change_minus_parent": median_diff,
            "relative": median_diff / parent_median if parent_median else None,
            "parent_iqr": quartiles(parent)["iqr"]}


def summarize_workload(runs: list[dict], directions: dict[str, str]) -> dict:
    """Per-side quartiles and pairwise comparisons of one workload's runs.

    ``runs`` holds {"side", "pair", "all_metrics": {name: value}} records;
    ``directions`` maps a metric to "lower" or "higher". A metric missing
    from any run is left out."""
    sides = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
             for side in ("parent", "change")}
    if [r["pair"] for r in sides["parent"]] != [r["pair"] for r in sides["change"]]:
        raise ValueError("every pair needs a parent and a change run")
    names = [m for m in directions
             if all(m in r["all_metrics"] for r in runs)]
    values = {side: {m: [r["all_metrics"][m] for r in rs] for m in names}
              for side, rs in sides.items()}
    return {
        "summary": {side: {m: quartiles(v) for m, v in vs.items()}
                    for side, vs in values.items()},
        "pairwise": {m: pairwise(values["parent"][m], values["change"][m], directions[m])
                     for m in names},
    }


def claim_check(workload: dict, metric: str, better: str) -> dict:
    """Whether the change beats the parent on ``metric``: at least ``PAIRS``
    pairs, nine tenths of them won, and the medians apart by more than the
    parent's IQR."""
    parent, change = workload["summary"]["parent"][metric], workload["summary"]["change"][metric]
    pw = workload["pairwise"][metric]
    gain = _gain(parent["median"], change["median"], better)
    return {"workload": workload["workload"], "metric": metric,
            "threshold": f"{better} in at least nine tenths of at least {PAIRS} pairs, "
                         "medians apart by more than the parent's IQR",
            "parent_median": parent["median"], "change_median": change["median"],
            "relative": (change["median"] - parent["median"]) / parent["median"],
            "parent_iqr": parent["iqr"], "change_wins": pw["change_wins"],
            "pairs": pw["pairs"],
            "met": (pw["pairs"] >= PAIRS and pw["change_wins"] >= math.ceil(0.9 * pw["pairs"])
                    and gain > parent["iqr"])}


def no_regression(workloads: list[dict], end_to_end: list[dict]) -> list[dict]:
    """Every gated end-to-end metric of every workload against its bound: the
    change's median may read worse than the parent's by at most ``bound``,
    as a share of the parent's median."""
    rows = []
    for w in workloads:
        failed = {side: sum(r["failed"] for r in w["runs"] if r["side"] == side)
                  for side in ("parent", "change")}
        for m in end_to_end:
            name = m["name"]
            if name not in w["summary"]["parent"]:
                continue
            parent = w["summary"]["parent"][name]["median"]
            change = w["summary"]["change"][name]["median"]
            relative = (change - parent) / parent
            worse = relative if m["better"] == "lower" else -relative
            rows.append({"workload": w["workload"], "metric": name, "parent_median": parent,
                         "change_median": change, "relative": relative, "bound": m["bound"],
                         "within_bound": worse <= m["bound"], "failed": failed})
    return rows


# ---- running ---------------------------------------------------------------


def export_tree(commit: str, dest: Path) -> str:
    """Extract ``commit`` into ``dest`` with git archive; returns its full hash."""
    full = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", commit + "^{commit}"],
                          capture_output=True, text=True, check=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", full],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise RuntimeError(f"git archive {commit} failed")
    if not compileall.compile_dir(str(dest), quiet=1):
        raise RuntimeError(f"{commit}: byte-compiling the tree failed")
    return full


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``: its result line and result.json."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode:
        raise RuntimeError(f"{tree.name} {workload}: exit {proc.returncode}\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    full = json.loads((tree / ".perfbench-out" / f"{workload}-trace0" / "result.json").read_text())
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "all_metrics": {k: v[0] for k, v in full["all_metrics"].items()},
            "directions": {k: v[2] for k, v in full["all_metrics"].items()},
            "env": full["env"]}


def hardware() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"{len(os.sched_getaffinity(0))}-core {cpu}, Python {platform.python_version()}, "
            f"numpy {np.__version__} (see each side's env)")


def bench(args) -> dict:
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in gated["workloads"]]
    seconds = gated["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: export_tree(c, trees[side])
                   for side, c in (("parent", args.parent), ("change", args.change))}
        out = []
        for w in workloads:
            runs, env, directions = [], {}, {}
            for pair in range(PAIRS):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    r = run_once(trees[side], w, args.seed, seconds)
                    env[side] = r.pop("env")
                    directions.update(r.pop("directions"))
                    runs.append({"side": side, "pair": pair, "ran_first": side == order[0], **r})
                    print(f"{w} pair {pair} {side}: trial_s_cal "
                          f"{r['metrics'].get('trial_s_cal')}", file=sys.stderr, flush=True)
            out.append({"workload": w, "seed": args.seed, "seconds": seconds,
                        "traced": False, "pairs": PAIRS, "env": env,
                        **summarize_workload(runs, directions), "runs": runs})
    doc = {"schema": SCHEMA, "change": args.description, "parent_commit": commits["parent"],
           "change_commit": commits["change"], "hardware": hardware(),
           "method": ("alternating parent/change pairs, each run `python3 perfbench/run.py "
                      "--workload W --seed S --seconds T --trace 0` from a fresh git archive "
                      "of each side with both trees byte-compiled alike; pair i runs the "
                      "parent first when i is even, the change first when i is odd; "
                      "quartiles are numpy's linear percentiles over the runs of one side; "
                      "pairwise median_change_minus_parent is the median of the per-pair "
                      "differences and relative divides it by the parent's median "
                      "(tools/bench_pairs.py)"),
           "seeds": [args.seed], "claim": None,
           "no_regression_bounds": {m["name"]: m["bound"] for m in gated["end_to_end"]},
           "workloads": out,
           "no_regression": no_regression(out, gated["end_to_end"])}
    if args.claim:
        name, metric = args.claim.split(":", 1)
        w = next(w for w in out if w["workload"] == name)
        better = next(m["better"] for m in gated["end_to_end"] if m["name"] == metric)
        doc["claim"] = claim_check(w, metric, better)
    return doc


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--description", default="", help="what the change does")
    p.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    args = p.parse_args(argv)
    if args.claim and ":" not in args.claim:
        p.error("--claim takes WORKLOAD:METRIC")
    doc = bench(args)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""qdca benchmark: one seeded, closed-loop workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload attack-k4n6 --seed 2024 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, each in its own process

One trial runs at a time and the next starts only when it has finished. Set-up
(importing qdca, validating the config, preparing the instance and one warm-up
trial) is timed apart from the trials and repeated in fresh processes. Trial
and set-up times are gated as ratios to a fixed reference kernel timed next to
them (``reference.py``), in nominal seconds: ``trial_s_cal`` and ``setup_s``.
Every trial is checked; a failed trial counts in
``failed`` and the run goes on. ``--trace 1`` runs the same trials untraced and
then traced, and reports the per-layer metrics. Every metric is printed with
its unit; the last line of stdout is the result as one JSON object holding the
metrics BENCHMARK.json names. See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import reference
import tracing
from workloads import WORKLOADS, Session

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 2024
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}
CHILD_TIMEOUT_S = 150
BLOCK_S = 0.5   # trial time between two runs of the reference kernels
SETUP_REF_RUNS = 3   # reference kernel runs after each set-up
KEEP_TRIALS = 1024   # timed trials kept for the CSVs and the digest check
LAYER_MODULES = ("toy_cipher", "classical_dca", "statevector", "quantum_counting",
                 "max_finding", "attack", "cli")


def pin_environment() -> None:
    """Start the benchmark again with ``PINNED_ENV`` set, unless it already is.

    Both kinds of setting are read once, when a process starts: the BLAS
    thread counts when numpy loads, the malloc thresholds when glibc does.
    Set-up probes and `--workload all` children inherit them.

    - One BLAS/OpenMP thread (at most nproc). The loop runs one trial at a
      time on one core. With more threads, OpenBLAS spins a second core inside
      every ``vdot`` of the norm check, which doubles CPU use for no wall-time
      gain and makes runs depend on how busy the other cores are.
    - Fixed malloc thresholds: no ``mmap`` below 32 MiB and no heap trimming
      below 1 GiB. With glibc's adaptive defaults the speed of a k4n6 trial
      depends on the heap layout: when the state-sized temporaries sit at the
      top of the heap, each free trims it and the next allocation faults the
      pages back in (about 200,000 minor faults and 1.1-1.2 s per trial);
      when some other allocation lies above them, there are no faults and a
      trial takes about 0.65 s. Which one a run gets depends on every
      allocation before it, the benchmark's own included. The fixed
      thresholds always give the second, and the adaptive threshold can no
      longer change with what the program frees.
    """
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})


def import_qdca() -> dict:
    """Import qdca from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import importlib
    mods = {name: importlib.import_module(f"qdca.{name}") for name in LAYER_MODULES}
    if not Path(mods["attack"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"qdca imported from {mods['attack'].__file__}, not {SRC}")
    return mods


# ---- set-up -------------------------------------------------------------


def set_up(workload, seed: int, out: Path):
    """The benchmark path's set-up: config, instance and warm-up trial 0."""
    mods = import_qdca()
    session = Session(workload, seed, mods)
    warm = session.run_trial(0)
    if workload.kind != "search":
        session.write_csvs([warm], out)
    return mods, session, warm


def probe(args) -> int:
    """A fresh process that sets up once and reports how long it took."""
    w = WORKLOADS[args.workload]
    out = Path(args.probe_out)
    t0 = time.perf_counter()
    if args.setup_probe == "cli":
        mods = import_qdca()
        argv = ["attack", *w.attack_flags, "--master-seed", str(args.seed),
                "--trials", "1", "--out-dir", str(out)]
        with contextlib.redirect_stdout(sys.stderr):
            rc = mods["cli"].main(argv)
        if rc:
            return rc
    else:
        set_up(w, args.seed, out)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "ref_s": reference.time_kernels(SETUP_REF_RUNS)}))
    return 0


def run_probes(w, seed: int, out: Path) -> list[tuple[float, float, str, Path]]:
    """Cold set-ups in child processes; the first is `qdca attack` if one exists.

    Each gives (set-up seconds, reference kernel seconds right after it by
    kernel, how, output directory).
    """
    samples = []
    for k in range(w.setup_samples - 1):
        via = "cli" if k == 0 and w.attack_flags else "bench"
        d = out / f"setup-probe{k}-{via}"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w.name,
               "--seed", str(seed), "--setup-probe", via, "--probe-out", str(d)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode:
            raise RuntimeError(f"set-up probe {via} failed:\n{proc.stderr[-4000:]}")
        got = json.loads(proc.stdout.splitlines()[-1])
        refs = {int(q): v for q, v in got["ref_s"].items()}
        samples.append((got["setup_s"], refs, via, d))
    return samples


# ---- trials -------------------------------------------------------------


def run_one(session, i: int, failures, rec=None, patch=None):
    """One trial, traced when given a recorder and its patch.

    Returns (trial or None if it raised, seconds). Only the trial is timed.
    """
    with patch or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            if rec is None:
                return session.run_trial(i), time.perf_counter() - t0
            rec.trial_id = i
            entry = rec.open("bench.trial")
            try:
                t = session.run_trial(i)
            finally:
                rec.close(entry)
            return t, time.perf_counter() - t0
        except Exception as err:  # a failing trial is counted, the run goes on
            failures.append((i, f"raised {type(err).__name__}: {err}"))
            return None, time.perf_counter() - t0


def check_trial(session, t, failures) -> bool:
    """Record the trial's check failures; True when it passed."""
    if t is None:
        return False
    try:
        bad = session.check(t)
    except Exception as err:
        bad = [f"check raised {type(err).__name__}: {err}"]
    for reason in bad:
        failures.append((t.index, reason))
    return not bad


# ---- run-level checks and records ---------------------------------------


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def same_csvs(a: Path, b: Path, what: str) -> list[str]:
    return [f"{name}: {what}" for name in ("results.csv", "trace.csv")
            if _sha(a / name) != _sha(b / name)]


def digest_check(session, trials, seed: int, out: Path) -> list[str]:
    """At the default seed, the CSV bytes of the first 2**j trials must match
    the digests generated from the seed code (make_digests.py)."""
    table = json.loads(DIGESTS.read_text())
    stored = table["workloads"].get(session.w.name)
    if seed != table["master_seed"] or not stored:
        return []
    ordered = sorted(trials, key=lambda t: t.index)
    if [t.index for t in ordered] != list(range(len(ordered))):
        return ["trials missing from the CSVs, digests not comparable"]
    prefix = max(int(k) for k in stored if int(k) <= len(ordered))
    paths = session.write_csvs(ordered[:prefix], out / f"digest-{prefix}")
    return [f"{p.name} of the first {prefix} trials does not match its digest"
            for p, key in zip(paths, ("results", "trace"))
            if _sha(p) != stored[str(prefix)][key]]


def _run(cmd: list[str]) -> str:
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def environment(nproc: int) -> dict:
    import numpy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": nproc, "pinned_env": {v: os.environ.get(v) for v in PINNED_ENV}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    l2 = _run(["getconf", "LEVEL2_CACHE_SIZE"])
    env["l2_bytes"] = int(l2) if l2.isdigit() else None
    env["git_commit"] = ((ROOT / ".git").exists()
                         and _run(["git", "-C", str(ROOT), "rev-parse", "HEAD"])) or None
    src = hashlib.sha256()
    for path in sorted((SRC / "qdca").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    env["source_sha256"] = src.hexdigest()
    return env


# ---- the two kinds of run -----------------------------------------------


class Tally:
    """Running sums over completed trials, so a run need not keep every trial."""

    def __init__(self, trials=()):
        self.n = self.steps = self.recovered = self.estimates = 0
        self.in_bound = 0.0
        for t in trials:
            self.add(t)

    def add(self, t) -> None:
        self.n += 1
        self.steps += t.steps
        self.recovered += t.recovered
        self.estimates += t.estimates
        self.in_bound += t.in_bound

    def rates(self, failed: int, attempted: int) -> dict:
        rates = {"error_rate": (failed / attempted, "ratio", "lower"),
                 "recovery_rate": (self.recovered / max(1, self.n), "ratio", "higher")}
        if self.estimates:
            rates["bound_hit_rate"] = (self.in_bound / self.estimates, "ratio", "higher")
        return rates


def calibrated(pairs, qubits: int) -> float:
    """Median of (seconds / reference kernel seconds), in nominal seconds.

    ``pairs`` holds (seconds, {kernel qubits: kernel seconds}).
    """
    return (statistics.median(s / refs[qubits] for s, refs in pairs)
            * reference.nominal_s(qubits))


def plain_run(session, seconds, setups, failures):
    """Closed loop of trials 1, 2, ... until ``seconds`` of trial time are spent.

    After every ``BLOCK_S`` of trial time the reference kernels run once; each
    block gives one sample of (mean trial seconds, kernel seconds by kernel).
    ``setups`` holds (set-up seconds, kernel seconds by kernel) pairs. Only
    the first ``KEEP_TRIALS`` trials are kept (for the CSVs and the digest
    check), so that ``peak_rss_mb`` does not grow with the number of trials a
    run fits.
    Returns end-to-end metrics (name -> (value, unit, better)), the kept
    trials, attempted, failed and extra records.
    """
    q = session.w.ref_qubits
    trials, times, blocks = [], array("d"), []
    tally = Tally()
    spent = block_s = 0.0
    block_n = failed = 0
    for i in itertools.count(1):
        if spent >= seconds:
            break
        t, dt = run_one(session, i, failures)
        spent += dt
        block_s += dt
        block_n += 1
        failed += not check_trial(session, t, failures)
        if t is not None:
            tally.add(t)
            times.append(dt)
            if len(trials) < KEEP_TRIALS:
                trials.append(t)
        if block_s >= BLOCK_S or spent >= seconds:
            blocks.append((block_s / block_n, reference.time_kernels()))
            block_s, block_n = 0.0, 0
    attempted = i - 1
    if not times:
        raise RuntimeError("no trial completed")
    metrics = {
        "trial_s_cal": (calibrated(blocks, q), "s", "lower"),
        "setup_s": (calibrated(setups, q), "s", "lower"),
        "trials_per_s": (len(times) / sum(times), "1/s", "higher"),
        "trial_s_p50": (statistics.median(times), "s", "lower"),
        "trial_s_min": (min(times), "s", "lower"),
        "setup_s_raw": (statistics.median(s for s, _ in setups), "s", "lower"),
        **{f"ref{k}_s_p50": (statistics.median(refs[k] for _, refs in blocks), "s", "lower")
           for k in reference.KERNELS},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MiB", "lower"),
        "model_steps_mean": (tally.steps / tally.n, "count", "lower"),
    }
    if len(times) >= 100:   # at least 10 samples beyond it
        metrics["trial_s_p90"] = (statistics.quantiles(times, n=10)[8], "s", "lower")
    metrics.update(tally.rates(failed, attempted))
    info = {"timed_trials": len(times), "setup_samples_s": setups,
            "trial_times_s": times.tolist(), "blocks_s": blocks}
    return metrics, trials, attempted, failed, info


def traced_run(session, mods, seconds, out, failures, problems):
    """Each trial id runs untraced and traced, in alternating order, until
    ``seconds / 2`` of untraced trial time are spent; per-layer metrics."""
    rec = tracing.Recorder()
    patch = tracing.Patch(rec, mods)
    pairs = []   # (untraced trial, its seconds, traced trial, its seconds)
    spent = 0.0
    attempted = failed = 0
    for i in itertools.count(1):
        if spent >= seconds / 2:
            break
        runs = {}
        for traced in ((False, True) if i % 2 else (True, False)):
            runs[traced] = run_one(session, i, failures, *((rec, patch) if traced else ()))
            failed += not check_trial(session, runs[traced][0], failures)
        attempted += 2
        spent += runs[False][1]
        if runs[False][0] is not None and runs[True][0] is not None:
            pairs.append((*runs[False], *runs[True]))
    if not pairs:
        raise RuntimeError("no trial completed")
    plain = [p[0] for p in pairs]
    traced = [p[2] for p in pairs]
    rec.trial_id = -1
    if session.w.kind != "search":
        with patch:
            session.write_csvs(traced, out / "traced")

    # tracing must not change a single output byte or exact count
    if [t.signature for t in plain] != [t.signature for t in traced]:
        problems.append("traced run changed exact counts")
    if session.w.kind != "search":
        session.write_csvs(plain, out / "untraced")
        problems += same_csvs(out / "untraced", out / "traced",
                              "traced run differs from the untraced one")
    c = rec.counts
    if c["qft_gates"] != c["est_qft_gates"]:
        problems.append("QFT gates counted at the gates differ from the estimates'")
    if c["g_gates"] != sum(t.g_gates for t in plain):
        problems.append("traced G gates differ from the untraced run")
    if c["search_iterations"] + c["measurements"] != sum(t.search_steps for t in plain):
        problems.append("search iterations + measurements != search steps")
    rec.write(out)

    plain_s = sum(p[1] for p in pairs)
    layer = tracing.layer_metrics(rec, len(pairs))
    layer["attack.host_us_per_model_step"] = plain_s * 1e6 / sum(t.steps for t in plain)
    layer["attack.tracing_overhead"] = sum(p[3] for p in pairs) / plain_s
    # per-layer units and directions come from BENCHMARK.json
    metrics = {name: (value, "", "") for name, value in layer.items()}
    metrics.update(Tally(traced).rates(failed, attempted))
    return metrics, traced, attempted, failed, {"pairs": len(pairs), "spans": rec.spans,
                                                "spans_written": len(rec.name)}


def run_workload(args, nproc: int) -> int:
    w = WORKLOADS[args.workload]
    out = OUT / f"{w.name}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    probes = [] if args.trace else run_probes(w, args.seed, out)

    t0 = time.perf_counter()
    mods, session, warm = set_up(w, args.seed, out / "setup-main")
    setup_main = (time.perf_counter() - t0, reference.time_kernels(SETUP_REF_RUNS))

    failures: list[tuple[int, str]] = []
    problems: list[str] = []
    warm_failed = int(not check_trial(session, warm, failures))
    for _, _, via, d in probes:
        if via == "cli":
            problems += same_csvs(d, out / "setup-main",
                                  "benchmark path differs from `qdca attack`")
    if args.trace:
        metrics, trials, attempted, failed, info = traced_run(
            session, mods, args.seconds, out, failures, problems)
    else:
        setups = [setup_main] + [(s, ref) for s, ref, _, _ in probes]
        metrics, trials, attempted, failed, info = plain_run(
            session, args.seconds, setups, failures)
    attempted += 1   # the warm-up trial
    failed += warm_failed
    if w.kind != "search":
        session.write_csvs([warm] + trials, out)
        problems += digest_check(session, [warm] + trials, args.seed, out)

    gated_by_name = {m["name"]: m for m in gated}
    for name, (value, unit, better) in metrics.items():
        m = gated_by_name.get(name)
        if m:
            unit, note = m["unit"], f"{m['better']} is better"
        else:
            note = f"{better} is better (not in BENCHMARK.json)"
        print(f"{name:36s} {value:14.6g} {unit:6s} {note}")
    for i, reason in failures:
        print(f"FAILED trial {i}: {reason}")
    for p in problems:
        print(f"FAILED check: {p}")
    env = environment(nproc)
    print("env: " + json.dumps(env, sort_keys=True))
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                          for m in gated}}
    (out / "result.json").write_text(json.dumps(
        {**result, "workload": w.name, "seed": args.seed, "env": env,
         "all_metrics": metrics, "info": info}, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    rc = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        rc |= subprocess.run(cmd, cwd=ROOT).returncode
    return rc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", choices=("bench", "cli"), help=argparse.SUPPRESS)
    p.add_argument("--probe-out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    if not (SRC / "qdca" / "__init__.py").is_file():
        print(f"perfbench: no qdca sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return probe(args)
    return run_workload(args, nproc)


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())

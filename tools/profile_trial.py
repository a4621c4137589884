"""Profile a benchmark workload's trials: cProfile over N trials of
``perfbench/workloads.py``'s own trial at a master seed, printing the
functions with the most own time.

    python3 tools/profile_trial.py [--workload W] [--trials N] [--seed S] [--top M]

W is ``attack-k4n6`` (the default: the paper's headline configuration,
k = 4, n = 6, c = 4, planted key 0x09), ``search-k8-exact`` (threshold
maximum finding over K = 256 injected exact counts) or
``classical-random-keys`` (the classical attack at k = 4, n = 8 on a fresh
key per trial: the key's codebook, characteristic and pairs, then its
right-pair counts, ``right_pair_counts``, and their argmax). Each trial is the
benchmark's ``Session.run_trial``, imported from ``perfbench/workloads.py``,
so the profile measures what the benchmark times. The session is set up and
one trial is run before profiling starts, so only the trials are measured,
without first-call imports and caches. For attack-k4n6 that warm-up trial
also fills the config's class-size memo, one inverse-QFT CDF row per class
size, made by one ladder and a transform of each of its lanes, so the
profiled trials show the per-trial counting work alone: 16 draws
(``count_marked``) from memo rows per trial, with no ``grover_ladder`` or
``phase_distribution`` call. Each
row gives a function's own time (tottime) and its time with everything it
calls (cumtime), each also as a share of the profiled total, and its call
count (ncalls); a large ``--top`` lists every function profiled. qdca is
imported from this checkout's src/, as the benchmark imports it.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run   # noqa: E402  (perfbench/run.py)
from workloads import WORKLOADS, Session   # noqa: E402

PROFILED = ("attack-k4n6", "search-k8-exact", "classical-random-keys")


def profile_trials(workload: str, trials: int, seed: int) -> pstats.Stats:
    session = Session(WORKLOADS[workload], seed, run.import_qdca())
    session.run_trial(0)   # warm-up, not profiled
    profiler = cProfile.Profile()
    profiler.enable()
    for trial in range(trials):
        session.run_trial(trial)
    profiler.disable()
    return pstats.Stats(profiler)


def report(stats: pstats.Stats, top: int) -> list[str]:
    total = stats.total_tt
    rows = sorted(stats.stats.items(), key=lambda item: item[1][2], reverse=True)[:top]
    lines = [f"total {total:.3f} s",
             f"{'tottime':>9} {'share':>6} {'cumtime':>9} {'share':>6} {'ncalls':>8}  function"]
    for (path, line, name), (_, ncalls, tottime, cumtime, _) in rows:
        where = f"{path.rsplit('/', 1)[-1]}:{line}({name})" if line else name
        lines.append(f"{tottime:9.4f} {tottime / total:6.1%} {cumtime:9.4f} "
                     f"{cumtime / total:6.1%} {ncalls:8d}  {where}")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=PROFILED, default="attack-k4n6")
    parser.add_argument("--trials", type=int, default=40)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)
    if args.trials < 1 or args.top < 1:
        parser.error("--trials and --top must be at least 1")
    print("\n".join(report(profile_trials(args.workload, args.trials, args.seed), args.top)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

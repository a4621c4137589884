"""Profile attack-k4n6 trials: cProfile over N quantum attack trials of the
paper's headline configuration (k = 4, n = 6, c = 4, planted key 0x09) at a
master seed, printing the functions with the most own time.

    python3 tools/profile_trial.py [--trials N] [--seed S] [--top M]

The instance is planted and one trial is run before profiling starts, so
only the trials are measured, without first-call imports and caches. That
warm-up trial also fills the config's class-size memo, one ladder column
and one inverse-QFT CDF row per class size, so the profiled trials show the
per-trial counting work alone: 16 draws (``count_marked``) from memo rows
per trial, with no ``grover_ladder`` or ``phase_distribution`` call. Each
row gives a function's own time (tottime) and its time with everything it
calls (cumtime), each also as a share of the profiled total, and its call
count (ncalls); a large ``--top`` lists every function profiled.
qdca must be importable (installed, or src on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys

from qdca.attack import AttackConfig, plant_instance, run_quantum_attack


def profile_trials(trials: int, seed: int) -> pstats.Stats:
    config = AttackConfig(subkey_bits=4, index_bits=6, confidence=4, master_seed=seed,
                          trials=trials, mode="quantum", planted_key=0x09)
    plant_instance(config, 0)
    run_quantum_attack(config, 0)   # warm-up, not profiled
    profiler = cProfile.Profile()
    profiler.enable()
    for trial in range(trials):
        run_quantum_attack(config, trial)
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
    parser.add_argument("--trials", type=int, default=40)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)
    if args.trials < 1 or args.top < 1:
        parser.error("--trials and --top must be at least 1")
    print("\n".join(report(profile_trials(args.trials, args.seed), args.top)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

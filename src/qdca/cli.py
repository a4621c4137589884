"""Batch command-line interface.

Verbs: attack (Monte Carlo attack runs), count (per-subkey counting report),
bound (accuracy-bound arithmetic), scale (step-count scaling sweep) and
selftest (the acceptance checks).

Flags populate an AttackConfig; values from --config (a JSON document with
the same field names, plus nested "cipher_doc"/"characteristic_doc")
override flags; --random-keys and a planted_key, from a flag or the
document, contradict each other and are refused. Exit codes: 0 success,
1 configuration error, 2 selftest failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import acceptance
from .attack import (MODES, AttackConfig, ConfigError, run_count_report,
                     run_scaling_report, run_trials, write_counts_csv,
                     write_results_csv, write_scale_csv, write_trace_csv)
from .quantum_counting import (counting_error_bound, default_accuracy_bits,
                               profile_error_bound)


def _add_config_flags(p: argparse.ArgumentParser):
    """AttackConfig's flags; an omitted flag takes the AttackConfig default."""
    p.add_argument("--config", type=Path, help="JSON config; overrides flags")
    p.add_argument("-k", "--subkey-bits", type=int, default=argparse.SUPPRESS)
    p.add_argument("-n", "--index-bits", type=int, default=argparse.SUPPRESS)
    p.add_argument("-m", "--accuracy-bits", type=int, default=argparse.SUPPRESS)
    p.add_argument("--epsilon", type=float, default=argparse.SUPPRESS)
    p.add_argument("-c", "--confidence", type=int, default=argparse.SUPPRESS)
    p.add_argument("--master-seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--trials", type=int, default=argparse.SUPPRESS)
    p.add_argument("--mode", choices=MODES, default=argparse.SUPPRESS)
    p.add_argument("--planted-key", type=lambda s: int(s, 0), default=argparse.SUPPRESS,
                   help="fixed master key; omit for the stock planted instance")
    p.add_argument("--random-keys", action="store_true",
                   help="derive a fresh master key per trial")
    p.add_argument("--out-dir", default=argparse.SUPPRESS)


def _config_from_args(args) -> AttackConfig:
    fields = {name: value for name, value in vars(args).items()
              if name in AttackConfig.__dataclass_fields__}
    if args.config is not None:
        doc = json.loads(Path(args.config).read_text())
        if not isinstance(doc, dict):
            raise ConfigError(f"{args.config} must hold a JSON object")
        fields.update(doc)
    if args.random_keys:
        if fields.get("planted_key") is not None:
            raise ConfigError("--random-keys draws a key per trial and takes no planted_key")
        fields["planted_key"] = None
    return AttackConfig.from_dict(fields)


def cmd_attack(args) -> int:
    config = _config_from_args(args)
    results, trace = run_trials(config)
    out = Path(config.out_dir)
    write_results_csv(out / "results.csv", results)
    write_trace_csv(out / "trace.csv", trace)
    for mode in sorted({r.mode for r in results}):
        rows = [r for r in results if r.mode == mode]
        wins = sum(r.success for r in rows)
        wall = sum(r.wall_time_s for r in rows)
        prep = sum(r.prep_time_s for r in rows)
        print(f"{mode}: {wins}/{len(rows)} recovered "
              f"(rate {wins/len(rows):.4f}), wall {wall:.2f}s "
              f"(+{prep:.2f}s instance preparation with its right-pair counts, "
              f"outside the cost model)")
        if mode == "quantum":
            mean_steps = sum(r.steps_total for r in rows) / len(rows)
            print(f"  mean time steps {mean_steps:.1f}; register model "
                  f"{rows[0].qubits_model} qubits, simulated {rows[0].qubits_simulated}")
    print(f"wrote {out/'results.csv'} and {out/'trace.csv'}")
    return 0


def cmd_count(args) -> int:
    config = _config_from_args(args)
    rows = run_count_report(config, trial=0)
    out = Path(config.out_dir)
    write_counts_csv(out / "counts.csv", rows)
    for row in rows:
        mark = "*" if row["in_bound"] else " "
        print(f"x={row['x_hex']} b={row['b']:>4} M_est={row['m_est']:8.4f} "
              f"R={row['right_pairs']:>3} M_true={row['m_true']:>3} {mark}")
    print(f"wrote {out/'counts.csv'}")
    return 0


def cmd_bound(args) -> int:
    m, n_pairs, acc = args.m_true, args.num_pairs, args.accuracy_bits
    if n_pairs is None:
        if args.index_bits < 0:
            raise ConfigError("-n must be >= 0")
        n_pairs = 1 << args.index_bits
    if not math.isfinite(m) or m < 0 or n_pairs < 1 or (acc is not None and acc < 1):
        raise ConfigError("bound needs a finite -M >= 0, -N >= 1 and -m >= 1")
    if acc is None:
        acc = default_accuracy_bits(math.log2(n_pairs))
    try:
        general = counting_error_bound(m, n_pairs, acc)
    except OverflowError:   # N too large to convert to a float
        general = math.inf
    profile = profile_error_bound(m)
    if not (math.isfinite(general) and math.isfinite(profile)):
        raise ConfigError("-M and -N (or -n) give a bound that is not a finite float")
    print(f"M={m} N={n_pairs} m={acc}")
    print(f"general bound : {general!r}  interval ({m - general!r}, {m + general!r})")
    print(f"profile bound : {profile!r}  interval ({m - profile!r}, {m + profile!r})")
    return 0


def _bit_list(flag: str, text: str) -> tuple[int, ...]:
    try:
        bits = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"{flag} needs comma-separated integers, got {text!r}") from None
    return bits


def cmd_scale(args) -> int:
    config = _config_from_args(args)
    search_bits = _bit_list("--search-bits", args.search_bits)
    counting_bits = _bit_list("--counting-bits", args.counting_bits)
    rows = run_scaling_report(config, search_bits, counting_bits, seeds=args.seeds)
    out = Path(config.out_dir)
    write_scale_csv(out / "scale.csv", rows)
    for row in rows:
        if row["sweep"] == "search":
            extra = f" ratio={row['ratio_vs_prev']}" if row["ratio_vs_prev"] else ""
            print(f"search K={row['size']}: mean steps {row['mean_search_steps']}{extra}")
        else:
            print(f"counting n={row['index_bits']}: t={row['phase_bits']} "
                  f"G={row['g_gates']} (expected {row['g_gates_expected']}) "
                  f"qft={row['qft_gates']}")
    print(f"wrote {out/'scale.csv'}")
    return 0


def cmd_selftest(args) -> int:
    results = acceptance.run_all(verbose=True)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdca", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("attack", help="run attack trials, write results/trace CSVs")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("count", help="counting report for every candidate subkey")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("bound", help="counting accuracy bound arithmetic")
    p.add_argument("-M", "--m-true", type=float, required=True)
    p.add_argument("-N", "--num-pairs", type=int, default=None)
    p.add_argument("-n", "--index-bits", type=int, default=6)
    p.add_argument("-m", "--accuracy-bits", type=int, default=None)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("scale", help="scaling sweep, write scale.csv")
    _add_config_flags(p)
    p.add_argument("--search-bits", default="4,6,8")
    p.add_argument("--counting-bits", default="4,6,8")
    p.add_argument("--seeds", type=int, default=50)
    p.set_defaults(fn=cmd_scale)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError, json.JSONDecodeError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

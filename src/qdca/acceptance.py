"""Acceptance checks: one callable per criterion, runnable as a selftest.

Every check returns (name, passed, detail). The pytest acceptance module and
the `selftest` CLI verb both run these, printing one pass/fail line each.
"""

from __future__ import annotations

import filecmp
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attack import (AttackConfig, run_count_report, run_quantum_attack,
                     run_scaling_report, run_trials, write_counts_csv,
                     write_results_csv, write_trace_csv)
from .classical_dca import count_table
from .max_finding import ExactCounter, MaxFindingConfig, QuantumCounter, find_max_subkey
from .quantum_counting import (ClassLadders, CountingParams, counting_distribution,
                               counting_error_bound, estimate_from_outcome,
                               grover_iteration, profile_error_bound,
                               reference_counting_distribution)
from .statevector import Register, StateVector
from .toy_cipher import (AttackContext, ToyCipher, default_characteristic,
                         gen_pairs, is_right_pair, DEFAULT_PLANTED_KEY)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_bound_intervals() -> CheckResult:
    """Closed-form accuracy-bound arithmetic at the two published points."""
    b8 = profile_error_bound(8.0)
    b_small = profile_error_bound(1.0 / 512.0)
    ok = (b8 == 2.125
          and (8 - b8, 8 + b8) == (5 + 7 / 8, 10 + 1 / 8)
          and b_small == 80.0 / 512.0
          and (1 / 512 - b_small, 1 / 512 + b_small) == (-79 / 512, 81 / 512))
    # general-form agreement at a width where the profile bound is tight
    ok &= abs(counting_error_bound(8, 1024, 6) - 2.125) <= 1e-12
    ok &= abs(counting_error_bound(1 / 512, 1024, 6) - 80 / 512) <= 1e-12
    return CheckResult("bound-intervals",
                       bool(ok),
                       f"bound(8)={b8}, bound(1/512)={b_small}")


def check_counting_coverage() -> CheckResult:
    """Exact in-bound probability >= 0.9 for every M in 0..N at n=3, with
    each distribution equal to the unfactored circuit's within 1e-12."""
    n = 3
    params = CountingParams.default(n)
    assert params.phase_bits == math.ceil(n / 2) + 4
    space = 1 << (n + 1)
    m_est = np.array([estimate_from_outcome(b, params)[1]
                      for b in range(1 << params.phase_bits)])
    worst, drift = 1.0, 0.0
    for m_true in range(0, params.num_pairs + 1):
        marked = np.zeros(space, dtype=bool)
        marked[:m_true] = True
        dist = counting_distribution(marked, params)
        drift = max(drift, float(np.abs(
            dist - reference_counting_distribution(marked, params)).max()))
        bound = profile_error_bound(m_true)
        # at this width the profile bound is the general bound over the
        # padded 2N-item space
        assert abs(bound - counting_error_bound(m_true, space, params.accuracy_bits)) < 1e-15
        worst = min(worst, float(dist[np.abs(m_est - m_true) <= bound].sum()))
    return CheckResult("counting-coverage",
                       worst >= 1 - params.failure_bound and drift <= 1e-12,
                       f"worst exact coverage {worst:.4f} (need >= 0.9), "
                       f"largest difference from the reference circuit {drift:.1e}")


def check_gate_accounting() -> CheckResult:
    """Every counting run reports exactly 2^t - 1 Grover steps and a
    Fourier gate count within t(t+1)/2 + t/2: subkey 1's estimate, drawn
    from a counter on the planted instance as the attack draws it."""
    cipher = ToyCipher()
    ch = default_characteristic(cipher, DEFAULT_PLANTED_KEY)
    ok, details = True, []
    for n in (3, 4, 6):
        params = CountingParams.default(n)
        pairs = gen_pairs(cipher, DEFAULT_PLANTED_KEY, ch.plaintext_diff, n)
        counter = QuantumCounter(AttackContext(cipher, ch, pairs), ClassLadders(params),
                                 np.random.default_rng(11))
        counter.count(1)
        est = counter.estimates[1]
        t = params.phase_bits
        ok &= est.g_gate_count == (1 << t) - 1
        ok &= est.qft_gate_count <= t * (t + 1) // 2 + t // 2
        details.append(f"n={n}: G={est.g_gate_count}, qft={est.qft_gate_count}")
    return CheckResult("gate-accounting", bool(ok), "; ".join(details))


def check_end_to_end_attack(trials: int = 100) -> CheckResult:
    """Planted instance, k=4, n=6, c=4: recovery rate >= 1 - 1/2^c - 0.05."""
    config = AttackConfig(subkey_bits=4, index_bits=6, confidence=4,
                          master_seed=2024, trials=trials)
    wins = 0
    for trial in range(trials):
        res, _ = run_quantum_attack(config, trial)
        wins += res.success
    need = 1 - 1 / 2 ** config.confidence - 0.05
    rate = wins / trials
    return CheckResult("end-to-end-attack", rate >= need,
                       f"success {wins}/{trials} = {rate:.4f} (need >= {need})")


def check_max_finding_isolation(trials: int = 100) -> CheckResult:
    """Injected exact counts, K=16: argmax recovery and strict threshold growth."""
    cipher = ToyCipher()
    ch = default_characteristic(cipher, DEFAULT_PLANTED_KEY)
    pairs = gen_pairs(cipher, DEFAULT_PLANTED_KEY, ch.plaintext_diff, 6)
    table = count_table(pairs, cipher, ch)
    argmax = table.winner()
    wins, monotone = 0, True
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=77, spawn_key=(trial,)))
        res = find_max_subkey(ExactCounter(table.counts), 4, MaxFindingConfig(4), rng)
        wins += res.subkey == argmax
        values = [v for _, v in res.threshold.history]
        monotone &= all(b > a for a, b in zip(values, values[1:]))
    need = 1 - 1 / 16 - 0.05
    return CheckResult("max-finding-isolation",
                       wins / trials >= need and monotone,
                       f"argmax recovered {wins}/{trials}, strictly increasing: {monotone}")


def check_oracle_equivalence() -> CheckResult:
    """Sum over the padded index space equals the exhaustive classical count."""
    cipher = ToyCipher()
    key = DEFAULT_PLANTED_KEY
    ch = default_characteristic(cipher, key)
    ok = True
    for n in (4, 8):
        pairs = gen_pairs(cipher, key, ch.plaintext_diff, n)
        counts = count_table(pairs, cipher, ch).counts
        for x in range(1 << ch.subkey_bits):
            s = sum(is_right_pair(cipher, ch, x, j, pairs)
                    for j in range(2 * pairs.num_pairs))
            ok &= s == counts[x]
    return CheckResult("oracle-equivalence", bool(ok),
                       "sum_j e(x,j) == classical count for all x at n in {4,8}")


def check_scaling(seeds: int = 50) -> CheckResult:
    """Search steps follow sqrt(K); counting gates follow 2^t - 1 exactly."""
    config = AttackConfig(trials=1, master_seed=31)
    rows = run_scaling_report(config, search_bits=(4, 6, 8),
                              counting_index_bits=(4, 6, 8), seeds=seeds)
    ok, details = True, []
    for row in rows:
        if row["sweep"] == "search" and row["ratio_vs_prev"] != "":
            ratio = float(row["ratio_vs_prev"])
            ok &= 1.4 <= ratio <= 2.8
            details.append(f"K={row['size']}: ratio {ratio:.2f}")
        if row["sweep"] == "counting":
            ok &= row["g_gates"] == row["g_gates_expected"]
            details.append(f"n={row['index_bits']}: G={row['g_gates']}")
    return CheckResult("scaling", bool(ok), "; ".join(details))


def check_grover_micro() -> CheckResult:
    """K=4, one marked item: a single Grover step lands it with probability 1."""
    marked = np.zeros(4, dtype=bool)
    marked[2] = True
    state = StateVector.uniform(2)
    reg = Register("s", 0, 2)
    grover_iteration(state, reg, marked)
    prob = float(abs(state.amps[2]) ** 2)
    return CheckResult("grover-micro", abs(prob - 1.0) <= 1e-9,
                       f"marked probability {prob!r}")


def check_determinism() -> CheckResult:
    """Identical config + master_seed produce byte-identical CSV outputs."""
    config = AttackConfig(subkey_bits=4, index_bits=5, trials=4,
                          master_seed=99, mode="both")
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for run in ("a", "b"):
            results, trace = run_trials(config)
            counts = run_count_report(config)
            base = Path(tmp) / run
            write_results_csv(base / "results.csv", results)
            write_trace_csv(base / "trace.csv", trace)
            write_counts_csv(base / "counts.csv", counts)
            paths.append(base)
        same = all(filecmp.cmp(paths[0] / f, paths[1] / f, shallow=False)
                   for f in ("results.csv", "trace.csv", "counts.csv"))
    return CheckResult("determinism", same, "results/trace/counts byte-identical")


ALL_CHECKS = [
    check_bound_intervals,
    check_counting_coverage,
    check_gate_accounting,
    check_end_to_end_attack,
    check_max_finding_isolation,
    check_oracle_equivalence,
    check_scaling,
    check_grover_micro,
    check_determinism,
]


def run_all(verbose: bool = True) -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        result = check()
        results.append(result)
        if verbose:
            status = "PASS" if result.passed else "FAIL"
            print(f"[{status}] {result.name}: {result.detail}")
    return results

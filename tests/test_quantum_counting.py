import dataclasses
import itertools
import json
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdca import max_finding, quantum_counting
from qdca.max_finding import (QuantumCounter, SearchBudget, _class_grover_step,
                              grover_search_marked)
from qdca.attack import AttackConfig
from qdca.quantum_counting import (ClassLadders, CountingParams, coherent_counting_distribution,
                                   counting_distribution, counting_error_bound,
                                   estimate_from_outcome, grover_iteration, grover_ladder,
                                   phase_distribution, profile_error_bound,
                                   qft_gate_budget, reference_counting_distribution)
from qdca.statevector import CorruptedStateError, Register, StateVector, outcome_cdf
from qdca.toy_cipher import (AttackContext, default_characteristic, gen_pairs,
                             make_characteristic, true_subkey)


def _rng(entropy, *key):
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=key))


def _all_but_qft(estimates: dict) -> str:
    """Every field of every estimate, in demand order and to the bit, but the
    Fourier gates, which only the draw that made its size's CDF row reports."""
    return repr([(x, dataclasses.replace(est, qft_gate_count=0))
                 for x, est in estimates.items()])


def _qft_sum(estimates: dict) -> int:
    return sum(est.qft_gate_count for est in estimates.values())


# ---- parameters ------------------------------------------------------------


@pytest.mark.parametrize("m,eps,t", [
    (3, 0.1, 6),     # ceil(log2(7)) = 3
    (4, 0.1, 7),
    (2, 0.25, 4),    # ceil(log2(4)) = 2
    (5, 0.49, 7),    # ceil(log2(2 + 1/0.98)) = 2
])
def test_phase_register_width(m, eps, t):
    assert CountingParams(3, m, eps).phase_bits == t


def test_default_profile():
    for n in (2, 3, 6, 7, 8):
        p = CountingParams.default(n)
        assert p.accuracy_bits == math.ceil(n / 2) + 1
        assert p.failure_bound == 0.1
        assert p.phase_bits == math.ceil(n / 2) + 4


@pytest.mark.parametrize("bad", [
    dict(index_bits=0, accuracy_bits=3),
    dict(index_bits=3, accuracy_bits=0),
    dict(index_bits=3, accuracy_bits=3, failure_bound=0.5),
    dict(index_bits=3, accuracy_bits=3, failure_bound=0.0),
])
def test_params_validation(bad):
    with pytest.raises(ValueError):
        CountingParams(**bad)


# ---- the Grover step --------------------------------------------------------


def test_one_step_amplitude_matches_matrix_oracle():
    # n=2: 8-item space, 2 marked. Dense reference: (2|u><u| - I) diag(+-1).
    marked = np.zeros(8, dtype=bool)
    marked[[1, 6]] = True
    s = StateVector.uniform(3)
    grover_iteration(s, Register("r", 0, 3), marked)
    u = np.full(8, 1 / math.sqrt(8))
    reference = (2 * np.full((8, 8), 1 / 8) - np.eye(8)) @ np.diag(
        np.where(marked, -1.0, 1.0)) @ u
    assert np.allclose(s.amps, reference, atol=1e-12)
    theta = 2 * math.asin(math.sqrt(2 / 8))
    assert s.amps[1].real == pytest.approx(math.sin(3 * theta / 2) / math.sqrt(2))


def test_step_count_sweep_matches_rotation_algebra():
    # n=3: 16-item space, 3 marked; marked probability after g steps is
    # sin^2((2g+1) theta/2), peaking first at the usual quarter-turn count
    marked = np.zeros(16, dtype=bool)
    marked[[2, 7, 11]] = True
    theta = 2 * math.asin(math.sqrt(3 / 16))
    s = StateVector.uniform(4)
    reg = Register("r", 0, 4)
    probs = [3 / 16]
    for _ in range(6):
        grover_iteration(s, reg, marked)
        probs.append(float(np.sum(np.abs(s.amps[marked]) ** 2)))
    for g, p in enumerate(probs):
        assert p == pytest.approx(math.sin((2 * g + 1) * theta / 2) ** 2, abs=1e-12)
    first_peak = round(math.pi / (2 * theta) - 0.5)
    assert np.argmax(probs[:first_peak + 2]) == first_peak


def test_unmarked_predicate_keeps_uniform_fixed():
    s = StateVector.uniform(3)
    grover_iteration(s, Register("r", 0, 3), np.zeros(8, dtype=bool))
    assert np.allclose(s.amps, np.full(8, 1 / math.sqrt(8)), atol=1e-12)


# ---- counting ----------------------------------------------------------------


def test_count_zero_marked_is_exact(table_estimate):
    params = CountingParams.default(3)
    est = table_estimate(np.zeros(16, dtype=bool), params, _rng(1))
    assert est.raw_outcome == 0
    assert est.m_estimate == 0.0
    assert est.right_pairs == 0


def test_count_all_marked_full_rotation(table_estimate):
    params = CountingParams.default(3)
    est = table_estimate(np.ones(16, dtype=bool), params, _rng(2))
    assert est.raw_outcome == 1 << (params.phase_bits - 1)
    assert est.theta == pytest.approx(math.pi)
    assert est.m_estimate == pytest.approx(16.0)
    assert est.right_pairs == 8  # clamped to the real pair count


def test_gate_counters_exact(table_estimate):
    for n in (2, 3, 4):
        params = CountingParams.default(n)
        marked = np.zeros(1 << (n + 1), dtype=bool)
        marked[0] = True
        est = table_estimate(marked, params, _rng(3, n))
        t = params.phase_bits
        assert est.g_gate_count == (1 << t) - 1
        assert est.qft_gate_count == qft_gate_budget(t) == t * (t + 1) // 2 + t // 2
        assert params.init_steps == t + n + 1


def test_outcome_distribution_mirror_symmetric():
    params = CountingParams.default(3)
    T = 1 << params.phase_bits
    for m_true in (1, 2, 5):
        marked = np.zeros(16, dtype=bool)
        marked[:m_true] = True
        dist = counting_distribution(marked, params)
        mirrored = dist[(-np.arange(T)) % T]
        assert np.allclose(dist, mirrored, atol=1e-10)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def test_estimate_mirror_invariant():
    params = CountingParams.default(3)
    T = 1 << params.phase_bits
    for b in range(1, T):
        m1 = estimate_from_outcome(b, params)[1]
        m2 = estimate_from_outcome(T - b, params)[1]
        assert m1 == pytest.approx(m2, abs=1e-9)


def test_estimate_ranges_over_all_outcomes():
    params = CountingParams.default(4)
    n_pairs = params.num_pairs
    for b in range(1 << params.phase_bits):
        _, m_est, right = estimate_from_outcome(b, params)
        assert 0.0 <= m_est <= 2 * n_pairs
        assert 0 <= right <= n_pairs


@pytest.mark.parametrize("n", [2, 3])
def test_exact_coverage_at_least_target(n):
    # amplitude-level in-bound probability >= 1 - epsilon for every count
    params = CountingParams.default(n)
    space = 1 << (n + 1)
    m_est = np.array([estimate_from_outcome(b, params)[1]
                      for b in range(1 << params.phase_bits)])
    for m_true in range(0, (1 << n) + 1):
        marked = np.zeros(space, dtype=bool)
        marked[:m_true] = True
        dist = counting_distribution(marked, params)
        cov = dist[np.abs(m_est - m_true) <= profile_error_bound(m_true)].sum()
        assert cov >= 1 - params.failure_bound, (n, m_true, cov)


def test_planted_instance_estimates_within_bound(cipher, planted):
    # 200 seeded runs: the published-accuracy bound holds in >= 90% of them,
    # and exactly (amplitude level) with probability 0.914
    key, ch, pairs, ctx = planted
    z = true_subkey(cipher, key, ch)
    params = CountingParams.default(6)
    m_true = int(ctx.marked_table(z).sum())
    assert m_true == 8
    bound = counting_error_bound(m_true, params.num_pairs, params.accuracy_bits)
    assert bound == 2.125

    m_est = np.array([estimate_from_outcome(b, params)[1]
                      for b in range(1 << params.phase_bits)])
    dist = counting_distribution(ctx.marked_table(z), params)
    exact = dist[np.abs(m_est - m_true) <= bound].sum()
    assert exact >= 0.9

    hits = 0
    for seed in range(200):
        counter = QuantumCounter(ctx, ClassLadders(params), _rng(42, seed))
        counter.count(z)
        hits += abs(counter.estimates[z].m_estimate - m_true) <= bound
    assert hits >= 180


def test_counter_is_seed_deterministic(planted):
    _, _, _, ctx = planted
    params = CountingParams.default(6)
    a, b = (QuantumCounter(ctx, ClassLadders(params), _rng(7)) for _ in range(2))
    assert [a.count(x) for x in range(16)] == [b.count(x) for x in range(16)]
    assert a.estimates == b.estimates


def test_counter_checks_index_width(planted):
    _, _, _, ctx = planted
    with pytest.raises(ValueError, match="index width"):
        QuantumCounter(ctx, ClassLadders(CountingParams.default(5)), _rng(0))


# ---- factored kernel against the unfactored reference circuit -------------------


@pytest.mark.parametrize("n", [3, 4])
def test_kernel_matches_reference_for_every_count(n):
    # every M in 0..N, marked pairs drawn at random rather than as a prefix
    params = CountingParams.default(n)
    rng = np.random.default_rng(300 + n)
    for m_true in range((1 << n) + 1):
        marked = np.zeros(1 << (n + 1), dtype=bool)
        marked[rng.choice(1 << n, size=m_true, replace=False)] = True
        kernel = counting_distribution(marked, params)
        reference = reference_counting_distribution(marked, params)
        np.testing.assert_allclose(kernel, reference, rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_kernel_matches_reference_on_random_tables(table_estimate, n, m, seed, data):
    params = CountingParams(n, m, 0.1)
    space = 1 << (n + 1)
    marked = np.array(data.draw(st.lists(st.booleans(), min_size=space,
                                         max_size=space)))
    kernel = counting_distribution(marked, params)
    np.testing.assert_allclose(kernel, reference_counting_distribution(marked, params),
                               rtol=0, atol=1e-12)
    # G and the start state are real, so outcomes b and -b are equally likely
    T = 1 << params.phase_bits
    assert kernel.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(kernel, kernel[(-np.arange(T)) % T], rtol=0, atol=1e-12)
    est = table_estimate(marked, params, np.random.default_rng(seed))
    t = params.phase_bits
    assert est.g_gate_count == (1 << t) - 1
    assert est.qft_gate_count == qft_gate_budget(t)
    assert kernel[est.raw_outcome] > 0


# ---- factored kernel against the closed form (BHMT, quant-ph/0005055) ----------


def _closed_form(m_true: int, params: CountingParams) -> np.ndarray:
    """The phase distribution of M marked items in 2N:
    P(y) = [F(2θ − 2πy/T) + F(−2θ − 2πy/T)] / (2T²) with
    F(φ) = sin²(Tφ/2) / sin²(φ/2) (its limit T² where sin(φ/2) = 0) and
    sin²θ = M/2N. An oracle for the kernel alone; no test of the attack reads it."""
    T = 1 << params.phase_bits
    # atan2 keeps theta to an ulp near pi/2, where asin(sqrt(M/2N)) would not
    theta = math.atan2(math.sqrt(m_true), math.sqrt(2 * params.num_pairs - m_true))
    turn = 2 * np.pi * (np.arange(T) / T)

    def fejer(phi):
        den = np.sin(phi / 2) ** 2
        return np.divide(np.sin(T * phi / 2) ** 2, den, out=np.full(T, float(T * T)),
                         where=den != 0)

    return (fejer(2 * theta - turn) + fejer(-2 * theta - turn)) / (2 * T * T)


def _assert_kernel_is_the_closed_form(sizes, params: CountingParams) -> None:
    # all sizes through one ladder, each size's column transformed on its own
    ladder = grover_ladder(np.array(sizes), params)
    for m_true, column in zip(sizes, ladder.columns):
        probs, _ = phase_distribution(column, m_true, params)
        np.testing.assert_allclose(probs, _closed_form(m_true, params),
                                   rtol=0, atol=1e-12, err_msg=f"M = {m_true}")


@pytest.mark.parametrize("n", range(1, 11))
def test_kernel_is_the_closed_form_for_every_count(n):
    params = CountingParams.default(n)
    space = 2 * params.num_pairs
    _assert_kernel_is_the_closed_form(list(range(space + 1)), params)
    for m_true in (0, 1, space // 2, space):
        np.testing.assert_allclose(
            counting_distribution(np.arange(space) < m_true, params),   # M marked first
            _closed_form(m_true, params), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(11, 17))
def test_kernel_is_the_closed_form_for_sampled_counts(n):
    params = CountingParams.default(n)
    space = 2 * params.num_pairs
    sampled = _rng(23, n).integers(0, space + 1, size=9).tolist()
    _assert_kernel_is_the_closed_form(
        sorted({0, 1, 2, space // 3, space // 2, space - 1, space, *sampled}), params)


# ---- phase estimation on the two index classes ----------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_class_reduction_with_an_empty_class_matches_reference(n):
    # M = 0 leaves the marked row zero, all 2N marked leaves the unmarked row zero
    params = CountingParams.default(n)
    space = 1 << (n + 1)
    for marked in (np.zeros(space, dtype=bool), np.ones(space, dtype=bool)):
        np.testing.assert_allclose(counting_distribution(marked, params),
                                   reference_counting_distribution(marked, params),
                                   rtol=0, atol=1e-12)


def test_integer_table_counts_like_its_bool_twin():
    params = CountingParams.default(4)
    twin = np.random.default_rng(400).random(32) < 0.3
    table = twin.astype(np.int64)
    kernel = counting_distribution(table, params)
    np.testing.assert_allclose(kernel, reference_counting_distribution(table, params),
                               rtol=0, atol=1e-12)
    assert np.array_equal(kernel, counting_distribution(twin, params))


def _class_powers(marked, steps):
    """G^0|u> .. G^steps|u> of a table as the search's (unmarked, marked) class
    amplitudes, each step taken by its helper."""
    n_marked = int(np.count_nonzero(marked))
    powers = [(1 / math.sqrt(marked.size),) * 2]
    for _ in range(steps):
        powers.append(_class_grover_step(marked.size - n_marked, n_marked,
                                         2.0 / marked.size, *powers[-1]))
    return powers


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), steps=st.integers(0, 64), data=st.data())
def test_class_state_equals_the_full_state_after_every_step(n, steps, data):
    # the two-class form against the full vector on random tables, an empty
    # and a full marked class included. The full diffusion sums 2N amplitudes
    # pairwise, the class form two products, so they may part by about a
    # rounding per step: 1e-15 plus two ulps per step (4000 random tables
    # over 64 steps reached at most 0.82 of 1e-15 plus one ulp per step)
    reg = Register("index", 0, n + 1)
    marked = np.array(data.draw(st.one_of(
        st.sampled_from([[False] * reg.size, [True] * reg.size]),
        st.lists(st.booleans(), min_size=reg.size, max_size=reg.size))))
    full = StateVector.uniform(reg.width)
    powers = _class_powers(marked, steps)
    for step in range(1, steps + 1):
        grover_iteration(full, reg, marked)
        u, m = powers[step]
        tol = 1e-15 + 2 * step * np.finfo(float).eps
        np.testing.assert_allclose(full.amps[marked], m, rtol=0, atol=tol)
        np.testing.assert_allclose(full.amps[~marked], u, rtol=0, atol=tol)
        np.testing.assert_allclose(np.where(marked, m * m, u * u), full.probabilities(reg),
                                   rtol=0, atol=tol)
    assert full.counters.oracle_calls == full.counters.diffusion_calls == steps


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 6), lanes=st.integers(1, 40), data=st.data())
def test_ladder_records_the_class_state_bit_for_bit(n, m, lanes, data):
    # row b of lane i of the record is the search's class amplitudes of table
    # i after b Grover steps, to the bit (signed zeros included), on random
    # stacks with an empty and a full row; t = m + 3 reaches 9. One formula
    # serves both loops
    params = CountingParams(n, m, 0.1)
    space = 2 << n
    rows = [[False] * space, [True] * space][:lanes]
    rows += [data.draw(st.lists(st.booleans(), min_size=space, max_size=space))
             for _ in range(lanes - len(rows))]
    tables = np.array(rows)
    ladder = grover_ladder(np.count_nonzero(tables, axis=1), params)
    T = 1 << params.phase_bits
    assert len(ladder.columns) == lanes and ladder.g_gates == T - 1
    for i, table in enumerate(tables):
        assert ladder.columns[i].shape == (T, 2)
        powers = _class_powers(table, T - 1)
        assert np.array(powers).tobytes() == ladder.columns[i].tobytes()


def test_class_state_gates_check_the_weighted_norm(monkeypatch):
    # a step fed an unmarked amplitude nudged by 1% (K - 1 = 255 unmarked
    # values: weighted norm ~1.02) or a NaN fails its own norm check, and the
    # search builds no CDF from the power it would have made: no CDF from a
    # stepped power at all, whether or not G^0|u>'s shared uniform CDF is
    # already cached
    step = max_finding._class_grover_step
    cdf = max_finding.outcome_cdf
    marked = np.zeros(256, dtype=bool)
    marked[7] = True
    for corrupt, cold in itertools.product((lambda u: u * 1.01, lambda u: math.nan),
                                           (True, False)):
        built = []

        def corrupted(n_unmarked, n_marked, scale, u, m):
            return step(n_unmarked, n_marked, scale, corrupt(u), m)

        def recorded(probs):
            built.append(probs)
            return cdf(probs)

        monkeypatch.setattr(max_finding, "_class_grover_step", corrupted)
        monkeypatch.setattr(max_finding, "outcome_cdf", recorded)
        if cold:
            max_finding._round_plan.cache_clear()
        with pytest.raises(CorruptedStateError, match="norm drift"):
            grover_search_marked(marked, 8, _rng(12), SearchBudget(1, 10**6))
        # G^0|u>'s shared uniform CDF is built only on a cold cache
        assert len(built) == cold and all(np.ptp(probs) == 0.0 for probs in built)


def test_gate_counts_are_observed_not_computed(monkeypatch, planted, table_estimate):
    # the reported counts equal the G steps and Fourier gates actually applied
    applied = {"g": 0, "qft": 0}
    step = quantum_counting._class_grover_step

    def counting_g(*args):
        applied["g"] += 1
        return step(*args)

    def counting_gate(name):
        gate = getattr(StateVector, name)

        def wrapper(self, *args):
            applied["qft"] += 1
            gate(self, *args)
        return wrapper

    monkeypatch.setattr(quantum_counting, "_class_grover_step", counting_g)
    for name in ("_hadamard", "_controlled_phase", "_swap"):
        monkeypatch.setattr(StateVector, name, counting_gate(name))
    params = CountingParams.default(5)
    marked = np.zeros(64, dtype=bool)
    marked[[3, 17, 30]] = True
    est = table_estimate(marked, params, _rng(12))
    assert est.g_gate_count == applied["g"] == (1 << params.phase_bits) - 1
    assert est.qft_gate_count == applied["qft"] == qft_gate_budget(params.phase_bits)

    # the counter: one ladder over the three class sizes (0, 2, 8), then one
    # Fourier transform per size, on the first demand of a subkey of that
    # size, whose estimate alone reports the gates
    _, _, _, ctx = planted
    params = CountingParams.default(6)
    t = params.phase_bits
    sizes = ctx.counts.tolist()
    assert sorted(set(sizes)) == [0, 2, 8]
    applied.update(g=0, qft=0)
    counter = QuantumCounter(ctx, ClassLadders(params), _rng(13))
    for x in range(16):
        counter.count(x)
    assert applied["g"] == (1 << t) - 1
    assert len(counter.estimates) == 16
    for est in counter.estimates.values():
        assert est.g_gate_count == (1 << t) - 1
    firsts = [sizes.index(m) for m in dict.fromkeys(sizes)]
    assert {x: est.qft_gate_count for x, est in counter.estimates.items()} == {
        x: qft_gate_budget(t) if x in firsts else 0 for x in range(16)}
    assert _qft_sum(counter.estimates) == applied["qft"] == 3 * qft_gate_budget(t)


def test_width_is_checked_before_the_ladder(monkeypatch):
    # t = 17: 256 lanes make the record t+1+8 = 26 qubits, refused before any G step
    steps = []
    monkeypatch.setattr(quantum_counting, "_class_grover_step",
                        lambda *args: steps.append(args))
    params = CountingParams(1, 14, 0.1)
    assert params.phase_bits == 17
    with pytest.raises(ValueError, match="256 lanes needs t\\+1\\+8 = 26 qubits"):
        grover_ladder(np.zeros(256, dtype=np.int64), params)
    assert steps == []


def test_counting_wider_than_the_qubit_limit_runs(table_estimate):
    # t = 12 and n = 16: the t+n+1 = 29-qubit circuit is never allocated, and
    # its transformed state is t+1 = 13 qubits wide
    params = CountingParams(16, 9, 0.1)
    assert params.init_steps == 29
    marked = np.zeros(1 << 17, dtype=bool)
    marked[:1 << 10] = True
    est = table_estimate(marked, params, _rng(0))
    assert est.g_gate_count == (1 << 12) - 1
    assert est.qft_gate_count == qft_gate_budget(12)
    # the most likely outcome estimates M within the bound
    b = int(np.argmax(counting_distribution(marked, params)))
    m_est = estimate_from_outcome(b, params)[1]
    assert abs(m_est - (1 << 10)) <= counting_error_bound(1 << 10, 1 << 16, 9)


# ---- one ladder over a stack of tables -------------------------------------------


def _single_table_distribution(marked, params):
    """The per-estimate circuit written out: a one-lane ladder, its own
    (t+1)-qubit state with the class on the top qubit, one inverse QFT, the
    readout."""
    t = params.phase_bits
    T = 1 << t
    n_marked = int(np.count_nonzero(marked))
    ladder = grover_ladder(np.array([n_marked]), params)
    state = StateVector(t + 1)
    scale = [[math.sqrt((marked.size - n_marked) / T)], [math.sqrt(n_marked / T)]]
    np.multiply(ladder.columns[0].T, scale, out=state.amps.reshape(2, T))
    state.inverse_qft(Register("phase", 0, t))
    view = state.amps.reshape(2, T, 1)
    return np.einsum("irj,irj->r", view, view.conj()).real


def _assert_lanes_equal_single_tables(tables, params):
    # each table's distribution, and its size's row in a memo laddered over
    # the whole stack, are those of the single-table circuit, to the bit
    sizes = np.count_nonzero(tables, axis=1)
    memo = ClassLadders(params)
    rows = memo.ladder(sizes)
    assert list(rows) == list(memo.rows) == list(dict.fromkeys(sizes.tolist()))
    for table, m_true in zip(tables, sizes.tolist()):
        alone = _single_table_distribution(table, params)
        assert alone.shape == (1 << params.phase_bits,)
        assert counting_distribution(table, params).tobytes() == alone.tobytes()
        assert rows[m_true].cdf.tobytes() == outcome_cdf(alone).tobytes()
        assert memo.rows[m_true].cdf is rows[m_true].cdf


@pytest.mark.parametrize("key", [0x09, 0x33, 0x5A])
@pytest.mark.parametrize("n", [1, 3, 6, 8])
def test_lanes_equal_the_single_table_path(cipher, key, n):
    # k = 4: one memo holds all 16 lanes
    ch = default_characteristic(cipher, key)
    ctx = AttackContext(cipher, ch, gen_pairs(cipher, key, ch.plaintext_diff, n))
    _assert_lanes_equal_single_tables(ctx.table, CountingParams.default(n))


def test_lanes_equal_the_single_table_path_at_k8(cipher):
    # the golden attack_k8n8 instance: P' = 01, delta = 11, key 0x09
    ch = make_characteristic(cipher, 0x09, 0x01, 0x11)
    ctx = AttackContext(cipher, ch, gen_pairs(cipher, 0x09, 0x01, 8))
    assert ctx.table.shape == (256, 512)
    _assert_lanes_equal_single_tables(ctx.table, CountingParams.default(8))


def test_lanes_equal_the_single_table_path_one_lane_per_block():
    # t = 13, a wide phase register over three sizes
    params = CountingParams(2, 10, 0.1)
    assert params.phase_bits == 13
    tables = np.zeros((3, 8), dtype=bool)
    tables[1, [0, 2, 3]] = tables[2, :4] = True
    _assert_lanes_equal_single_tables(tables, params)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 3), lanes=st.sampled_from([1, 4, 16]),
       data=st.data())
def test_lanes_equal_the_single_table_path_on_random_stacks(n, m, lanes, data):
    # rows 0 and 1 (when there are two or more) are all unmarked and all marked
    space = 1 << (n + 1)
    rows = [[False] * space, [True] * space][:lanes]
    rows += [data.draw(st.lists(st.booleans(), min_size=space, max_size=space))
             for _ in range(lanes - len(rows))]
    _assert_lanes_equal_single_tables(np.array(rows), CountingParams(n, m, 0.1))


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("subkey_bits, index_bits, doc", [
    (4, 6, None), (8, 8, "k8_characteristic.json"), (4, 10, "w16_k4_characteristic.json")])
def test_every_block_cdf_row_is_the_outcome_cdf_of_its_row(subkey_bits, index_bits, doc):
    # each of the memo's rows is, byte for byte, the CDF a draw would build
    # from its size's distribution
    fields = json.loads((FIXTURES / doc).read_text()) if doc else {}
    cfg = AttackConfig(subkey_bits=subkey_bits, index_bits=index_bits, **fields)
    ctx, params = cfg.planted_instance[0], cfg.counting_params()
    memo = ClassLadders(params)
    rows = memo.ladder(ctx.counts)
    assert sorted(rows) == sorted(memo.rows) == sorted(set(ctx.counts.tolist()))
    space = 2 * params.num_pairs
    for m_true in memo.rows:
        row = rows[m_true].cdf
        assert row is memo.rows[m_true].cdf and row.shape == (1 << params.phase_bits,)
        table = np.arange(space) < m_true
        assert row.tobytes() == outcome_cdf(counting_distribution(table, params)).tobytes()


def test_counter_draws_in_demand_order(planted, table_estimate):
    # one ladder for all 16 subkeys; the estimates and the rng stream are
    # those of one table counted alone per newly demanded subkey, in that
    # order, but for the Fourier gates: a cold memo transforms each of the D
    # sizes once, so the estimates sum to D transforms' gates
    _, _, _, ctx = planted
    params = CountingParams.default(6)
    order = [11, *range(16), 11, 3]
    counter = QuantumCounter(ctx, ClassLadders(params), _rng(14))
    counts = [counter.count(x) for x in order]
    rng = _rng(14)
    expected = {}
    for x in order:
        if x not in expected:
            expected[x] = table_estimate(ctx.marked_table(x), params, rng)
    assert _all_but_qft(counter.estimates) == _all_but_qft(expected)
    assert counts == [expected[x].right_pairs for x in order]
    assert len(counter.estimates) == 16
    assert counter.rng.bit_generator.state == rng.bit_generator.state
    distinct = len(set(ctx.counts.tolist()))
    assert _qft_sum(counter.estimates) == distinct * qft_gate_budget(params.phase_bits)
    assert _qft_sum(expected) == 16 * qft_gate_budget(params.phase_bits)


def test_each_block_is_transformed_once(monkeypatch, cipher, table_estimate):
    # the golden attack_k8n8 instance: asked for y and then every subkey, the
    # counter transforms each distinct class size exactly once, on a
    # (t+1)-qubit state, and draws what tables counted alone draw
    ch = make_characteristic(cipher, 0x09, 0x01, 0x11)
    ctx = AttackContext(cipher, ch, gen_pairs(cipher, 0x09, 0x01, 8))
    params = CountingParams.default(8)
    distinct = len(set(ctx.counts.tolist()))
    width = params.phase_bits + 1
    transforms = []
    inverse_qft = StateVector.inverse_qft

    def recording_qft(self, reg):
        transforms.append(self.num_qubits)
        inverse_qft(self, reg)

    monkeypatch.setattr(StateVector, "inverse_qft", recording_qft)
    memo = ClassLadders(params)
    counter = QuantumCounter(ctx, memo, _rng(15))
    order = [77, *range(256)]
    for x in order:
        counter.count(x)
    assert transforms == [width] * distinct and distinct < 16
    assert sorted(memo.rows) == sorted(set(ctx.counts.tolist()))
    assert _qft_sum(counter.estimates) == distinct * qft_gate_budget(params.phase_bits)
    transforms.clear()
    rng = _rng(15)
    expected = {}
    for x in order:
        if x not in expected:
            expected[x] = table_estimate(ctx.marked_table(x), params, rng)
    assert transforms == [width] * 256
    assert _all_but_qft(counter.estimates) == _all_but_qft(expected)
    assert counter.rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("shared", [False, True], ids=["own_memo", "config_memo"])
def test_a_counter_holds_its_memo_and_one_transform(monkeypatch, cipher, shared):
    # the golden attack_k8n8 instance at t = 11, as an attack's trials take it.
    # A counter's first count runs one ladder over the D distinct sizes,
    # transforms each lane and keeps the D CDF rows in a memo, its own or the
    # config's; the first count peaks at the (T, 2, D) record, the rows and
    # one transform (its state, a gate's temporaries, its distribution and
    # its lane's column) or the norm pass's chunk temporaries, and leaves the
    # D rows alone. The sweep that follows draws without a transform, so it
    # ends holding the D rows and its 256 estimates and peaks less than a row
    # above that. A later counter given the config's memo runs no ladder and
    # no transform, and holds its estimates alone
    ch = make_characteristic(cipher, 0x09, 0x01, 0x11)
    ctx = AttackContext(cipher, ch, gen_pairs(cipher, 0x09, 0x01, 8))
    params = CountingParams(8, 8, 0.1)
    t = params.phase_bits
    assert t == 11
    distinct = len(set(ctx.counts.tolist()))   # the counts are built on first use
    QuantumCounter(ctx, ClassLadders(params), _rng(16)).count(0)   # first-call allocations
    row = (1 << t) * 8
    column = 2 * row
    held = distinct * row
    record = distinct * column
    transform = 2 * (16 << (t + 1)) + (16 << t) + column
    norm_pass = 4 * 8 * min(distinct << t, quantum_counting.LANE_BLOCK_AMPS)
    estimates = 256 * 512   # about 220 bytes each
    memo = ClassLadders(params) if shared else None
    steps = []
    real_step = quantum_counting._class_grover_step
    monkeypatch.setattr(quantum_counting, "_class_grover_step",
                        lambda *args: steps.append(None) or real_step(*args))
    memory, transforms = [], []
    for trial in range(2):
        tracemalloc.start()
        try:
            counter = QuantumCounter(ctx, memo or ClassLadders(params), _rng(16, trial))
            counter.count(201)   # the ladder, its norm pass and the transforms
            first = tracemalloc.get_traced_memory()   # (now, peak)
            tracemalloc.reset_peak()
            for x in range(256):
                counter.count(x)
            memory.append((first, tracemalloc.get_traced_memory()))
        finally:
            tracemalloc.stop()
        transforms.append(_qft_sum(counter.estimates) // qft_gate_budget(t))
        assert len(counter._ladders.rows) == len(counter._rows) == distinct < 64
    ((first_now, first_peak), (now, peak)), ((later_first, _), (later_now, later_peak)) = memory
    assert held < first_now < held + estimates
    assert first_peak < held + record + max(transform, norm_pass)
    assert held < now < held + estimates and peak < now + row
    assert held + estimates + transform < 256 * column   # less than one (T, 2, K) record
    if shared:
        assert transforms == [distinct, 0] and len(steps) == (1 << t) - 1
        assert later_peak < estimates
    else:
        assert transforms == [distinct, distinct] and len(steps) == 2 * ((1 << t) - 1)
        assert held < later_first < held + estimates
        assert held < later_now < held + estimates and later_peak < later_now + row


def test_ladder_refuses_bad_sizes_before_any_step(monkeypatch):
    # 2N = 16: sizes that are not an (L,) integer array, a size outside
    # [0, 16], and 2**21 lanes at t = 4 (t+1+21 = 26 qubits) are each refused
    # before the first G step
    steps = []
    monkeypatch.setattr(quantum_counting, "_class_grover_step",
                        lambda *args: steps.append(args))
    params = CountingParams(3, 1, 0.1)
    assert params.phase_bits == 4
    for sizes, match in ((np.zeros((1, 1), dtype=np.int64), "\\(L,\\) integer array"),
                         (np.zeros(16, dtype=bool), "\\(L,\\) integer array"),
                         (np.array([3, -1]), "\\[0, 2N\\] = \\[0, 16\\]"),
                         (np.array([17, 3]), "\\[0, 2N\\] = \\[0, 16\\]"),
                         (np.zeros(1 << 21, dtype=np.int64), "t\\+1\\+21 = 26 qubits")):
        with pytest.raises(ValueError, match=match):
            grover_ladder(sizes, params)
    assert steps == []
    monkeypatch.undo()
    ladder = grover_ladder(np.array([0, 16]), params)
    assert [c.shape for c in ladder.columns] == [(1 << params.phase_bits, 2)] * 2


def test_a_ladder_of_no_lanes_is_refused_before_any_step(monkeypatch):
    # an empty size array is refused with ValueError, not a division by its
    # zero lanes; a memo asked for no sizes ladders nothing and returns {}
    steps = []
    monkeypatch.setattr(quantum_counting, "_class_grover_step",
                        lambda *args: steps.append(args))
    params = CountingParams.default(4)
    with pytest.raises(ValueError, match="at least one class size"):
        grover_ladder(np.array([], dtype=np.int64), params)
    memo = ClassLadders(params)
    assert memo.ladder(np.array([], dtype=np.int64)) == {} and memo.rows == {}
    assert steps == []


def test_the_ladder_and_the_search_share_one_grover_step():
    # one function object steps the counting ladder's lanes and the search's
    # Python floats
    assert max_finding._class_grover_step is quantum_counting._class_grover_step


@pytest.mark.parametrize("step, lane, amp, fault", [
    (1, 3, "unmarked", 1.01), (5, 0, "unmarked", 1.01), (15, 4095, "unmarked", 1.01),
    (8, 1, "marked", 1.01), (15, 7, "marked", np.nan), (2, 1, "unmarked", np.nan)])
def test_ladder_refuses_a_lane_off_the_unit_sphere(monkeypatch, table_estimate, step, lane,
                                                   amp, fault):
    # a step that leaves one lane's class amplitude 1% off (outside NORM_TOL)
    # or NaN fails the ladder before it returns, whichever power it is: 4096
    # lanes of t = 4 check the 16 powers in four chunks of four rows, and
    # power 15 sits in the last one. Lanes 0, 3 and 4095 mark nothing, lane 1
    # one index, lane 7 all four. A counted table draws nothing first.
    tables = np.zeros((4096, 4), dtype=bool)
    tables[1::3, 1] = tables[2::5] = True
    params = CountingParams(1, 1, 0.1)
    assert params.phase_bits == 4 and quantum_counting.LANE_BLOCK_AMPS // 4096 == 4
    real_step = quantum_counting._class_grover_step
    applied, at = [], {"lane": lane}

    def faulty_step(*args):
        u, m = real_step(*args)
        applied.append(None)
        if len(applied) == step:
            (u if amp == "unmarked" else m)[at["lane"]] *= fault
        return u, m

    monkeypatch.setattr(quantum_counting, "_class_grover_step", faulty_step)
    sizes = np.count_nonzero(tables, axis=1)
    with pytest.raises(CorruptedStateError, match="norm drift"):
        grover_ladder(sizes, params)
    assert len(applied) == 15
    rng = _rng(3)
    state = rng.bit_generator.state
    applied.clear()
    at["lane"] = 0   # the table's one lane
    with pytest.raises(CorruptedStateError, match="norm drift"):
        table_estimate(tables[lane], params, rng)
    assert rng.bit_generator.state == state
    # the same stack through the unpatched step passes
    monkeypatch.setattr(quantum_counting, "_class_grover_step", real_step)
    assert grover_ladder(sizes, params).g_gates == 15


# ---- the ladder memoized by class size --------------------------------------------


def _k4n6_instances():
    """The planted k4n6 instance (sizes 0, 2, 8) and key 0's (0, 2, 4, 6)."""
    cfg = AttackConfig(subkey_bits=4, index_bits=6, trials=1)
    return cfg.counting_params(), [cfg.planted_instance[0], cfg.instance(0)[0]]


def test_a_warm_memo_draws_what_a_cold_counter_draws():
    # a memo warmed by a counter over instance 0 holds its sizes' rows: a
    # counter given it draws, to the bit, what a counter with a cold memo
    # draws, and transforms only the sizes whose rows it lacks
    params, contexts = _k4n6_instances()
    sizes = [set(ctx.counts.tolist()) for ctx in contexts]
    assert sizes[0] & sizes[1] and sizes[1] - sizes[0]   # the sizes partly overlap
    memo = ClassLadders(params)
    QuantumCounter(contexts[0], memo, _rng(18, 9)).count_all()
    budget = qft_gate_budget(params.phase_bits)
    order = [5, *range(16)]
    for i, ctx in enumerate(contexts):
        lacked = sizes[i] - set(memo.rows)
        cold = QuantumCounter(ctx, ClassLadders(params), _rng(18, i))
        warm = QuantumCounter(ctx, memo, _rng(18, i))
        for x in order:
            assert warm.count(x) == cold.count(x)
        assert _all_but_qft(warm.estimates) == _all_but_qft(cold.estimates)
        assert warm.rng.bit_generator.state == cold.rng.bit_generator.state
        assert _qft_sum(cold.estimates) == len(sizes[i]) * budget
        assert _qft_sum(warm.estimates) == len(lacked) * budget
    assert not sizes[0] - set(memo.rows) and sizes[1] - sizes[0]
    assert sorted(memo.rows) == sorted(sizes[0] | sizes[1])


class _SizeContext:
    """Duck-typed context of K = 2 subkeys at n = 3, given their counts alone."""

    subkey_bits, index_bits = 1, 3

    def __init__(self, counts):
        self.counts = np.array(counts)


def test_counters_sharing_a_memo_in_turns_draw_what_cold_counters_draw():
    # two counters of two lanes each on one memo: the second counter's sizes
    # evict the first's, which keeps drawing from the rows it holds
    params = CountingParams.default(3)
    contexts = [_SizeContext([1, 2]), _SizeContext([3, 4])]
    memo = ClassLadders(params)
    shared = [QuantumCounter(ctx, memo, _rng(19, i)) for i, ctx in enumerate(contexts)]
    cold = [QuantumCounter(ctx, ClassLadders(params), _rng(19, i))
            for i, ctx in enumerate(contexts)]
    for x in (0, 1):
        for i in (0, 1):
            assert shared[i].count(x) == cold[i].count(x)
            # the first count of each counter ladders its sizes; only the
            # first counter's first count leaves its own sizes in the memo
            assert list(memo.rows) == contexts[(x, i) != (0, 0)].counts.tolist()
    for a, b in zip(shared, cold):
        assert _all_but_qft(a.estimates) == _all_but_qft(b.estimates)
        assert a.rng.bit_generator.state == b.rng.bit_generator.state


def test_a_counter_whose_sizes_a_sibling_evicts_ladders_once(monkeypatch):
    # the first counter's sizes (1, 2) are evicted by the second's (3, 4)
    # between its two counts: it runs no second ladder, draws exactly what a
    # cold counter draws, and the Fourier gates the shared counters'
    # estimates report sum to the gates counted at the transforms
    params = CountingParams.default(3)
    contexts = [_SizeContext([1, 2]), _SizeContext([3, 4])]
    cold = [QuantumCounter(ctx, ClassLadders(params), _rng(20, i))
            for i, ctx in enumerate(contexts)]
    for counter in cold:
        counter.count_all()
    runs = []
    ladder = quantum_counting.grover_ladder
    monkeypatch.setattr(quantum_counting, "grover_ladder",
                        lambda sizes, p: runs.append(sizes.tolist()) or ladder(sizes, p))
    gates = []
    inverse_qft = StateVector.inverse_qft

    def counted_qft(self, reg):
        before = self.counters.qft_gates
        inverse_qft(self, reg)
        gates.append(self.counters.qft_gates - before)

    monkeypatch.setattr(StateVector, "inverse_qft", counted_qft)
    memo = ClassLadders(params)
    shared = [QuantumCounter(ctx, memo, _rng(20, i)) for i, ctx in enumerate(contexts)]
    shared[0].count(0)
    shared[1].count_all()
    assert list(memo.rows) == [3, 4]
    shared[0].count(1)
    assert runs == [[1, 2], [3, 4]] and list(memo.rows) == [3, 4]
    for a, b in zip(shared, cold):
        assert a.estimates == b.estimates
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert gates == [qft_gate_budget(params.phase_bits)] * 4
    assert sum(_qft_sum(c.estimates) for c in shared) == sum(gates)


def test_an_evicted_size_drops_its_cdf_row_with_its_column():
    # an eviction drops a size's row from the memo and frees it once no
    # counter holds it; a size laddered again is transformed again. A
    # returned row carries the Fourier gates that made it, the memo's 0
    params = CountingParams.default(3)
    budget = qft_gate_budget(params.phase_bits)
    memo = ClassLadders(params)
    rows = memo.ladder([3, 1, 3, 0])
    kept = {m: weakref.ref(memo.rows[m].cdf) for m in (3, 1, 0)}
    assert [rows[m].qft_gates for m in (3, 1, 0)] == [budget] * 3
    assert [memo.rows[m].qft_gates for m in (3, 1, 0)] == [0, 0, 0]
    assert all(rows[m].cdf is memo.rows[m].cdf for m in (3, 1, 0))
    rows = memo.ladder([5, 1, 5, 5])   # 4 rows for 4 lanes: nothing evicted
    assert list(rows) == [5, 1] and [rows[5].qft_gates, rows[1].qft_gates] == [budget, 0]
    assert list(memo.rows) == [3, 1, 0, 5]
    rows = memo.ladder([6, 1, 7, 1])   # evicts 3 and 0, keeps 1
    assert list(memo.rows) == [1, 5, 6, 7]
    assert kept[3]() is None and kept[0]() is None and kept[1]() is memo.rows[1].cdf
    rows = memo.ladder([3])   # one lane: evicts all four
    assert list(memo.rows) == [3] and rows[3].qft_gates == budget


def test_every_memo_column_is_its_size_run_alone():
    # every size's row, laddered in a 16-lane stack, is the CDF of its size
    # laddered and transformed alone, to the bit
    params, contexts = _k4n6_instances()
    memo = ClassLadders(params)
    for ctx in contexts:
        rows = memo.ladder(ctx.counts)
        assert list(rows) == list(dict.fromkeys(ctx.counts.tolist()))
        alone = grover_ladder(ctx.counts, params)
        assert len(alone.columns) == 16 and alone.g_gates == 127
        # every lane's size has its row in the memo, its lane's transform
        for m_true, its in zip(ctx.counts.tolist(), alone.columns):
            cdf = outcome_cdf(phase_distribution(its, m_true, params)[0])
            assert memo.rows[m_true].cdf.tobytes() == cdf.tobytes()
            assert rows[m_true].g_gates == memo.rows[m_true].g_gates == 127
    assert 0 in memo.rows
    for m_true, row in memo.rows.items():
        alone = grover_ladder(np.array([m_true]), params)
        probs = phase_distribution(alone.columns[0], m_true, params)[0]
        assert row.cdf.tobytes() == outcome_cdf(probs).tobytes()
        np.testing.assert_allclose(probs, _closed_form(m_true, params), rtol=0, atol=1e-12)


def test_a_memo_runs_each_missing_size_once_and_stays_within_the_stack(monkeypatch):
    params = CountingParams.default(3)
    memo = ClassLadders(params)
    runs = []
    ladder = quantum_counting.grover_ladder
    monkeypatch.setattr(quantum_counting, "grover_ladder",
                        lambda sizes, p: runs.append(sizes.tolist()) or ladder(sizes, p))
    memo.ladder([3, 1, 3, 0])
    memo.ladder([1, 0, 3, 3])   # all hits
    assert runs == [[3, 1, 0]] and list(memo.rows) == [3, 1, 0]
    memo.ladder([5, 1, 5, 5])   # one miss: 4 rows for 4 lanes
    assert runs[1:] == [[5]] and list(memo.rows) == [3, 1, 0, 5]
    # 4 + 2 > 4: the two oldest rows these lanes do not use (3, 0) go, and
    # 1, which they use, stays
    memo.ladder([6, 1, 7, 1])
    assert runs[2:] == [[6, 7]] and list(memo.rows) == [1, 5, 6, 7]
    # every kept row is still its size run alone, to the bit
    for m_true, row in memo.rows.items():
        column = ladder(np.array([m_true]), params).columns[0]
        cdf = outcome_cdf(phase_distribution(column, m_true, params)[0])
        assert row.cdf.tobytes() == cdf.tobytes()


def test_an_evicted_column_frees_its_record():
    # t = 13, a 64 KiB row: the memo holds four rows' worth after each ladder,
    # neither the ladder's record (four 128 KiB columns) nor the rows of the
    # sizes it evicts (1, 2 and 3)
    params = CountingParams(3, 10, 0.1)
    row = (1 << params.phase_bits) * 8
    assert row == 64 << 10
    memo = ClassLadders(params)
    memo.ladder([4, 4])   # first-call allocations
    memo = ClassLadders(params)
    tracemalloc.start()
    try:
        memo.ladder([1, 2, 3, 4])
        held = tracemalloc.get_traced_memory()[0]
        memo.ladder([5, 6, 7, 4])   # evicts 1, 2 and 3
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert list(memo.rows) == [4, 5, 6, 7]
    assert 4 * row < held < 4 * row + row // 4
    # keeping the evicted rows would hold 4 + 3 rows
    assert 4 * row < after < 4 * row + row // 4


def test_the_ladder_record_is_freed_when_ladder_returns(monkeypatch):
    # the memo keeps each size's row alone: once ``ladder`` returns, nothing
    # holds the (T, 2, L) record its one ``grover_ladder`` call made
    params = CountingParams.default(3)
    records, shapes = [], []
    real_ladder = quantum_counting.grover_ladder

    def recorded_ladder(sizes, p):
        ladder = real_ladder(sizes, p)
        record = ladder.columns[0].base
        records.append(weakref.ref(record))
        shapes.append(record.shape)
        return ladder

    monkeypatch.setattr(quantum_counting, "grover_ladder", recorded_ladder)
    memo = ClassLadders(params)
    rows = memo.ladder([3, 1, 3, 0])
    assert shapes == [(1 << params.phase_bits, 2, 3)]
    assert records[0]() is None
    assert sorted(rows) == sorted(memo.rows) == [0, 1, 3]


def test_a_memo_stores_no_column_off_the_unit_sphere(monkeypatch):
    params = CountingParams.default(3)
    memo = ClassLadders(params)
    real_step = quantum_counting._class_grover_step

    def drifting_step(n_u, n_m, scale, u, m):
        u, m = real_step(n_u, n_m, scale, u, m)
        m[-1] = np.nan
        return u, m

    monkeypatch.setattr(quantum_counting, "_class_grover_step", drifting_step)
    with pytest.raises(CorruptedStateError):
        memo.ladder([2, 5])
    assert memo.rows == {}


def test_a_memo_checks_the_whole_stack_before_the_ladder(monkeypatch):
    # 256 lanes of one size, but their (T, 2, 256) record is refused
    steps = []
    monkeypatch.setattr(quantum_counting, "_class_grover_step",
                        lambda *args: steps.append(args))
    params = CountingParams(1, 14, 0.1)
    memo = ClassLadders(params)
    with pytest.raises(ValueError, match="256 lanes needs t\\+1\\+8 = 26 qubits"):
        memo.ladder(np.zeros(256, dtype=np.int64))
    with pytest.raises(ValueError, match="integer array"):
        memo.ladder(np.zeros((2, 4), dtype=np.int64))
    with pytest.raises(ValueError, match="\\[0, 2N\\]"):
        memo.ladder([0, 5])
    assert steps == [] and memo.rows == {}


# ---- coherent cross-check ------------------------------------------------------


class _TableContext:
    """Duck-typed context with injected predicate tables (k and n tiny)."""

    def __init__(self, tables):
        self.tables = [np.asarray(t, dtype=bool) for t in tables]
        self.subkey_bits = int(math.log2(len(tables)))
        self.index_bits = int(math.log2(self.tables[0].size)) - 1

    def marked_table(self, x):
        return self.tables[x]


def test_coherent_mode_matches_parameterized_circuit():
    rng = np.random.default_rng(0)
    tables = [rng.random(8) < 0.4 for _ in range(4)]
    for t in tables:
        t[4:] = False  # padding never marks
    ctx = _TableContext(tables)
    params = CountingParams(2, 2, 0.1)
    for x in range(4):
        coherent = coherent_counting_distribution(x, params, ctx)
        classical_x = counting_distribution(ctx.marked_table(x), params)
        assert np.allclose(coherent, classical_x, atol=1e-9)
        assert np.allclose(coherent, reference_counting_distribution(
            ctx.marked_table(x), params), atol=1e-9)


def test_coherent_mode_is_size_capped(planted):
    _, _, _, ctx = planted
    with pytest.raises(ValueError):
        coherent_counting_distribution(0, CountingParams.default(6), ctx)


# ---- error bounds ----------------------------------------------------------------


@pytest.mark.parametrize("n, m_true, coverage", [
    (6, 1, 0.871), (8, 16, 0.811), (12, 16, 0.825)])
def test_default_profile_bound_holds_below_its_target(n, m_true, coverage):
    # the default profile (eps = 0.1) is built for 1 - eps = 0.9, yet the exact
    # probability of an estimate inside counting_error_bound is lower at n >= 6:
    # a bound_hit_rate below 0.9 there is what the bound predicts
    params = CountingParams.default(n)
    marked = np.zeros(2 << n, dtype=bool)
    marked[:m_true] = True
    dist = counting_distribution(marked, params)
    bound = counting_error_bound(m_true, params.num_pairs, params.accuracy_bits)
    inside = [abs(estimate_from_outcome(b, params)[1] - m_true) <= bound
              for b in range(dist.size)]
    assert dist[inside].sum() == pytest.approx(coverage, abs=1e-3)


def test_error_bound_published_values():
    assert profile_error_bound(8) == 2.125
    assert (8 - 2.125, 8 + 2.125) == (5 + 7 / 8, 10 + 1 / 8)
    assert profile_error_bound(1 / 512) == 80 / 512
    low, high = 1 / 512 - 80 / 512, 1 / 512 + 80 / 512
    assert (low, high) == (-79 / 512, 81 / 512)


def test_error_bound_zero_count():
    # sqrt term vanishes: bound reduces to N * 2^-(2m+1)
    for n_pairs, m in ((8, 3), (64, 4), (1024, 6)):
        assert counting_error_bound(0, n_pairs, m) == n_pairs * 2.0 ** -(2 * m + 1)


def test_general_bound_reproduces_profile_bound_when_tight():
    # with 2^m = 2 sqrt(N) the general form collapses to sqrt(M/2) + 1/8
    for m_true in (0.5, 1, 4, 8):
        assert counting_error_bound(m_true, 1024, 6) == pytest.approx(
            profile_error_bound(m_true), abs=1e-15)
        assert counting_error_bound(m_true, 16, 3) == pytest.approx(
            profile_error_bound(m_true), abs=1e-15)


def test_error_bound_domain():
    with pytest.raises(ValueError):
        counting_error_bound(-1, 8, 3)
    with pytest.raises(ValueError):
        counting_error_bound(1, 0, 3)
    with pytest.raises(ValueError):
        profile_error_bound(-0.5)

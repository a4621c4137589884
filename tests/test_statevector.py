import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdca.statevector import (CorruptedStateError, Register, RegisterMap, StateVector,
                              _assert_unit_norm, draw_outcome)


def test_uniform_one_qubit():
    s = StateVector.uniform(1)
    assert np.allclose(s.amps, [1 / math.sqrt(2)] * 2)


def test_uniform_three_qubits_normalized():
    s = StateVector.uniform(3)
    assert np.allclose(s.amps, [1 / math.sqrt(8)] * 8)
    assert abs(s.norm_squared() - 1.0) < 1e-12


def test_uniform_measurement_frequencies():
    # 10^4 seeded shots on 2 qubits: each outcome within 3 sigma of N/4
    reg = Register("r", 0, 2)
    rng = np.random.default_rng(424242)
    counts = np.zeros(4, dtype=int)
    for _ in range(10_000):
        s = StateVector.uniform(2)
        counts[s.measure(reg, rng)] += 1
    sigma = math.sqrt(10_000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 2500) <= 3 * sigma)


def test_qubit_count_bounds():
    with pytest.raises(ValueError):
        StateVector(0)
    with pytest.raises(ValueError):
        StateVector(25)
    with pytest.raises(ValueError):
        StateVector.uniform(25)


# ---- phase oracle ---------------------------------------------------------


def test_oracle_always_false_is_identity():
    s = StateVector.uniform(3)
    before = s.amps.copy()
    s.apply_phase_oracle(Register("r", 0, 3), np.zeros(8, dtype=bool))
    assert np.array_equal(s.amps, before)


def test_oracle_is_involution():
    reg = Register("r", 0, 3)
    s = StateVector.uniform(3)
    before = s.amps.copy()
    marked = np.array([v % 3 == 0 for v in range(8)])
    s.apply_phase_oracle(reg, marked)
    s.apply_phase_oracle(reg, marked)
    assert np.allclose(s.amps, before, atol=1e-15)
    assert s.counters.oracle_calls == 2


def test_oracle_marks_single_index():
    s = StateVector.uniform(2)
    s.apply_phase_oracle(Register("r", 0, 2), np.arange(4) == 3)
    assert np.allclose(s.amps, [0.5, 0.5, 0.5, -0.5])


def test_oracle_acts_on_subregister():
    # marking value 1 of the low 1-bit register flips every odd index
    s = StateVector.uniform(3)
    s.apply_phase_oracle(Register("low", 0, 1), np.array([False, True]))
    signs = np.sign(s.amps.real)
    assert np.array_equal(signs, [1, -1, 1, -1, 1, -1, 1, -1])


# ---- diffusion -------------------------------------------------------------


def test_diffusion_fixes_uniform_state():
    s = StateVector.uniform(3)
    before = s.amps.copy()
    s.apply_diffusion(Register("r", 0, 3))
    assert np.allclose(s.amps, before, atol=1e-12)


def test_diffusion_is_involution():
    reg = Register("r", 0, 2)
    s = StateVector.from_amplitudes([0.5, -0.5, 0.5, 0.5j])
    before = s.amps.copy()
    s.apply_diffusion(reg)
    s.apply_diffusion(reg)
    assert np.allclose(s.amps, before, atol=1e-10)


def test_diffusion_one_grover_step_on_four_items():
    # 4x4 hand computation: 2|u><u| - I sends (.5,.5,.5,-.5) to (0,0,0,1)
    s = StateVector.from_amplitudes([0.5, 0.5, 0.5, -0.5])
    s.apply_diffusion(Register("r", 0, 2))
    assert np.allclose(s.amps, [0, 0, 0, 1], atol=1e-12)


def test_diffusion_matches_dense_matrix_on_subregister():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    s = StateVector.from_amplitudes(amps)
    reg = Register("mid", 1, 2)  # qubits 1..2 of three
    s.apply_diffusion(reg)
    d4 = 2 * np.full((4, 4), 0.25) - np.eye(4)
    # little-endian: index = b2 b1 b0 -> register value (b2 b1), low bit separate
    full = np.kron(d4, np.eye(2))
    assert np.allclose(s.amps, full @ amps, atol=1e-12)


# ---- controlled application -------------------------------------------------


def test_controlled_unitary_zero_control_branch_unchanged():
    # control qubit in |0>: conditioned operation must do nothing
    s = StateVector(2)  # |00>
    reg = Register("t", 0, 1)
    s.apply_controlled_unitary_power(1, lambda sv: sv.apply_phase_oracle(reg, np.ones(2, dtype=bool)), 4)
    expect = np.zeros(4, dtype=complex)
    expect[0] = 1
    assert np.allclose(s.amps, expect)


def test_controlled_power_one_equals_conditioned_oracle():
    s = StateVector.uniform(2)
    reg = Register("t", 0, 1)
    s.apply_controlled_unitary_power(1, lambda sv: sv.apply_phase_oracle(reg, np.array([False, True])), 1)
    # only |11> picks up the sign
    assert np.allclose(s.amps, [0.5, 0.5, 0.5, -0.5])


@pytest.mark.parametrize("power", [1, 2, 4, 8])
def test_controlled_phase_kickback(power):
    # eigenphase pi/4: control |+> accumulates e^{i pi/4 power} on its |1> branch
    reg = Register("t", 0, 1)
    s = StateVector.uniform(2)

    def u(sv):
        sv.apply_conditional_phase(reg, np.ones(2, dtype=bool), math.pi / 4)

    s.apply_controlled_unitary_power(1, u, power)
    phase = np.exp(1j * math.pi / 4 * power)
    assert np.allclose(s.amps, [0.5, 0.5, 0.5 * phase, 0.5 * phase], atol=1e-12)


def test_controlled_power_validation():
    s = StateVector.uniform(2)
    with pytest.raises(ValueError):
        s.apply_controlled_unitary_power(0, lambda sv: None, 3)
    with pytest.raises(ValueError):
        s.apply_controlled_unitary_power(5, lambda sv: None, 2)


def test_register_overlapping_control_rejected():
    s = StateVector.uniform(3)
    reg = Register("r", 0, 2)

    def u(sv):
        sv.apply_phase_oracle(reg, np.ones(4, dtype=bool))

    with pytest.raises(ValueError):
        s.apply_controlled_unitary_power(1, u, 1)  # control inside reg


def _controls_on(size, controls):
    idx = np.arange(size)
    on = np.ones(size, dtype=bool)
    for c in controls:
        on &= (idx >> c) & 1 == 1
    return on


def _mask_phase(amps, reg, controls, table, factor):
    # index-mask oracle: scale the marked values of reg where every control is |1>
    values = (np.arange(amps.size) >> reg.offset) & (reg.size - 1)
    out = amps.copy()
    out[_controls_on(amps.size, controls) & table[values]] *= factor
    return out


def _mask_diffusion(amps, reg, controls):
    # index-mask oracle: 2*mean - a over each group of indices that differ
    # only in reg, where every control is |1>
    rest = np.arange(amps.size) & ~((reg.size - 1) << reg.offset)
    means = (np.bincount(rest, amps.real, amps.size)
             + 1j * np.bincount(rest, amps.imag, amps.size)) / reg.size
    on = _controls_on(amps.size, controls)
    out = amps.copy()
    out[on] = 2.0 * means[rest][on] - amps[on]
    return out


def _under_controls(state, controls, gate):
    if not controls:
        gate(state)
        return
    state.apply_controlled_unitary_power(
        controls[0], lambda sv: _under_controls(sv, controls[1:], gate), 1)


@pytest.mark.parametrize("reg, controls", [
    (Register("r", 1, 3), (5,)),      # control above the register
    (Register("r", 2, 3), (0,)),      # control below it
    (Register("r", 1, 2), (5, 0)),    # nested: one above, one below
    (Register("r", 0, 3), (5, 4)),    # nested, adjacent, both above
    (Register("r", 3, 3), (1, 0)),    # nested, adjacent, both below
])
def test_controlled_gates_match_index_masks(reg, controls):
    rng = np.random.default_rng(60 + reg.offset + sum(controls))
    for _ in range(3):
        amps = _random_state(rng, 6)
        table = rng.random(reg.size) < 0.5
        angle = float(rng.uniform(-math.pi, math.pi))
        cases = [
            (lambda sv: sv.apply_phase_oracle(reg, table),
             _mask_phase(amps, reg, controls, table, -1.0)),
            (lambda sv: sv.apply_conditional_phase(reg, table, angle),
             _mask_phase(amps, reg, controls, table, np.exp(1j * angle))),
            (lambda sv: sv.apply_diffusion(reg), _mask_diffusion(amps, reg, controls)),
        ]
        for gate, expect in cases:
            s = StateVector.from_amplitudes(amps)
            _under_controls(s, controls, gate)
            np.testing.assert_allclose(s.amps, expect, rtol=0, atol=1e-15)


def _old_phase_oracle(sv, reg, table):
    # the boolean fancy-index formula the oracle used before np.negative
    view, axis = sv._reg_view(reg)
    view[(slice(None),) * axis + (table,)] *= -1.0


def _old_diffusion(sv, reg):
    # the 2*mean - a formula the diffusion used before the scaled sum
    view, axis = sv._reg_view(reg)
    view[...] = 2.0 * view.mean(axis=axis, keepdims=True) - view


@pytest.mark.parametrize("reg, controls", [
    (Register("r", 1, 3), ()),        # no control
    (Register("r", 1, 3), (5,)),      # control above the register
    (Register("r", 2, 3), (0,)),      # control below it
    (Register("r", 1, 2), (5, 0)),    # nested: one above, one below
])
def test_oracle_and_diffusion_bit_identical_to_old_formulas(reg, controls):
    rng = np.random.default_rng(80 + reg.offset + sum(controls))
    for _ in range(5):
        amps = _random_state(rng, 6)
        table = rng.random(reg.size) < 0.5
        cases = [
            (lambda sv: sv.apply_phase_oracle(reg, table),
             lambda sv: _old_phase_oracle(sv, reg, table)),
            (lambda sv: sv.apply_diffusion(reg), lambda sv: _old_diffusion(sv, reg)),
        ]
        for gate, old in cases:
            new_s, old_s = StateVector.from_amplitudes(amps), StateVector.from_amplitudes(amps)
            _under_controls(new_s, controls, gate)
            _under_controls(old_s, controls, old)
            assert np.array_equal(new_s.amps, old_s.amps)
            assert not np.array_equal(new_s.amps, amps)


def test_fourier_transform_and_measurement_refuse_an_external_control():
    reg = Register("r", 0, 2)
    rng = np.random.default_rng(11)
    for op in (lambda sv: sv.inverse_qft(reg), lambda sv: sv.forward_qft(reg),
               lambda sv: sv.probabilities(reg), lambda sv: sv.measure(reg, rng)):
        s = StateVector.uniform(3)
        before = s.amps.copy()
        with pytest.raises(ValueError, match="external control"):
            s.apply_controlled_unitary_power(2, op, 1)
        assert np.array_equal(s.amps, before) and s.counters.qft_gates == 0
        s.inverse_qft(reg)  # the control is released after the refusal


# ---- Fourier transforms ------------------------------------------------------


def test_inverse_qft_single_qubit_is_hadamard():
    reg = Register("r", 0, 1)
    s = StateVector(1)  # |0>
    s.inverse_qft(reg)
    assert np.allclose(s.amps, [1 / math.sqrt(2)] * 2)
    s2 = StateVector.from_amplitudes([0, 1])
    s2.inverse_qft(reg)
    assert np.allclose(s2.amps, [1 / math.sqrt(2), -1 / math.sqrt(2)])


@pytest.mark.parametrize("t", [2, 3, 5, 8])
def test_qft_roundtrip_identity(t):
    rng = np.random.default_rng(t)
    amps = rng.normal(size=1 << t) + 1j * rng.normal(size=1 << t)
    amps /= np.linalg.norm(amps)
    s = StateVector.from_amplitudes(amps)
    reg = Register("r", 0, t)
    s.forward_qft(reg)
    s.inverse_qft(reg)
    assert np.allclose(s.amps, amps, atol=1e-10)


def test_qft_matches_dense_dft_matrix():
    t = 3
    T = 1 << t
    reg = Register("r", 0, t)
    dft = np.array([[np.exp(2j * np.pi * j * k / T) / math.sqrt(T)
                     for j in range(T)] for k in range(T)])
    for j in range(T):
        basis = np.zeros(T, dtype=complex)
        basis[j] = 1
        s = StateVector.from_amplitudes(basis)
        s.forward_qft(reg)
        assert np.allclose(s.amps, dft[:, j], atol=1e-12)


def test_inverse_qft_recovers_fourier_basis_phase():
    # register prepared as (1/sqrt(8)) sum_j e^{2 pi i 3 j / 8} |j> -> |3>
    t = 3
    amps = np.exp(2j * np.pi * 3 * np.arange(8) / 8) / math.sqrt(8)
    s = StateVector.from_amplitudes(amps)
    s.inverse_qft(Register("r", 0, t))
    probs = np.abs(s.amps) ** 2
    assert probs[3] > 1 - 1e-12


def _mask_controlled_phase(amps, qa, qb, angle):
    idx = np.arange(amps.size)
    sel = ((idx >> qa) & 1 == 1) & ((idx >> qb) & 1 == 1)
    out = amps.copy()
    out[sel] *= np.exp(1j * angle)
    return out


def _mask_swap(amps, qa, qb):
    idx = np.arange(amps.size)
    sel = ((idx >> qa) & 1 == 1) & ((idx >> qb) & 1 == 0)
    partner = idx[sel] - (1 << qa) + (1 << qb)
    out = amps.copy()
    out[sel], out[partner] = amps[partner], amps[sel]
    return out


def _random_state(rng, q):
    amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("q", [2, 3, 5, 9])
def test_pair_gates_bit_identical_to_masked_versions(q):
    # the reshaped-view gates give exactly the amplitudes of index masks
    rng = np.random.default_rng(40 + q)
    for qa in range(q):
        for qb in range(q):
            if qa == qb:
                continue
            amps = _random_state(rng, q)
            angle = float(rng.uniform(-math.pi, math.pi))
            s = StateVector.from_amplitudes(amps)
            s._controlled_phase(qa, qb, np.exp(1j * angle))
            assert np.array_equal(s.amps, _mask_controlled_phase(amps, qa, qb, angle))
            s = StateVector.from_amplitudes(amps)
            s._swap(qa, qb)
            assert np.array_equal(s.amps, _mask_swap(amps, qa, qb))


def test_qft_gate_count_exact():
    for t in (1, 2, 3, 6, 8):
        s = StateVector.uniform(t)
        s.inverse_qft(Register("r", 0, t))
        assert s.counters.qft_gates == t * (t + 1) // 2 + t // 2


# ---- measurement --------------------------------------------------------------


def test_measure_basis_state_certain():
    amps = np.zeros(8, dtype=complex)
    amps[5] = 1
    s = StateVector.from_amplitudes(amps)
    rng = np.random.default_rng(0)
    assert s.measure(Register("r", 0, 3), rng) == 5


def test_measure_is_projective():
    reg = Register("low", 0, 2)
    rng = np.random.default_rng(9)
    s = StateVector.uniform(4)
    first = s.measure(reg, rng)
    for _ in range(3):
        assert s.measure(reg, rng) == first


def test_measure_seeded_replay():
    reg = Register("r", 0, 2)
    outcomes = []
    for _ in range(2):
        rng = np.random.default_rng(1234)
        run = []
        for _ in range(20):
            s = StateVector.uniform(2)
            run.append(s.measure(reg, rng))
        outcomes.append(run)
    assert outcomes[0] == outcomes[1]


def test_measure_collapses_and_renormalizes():
    reg = Register("low", 0, 1)
    s = StateVector.uniform(3)
    outcome = s.measure(reg, np.random.default_rng(3))
    values = (np.arange(8) >> 0) & 1
    assert np.allclose(np.abs(s.amps[values != outcome]), 0)
    assert abs(s.norm_squared() - 1) < 1e-12


@settings(max_examples=60, deadline=None)
@given(size=st.sampled_from([2, 16, 256]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_draw_outcome_is_generator_choice(size, seed, data):
    # the draw every measurement makes is Generator.choice's, outcome and
    # stream alike; a numpy that changes choice fails here by name
    weights = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))
    probs = np.array(data.draw(st.lists(weights, min_size=size, max_size=size).filter(any)))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        outcome = draw_outcome(probs, rng)
        assert outcome == int(ref.choice(size, p=probs / probs.sum()))
        assert probs[outcome] > 0
    assert rng.bit_generator.state == ref.bit_generator.state


class _FixedDraw:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_draw_outcome_refuses_a_null_state_and_a_zero_probability_draw():
    with pytest.raises(CorruptedStateError, match="norm below"):
        draw_outcome(np.zeros(4), np.random.default_rng(0))
    # a uniform below [0, 1) lands on the leading zero-probability outcome
    with pytest.raises(CorruptedStateError, match="zero-probability"):
        draw_outcome(np.array([0.0, 1.0, 0.0, 0.0]), _FixedDraw(-0.5))
    assert draw_outcome(np.array([0.0, 1.0, 0.0, 0.0]), _FixedDraw(0.0)) == 1


def test_measure_corrupted_state_rejected():
    s = StateVector.uniform(2)
    s.amps[:] = 0
    with pytest.raises(CorruptedStateError):
        s.measure(Register("r", 0, 2), np.random.default_rng(0))


def test_gate_norm_check_catches_drift():
    s = StateVector.uniform(2)
    s.amps *= 2.0
    with pytest.raises(CorruptedStateError):
        s.apply_phase_oracle(Register("r", 0, 2), np.ones(4, dtype=bool))


def test_norm_check_refuses_a_nan_norm():
    # NaN compares false with any tolerance, so the check must not ask "> tol"
    for norm in (float("nan"), np.float64("nan"), np.array([1.0, np.nan])):
        with pytest.raises(CorruptedStateError, match="norm drift"):
            _assert_unit_norm(norm)
    _assert_unit_norm(np.array([1.0, 1.0 + 1e-12]))
    s = StateVector.uniform(2)
    s.amps[1] = np.nan
    with pytest.raises(CorruptedStateError, match="norm drift"):
        s.apply_diffusion(Register("r", 0, 2))


def test_probabilities_are_a_contiguous_real_copy():
    # a .real view would keep the complex result, twice the size, alive
    reg = Register("r", 0, 3)
    for lanes in (1, 4):
        s = StateVector(4, lanes)
        s.inverse_qft(reg)
        probs = s.probabilities(reg)
        assert probs.dtype == np.float64 and probs.flags.c_contiguous
        assert probs.base is None or not np.iscomplexobj(probs.base)


def test_lane_stack_is_bounded_and_read_per_lane():
    # the limit holds for the whole stack; each lane starts in |0> and is read
    # on its own row, and a stack has no single outcome to measure
    with pytest.raises(ValueError, match="exceed the 24-qubit limit"):
        StateVector(20, 32)
    with pytest.raises(ValueError, match="exceed"):
        StateVector(3, 0)
    reg = Register("r", 0, 3)
    s = StateVector(3, 4)
    s.inverse_qft(reg)
    assert s.probabilities(reg).shape == (4, 8)
    assert np.allclose(s.probabilities(reg), 1 / 8)
    assert s.counters.qft_gates == 4 * (3 * 4 // 2 + 3 // 2)
    assert np.allclose(s.norm_squared(), [1.0] * 4)
    with pytest.raises(ValueError, match="lane"):
        s.measure(reg, np.random.default_rng(0))


# ---- registers and misc --------------------------------------------------------


def test_register_map_layout():
    regs = RegisterMap(("phase", 3), ("index", 4), ("subkey", 2))
    assert regs.total_qubits == 9
    assert regs["index"].offset == 3 and regs["index"].width == 4
    assert [r.name for r in regs] == ["phase", "index", "subkey"]
    assert set(regs["phase"].qubits) & set(regs["index"].qubits) == set()
    with pytest.raises(ValueError):
        RegisterMap(("a", 2), ("a", 3))


def test_register_outside_state_rejected():
    s = StateVector.uniform(2)
    with pytest.raises(ValueError):
        s.apply_diffusion(Register("big", 0, 3))


def test_from_amplitudes_validates():
    with pytest.raises(ValueError):
        StateVector.from_amplitudes([1, 0, 0])  # not a power of two
    with pytest.raises(CorruptedStateError):
        StateVector.from_amplitudes([0.5, 0.5, 0.5, 0.5 + 0.3])


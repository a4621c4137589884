"""Right-pair counting by phase estimation over the Grover iteration.

For a candidate subkey x, the marked items are the pair indices j with
e(x, j) = 1 inside the padded 2N-item index space. Phase estimation over
the Grover step G (phase oracle then diffusion) yields an outcome b whose
angle theta = 2*pi*b/2**t maps to the estimate F(theta) = 2N*sin^2(theta/2).

The candidate subkey is consumed classically: the per-x oracle reads its
subkey register value without ever writing it, so it is a parameter of a
t+n+1-qubit circuit. A fully coherent mode (superposed subkey register)
exists as a cross-check at tiny sizes.

The controlled-G ladder is factored: the phase register starts uniform and G
acts on the index register alone, so the state after the ladder is
sum_b |b> (x) G^b|psi0> / sqrt(2**t). G keeps the uniform start inside the
span of |u_M> and |u_U>, the uniform states over the M marked and the 2N - M
unmarked indices (Brassard-Hoyer-Mosca-Tapp, quant-ph/0005055), so the index
register is two real class amplitudes per table, u and m. G on them is one
two-number recurrence, ``_class_grover_step``: total = (n_u*u - n_m*m)*2/(2N),
u' = total - u, m' = total + m, the oracle then the diffusion of the full
state reduced to two classes. Written with plain operators, the one function
steps numpy lanes and Python floats alike: the max-finding search steps its
subkey register with it too. The recurrence reads a table through its class
size M alone (BHMT's sin^2(theta) = M/2N), so ``grover_ladder`` takes an (L,)
array of sizes and runs G 2**t - 1 times on all L lanes at once, each step
applied to every lane and counted once. Row b of its (T, 2, L) record holds
each lane's class amplitudes u_b, m_b of G^b|psi0>, and the weighted norm of
every row of every lane is checked before the ladder returns.
``counting_distribution`` ladders a table's size [M] as one lane.

The inverse Fourier transform runs gate by gate on t+1 qubits, on
|0> (x) sum_b sqrt((2N-M)/T) u_b|b> + |1> (x) sum_b sqrt(M/T) m_b|b>, whose
image under the isometry |0> -> |u_U>, |1> -> |u_M> is the full state; the
transform acts on the phase register alone, so the phase outcome
distribution is unchanged. ``phase_distribution`` loads one size's column
into a (t+1)-qubit StateVector, the class on qubit 0 and the phase register
on qubits 1..t, and transforms it. Like the ladder, the distribution depends
on (n, t, M) alone, so ``ClassLadders`` keeps one CDF row per size
(``outcome_cdf`` of its distribution) and nothing else: it runs the sizes it
lacks as one ladder, transforms each lane at once and lets the record go.
Every counter asks it for its sizes' rows on its first count, so the
transforms run then, not when a row is first drawn, and the counter draws
each estimate from its size's row with ``count_marked``, which every
estimate comes from; no estimate reads a table. Only the first draw from a
row made for the counter reports its Fourier gates, so a run that draws
every subkey sums its estimates' gates to the gates counted at the
transform. These states represent the t+n+1-qubit circuit exactly, and no
array has its width: the widest is a ladder's record, bounded by
t+1+log2(L) <= 24 for L lanes. The full-vector controlled ladder is kept as
``reference_counting_distribution``, the oracle the kernel is tested
against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .statevector import (DEFAULT_MAX_QUBITS, Register, StateVector, _assert_unit_norm,
                          draw_from_cdf, outcome_cdf)
from .toy_cipher import AttackContext

COHERENT_MAX_SUBKEY_BITS = 2
COHERENT_MAX_INDEX_BITS = 2
# elements per row chunk of the ladder's norm pass (128 KiB of float64 per
# temporary), so the check adds no record-sized arrays
LANE_BLOCK_AMPS = 1 << 14


def default_accuracy_bits(index_bits: float) -> int:
    """The default profile's m = ceil(n/2) + 1 accuracy bits. n = log2 N may be
    0 or fractional: the bound arithmetic takes any pair count N >= 1."""
    return math.ceil(index_bits / 2) + 1


def qft_gate_budget(width: int) -> int:
    """Exact gate count of the (inverse) Fourier transform as applied here."""
    return width * (width + 1) // 2 + width // 2


@dataclass(frozen=True)
class CountingParams:
    """Accuracy profile: n index bits, m accuracy bits, failure bound epsilon.

    The phase register width is pinned to t = m + ceil(log2(2 + 1/(2*eps))).
    The derived parameters are computed on first read and kept; equality and
    hashing read the three fields alone.
    """

    index_bits: int
    accuracy_bits: int
    failure_bound: float = 0.1

    def __post_init__(self):
        if self.index_bits < 1:
            raise ValueError("need at least one index bit")
        if self.accuracy_bits < 1:
            raise ValueError("need at least one accuracy bit")
        if not 0 < self.failure_bound < 0.5:
            raise ValueError("failure bound must be in (0, 1/2)")

    @functools.cached_property
    def phase_bits(self) -> int:
        return self.accuracy_bits + math.ceil(
            math.log2(2.0 + 1.0 / (2.0 * self.failure_bound)))

    @functools.cached_property
    def num_pairs(self) -> int:
        return 1 << self.index_bits

    @functools.cached_property
    def init_steps(self) -> int:
        """Initialization cost: one time step per qubit of the counting run's
        parameterized circuit, t phase + n + 1 index qubits."""
        return self.phase_bits + self.index_bits + 1

    @functools.cached_property
    def counting_cost(self) -> int:
        """Time steps of one counting run: init + Grover gates + QFT gates."""
        return (self.init_steps + (1 << self.phase_bits) - 1
                + qft_gate_budget(self.phase_bits))

    @classmethod
    def default(cls, index_bits: int) -> "CountingParams":
        """m = ceil(n/2) + 1 and epsilon = 1/10, hence t = ceil(n/2) + 4."""
        return cls(index_bits, default_accuracy_bits(index_bits), 0.1)


@dataclass(frozen=True)
class CountEstimate:
    """One counting outcome: raw phase integer, angle, real and rounded count;
    its Fourier gates are those that made its CDF row if its counter had not
    drawn from that row before, and 0 otherwise."""

    raw_outcome: int
    theta: float
    m_estimate: float
    right_pairs: int
    g_gate_count: int
    qft_gate_count: int


def grover_iteration(state: StateVector, reg: Register, marked: np.ndarray) -> None:
    """One Grover step on a register of the full state: phase oracle, then
    diffusion. The reference the two-class recurrences are tested against."""
    state.apply_phase_oracle(reg, marked)
    state.apply_diffusion(reg)


def estimate_from_outcome(b: int, params: CountingParams) -> tuple[float, float, int]:
    """Map a raw phase outcome to (theta, M_est, rounded count)."""
    t = params.phase_bits
    n_pairs = params.num_pairs
    theta = 2.0 * math.pi * b / (1 << t)
    m_est = 2.0 * n_pairs * math.sin(theta / 2.0) ** 2
    right = min(max(int(math.floor(m_est + 0.5)), 0), n_pairs)
    return theta, m_est, right


def _check_table(marked: np.ndarray, params: CountingParams) -> None:
    """Refuse a table of the wrong size."""
    if marked.shape != (2 << params.index_bits,):
        raise ValueError("marked table must cover the padded 2N index space")


def _check_sizes(sizes, params: CountingParams) -> np.ndarray:
    """The sizes as an (L,) integer array, refused unless each is in [0, 2N]
    and their (T, 2, L) record fits the simulator's t+1+log2(L)-qubit limit."""
    sizes = np.asarray(sizes)
    if sizes.ndim != 1 or sizes.dtype.kind not in "iu":
        raise ValueError("a ladder runs over an (L,) integer array of class sizes")
    if sizes.size and not 0 <= sizes.min() <= sizes.max() <= 2 * params.num_pairs:
        raise ValueError(f"class sizes must lie in [0, 2N] = [0, {2 * params.num_pairs}]")
    lane_bits = (len(sizes) - 1).bit_length()
    if (width := params.phase_bits + 1 + lane_bits) > DEFAULT_MAX_QUBITS:
        raise ValueError(f"a ladder over {len(sizes)} lanes needs t+1+{lane_bits} = {width} "
                         f"qubits, above the {DEFAULT_MAX_QUBITS}-qubit limit")
    return sizes


@dataclass(frozen=True)
class Ladder:
    """Row b of lane i's (T, 2) ``columns[i]`` holds G^b|psi0> as the lane's
    (unmarked, marked) class amplitudes, for b < 2**t; lanes of one size may
    share a column."""

    columns: list[np.ndarray]
    g_gates: int   # G steps applied to every lane, counted at the step


def _class_grover_step(n_unmarked, n_marked, scale, u, m):
    """One G step on class amplitudes (u, m) with ``scale`` = 2/size: total =
    (n_u*u - n_m*m)*scale, u' = total - u, m' = total + m. It is bit for bit
    the oracle (m -> -m) then the diffusion, total = (n_u*u + n_m*(-m))*scale,
    u' = total - u, m' = total - (-m), as n_m*(-m) = -(n_m*m), a + (-b) = a - b
    and t - (-m) = t + m hold exactly in IEEE arithmetic. Written with plain
    operators, it steps the ladder's (L,) float64 lanes and the search's
    Python floats alike; the caller checks the weighted norm."""
    total = (n_unmarked * u - n_marked * m) * scale
    return total - u, total + m


def grover_ladder(sizes, params: CountingParams) -> Ladder:
    """Apply G 2**t - 1 times at once to the uniform index state of L lanes,
    lane i with ``sizes[i]`` of its 2N items marked, recording every power.

    Each step is one ``_class_grover_step`` on every lane's two class
    amplitudes at once, kept as row b of the (T, 2, L) record and counted
    where it is applied. After the last step the weighted norm
    n_u*u**2 + n_m*m**2 of every recorded power of every lane is checked
    against NORM_TOL (NaN refused) in row chunks of at most
    ``LANE_BLOCK_AMPS`` elements; the oracle's output has the norm of the
    power before it, so every gate's output is checked before the ladder
    returns.

    Sizes that are not a non-empty (L,) integer array in [0, 2N], or more
    lanes than the (t+1+log2 L)-qubit record admits, are refused before the
    first step."""
    # float64 counts (exact below 2**53): the products need no cast
    n_marked = _check_sizes(sizes, params).astype(np.float64)
    if not n_marked.size:
        raise ValueError("a ladder runs over at least one class size")
    lanes, size = len(n_marked), 2 * params.num_pairs
    n_unmarked = size - n_marked
    scale = 2.0 / size
    T = 1 << params.phase_bits
    amps = np.empty((T, 2, lanes))
    amps[0] = 1.0 / math.sqrt(size)
    g_gates = 0
    u, m = amps[0]
    for b in range(1, T):
        u, m = amps[b] = _class_grover_step(n_unmarked, n_marked, scale, u, m)
        g_gates += 1
    rows = max(1, LANE_BLOCK_AMPS // lanes)
    for first in range(0, T, rows):
        u, m = amps[first:first + rows, 0], amps[first:first + rows, 1]
        _assert_unit_norm((n_unmarked * (u * u) + n_marked * (m * m)).ravel())
    # each lane's column is a (T, 2) view of the record, not a copy
    return Ladder(list(amps.transpose(2, 0, 1)), g_gates)


class ClassLadders:
    """The counting CDF row memoized by class size, per ``CountingParams``.

    The ladder and the transform read n_m and 2N - n_m alone, so each size's
    row is made once, from its lane of a ``grover_ladder`` call (norm-checked
    before it is transformed), and serves every later table of that size bit
    for bit. The memo holds at most L rows for L lanes: past that, just enough
    of its oldest rows the lanes do not use are evicted."""

    def __init__(self, params: CountingParams):
        self.params = params
        self.rows: dict[int, PhaseRow] = {}   # M -> its CDF row, oldest first

    def ladder(self, sizes) -> dict[int, PhaseRow]:
        """The CDF row of every distinct class size in ``sizes``. Sizes the memo
        lacks run as one ``grover_ladder`` lane each, and each lane is
        transformed (``phase_distribution``) at once; their returned rows carry
        the Fourier gates that made them, the memo keeps them with 0, and the
        ladder's record is not kept."""
        sizes = _check_sizes(sizes, self.params).tolist()
        wanted = dict.fromkeys(sizes)   # distinct sizes in lane order -> fresh row or None
        missing = [m for m in wanted if m not in self.rows]
        if (excess := len(self.rows) + len(missing) - len(sizes)) > 0:
            stale = set([m for m in self.rows if m not in wanted][:excess])
            self.rows = {m: r for m, r in self.rows.items() if m not in stale}
        if missing:
            ladder = grover_ladder(np.array(missing), self.params)
            for m, column in zip(missing, ladder.columns):
                probs, qft_gates = phase_distribution(column, m, self.params)
                wanted[m] = PhaseRow(outcome_cdf(probs), ladder.g_gates, qft_gates)
                self.rows[m] = PhaseRow(wanted[m].cdf, ladder.g_gates, 0)
        return {m: row or self.rows[m] for m, row in wanted.items()}


@dataclass(frozen=True)
class PhaseRow:
    """The normalized CDF (``outcome_cdf``) of one class size's phase outcome
    distribution after its inverse QFT, as ``ClassLadders.ladder`` returns it."""

    cdf: np.ndarray
    g_gates: int     # the ladder's G steps, counted at the step
    qft_gates: int   # Fourier gates applied to make the row; 0 in a kept memo row


def phase_distribution(column: np.ndarray, m: int,
                       params: CountingParams) -> tuple[np.ndarray, int]:
    """Phase estimation reduced to the two index classes for class size m,
    whose ladder ``column`` is (T, 2): one (t+1)-qubit state, one gate-by-gate
    inverse QFT. Returns the (T,) phase outcome distribution and the Fourier
    gates applied."""
    t = params.phase_bits
    T = 1 << t
    state = StateVector(t + 1)
    phase_reg = Register("phase", 1, t)
    # the class on qubit 0 (0 the unmarked class, 1 the marked one), the phase
    # register above it
    scale = np.sqrt(np.array([2 * params.num_pairs - m, m]) / T)
    np.multiply(column, scale, out=state.amps.reshape(T, 2))
    state.inverse_qft(phase_reg)
    return state.probabilities(phase_reg), state.counters.qft_gates


def count_marked(row: PhaseRow, params: CountingParams,
                 rng: np.random.Generator) -> CountEstimate:
    """One counting estimate: an outcome drawn from the row's CDF, mapped to
    its count. The estimate reports the row's G steps and Fourier gates."""
    b = draw_from_cdf(row.cdf, rng)
    theta, m_est, right = estimate_from_outcome(b, params)
    assert row.g_gates == (1 << params.phase_bits) - 1
    return CountEstimate(b, theta, m_est, right, row.g_gates, row.qft_gates)


def counting_distribution(marked: np.ndarray, params: CountingParams) -> np.ndarray:
    """Exact outcome distribution over b, by amplitude readout (no sampling)."""
    _check_table(marked, params)
    m = np.count_nonzero(marked)
    ladder = grover_ladder(np.array([m]), params)
    return phase_distribution(ladder.columns[0], m, params)[0]


def reference_counting_distribution(marked: np.ndarray,
                                    params: CountingParams) -> np.ndarray:
    """The outcome distribution from the unfactored circuit: 2**t - 1
    controlled G gates applied to the whole (t+n+1)-qubit state. Slow; the
    oracle that the factored kernel is tested against."""
    _check_table(marked, params)
    t = params.phase_bits
    phase_reg = Register("phase", 0, t)
    index_reg = Register("index", t, params.index_bits + 1)
    state = StateVector.uniform(t + params.index_bits + 1)

    def g(sv: StateVector) -> None:
        grover_iteration(sv, index_reg, marked)

    for j in range(t):
        state.apply_controlled_unitary_power(phase_reg.offset + j, g, 1 << j)
    state.inverse_qft(phase_reg)
    return state.probabilities(phase_reg)


def coherent_counting_distribution(x: int, params: CountingParams,
                                   ctx: AttackContext) -> np.ndarray:
    """Cross-check mode: the subkey register is simulated explicitly.

    The subkey register holds the basis state |x> and the Grover oracle reads
    it coherently (one combined predicate over subkey+index), the diffusion
    still acting on the index register alone. Capped to tiny widths: the
    point is equality with the classically parameterized circuit, not scale.
    """
    k = ctx.subkey_bits
    n = params.index_bits
    if k > COHERENT_MAX_SUBKEY_BITS or n > COHERENT_MAX_INDEX_BITS:
        raise ValueError("coherent mode is a small-size cross-check only")
    t = params.phase_bits
    phase_reg = Register("phase", 0, t)
    index_reg = Register("index", t, n + 1)
    joint = Register("index+subkey", t, (n + 1) + k)   # the subkey register at t+n+1

    pair_space = 1 << (n + 1)
    table = np.concatenate([ctx.marked_table(xv) for xv in range(1 << k)])

    # phase and index registers uniform, subkey register pinned to |x>
    uniform = np.full(pair_space * (1 << t), 1.0 / math.sqrt(pair_space * (1 << t)),
                      dtype=np.complex128)
    amps = np.zeros(1 << (t + n + 1 + k), dtype=np.complex128)
    base = x * (pair_space * (1 << t))
    amps[base:base + uniform.size] = uniform
    state = StateVector.from_amplitudes(amps)

    def g(sv: StateVector) -> None:
        sv.apply_phase_oracle(joint, table)
        sv.apply_diffusion(index_reg)

    for j in range(t):
        state.apply_controlled_unitary_power(phase_reg.offset + j, g, 1 << j)
    state.inverse_qft(phase_reg)
    return state.probabilities(phase_reg)


def counting_error_bound(m_true: float, num_pairs: int, accuracy_bits: int) -> float:
    """Estimation-accuracy bound (sqrt(2*M*N) + N/2**(m+1)) * 2**-m."""
    if m_true < 0 or num_pairs < 1 or accuracy_bits < 1:
        raise ValueError("bound arguments out of domain")
    m = accuracy_bits
    return (math.sqrt(2.0 * m_true * num_pairs)
            + num_pairs / (1 << (m + 1))) * 2.0 ** (-m)


def profile_error_bound(m_true: float) -> float:
    """The bound under the default profile m = ceil(n/2)+1: sqrt(M/2) + 1/8.

    Independent of the pair count; equals the general bound evaluated over
    the full padded 2N-item index space whenever 2**(m-1) = sqrt(2N).
    """
    if m_true < 0:
        raise ValueError("negative count")
    return math.sqrt(m_true / 2.0) + 0.125

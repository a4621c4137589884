"""Dense statevector simulator with exactly the gate set the attack needs.

Qubit order is little-endian: qubit 0 is the least significant bit of the
basis-state index, and a register's value is read the same way from its
qubit range. Registers are contiguous qubit ranges.

Oracles and the diffusion operator are applied as direct amplitude
transforms (the predicates are classical), not synthesized to elementary
gates; the inverse Fourier transform IS applied gate by gate so its gate
count can be reported exactly.

Every gate addresses amplitudes through a reshaped view of the state, with
the register on one axis; under an external control (the phase-estimation
ladder) each control qubit's axis is fixed at |1>, so only that branch is
in the view. The Fourier transform and measurement refuse an external
control.

A StateVector is owned by one execution context while it mutates.
Measurement probabilities are accumulated in a fixed reduction order, so
seeded runs are bit-reproducible. Every measurement draws through
``draw_outcome``, which makes the one uniform draw ``Generator.choice`` makes
for a probability vector, without its per-call argument checks: it builds the
normalized CDF (``outcome_cdf``) and places one uniform in it
(``draw_from_cdf``).

The attack's Grover steps do not run here: they keep the uniform start in
the span of two classes, so the counting ladder
(``quantum_counting.grover_ladder``) and the search
(``max_finding.grover_search_marked``) step two real class amplitudes per
table with one recurrence, ``quantum_counting._class_grover_step``. A
StateVector is the full-state reference that recurrence is tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_MAX_QUBITS = 24
NORM_TOL = 1e-9
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class CorruptedStateError(RuntimeError):
    """State norm drifted or collapsed below recoverable bounds."""


@dataclass(frozen=True)
class Register:
    """A named contiguous qubit range inside a StateVector."""

    name: str
    offset: int
    width: int

    @property
    def size(self) -> int:
        return 1 << self.width

    @property
    def qubits(self) -> range:
        return range(self.offset, self.offset + self.width)


def _assert_unit_norm(norm) -> None:
    """Raise CorruptedStateError unless the squared norm, or every lane's, is
    within NORM_TOL of 1; a NaN norm never is."""
    if isinstance(norm, np.ndarray):   # the worst lane is the smallest or the largest
        low, high = norm[norm.argmin()], norm[norm.argmax()]   # NaN if any lane's is
    else:
        low = high = norm
    # "not <=", as a NaN compares false either way
    if not (1.0 - low <= NORM_TOL and high - 1.0 <= NORM_TOL):
        worst = low if 1.0 - low > high - 1.0 else high
        raise CorruptedStateError(f"norm drift: |amps|^2 = {float(worst)!r}")


def outcome_cdf(probs: np.ndarray) -> np.ndarray:
    """The normalized cumulative sum of the distribution ``probs`` (not yet
    normalized), as ``Generator.choice`` builds it for ``p=probs / probs.sum()``;
    refuses a state whose norm is below 1e-12."""
    total = probs.sum()
    if total < 1e-12:
        raise CorruptedStateError("state norm below 1e-12 before measurement")
    cdf = (probs / total).cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_from_cdf(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Place one ``rng.random()`` in ``cdf``, an ``outcome_cdf``; refuses an
    outcome the cumulative sum does not step up at (zero probability)."""
    outcome = int(cdf.searchsorted(rng.random(), side="right"))
    if outcome == cdf.size or cdf[outcome] <= (cdf[outcome - 1] if outcome else 0.0):
        raise CorruptedStateError("sampled zero-probability outcome")
    return outcome


def draw_outcome(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an outcome of the distribution ``probs`` (not yet normalized).

    Returns what ``rng.choice(probs.size, p=probs / probs.sum())`` returns and
    advances ``rng`` as it does: one ``rng.random()`` placed in the
    normalized cumulative sum. It is ``outcome_cdf`` and ``draw_from_cdf``
    composed; a caller that draws from one distribution repeatedly builds its
    CDF once and places each uniform with ``draw_from_cdf``.
    """
    return draw_from_cdf(outcome_cdf(probs), rng)


@dataclass
class GateCounters:
    """Exact per-state instrumentation of applied operations."""

    oracle_calls: int = 0
    diffusion_calls: int = 0
    qft_gates: int = 0
    phase_gates: int = 0


@functools.lru_cache(maxsize=None)   # keys are bounded by the qubit limit
def _qft_plan(offset: int, width: int, inverse: bool) -> tuple[tuple, ...]:
    """The (gate method, *arguments) ops of the QFT on qubits offset..offset+width-1,
    each controlled phase with its factor exp(i*angle).

    Gate count: width Hadamards + width*(width-1)/2 controlled phases
    + floor(width/2) swaps.
    """
    ops = []
    for i in reversed(range(width)):
        ops.append(("_hadamard", offset + i))
        for j in range(i):
            angle = math.pi / (1 << (i - j))
            ops.append(("_controlled_phase", offset + i, offset + j,
                        np.exp(1j * (-angle if inverse else angle))))
    ops += [("_swap", offset + i, offset + width - 1 - i) for i in range(width // 2)]
    return tuple(reversed(ops) if inverse else ops)


class StateVector:
    """2**q complex amplitudes with a norm-preservation invariant, starting in |0>."""

    def __init__(self, num_qubits: int):
        if not 1 <= num_qubits <= DEFAULT_MAX_QUBITS:
            raise ValueError(f"qubit count {num_qubits} outside [1, {DEFAULT_MAX_QUBITS}]")
        self.num_qubits = num_qubits
        self.amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        self.amps[0] = 1.0
        self.counters = GateCounters()
        self._controls: list[int] = []

    @classmethod
    def uniform(cls, num_qubits: int) -> "StateVector":
        """Equal superposition of all 2**q basis states."""
        s = cls(num_qubits)
        s.amps[:] = 1.0 / math.sqrt(1 << num_qubits)
        return s

    @classmethod
    def from_amplitudes(cls, amps) -> "StateVector":
        amps = np.asarray(amps, dtype=np.complex128)
        q = int(amps.size).bit_length() - 1
        if 1 << q != amps.size:
            raise ValueError("amplitude array length must be a power of two")
        s = cls(q)
        s.amps = amps.copy()
        s._assert_norm()
        return s

    # ---- invariants ----------------------------------------------------

    def norm_squared(self) -> float:
        return np.vdot(self.amps, self.amps).real

    def _assert_norm(self):
        _assert_unit_norm(self.norm_squared())

    def _check_register(self, reg: Register):
        if reg.offset < 0 or reg.offset + reg.width > self.num_qubits:
            raise ValueError(f"register {reg.name!r} outside state")
        for c in self._controls:
            if c in reg.qubits:
                raise ValueError(f"register {reg.name!r} overlaps control qubit {c}")

    def _refuse_controls(self, what: str):
        if self._controls:
            raise ValueError(f"{what} under an external control is not supported")

    def _reg_view(self, reg: Register) -> tuple[np.ndarray, int]:
        """A view of the amplitudes whose control qubits are all |1>, with the
        register on one axis; returns (view, register axis). Uncontrolled, it
        is (high, register, low)."""
        if not self._controls:
            high = 1 << (self.num_qubits - reg.offset - reg.width)
            return self.amps.reshape(high, reg.size, 1 << reg.offset), 1
        # one axis per run of qubits between cuts, most significant first
        cuts = {0, self.num_qubits, reg.offset, reg.offset + reg.width}
        for c in self._controls:
            cuts |= {c, c + 1}
        bounds = sorted(cuts, reverse=True)
        shape, index = [], []
        for hi, lo in zip(bounds, bounds[1:]):
            if lo == reg.offset:
                axis = index.count(slice(None))
            shape.append(1 << (hi - lo))
            index.append(1 if lo in self._controls else slice(None))
        return self.amps.reshape(shape)[tuple(index)], axis

    @staticmethod
    def _predicate_table(reg: Register, table: np.ndarray) -> np.ndarray:
        if table.size != reg.size:
            raise ValueError("predicate table length must be 2**width")
        return table if table.dtype == bool else table.astype(bool)

    # ---- gates ---------------------------------------------------------

    def apply_phase_oracle(self, reg: Register, table: np.ndarray):
        """Negate the amplitude of basis states whose register value v has
        table[v] set (a boolean table over [0, 2**width))."""
        self._check_register(reg)
        table = self._predicate_table(reg, table)
        view, axis = self._reg_view(reg)
        where = table.reshape((1,) * axis + (-1,) + (1,) * (view.ndim - axis - 1))
        np.negative(view, out=view, where=where)
        self.counters.oracle_calls += 1
        self._assert_norm()

    def apply_conditional_phase(self, reg: Register, table: np.ndarray, angle: float):
        """Multiply the basis states marked in table by exp(i*angle)."""
        self._check_register(reg)
        table = self._predicate_table(reg, table)
        view, axis = self._reg_view(reg)
        view[(slice(None),) * axis + (table,)] *= np.exp(1j * angle)
        self.counters.phase_gates += 1
        self._assert_norm()

    def apply_diffusion(self, reg: Register):
        """Inversion about the register's uniform state: 2|u><u| - I."""
        self._check_register(reg)
        view, axis = self._reg_view(reg)
        # 2*sum/size - view; bit-identical to 2*mean - view, as size is 2**width
        total = view.sum(axis=axis, keepdims=True)
        total *= 2.0 / reg.size
        np.subtract(total, view, out=view)
        self.counters.diffusion_calls += 1
        self._assert_norm()

    def apply_controlled_unitary_power(self, control: int, unitary, power: int):
        """Apply ``unitary`` (a callable acting on this state through the
        public gate API) ``power`` times, conditioned on the control qubit.

        ``power`` must be a power of two (the phase-estimation ladder shape).
        """
        if power < 1 or power & (power - 1):
            raise ValueError("power must be a power of two")
        if not 0 <= control < self.num_qubits:
            raise ValueError(f"control qubit {control} outside state")
        if control in self._controls:
            raise ValueError(f"qubit {control} is already a control")
        self._controls.append(control)
        try:
            for _ in range(power):
                unitary(self)
        finally:
            self._controls.pop()

    # ---- Fourier transforms (gate-by-gate, counted) ---------------------

    def _hadamard(self, qubit: int):
        """|0>, |1> -> (|0> + |1>)/sqrt(2), (|0> - |1>)/sqrt(2) on the qubit.

        The two halves are gathered by one strided copy and combined as
        contiguous arrays: on the strided halves of a low qubit each ufunc
        pass would cost several times a copy."""
        view = self.amps.reshape(1 << (self.num_qubits - qubit - 1), 2,
                                 1 << qubit).transpose(1, 0, 2)
        a0, a1 = view.copy()
        total = a0 + a1
        a0 -= a1
        total *= _INV_SQRT2
        a0 *= _INV_SQRT2
        view[0] = total
        view[1] = a0
        self.counters.qft_gates += 1

    def _pair_view(self, qa: int, qb: int) -> np.ndarray:
        """(high, 2, mid, 2, low) view: axis 1 is the higher of the two
        qubits, axis 3 the lower."""
        lo, hi = sorted((qa, qb))
        return self.amps.reshape(1 << (self.num_qubits - hi - 1), 2,
                                 1 << (hi - lo - 1), 2, 1 << lo)

    def _controlled_phase(self, qa: int, qb: int, phase: complex):
        """Multiply the states with both qubits |1> by the unit factor ``phase``."""
        self._pair_view(qa, qb)[:, 1, :, 1, :] *= phase
        self.counters.qft_gates += 1

    def _swap(self, qa: int, qb: int):
        view = self._pair_view(qa, qb)
        tmp = view[:, 1, :, 0, :].copy()
        view[:, 1, :, 0, :] = view[:, 0, :, 1, :]
        view[:, 0, :, 1, :] = tmp
        self.counters.qft_gates += 1

    def _qft_gates(self, reg: Register, inverse: bool):
        """Textbook QFT circuit on the register (little-endian value order),
        one counted gate method call per gate of ``_qft_plan``."""
        self._check_register(reg)
        self._refuse_controls("the Fourier transform")
        for gate, *args in _qft_plan(reg.offset, reg.width, inverse):
            getattr(self, gate)(*args)
        self._assert_norm()

    def forward_qft(self, reg: Register):
        """|j> -> (1/sqrt(T)) sum_k exp(2*pi*i*j*k/T) |k> on the register."""
        self._qft_gates(reg, inverse=False)

    def inverse_qft(self, reg: Register):
        """Exact inverse discrete Fourier transform on the register."""
        self._qft_gates(reg, inverse=True)

    # ---- measurement -----------------------------------------------------

    def probabilities(self, reg: Register) -> np.ndarray:
        """Marginal outcome distribution of the register (no collapse)."""
        self._check_register(reg)
        self._refuse_controls("reading the register")
        view, _ = self._reg_view(reg)
        # a real copy: the .real view would keep the complex result alive
        return np.einsum("irj,irj->r", view, view.conj()).real.copy()

    def measure(self, reg: Register, rng: np.random.Generator) -> int:
        """Sample the register, collapse and renormalize. Deterministic per seed."""
        probs = self.probabilities(reg)
        outcome = draw_outcome(probs, rng)
        p_outcome = probs[outcome]
        view, _ = self._reg_view(reg)
        view[:, :outcome] = 0.0
        view[:, outcome + 1:] = 0.0
        self.amps /= math.sqrt(p_outcome)
        self._assert_norm()
        return outcome


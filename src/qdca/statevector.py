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

A StateVector may hold a stack of independent lanes of the same width,
lane major: each gate then acts on every lane and its Fourier gates count
once per lane, the norm is checked per lane and the outcome distribution
is one row per lane.

A StateVector is owned by one execution context while it mutates.
Measurement probabilities are accumulated in a fixed reduction order, so
seeded runs are bit-reproducible. Every measurement draws through
``draw_outcome``, which makes the one uniform draw ``Generator.choice`` makes
for a probability vector, without its per-call argument checks.

A ClassState holds a register under Grover steps over one marked table as
one amplitude per class: the phase oracle and the diffusion keep the uniform
start in the span of |u_M> and |u_U>, the uniform states over the marked and
the unmarked values (Boyer-Brassard-Hoyer-Tapp, quant-ph/9605034). G is real,
so the amplitudes are real floats. Given an (L, 2**width) stack of tables it
holds one (unmarked, marked) pair per lane, and each gate acts on every lane
at once. Its gates are counted and norm-checked like a StateVector's and
refuse any register or table but its own; a single table's state gives an
outcome distribution over every register value, now or at any earlier
(unmarked, marked) amplitude pair it held.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_MAX_QUBITS = 24
NORM_TOL = 1e-9


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


class RegisterMap:
    """Disjoint named registers assigned consecutively from qubit 0."""

    def __init__(self, *specs: tuple[str, int]):
        self._regs: dict[str, Register] = {}
        offset = 0
        for name, width in specs:
            if width < 0:
                raise ValueError(f"register {name!r} has negative width")
            if name in self._regs:
                raise ValueError(f"duplicate register name {name!r}")
            self._regs[name] = Register(name, offset, width)
            offset += width
        self.total_qubits = offset

    def __getitem__(self, name: str) -> Register:
        return self._regs[name]

    def __iter__(self):
        return iter(self._regs.values())


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


def draw_outcome(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an outcome of the distribution ``probs`` (not yet normalized).

    Returns what ``rng.choice(probs.size, p=probs / probs.sum())`` returns and
    advances ``rng`` as it does: one ``rng.random()`` placed in the
    normalized cumulative sum.
    """
    total = probs.sum()
    if total < 1e-12:
        raise CorruptedStateError("state norm below 1e-12 before measurement")
    cdf = (probs / total).cumsum()
    cdf /= cdf[-1]
    outcome = int(cdf.searchsorted(rng.random(), side="right"))
    if probs[outcome] <= 0:
        raise CorruptedStateError("sampled zero-probability outcome")
    return outcome


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
    """2**q complex amplitudes with a norm-preservation invariant.

    With ``lanes`` > 1 it is a stack of that many independent q-qubit states,
    lane major, each starting in |0>: every gate acts on each lane, the
    Fourier gates are counted once per lane, the norm is checked per lane and
    ``probabilities`` gives one distribution per lane."""

    def __init__(self, num_qubits: int, lanes: int = 1):
        if not 1 <= num_qubits <= DEFAULT_MAX_QUBITS:
            raise ValueError(f"qubit count {num_qubits} outside [1, {DEFAULT_MAX_QUBITS}]")
        if lanes < 1 or num_qubits + (lanes - 1).bit_length() > DEFAULT_MAX_QUBITS:
            raise ValueError(f"{lanes} lanes of {num_qubits} qubits exceed the "
                             f"{DEFAULT_MAX_QUBITS}-qubit limit")
        self.num_qubits = num_qubits
        self.lanes = lanes
        self.amps = np.zeros(lanes << num_qubits, dtype=np.complex128)
        self.amps[::1 << num_qubits] = 1.0
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

    def norm_squared(self):
        """The squared norm, per lane for a stack."""
        if self.lanes == 1:
            return np.vdot(self.amps, self.amps).real
        lanes = self.amps.reshape(self.lanes, -1)
        return np.einsum("li,li->l", lanes, lanes.conj()).real

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
        register on one axis; returns (view, register axis)."""
        if not self._controls:
            high = self.lanes << (self.num_qubits - reg.offset - reg.width)
            return self.amps.reshape(high, reg.size, 1 << reg.offset), 1
        # a lane axis, then one axis per run of qubits between cuts, most
        # significant first
        cuts = {0, self.num_qubits, reg.offset, reg.offset + reg.width}
        for c in self._controls:
            cuts |= {c, c + 1}
        bounds = sorted(cuts, reverse=True)
        shape, index = [self.lanes], [slice(None)]
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
        high = self.lanes << (self.num_qubits - qubit - 1)
        view = self.amps.reshape(high, 2, 1 << qubit)
        a0 = view[:, 0, :].copy()
        a1 = view[:, 1, :]
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        view[:, 0, :] = (a0 + a1) * inv_sqrt2
        view[:, 1, :] = (a0 - a1) * inv_sqrt2
        self.counters.qft_gates += self.lanes

    def _pair_view(self, qa: int, qb: int) -> np.ndarray:
        """(high, 2, mid, 2, low) view: axis 1 is the higher of the two
        qubits, axis 3 the lower."""
        lo, hi = sorted((qa, qb))
        return self.amps.reshape(self.lanes << (self.num_qubits - hi - 1), 2,
                                 1 << (hi - lo - 1), 2, 1 << lo)

    def _controlled_phase(self, qa: int, qb: int, phase: complex):
        """Multiply the states with both qubits |1> by the unit factor ``phase``."""
        self._pair_view(qa, qb)[:, 1, :, 1, :] *= phase
        self.counters.qft_gates += self.lanes

    def _swap(self, qa: int, qb: int):
        view = self._pair_view(qa, qb)
        tmp = view[:, 1, :, 0, :].copy()
        view[:, 1, :, 0, :] = view[:, 0, :, 1, :]
        view[:, 0, :, 1, :] = tmp
        self.counters.qft_gates += self.lanes

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
        """Marginal outcome distribution of the register (no collapse); an
        (L, 2**width) array of one row per lane for a stack."""
        self._check_register(reg)
        self._refuse_controls("reading the register")
        view, _ = self._reg_view(reg)
        view = view.reshape(self.lanes, -1, *view.shape[1:])
        # a real copy: the .real view would keep the complex result alive
        probs = np.einsum("lirj,lirj->lr", view, view.conj()).real.copy()
        return probs if self.lanes > 1 else probs[0]

    def measure(self, reg: Register, rng: np.random.Generator) -> int:
        """Sample the register, collapse and renormalize. Deterministic per seed."""
        if self.lanes > 1:
            raise ValueError("a lane stack has one outcome distribution per lane")
        probs = self.probabilities(reg)
        outcome = draw_outcome(probs, rng)
        p_outcome = probs[outcome]
        view, _ = self._reg_view(reg)
        view[:, :outcome] = 0.0
        view[:, outcome + 1:] = 0.0
        self.amps /= math.sqrt(p_outcome)
        self._assert_norm()
        return outcome


class ClassState:
    """A register's uniform state under Grover steps, one amplitude per class.

    ``marked`` is one table over the register's values, or an (L, 2**width)
    stack of L tables: the state then holds L lanes, one per table, as float64
    arrays of length L, and n_marked/n_unmarked are per-lane arrays.
    """

    def __init__(self, reg: Register, marked: np.ndarray):
        if marked.shape[-1:] != (reg.size,) or marked.ndim > 2:
            raise ValueError("predicate table length must be 2**width")
        self.reg, self.marked = reg, marked
        self.lanes = len(marked) if marked.ndim == 2 else None
        amp = 1.0 / math.sqrt(reg.size)
        if self.lanes is None:
            self.n_marked = int(np.count_nonzero(marked))
            # Python floats: numpy's per-call cost would dominate at two amplitudes
            self.amp_unmarked = self.amp_marked = amp
        else:
            # float64 counts (exact below 2**53): the per-gate products need no cast
            self.n_marked = np.count_nonzero(marked, axis=1).astype(np.float64)
            self.amp_unmarked, self.amp_marked = np.full(self.lanes, amp), np.full(self.lanes, amp)
        self.n_unmarked = reg.size - self.n_marked
        self.counters = GateCounters()

    def _check(self, reg: Register, table=None):
        if ((reg is not self.reg and reg != self.reg)
                or (table is not None and table is not self.marked)):
            raise ValueError("a class state takes only its own register and table")

    def norm_squared(self):
        """The weighted norm, per lane for a stack."""
        return (self.n_unmarked * (self.amp_unmarked * self.amp_unmarked)
                + self.n_marked * (self.amp_marked * self.amp_marked))

    def _assert_norm(self):
        _assert_unit_norm(self.norm_squared())

    def apply_phase_oracle(self, reg: Register, table: np.ndarray):
        """Negate the marked class; ``table`` must be the state's own."""
        self._check(reg, table)
        self.amp_marked = -self.amp_marked
        self.counters.oracle_calls += 1
        self._assert_norm()

    def apply_diffusion(self, reg: Register):
        """2|u><u| - I, in the operation order of StateVector's."""
        self._check(reg)
        total = (self.n_unmarked * self.amp_unmarked
                 + self.n_marked * self.amp_marked) * (2.0 / reg.size)
        self.amp_unmarked, self.amp_marked = total - self.amp_unmarked, total - self.amp_marked
        self.counters.diffusion_calls += 1
        self._assert_norm()

    def probabilities(self, amps: tuple[float, float] | None = None) -> np.ndarray:
        """Outcome distribution over all 2**width register values, of the state
        now or of an (unmarked, marked) amplitude pair it held earlier."""
        if self.lanes is not None:
            raise ValueError("a lane stack has one outcome distribution per lane")
        unmarked, marked = (self.amp_unmarked, self.amp_marked) if amps is None else amps
        return np.where(self.marked, marked * marked, unmarked * unmarked)

"""Threshold maximum finding over candidate subkeys.

A random threshold subkey y is improved repeatedly: an oracle marks every
candidate whose (estimated) right-pair count strictly exceeds the
threshold's, a Grover search with unknown marked count proposes a
candidate, and the threshold moves when the proposal counts higher. The
loop stops when the time-step budget 2*c*m0 would be exceeded; m0 is always
derived from K and the counter's counting cost.

Each run draws one count vector, the random threshold's count first and then
the rest in ascending order. Every pass marks against it, so the marking
function f(x, y) is fixed during one run and accepted thresholds increase strictly.

A pass's marked table is fixed for its whole search, so each Grover power
G^j|u> is a fixed state: the search takes each step once, on one two-class
state per pass, and keeps each power's two class amplitudes for every round
that draws it. Each round is still charged its own j steps. A pass that
marks nothing (the threshold is already the maximum) builds no outcome
distribution: every round fails, and spends the one uniform its draw takes.

Time-step accounting: initializing q qubits costs q steps, one search
iteration costs one step, one counting run costs its init + Grover-gate +
Fourier-gate total. The oracle is charged one counting cost per threshold
pass (a single coherent evaluation, not one per candidate), although the
pass's Grover iterations, sum j over its rounds, each apply it.
Every charge goes through ``SearchBudget.try_charge``, which names the stage
of each step and either admits them all or refuses them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quantum_counting import (CountEstimate, CountingParams, Ladder, PhaseBlock, count_marked,
                               grover_iteration, grover_ladder, lane_block_size, phase_block)
from .statevector import ClassState, Register, draw_outcome
from .toy_cipher import AttackContext

SEARCH_GROWTH_FACTOR = 6.0 / 5.0


@dataclass
class ThresholdState:
    """Current threshold subkey, its count estimate, and accepted updates."""

    subkey: int
    right_pairs: int
    history: list[tuple[int, int]] = field(default_factory=list)

    def accept(self, subkey: int, right_pairs: int):
        if self.history and right_pairs <= self.history[-1][1]:
            raise ValueError("threshold updates must strictly increase")
        self.subkey = subkey
        self.right_pairs = right_pairs
        self.history.append((subkey, right_pairs))


@dataclass
class StageSteps:
    """Per-stage time-step counters across one maximum-finding run."""

    init: int = 0
    counting: int = 0
    oracle: int = 0
    search: int = 0
    observe: int = 0

    @property
    def total(self) -> int:
        return self.init + self.counting + self.oracle + self.search + self.observe


@dataclass
class SearchBudget:
    """The one time-step ledger: limit = 2 * confidence * expected_steps (m0),
    fixed when built. Only ``try_charge`` spends, so ``spent == stages.total``."""

    confidence: int
    expected_steps: int
    spent: int = 0
    stages: StageSteps = field(default_factory=StageSteps)
    limit: int = field(init=False)

    def __post_init__(self):
        self.limit = 2 * self.confidence * self.expected_steps   # read on every charge

    def try_charge(self, init: int = 0, counting: int = 0, oracle: int = 0,
                   search: int = 0, observe: int = 0) -> bool:
        """Charge every stage's steps if their sum fits; refuse them all otherwise."""
        steps = init + counting + oracle + search + observe
        if self.spent + steps > self.limit:
            return False
        self.spent += steps
        st = self.stages
        st.init += init
        st.counting += counting
        st.oracle += oracle
        st.search += search
        st.observe += observe
        return True


class QuantumCounter:
    """Memoized quantum counting: one sampled estimate per subkey per run.

    The first count runs one Grover ladder over every subkey's table as a
    lane. The lanes are cut into blocks of ``lane_block_size`` lanes; a
    block's inverse QFT runs when one of its subkeys is first demanded, and
    its distributions are dropped once every lane in it has an estimate.
    Each subkey's estimate is drawn from its lane on first demand, so the
    draws follow the demand order."""

    def __init__(self, ctx: AttackContext, params: CountingParams,
                 rng: np.random.Generator):
        if ctx.index_bits != params.index_bits:
            raise ValueError("params and context disagree on the index width")
        self.ctx = ctx
        self.params = params
        self.rng = rng
        self.estimates: dict[int, CountEstimate] = {}
        self._ladder: Ladder | None = None
        self._block_lanes = lane_block_size(params)
        # first lane of a block -> (the block, its lanes not drawn yet)
        self._blocks: dict[int, tuple[PhaseBlock, set[int]]] = {}
        self.counting_cost = params.counting_cost
        self.init_width = params.init_steps

    def count(self, x: int) -> int:
        if x not in self.estimates:
            if self._ladder is None:
                self._ladder = grover_ladder(self.ctx.table, self.params)
            first = x - x % self._block_lanes
            if first not in self._blocks:
                block = phase_block(self._ladder, slice(first, first + self._block_lanes),
                                    self.params)
                self._blocks[first] = block, set(range(first, first + len(block.n_marked)))
            block, pending = self._blocks[first]
            self.estimates[x] = count_marked(self.ctx.marked_table(x), self.params, self.rng,
                                             block=block.lane(x - first))
            pending.remove(x)
            if not pending:
                del self._blocks[first]
        return self.estimates[x].right_pairs


class ExactCounter:
    """Injected exact counts; isolates the threshold loop from counting noise."""

    def __init__(self, counts):
        self.counts = np.asarray(counts, dtype=np.int64)
        self.estimates: dict[int, int] = {}
        self.counting_cost = 0
        self.init_width = 0

    def count(self, x: int) -> int:
        self.estimates[x] = int(self.counts[x])
        return int(self.counts[x])


@dataclass
class SearchOutcome:
    found: int | None
    iterations: int
    measurements: int


def grover_search_marked(marked, subkey_bits: int,
                         rng: np.random.Generator,
                         budget: SearchBudget | None = None) -> SearchOutcome:
    """Search with unknown marked count: exponentially growing iteration cap.

    Measures the register after a random number of Grover steps, growing the
    range by 6/5 per failure; gives up after 4*ceil(4.5*sqrt(K)) measurements
    (or earlier when the caller's budget runs out). A round is charged its
    subkey register's initialization as init steps, and its Grover iterations
    plus one step for the query that verifies the measured item as search
    steps. Returns the found marked item or None.

    One ClassState takes each Grover step once per call, the first time a
    round draws j or more; the class amplitudes of G^j|u> serve every round
    that draws j, each building its outcome distribution from them. A table
    that marks nothing builds no distribution: every outcome fails, so a round
    only spends the one uniform its draw would place.
    """
    if subkey_bits < 1:
        raise ValueError("search needs at least one subkey bit")
    K = 1 << subkey_bits
    marked = np.asarray(marked, dtype=bool)
    if marked.size != K:
        raise ValueError("marked table size must be 2**subkey_bits")
    iterations = measurements = 0
    reg = Register("subkey", 0, subkey_bits)
    state = ClassState(reg, marked)
    powers = [(state.amp_unmarked, state.amp_marked)]   # entry j: G^j|u>'s amplitudes
    max_measurements = 4 * math.ceil(4.5 * math.sqrt(K))
    m_cap = 1.0
    while measurements < max_measurements:
        j = int(rng.integers(0, max(1, int(m_cap))))
        if budget is not None and not budget.try_charge(init=subkey_bits, search=j + 1):
            break
        while len(powers) <= j:
            grover_iteration(state, reg, marked)
            powers.append((state.amp_unmarked, state.amp_marked))
        iterations += j
        measurements += 1
        if not state.n_marked:
            rng.random()   # the draw's one uniform; no outcome of this table is marked
        elif marked[outcome := draw_outcome(state.probabilities(powers[j]), rng)]:
            return SearchOutcome(outcome, iterations, measurements)
        m_cap = min(SEARCH_GROWTH_FACTOR * m_cap, math.sqrt(K))
    return SearchOutcome(None, iterations, measurements)


@dataclass
class MaxFindingConfig:
    confidence: int = 4

    def budget_for(self, subkey_bits: int, counter) -> SearchBudget:
        """The run's budget; refused (ValueError) if it cannot pay for the initial
        threshold and one pass. m0: about log2(K) threshold updates, each paid
        for with one counting run, on top of the search-iteration envelope."""
        K = 1 << subkey_bits
        m0 = max(1, math.ceil(22.5 * math.sqrt(K))
                 + math.ceil(math.log2(K)) * counter.counting_cost)
        budget = SearchBudget(self.confidence, m0)
        # a pass: two subkey registers, the counting register, and one counting,
        # one oracle and one observation run
        need = 3 * subkey_bits + counter.init_width + 3 * counter.counting_cost
        if budget.limit < need:
            raise ValueError(f"budget limit {budget.limit} cannot pay for the initial "
                             f"threshold and one pass ({need} steps)")
        return budget


@dataclass
class MaxFindingResult:
    subkey: int
    threshold: ThresholdState
    stages: StageSteps
    budget: SearchBudget
    loop_iterations: int
    trace: list[dict]
    # search steps spent up to (and including) the pass that produced the
    # final accepted threshold; the remaining budget is burned confirming
    # no better candidate exists and does not follow the sqrt(K) growth law
    search_steps_to_max: int = 0


def find_max_subkey(counter, subkey_bits: int, config: MaxFindingConfig,
                    rng: np.random.Generator) -> MaxFindingResult:
    """The full threshold loop; returns the final threshold subkey."""
    if subkey_bits < 1:
        raise ValueError("maximum finding needs at least one subkey bit")
    K = 1 << subkey_bits
    budget = config.budget_for(subkey_bits, counter)
    cost = counter.counting_cost
    trace: list[dict] = []

    # random initial threshold: prepared by measuring a uniform subkey register
    y = int(rng.integers(K))
    budget.try_charge(init=subkey_bits)
    r_y = counter.count(y)
    threshold = ThresholdState(y, r_y, [(y, r_y)])
    # Every pass marks x iff counts[x] exceeds the threshold's count. Drawing them
    # here keeps the rng order of a sweep in the first pass: budget_for makes the
    # first pass always run, and it draws nothing from rng before its sweep.
    counts = np.array([counter.count(x) for x in range(K)])

    loop = 0
    search_steps_to_max = 0
    while budget.try_charge(init=2 * subkey_bits + counter.init_width,
                            counting=cost, oracle=cost, observe=cost):
        loop += 1
        marked = counts > threshold.right_pairs
        outcome = grover_search_marked(marked, subkey_bits, rng, budget)
        y_prime = outcome.found
        r_prime = int(counts[y_prime]) if y_prime is not None else None
        accepted = y_prime is not None and r_prime > threshold.right_pairs
        trace.append({
            "loop_iter": loop, "y": threshold.subkey, "r_y": threshold.right_pairs,
            "y_prime": y_prime, "r_y_prime": r_prime, "accepted": accepted,
            "steps_spent": budget.spent,
        })
        if accepted:
            threshold.accept(y_prime, r_prime)
            search_steps_to_max = budget.stages.search
    return MaxFindingResult(threshold.subkey, threshold, budget.stages, budget, loop,
                            trace, search_steps_to_max)

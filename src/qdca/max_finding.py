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
G^j|u> is a fixed state: two real class amplitudes, over the marked and the
unmarked subkeys (Boyer-Brassard-Hoyer-Tapp, quant-ph/9605034), stepped by the
counting ladder's recurrence. The search takes each step once per pass, keeps
each power's amplitudes for every round that draws it, and builds each
power's outcome CDF once. Each round is still charged its own j steps. A
pass that marks nothing (the threshold is already the maximum) computes no
power and builds no outcome distribution: every round fails, so the pass
replays all its rounds' draws in one generator call and charges the rounds
the budget admits in one ``try_charge``. The generator ends where the
round-by-round loop leaves it, because an array of inclusive uint64 bounds
draws element by element as scalar ``integers`` calls do, and bound 2**64 - 1
takes the one 64-bit word a discarded ``random()`` takes.

Time-step accounting: initializing q qubits costs q steps, one search
iteration costs one step, one counting run costs its init + Grover-gate +
Fourier-gate total. The oracle is charged one counting cost per threshold
pass (a single coherent evaluation, not one per candidate), although the
pass's Grover iterations, sum j over its rounds, each apply it.
Every charge goes through ``SearchBudget.try_charge``, which names the stage
of each step and either admits them all or refuses them all.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .quantum_counting import ClassLadders, CountEstimate, count_marked
from .statevector import _assert_unit_norm, draw_from_cdf, outcome_cdf
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

    The counting params are ``ladders.params``. The first count ladders every
    subkey's right-pair count ``ctx.counts`` through ``ladders``, the memo by
    class size, which runs only the sizes it lacks. Each subkey's estimate is
    ``count_marked``'s draw from its size's memo row (``ClassLadders.cdf_row``)
    on first demand, so the draws follow the demand order and no estimate
    reads a right-pair table."""

    def __init__(self, ctx: AttackContext, ladders: ClassLadders, rng: np.random.Generator):
        params = ladders.params
        if ctx.index_bits != params.index_bits:
            raise ValueError("params and context disagree on the index width")
        self._ladders = ladders
        self.ctx = ctx
        self.params = params
        self.rng = rng
        self.estimates: dict[int, CountEstimate] = {}
        self.subkeys = 1 << ctx.subkey_bits
        self._sizes: list[int] | None = None   # ctx.counts, read on the first count
        self.counting_cost = params.counting_cost
        self.init_width = params.init_steps

    def count(self, x: int) -> int:
        if x not in self.estimates:
            if not 0 <= x < self.subkeys:
                raise IndexError(f"subkey {x} outside [0, K) = [0, {self.subkeys})")
            # the first count; later only if a counter sharing the memo evicted the size
            if self._sizes is None or self._sizes[x] not in self._ladders.columns:
                self._ladders.ladder(self.ctx.counts)
                self._sizes = self.ctx.counts.tolist()
            row = self._ladders.cdf_row(self._sizes[x])
            self.estimates[x] = count_marked(row, 0, self.params, self.rng)
        return self.estimates[x].right_pairs

    def count_all(self) -> np.ndarray:
        """All K counts as an int64 array, demanded in ascending order."""
        return np.array([self.count(x) for x in range(self.subkeys)], dtype=np.int64)


class ExactCounter:
    """Injected exact counts; isolates the threshold loop from counting noise."""

    def __init__(self, counts):
        self.counts = np.asarray(counts, dtype=np.int64)
        self._count_list = self.counts.tolist()   # Python ints: one list read per count
        self.subkeys = len(self._count_list)
        self.counting_cost = 0
        self.init_width = 0

    def count(self, x: int) -> int:
        if not 0 <= x < self.subkeys:
            raise IndexError(f"subkey {x} outside [0, K) = [0, {self.subkeys})")
        return self._count_list[x]

    def count_all(self) -> np.ndarray:
        """A copy of all K counts."""
        return self.counts.copy()


@dataclass
class SearchOutcome:
    found: int | None
    iterations: int
    measurements: int


@functools.lru_cache(maxsize=None)   # one entry per subkey width
def _round_plan(subkey_bits: int) -> tuple[tuple[int, ...], np.ndarray]:
    """A pass's rounds: each round's j range max(1, int(m_cap)), and the
    interleaved inclusive uint64 bounds (range - 1, 2**64 - 1, ...) that draw
    every round's j and then the words of its one uniform (read-only). The cap
    grows by 6/5 per round up to sqrt(K) whatever is drawn, so both depend on
    k alone; there are 4*ceil(4.5*sqrt(K)) rounds."""
    K = 1 << subkey_bits
    ranges = []
    m_cap = 1.0
    for _ in range(4 * math.ceil(4.5 * math.sqrt(K))):
        ranges.append(max(1, int(m_cap)))
        m_cap = min(SEARCH_GROWTH_FACTOR * m_cap, math.sqrt(K))
    bounds = np.full(2 * len(ranges), np.iinfo(np.uint64).max, dtype=np.uint64)
    bounds[::2] = np.array(ranges, dtype=np.uint64) - 1
    bounds.flags.writeable = False
    return tuple(ranges), bounds


def _class_grover_step(n_unmarked: int, n_marked: int, scale: float,
                       u: float, m: float) -> tuple[float, float]:
    """One G step on a table's (unmarked, marked) class amplitudes, with
    ``scale`` = 2/K: ``quantum_counting._lane_grover_step`` on Python floats,
    bit for bit. The weighted norm of the result is checked against NORM_TOL
    (NaN refused)."""
    total = (n_unmarked * u - n_marked * m) * scale
    u, m = total - u, total + m
    _assert_unit_norm(n_unmarked * (u * u) + n_marked * (m * m))
    return u, m


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

    Each Grover step is taken once per call on the two class amplitudes, the
    first time a round draws j or more, and its result's weighted norm is
    checked before any CDF is built from it; the amplitudes of G^j|u> serve
    every round that draws j. Each round draws j with
    ``rng.integers(0, range)`` and places one ``rng.random()`` in G^j|u>'s
    outcome CDF, built once per j.

    A table that marks nothing computes no power and builds no CDF: every
    outcome fails, so the pass only replays its draws. One ``rng.integers``
    call over the round plan's interleaved bounds draws every round's j and,
    with bound 2**64 - 1, takes the words its discarded uniform would. The
    budget admits the longest prefix of rounds whose costs fit; when it
    refuses a round, the generator is rewound and redraws the admitted rounds
    plus the refused round's j, as the round-by-round loop leaves it. The
    admitted rounds are charged in one ``try_charge``. This relies on two
    generator facts, pinned in the tests: an array of bounds draws element by
    element as the scalar calls do, and one 64-bit word is what ``random()``
    takes.
    """
    if subkey_bits < 1:
        raise ValueError("search needs at least one subkey bit")
    K = 1 << subkey_bits
    marked = np.asarray(marked, dtype=bool)
    if marked.size != K:
        raise ValueError("marked table size must be 2**subkey_bits")
    ranges, bounds = _round_plan(subkey_bits)
    n_marked = int(np.count_nonzero(marked))
    if not n_marked:
        saved = rng.bit_generator.state
        js = rng.integers(0, bounds, dtype=np.uint64, endpoint=True)[::2].astype(np.int64)
        rounds = len(ranges)
        if budget is not None:
            cost = np.cumsum(js + (subkey_bits + 1))   # round r: k init + j + 1 search
            rounds = int(cost.searchsorted(budget.limit - budget.spent, side="right"))
            if rounds < len(ranges):
                rng.bit_generator.state = saved
                rng.integers(0, bounds[:2 * rounds + 1], dtype=np.uint64, endpoint=True)
                js = js[:rounds]
            budget.try_charge(init=subkey_bits * rounds, search=int(js.sum()) + rounds)
        return SearchOutcome(None, int(js.sum()), rounds)

    n_unmarked, scale = K - n_marked, 2.0 / K
    iterations = 0
    # entry j: G^j|u>'s (unmarked, marked) amplitudes, Python floats: numpy's
    # per-call cost would dominate at two amplitudes
    powers = [(1.0 / math.sqrt(K),) * 2]
    cdfs: dict[int, np.ndarray] = {}
    for measurements, j_range in enumerate(ranges):
        j = int(rng.integers(0, j_range))
        if budget is not None and not budget.try_charge(init=subkey_bits, search=j + 1):
            return SearchOutcome(None, iterations, measurements)
        while len(powers) <= j:
            powers.append(_class_grover_step(n_unmarked, n_marked, scale, *powers[-1]))
        iterations += j
        if (cdf := cdfs.get(j)) is None:
            u, m = powers[j]
            cdf = cdfs[j] = outcome_cdf(np.where(marked, m * m, u * u))
        if marked[outcome := draw_from_cdf(cdf, rng)]:
            return SearchOutcome(outcome, iterations, measurements + 1)
    return SearchOutcome(None, iterations, len(ranges))


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
    """The full threshold loop; returns the final threshold subkey. A counter
    whose ``subkeys`` is not K = 2**subkey_bits is refused, after the budget
    check and before any draw."""
    if subkey_bits < 1:
        raise ValueError("maximum finding needs at least one subkey bit")
    K = 1 << subkey_bits
    budget = config.budget_for(subkey_bits, counter)
    if counter.subkeys != K:
        raise ValueError(f"{counter.subkeys} counts for K = {K} subkeys")
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
    counts = counter.count_all()

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

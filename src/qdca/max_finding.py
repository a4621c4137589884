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
power's outcome CDF once; G^0|u> = |u> is uniform whatever the table marks,
so its CDF is built once per k and shared. A round whose j range is 1 takes
j = 0 without a draw. Each round is admitted against the steps the budget
had left when the pass's search began, less the rounds before it, and a
pass's admitted rounds are charged in one ``try_charge``: the same stages,
totals and refusal point as charging each round its own j steps.

Thresholds only go up, so once a pass marks nothing (the threshold holds the
maximum) every later pass of the run marks nothing too. That pass's search
call runs the whole tail: it computes no power and builds no outcome
distribution, since every round fails. It replays the draws of as many
passes as the budget could still admit in one generator call, walks one
cumulative cost array (each pass's start charge before its first round) to
where the budget stops, and charges the admitted steps in one
``try_charge``. ``find_max_subkey`` writes one trace row per pass of it. The
generator ends where the pass-by-pass, round-by-round loop leaves it,
because an array of inclusive uint64 bounds draws element by element as
scalar ``integers`` calls do, bound 2**64 - 1 takes the one 64-bit word a
discarded ``random()`` takes, and bound 0 takes nothing.

Time-step accounting: initializing q qubits costs q steps, one search
iteration costs one step, one counting run costs its init + Grover-gate +
Fourier-gate total. The oracle is charged one counting cost per threshold
pass (a single coherent evaluation, not one per candidate), although the
pass's Grover iterations, sum j over its rounds, each apply it.
Every step is charged through ``SearchBudget.try_charge``, which names the
stage of each step and either admits them all or refuses them all; a search
call charges the rounds it admitted together.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .quantum_counting import ClassLadders, CountEstimate, PhaseRow, count_marked
from .statevector import _assert_unit_norm, draw_from_cdf, outcome_cdf
from .toy_cipher import AttackContext

SEARCH_GROWTH_FACTOR = 6.0 / 5.0
# passes of an empty tail drawn per generator call: bounds the tail's arrays,
# whatever the confidence
MAX_TAIL_PASSES = 16


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

    The counting params are ``ladders.params``. The first count asks
    ``ladders``, the memo by class size, for the CDF row of every subkey's
    right-pair count ``ctx.counts`` and holds the rows it returns. Each
    subkey's estimate is ``count_marked``'s draw from its size's row on first
    demand, so the draws follow the demand order and no estimate reads a
    right-pair table. The first draw from a row the memo made for this counter
    reports its Fourier gates; the counter then holds the row with 0."""

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
        self._sizes: list[int] = []              # ctx.counts, read on the first count
        self._rows: dict[int, PhaseRow] = {}     # M -> its CDF row, from the first count
        self.counting_cost = params.counting_cost
        self.init_width = params.init_steps

    def count(self, x: int) -> int:
        if x not in self.estimates:
            if not 0 <= x < self.subkeys:
                raise IndexError(f"subkey {x} outside [0, K) = [0, {self.subkeys})")
            if not self._rows:
                self._rows = self._ladders.ladder(self.ctx.counts)
                self._sizes = self.ctx.counts.tolist()
            m = self._sizes[x]
            row = self._rows[m]
            self.estimates[x] = count_marked(row, self.params, self.rng)
            if row.qft_gates:
                self._rows[m] = PhaseRow(row.cdf, row.g_gates, 0)
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
    # budget.spent after each pass the call ran; empty without a pass charge
    pass_ends: tuple[int, ...] = ()


@functools.lru_cache(maxsize=None)   # one entry per subkey width
def _round_plan(subkey_bits: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """A pass's rounds: each round's j range max(1, int(m_cap)), the
    inclusive uint64 bounds that draw a pass (read-only), and G^0|u>'s
    outcome CDF (read-only). The bounds are bound 0 twice, a slot for the
    pass's start charge and a filler, neither taking a generator word, then
    per round range - 1 for its j and 2**64 - 1 for the words of its one
    uniform. Every other draw is a start slot (0) or a round's j. The bounds
    are tiled for MAX_TAIL_PASSES passes. The cap grows by 6/5 per round up to
    sqrt(K) whatever is drawn, so the plan depends on k alone; there are
    4*ceil(4.5*sqrt(K)) rounds. G^0|u> = |u> is uniform whatever the table
    marks (both class amplitudes are 1/sqrt(K)), so every search shares its
    CDF."""
    K = 1 << subkey_bits
    ranges = []
    m_cap = 1.0
    for _ in range(4 * math.ceil(4.5 * math.sqrt(K))):
        ranges.append(max(1, int(m_cap)))
        m_cap = min(SEARCH_GROWTH_FACTOR * m_cap, math.sqrt(K))
    bounds = np.zeros(2 * len(ranges) + 2, dtype=np.uint64)
    bounds[2::2] = np.array(ranges, dtype=np.uint64) - 1
    bounds[3::2] = np.iinfo(np.uint64).max
    bounds = np.tile(bounds, MAX_TAIL_PASSES)
    bounds.flags.writeable = False
    u = 1.0 / math.sqrt(K)
    uniform = outcome_cdf(np.full(K, u * u))
    uniform.flags.writeable = False
    return tuple(ranges), bounds, uniform


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


def _replay_empty(subkey_bits: int, rng: np.random.Generator,
                  budget: SearchBudget | None, start: StageSteps | None) -> SearchOutcome:
    """The search of a table that marks nothing, and with ``start`` every later
    pass of the run: the draws, charges and outcome of running the rounds one
    by one, pass after pass, with no state computed. The first pass's start is
    the caller's; each later pass is charged ``start`` before its first round."""
    ranges, bounds, _ = _round_plan(subkey_bits)
    row = len(ranges) + 1                            # a pass: its start, then its rounds
    round_steps = subkey_bits + 1                    # k init + 1 verifying query
    per_pass = start or StageSteps()
    pass_steps = per_pass.total
    least = len(ranges) * round_steps                # a full pass's rounds, every j = 0
    prepaid = 1                                      # the first pass's start
    iterations = measurements = 0
    ends: list[int] = []
    while True:
        remaining = math.inf if budget is None else budget.limit - budget.spent
        first = 0 if prepaid else pass_steps
        # the batch: the first pass and each later one that could finish at the
        # least a pass costs
        passes = 1 if start is None else min(MAX_TAIL_PASSES, 1 + max(
            0, remaining - first - least) // (pass_steps + least))
        saved = rng.bit_generator.state
        # entry i of a pass: its start charge (i = 0), else round i - 1's k + j + 1
        cost = rng.integers(0, bounds[:2 * row * passes], dtype=np.uint64,
                            endpoint=True)[::2] + round_steps
        cost[::row] = pass_steps
        cost[0] = first
        cost = cost.cumsum()
        admitted = int(cost.searchsorted(remaining, side="right"))
        if admitted < cost.size:
            # refused: a start, or a round whose j the loop draws; rewind and
            # redraw through that entry (a start slot draws nothing)
            rng.bit_generator.state = saved
            rng.integers(0, bounds[:2 * admitted + 1], dtype=np.uint64, endpoint=True)
        started = -(-admitted // row)                # >= 1: the first start fits
        starts = started - prepaid                   # start charges of this batch
        rounds = admitted - started
        j_sum = int(cost[admitted - 1]) - starts * pass_steps - rounds * round_steps
        iterations += j_sum
        measurements += rounds
        if budget is None:
            break
        if started > 1:                              # the full passes' ends
            ends += (cost[row - 1:row * (started - 1):row] + budget.spent).tolist()
        budget.try_charge(init=subkey_bits * rounds + starts * per_pass.init,
                          counting=starts * per_pass.counting,
                          oracle=starts * per_pass.oracle,
                          search=j_sum + rounds + starts * per_pass.search,
                          observe=starts * per_pass.observe)
        ends.append(budget.spent)
        prepaid = 0
        if start is None or budget.spent + pass_steps > budget.limit:
            break
    return SearchOutcome(None, iterations, measurements,
                         () if start is None else tuple(ends))


def grover_search_marked(marked, subkey_bits: int,
                         rng: np.random.Generator,
                         budget: SearchBudget | None = None,
                         start: StageSteps | None = None) -> SearchOutcome:
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
    outcome CDF, built once per j >= 1; G^0|u>'s uniform CDF is the round
    plan's, shared by every call. A round whose range is 1 (the first four of
    a pass) takes j = 0 without calling ``rng.integers``, which leaves the
    generator where ``integers(0, 1)`` leaves it: it takes no word.

    A round is admitted when its k + j + 1 steps fit in what the budget had
    left at the call, less the rounds admitted before it; the first that does
    not fit ends the search, where a per-round ``try_charge`` would have
    refused it. The admitted rounds are charged in one ``try_charge`` after
    the loop.

    ``start`` (which needs a budget) is the charge that starts a threshold
    pass, already paid for this one. A table that marks nothing ends the
    threshold loop's progress, so with ``start`` the call runs every pass the
    budget still admits: each later pass is charged ``start`` and then its
    rounds, until a start is refused. The outcome's ``pass_ends`` holds
    ``budget.spent`` after each pass the call ran (one for a table that marks
    something), its ``iterations`` and ``measurements`` their totals.

    A table that marks nothing computes no power and builds no CDF: every
    outcome fails, so its passes only replay their draws. One
    ``rng.integers`` call over the round plan's interleaved bounds, tiled per
    pass, draws every round's j and, with bound 2**64 - 1, takes the words its
    discarded uniform would; each pass's bounds open with a slot for its start
    charge, bound 0, which takes nothing. The draws plus each entry's charge
    make one cumulative cost array, which gives the longest prefix the budget
    admits; when it refuses a start or a round, the generator is rewound and
    redraws the admitted entries plus a refused round's j, as the pass-by-pass
    loop leaves it, and another pass is drawn if the next start still fits.
    The admitted steps are charged in one ``try_charge`` per draw. This relies
    on three generator facts, pinned in the tests: an array of bounds draws
    element by element as the scalar calls do, one 64-bit word is what
    ``random()`` takes, and bound 0 takes none.
    """
    if subkey_bits < 1:
        raise ValueError("search needs at least one subkey bit")
    if start is not None and budget is None:
        raise ValueError("a pass charge needs a budget")
    K = 1 << subkey_bits
    marked = np.asarray(marked, dtype=bool)
    if marked.size != K:
        raise ValueError("marked table size must be 2**subkey_bits")
    n_marked = int(np.count_nonzero(marked))
    if not n_marked:
        return _replay_empty(subkey_bits, rng, budget, start)

    ranges, _, uniform = _round_plan(subkey_bits)
    n_unmarked, scale = K - n_marked, 2.0 / K
    found = None
    iterations = 0
    # the steps the budget still admits; each round is admitted here and all
    # are charged at once after the loop
    remaining = math.inf if budget is None else budget.limit - budget.spent
    # entry j: G^j|u>'s (unmarked, marked) amplitudes, Python floats: numpy's
    # per-call cost would dominate at two amplitudes
    powers = [(1.0 / math.sqrt(K),) * 2]
    cdfs = {0: uniform}
    for measurements, j_range in enumerate(ranges, 1):
        j = int(rng.integers(0, j_range)) if j_range > 1 else 0   # range 1 draws nothing
        if (cost := subkey_bits + j + 1) > remaining:
            measurements -= 1
            break
        remaining -= cost
        while len(powers) <= j:
            powers.append(_class_grover_step(n_unmarked, n_marked, scale, *powers[-1]))
        iterations += j
        if (cdf := cdfs.get(j)) is None:
            u, m = powers[j]
            cdf = cdfs[j] = outcome_cdf(np.where(marked, m * m, u * u))
        if marked[outcome := draw_from_cdf(cdf, rng)]:
            found = outcome
            break
    if budget is not None:
        admitted = budget.try_charge(init=subkey_bits * measurements,
                                     search=iterations + measurements)
        assert admitted, "the rounds admitted one by one exceed the budget"
    return SearchOutcome(found, iterations, measurements,
                         () if start is None else (budget.spent,))


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

    # what starts a pass: two subkey registers and the counting register, one
    # counting, one oracle and one observation run
    start = StageSteps(init=2 * subkey_bits + counter.init_width,
                       counting=cost, oracle=cost, observe=cost)
    loop = 0
    search_steps_to_max = 0
    # a table that marks nothing stays empty: its search runs every pass left,
    # so the next start is refused after it
    while budget.try_charge(init=start.init, counting=start.counting,
                            oracle=start.oracle, observe=start.observe):
        marked = counts > threshold.right_pairs
        outcome = grover_search_marked(marked, subkey_bits, rng, budget, start)
        y_prime = outcome.found
        r_prime = int(counts[y_prime]) if y_prime is not None else None
        accepted = y_prime is not None and r_prime > threshold.right_pairs
        for steps_spent in outcome.pass_ends:
            loop += 1
            trace.append({
                "loop_iter": loop, "y": threshold.subkey, "r_y": threshold.right_pairs,
                "y_prime": y_prime, "r_y_prime": r_prime, "accepted": accepted,
                "steps_spent": steps_spent,
            })
        if accepted:
            threshold.accept(y_prime, r_prime)
            search_steps_to_max = budget.stages.search
    return MaxFindingResult(threshold.subkey, threshold, budget.stages, budget, loop,
                            trace, search_steps_to_max)

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdca import attack, max_finding, quantum_counting
from qdca.classical_dca import count_table
from qdca.max_finding import (SEARCH_GROWTH_FACTOR, ExactCounter,
                              MaxFindingConfig, QuantumCounter, SearchBudget,
                              SearchOutcome, StageSteps, ThresholdState, _class_grover_step,
                              find_max_subkey, grover_search_marked)
from qdca.quantum_counting import (ClassLadders, CountingParams,
                                   counting_distribution,
                                   estimate_from_outcome, grover_iteration)
from qdca.statevector import Register, StateVector, draw_outcome, outcome_cdf
from qdca.toy_cipher import true_subkey


def _rng(entropy, *key):
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=key))


# ---- threshold passes -------------------------------------------------------


def _pass_tables(monkeypatch, counter, subkey_bits, rng):
    """Run the threshold loop; return (marked table, trace row) for every pass.
    A search call produced one row per entry of its ``pass_ends``, so its
    table is paired with each of them."""
    calls = []

    def recording_search(marked, *args):
        outcome = grover_search_marked(marked, *args)
        calls.append((marked, outcome))
        return outcome

    monkeypatch.setattr(max_finding, "grover_search_marked", recording_search)
    res = find_max_subkey(counter, subkey_bits, MaxFindingConfig(4), rng)
    tables = [marked for marked, outcome in calls for _ in outcome.pass_ends]
    assert len(tables) == len(res.trace) >= 1
    assert [row["steps_spent"] for row in res.trace] == [
        end for _, outcome in calls for end in outcome.pass_ends]
    return list(zip(tables, res.trace))


def test_oracle_never_marks_the_threshold_itself(monkeypatch):
    # the pass's oracle O1(x, y) = [count(x) > count(y)] is 0 at x = y, so no
    # pass marks its own threshold, whichever subkey the threshold is
    counter = ExactCounter([3, 1, 4, 1])
    thresholds = set()
    for seed in range(16):
        for marked, row in _pass_tables(monkeypatch, counter, 2, _rng(30, seed)):
            thresholds.add(row["y"])
            assert not marked[row["y"]]
    assert thresholds == set(range(4))


def test_oracle_marks_strictly_larger_counts(monkeypatch):
    # ties with the threshold stay unmarked: against y = 0 (count 1) only the
    # two count-5 subkeys are marked
    counter = ExactCounter([1, 5, 5, 0])
    expected = {0: [1, 2], 1: [], 2: [], 3: [0, 1, 2]}
    thresholds = set()
    for seed in range(16):
        for marked, row in _pass_tables(monkeypatch, counter, 2, _rng(33, seed)):
            thresholds.add(row["y"])
            assert np.flatnonzero(marked).tolist() == expected[row["y"]]
    assert 0 in thresholds


def test_pass_table_is_oracle_o1_for_every_candidate(planted, monkeypatch):
    # each threshold pass marks x iff O1(x, y) = [count(x) > count(y)] for the
    # pass's threshold y, read from the counter's memoized counts
    _, _, _, ctx = planted
    rng = _rng(31)
    # every count is held by at least two subkeys, so every threshold has a tie
    quantum = QuantumCounter(ctx, ClassLadders(CountingParams.default(6)), _rng(32))
    for counter in (ExactCounter([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 9, 2, 6, 4, 9]), quantum):
        passes = _pass_tables(monkeypatch, counter, 4, rng)
        assert len(passes) >= 2
        if counter is quantum:
            assert len(counter.estimates) == 16   # every count drawn: count() reads the memo
        counts = [counter.count(x) for x in range(16)]
        for marked, row in passes:
            y = row["y"]
            assert not marked[y]
            assert marked.tolist() == [counts[x] > counts[y] for x in range(16)]


def test_true_subkey_marked_against_any_wrong_threshold(cipher, planted):
    # exact distributions: against every wrong threshold the true subkey is
    # marked (counted strictly higher) with probability well above 0.9
    key, ch, pairs, ctx = planted
    z = true_subkey(cipher, key, ch)
    params = CountingParams.default(6)

    def rounded_pmf(marked):
        dist = counting_distribution(marked, params)
        rounded = np.array([estimate_from_outcome(b, params)[2]
                            for b in range(dist.size)])
        pmf = np.zeros(params.num_pairs + 1)
        np.add.at(pmf, rounded, dist)
        return pmf

    pz = rounded_pmf(ctx.marked_table(z))
    for y in range(16):
        if y == z:
            continue
        cum = np.cumsum(rounded_pmf(ctx.marked_table(y)))
        p_marked = sum(pz[r] * cum[r - 1] for r in range(1, pz.size))
        assert p_marked >= 0.9, (y, p_marked)


# ---- search with unknown marked count -----------------------------------------


def test_search_all_marked_returns_immediately():
    out = grover_search_marked(np.ones(8, dtype=bool), 3, _rng(0))
    assert out.found is not None
    assert out.iterations == 0 and out.measurements == 1


def test_search_zero_marked_gives_up_at_cap():
    out = grover_search_marked(np.zeros(16, dtype=bool), 4, _rng(1))
    assert out.found is None
    assert out.measurements == 4 * math.ceil(4.5 * math.sqrt(16))


def test_search_single_marked_of_four_is_certain():
    # one Grover iteration on K=4 makes the marked item certain, so the
    # search can never return a wrong item
    marked = np.zeros(4, dtype=bool)
    marked[1] = True
    for seed in range(25):
        out = grover_search_marked(marked, 2, _rng(2, seed))
        assert out.found == 1


def test_search_respects_caller_budget():
    budget = SearchBudget(confidence=1, expected_steps=3)  # limit 6
    out = grover_search_marked(np.zeros(16, dtype=bool), 4, _rng(3), budget)
    assert out.found is None
    assert budget.spent <= budget.limit


def test_growth_factor_pinned():
    assert SEARCH_GROWTH_FACTOR == pytest.approx(1.2)


def _full_vector_search(marked, subkey_bits, rng, draws=None):
    """The search loop on a full StateVector, as it ran before the two-class
    state; no budget. Each round's j is appended to ``draws`` if given."""
    K = 1 << subkey_bits
    reg = Register("subkey", 0, subkey_bits)
    iterations = measurements = 0
    m_cap = 1.0
    while measurements < 4 * math.ceil(4.5 * math.sqrt(K)):
        j = int(rng.integers(0, max(1, int(m_cap))))
        if draws is not None:
            draws.append(j)
        state = StateVector.uniform(subkey_bits)
        for _ in range(j):
            grover_iteration(state, reg, marked)
        iterations += j
        outcome = state.measure(reg, rng)
        measurements += 1
        if marked[outcome]:
            return SearchOutcome(outcome, iterations, measurements)
        m_cap = min(SEARCH_GROWTH_FACTOR * m_cap, math.sqrt(K))
    return SearchOutcome(None, iterations, measurements)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_search_draws_as_the_full_vector_loop(k, seed, data):
    marked = np.array(data.draw(st.lists(st.booleans(), min_size=1 << k, max_size=1 << k)))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert grover_search_marked(marked, k, rng) == _full_vector_search(marked, k, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _search_drawing_every_round(marked, subkey_bits, rng, budget=None, draws=None):
    """The two-class search loop as it ran before empty tables skipped their
    distributions: every round draws its j, is charged on its own, builds its
    outcome distribution and draws. Each round's j is appended to ``draws``
    if given."""
    K = 1 << subkey_bits
    iterations = measurements = 0
    n_marked = int(np.count_nonzero(marked))
    powers = [(1 / math.sqrt(K),) * 2]
    m_cap = 1.0
    while measurements < 4 * math.ceil(4.5 * math.sqrt(K)):
        j = int(rng.integers(0, max(1, int(m_cap))))
        if draws is not None:
            draws.append(j)
        if budget is not None and not budget.try_charge(init=subkey_bits, search=j + 1):
            break
        while len(powers) <= j:
            powers.append(_class_grover_step(K - n_marked, n_marked, 2.0 / K, *powers[-1]))
        iterations += j
        u, m = powers[j]
        outcome = draw_outcome(np.where(marked, m * m, u * u), rng)
        measurements += 1
        if marked[outcome]:
            return SearchOutcome(outcome, iterations, measurements)
        m_cap = min(SEARCH_GROWTH_FACTOR * m_cap, math.sqrt(K))
    return SearchOutcome(None, iterations, measurements)


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([1, 4, 8]), fill=st.sampled_from(["empty", "full", "random"]),
       limit=st.one_of(st.none(), st.integers(0, 400)), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_search_equals_the_loop_that_draws_every_round(k, fill, limit, seed, data):
    # a table that marks nothing builds no distribution, yet its outcome, its
    # charges and the generator state are those of drawing every round
    K = 1 << k
    if fill == "random":
        marked = np.array(data.draw(st.lists(st.booleans(), min_size=K, max_size=K)))
    else:
        marked = np.full(K, fill == "full")
    # (no limit: a budget of 2 * 10**9 steps, which no search reaches)
    runs = []
    for search in (grover_search_marked, _search_drawing_every_round):
        rng = np.random.default_rng(seed)
        budget = SearchBudget(1, 10**9 if limit is None else limit)
        out = search(marked, k, rng, budget)
        runs.append((out, budget.stages, budget.spent, rng.bit_generator.state))
    assert runs[0] == runs[1]


# ---- the replay of a pass that marks nothing ----------------------------------

U64_MAX = np.iinfo(np.uint64).max


def _state(rng):
    """The generator's state with its arrays as lists, comparable with ==."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(v) for key, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(rng.bit_generator.state)


def _pair(bit_generator, seed=2024):
    return (np.random.Generator(bit_generator(seed)),
            np.random.Generator(bit_generator(seed)))


def _same_from_here(rng, ref):
    """Same generator state, and the same next draws of every kind."""
    assert _state(rng) == _state(ref)
    assert rng.integers(0, 5) == ref.integers(0, 5)
    assert rng.random() == ref.random()
    assert rng.integers(0, 2**40) == ref.integers(0, 2**40)
    assert _state(rng) == _state(ref)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
def test_bounds_array_draws_as_scalar_integers_calls(bit_generator):
    # element i of integers(0, bounds, uint64, endpoint=True) is the scalar
    # integers(0, bounds[i] + 1), and takes the same generator words; odd
    # ranges leave PCG64's buffered 32-bit half behind for the next draw
    ranges = [1, 1, 2, 3, 7, 2, 16, 64, 5, 1, 2**31, 2**32, 2**32 + 3, 11]
    rng, ref = _pair(bit_generator)
    batch = rng.integers(0, np.array(ranges, dtype=np.uint64) - 1, dtype=np.uint64,
                         endpoint=True)
    assert batch.tolist() == [int(ref.integers(0, r)) for r in ranges]
    _same_from_here(rng, ref)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
def test_bound_u64_max_takes_what_random_takes(bit_generator):
    rng, ref = _pair(bit_generator)
    rng.integers(0, np.array([3, U64_MAX, U64_MAX, 0, U64_MAX], dtype=np.uint64),
                 dtype=np.uint64, endpoint=True)
    ref.integers(0, 4)
    ref.random()
    ref.random()
    ref.integers(0, 1)
    ref.random()
    _same_from_here(rng, ref)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
def test_bound_zero_takes_nothing(bit_generator):
    rng, ref = _pair(bit_generator)
    rng.integers(0, 3)   # leaves PCG64 a buffered 32-bit half
    ref.integers(0, 3)
    state = _state(rng)
    assert rng.integers(0, np.zeros(5, dtype=np.uint64), dtype=np.uint64,
                        endpoint=True).tolist() == [0] * 5
    assert int(ref.integers(0, 1)) == 0
    assert _state(rng) == _state(ref) == state
    _same_from_here(rng, ref)


def _round_costs(k, rng):
    """Each round's cost, k + j + 1, for an empty pass drawing from ``rng``
    round by round, and each round's j range."""
    K = 1 << k
    costs, ranges = [], []
    m_cap = 1.0
    for _ in range(4 * math.ceil(4.5 * math.sqrt(K))):
        ranges.append(max(1, int(m_cap)))
        costs.append(k + int(rng.integers(0, ranges[-1])) + 1)
        rng.random()
        m_cap = min(SEARCH_GROWTH_FACTOR * m_cap, math.sqrt(K))
    return costs, ranges


def _runs_with_remaining(marked, k, bit_generator, seed, remaining):
    """(outcome, stages, spent, generator state) of the search and of the
    per-round oracle, each given a budget with ``remaining`` steps left."""
    runs = []
    for search in (grover_search_marked, _search_drawing_every_round):
        rng = np.random.Generator(bit_generator(seed))
        budget = SearchBudget(1, 10**6)
        assert budget.try_charge(observe=budget.limit - remaining)
        out = search(marked, k, rng, budget)
        runs.append((out, budget.stages, budget.spent, _state(rng)))
    return runs


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
@pytest.mark.parametrize("k", [4, 8, 12])
def test_empty_pass_budget_edges_equal_the_per_round_loop(bit_generator, k):
    seed = 90 + k
    costs, ranges = _round_costs(k, np.random.Generator(bit_generator(seed)))
    assert len(costs) == 4 * math.ceil(4.5 * math.sqrt(1 << k))
    assert ranges[:4] == [1, 1, 1, 1] and max(ranges) == math.isqrt(1 << k)
    total = sum(costs)
    middle = len(costs) // 2
    cases = {
        "admits no round": costs[0] - 1,
        "admits exactly every round": total,
        "refuses the last round": total - 1,
        "refuses a range-1 round": sum(costs[:2]) + costs[2] - 1,
        "refuses a middle round": sum(costs[:middle]) + costs[middle] - 1,
        "admits every round with room left": total + 3 * k,
    }
    expected_rounds = {"admits no round": 0, "admits exactly every round": len(costs),
                       "refuses the last round": len(costs) - 1,
                       "refuses a range-1 round": 2, "refuses a middle round": middle,
                       "admits every round with room left": len(costs)}
    marked = np.zeros(1 << k, dtype=bool)
    for name, remaining in cases.items():
        runs = _runs_with_remaining(marked, k, bit_generator, seed, remaining)
        assert runs[0] == runs[1], name
        assert runs[0][0].measurements == expected_rounds[name], name


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
@pytest.mark.parametrize("k", [4, 8])
def test_marking_pass_budget_edges_equal_the_per_round_loop(bit_generator, k):
    # a table that marks one subkey: each round is admitted against the steps
    # left before the call and all are charged at once, yet the outcome, the
    # charges and the generator state are those of charging round by round,
    # wherever the budget stops the rounds
    marked = np.zeros(1 << k, dtype=bool)
    marked[(1 << k) // 3] = True
    ranges = _round_costs(k, np.random.Generator(bit_generator(0)))[1]
    first_drawn = ranges.index(2)   # the first round whose j is drawn
    for seed in range(300 + k, 400 + k):   # a search that finds late enough
        draws = []
        out = _search_drawing_every_round(marked, k, np.random.Generator(bit_generator(seed)),
                                          draws=draws)
        if out.found is not None and out.measurements >= first_drawn + 3:
            break
    else:
        pytest.fail("no seed finds the marked subkey late enough")
    costs = [k + j + 1 for j in draws]
    last = len(costs) - 1   # the round that finds it
    middle = (first_drawn + last) // 2
    assert first_drawn < middle < last
    cases = {
        "admits no round": (costs[0] - 1, 0),
        "refuses a range-1 round": (sum(costs[:2]) + costs[2] - 1, 2),
        "refuses the first round with a drawn j":
            (sum(costs[:first_drawn]) + costs[first_drawn] - 1, first_drawn),
        "refuses a middle round": (sum(costs[:middle]) + costs[middle] - 1, middle),
        "refuses the finding round": (sum(costs) - 1, last),
        "admits the finding round exactly": (sum(costs), last + 1),
    }
    for name, (remaining, rounds) in cases.items():
        runs = _runs_with_remaining(marked, k, bit_generator, seed, remaining)
        assert runs[0] == runs[1], name
        assert runs[0][0].measurements == rounds, name
        assert (runs[0][0].found is not None) == (rounds == last + 1), name


def test_a_marking_pass_charges_once_and_draws_only_what_it_must(monkeypatch):
    # one try_charge per marking call; no CDF built for j = 0 (the shared
    # uniform one) and one per distinct j >= 1; rng.integers only for rounds
    # whose j range is above 1
    charges, built = [], []
    charge, cdf = SearchBudget.try_charge, max_finding.outcome_cdf

    def counted_charge(self, **steps):
        charges.append(steps)
        return charge(self, **steps)

    def recorded(probs):
        built.append(probs)
        return cdf(probs)

    class Spy:
        """The generator, recording each ``integers`` call's range and result."""

        def __init__(self, rng):
            self.rng, self.calls = rng, []

        def integers(self, low, high):
            self.calls.append((high, j := self.rng.integers(low, high)))
            return j

        def random(self):
            return self.rng.random()

    k = 8
    ranges = max_finding._round_plan(k)[0]   # the shared CDF, cached before the spy
    monkeypatch.setattr(SearchBudget, "try_charge", counted_charge)
    monkeypatch.setattr(max_finding, "outcome_cdf", recorded)
    marked = np.zeros(1 << k, dtype=bool)
    marked[[3, 200]] = True
    found = 0
    for seed in range(40):
        charges.clear()
        built.clear()
        rng = Spy(_rng(15, seed))
        budget = SearchBudget(1, 10**6)
        out = grover_search_marked(marked, k, rng, budget)
        found += out.found is not None
        assert len(charges) == 1
        assert budget.stages == StageSteps(init=k * out.measurements,
                                           search=out.iterations + out.measurements)
        rounds = ranges[:out.measurements]
        assert [high for high, _ in rng.calls] == [r for r in rounds if r > 1]
        drawn = {int(j) for _, j in rng.calls if j}
        assert all(np.ptp(probs) > 0 for probs in built) and len(built) == len(drawn)
    assert found == 40


def test_the_shared_uniform_cdf_is_read_only_and_exact():
    # G^0|u> has both class amplitudes 1/sqrt(K), so its CDF is the one every
    # table's first round builds, byte for byte
    for k in range(1, 17):
        K = 1 << k
        uniform = max_finding._round_plan(k)[2]
        u = 1.0 / math.sqrt(K)
        marked = _rng(16, k).random(K) < 0.5
        assert uniform.tobytes() == outcome_cdf(np.where(marked, u * u, u * u)).tobytes()
        assert not uniform.flags.writeable
        with pytest.raises(ValueError):
            uniform[0] = 0.5


def _tail_by_passes(marked, k, rng, budget, start):
    """The per-pass oracle of an empty tail: the first pass's start is paid,
    each later pass is charged ``start`` and then runs the per-round search,
    until a start is refused."""
    iterations = measurements = 0
    ends = []
    while True:
        out = _search_drawing_every_round(marked, k, rng, budget)
        iterations += out.iterations
        measurements += out.measurements
        ends.append(budget.spent)
        if not budget.try_charge(init=start.init, counting=start.counting,
                                 oracle=start.oracle, observe=start.observe):
            return SearchOutcome(None, iterations, measurements, tuple(ends))


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
@pytest.mark.parametrize("k", [4, 8, 12])
def test_empty_tail_budget_edges_equal_the_per_pass_loop(bit_generator, k):
    # one search call over every pass the budget admits against the pass-by-
    # pass loop: same pass ends, totals, charges and generator state where the
    # budget refuses a later start, a round 0, a middle round, nothing, or
    # where a cheap start follows a truncated pass; past the batch cap at
    # k <= 8 (at k = 12 the oracle's 35 passes take seconds)
    seed = 190 + k
    full_rng = np.random.Generator(bit_generator(seed))
    many = 2 * max_finding.MAX_TAIL_PASSES + 2 if k <= 8 else 3
    costs = [_round_costs(k, full_rng)[0] for _ in range(many + 1)]
    full = [sum(c) for c in costs]
    priced = StageSteps(init=2 * k + 14, counting=172, oracle=172, observe=172)
    cheap = StageSteps(init=2)
    assert priced.total > max(map(max, costs)) and cheap.total < k + 1
    two = full[0] + priced.total + full[1] + priced.total   # then pass 3's start
    middle = len(costs[2]) // 2
    widest = int(np.argmax(costs[1]))                          # pass 2's largest round
    cases = {
        "refuses the third pass's start": (priced, two - 1, 2),
        "admits a start and refuses round 0": (priced, two + costs[2][0] - 1, 3),
        "refuses a middle round of pass 3":
            (priced, two + sum(costs[2][:middle]) + costs[2][middle] - 1, 3),
        "fits the last pass exactly": (priced, two + full[2], 3),
        "admits every pass it draws": (priced, sum(full[:many]) + (many - 1) * priced.total,
                                       many),
        "starts a pass after a truncated one":
            (cheap, full[0] + cheap.total + sum(costs[1][:widest]) + costs[1][widest] - 1, None),
    }
    marked = np.zeros(1 << k, dtype=bool)
    for name, (start, remaining, passes) in cases.items():
        runs = []
        for search in (grover_search_marked, _tail_by_passes):
            rng = np.random.Generator(bit_generator(seed))
            budget = SearchBudget(1, 10**7)
            assert budget.try_charge(observe=budget.limit - remaining)
            out = search(marked, k, rng, budget, start)
            runs.append((out, budget.stages, budget.spent, _state(rng)))
        assert runs[0] == runs[1], name
        ends = runs[0][0].pass_ends
        if passes is None:   # the truncated pass leaves room for at least one more
            assert len(ends) >= 3 and ends[1] - ends[0] < full[1], name
        else:
            assert len(ends) == passes, name


def _exact_counts(k, seed):
    # ties included: several subkeys share each count
    return _rng(95, k, seed).integers(0, 1 << (k - 2), size=1 << k)


def _priced_counter(counts):
    """Exact counts charged as attack-k4n6's quantum counter is (counting cost
    172, t + n + 1 = 14 counting qubits): a pass's start costs more than any
    round of it."""
    counter = ExactCounter(counts)
    counter.counting_cost, counter.init_width = 172, 14
    return counter


def _per_pass_loop(counter, subkey_bits, config, rng):
    """The threshold loop as it ran before a search took every pass after its
    empty table: each pass charges its start and runs one search, through the
    per-round oracle. Returns (trace, stages, spent)."""
    K = 1 << subkey_bits
    budget = config.budget_for(subkey_bits, counter)
    cost = counter.counting_cost
    y = int(rng.integers(K))
    budget.try_charge(init=subkey_bits)
    r_y = counter.count(y)
    threshold = ThresholdState(y, r_y, [(y, r_y)])
    counts = counter.count_all()
    trace, loop = [], 0
    while budget.try_charge(init=2 * subkey_bits + counter.init_width,
                            counting=cost, oracle=cost, observe=cost):
        loop += 1
        outcome = _search_drawing_every_round(counts > threshold.right_pairs, subkey_bits,
                                              rng, budget)
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
    return trace, budget.stages, budget.spent


@pytest.mark.parametrize("k", [8, 10, 12])
def test_find_max_subkey_equals_the_per_round_search(k):
    # the whole loop against one per-round search per pass: same trace, same
    # charges, same generator state, with exact and with priced counts, and
    # with tails of one pass and of several
    tail_passes = []
    for seed in range(3):
        for make in (ExactCounter, _priced_counter):
            for confidence in (4, 16):
                counts = _exact_counts(k, seed)
                runs = []
                for loop in (find_max_subkey, _per_pass_loop):
                    rng = _rng(96, k, seed)
                    res = loop(make(counts), k, MaxFindingConfig(confidence), rng)
                    if loop is find_max_subkey:
                        res = res.trace, res.stages, res.budget.spent
                    runs.append((*res, _state(rng)))
                assert runs[0] == runs[1]
                # the passes against the largest count mark nothing
                tail_passes.append(sum(row["r_y"] == counts.max() for row in runs[0][0]))
    assert min(tail_passes) == 1 and max(tail_passes) >= 3, tail_passes


def _counted_steps(monkeypatch):
    """Patch the search's Grover step to record each call; returns the record."""
    calls = []
    step = max_finding._class_grover_step

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(max_finding, "_class_grover_step", counted)
    return calls


@pytest.mark.parametrize("k, marked_items", [(4, []), (6, [9]), (8, [3, 200])])
def test_one_search_applies_each_grover_step_once(monkeypatch, k, marked_items):
    # a marking pass takes max(j) Grover steps over the rounds it ran, an
    # empty pass none, while each round is still charged its own j
    calls = _counted_steps(monkeypatch)
    marked = np.zeros(1 << k, dtype=bool)
    marked[marked_items] = True
    for seed in range(5):
        calls.clear()
        draws = []
        expected = _full_vector_search(marked, k, _rng(4, seed), draws)
        budget = SearchBudget(1, 10**6)
        out = grover_search_marked(marked, k, _rng(4, seed), budget)
        assert out == expected
        assert len(calls) == (max(draws) if marked_items else 0)
        assert out.iterations == sum(draws)
        assert budget.stages == StageSteps(init=k * len(draws), search=sum(draws) + len(draws))


def test_search_memory_does_not_grow_with_the_rounds(monkeypatch):
    # a pass that finds nothing draws j up to about sqrt(K), yet takes no
    # Grover step; its peak memory stays a few K-entry arrays, not one
    # outcome distribution per power it drew
    calls = _counted_steps(monkeypatch)
    k = 12
    K = 1 << k
    marked = np.zeros(K, dtype=bool)
    grover_search_marked(marked, k, _rng(5))   # first-call allocations are not the search's
    tracemalloc.start()
    try:
        out = grover_search_marked(marked, k, _rng(6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.found is None and calls == []
    costs, _ = _round_costs(k, _rng(6))
    largest_j = max(costs) - k - 1
    assert largest_j >= 32
    assert peak < 8 * K * 8 < largest_j * K * 8


def test_search_stays_out_of_the_counting_layer(monkeypatch):
    # neither the full-state Grover step nor a StateVector gate runs in a
    # search, with a marking table or in a whole threshold loop
    def refused(*args):
        raise AssertionError("the search ran a full-state Grover step")

    monkeypatch.setattr(quantum_counting, "grover_iteration", refused)
    monkeypatch.setattr(StateVector, "apply_phase_oracle", refused)
    assert not hasattr(max_finding, "grover_iteration")
    marked = np.zeros(256, dtype=bool)
    marked[[3, 200]] = True
    out = grover_search_marked(marked, 8, _rng(13))
    assert out.found in (3, 200) and out.iterations > 0
    res = find_max_subkey(ExactCounter(_exact_counts(8, 0)), 8, MaxFindingConfig(4), _rng(14))
    assert any(row["accepted"] for row in res.trace) and res.budget.stages.search > 0


def test_search_calls_add_up_to_the_search_stage(monkeypatch):
    # what the traced benchmark checks, over 20 attack-k4n6 trials and 20
    # exact k = 8 runs (as search-k8-exact draws them): the search calls'
    # iterations + measurements are the search stage, one trace row per pass,
    # and at most one call per run searches a table that marks nothing
    calls = []

    def recording_search(marked, *args):
        outcome = grover_search_marked(marked, *args)
        calls.append((not marked.any(), outcome.iterations + outcome.measurements))
        return outcome

    monkeypatch.setattr(max_finding, "grover_search_marked", recording_search)
    config = attack.AttackConfig(subkey_bits=4, index_bits=6, confidence=4, master_seed=2024,
                                 trials=20, planted_key=0x09)
    attack_calls = attack_passes = 0
    for kind in ("attack", "exact"):
        for i in range(20):
            calls.clear()
            if kind == "attack":
                res = attack.run_quantum_attack(config, i)[1]
                attack_calls += len(calls)
                attack_passes += res.loop_iterations
            else:
                rng = attack._trial_rng(2024, i, purpose=2 + 8)
                res = find_max_subkey(ExactCounter(rng.permutation(256)), 8,
                                      MaxFindingConfig(4), rng)
            assert sum(steps for _, steps in calls) == res.stages.search
            assert len(res.trace) == res.loop_iterations
            assert sum(empty for empty, _ in calls) <= 1
    # the tail is one call: fewer calls than passes
    assert attack_calls < attack_passes


def test_tail_memory_does_not_grow_with_the_confidence():
    # at k = 4 a confidence of 4096 runs over 1500 passes, nearly all an empty
    # tail; MAX_TAIL_PASSES bounds what one draw holds, so the working memory
    # above the result the run returns stays within what confidence 4 needs
    # (uncapped, one draw of the whole tail would hold about 3 MB)
    counter = ExactCounter(_rng(97).permutation(16))

    def working_memory(confidence):
        find_max_subkey(counter, 4, MaxFindingConfig(confidence), _rng(98))   # warm caches
        tracemalloc.start()
        try:
            res = find_max_subkey(counter, 4, MaxFindingConfig(confidence), _rng(98))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return res, peak - kept

    bound = 64 * 1024
    res, small = working_memory(4)
    assert res.loop_iterations < 10 and small < bound
    res, large = working_memory(4096)
    assert res.loop_iterations > 1000 and large < bound


# ---- budget ---------------------------------------------------------------------


def test_budget_charge_or_stop():
    budget = SearchBudget(confidence=2, expected_steps=10)
    assert budget.limit == 40
    assert budget.try_charge(init=9, counting=10, oracle=10, observe=10)
    # would cross: every stage refused, none partially spent
    assert not budget.try_charge(init=1, search=1)
    assert budget.spent == 39
    assert budget.stages == StageSteps(init=9, counting=10, oracle=10, observe=10)
    assert budget.try_charge(search=1)
    assert budget.spent == 40 == budget.stages.total


def test_default_budget_formula(planted):
    _, _, _, ctx = planted
    params = CountingParams.default(6)
    counter = QuantumCounter(ctx, ClassLadders(params), _rng(4))
    budget = MaxFindingConfig(confidence=4).budget_for(4, counter)
    expected_m0 = math.ceil(22.5 * 4) + 4 * params.counting_cost
    assert budget.expected_steps == expected_m0
    assert budget.limit == 8 * expected_m0
    exact_budget = MaxFindingConfig(confidence=4).budget_for(4, ExactCounter([0] * 16))
    assert exact_budget.expected_steps == math.ceil(22.5 * 4)


def test_budget_below_one_pass_refused_before_any_count(planted):
    # At k = 1, c = 1 the derived budget is 2 * (ceil(22.5 * sqrt 2) + cost) =
    # 64 + 2 * cost, and the initial threshold plus one pass need
    # 3 + (t+n+1) + 3 * cost: a counting cost above 61 - (t+n+1) outgrows it.
    # At c = 2 the search runs over subkeys 0 and 1's exact counts, charged
    # the quantum counter's costs.
    _, _, _, ctx = planted
    counter = QuantumCounter(ctx, ClassLadders(CountingParams.default(6)), _rng(4))
    need = 3 + counter.init_width + 3 * counter.counting_cost
    rng = _rng(4, 1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"budget limit {64 + 2 * counter.counting_cost} "
                                         f"cannot pay .* one pass \\({need} steps\\)"):
        find_max_subkey(counter, 1, MaxFindingConfig(confidence=1), rng)
    assert len(counter.estimates) == 0
    assert rng.bit_generator.state == state
    pair = ExactCounter(ctx.counts[:2])
    pair.counting_cost, pair.init_width = counter.counting_cost, counter.init_width
    res = find_max_subkey(pair, 1, MaxFindingConfig(confidence=2), rng)
    assert res.loop_iterations >= 1 and res.budget.spent <= res.budget.limit


def test_threshold_state_rejects_non_increasing():
    state = ThresholdState(0, 2, [(0, 2)])
    state.accept(3, 5)
    with pytest.raises(ValueError):
        state.accept(1, 5)


# ---- the full loop ----------------------------------------------------------------


def test_single_candidate_refused_before_any_count(planted):
    # K = 1 has nothing to search: refused before any count or rng draw
    _, _, _, ctx = planted
    counter = QuantumCounter(ctx, ClassLadders(CountingParams.default(6)), _rng(4))
    rng = _rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="at least one subkey bit"):
        find_max_subkey(counter, 0, MaxFindingConfig(1), rng)
    assert len(counter.estimates) == 0
    budget = SearchBudget(confidence=1, expected_steps=100)
    with pytest.raises(ValueError, match="at least one subkey bit"):
        grover_search_marked(np.ones(1, dtype=bool), 0, rng, budget)
    assert budget.spent == 0
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("size", [0, 1, 8, 15, 17, 32])
def test_search_refuses_a_table_that_is_not_2_to_the_k(size):
    # k = 4 takes 16 entries only, an empty and a full table alike; nothing is
    # drawn or charged
    rng = _rng(15)
    state = rng.bit_generator.state
    budget = SearchBudget(confidence=1, expected_steps=100)
    for fill in (False, True):
        with pytest.raises(ValueError, match="2\\*\\*subkey_bits"):
            grover_search_marked(np.full(size, fill), 4, rng, budget)
    assert budget.spent == 0
    assert rng.bit_generator.state == state


def test_a_pass_charge_without_a_budget_is_refused():
    # the charge that starts a pass is charged to a budget: without one the
    # search is refused before any draw, whatever the table marks
    rng = _rng(18)
    state = rng.bit_generator.state
    for fill in (False, True):
        with pytest.raises(ValueError, match="a pass charge needs a budget"):
            grover_search_marked(np.full(16, fill), 4, rng, None, StageSteps(init=8))
    assert rng.bit_generator.state == state


def test_a_count_vector_that_is_not_k_long_is_refused(planted):
    # K = 16: a 32-count exact counter and a quantum counter of K = 16 asked
    # for k = 3 are refused, not searched over their first K counts
    _, _, _, ctx = planted
    quantum = QuantumCounter(ctx, ClassLadders(CountingParams.default(6)), _rng(16))
    assert quantum.subkeys == 16
    for counter, k in ((ExactCounter(np.arange(32)), 4), (quantum, 3)):
        with pytest.raises(ValueError, match=f"counts for K = {1 << k} subkeys"):
            find_max_subkey(counter, k, MaxFindingConfig(4), _rng(17))
    assert quantum.estimates == {}


@pytest.mark.parametrize("seed", range(6))
def test_a_counter_of_the_wrong_width_is_refused_before_any_draw(seed):
    # 8 counts for K = 16: refused by the width check, not by whichever of
    # the threshold's count (IndexError past subkey 7) or the count vector's
    # length the seed reaches first, and before the threshold is drawn
    counter = ExactCounter(np.arange(8))
    assert counter.subkeys == 8
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="8 counts for K = 16 subkeys"):
        find_max_subkey(counter, 4, MaxFindingConfig(4), rng)
    assert rng.bit_generator.state == state


def test_exact_counts_recover_argmax_with_monotone_history(cipher, planted):
    _, ch, pairs, _ = planted
    table = count_table(pairs, cipher, ch)
    argmax = table.winner()
    wins = 0
    for trial in range(100):
        rng = _rng(77, trial)
        res = find_max_subkey(ExactCounter(table.counts), 4, MaxFindingConfig(4), rng)
        wins += res.subkey == argmax
        values = [v for _, v in res.threshold.history]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert res.budget.spent <= res.budget.limit
    assert wins / 100 >= 1 - 1 / 16 - 0.05


def test_exact_counts_recover_argmax_on_permutations():
    # canonical setting: all counts distinct, planted maximum
    wins = 0
    for trial in range(60):
        rng = _rng(13, trial)
        counts = rng.permutation(16)
        res = find_max_subkey(ExactCounter(counts), 4, MaxFindingConfig(4), rng)
        wins += res.subkey == int(np.argmax(counts))
    assert wins / 60 >= 1 - 1 / 16 - 0.05


def test_planted_instance_recovery_rate(cipher, planted):
    # counting-backed maximum finding on the planted instance: the recovery
    # rate clears the 1 - 1/2^c confidence target over 100 seeded trials
    key, ch, pairs, ctx = planted
    z = true_subkey(cipher, key, ctx.characteristic)
    assert int(ctx.marked_table(z).sum()) >= 8  # adequate planted signal
    params = CountingParams.default(6)
    wins = 0
    for trial in range(100):
        rng = _rng(55, trial)
        counter = QuantumCounter(ctx, ClassLadders(params), rng)
        res = find_max_subkey(counter, 4, MaxFindingConfig(confidence=4), rng)
        wins += res.subkey == z
    assert wins >= math.ceil((1 - 1 / 16) * 100)


def test_distribution_counter_matches_simulated_outcomes(table_estimate):
    # sampled full-circuit outcomes agree with the exact readout distribution
    params = CountingParams.default(3)
    marked = np.zeros(16, dtype=bool)
    marked[:3] = True
    exact = counting_distribution(marked, params)
    outcomes = [table_estimate(marked, params, _rng(9, seed)).raw_outcome
                for seed in range(400)]
    hist = np.bincount(outcomes, minlength=exact.size) / 400
    assert 0.5 * np.abs(hist - exact).sum() < 0.12


def test_quantum_counter_memoizes(planted):
    _, _, _, ctx = planted
    counter = QuantumCounter(ctx, ClassLadders(CountingParams.default(6)), _rng(6))
    first = counter.count(3)
    assert counter.count(3) == first
    assert len(counter.estimates) == 1


@pytest.mark.parametrize("kind", ["exact", "quantum"])
@pytest.mark.parametrize("x", [-1, 16])
def test_counters_refuse_a_subkey_outside_the_range(planted, kind, x):
    # K = 16: neither counter wraps x = -1 to the last subkey nor reads past K,
    # and a refused subkey leaves no estimate and draws nothing
    _, _, _, ctx = planted
    rng = _rng(7)
    state = rng.bit_generator.state
    counter = (ExactCounter(ctx.counts) if kind == "exact"
               else QuantumCounter(ctx, ClassLadders(CountingParams.default(6)), rng))
    with pytest.raises(IndexError, match=f"subkey {x} outside \\[0, K\\) = \\[0, 16\\)"):
        counter.count(x)
    if kind == "quantum":
        assert counter.estimates == {}
    assert rng.bit_generator.state == state


class _RecordingCounter:
    """Forwards to a counter and records every count and count_all call."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []
        self.counting_cost, self.init_width = inner.counting_cost, inner.init_width
        self.subkeys = inner.subkeys

    def count(self, x):
        self.calls.append(x)
        return self.inner.count(x)

    def count_all(self):
        self.calls.append("all")
        return self.inner.count_all()


@pytest.mark.parametrize("kind", ["exact", "quantum"])
def test_one_count_vector_per_run(kind, planted):
    # the threshold's count, then every candidate's in ascending order in one
    # count_all; no count after that, however many passes the run makes
    _, _, _, ctx = planted
    for trial in range(10):
        rng = _rng(41, trial)
        inner = (ExactCounter(_rng(42, trial).permutation(16)) if kind == "exact"
                 else QuantumCounter(ctx, ClassLadders(CountingParams.default(6)), rng))
        counter = _RecordingCounter(inner)
        res = find_max_subkey(counter, 4, MaxFindingConfig(4), rng)
        assert res.loop_iterations > 1
        y = res.threshold.history[0][0]
        assert counter.calls == [y, "all"]
        if kind == "quantum":   # the estimates were drawn in the demand order
            assert list(inner.estimates) == [y, *(x for x in range(16) if x != y)]


@pytest.mark.parametrize("kind", ["exact", "quantum"])
def test_count_all_hands_over_the_first_k_counts(kind, planted):
    # count_all() is count(x) for x = 0..K-1 as one int64 array, draws what
    # those calls draw, and is the caller's to keep
    _, _, _, ctx = planted
    params = CountingParams.default(6)

    def make():
        return (ExactCounter([5, 0, 3, 9, 1, 1, 2, 7, 4, 6, 8, 0, 2, 3, 5, 1]) if kind == "exact"
                else QuantumCounter(ctx, ClassLadders(params), _rng(43)))

    one_by_one, at_once = make(), make()
    one_by_one.count(11)
    at_once.count(11)
    expected = [one_by_one.count(x) for x in range(16)]
    counts = at_once.count_all()
    assert counts.dtype == np.int64 and counts.tolist() == expected
    counts[:] = -1
    assert at_once.count_all().tolist() == expected
    if kind == "quantum":
        assert list(at_once.estimates.items()) == list(one_by_one.estimates.items())
        assert at_once.rng.bit_generator.state == one_by_one.rng.bit_generator.state


def test_per_loop_step_accounting(planted):
    # each pass charges one counting cost to the counting, oracle and observe
    # stages, and 2k + (t+n+1) initialization steps on top of the initial
    # random-threshold preparation and per-round search re-initializations
    _, _, _, ctx = planted
    params = CountingParams.default(6)
    counter = QuantumCounter(ctx, ClassLadders(params), _rng(21))
    res = find_max_subkey(counter, 4, MaxFindingConfig(4), _rng(21, 1))
    loops = res.loop_iterations
    assert res.stages.counting == loops * params.counting_cost
    assert res.stages.oracle == loops * params.counting_cost
    assert res.stages.observe == loops * params.counting_cost
    reinit_steps = res.stages.init - 4 - loops * (2 * 4 + params.init_steps)
    assert reinit_steps >= 0 and reinit_steps % 4 == 0
    assert res.budget.spent == res.stages.total


def test_trace_rows_reflect_loop(cipher, planted):
    _, ch, pairs, _ = planted
    table = count_table(pairs, cipher, ch)
    res = find_max_subkey(ExactCounter(table.counts), 4, MaxFindingConfig(4), _rng(8))
    assert len(res.trace) == res.loop_iterations
    for row in res.trace:
        assert set(row) == {"loop_iter", "y", "r_y", "y_prime", "r_y_prime",
                            "accepted", "steps_spent"}
    assert res.trace[-1]["steps_spent"] == res.budget.spent

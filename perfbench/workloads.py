"""The benchmark's workloads: seeded inputs, one trial, and its correctness checks.

Every call into qdca goes through a module attribute (``attack.run_...``),
looked up at call time, so the traced run's wrappers see it. The trial of a
workload is exactly what the program runs; the checks run outside the timed
part of a trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                           # "quantum", "classical" or "search"
    attack_flags: tuple[str, ...] = ()  # `qdca attack` flags of the same run
    setup_samples: int = 7              # cold set-ups per run, the main one included
    ref_qubits: int = 8                 # the reference kernel that calibrates it


WORKLOADS = {w.name: w for w in (
    Workload("attack-k4n6", "quantum",
             ("-k", "4", "-n", "6", "-c", "4", "--planted-key", "0x09"), ref_qubits=14),
    # run by hand only: one trial takes about 16 s, so it is left out of
    # BENCHMARK.json (see README.md)
    Workload("attack-k4n8", "quantum",
             ("-k", "4", "-n", "8", "-c", "4", "--planted-key", "0x09"), setup_samples=2,
             ref_qubits=14),
    Workload("search-k8-exact", "search"),
    # the 14-qubit kernel tracked it better than the 8-qubit one (README.md)
    Workload("classical-random-keys", "classical",
             ("--mode", "classical", "--random-keys", "-n", "8"), ref_qubits=14),
)}

SEARCH_BITS = 8
SEARCH_CONFIDENCE = 4


@dataclass
class Trial:
    index: int
    steps: int                  # the paper's time-steps of this trial
    recovered: bool
    estimates: int = 0          # counting estimates drawn
    in_bound: float = 0.0       # of which inside the accuracy bound
    g_gates: int = 0            # Grover gates of all counting runs
    search_steps: int = 0       # search-stage time-steps (iterations + measurements)
    signature: tuple = ()       # exact counts that tracing must not change
    result: object = None       # AttackResult (attack workloads)
    trace_rows: list = field(default_factory=list)
    detail: object = None       # MaxFindingResult; for search, (it, injected counts)


class Session:
    """A prepared workload: validated config and instance, ready for trials."""

    def __init__(self, workload: Workload, seed: int, mods: dict):
        self.w = workload
        self.seed = seed
        self.m = mods
        self._reference: dict[int, tuple] = {}
        attack = mods["attack"]
        if workload.kind == "search":
            self.config = None
            return
        n = int(workload.attack_flags[workload.attack_flags.index("-n") + 1])
        self.config = attack.AttackConfig(
            subkey_bits=4, index_bits=n, confidence=4, master_seed=seed, trials=1,
            mode=workload.kind,
            planted_key=None if workload.kind == "classical" else 0x09)
        attack.plant_instance(self.config, 0)

    # ---- one trial ------------------------------------------------------

    def run_trial(self, i: int) -> Trial:
        attack = self.m["attack"]
        if self.w.kind == "quantum":
            res, mf = attack.run_quantum_attack(self.config, i)
            st = mf.stages
            return Trial(i, res.steps_total, res.success, res.counting_invocations,
                         res.bound_hit_rate * res.counting_invocations,
                         res.g_gates_total, st.search,
                         (res.g_gates_total, st.init, st.counting, st.oracle, st.search,
                          st.observe, res.loop_iterations, res.budget_spent),
                         res, [{"trial": i, **row} for row in mf.trace], mf)
        if self.w.kind == "classical":
            res = attack.run_classical_attack(self.config, i)
            return Trial(i, res.steps_total, res.success,
                         signature=(res.recovered_subkey, res.steps_counting), result=res)
        mf_mod = self.m["max_finding"]
        rng = attack._trial_rng(self.seed, i, purpose=2 + SEARCH_BITS)  # as `qdca scale`
        counts = rng.permutation(1 << SEARCH_BITS)
        mf = mf_mod.find_max_subkey(mf_mod.ExactCounter(counts), SEARCH_BITS,
                                    mf_mod.MaxFindingConfig(SEARCH_CONFIDENCE), rng)
        st = mf.stages
        return Trial(i, st.total, mf.subkey == int(counts.argmax()),
                     search_steps=st.search,
                     signature=(mf.subkey, st.init, st.search, mf.loop_iterations,
                                mf.budget.spent),
                     detail=(mf, counts))

    # ---- checks ---------------------------------------------------------

    def check(self, t: Trial) -> list[str]:
        """Correctness failures of one trial (empty when it is correct)."""
        if self.w.kind == "search":
            mf, counts = t.detail
            return _check_search(mf, counts)
        attack = self.m["attack"]
        ctx, key, z = attack.plant_instance(self.config, t.index)
        res = t.result
        bad = []
        if res.ground_truth != z:
            bad.append(f"ground truth {res.ground_truth} != planted {z}")
        ref_counts, ref_winner = self._reference_counts(ctx, key)
        K, N = 1 << ctx.subkey_bits, ctx.pairs.num_pairs
        if self.w.kind == "classical":
            if res.recovered_subkey != ref_winner:
                bad.append(f"classical winner {res.recovered_subkey} "
                           f"!= oracle {ref_winner}")
            if res.steps_counting != K * N:
                bad.append(f"evaluations {res.steps_counting} != K*N")
            return bad
        marked = [int(ctx.marked_table(x)[:N].sum()) for x in range(K)]
        padded = sum(int(ctx.marked_table(x)[N:].sum()) for x in range(K))
        if marked != ref_counts or padded:
            bad.append("marked tables disagree with classical_dca.count_table")
        t_bits = self.config.counting_params().phase_bits
        if res.g_gates_total != res.counting_invocations * ((1 << t_bits) - 1):
            bad.append("a count did not use exactly 2**t - 1 Grover steps")
        if res.qubits_simulated != t_bits + self.config.index_bits + 1:
            bad.append("simulated width != t + n + 1")
        if not 0.0 <= res.bound_hit_rate <= 1.0:
            bad.append("bound hit rate outside [0, 1]")
        return bad + _check_threshold_loop(t.detail, t.trace_rows)

    def _reference_counts(self, ctx, key: int) -> tuple[list[int], int]:
        """count_table, checked once per key against the scalar predicate e(x, j)."""
        if key not in self._reference:
            tc, dca = self.m["toy_cipher"], self.m["classical_dca"]
            table = [int(c) for c in dca.count_table(ctx.pairs, ctx.cipher,
                                                     ctx.characteristic).counts]
            scalar = [sum(tc.is_right_pair(ctx.cipher, ctx.characteristic, x, j, ctx.pairs)
                          for j in range(ctx.pairs.num_pairs))
                      for x in range(1 << ctx.subkey_bits)]
            if table != scalar:
                raise AssertionError(f"count_table disagrees with e(x, j) for key {key}")
            self._reference[key] = (table, table.index(max(table)))
        return self._reference[key]

    # ---- outputs --------------------------------------------------------

    def write_csvs(self, trials: list[Trial], out_dir: Path) -> list[Path]:
        """results.csv and trace.csv of the given trials, as `qdca attack` writes them."""
        attack = self.m["attack"]
        paths = [out_dir / "results.csv", out_dir / "trace.csv"]
        attack.write_results_csv(paths[0], [t.result for t in trials])
        attack.write_trace_csv(paths[1], [row for t in trials for row in t.trace_rows])
        return paths


def _check_threshold_loop(mf, trace_rows) -> list[str]:
    bad = []
    if mf.budget.spent > mf.budget.limit:
        bad.append(f"budget spent {mf.budget.spent} > limit {mf.budget.limit}")
    if mf.stages.total != mf.budget.spent:
        bad.append("stage steps do not add up to the budget spent")
    spent = 0
    for row in trace_rows:
        if row["steps_spent"] < spent or row["steps_spent"] > mf.budget.limit:
            bad.append("trace steps_spent not monotone within the limit")
            break
        spent = row["steps_spent"]
        if row["accepted"] and not row["r_y_prime"] > row["r_y"]:
            bad.append("accepted a threshold that does not increase")
            break
    return bad


def _check_search(mf, counts) -> list[str]:
    bad = _check_threshold_loop(mf, mf.trace)
    history = [r for _, r in mf.threshold.history]
    if any(b <= a for a, b in zip(history, history[1:])):
        bad.append("threshold history not strictly increasing")
    if any(int(counts[x]) != r for x, r in mf.threshold.history):
        bad.append("threshold counts differ from the injected counts")
    if mf.search_steps_to_max > mf.stages.search:
        bad.append("search steps to max exceed search steps")
    return bad

"""End-to-end attack drivers, Monte Carlo runner and CSV reports.

A run's configuration is checked in full when ``AttackConfig`` is built: the
cipher document, the characteristic document's (P', delta), which fixes k,
and a fixed planted key's instance. Only p is measured per key.

Pair generation and characteristic measurement are the cryptosystem's work,
not the attacker's, and stay out of the time-step accounting; stdout reports
their per-trial wall time, about 0 s for a planted key built with its config.

Reproducibility: trial i draws every random decision from a generator
seeded by (master_seed, i), so identical configurations produce
byte-identical CSV outputs. Wall times are therefore kept out of the CSVs.
"""

from __future__ import annotations

import csv
import numbers
import os
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import toy_cipher
from .classical_dca import classical_attack
from .max_finding import (ExactCounter, MaxFindingConfig, MaxFindingResult,
                          QuantumCounter, find_max_subkey)
from .quantum_counting import (ClassLadders, CountEstimate, CountingParams,
                               counting_error_bound, default_accuracy_bits)
from .statevector import DEFAULT_MAX_QUBITS
from .toy_cipher import (NIBBLE_BITS, AttackContext, ToyCipher, ZeroProbabilityError,
                         active_sboxes, cipher_from_dict, codebook_pairs,
                         differential_from_dict, encrypt_codebook, make_characteristic,
                         true_subkey)

MODES = ("classical", "quantum", "both")


class ConfigError(ValueError):
    """Invalid attack configuration."""


@dataclass(frozen=True)
class AttackConfig:
    """One run's settings, refused with ConfigError when built if unusable. The
    cipher, the characteristic document's (P', delta) and a fixed planted key's
    instance are built once, for every trial, and the counting ladder is
    memoized by class size across its trials."""

    subkey_bits: int | None = None   # None: 4 per S-box that delta activates
    index_bits: int = 6
    accuracy_bits: int | None = None   # default: ceil(n/2) + 1
    epsilon: float = 0.1
    confidence: int = 4
    master_seed: int = 2024
    trials: int = 100
    mode: str = "quantum"
    planted_key: int | None = toy_cipher.DEFAULT_PLANTED_KEY
    out_dir: str = "out"
    cipher_doc: dict = field(default_factory=dict)
    characteristic_doc: dict = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    def validate(self):
        integer, optional = numbers.Integral, (numbers.Integral, type(None))
        for name, kind in (("subkey_bits", optional), ("index_bits", integer),
                           ("accuracy_bits", optional), ("epsilon", numbers.Real),
                           ("confidence", integer), ("master_seed", integer),
                           ("trials", integer), ("planted_key", optional),
                           ("out_dir", (str, os.PathLike)), ("cipher_doc", dict),
                           ("characteristic_doc", dict)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{name} has the wrong type: {value!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.trials < 1:
            raise ConfigError("at least one trial")
        if self.confidence < 1:
            raise ConfigError("confidence must be >= 1")
        cipher = self.cipher
        delta = self.differential[1]
        k = NIBBLE_BITS * len(active_sboxes(delta))
        if self.subkey_bits is None:
            object.__setattr__(self, "subkey_bits", k)
        if self.subkey_bits not in (4, 8):
            raise ConfigError(f"subkey_bits must be 4 or 8, not {self.subkey_bits}")
        if not 1 <= self.index_bits <= cipher.block_width:
            raise ConfigError("index_bits outside block capacity")
        if self.planted_key is not None and not 0 <= self.planted_key < cipher.block_size:
            raise ConfigError("planted_key outside block range")
        params = self.counting_params()  # raises on a bad (m, epsilon)
        # the ladder's (T, 2, K) record over all 2**k subkeys' sizes is the widest
        # simulator array of a run (the memo keeps only a (T,) CDF row per size)
        lane_width = params.phase_bits + 1 + self.subkey_bits
        if lane_width > DEFAULT_MAX_QUBITS:
            raise ConfigError(f"counting all 2**k subkeys as lanes needs t+1+k = {lane_width} "
                              f"qubits, above the {DEFAULT_MAX_QUBITS}-qubit limit")
        if self.subkey_bits != k:
            raise ConfigError(f"subkey_bits={self.subkey_bits}, but expected difference "
                              f"{delta:#04x} gives k = {k} (4 bits per active S-box)")
        if self.planted_key is not None:
            self.planted_instance   # built now, so a key without signal is refused here

    @cached_property
    def cipher(self) -> ToyCipher:
        try:
            return cipher_from_dict(self.cipher_doc)
        except (TypeError, ValueError) as err:
            raise ConfigError(str(err)) from err

    @cached_property
    def differential(self) -> tuple[int, int]:
        """(P', delta) of the characteristic document, read once per config."""
        try:
            return differential_from_dict(self.characteristic_doc, self.cipher)
        except (TypeError, ValueError) as err:
            raise ConfigError(str(err)) from err

    def counting_params(self) -> CountingParams:
        m = self.accuracy_bits
        if m is None:
            m = default_accuracy_bits(self.index_bits)
        try:
            return CountingParams(self.index_bits, m, self.epsilon)
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def instance(self, key: int) -> tuple[AttackContext, int, int]:
        """(context, key, true subkey) under master key ``key``: the config's
        (P', delta) with p measured, and the pairs read, from one encryption of
        the key's codebook, which is not kept; raises ZeroProbabilityError when
        the true subkey has no right pair."""
        codebook = encrypt_codebook(self.cipher, key)
        ch = make_characteristic(self.cipher, key, *self.differential, codebook=codebook)
        pairs = codebook_pairs(self.cipher, codebook, ch.plaintext_diff, self.index_bits)
        return AttackContext(self.cipher, ch, pairs), key, true_subkey(self.cipher, key, ch)

    @cached_property
    def planted_instance(self) -> tuple[AttackContext, int, int]:
        try:
            return self.instance(self.planted_key)
        except ZeroProbabilityError as err:
            raise ConfigError(f"planted key {self.planted_key:#04x}: {err}") from err

    @cached_property
    def class_ladders(self) -> ClassLadders:
        """The counting ladder memoized by class size, shared by every trial
        of this config and by nothing else."""
        return ClassLadders(self.counting_params())

    @classmethod
    def from_dict(cls, doc: dict) -> "AttackConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


@dataclass
class AttackResult:
    trial: int
    mode: str
    recovered_subkey: int
    ground_truth: int
    steps_init: int = 0
    steps_counting: int = 0
    steps_oracle: int = 0
    steps_search: int = 0
    steps_observe: int = 0
    counting_invocations: int = 0
    g_gates_total: int = 0
    bound_hit_rate: float = 0.0
    loop_iterations: int = 0
    budget_spent: int = 0
    budget_limit: int = 0
    qubits_model: int = 0
    qubits_simulated: int = 0
    wall_time_s: float = 0.0   # stdout only; never written to CSV
    prep_time_s: float = 0.0   # planting the trial's instance; set by run_trials

    @property
    def success(self) -> bool:
        return self.recovered_subkey == self.ground_truth

    @property
    def steps_total(self) -> int:
        return (self.steps_init + self.steps_counting + self.steps_oracle
                + self.steps_search + self.steps_observe)


def _trial_rng(master_seed: int, trial: int, purpose: int = 0) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(trial, purpose)))


def plant_instance(config: AttackConfig, trial: int):
    """Planted instance of one trial: (context, master key, true subkey)."""
    if config.planted_key is not None:
        return config.planted_instance
    # some keys carry no signal under the configured differential; redraw
    rng = _trial_rng(config.master_seed, trial, purpose=1)
    for _ in range(4 * config.cipher.block_size):
        try:
            return config.instance(int(rng.integers(config.cipher.block_size)))
        except ZeroProbabilityError:
            continue
    raise ConfigError("no key with a usable characteristic found")


def run_quantum_attack(config: AttackConfig, trial: int = 0,
                       instance=None) -> tuple[AttackResult, MaxFindingResult]:
    """One quantum attack trial: counting-backed threshold maximum finding, on
    ``instance`` (as ``plant_instance`` returns it) if given."""
    ctx, _, z = instance or plant_instance(config, trial)
    t0 = time.perf_counter()
    rng = _trial_rng(config.master_seed, trial)
    counter = QuantumCounter(ctx, config.class_ladders, rng)
    params = counter.params
    mf = find_max_subkey(counter, config.subkey_bits, MaxFindingConfig(config.confidence), rng)
    result = AttackResult(
        trial=trial, mode="quantum", recovered_subkey=mf.subkey, ground_truth=z,
        steps_init=mf.stages.init, steps_counting=mf.stages.counting,
        steps_oracle=mf.stages.oracle, steps_search=mf.stages.search,
        steps_observe=mf.stages.observe,
        counting_invocations=len(counter.estimates),
        g_gates_total=sum(e.g_gate_count for e in counter.estimates.values()),
        bound_hit_rate=_bound_hit_rate(ctx, params, counter),
        loop_iterations=mf.loop_iterations,
        budget_spent=mf.budget.spent, budget_limit=mf.budget.limit,
        qubits_model=2 * config.subkey_bits + params.init_steps,   # 2k+n+t+1; see README
        qubits_simulated=params.init_steps,   # t+n+1: the subkey register is read classically
        wall_time_s=time.perf_counter() - t0,
    )
    return result, mf


def _in_bound(ctx: AttackContext, params: CountingParams,
              estimates: dict[int, CountEstimate]) -> dict[int, bool]:
    """Whether each subkey's estimate is within ``counting_error_bound`` of
    its true right-pair count; the bound is computed once per class size."""
    counts = ctx.counts.tolist()
    bounds: dict[int, float] = {}
    hits = {}
    for x, est in estimates.items():
        m_true = counts[x]
        if (bound := bounds.get(m_true)) is None:
            bound = bounds[m_true] = counting_error_bound(m_true, params.num_pairs,
                                                          params.accuracy_bits)
        hits[x] = abs(est.m_estimate - m_true) <= bound
    return hits


def _bound_hit_rate(ctx: AttackContext, params: CountingParams, counter) -> float:
    """The share of the counter's estimates within their bound (``_in_bound``)."""
    hits = _in_bound(ctx, params, counter.estimates)
    return sum(hits.values()) / len(hits) if hits else 0.0


def run_classical_attack(config: AttackConfig, trial: int = 0, instance=None) -> AttackResult:
    """Exhaustive counting baseline on the same planted instance: the argmax
    of the context's right-pair counts, charged the K*N evaluations that
    counting them takes (the count itself is shared, and ``run_trials``
    times it as preparation)."""
    ctx, _, z = instance or plant_instance(config, trial)
    t0 = time.perf_counter()
    winner, table = classical_attack(ctx.pairs, ctx.cipher, ctx.characteristic,
                                     counts=ctx.counts)
    evaluations = table.counts.size * ctx.pairs.num_pairs  # exactly K*N
    return AttackResult(
        trial=trial, mode="classical", recovered_subkey=winner, ground_truth=z,
        steps_counting=evaluations,
        wall_time_s=time.perf_counter() - t0,
    )


def run_trials(config: AttackConfig):
    """All trials of the configured mode; returns (results, trace rows). Each
    trial's instance is planted once, for both modes under ``both``, and its
    preparation time is reported by the trial's first mode. Preparation
    includes the instance's right-pair counts, which both modes read, so
    neither mode's wall time holds the count."""
    results: list[AttackResult] = []
    trace_rows: list[dict] = []
    for trial in range(config.trials):
        prep0 = time.perf_counter()
        instance = plant_instance(config, trial)
        instance[0].counts   # counted now (once per context), outside both modes' timers
        prep_s, first = time.perf_counter() - prep0, len(results)
        if config.mode in ("classical", "both"):
            results.append(run_classical_attack(config, trial, instance))
        if config.mode in ("quantum", "both"):
            res, mf = run_quantum_attack(config, trial, instance)
            results.append(res)
            for row in mf.trace:
                trace_rows.append({"trial": trial, **row})
        results[first].prep_time_s = prep_s
    return results, trace_rows


# ---- counting report ----------------------------------------------------


def run_count_report(config: AttackConfig, trial: int = 0) -> list[dict]:
    """One counting estimate per candidate subkey on the planted instance."""
    ctx, _, _ = plant_instance(config, trial)
    counter = QuantumCounter(ctx, config.class_ladders, _trial_rng(config.master_seed, trial))
    counter.count_all()   # subkeys in ascending order
    counts = ctx.counts.tolist()
    in_bound = _in_bound(ctx, counter.params, counter.estimates)
    return [{"x_hex": f"{x:02x}", "b": est.raw_outcome, "theta": est.theta,
             "m_est": est.m_estimate, "right_pairs": est.right_pairs,
             "m_true": counts[x], "in_bound": in_bound[x]}
            for x, est in counter.estimates.items()]


# ---- scaling report ------------------------------------------------------


def run_scaling_report(config: AttackConfig, search_bits=(4, 6, 8),
                       counting_index_bits=(4, 6, 8), seeds: int = 50) -> list[dict]:
    """Measured step counts per stage across problem sizes.

    The search sweep injects exact count tables (a seeded permutation with a
    planted maximum) so the K sizes are not tied to S-box boundaries; the
    counting sweep draws subkey 0's estimate from a counter on each planted
    instance, as the attack draws it.
    """
    if seeds < 1:
        raise ConfigError("at least one seed")
    if not all(1 <= k <= DEFAULT_MAX_QUBITS for k in search_bits):
        raise ConfigError(f"search bits {list(search_bits)} outside [1, {DEFAULT_MAX_QUBITS}]")
    # validate and plant every counting instance before the search sweep spends any time
    subs = [replace(config, index_bits=n, trials=1) for n in counting_index_bits]
    contexts = [plant_instance(sub, 0)[0] for sub in subs]
    rows: list[dict] = []
    prev_mean = None
    for k in search_bits:
        K = 1 << k
        totals = []
        for seed in range(seeds):
            rng = _trial_rng(config.master_seed, seed, purpose=2 + k)
            counts = rng.permutation(K)
            counter = ExactCounter(counts)
            mf = find_max_subkey(counter, k, MaxFindingConfig(config.confidence), rng)
            # growth-law measurand: search work until the maximum was reached;
            # the budget tail spent confirming it is excluded
            totals.append(mf.search_steps_to_max)
        mean = float(np.mean(totals))
        rows.append({
            "sweep": "search", "size": K, "index_bits": "", "phase_bits": "",
            "mean_search_steps": round(mean, 4),
            "ratio_vs_prev": round(mean / prev_mean, 4) if prev_mean else "",
            "g_gates": "", "g_gates_expected": "", "qft_gates": "", "seeds": seeds,
        })
        prev_mean = mean
    for sub, ctx in zip(subs, contexts):
        counter = QuantumCounter(ctx, sub.class_ladders,
                                 _trial_rng(config.master_seed, 0, purpose=99))
        params = counter.params
        counter.count(0)
        est = counter.estimates[0]
        rows.append({
            "sweep": "counting", "size": "", "index_bits": sub.index_bits,
            "phase_bits": params.phase_bits, "mean_search_steps": "",
            "ratio_vs_prev": "",
            "g_gates": est.g_gate_count,
            "g_gates_expected": (1 << params.phase_bits) - 1,
            "qft_gates": est.qft_gate_count, "seeds": 1,
        })
    return rows


# ---- CSV emission --------------------------------------------------------

RESULTS_FIELDS = [
    "trial", "mode", "recovered_subkey_hex", "ground_truth_hex", "success",
    "steps_init", "steps_counting", "steps_oracle", "steps_search",
    "steps_observe", "steps_total", "counting_invocations", "g_gates_total",
    "bound_hit_rate", "loop_iterations", "budget_spent", "budget_limit",
    "qubits_model", "qubits_simulated",
]

TRACE_FIELDS = ["trial", "loop_iter", "y", "r_y", "y_prime", "r_y_prime",
                "accepted", "steps_spent"]

COUNTS_FIELDS = ["x_hex", "b", "theta", "m_est", "right_pairs", "m_true", "in_bound"]

SCALE_FIELDS = ["sweep", "size", "index_bits", "phase_bits", "mean_search_steps",
                "ratio_vs_prev", "g_gates", "g_gates_expected", "qft_gates", "seeds"]


def _fmt(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return f"{value:.10g}"
    if value is None:
        return ""
    return value


def _write_csv(path, schema: str, fields: list[str], rows: list[dict]):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={schema}\n")
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        for row in rows:
            w.writerow({k: _fmt(v) for k, v in row.items()})


def write_results_csv(path, results: list[AttackResult]):
    rows = []
    for r in results:
        row = {f: getattr(r, f) for f in RESULTS_FIELDS if not f.endswith("_hex")}
        row["recovered_subkey_hex"] = f"{r.recovered_subkey:02x}"
        row["ground_truth_hex"] = f"{r.ground_truth:02x}"
        rows.append(row)
    _write_csv(path, "results-v1", RESULTS_FIELDS, rows)


def write_trace_csv(path, trace_rows: list[dict]):
    _write_csv(path, "trace-v1", TRACE_FIELDS, trace_rows)


def write_counts_csv(path, rows: list[dict]):
    _write_csv(path, "counts-v1", COUNTS_FIELDS, rows)


def write_scale_csv(path, rows: list[dict]):
    _write_csv(path, "scale-v1", SCALE_FIELDS, rows)

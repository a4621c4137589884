"""Span recorder for the traced benchmark run, and the wrappers that feed it.

The wrappers are put in place from the benchmark around the public functions
of the qdca layers (and the StateVector gate methods), only while a traced
trial runs, and taken out again after it. The program under test is not
edited: every module-level name bound to a wrapped function is rebound, so
calls between layers (``from .x import f`` bindings included) are seen.

Each span has a name, start, end, parent and trial id. The first
``capacity`` spans are kept in memory and written to spans.csv at the end;
every span, kept or not, is added to the per-layer totals when it closes. A
span's self time is its duration minus the time its direct child spans cover
(calls nest synchronously, so children never overlap). A layer's time counts
only spans with no ancestor in the same layer, so nested calls are not
counted twice.
"""

from __future__ import annotations

import csv
import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("toy_cipher", "classical_dca", "statevector", "quantum_counting",
          "max_finding", "attack")

# Public methods traced besides the module-level functions. The counter
# ``count`` methods give the memo hit ratio; ``marked_table`` the table builds.
METHODS = {
    "toy_cipher": {"AttackContext": ("marked_table",)},
    "statevector": {"StateVector": ("apply_phase_oracle", "apply_conditional_phase",
                                    "apply_diffusion", "apply_controlled_unitary_power",
                                    "forward_qft", "inverse_qft", "measure",
                                    "probabilities")},
    "max_finding": {"QuantumCounter": ("count",), "ExactCounter": ("count",)},
}

PLANT = "attack.plant_instance"
TABLE = "toy_cipher.right_pair_table"


class Recorder:
    """Spans, per-layer totals and boundary counts of one traced run.

    ``capacity`` bounds the spans kept for spans.csv: a search trial opens
    about 9000 (three per Grover step), so keeping all of them would mean
    hundreds of MB per run.
    """

    def __init__(self, capacity: int = 250_000):
        self.capacity = capacity
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.spans = 0
        self.calls: Counter = Counter()
        self.fn_s: Counter = Counter()      # spans with no ancestor of the same function
        self.layer_s: Counter = Counter()   # spans with no ancestor in the same layer
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.state_bytes = 0                # largest statevector seen, 16 * 2**q
        self.trial_id = -1
        self._stack: list[list] = []
        self._above: dict[tuple, frozenset] = {}
        self.t0 = time.perf_counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str):
        layer = name.split(".")[0]
        if self._stack:
            p_name, p_layer, _, p_above, _, p_idx = self._stack[-1]
            key = (p_above, p_name)
            if key not in self._above:
                self._above[key] = p_above | {p_name, p_layer + ".*"}
            above = self._above[key]
        else:
            above, p_idx = frozenset(), -1
        idx = -1
        if len(self.name) < self.capacity:
            idx = len(self.name)
            self.name.append(self._name_id(name))
            self.parent.append(p_idx)
            self.trial.append(self.trial_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.self_time.append(0.0)
        entry = [name, layer, 0.0, above, 0.0, idx]
        self._stack.append(entry)
        entry[2] = time.perf_counter()
        return entry

    def close(self, entry):
        end = time.perf_counter()
        if self._stack.pop() is not entry:
            raise RuntimeError("spans closed out of order")
        name, layer, start, above, child, idx = entry
        dur = end - start
        self.spans += 1
        self.calls[name] += 1
        self.self_s[layer] += dur - child
        if name not in above:
            self.fn_s[name] += dur
        if layer + ".*" not in above:
            self.layer_s[layer] += dur
        if self._stack:
            parent = self._stack[-1]
            parent[4] += dur
            if parent[0] == PLANT and layer == "toy_cipher":
                self.counts["prep_s"] += dur
        if name == TABLE and PLANT not in above:   # table builds outside preparation
            self.counts["table_s"] += dur
            self.counts["tables"] += 1
        if idx >= 0:
            self.start[idx], self.end[idx], self.self_time[idx] = start, end, dur - child

    def write(self, out_dir: Path):
        with open(out_dir / "spans.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "parent", "trial", "start_s", "end_s", "self_s"])
            for i in range(len(self.name)):
                start, end = self.start[i] - self.t0, self.end[i] - self.t0
                w.writerow([i, self.names[self.name[i]], self.parent[i], self.trial[i],
                            f"{start:.9f}", f"{end:.9f}", f"{self.self_time[i]:.9f}"])


# ---- counts taken at layer boundaries -----------------------------------
# name -> (before(args) -> value, after(rec, args, result, before_value))

def _memo_before(args):
    counter, x = args[0], args[1]
    return x in counter.estimates


def _memo_after(rec, args, out, hit):
    rec.counts["memo_hits"] += hit


def _qft_before(args):
    return args[0].counters.qft_gates


def _qft_after(rec, args, out, before):
    rec.counts["qft_gates"] += args[0].counters.qft_gates - before


def _count_after(rec, args, out, _):
    rec.counts["g_gates"] += out.g_gate_count
    rec.counts["est_qft_gates"] += out.qft_gate_count


def _search_after(rec, args, out, _):
    rec.counts["search_iterations"] += out.iterations
    rec.counts["measurements"] += out.measurements


def _find_after(rec, args, out, _):
    rec.counts["loop_iterations"] += out.loop_iterations
    rec.counts["accepted"] += len(out.threshold.history) - 1
    rec.counts["budget_spent"] += out.budget.spent
    rec.counts["budget_limit"] += out.budget.limit


def _classical_after(rec, args, out, _):
    pairs, table = args[0], out[1]
    rec.counts["evaluations"] += table.counts.size * pairs.num_pairs


def _csv_after(rec, args, out, _):
    rec.counts["csv_bytes"] += Path(args[0]).stat().st_size


HOOKS = {
    "max_finding.QuantumCounter.count": (_memo_before, _memo_after),
    "statevector.StateVector.inverse_qft": (_qft_before, _qft_after),
    "statevector.StateVector.forward_qft": (_qft_before, _qft_after),
    "quantum_counting.count_marked": (None, _count_after),
    "max_finding.grover_search_marked": (None, _search_after),
    "max_finding.find_max_subkey": (None, _find_after),
    "classical_dca.classical_attack": (None, _classical_after),
    "attack.write_results_csv": (None, _csv_after),
    "attack.write_trace_csv": (None, _csv_after),
}


def _wrap(rec: Recorder, name: str, fn, statevector: bool):
    before, after = HOOKS.get(name, (None, None))

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if statevector:
            rec.state_bytes = max(rec.state_bytes, 16 << args[0].num_qubits)
        pre = before(args) if before else None
        entry = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(entry)
        if after:
            after(rec, args, out, pre)
        return out

    return traced


class Patch:
    """The wrappers of every traced function; in place only inside ``with``."""

    def __init__(self, rec: Recorder, modules: dict):
        self.swaps = []   # (owner, attribute, original, wrapper)
        functions = []
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    functions.append((f"{layer}.{attr}", obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self.swaps.append((cls, meth, orig, _wrap(
                        rec, f"{layer}.{cls_name}.{meth}", orig, layer == "statevector")))
        namespaces = [m for name, m in sys.modules.items()
                      if name == "qdca" or name.startswith("qdca.")]
        for name, fn in functions:
            wrapper = _wrap(rec, name, fn, False)
            for ns in namespaces:
                for attr, obj in vars(ns).items():
                    if obj is fn:
                        self.swaps.append((ns, attr, fn, wrapper))

    def __enter__(self):
        for owner, attr, _, wrapper in self.swaps:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig, _ in reversed(self.swaps):
            setattr(owner, attr, orig)


# ---- per-layer metrics ---------------------------------------------------


def layer_metrics(rec: Recorder, trials: int) -> dict[str, float]:
    """Per-layer times and counts, per traced trial (see README.md)."""
    c, calls, fn_s = rec.counts, rec.calls, rec.fn_s
    per = 1.0 / trials
    qc_calls = calls["max_finding.QuantumCounter.count"]
    sv = "statevector.StateVector."
    return {
        "toy_cipher.prep_s": c["prep_s"] * per,
        "toy_cipher.marked_table_s": c["table_s"] * per,
        "toy_cipher.marked_tables": c["tables"] * per,
        "classical_dca.attack_s": rec.layer_s["classical_dca"] * per,
        "classical_dca.evaluations": c["evaluations"] * per,
        "statevector.oracle_calls": calls[sv + "apply_phase_oracle"] * per,
        "statevector.oracle_s": fn_s[sv + "apply_phase_oracle"] * per,
        "statevector.diffusion_calls": calls[sv + "apply_diffusion"] * per,
        "statevector.diffusion_s": fn_s[sv + "apply_diffusion"] * per,
        "statevector.qft_gates": c["qft_gates"] * per,
        "statevector.qft_s": (fn_s[sv + "inverse_qft"] + fn_s[sv + "forward_qft"]) * per,
        "statevector.measure_calls": calls[sv + "measure"] * per,
        "statevector.measure_s": fn_s[sv + "measure"] * per,
        "statevector.state_bytes": float(rec.state_bytes),
        "quantum_counting.count_s": rec.layer_s["quantum_counting"] * per,
        "quantum_counting.self_s": rec.self_s["quantum_counting"] * per,
        "quantum_counting.runs": (calls["quantum_counting.count_marked"]
                                  + calls["quantum_counting.counting_distribution"]) * per,
        "quantum_counting.g_gates": c["g_gates"] * per,
        "quantum_counting.us_per_g_gate": (
            rec.layer_s["quantum_counting"] / c["g_gates"] * 1e6 if c["g_gates"] else 0.0),
        "quantum_counting.memo_hit_ratio": c["memo_hits"] / qc_calls if qc_calls else 0.0,
        "max_finding.find_s": fn_s["max_finding.find_max_subkey"] * per,
        "max_finding.self_s": rec.self_s["max_finding"] * per,
        "max_finding.search_s": fn_s["max_finding.grover_search_marked"] * per,
        "max_finding.search_calls": calls["max_finding.grover_search_marked"] * per,
        "max_finding.search_iterations": c["search_iterations"] * per,
        "max_finding.measurements": c["measurements"] * per,
        "max_finding.loop_iterations": c["loop_iterations"] * per,
        "max_finding.accept_ratio": (c["accepted"] / c["loop_iterations"]
                                     if c["loop_iterations"] else 0.0),
        "max_finding.budget_used": (c["budget_spent"] / c["budget_limit"]
                                    if c["budget_limit"] else 0.0),
        "attack.trial_s": fn_s["bench.trial"] * per,
        "attack.self_s": rec.self_s["attack"] * per,
        "attack.csv_s": (fn_s["attack.write_results_csv"]
                         + fn_s["attack.write_trace_csv"]) * per,
        "attack.csv_bytes": c["csv_bytes"] * per,
    }


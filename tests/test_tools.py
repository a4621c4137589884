import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qdca.quantum_counting import grover_ladder, phase_distribution
from qdca.statevector import StateVector
from qdca.toy_cipher import right_pair_counts, right_pair_table

PEAK_RSS = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"


def _run(limit_mib, code):
    return subprocess.run([sys.executable, str(PEAK_RSS), str(limit_mib),
                           sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("limit, code, status", [
    (1024, "pass", 0),
    (32, "block = b'x' * (64 << 20)", 1),   # 64 MiB written: above the limit
    (1024, "raise SystemExit(3)", 3),        # the command's own failure wins
    # a limit that is not a positive finite number: the usage, and the
    # command (which would exit 3) never runs
    *[(bad, "raise SystemExit(3)", 2) for bad in ("abc", "", "0", "-5", "nan", "inf")],
])
def test_peak_rss_wrapper(limit, code, status):
    out = _run(limit, code)
    assert out.returncode == status
    if status == 2:
        assert out.stdout == "" and "LIMIT_MIB COMMAND" in out.stderr
    else:
        assert f"(limit {limit} MiB)" in out.stdout


PROFILE_TRIAL = PEAK_RSS.parent / "profile_trial.py"


def _profile_trial(*args):
    # the tool imports qdca from the checkout's src/ itself, as the benchmark does
    out = subprocess.run([sys.executable, str(PROFILE_TRIAL), *args],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("total ") and "tottime" in lines[1]
    return lines[2:]


def _profiled_calls(*args):
    """ncalls by "(function)", summed over same-named functions, of every
    function profiled, so the calls are read whatever their rank."""
    rows = _profile_trial(*args, "--top", "1000")
    assert len(rows) < 1000
    calls = {}
    for row in rows:
        if named := re.search(r"\(\w+\)$", row):
            calls[named[0]] = calls.get(named[0], 0) + int(row.split()[4])
    return calls


def test_profile_trial_reports_the_counting_kernel():
    calls = _profiled_calls("--trials", "2")
    # the ladder and each class size's transform run once per run, in the
    # warm-up trial; each profiled trial draws its 16 estimates from memo rows.
    # The names are read off the functions, so a rename cannot empty the check
    for kernel in (grover_ladder, phase_distribution, StateVector._hadamard):
        assert f"({kernel.__name__})" not in calls
    assert calls["(count_marked)"] == 32
    # --top truncates the list to the functions with the most own time
    assert len(_profile_trial("--trials", "1", "--top", "5")) == 5


def test_profile_trial_charges_each_search_call_once():
    # search-k8-exact trials: a marking search call charges its rounds in one
    # try_charge, so the charges are fewer than the rounds' draws
    calls = _profiled_calls("--workload", "search-k8-exact", "--trials", "2")
    assert calls["(find_max_subkey)"] == 2
    assert calls["(try_charge)"] < calls["(draw_from_cdf)"]


def test_profile_trial_counts_each_random_key_without_a_table():
    # classical-random-keys trials: each draws a key and counts its right
    # pairs once, with no (K, 2N) table; the warm-up trial is not profiled
    calls = _profiled_calls("--workload", "classical-random-keys", "--trials", "3")
    assert calls["(run_classical_attack)"] == 3
    assert calls[f"({right_pair_counts.__name__})"] == 3
    assert f"({right_pair_table.__name__})" not in calls


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  PEAK_RSS.parent / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned_runs(parent, change, rss=(40.0, 40.0)):
    """Runs of alternating pairs: trial_s_cal and peak_rss_mb per side."""
    return [{"side": side, "pair": i, "failed": 0,
             "all_metrics": {"trial_s_cal": value, "peak_rss_mb": rss[side == "change"]}}
            for i, (p, c) in enumerate(zip(parent, change))
            for side, value in (("parent", p), ("change", c))]


def test_bench_pairs_quartiles_and_pairwise_medians():
    bp = _bench_pairs()
    assert bp.quartiles([4.0, 1.0, 3.0, 2.0]) == {"p25": 1.75, "median": 2.5, "p75": 3.25,
                                                  "iqr": 1.5}
    # lower is better: one win, one tie, one loss; per-pair differences 1, 0, -1
    pw = bp.pairwise([10.0, 10.0, 10.0], [9.0, 10.0, 11.0], "lower")
    assert (pw["change_wins"], pw["ties"], pw["pairs"]) == (1, 1, 3)
    assert pw["median_change_minus_parent"] == 0.0 and pw["relative"] == 0.0
    # higher is better: the same numbers win the other pair
    assert bp.pairwise([10.0, 10.0, 10.0], [9.0, 10.0, 11.0], "higher")["change_wins"] == 1
    assert bp.pairwise([2.0, 4.0], [1.0, 1.0], "lower")["median_change_minus_parent"] == -2.0
    with pytest.raises(ValueError):
        bp.pairwise([1.0], [1.0, 2.0], "lower")


def test_bench_pairs_summary_claim_and_bounds():
    bp = _bench_pairs()
    parent = [1.70, 1.72, 1.68, 1.75, 1.71, 1.69, 1.74, 1.73, 1.70, 1.72]
    change = [1.40, 1.42, 1.69, 1.41, 1.39, 1.43, 1.40, 1.38, 1.44, 1.41]   # loses pair 2
    directions = {"trial_s_cal": "lower", "peak_rss_mb": "lower", "absent": "lower"}
    w = {"workload": "w", "runs": _canned_runs(parent, change, rss=(40.0, 40.2)),
         **bp.summarize_workload(_canned_runs(parent, change, rss=(40.0, 40.2)), directions)}
    assert set(w["summary"]["parent"]) == {"trial_s_cal", "peak_rss_mb"}   # absent: left out
    assert w["summary"]["change"]["trial_s_cal"]["median"] == pytest.approx(1.41)
    assert w["pairwise"]["trial_s_cal"]["change_wins"] == 9
    assert w["pairwise"]["peak_rss_mb"]["change_wins"] == 0
    claim = bp.claim_check(w, "trial_s_cal", "lower")
    assert claim["met"] and claim["change_wins"] == 9 and claim["pairs"] == 10
    assert claim["relative"] == pytest.approx(1.41 / 1.715 - 1)
    # nine pairs, every one won, are too few to meet a claim
    few = {"workload": "w", **bp.summarize_workload(
        _canned_runs(parent[:9], [1.40] * 9), directions)}
    assert few["pairwise"]["trial_s_cal"]["change_wins"] == 9 == bp.PAIRS - 1
    assert not bp.claim_check(few, "trial_s_cal", "lower")["met"]
    # one more lost pair and the claim fails, though the medians stay apart
    change[5] = 1.80
    w.update(bp.summarize_workload(_canned_runs(parent, change), directions))
    assert not bp.claim_check(w, "trial_s_cal", "lower")["met"]
    bounds = [{"name": "trial_s_cal", "better": "lower", "bound": 0.2},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.001},
              {"name": "setup_s", "better": "lower", "bound": 0.25}]
    w.update(bp.summarize_workload(_canned_runs(parent, change, rss=(40.0, 40.2)), directions))
    rows = {r["metric"]: r for r in bp.no_regression([w], bounds)}
    assert set(rows) == {"trial_s_cal", "peak_rss_mb"}   # setup_s was not measured
    assert rows["trial_s_cal"]["within_bound"] and rows["trial_s_cal"]["relative"] < 0
    assert not rows["peak_rss_mb"]["within_bound"]   # +0.5% against a 0.1% bound
    assert rows["peak_rss_mb"]["failed"] == {"parent": 0, "change": 0}
    # every pair needs both sides
    with pytest.raises(ValueError):
        bp.summarize_workload(_canned_runs(parent, change)[:-1], directions)


TRACING = PEAK_RSS.parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists_where_the_tracer_looks():
    # the benchmark's tracer wraps each METHODS entry found in its class's own
    # __dict__, and fires a hook (or counts preparation and tables) only on a
    # function defined in its layer's module: a deleted, renamed or moved name
    # breaks every traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    layers = {layer: importlib.import_module(f"qdca.{layer}") for layer in tracing.LAYERS}
    for layer, classes in tracing.METHODS.items():
        for cls, methods in classes.items():
            for meth in methods:
                assert meth in vars(getattr(layers[layer], cls)), f"{layer}.{cls}.{meth}"
    for name in [*tracing.HOOKS, tracing.PLANT, tracing.TABLE]:
        layer, *path = name.split(".")
        obj = layers[layer]
        for attr in path:
            obj = getattr(obj, attr)
        assert inspect.isfunction(obj) and obj.__module__ == f"qdca.{layer}", name

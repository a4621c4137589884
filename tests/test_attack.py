import dataclasses
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import qdca.acceptance
import qdca.attack
import qdca.classical_dca
import qdca.max_finding
import qdca.quantum_counting
import qdca.toy_cipher
from qdca.attack import (AttackConfig, ConfigError, plant_instance,
                         run_classical_attack, run_count_report,
                         run_quantum_attack, run_scaling_report, run_trials,
                         write_counts_csv, write_results_csv, write_scale_csv,
                         write_trace_csv)
from qdca.classical_dca import count_table
from qdca.cli import _config_from_args, build_parser, main
from qdca.quantum_counting import qft_gate_budget
from qdca.statevector import StateVector
from qdca.toy_cipher import ToyCipher

# the stock characteristic (P' = 0x0A, delta = 0x02) written out as a config doc
STOCK_DOC = Path(__file__).parent / "fixtures" / "stock_characteristic.json"
# the same doc stating p = 1/16, the measured p at key 0x09, and stating p = 1/2:
# p is measured, never a document key, so both are refused as unknown keys
STATED_P_DOC = STOCK_DOC.with_name("stated_probability.json")
WRONG_P_DOC = STOCK_DOC.with_name("wrong_probability.json")
# the golden k = 8 doc: P' = 01, delta = 11
K8_DOC = STOCK_DOC.with_name("k8_characteristic.json")
# the 16-bit block's committed instances (cipher_doc and characteristic_doc)
W16_K4 = json.loads(STOCK_DOC.with_name("w16_k4_characteristic.json").read_text())
W16_K8 = json.loads(STOCK_DOC.with_name("w16_k8_characteristic.json").read_text())


# ---- configuration ---------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(mode="psychic"),
    dict(subkey_bits=5),
    dict(index_bits=0),
    dict(index_bits=9),
    dict(planted_key=300),
    dict(trials=0),
    dict(confidence=0),
    dict(epsilon=0.7),
    dict(index_bits=True),    # a bool is not an integer field
    dict(planted_key=-1),
    dict(accuracy_bits=20),   # t = 23: the lane record is t+1+k = 28 qubits
    dict(subkey_bits=8, **json.loads(STOCK_DOC.read_text())),   # a k = 4 characteristic
    dict(index_bits=17, cipher_doc={"block_width": 16}),
    # k is delta's, and three active S-boxes give k = 12
    dict(planted_key=None, cipher_doc={"block_width": 12},
         characteristic_doc={"output_diff": "222"}),
])
def test_config_validation(bad):
    with pytest.raises(ConfigError):
        AttackConfig(**bad)


@pytest.mark.parametrize("fields,width", [
    (dict(subkey_bits=8, index_bits=4, accuracy_bits=14), 26),   # t = 17
    (dict(index_bits=2, accuracy_bits=18), 26),                  # t = 21
])
def test_config_refuses_lanes_above_the_qubit_limit(fields, width):
    with pytest.raises(ConfigError, match=f"as lanes needs t\\+1\\+k = {width} qubits"):
        AttackConfig(**fields)
    # the widest accepted stack: t = 15 and k = 8 give t+1+k = 24
    AttackConfig(subkey_bits=8, index_bits=8, accuracy_bits=12,
                 **json.loads(K8_DOC.read_text()))


@pytest.mark.parametrize("fields", [
    dict(index_bits=8, accuracy_bits=13),                   # t = 16: t+1+k = 21
    dict(index_bits=16, **W16_K4),                          # t = 12: t+1+k = 17
    dict(subkey_bits=8, index_bits=16, accuracy_bits=12,    # t = 15: t+1+k = 24
         **W16_K8),
])
def test_config_accepts_counting_circuits_wider_than_the_qubit_limit(fields):
    # no array spans the t+n+1-qubit circuit; only the lane record is bounded
    params = AttackConfig(**fields).counting_params()
    assert params.phase_bits + params.index_bits + 1 > 24


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        AttackConfig.from_dict({"subkey_bits": 4, "phase_of_moon": "full"})
    # m0 is always derived from the counter; it has no override
    with pytest.raises(ConfigError, match=r"unknown config keys: \['expected_steps'\]"):
        AttackConfig.from_dict({"expected_steps": 1000})
    # in a document, a misspelled key would leave the stock P' = 0x0A, delta = 0x02
    # or the 8-bit block in force
    with pytest.raises(ConfigError) as err:
        AttackConfig(characteristic_doc={"plaintext_dif": "01", "outptu_diff": "11"})
    assert str(err.value) == "unknown characteristic_doc keys: ['outptu_diff', 'plaintext_dif']"
    with pytest.raises(ConfigError) as err:
        AttackConfig(cipher_doc={"block_widht": 16})
    assert str(err.value) == "unknown cipher_doc keys: ['block_widht']"
    # p is only ever measured, and round key r is always the master key rotated by r
    with pytest.raises(ConfigError) as err:
        AttackConfig(**json.loads(STATED_P_DOC.read_text()))
    assert str(err.value) == "unknown characteristic_doc keys: ['probability']"
    with pytest.raises(ConfigError) as err:
        AttackConfig(planted_key=0, cipher_doc={"key_schedule": "zero"})
    assert str(err.value) == "unknown cipher_doc keys: ['key_schedule']"


# document fields that took a float, a bool or a string as an integer, and the
# refusal of each, naming the field
NON_INTEGERS = [
    (dict(characteristic_doc={"plaintext_diff": 10.7, "output_diff": 2}),
     "plaintext_diff must be a hex string or an integer, got 10.7"),
    (dict(characteristic_doc={"plaintext_diff": True}),
     "plaintext_diff must be a hex string or an integer, got True"),
    (dict(characteristic_doc={"output_diff": 2.9}),
     "output_diff must be a hex string or an integer, got 2.9"),
    # the active S-boxes are delta's nonzero nibbles, not a document key
    (dict(characteristic_doc={"active_sboxes": "0"}),
     "unknown characteristic_doc keys: ['active_sboxes']"),
    (dict(characteristic_doc={"active_sboxes": [0.0]}),
     "unknown characteristic_doc keys: ['active_sboxes']"),
    (dict(cipher_doc={"rounds": True}), "rounds must be an integer, got True"),
    (dict(cipher_doc={"block_width": 8.0}), "block_width must be an integer, got 8.0"),
]


@pytest.mark.parametrize("fields,message", NON_INTEGERS)
def test_config_documents_take_only_integers(fields, message):
    with pytest.raises(ConfigError) as err:
        AttackConfig(**fields)
    assert str(err.value) == message


def test_config_documents_take_hex_strings_and_integers():
    as_hex = AttackConfig(characteristic_doc={"plaintext_diff": "0A", "output_diff": "02"})
    as_int = AttackConfig(characteristic_doc={"plaintext_diff": 10, "output_diff": 2})
    assert as_hex.planted_instance[0].characteristic == as_int.planted_instance[0].characteristic
    assert AttackConfig(cipher_doc={"rounds": 4, "block_width": 8}).cipher == ToyCipher()


def test_config_k8_requires_characteristic():
    with pytest.raises(ConfigError, match="subkey_bits=8, but expected difference 0x02 "
                                          r"gives k = 4 \(4 bits per active S-box\)"):
        AttackConfig(subkey_bits=8)
    cfg = AttackConfig(subkey_bits=8, planted_key=0x7D, characteristic_doc={
        "plaintext_diff": "10", "output_diff": "28"})
    ctx, _, z = plant_instance(cfg, 0)
    assert ctx.subkey_bits == 8
    assert 0 <= z < 256


# planted configs whose characteristic is unusable, and the refusal of each
UNUSABLE = [
    (dict(planted_key=0x04),
     "planted key 0x04: characteristic has zero probability for this key"),
    (dict(subkey_bits=8),
     "subkey_bits=8, but expected difference 0x02 gives k = 4 (4 bits per active S-box)"),
    (dict(characteristic_doc={"output_diff": "20", "active_sboxes": [0]}),
     "unknown characteristic_doc keys: ['active_sboxes']"),
    # expected differences that leave every S-box of the 8-bit block quiet
    (dict(characteristic_doc={"output_diff": "00"}),
     "expected difference 0x00 activates no S-box"),
    (dict(characteristic_doc={"output_diff": "100"}),
     "expected difference out of range for 8-bit block"),
    # a k that delta does not give, also under random keys
    (dict(subkey_bits=4, planted_key=None, **json.loads(K8_DOC.read_text())),
     "subkey_bits=4, but expected difference 0x11 gives k = 8 (4 bits per active S-box)"),
]


@pytest.mark.parametrize("fields,message", UNUSABLE)
def test_config_refuses_an_unusable_characteristic_when_built(fields, message):
    with pytest.raises(ConfigError) as err:
        AttackConfig(**fields)
    assert str(err.value) == message


@pytest.mark.parametrize("fields,k", [
    (dict(), 4),
    (json.loads(K8_DOC.read_text()), 8),
    (dict(characteristic_doc={"plaintext_diff": "01", "output_diff": "11"}), 8),
    (W16_K4, 4),
    (W16_K8, 8),
    (dict(planted_key=None, characteristic_doc={"output_diff": "20"}), 4),
])
def test_subkey_bits_default_to_four_per_active_sbox(fields, k):
    # k is delta's: 4 bits per nonzero nibble of the expected difference
    cfg = AttackConfig(**fields)
    assert cfg.subkey_bits == k
    assert cfg == AttackConfig(subkey_bits=k, **fields)
    if cfg.planted_key is not None:
        assert cfg.planted_instance[0].subkey_bits == k


def test_config_is_frozen():
    cfg = AttackConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.trials = 5


def test_derived_counting_params():
    cfg = AttackConfig(index_bits=6)
    params = cfg.counting_params()
    assert params.accuracy_bits == 4 and params.phase_bits == 7


# ---- drivers ------------------------------------------------------------------


def _count_calls(monkeypatch, module, name) -> list:
    """Record every call of ``module.name`` from now on."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_planted_instance_is_built_once_per_config():
    cfg = AttackConfig(trials=3)
    first = plant_instance(cfg, 0)
    assert all(plant_instance(cfg, trial) is first for trial in range(1, 3))


def test_planted_run_builds_cipher_and_characteristic_once(monkeypatch):
    ciphers = _count_calls(monkeypatch, qdca.attack, "cipher_from_dict")
    parsed = _count_calls(monkeypatch, qdca.attack, "differential_from_dict")
    measured = _count_calls(monkeypatch, qdca.toy_cipher, "measure_probability")
    results, _ = run_trials(AttackConfig(index_bits=5, trials=3, mode="both"))
    assert [r.mode for r in results] == ["classical", "quantum"] * 3
    assert len(ciphers) == len(parsed) == len(measured) == 1


def test_random_keys_build_the_cipher_once(monkeypatch):
    ciphers = _count_calls(monkeypatch, qdca.attack, "cipher_from_dict")
    parsed = _count_calls(monkeypatch, qdca.attack, "differential_from_dict")
    measured = _count_calls(monkeypatch, qdca.toy_cipher, "measure_probability")
    results, _ = run_trials(AttackConfig(index_bits=4, trials=4, planted_key=None,
                                         master_seed=2024, mode="classical",
                                         **json.loads(STOCK_DOC.read_text())))
    assert len(results) == 4
    # the doc is read once, when the config is built, for every drawn key
    assert len(ciphers) == len(parsed) == 1
    # one measurement per drawn key: trial 3 redraws a key without signal
    assert len(measured) == 5


def test_both_modes_share_each_trials_random_key_instance(monkeypatch):
    # under --random-keys a trial's key is drawn, measured and its table built
    # once, for both modes: as many measurements as one mode alone makes
    measured = {}
    for mode in ("classical", "quantum", "both"):
        calls = _count_calls(monkeypatch, qdca.toy_cipher, "measure_probability")
        results, _ = run_trials(AttackConfig(index_bits=4, trials=4, planted_key=None,
                                             master_seed=2024, mode=mode))
        measured[mode] = len(calls)
        monkeypatch.undo()
    assert measured == {"classical": 5, "quantum": 5, "both": 5}
    # the trial's first mode reports the preparation; the second is handed the instance
    assert [r.mode for r in results] == ["classical", "quantum"] * 4
    assert all(c.prep_time_s > q.prep_time_s for c, q in zip(results[::2], results[1::2]))


@pytest.mark.parametrize("planted_key, counted", [(0x09, 1), (None, 5)])
def test_both_modes_count_each_instance_once(monkeypatch, planted_key, counted):
    # the classical attack reads the context's counts: a planted key's are
    # counted once per config, a random key's once per trial, for both modes,
    # as the trial's preparation, before either mode's timer; neither mode
    # builds the (K, 2N) right-pair table
    counts = _count_calls(monkeypatch, qdca.toy_cipher, "right_pair_counts")
    tables = _count_calls(monkeypatch, qdca.toy_cipher, "right_pair_table")
    monkeypatch.setattr(qdca.classical_dca, "right_pair_table", qdca.toy_cipher.right_pair_table)
    counted_on_entry = []
    for name in ("run_classical_attack", "run_quantum_attack"):
        def entered(config, trial, instance, real=getattr(qdca.attack, name)):
            counted_on_entry.append("counts" in vars(instance[0]))
            return real(config, trial, instance)
        monkeypatch.setattr(qdca.attack, name, entered)
    cfg = AttackConfig(index_bits=6, trials=5, planted_key=planted_key, mode="both")
    results, _ = run_trials(cfg)
    assert [r.mode for r in results] == ["classical", "quantum"] * 5
    assert len(counts) == counted
    assert tables == []
    assert counted_on_entry == [True] * 10
    for r in results[::2]:
        ctx, _, _ = plant_instance(cfg, r.trial)
        assert r.recovered_subkey == count_table(ctx.pairs, ctx.cipher,
                                                 ctx.characteristic).winner()


@pytest.mark.parametrize("fields", [
    dict(),
    dict(subkey_bits=8, **json.loads(K8_DOC.read_text())),
    W16_K4,
    dict(subkey_bits=8, **W16_K8),
])
def test_an_instance_encrypts_its_codebook_once(monkeypatch, fields):
    # p and the N pairs are both read from one encryption of the codebook
    cfg = AttackConfig(planted_key=None, **fields)
    encryptions = _count_calls(monkeypatch, ToyCipher, "encrypt")
    ctx, key, z = cfg.instance(0x09)
    assert len(encryptions) == 1
    assert ctx.pairs.num_pairs == 1 << cfg.index_bits and ctx.characteristic.probability > 0
    assert (key, z) == (0x09, qdca.toy_cipher.true_subkey(cfg.cipher, 0x09, ctx.characteristic))


def test_each_class_size_ladder_runs_once_per_run(monkeypatch):
    # the planted key gives every trial the same three class sizes (0, 2, 8):
    # the config's memo runs their ladder once and transforms each size once,
    # both in trial 0, and every trial draws its own 16 estimates. Cold or
    # warm, the Fourier gates the estimates report sum to those counted at
    # the transform, the identity the benchmark's traced run checks
    ladders = _count_calls(monkeypatch, qdca.quantum_counting, "grover_ladder")
    take = _qft_accounting(monkeypatch)
    cfg = AttackConfig(subkey_bits=4, index_bits=6, planted_key=0x09, trials=2)
    for trial, qft_gates in ((0, 93), (1, 0)):
        res, _ = run_quantum_attack(cfg, trial)
        # 16 estimates of 2**7 - 1 G steps; qft_gate_budget(7) = 31 per size
        assert res.counting_invocations == 16 and res.g_gates_total == 2032
        assert take() == (qft_gates, qft_gates, 16)
        assert len(ladders) == 1
    assert len(ladders[0][0]) == 3
    assert sorted(cfg.class_ladders.rows) == [0, 2, 8]
    assert [row.qft_gates for row in cfg.class_ladders.rows.values()] == [0, 0, 0]


def _qft_accounting(monkeypatch):
    """Count, from now on, the QFT gates counted at ``StateVector.inverse_qft``
    and the estimates ``count_marked`` returns. The returned ``take()`` gives
    (gates counted, Fourier gates the estimates report, estimates) since the
    last take."""
    real_qft, real_count = StateVector.inverse_qft, qdca.max_finding.count_marked
    gates, estimates = [0], []

    def counted_qft(self, reg):
        before = self.counters.qft_gates
        real_qft(self, reg)
        gates[0] += self.counters.qft_gates - before

    def recorded_count(*args):
        estimates.append(real_count(*args))
        return estimates[-1]

    def take():
        out = gates[0], sum(e.qft_gate_count for e in estimates), len(estimates)
        gates[0] = 0
        estimates.clear()
        return out

    monkeypatch.setattr(StateVector, "inverse_qft", counted_qft)
    monkeypatch.setattr(qdca.max_finding, "count_marked", recorded_count)
    return take


def test_estimates_report_the_qft_gates_counted_at_the_gates_under_eviction(monkeypatch):
    # w16, k = 4, n = 14 under random keys (CI's peak-RSS run): new sizes each
    # trial, more than K = 16 in all, so the memo evicts and transforms again;
    # in every trial the gates reported still sum to the gates counted
    take = _qft_accounting(monkeypatch)
    cfg = AttackConfig(index_bits=14, planted_key=None, trials=30, master_seed=5303, **W16_K4)
    memo, seen, runs = cfg.class_ladders, set(), []
    for trial in range(cfg.trials):
        instance = plant_instance(cfg, trial)
        seen.update(instance[0].counts.tolist())
        run_quantum_attack(cfg, trial, instance)
        runs.append(take())
        assert len(memo.rows) <= 16 and all(r.qft_gates == 0 for r in memo.rows.values())
    budget = qft_gate_budget(cfg.counting_params().phase_bits)
    assert len(seen) > 16
    assert all(gates == reported and gates % budget == 0 and n == 16
               for gates, reported, n in runs)
    # trials after the first transform sizes the memo lacks, or had evicted
    assert sum(gates for gates, _, _ in runs[1:]) > 0


def test_each_config_owns_its_ladder_memo():
    a = AttackConfig(subkey_bits=4, index_bits=6, trials=1)
    b = AttackConfig(subkey_bits=4, index_bits=6, trials=1)
    assert a == b and a.class_ladders is a.class_ladders
    assert a.class_ladders is not b.class_ladders
    assert dataclasses.replace(a).class_ladders is not a.class_ladders
    assert a.class_ladders.params == a.counting_params()
    run_quantum_attack(a, 0)
    assert a.class_ladders.rows and not b.class_ladders.rows


def test_the_ladder_memo_holds_at_most_k_columns_under_random_keys():
    # w16, k = 4, n = 14: random keys bring 1 to 9 class sizes each and more
    # than 16 over these trials, so the memo must evict to stay within K = 16
    cfg = AttackConfig(index_bits=14, planted_key=None, trials=12, **W16_K4)
    memo, seen = cfg.class_ladders, set()
    for trial in range(cfg.trials):
        instance = plant_instance(cfg, trial)
        seen.update(instance[0].counts.tolist())
        run_quantum_attack(cfg, trial, instance)
        assert len(memo.rows) <= 16
    assert len(seen) > 16


def test_quantum_and_classical_agree_on_seed_42():
    cfg = AttackConfig(subkey_bits=4, index_bits=6, master_seed=42, trials=1)
    quantum, _ = run_quantum_attack(cfg, 0)
    classical = run_classical_attack(cfg, 0)
    assert quantum.success == classical.success
    assert quantum.success and classical.success


def test_classical_counters_exact():
    cfg = AttackConfig(index_bits=6, trials=1)
    res = run_classical_attack(cfg, 0)
    assert res.steps_counting == 16 * 64  # exactly K*N right-pair evaluations
    assert res.steps_total == res.steps_counting


def test_quantum_result_counters_consistent():
    cfg = AttackConfig(index_bits=6, master_seed=42, trials=1)
    res, mf = run_quantum_attack(cfg, 0)
    assert res.steps_total == (res.steps_init + res.steps_counting + res.steps_oracle
                               + res.steps_search + res.steps_observe)
    assert res.budget_spent <= res.budget_limit
    assert res.g_gates_total == res.counting_invocations * 127  # 2^7 - 1 each
    params = cfg.counting_params()
    t = params.phase_bits
    assert res.qubits_model == 2 * 4 + 6 + t + 1
    assert res.qubits_simulated == t + 6 + 1
    assert 0 <= res.bound_hit_rate <= 1


def test_degenerate_certain_characteristic_always_recovers():
    # one round: the expected difference equals the plaintext difference with
    # probability 1, so every pair is right for the true subkey
    cfg = AttackConfig(
        index_bits=6, trials=3, master_seed=11, planted_key=0x5A,
        cipher_doc={"rounds": 1},
        characteristic_doc={"plaintext_diff": "0B", "output_diff": "0B"})
    ctx, key, z = plant_instance(cfg, 0)
    assert ctx.characteristic.probability == 1.0
    assert int(ctx.marked_table(z).sum()) == ctx.pairs.num_pairs
    for trial in range(3):
        res, _ = run_quantum_attack(cfg, trial)
        assert res.recovered_subkey == z


def test_weak_instance_is_recorded_not_asserted():
    # N*p = 0.5 at n=3: signal below noise, so recovery is not guaranteed;
    # the run must still complete and report honestly
    cfg = AttackConfig(index_bits=3, master_seed=4, trials=1)
    for res in (run_classical_attack(cfg, 0), run_quantum_attack(cfg, 0)[0]):
        assert 0 <= res.recovered_subkey < 16
        assert res.success == (res.recovered_subkey == res.ground_truth)


def test_two_seeds_split_deterministic_and_random_counters():
    # per-invocation gate counts are seed-independent; search work is not
    a, _ = run_quantum_attack(AttackConfig(index_bits=6, master_seed=42, trials=1), 0)
    b, _ = run_quantum_attack(AttackConfig(index_bits=6, master_seed=43, trials=1), 0)
    assert a.g_gates_total // a.counting_invocations == 127
    assert b.g_gates_total // b.counting_invocations == 127
    assert a.steps_search != b.steps_search


def test_random_key_mode_varies_instances():
    # per-trial derived keys; keys without signal are redrawn internally
    cfg = AttackConfig(index_bits=6, trials=8, planted_key=None, master_seed=5)
    keys = set()
    for trial in range(8):
        ctx, key, z = plant_instance(cfg, trial)
        assert ctx.characteristic.probability > 0
        assert z == (ctx.cipher.last_round_key(key) & 0xF)
        keys.add(key)
    assert len(keys) >= 2
    results, _ = run_trials(AttackConfig(index_bits=6, trials=2, planted_key=None,
                                         master_seed=5, mode="both"))
    assert len(results) == 4


def test_random_key_draw_does_not_hide_a_bad_characteristic():
    # only a zero-probability key is redrawn; a malformed doc is refused when
    # the config is built, before any key is drawn
    with pytest.raises(ConfigError, match="expected difference out of range for 8-bit block"):
        AttackConfig(planted_key=None, trials=1, characteristic_doc={"output_diff": -2})


def test_run_trials_both_modes():
    cfg = AttackConfig(index_bits=5, trials=2, mode="both", master_seed=77)
    results, trace = run_trials(cfg)
    assert [r.mode for r in results] == ["classical", "quantum"] * 2
    assert all(row["trial"] in (0, 1) for row in trace)


# ---- reports --------------------------------------------------------------------


def test_count_report_flags_in_bound_rows():
    cfg = AttackConfig(index_bits=6, master_seed=42, trials=1)
    rows = run_count_report(cfg)
    assert len(rows) == 16
    z_row = rows[0]  # planted true subkey is 0 for the stock instance
    assert z_row["m_true"] == 8
    assert any(r["in_bound"] for r in rows)


def test_scaling_report_shapes():
    cfg = AttackConfig(trials=1, master_seed=31)
    rows = run_scaling_report(cfg, search_bits=(4, 6), counting_index_bits=(4,),
                              seeds=8)
    search = [r for r in rows if r["sweep"] == "search"]
    counting = [r for r in rows if r["sweep"] == "counting"]
    assert [r["size"] for r in search] == [16, 64]
    assert search[1]["ratio_vs_prev"] != ""
    assert counting[0]["g_gates"] == counting[0]["g_gates_expected"] == 63


@pytest.mark.parametrize("fields, phase_bits", [
    (dict(accuracy_bits=2), (5, 5)),   # m = 2 at every n
    (dict(epsilon=0.25), (5, 6)),      # the default m, two bits on top instead of three
])
def test_scaling_report_counts_with_the_configured_accuracy(fields, phase_bits):
    # the default profile (m = ceil(n/2) + 1, epsilon = 0.1) gives t = 6 and 7
    cfg = AttackConfig(trials=1, master_seed=31, **fields)
    rows = run_scaling_report(cfg, search_bits=(4,), counting_index_bits=(4, 6), seeds=1)
    counting = [r for r in rows if r["sweep"] == "counting"]
    assert tuple(r["phase_bits"] for r in counting) == phase_bits
    assert [r["g_gates"] for r in counting] == [(1 << t) - 1 for t in phase_bits]


def test_scaling_report_plants_before_the_search_sweep(monkeypatch):
    # a planted key without signal is refused before any search seed runs
    def no_search(*args):
        raise AssertionError("search sweep ran before the instances were planted")

    monkeypatch.setattr(qdca.attack, "find_max_subkey", no_search)
    with pytest.raises(ConfigError, match="planted key 0x04"):
        run_scaling_report(AttackConfig(trials=1, planted_key=0x04), search_bits=(4,),
                           counting_index_bits=(4,), seeds=1)


def test_no_estimate_reads_a_table(monkeypatch):
    # every estimate is drawn from its class size's transformed row: once an
    # instance's right-pair counts are counted, the quantum attack, both
    # reports' counting rows and the gate-accounting check read no table, and
    # each gives what it gave before
    cfg = AttackConfig(index_bits=6, trials=1, master_seed=42)

    def outputs():
        res, mf = run_quantum_attack(cfg, 0)
        return (dataclasses.replace(res, wall_time_s=0.0), mf.trace, run_count_report(cfg),
                run_scaling_report(cfg, search_bits=(4,), counting_index_bits=(4, 6), seeds=1),
                qdca.acceptance.check_gate_accounting())

    before = outputs()
    marked_table = qdca.toy_cipher.AttackContext.marked_table

    def counted_then_refused(ctx, x):
        if "counts" in vars(ctx):
            raise AssertionError(f"subkey {x}'s table read after its counts were counted")
        return marked_table(ctx, x)

    monkeypatch.setattr(qdca.toy_cipher.AttackContext, "marked_table", counted_then_refused)
    assert outputs() == before


# ---- CSV emission ------------------------------------------------------------------


def test_csv_files_have_versioned_schema(tmp_path):
    cfg = AttackConfig(index_bits=5, trials=2, master_seed=9)
    results, trace = run_trials(cfg)
    write_results_csv(tmp_path / "results.csv", results)
    write_trace_csv(tmp_path / "trace.csv", trace)
    write_counts_csv(tmp_path / "counts.csv", run_count_report(cfg))
    for name, schema in (("results.csv", "results-v1"), ("trace.csv", "trace-v1"),
                         ("counts.csv", "counts-v1")):
        first = (tmp_path / name).read_text().splitlines()[0]
        assert first == f"# schema={schema}"
    header = (tmp_path / "results.csv").read_text().splitlines()[1]
    assert "wall" not in header  # timing kept out of deterministic outputs


def test_results_csv_byte_identical_across_runs(tmp_path):
    cfg = AttackConfig(index_bits=5, trials=3, master_seed=99)
    for name in ("a", "b"):
        results, trace = run_trials(cfg)
        write_results_csv(tmp_path / f"results_{name}.csv", results)
        write_trace_csv(tmp_path / f"trace_{name}.csv", trace)
    assert (tmp_path / "results_a.csv").read_bytes() == (tmp_path / "results_b.csv").read_bytes()
    assert (tmp_path / "trace_a.csv").read_bytes() == (tmp_path / "trace_b.csv").read_bytes()


# ---- CLI -----------------------------------------------------------------------------


def test_cli_bound_reproduces_published_interval(capsys):
    assert main(["bound", "-M", "8"]) == 0
    out = capsys.readouterr().out
    assert "(5.875, 10.125)" in out


def test_cli_attack_writes_outputs(tmp_path, capsys):
    rc = main(["attack", "-n", "5", "--trials", "2", "--master-seed", "7",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "trace.csv").exists()
    assert "quantum" in capsys.readouterr().out


def test_cli_count_writes_counts(tmp_path, capsys):
    rc = main(["count", "-n", "5", "--master-seed", "7", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "counts.csv").exists()


def test_cli_config_file_overrides_flags(tmp_path):
    config = {"index_bits": 5, "trials": 1, "master_seed": 3,
              "out_dir": str(tmp_path / "from_config")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["attack", "-n", "6", "--trials", "4", "--config", str(cfg_path),
               "--out-dir", str(tmp_path / "ignored")])
    assert rc == 0
    assert (tmp_path / "from_config" / "results.csv").exists()
    rows = (tmp_path / "from_config" / "results.csv").read_text().splitlines()
    assert len(rows) == 2 + 1  # schema + header + one trial


def test_cli_rejects_bad_config(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"mode": "sideways"}))
    assert main(["attack", "--config", str(cfg_path)]) == 1
    assert main(["attack", "--config", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("argv", [
    ["count", "-m", "20"],
    ["attack", "-m", "30"],
    ["scale", "--seeds", "0"],
    ["bound", "-M", "-1"],
    ["bound", "-M", "8", "-N", "0"],
    ["scale", "--search-bits", "x"],
    ["scale", "--search-bits", "-1"],
    # no candidate to search, or 2**25 of them
    ["scale", "--search-bits", "0"],
    ["scale", "--search-bits", "25"],
    ["scale", "--search-bits", "4,25"],
    ["scale", "--counting-bits", "0"],
    ["scale", "--counting-bits", "4,-1"],
    ["attack", "--planted-key", "0x04", "--trials", "1"],
    ["attack", "--planted-key", "0x04", "--trials", "1", "--config", str(STOCK_DOC)],
    ["attack", "--planted-key", "0x04", "--trials", "1", "--config", str(STATED_P_DOC)],
    ["attack", "--planted-key", "0x09", "--trials", "1", "--config", str(WRONG_P_DOC)],
    # a config document (written out by the test) holding a value of the wrong type
    ["attack", "--trials", "1", "--config", {"trials": "5"}],
    ["attack", "--trials", "1", "--config", {"index_bits": "6"}],
    ["attack", "--trials", "1", "--config", {"planted_key": "0x09"}],
    ["attack", "--trials", "1", "--config", {"epsilon": "x"}],
    ["attack", "--trials", "1", "--config", {"cipher_doc": {"sbox": 5}}],
    ["attack", "--trials", "1", "--config", {"cipher_doc": {"rounds": "4"}}],
    ["attack", "--trials", "1", "--config", {"characteristic_doc": {"active_sboxes": 3}}],
    ["attack", "--trials", "1", "--config", {"out_dir": 5}],
    ["attack", "--trials", "1", "--config", [1, 2]],
    ["bound", "-M", "nan"],
    ["bound", "-M", "inf"],
    # t+1+k above the limit: at least 33M G steps per trial if accepted
    ["attack", "-k", "8", "-n", "4", "-m", "14", "--trials", "1", "--config", str(K8_DOC)],
    ["count", "-n", "2", "-m", "18"],
    # integer fields of a config document given a float, a bool or a string
    ["attack", "--trials", "1", "--config", {"characteristic_doc": {"plaintext_diff": 10.7}}],
    ["attack", "--trials", "1", "--config", {"characteristic_doc": {"plaintext_diff": True}}],
    ["attack", "--trials", "1", "--config", {"characteristic_doc": {"output_diff": 2.9}}],
    ["attack", "--trials", "1", "--config", {"characteristic_doc": {"active_sboxes": "0"}}],
    ["attack", "--trials", "1", "--config", {"cipher_doc": {"rounds": True}}],
    ["attack", "--trials", "1", "--config", {"expected_steps": 1000}],
    # a misspelled key in either document
    ["attack", "--trials", "1", "--config", {"characteristic_doc": {"outptu_diff": "11"}}],
    ["attack", "--trials", "1", "--config", {"cipher_doc": {"block_widht": 16}}],
    # a fixed key and a drawn key per trial, from flags or from the document
    ["attack", "--planted-key", "0x09", "--random-keys", "--trials", "1"],
    ["attack", "--random-keys", "--trials", "1", "--config", {"planted_key": 9}],
])
def test_cli_out_of_range_arguments_are_config_errors(argv, tmp_path, capsys):
    out_dir = tmp_path / "out"
    if not isinstance(argv[-1], str):
        doc_path = tmp_path / "config.json"
        doc_path.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(doc_path)]
    if argv[0] != "bound":
        argv = argv + ["--out-dir", str(out_dir)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("verb", ["attack", "count", "scale"])
def test_cli_flags_left_out_take_the_config_defaults(verb):
    # the flags restate no default: an omitted flag leaves the AttackConfig field alone
    assert _config_from_args(build_parser().parse_args([verb])) == AttackConfig()
    args = build_parser().parse_args([verb, "-n", "5", "--random-keys"])
    assert _config_from_args(args) == AttackConfig(index_bits=5, planted_key=None)


def _readme_commands() -> list[list[str]]:
    """Every ``qdca ...`` line of README's code blocks, comments stripped and
    backslash continuations joined, as the argv after ``qdca``."""
    commands, in_block, text = [], False, ""
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
            continue
        if not in_block:
            continue
        text += line
        if text.endswith("\\"):
            text = text[:-1]
            continue
        if text.split()[:1] == ["qdca"]:
            commands.append(shlex.split(text, comments=True)[1:])
        text = ""
    return commands


def test_readme_command_lines_parse():
    commands = _readme_commands()
    assert len(commands) >= 7
    assert all(argv and argv[0] in ("attack", "count", "bound", "scale", "selftest")
               for argv in commands)
    for argv in commands:
        build_parser().parse_args(argv)   # exits on a flag the CLI does not have


def test_readme_config_documents_build():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    docs = re.findall(r"^```json\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert len(docs) >= 2
    for doc in docs:
        AttackConfig.from_dict(json.loads(doc))   # raises on a key or value it refuses


@pytest.mark.parametrize("output_diff, block_width", [(-2, 8), ("100", 8), ("102", 8),
                                                      ("10000", 16)])
def test_cli_output_diff_outside_the_block_is_named(output_diff, block_width, tmp_path,
                                                    capsys):
    doc = {"cipher_doc": {"block_width": block_width},
           "characteristic_doc": {"plaintext_diff": "0A", "output_diff": output_diff}}
    doc_path = tmp_path / "config.json"
    doc_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["attack", "--trials", "1", "--config", str(doc_path),
                 "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == ("configuration error: expected difference out of "
                                       f"range for {block_width}-bit block\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("fields,message", UNUSABLE)
def test_cli_refuses_an_unusable_characteristic(fields, message, tmp_path, capsys):
    doc_path = tmp_path / "config.json"
    doc_path.write_text(json.dumps(fields))
    out_dir = tmp_path / "out"
    assert main(["attack", "--trials", "1", "--config", str(doc_path),
                 "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out_dir.exists()


def test_cli_random_keys_same_with_and_without_stock_doc(tmp_path, capsys):
    # trial 3 at this seed draws a key without signal first and redraws it
    argv = ["attack", "--mode", "both", "--random-keys", "-n", "4", "--trials", "4",
            "--master-seed", "2024"]
    assert main(argv + ["--out-dir", str(tmp_path / "flags")]) == 0
    assert main(argv + ["--config", str(STOCK_DOC), "--out-dir", str(tmp_path / "doc")]) == 0
    capsys.readouterr()
    for fname in ("results.csv", "trace.csv"):
        assert (tmp_path / "flags" / fname).read_bytes() == \
            (tmp_path / "doc" / fname).read_bytes()


def test_cli_k8_doc_needs_no_k_flag(tmp_path, capsys):
    # k = 8 comes from delta = 11: the golden k = 8 run without its -k 8
    assert main(["attack", "-n", "8", "--mode", "both", "--trials", "2", "--master-seed",
                 "2024", "--planted-key", "0x09", "--config", str(K8_DOC),
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    golden = STOCK_DOC.with_name("golden") / "attack_k8n8"
    for fname in ("results.csv", "trace.csv"):
        assert (tmp_path / fname).read_bytes() == (golden / fname).read_bytes()


def test_cli_random_keys_flag(tmp_path):
    rc = main(["attack", "-n", "5", "--trials", "2", "--master-seed", "6",
               "--random-keys", "--out-dir", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "results.csv").read_text().splitlines()[2:]
    truths = {row.split(",")[3] for row in rows}
    assert len(rows) == 2 and truths  # distinct trials ran to completion

import csv
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qdca.toy_cipher
from qdca.toy_cipher import (Characteristic, PairSet, ToyCipher,
                             cipher_from_dict, differential_from_dict,
                             default_characteristic,
                             difference_distribution_table,
                             codebook_pairs, encrypt_codebook, find_characteristic,
                             gen_pairs, is_right_pair, make_characteristic,
                             measure_probability, right_pair_counts, right_pair_table, rotl,
                             true_subkey, DEFAULT_PBOX, DEFAULT_PLANTED_KEY,
                             DEFAULT_SBOX)

FIXTURES = Path(__file__).parent / "fixtures"


# Independent reference implementation (dict S-box, bit-list permutation),
# used to derive the golden fixture values and re-checked here in full.
def _reference_encrypt(pt, key, rounds=4):
    sbox = {i: v for i, v in enumerate(DEFAULT_SBOX)}
    pbox = {i: (i % 4) * 2 + i // 4 for i in range(8)}
    s = pt
    for r in range(rounds):
        s ^= rotl(key, r)
        s = (sbox[(s >> 4) & 0xF] << 4) | sbox[s & 0xF]
        if r < rounds - 1:
            bits = [(s >> i) & 1 for i in range(8)]
            s = 0
            for i in range(8):
                s |= bits[i] << pbox[i]
    return s ^ rotl(key, rounds)


def test_encrypt_matches_golden_fixture(cipher):
    with open(FIXTURES / "encrypt_golden.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "fixture must not be empty"
    for row in rows:
        key, pt, ct = (int(row[c], 16) for c in ("key", "pt", "ct"))
        assert cipher.encrypt(key, pt) == ct
        assert _reference_encrypt(pt, key) == ct


def test_encrypt_matches_reference_everywhere(cipher):
    for key in (0x00, 0x09, 0x5A, 0xA5, 0xFF):
        for pt in range(256):
            assert cipher.encrypt(key, pt) == _reference_encrypt(pt, key)


def test_codebook_is_a_permutation_all_blocks(cipher):
    for key in (0x00, 0x09, 0x42, 0xA5, 0xFF):
        pts = np.arange(256)
        assert np.array_equal(np.sort(encrypt_codebook(cipher, key)), pts)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), width=st.sampled_from([4, 8, 12]),
       sbox=st.permutations(range(16)), rounds=st.integers(1, 6))
def test_codebook_is_a_permutation_random_spn(data, width, sbox, rounds):
    pbox = data.draw(st.permutations(range(width)))
    c = ToyCipher(sbox=tuple(sbox), pbox=tuple(pbox), rounds=rounds, block_width=width)
    key = data.draw(st.integers(0, c.block_size - 1))
    pts = np.arange(c.block_size)
    cts = c.encrypt(key, pts)
    assert np.array_equal(np.sort(cts), pts)  # a permutation of the block space
    pt = data.draw(st.integers(0, c.block_size - 1))
    assert c.encrypt(key, pt) == cts[pt]


def test_single_round_zero_schedule_is_sbox_layer():
    # master key 0 rotates to round keys that are all 0
    c = ToyCipher(rounds=1, pbox=tuple(range(8)))
    for pt in range(256):
        expected = (DEFAULT_SBOX[pt >> 4] << 4) | DEFAULT_SBOX[pt & 0xF]
        assert c.encrypt(0x00, pt) == expected


def test_encrypt_rejects_out_of_range(cipher):
    with pytest.raises(ValueError):
        cipher.encrypt(0x10, 256)
    with pytest.raises(ValueError):
        cipher.encrypt(0x10, -1)
    with pytest.raises(ValueError):
        cipher.encrypt(300, 0)


@pytest.mark.parametrize("bad", [
    dict(sbox=(0,) * 16),
    dict(pbox=(0, 0, 2, 3, 4, 5, 6, 7)),
    dict(rounds=0),
    dict(sbox=tuple(range(15))),
    dict(block_width=7),
    dict(block_width=12, pbox=DEFAULT_PBOX),
])
def test_cipher_validation(bad):
    with pytest.raises(ValueError):
        ToyCipher(**bad)


def test_default_pbox_follows_the_block_width():
    # bit i -> (i mod 4)*S + i div 4 for S S-boxes; at 8 bits the stock transpose
    assert ToyCipher().pbox == DEFAULT_PBOX == (0, 2, 4, 6, 1, 3, 5, 7)
    assert ToyCipher(block_width=8) == ToyCipher(pbox=DEFAULT_PBOX)
    for width in (4, 12, 16):
        c = cipher_from_dict({"block_width": width})
        assert sorted(c.pbox) == list(range(width))
        # each S-box's four output bits reach every next-round S-box
        for box in range(c.num_sboxes):
            assert {c.pbox[4 * box + j] // 4 for j in range(4)} == set(range(c.num_sboxes))


@pytest.mark.parametrize("width", [4, 8, 16])
def test_range_check_refuses_the_same_values_for_ints_and_arrays(width):
    # a Python int skips numpy; every value is refused exactly when some entry
    # of its array falls outside [0, 2**width)
    c = ToyCipher(block_width=width)
    top = c.block_size
    values = [0, 1, top - 1, top, -1, 2 ** 70, -2 ** 70, True, False,
              np.int64(top - 1), np.int64(top), np.int64(-1), np.uint8(3),
              np.array(top), np.array([0, top - 1]), np.array([0, top]),
              np.array([-1, 0]), [0, top], [], 3.5, -0.5]
    for value in values:
        v = np.asarray(value)
        if np.any(v < 0) or np.any(v >= top):
            with pytest.raises(ValueError, match=f"probe out of range for {width}-bit block"):
                c._check_block(value, "probe")
        else:
            c._check_block(value, "probe")


def test_key_schedule_rotates(cipher):
    keys = cipher.round_keys(0xA5)
    assert keys == tuple(rotl(0xA5, r) for r in range(5))
    # round key r is the master key rotated by r bits within the block
    assert ToyCipher(block_width=16).round_keys(0x8001) == (0x8001, 0x0003, 0x0006,
                                                            0x000C, 0x0018)


# ---- pair generation ----------------------------------------------------


def test_gen_pairs_plaintext_layout(cipher):
    # pair j is the plaintexts (j, j ^ P'), held as their ciphertexts
    ps = gen_pairs(cipher, 0x09, 0x0B, 2)
    assert ps.c1.tolist() == [cipher.encrypt(0x09, p) for p in (0, 1, 2, 3)]
    assert ps.c2.tolist() == [cipher.encrypt(0x09, p) for p in (0x0B, 0x0A, 0x09, 0x08)]


def test_gen_pairs_difference_invariant(cipher):
    ps = gen_pairs(cipher, 0x31, 0x1A, 5)
    for j, (c1, c2) in enumerate(zip(ps.c1.tolist(), ps.c2.tolist())):
        assert (c1, c2) == (cipher.encrypt(0x31, j), cipher.encrypt(0x31, j ^ 0x1A))


@pytest.mark.parametrize("width", [4, 8, 12, 16])
def test_codebook_pairs_equal_two_encryptions(width):
    # a pair set gathered from one encryption of the codebook holds what
    # encrypting both plaintexts of every pair gives
    c = ToyCipher(block_width=width)
    rng = np.random.default_rng(width)
    for _ in range(4):
        key = int(rng.integers(c.block_size))
        p_diff = int(rng.integers(1, c.block_size))
        n = int(rng.integers(1, width + 1))
        p1 = np.arange(1 << n)
        want = (c.encrypt(key, p1), c.encrypt(key, p1 ^ p_diff))
        for ps in (gen_pairs(c, key, p_diff, n),
                   codebook_pairs(c, encrypt_codebook(c, key), p_diff, n)):
            assert (ps.index_bits, ps.plaintext_diff) == (n, p_diff)
            for col, expected in zip((ps.c1, ps.c2), want):
                assert np.array_equal(col, expected)


def test_find_characteristic_encrypts_the_codebook_once(monkeypatch):
    calls = []
    encrypt = ToyCipher.encrypt
    monkeypatch.setattr(ToyCipher, "encrypt",
                        lambda self, *args: calls.append(args) or encrypt(self, *args))
    find_characteristic(ToyCipher(), DEFAULT_PLANTED_KEY, subkey_bits=4, index_bits=6)
    assert len(calls) == 1


def test_pair_columns_are_read_only_copies(cipher):
    c1 = np.arange(4)
    ps = PairSet(2, 0x0B, c1, c1 ^ 0x0B)
    c1[0] = 7
    assert ps.c1[0] == 0
    for col in (ps.c1, ps.c2):
        assert col.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            col[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        gen_pairs(cipher, 0x09, 0x0B, 2).c1[0] = 1


@pytest.mark.parametrize("columns, match", [
    ((range(4), range(3)), "equal length"),
    ((range(3), range(4)), "equal length"),
    (([[0, 1], [2, 3]], [[11, 10], [9, 8]]), "1-D"),
    # ids set by hand: these cases keep their names whatever is added above them
    pytest.param((range(2), range(2)), "2\\*\\*index_bits", id="columns4-2\\*\\*index_bits"),
    pytest.param((range(8), range(8)), "2\\*\\*index_bits", id="columns5-2\\*\\*index_bits"),
])
def test_pair_set_refuses_malformed_columns(columns, match):
    with pytest.raises(ValueError, match=match):
        PairSet(2, 0x0B, *columns)


def test_gen_pairs_rejects_degenerate_inputs(cipher):
    with pytest.raises(ValueError):
        gen_pairs(cipher, 0x09, 0x00, 4)
    with pytest.raises(ValueError):
        gen_pairs(cipher, 0x09, 0x0B, 9)
    with pytest.raises(ValueError):
        gen_pairs(cipher, 0x09, 0x0B, 0)


def test_planted_count_in_binomial_central_range(cipher, planted):
    # true-subkey count over the N chosen pairs is a binomial(N, p) draw
    key, ch, pairs, _ = planted
    z = true_subkey(cipher, key, ch)
    count = int(right_pair_table(cipher, ch, pairs)[z][:pairs.num_pairs].sum())
    n_pairs = pairs.num_pairs
    mean = n_pairs * ch.probability
    sigma = (n_pairs * ch.probability * (1 - ch.probability)) ** 0.5
    assert abs(count - mean) <= 4 * sigma


# ---- characteristics -----------------------------------------------------


def test_characteristic_validation():
    with pytest.raises(ValueError):
        Characteristic(0x0A, 0x02, 0.0)
    with pytest.raises(ValueError):
        Characteristic(0x00, 0x02, 0.5)
    with pytest.raises(ValueError, match="expected difference 0x00 activates no S-box"):
        Characteristic(0x0A, 0x00, 0.5)


@pytest.mark.parametrize("delta, active", [(0x02, (0,)), (0x20, (1,)), (0x28, (0, 1)),
                                           (0x2000, (3,))])
def test_active_sboxes_are_the_nonzero_nibbles_of_delta(delta, active):
    ch = Characteristic(0x0A, delta, 0.5)
    assert ch.active_sboxes == active
    assert ch.subkey_bits == 4 * len(active)


# ---- right-pair predicate ------------------------------------------------


def test_padding_indices_never_mark(cipher, planted):
    _, ch, pairs, _ = planted
    n_pairs = pairs.num_pairs
    for x in (0, 3, 15):
        assert all(is_right_pair(cipher, ch, x, j, pairs) == 0
                   for j in range(n_pairs, 2 * n_pairs))
    with pytest.raises(ValueError):
        is_right_pair(cipher, ch, 0, 2 * n_pairs, pairs)
    with pytest.raises(ValueError):
        is_right_pair(cipher, ch, 16, 0, pairs)


def test_right_pair_table_agrees_with_scalar(cipher, planted):
    _, ch, pairs, _ = planted
    for x in range(16):
        table = right_pair_table(cipher, ch, pairs)[x]
        assert len(table) == 2 * pairs.num_pairs
        for j in range(2 * pairs.num_pairs):
            assert bool(table[j]) == bool(is_right_pair(cipher, ch, x, j, pairs))


def test_right_pair_table_allocates_one_table():
    # k = 8 on the 16-bit block at n = 12: besides the (K, N) trial-decrypted
    # differences the build holds the (K, 2N) table itself and little else,
    # where a concatenated copy of the left half would reach 3 tables
    c = ToyCipher(block_width=16)
    ch = Characteristic(0xB0B0, 0x88, 0.5)
    pairs = gen_pairs(c, DEFAULT_PLANTED_KEY, ch.plaintext_diff, 12)
    tracemalloc.start()
    try:
        table = right_pair_table(c, ch, pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (256, 2 * 4096)
    assert peak < 2.25 * table.nbytes


_characteristics = st.builds(Characteristic, st.integers(1, 255), st.integers(1, 255),
                             st.just(0.5))


@settings(max_examples=40, deadline=None)
@given(sbox=st.permutations(range(16)), pbox=st.permutations(range(8)),
       key=st.integers(0, 255), index_bits=st.integers(1, 5), ch=_characteristics)
def test_right_pair_table_agrees_with_scalar_on_random_instances(
        sbox, pbox, key, index_bits, ch):
    # every row x of the (K, 2N) table against the scalar e(x, j)
    c = ToyCipher(sbox=tuple(sbox), pbox=tuple(pbox))
    pairs = gen_pairs(c, key, ch.plaintext_diff, index_bits)
    table = right_pair_table(c, ch, pairs)
    scalar = [[bool(is_right_pair(c, ch, x, j, pairs)) for j in range(2 * pairs.num_pairs)]
              for x in range(1 << ch.subkey_bits)]
    assert table.tolist() == scalar


def test_right_pair_status_invariant_under_pair_swap(cipher, planted):
    _, ch, pairs, _ = planted
    swapped = PairSet(pairs.index_bits, pairs.plaintext_diff, pairs.c2, pairs.c1)
    for x in range(16):
        assert np.array_equal(right_pair_table(cipher, ch, pairs)[x],
                              right_pair_table(cipher, ch, swapped)[x])


def _table_counts(cipher, ch, pairs):
    return right_pair_table(cipher, ch, pairs)[:, :pairs.num_pairs].sum(axis=1)


def test_right_pair_counts_are_the_table_row_sums_on_the_8_bit_block(cipher):
    # every key x every nonzero P', each pair set once, with n in 1..8 and
    # delta (all 15 k = 4 differences on either S-box, and five at k = 8)
    # taken in turn, so every (n, delta) meets hundreds of keys and P'
    deltas = ([d << shift for shift in (0, 4) for d in range(1, 16)]
              + [0x11, 0x28, 0x88, 0xF1, 0xFF])
    case = 0
    for key in range(cipher.block_size):
        codebook = encrypt_codebook(cipher, key)
        for p_diff in range(1, cipher.block_size):
            pairs = codebook_pairs(cipher, codebook, p_diff, 1 + case % 8)
            ch = Characteristic(p_diff, deltas[case % len(deltas)], 1.0)
            case += 1
            assert right_pair_counts(cipher, ch, pairs).tolist() == \
                _table_counts(cipher, ch, pairs).tolist(), (key, p_diff, ch)


@pytest.mark.parametrize("chunk_cells", [1 << 20, 1 << 9])
@pytest.mark.parametrize("width, delta", [(12, 0x002), (12, 0x0A0), (12, 0x202), (12, 0x4C8),
                                          (16, 0x2), (16, 0x88), (16, 0x1200), (16, 0xB0B0)])
def test_right_pair_counts_are_the_table_row_sums_on_wider_blocks(monkeypatch, chunk_cells,
                                                                  width, delta):
    # seeded keys and P'; a small chunk runs the pairs in several chunks
    monkeypatch.setattr(qdca.toy_cipher, "_COUNT_CHUNK_CELLS", chunk_cells)
    c = ToyCipher(block_width=width)
    rng = np.random.default_rng(width * 0x10000 + delta)
    for _ in range(3):
        key, p_diff = int(rng.integers(c.block_size)), int(rng.integers(1, c.block_size))
        pairs = gen_pairs(c, key, p_diff, int(rng.integers(1, 12)))
        ch = Characteristic(p_diff, delta, 1.0)
        assert np.array_equal(right_pair_counts(c, ch, pairs), _table_counts(c, ch, pairs))


@pytest.mark.parametrize("doc", ["w16_k4_characteristic.json", "w16_k8_characteristic.json"])
@pytest.mark.parametrize("index_bits", [8, 14, 16])
def test_right_pair_counts_match_the_table_on_the_w16_fixtures(doc, index_bits):
    fields = json.loads((FIXTURES / doc).read_text())
    c = cipher_from_dict(fields["cipher_doc"])
    ch = make_characteristic(c, DEFAULT_PLANTED_KEY,
                             *differential_from_dict(fields["characteristic_doc"], c))
    pairs = gen_pairs(c, DEFAULT_PLANTED_KEY, ch.plaintext_diff, index_bits)
    assert np.array_equal(right_pair_counts(c, ch, pairs), _table_counts(c, ch, pairs))


@settings(max_examples=40, deadline=None)
@given(sbox=st.permutations(range(16)), pbox=st.permutations(range(8)),
       key=st.integers(0, 255), index_bits=st.integers(1, 5), ch=_characteristics)
def test_right_pair_counts_agree_with_scalar_on_random_instances(
        sbox, pbox, key, index_bits, ch):
    c = ToyCipher(sbox=tuple(sbox), pbox=tuple(pbox))
    pairs = gen_pairs(c, key, ch.plaintext_diff, index_bits)
    scalar = [sum(is_right_pair(c, ch, x, j, pairs) for j in range(pairs.num_pairs))
              for x in range(1 << ch.subkey_bits)]
    assert right_pair_counts(c, ch, pairs).tolist() == scalar


def test_right_pair_counts_are_a_read_only_int64_vector(cipher, planted):
    _, ch, pairs, ctx = planted
    empty = PairSet(0, ch.plaintext_diff, (), ())
    for pair_set in (pairs, empty):
        counts = right_pair_counts(cipher, ch, pair_set)
        assert counts.shape == (16,) and counts.dtype == np.int64
        with pytest.raises(ValueError):
            counts[0] = 0
    assert counts.tolist() == [0] * 16
    assert ctx.counts.tolist() == right_pair_counts(cipher, ch, pairs).tolist()


def test_right_pair_counts_build_no_table_at_the_widest_count():
    # k = 8 on the 16-bit block at n = 16, the widest count CI runs: its
    # (K, 2N) table takes 64 MiB, the counts stay within a few chunks
    fields = json.loads((FIXTURES / "w16_k8_characteristic.json").read_text())
    c = cipher_from_dict(fields["cipher_doc"])
    ch = Characteristic(*differential_from_dict(fields["characteristic_doc"], c), 1.0)
    pairs = gen_pairs(c, DEFAULT_PLANTED_KEY, ch.plaintext_diff, 16)
    tracemalloc.start()
    try:
        counts = right_pair_counts(c, ch, pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.shape == (256,)
    assert peak < 4 * 2 ** 20   # the table alone: 256 * 2**17 bytes = 64 MiB


def test_marked_table_is_read_only(planted):
    # one table is shared by every count of the instance
    _, _, _, ctx = planted
    row = ctx.marked_table(3)
    with pytest.raises(ValueError):
        row[0] = True


def test_measured_probability_matches_stored_exactly(cipher, planted, planted_alt):
    for key, ch, _, _ in (planted, planted_alt):
        assert measure_probability(cipher, key, ch) == ch.probability


@pytest.mark.parametrize("doc", ["stock_characteristic.json", "k8_characteristic.json",
                                 "w16_k4_characteristic.json", "w16_k8_characteristic.json"])
def test_measured_probability_is_the_true_subkeys_table_row(doc):
    # p, trial-decrypted under the true subkey alone, is row z of the (K, 2N)
    # table over the full codebook, divided by the codebook size
    fields = json.loads((FIXTURES / doc).read_text())
    c = cipher_from_dict(fields.get("cipher_doc", {}))
    d = fields["characteristic_doc"]
    ch = Characteristic(int(d["plaintext_diff"], 16), int(d["output_diff"], 16), 1.0)
    for key in (DEFAULT_PLANTED_KEY, int(np.random.default_rng(7).integers(c.block_size))):
        pairs = gen_pairs(c, key, ch.plaintext_diff, c.block_width)
        row = right_pair_table(c, ch, pairs)[true_subkey(c, key, ch)]
        want = int(row.sum()) / c.block_size
        assert measure_probability(c, key, ch) == want
        assert measure_probability(c, key, ch, codebook=encrypt_codebook(c, key)) == want


def test_wrong_subkeys_count_far_below_true(cipher, planted):
    # the attack premise: wrong-key counts sit near zero relative to N*p
    key, ch, pairs, _ = planted
    z = true_subkey(cipher, key, ch)
    counts = [int(right_pair_table(cipher, ch, pairs)[x][:pairs.num_pairs].sum())
              for x in range(16)]
    wrong = [c for x, c in enumerate(counts) if x != z]
    assert max(wrong) < counts[z]
    assert np.mean(wrong) < counts[z] / 3


def test_true_subkey_extracts_active_nibbles(cipher, planted_alt):
    key, ch, _, _ = planted_alt
    assert ch.active_sboxes == (1,)
    assert true_subkey(cipher, key, ch) == (cipher.last_round_key(key) >> 4) & 0xF


def test_k8_characteristic_covers_both_nibbles(cipher):
    ddt = difference_distribution_table(cipher.sbox)
    assert ddt[0xB][0x2] == 8  # strongest single transition
    ch = make_characteristic(cipher, 0x7D, 0x10, 0x28)
    assert ch.subkey_bits == 8
    assert ch.probability == 24 / 256
    z = true_subkey(cipher, 0x7D, ch)
    assert z == cipher.last_round_key(0x7D)
    pairs = gen_pairs(cipher, 0x7D, ch.plaintext_diff, 6)
    counts = [int(right_pair_table(cipher, ch, pairs)[x][:64].sum()) for x in range(256)]
    assert counts[z] == 18 == max(counts)
    assert counts.count(18) == 1


def test_ddt_row_sums(cipher):
    ddt = difference_distribution_table(cipher.sbox)
    assert ddt[0][0] == 16
    assert np.all(ddt.sum(axis=1) == 16)
    assert np.all(ddt[1:, :].max(axis=1) <= 8)


def _find_characteristic_by_loop(cipher, key, subkey_bits, index_bits):
    """The search as one loop per (P', delta): a probe characteristic per
    delta, its K counts read from right_pair_table; (P', delta) of the winner."""
    ddt = difference_distribution_table(cipher.sbox)
    reachable = sorted(d for d in range(1, 16) if ddt[:, d].sum() > ddt[0, d])
    deltas = (reachable if subkey_bits == 4 else
              [lo | (hi << 4) for lo in reachable for hi in reachable])
    best = None
    for p_diff in range(1, cipher.block_size):
        pairs = gen_pairs(cipher, key, p_diff, index_bits)
        for delta in deltas:
            probe = Characteristic(p_diff, delta, 1.0)
            counts = right_pair_table(cipher, probe, pairs)[:, :pairs.num_pairs].sum(axis=1)
            z = true_subkey(cipher, key, probe)
            score = (counts[z] - np.delete(counts, z).max(), counts[z])
            if counts[z] > 0 and (best is None or score > best[0]):
                best = (score, p_diff, delta)
    return best[1], best[2]


# Of all k = 4 instances at n <= 8, only key 0x45 at n = 8 picks another
# (P', delta) when ranked by separation + true count instead of (separation,
# true count); key 0x88 at k = 8, n = 1 picks another one when delta runs
# hi-major instead of lo-major.
@pytest.mark.parametrize("subkey_bits, key, index_bits",
                         [(4, key, n) for key in (0x09, 0x33, 0x5A, 0xC4) for n in (4, 5, 6)]
                         + [(4, 0x45, 8), (8, 0x88, 1)])
def test_find_characteristic_equals_the_per_delta_loop(cipher, subkey_bits, key, index_bits):
    ch = find_characteristic(cipher, key, subkey_bits=subkey_bits, index_bits=index_bits)
    assert ch.active_sboxes == ((0,) if subkey_bits == 4 else (0, 1))
    assert (ch.plaintext_diff, ch.output_diff) == _find_characteristic_by_loop(
        cipher, key, subkey_bits, index_bits)


def test_find_characteristic_at_k8_returns_the_pinned_doc():
    doc = json.loads((FIXTURES / "k8_characteristic.json").read_text())["characteristic_doc"]
    t0 = time.perf_counter()
    ch = find_characteristic(ToyCipher(), DEFAULT_PLANTED_KEY, subkey_bits=8, index_bits=8)
    assert time.perf_counter() - t0 < 10.0
    assert ch.active_sboxes == (0, 1)
    assert (ch.plaintext_diff, ch.output_diff) == (int(doc["plaintext_diff"], 16),
                                                  int(doc["output_diff"], 16)) == (0x01, 0x11)


def test_find_characteristic_recovers_a_working_differential(cipher):
    ch = find_characteristic(cipher, DEFAULT_PLANTED_KEY, subkey_bits=4, index_bits=5)
    assert 0 < ch.probability <= 1
    pairs = gen_pairs(cipher, DEFAULT_PLANTED_KEY, ch.plaintext_diff, 5)
    z = true_subkey(cipher, DEFAULT_PLANTED_KEY, ch)
    counts = [int(right_pair_table(cipher, ch, pairs)[x][:32].sum()) for x in range(16)]
    assert counts[z] == max(counts)


# ---- config documents ------------------------------------------------------


def test_cipher_from_hex_string_document():
    c = cipher_from_dict({"sbox": "E4D12FB83A6C5907", "pbox": list(range(8)),
                          "rounds": 2})
    assert c.sbox == DEFAULT_SBOX
    assert c.rounds == 2
    with pytest.raises(ValueError):
        cipher_from_dict({"sbox": "E4D1"})


def test_characteristic_from_document(cipher):
    # the document names (P', delta) alone; p is measured for a key
    assert differential_from_dict({"plaintext_diff": "0A", "output_diff": "02"},
                                  cipher) == (0x0A, 0x02)
    assert differential_from_dict({}, cipher) == (0x0A, 0x02)
    ch = make_characteristic(cipher, DEFAULT_PLANTED_KEY, 0x0A, 0x02)
    assert ch.active_sboxes == (0,) and ch.probability == 0.0625
    with pytest.raises(ValueError, match=r"unknown characteristic_doc keys: \['probability'\]"):
        differential_from_dict({"plaintext_diff": "0A", "output_diff": "02",
                                "probability": 0.0625}, cipher)
    for doc, message in (({"plaintext_diff": "00"}, "degenerate zero plaintext difference"),
                         ({"plaintext_diff": "100"}, "plaintext difference out of range"),
                         ({"output_diff": "00"}, "activates no S-box"),
                         ({"output_diff": -2}, "expected difference out of range")):
        with pytest.raises(ValueError, match=message):
            differential_from_dict(doc, cipher)


def test_default_characteristic_probability(cipher):
    ch = default_characteristic(cipher, DEFAULT_PLANTED_KEY)
    assert ch.probability == 16 / 256

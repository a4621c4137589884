import numpy as np
import pytest

from qdca.classical_dca import CountTable, classical_attack, count_table
from qdca.toy_cipher import (AttackContext, PairSet, default_characteristic, gen_pairs,
                             is_right_pair, make_characteristic, measure_probability,
                             true_subkey)

# exact n=6 counts of the stock planted instance, derived twice (library
# path and an independent scan script) before pinning
PLANTED_COUNTS_N6 = [8, 2, 0, 2, 2, 2, 2, 2, 0, 2, 0, 0, 0, 0, 2, 0]


def test_empty_pair_set_counts_zero(cipher, planted):
    _, ch, _, _ = planted
    empty = PairSet(0, ch.plaintext_diff, (), (), (), ())
    assert count_table(empty, cipher, ch).counts[3] == 0


def test_planted_count_table_pinned(cipher, planted):
    _, ch, pairs, _ = planted
    table = count_table(pairs, cipher, ch)
    assert table.counts.tolist() == PLANTED_COUNTS_N6


def test_classical_attack_recovers_planted_subkey(cipher, planted, planted_alt):
    for key, ch, pairs, _ in (planted, planted_alt):
        winner, table = classical_attack(pairs, cipher, ch)
        assert winner == true_subkey(cipher, key, ch)
        assert np.all(table.counts[winner] >= table.counts)


def test_classical_attack_on_given_counts_is_the_counted_attack(cipher, planted):
    key, ch, pairs, ctx = planted
    counted = classical_attack(pairs, cipher, ch)
    given = classical_attack(pairs, cipher, ch, counts=ctx.counts)
    assert given[0] == counted[0] == true_subkey(cipher, key, ch)
    assert given[1].counts.tolist() == counted[1].counts.tolist()
    with pytest.raises(ValueError, match="2\\*\\*subkey_bits"):
        classical_attack(pairs, cipher, ch, counts=np.zeros(8, dtype=np.int64))
    too_many = np.zeros(16, dtype=np.int64)
    too_many[3] = pairs.num_pairs + 1
    with pytest.raises(ValueError, match="above the 64 pairs"):
        classical_attack(pairs, cipher, ch, counts=too_many)


def test_context_counts_are_the_classical_count_table(cipher, planted):
    # the k4n6 instance and the golden attack_k8n8 one (P' = 01, delta = 11)
    ch8 = make_characteristic(cipher, 0x09, 0x01, 0x11)
    k8n8 = AttackContext(cipher, ch8, gen_pairs(cipher, 0x09, 0x01, 8))
    for ctx in (planted[3], k8n8):
        counts = count_table(ctx.pairs, cipher, ctx.characteristic).counts
        assert ctx.counts.dtype == np.int64 and not ctx.counts.flags.writeable
        assert ctx.counts.tolist() == counts.tolist()
        assert ctx.counts is ctx.counts   # counted once
    assert planted[3].counts.tolist() == PLANTED_COUNTS_N6
    assert k8n8.counts.shape == (256,)


def test_counts_equal_padded_predicate_sums(cipher, planted, planted_alt):
    for _, ch, pairs, _ in (planted, planted_alt):
        counts = count_table(pairs, cipher, ch).counts
        for x in range(1 << ch.subkey_bits):
            s = sum(is_right_pair(cipher, ch, x, j, pairs)
                    for j in range(2 * pairs.num_pairs))
            assert s == counts[x]


def test_counts_equal_predicate_sums_full_width_subkey(cipher):
    # both S-boxes attacked: all 256 candidates
    from qdca.toy_cipher import make_characteristic
    ch = make_characteristic(cipher, 0x7D, 0x10, 0x28)
    pairs = gen_pairs(cipher, 0x7D, ch.plaintext_diff, 6)
    counts = count_table(pairs, cipher, ch).counts
    for x in range(256):
        s = sum(is_right_pair(cipher, ch, x, j, pairs)
                for j in range(2 * pairs.num_pairs))
        assert s == counts[x]


def test_single_candidate_table_wins_zero():
    assert CountTable(np.array([5]), 0).winner() == 0


def test_tie_breaks_toward_smallest():
    assert CountTable(np.zeros(16, dtype=np.int64), 4).winner() == 0
    assert CountTable(np.array([1, 3, 3, 0]), 2).winner() == 1


def test_count_table_validation():
    with pytest.raises(ValueError):
        CountTable(np.array([1, 2, 3]), 2)
    with pytest.raises(ValueError):
        CountTable(np.array([1, -1]), 1)


def test_true_count_tracks_signal_across_keys(cipher):
    # mean of (count - N*p) over planted keys stays near zero: the n-bit
    # pair subset is an unbiased sample of the full codebook
    diffs = []
    for key in range(0, 256, 9):
        try:
            ch = default_characteristic(cipher, key)
        except ValueError:
            continue  # this key has no signal under the stock differential
        pairs = gen_pairs(cipher, key, ch.plaintext_diff, 6)
        z = true_subkey(cipher, key, ch)
        count = count_table(pairs, cipher, ch).counts[z]
        assert measure_probability(cipher, key, ch) == ch.probability
        diffs.append(count - pairs.num_pairs * ch.probability)
    assert len(diffs) >= 20
    assert abs(np.mean(diffs)) < 1.0

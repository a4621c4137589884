"""Classical differential attack: exhaustive right-pair counting and argmax.

This is the ground-truth baseline the quantum pipeline is checked against.
Counting is exact and cheap at desk scale, so the memory-heavy variant
(one counter per candidate subkey) is used directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .toy_cipher import Characteristic, PairSet, ToyCipher, right_pair_table


@dataclass(frozen=True)
class CountTable:
    """counts[x] = exact number of right pairs of candidate subkey x."""

    counts: np.ndarray
    subkey_bits: int

    def __post_init__(self):
        if len(self.counts) != 1 << self.subkey_bits:
            raise ValueError("count table size must be 2**subkey_bits")
        if np.any(self.counts < 0):
            raise ValueError("negative count")

    def winner(self) -> int:
        """Argmax candidate; ties break toward the smallest subkey value."""
        return int(np.argmax(self.counts))


def count_table(pairs: PairSet, cipher: ToyCipher, ch: Characteristic) -> CountTable:
    """counts[x] = number of pairs j < N with e(x, j) = 1, for every x at once."""
    table = right_pair_table(cipher, ch, pairs)
    return CountTable(table[:, :pairs.num_pairs].sum(axis=1), ch.subkey_bits)


def classical_attack(pairs: PairSet, cipher: ToyCipher, ch: Characteristic, *,
                     counts: np.ndarray | None = None) -> tuple[int, CountTable]:
    """Count right pairs for every candidate subkey; most right pairs wins.

    The three-argument form counts them from ``pairs`` (``count_table``): the
    public ground-truth oracle. ``counts`` passes the counts of the same pairs
    and characteristic already counted, as ``run_classical_attack`` passes
    ``AttackContext.counts``; they need one entry per candidate subkey and
    none above the N pairs."""
    if counts is None:
        table = count_table(pairs, cipher, ch)
    else:
        table = CountTable(counts, ch.subkey_bits)
        if table.counts.max() > pairs.num_pairs:
            raise ValueError(f"a count above the {pairs.num_pairs} pairs")
    return table.winner(), table

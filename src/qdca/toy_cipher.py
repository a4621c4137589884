"""Toy SPN block cipher, differential characteristics and the right-pair predicate.

The cipher is a classic substitution-permutation network on a 4- to 16-bit
block, 8 by default, of parallel 4-bit S-boxes (low nibble = bits 0..3).
Each round XORs a round key and applies the S-box layer; every round except
the last is followed by a bit permutation, and a final whitening key is
XORed after the last round. The last round key (the whitening key) is the
attack target.

All objects here are immutable after construction; every operation is a
pure function, safe to call concurrently.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

NIBBLE_BITS = 4

# Widely studied tutorial S-box.
DEFAULT_SBOX = (0xE, 0x4, 0xD, 0x1, 0x2, 0xF, 0xB, 0x8,
                0x3, 0xA, 0x6, 0xC, 0x5, 0x9, 0x0, 0x7)


def default_pbox(block_width: int) -> tuple[int, ...]:
    """Nibble-interleaving bit transpose, bit i -> (i mod 4)*S + i div 4 for S
    S-boxes, so each S-box output feeds every next-round S-box. A pure
    nibble-local pbox would split the cipher into independent 4-bit threads
    and ruin the counting statistics."""
    s = block_width // NIBBLE_BITS
    return tuple((i % NIBBLE_BITS) * s + i // NIBBLE_BITS for i in range(block_width))


DEFAULT_PBOX = default_pbox(8)

# Default planted attack instance (found by exhaustive search over all
# plaintext differences, single-nibble output differences and master keys):
# with key 0x09 the n=6 count table is [8,2,0,2,2,2,2,2,0,2,0,0,0,0,2,0]
# and the exact full-codebook probability is 16/256.
DEFAULT_PLAINTEXT_DIFF = 0x0A
DEFAULT_OUTPUT_DIFF = 0x02
DEFAULT_PLANTED_KEY = 0x09


def rotl(value: int, amount: int, width: int = 8) -> int:
    """Rotate ``value`` left by ``amount`` bits within ``width`` bits."""
    amount %= width
    mask = (1 << width) - 1
    return ((value << amount) | (value >> (width - amount))) & mask


def _schedule_rotate(master: int, rounds: int, width: int) -> tuple[int, ...]:
    return tuple(rotl(master, r, width) for r in range(rounds + 1))


def _schedule_zero(master: int, rounds: int, width: int) -> tuple[int, ...]:
    return (0,) * (rounds + 1)


KEY_SCHEDULES = {"rotate": _schedule_rotate, "zero": _schedule_zero}


@dataclass(frozen=True)
class ToyCipher:
    """SPN instance: S-box table, bit permutation, round count, key schedule."""

    sbox: tuple[int, ...] = DEFAULT_SBOX
    pbox: tuple[int, ...] | None = None   # None: default_pbox(block_width)
    rounds: int = 4
    key_schedule: str = "rotate"
    block_width: int = 8

    def __post_init__(self):
        if self.block_width % NIBBLE_BITS != 0 or not 4 <= self.block_width <= 16:
            raise ValueError(f"unsupported block width {self.block_width}")
        if self.pbox is None:
            object.__setattr__(self, "pbox", default_pbox(self.block_width))
        if sorted(self.sbox) != list(range(16)):
            raise ValueError("sbox must be a bijection on [0, 16)")
        if sorted(self.pbox) != list(range(self.block_width)):
            raise ValueError(f"pbox must be a bijection on bit positions [0, {self.block_width})")
        if self.rounds < 1:
            raise ValueError("at least one round required")
        if self.key_schedule not in KEY_SCHEDULES:
            raise ValueError(f"unknown key schedule {self.key_schedule!r}")
        size = 1 << self.block_width
        xs = np.arange(size)
        sub = np.zeros(size, dtype=np.int64)
        for shift in range(0, self.block_width, NIBBLE_BITS):
            sub |= np.asarray(self.sbox)[(xs >> shift) & 0xF] << shift
        perm = np.zeros(size, dtype=np.int64)
        for i, dest in enumerate(self.pbox):
            perm |= ((xs >> i) & 1) << dest
        object.__setattr__(self, "_sub", sub)
        object.__setattr__(self, "_perm", perm)
        object.__setattr__(self, "_isub", np.argsort(sub))
        object.__setattr__(self, "_iperm", np.argsort(perm))

    # ---- layers -------------------------------------------------------

    @property
    def num_sboxes(self) -> int:
        return self.block_width // NIBBLE_BITS

    @property
    def block_size(self) -> int:
        return 1 << self.block_width

    def round_keys(self, master: int) -> tuple[int, ...]:
        self._check_block(master, "key")
        return KEY_SCHEDULES[self.key_schedule](master, self.rounds, self.block_width)

    def last_round_key(self, master: int) -> int:
        return self.round_keys(master)[self.rounds]

    def _check_block(self, value, what: str):
        if isinstance(value, int):   # a Python int (or bool) needs no array
            inside = 0 <= value < self.block_size
        else:
            v = np.asarray(value)
            inside = not (np.any(v < 0) or np.any(v >= self.block_size))
        if not inside:
            raise ValueError(f"{what} out of range for {self.block_width}-bit block")

    # ---- encryption ---------------------------------------------------

    def encrypt(self, key: int, pt):
        """Encrypt a block (or numpy array of blocks) under the master key."""
        self._check_block(pt, "plaintext")
        keys = self.round_keys(key)
        state = np.asarray(pt)
        for r in range(self.rounds):
            state = self._sub[state ^ keys[r]]
            if r < self.rounds - 1:
                state = self._perm[state]
        state = state ^ keys[self.rounds]
        return int(state) if np.isscalar(pt) or np.ndim(pt) == 0 else state

    def decrypt(self, key: int, ct):
        self._check_block(ct, "ciphertext")
        keys = self.round_keys(key)
        state = np.asarray(ct) ^ keys[self.rounds]
        for r in range(self.rounds - 1, -1, -1):
            if r < self.rounds - 1:
                state = self._iperm[state]
            state = self._isub[state]
            state = state ^ keys[r]
        return int(state) if np.isscalar(ct) or np.ndim(ct) == 0 else state


@dataclass(frozen=True)
class Characteristic:
    """A differential: plaintext difference P', the difference delta a right
    pair shows at the input of the last S-box layer, and its probability.

    delta's nonzero nibbles name the active S-boxes whose last round key bits
    are recovered; ``subkey_bits`` = 4 * len(active_sboxes). ``probability``
    is measured exhaustively for a planted instance and stored, never
    hand-estimated.
    """

    plaintext_diff: int
    output_diff: int
    probability: float

    def __post_init__(self):
        if not 0 < self.probability <= 1:
            raise ValueError("characteristic probability must be in (0, 1]")
        if self.plaintext_diff == 0:
            raise ValueError("degenerate zero plaintext difference")
        if self.output_diff <= 0:
            raise ValueError(f"expected difference {self.output_diff:#04x} activates no S-box")

    @property
    def active_sboxes(self) -> tuple[int, ...]:
        """Positions of delta's nonzero nibbles (0 = low nibble), ascending."""
        return tuple(pos for pos in range(self.output_diff.bit_length() // NIBBLE_BITS + 1)
                     if (self.output_diff >> (NIBBLE_BITS * pos)) & 0xF)

    @property
    def subkey_bits(self) -> int:
        return NIBBLE_BITS * len(self.active_sboxes)


@dataclass(frozen=True, eq=False)
class PairSet:
    """The chosen-plaintext pairs (P_i, P_i ^ P') with their ciphertexts, as
    read-only int64 copies of the given columns; pair j is row j."""

    index_bits: int
    plaintext_diff: int
    p1: np.ndarray
    p2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray

    @property
    def num_pairs(self) -> int:
        return len(self.p1)

    def __post_init__(self):
        for name in ("p1", "p2", "c1", "c2"):
            col = np.array(getattr(self, name), dtype=np.int64)
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if self.p1.ndim != 1 or {self.p2.shape, self.c1.shape, self.c2.shape} != {self.p1.shape}:
            raise ValueError("pair columns must be 1-D and of equal length")
        # N is a power of two; an entirely empty set is allowed as a degenerate input
        if self.num_pairs and self.num_pairs != 1 << self.index_bits:
            raise ValueError("pair count must equal 2**index_bits")
        if np.any(self.p1 ^ self.p2 != self.plaintext_diff):
            raise ValueError("pair plaintext difference mismatch")


def encrypt_codebook(cipher: ToyCipher, key: int) -> np.ndarray:
    """The codebook of one master key, E[p] = encrypt(key, p) for every block
    p, from one encryption; every pair set of the key is a gather from it."""
    return cipher.encrypt(key, np.arange(cipher.block_size))


def codebook_pairs(cipher: ToyCipher, codebook: np.ndarray, plaintext_diff: int,
                   index_bits: int) -> PairSet:
    """The N = 2**index_bits pairs (j, j ^ P'), j < N, with their ciphertexts
    read from ``codebook`` (the key's ``encrypt_codebook``)."""
    if plaintext_diff == 0:
        raise ValueError("degenerate zero plaintext difference")
    cipher._check_block(plaintext_diff, "plaintext difference")
    if index_bits < 1 or (1 << index_bits) > cipher.block_size:
        raise ValueError(f"index_bits {index_bits} outside block capacity")
    p1 = np.arange(1 << index_bits)
    p2 = p1 ^ plaintext_diff
    return PairSet(index_bits, plaintext_diff, p1, p2, codebook[:len(p1)], codebook[p2])


def gen_pairs(cipher: ToyCipher, key: int, plaintext_diff: int, index_bits: int) -> PairSet:
    """Query the cryptosystem for N = 2**index_bits pairs with difference P'."""
    return codebook_pairs(cipher, encrypt_codebook(cipher, key), plaintext_diff, index_bits)


def _split_subkey(ch: Characteristic, x: int) -> dict[int, int]:
    # 4 bits of x per active S-box, lowest position first
    out = {}
    for i, pos in enumerate(ch.active_sboxes):
        out[pos] = (x >> (NIBBLE_BITS * i)) & 0xF
    return out


def true_subkey(cipher: ToyCipher, key: int, ch: Characteristic) -> int:
    """The planted value of the attacked last-round key bits."""
    last = cipher.last_round_key(key)
    z = 0
    for i, pos in enumerate(ch.active_sboxes):
        z |= ((last >> (NIBBLE_BITS * pos)) & 0xF) << (NIBBLE_BITS * i)
    return z


def _pair_is_right(cipher: ToyCipher, ch: Characteristic, x: int,
                   ct_pair: tuple[int, int]) -> bool:
    """One-round trial decryption check of a ciphertext pair under guess x."""
    c1, c2 = ct_pair
    guesses = _split_subkey(ch, x)
    inv_s = np.argsort(cipher.sbox)
    delta = ch.output_diff
    for pos in range(cipher.num_sboxes):
        shift = NIBBLE_BITS * pos
        n1, n2 = (c1 >> shift) & 0xF, (c2 >> shift) & 0xF
        if pos in guesses:
            if inv_s[n1 ^ guesses[pos]] ^ inv_s[n2 ^ guesses[pos]] != (delta >> shift) & 0xF:
                return False
        elif n1 ^ n2 != 0:
            # zero expected difference must already show in the ciphertexts
            return False
    return True


def is_right_pair(cipher: ToyCipher, ch: Characteristic, x: int, j: int,
                  pairs: PairSet) -> int:
    """e(x, j): 1 iff pair j is a right pair of subkey x.

    The index space is padded to 2N: indices j >= N never mark.
    """
    n_pairs = pairs.num_pairs
    if not 0 <= j < 2 * n_pairs:
        raise ValueError(f"pair index {j} outside padded index space [0, {2*n_pairs})")
    if x < 0 or x >= (1 << ch.subkey_bits):
        raise ValueError(f"subkey {x} outside [0, {1 << ch.subkey_bits})")
    if j >= n_pairs:
        return 0
    return int(_pair_is_right(cipher, ch, x, (int(pairs.c1[j]), int(pairs.c2[j]))))


def _last_round_differences(cipher: ToyCipher, active: Sequence[int],
                            pairs: PairSet) -> tuple[np.ndarray, np.ndarray]:
    """Trial decryption of the last S-box layer under every subkey guess x:
    (K, N) inverse-S-box differences of the active S-boxes, packed at their
    nibble positions, and the (N,) mask of pairs quiet on every other S-box."""
    inv_s = np.argsort(cipher.sbox).astype(np.uint16)
    guesses = np.arange(16)[:, None]
    diff = np.zeros((1, pairs.num_pairs), dtype=np.uint16)
    quiet = np.ones(pairs.num_pairs, dtype=bool)
    for pos in range(cipher.num_sboxes):
        shift = NIBBLE_BITS * pos
        n1, n2 = (pairs.c1 >> shift) & 0xF, (pairs.c2 >> shift) & 0xF
        if pos in active:
            nib = (inv_s[n1 ^ guesses] ^ inv_s[n2 ^ guesses]) << shift
            # the guess for a higher S-box is the more significant nibble of x
            diff = (nib[:, None, :] | diff[None, :, :]).reshape(16 * len(diff), pairs.num_pairs)
        else:
            quiet &= n1 == n2
    return diff, quiet


def right_pair_table(cipher: ToyCipher, ch: Characteristic, pairs: PairSet) -> np.ndarray:
    """Boolean e(x, j) for every subkey x (rows) over the padded index space
    [0, 2N) (columns), from one trial decryption of all pairs."""
    diff, quiet = _last_round_differences(cipher, ch.active_sboxes, pairs)
    right = (diff == ch.output_diff) & quiet
    return np.concatenate([right, np.zeros_like(right)], axis=1)


@dataclass(frozen=True)
class AttackContext:
    """Everything the oracles need: cipher, characteristic and the pair data."""

    cipher: ToyCipher
    characteristic: Characteristic
    pairs: PairSet

    @cached_property
    def table(self) -> np.ndarray:
        """The read-only (K, 2N) right-pair table, built on first use."""
        table = right_pair_table(self.cipher, self.characteristic, self.pairs)
        table.flags.writeable = False
        return table

    def marked_table(self, x: int) -> np.ndarray:
        """Row x of the read-only right-pair table: e(x, .) over [0, 2N)."""
        return self.table[x]

    @property
    def subkey_bits(self) -> int:
        return self.characteristic.subkey_bits

    @property
    def index_bits(self) -> int:
        return self.pairs.index_bits


# ---- characteristic construction --------------------------------------


def difference_distribution_table(sbox: Sequence[int]) -> np.ndarray:
    """DDT[dx][dy] = #{v : S[v] ^ S[v ^ dx] == dy}."""
    sbox = np.asarray(sbox)
    ddt = np.zeros((16, 16), dtype=np.int64)
    v = np.arange(16)
    for dx in range(16):
        np.add.at(ddt[dx], sbox[v] ^ sbox[v ^ dx], 1)
    return ddt


def measure_probability(cipher: ToyCipher, key: int, ch: Characteristic, *,
                        codebook: np.ndarray | None = None) -> float:
    """Exact right-pair frequency of the true subkey over the full codebook.

    Every pair (p, p ^ P') is trial-decrypted through the last S-box layer
    under the true last round key alone, which is row z of ``right_pair_table``
    without the other K - 1 rows: on an S-box that delta leaves quiet, equal
    inverse S-box outputs need equal ciphertext nibbles under any key.
    ``codebook`` is the key's ``encrypt_codebook``, if the caller holds it.
    """
    cipher._check_block(ch.plaintext_diff, "plaintext difference")
    if codebook is None:
        codebook = encrypt_codebook(cipher, key)
    # inputs of the last S-box layer, each XORed with the same round key
    u = cipher._isub[codebook ^ cipher.last_round_key(key)]
    partner = u[np.arange(cipher.block_size) ^ ch.plaintext_diff]
    return np.count_nonzero((u ^ partner) == ch.output_diff) / cipher.block_size


class ZeroProbabilityError(ValueError):
    """The characteristic has no right pair of the true subkey under this key."""


def make_characteristic(cipher: ToyCipher, key: int, plaintext_diff: int, delta: int, *,
                        codebook: np.ndarray | None = None) -> Characteristic:
    """Build the characteristic (P', delta) and measure its exact p (see
    ``measure_probability`` for ``codebook``)."""
    cipher._check_block(delta, "expected difference")
    p = measure_probability(cipher, key, Characteristic(plaintext_diff, delta, 1.0),
                            codebook=codebook)
    if p == 0:
        raise ZeroProbabilityError("characteristic has zero probability for this key")
    return Characteristic(plaintext_diff, delta, p)


def default_characteristic(cipher: ToyCipher, key: int) -> Characteristic:
    """The stock single-S-box characteristic, with p measured for this key."""
    return make_characteristic(cipher, key, DEFAULT_PLAINTEXT_DIFF, DEFAULT_OUTPUT_DIFF)


def find_characteristic(cipher: ToyCipher, key: int, subkey_bits: int = 4,
                        index_bits: int = 6) -> Characteristic:
    """Exhaustive build-time search for the strongest planted characteristic.

    Ranks (P', delta) by count separation (true subkey count minus best
    wrong-subkey count) on the canonical n-bit pair set, breaking ties by
    the true count; only delta with a nonzero true count are ranked. Only
    differences reachable per the S-box DDT are tried: delta = lo | hi << 4
    over ascending reachable nibbles, lo-major (just lo when subkey_bits is
    4). Among equal scores the first P' (ascending) wins, then the first
    delta in that order.
    """
    if subkey_bits not in (4, 8) or subkey_bits > cipher.block_width:
        raise ValueError("subkey_bits must be 4 or 8 and fit the block")
    active = (0,) if subkey_bits == 4 else (0, 1)
    K = 1 << subkey_bits
    ddt = difference_distribution_table(cipher.sbox)
    reachable = [d for d in range(1, 16) if ddt[:, d].sum() > ddt[0, d]]
    deltas = np.array(reachable if subkey_bits == 4 else
                      [lo | hi << NIBBLE_BITS for lo in reachable for hi in reachable])
    z = cipher.last_round_key(key) & (K - 1)   # the active S-boxes are the low ones
    N = 1 << index_bits
    codebook = encrypt_codebook(cipher, key)
    best = None
    for p_diff in range(1, cipher.block_size):
        pairs = codebook_pairs(cipher, codebook, p_diff, index_bits)
        diff, quiet = _last_round_differences(cipher, active, pairs)
        # counts[x, d]: right pairs of subkey x under the expected difference d
        counts = np.bincount((np.arange(K)[:, None] * K + diff[:, quiet]).ravel(),
                             minlength=K * K).reshape(K, K)[:, deltas]
        true = counts[z]
        sep = true - np.delete(counts, z, axis=0).max(axis=0)
        # (sep, true) in lexicographic order, as 0 <= true <= N; argmax takes the first
        i = int(np.argmax(np.where(true > 0, sep * (N + 1) + true, -(N + 1) ** 2)))
        if true[i] > 0 and (best is None or (sep[i], true[i]) > best[0]):
            best = ((sep[i], true[i]), p_diff, int(deltas[i]))
    if best is None:
        raise ValueError("no usable characteristic found")
    _, p_diff, delta = best
    return make_characteristic(cipher, key, p_diff, delta, codebook=codebook)


# ---- JSON-style configuration -----------------------------------------


def cipher_from_dict(doc: dict) -> ToyCipher:
    """Cipher from a config document (sbox as 16 hex digits, pbox index list)."""
    _refuse_unknown_keys(doc, "cipher_doc", ("sbox", "pbox", "rounds", "key_schedule",
                                             "block_width"))
    kwargs = {}
    if "sbox" in doc:
        s = doc["sbox"]
        if isinstance(s, str):
            if len(s) != 16:
                raise ValueError("sbox string must be 16 hex digits")
            s = [int(c, 16) for c in s]
        kwargs["sbox"] = tuple(s)
    if "pbox" in doc:
        kwargs["pbox"] = tuple(doc["pbox"])
    for name in ("rounds", "key_schedule", "block_width"):
        if name in doc:
            if name != "key_schedule" and not _is_integer(doc[name]):
                raise ValueError(f"{name} must be an integer, got {doc[name]!r}")
            kwargs[name] = doc[name]
    return ToyCipher(**kwargs)


def characteristic_from_dict(doc: dict, cipher: ToyCipher, key: int, *,
                             codebook: np.ndarray | None = None) -> Characteristic:
    """Characteristic from a config document; p is measured, and a stated p must
    match (see ``measure_probability`` for ``codebook``)."""
    _refuse_unknown_keys(doc, "characteristic_doc", ("plaintext_diff", "output_diff",
                                                     "probability"))
    ch = make_characteristic(cipher, key,
                             _parse_hex(doc, "plaintext_diff", DEFAULT_PLAINTEXT_DIFF),
                             _parse_hex(doc, "output_diff", DEFAULT_OUTPUT_DIFF),
                             codebook=codebook)
    if "probability" in doc and float(doc["probability"]) != ch.probability:
        raise ValueError(f"stated probability {doc['probability']} differs from the "
                         f"measured {ch.probability} for key {key:#04x}")
    return ch


def _refuse_unknown_keys(doc: dict, name: str, known: tuple[str, ...]):
    unknown = set(doc) - set(known)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _parse_hex(doc: dict, name: str, default: int) -> int:
    value = doc.get(name, default)
    if isinstance(value, str):
        return int(value, 16)
    if not _is_integer(value):
        raise ValueError(f"{name} must be a hex string or an integer, got {value!r}")
    return int(value)

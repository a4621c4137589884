"""Toy SPN block cipher, differential characteristics and the right-pair predicate.

The cipher is a classic substitution-permutation network on a 4- to 16-bit
block, 8 by default, of parallel 4-bit S-boxes (low nibble = bits 0..3).
Each round XORs a round key and applies the S-box layer; every round except
the last is followed by a bit permutation, and a final whitening key is
XORed after the last round. Round key r is the master key rotated left by r
bits. The last round key (the whitening key) is the attack target.

A characteristic document names a differential (P', delta) and nothing else:
delta's nonzero nibbles are the attacked S-boxes, so they fix k, and p is
measured for each key from its codebook, never read from the document.

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


@dataclass(frozen=True)
class ToyCipher:
    """SPN instance: S-box table, bit permutation, round count, block width."""

    sbox: tuple[int, ...] = DEFAULT_SBOX
    pbox: tuple[int, ...] | None = None   # None: default_pbox(block_width)
    rounds: int = 4
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
        size = 1 << self.block_width
        xs = np.arange(size)
        sub = np.zeros(size, dtype=np.int64)
        for shift in range(0, self.block_width, NIBBLE_BITS):
            sub |= np.asarray(self.sbox)[(xs >> shift) & 0xF] << shift
        perm = np.zeros(size, dtype=np.int64)
        for i, dest in enumerate(self.pbox):
            perm |= ((xs >> i) & 1) << dest
        object.__setattr__(self, "_sub", sub)
        object.__setattr__(self, "_sub_perm", perm[sub])   # an inner round after its key
        object.__setattr__(self, "_isub", np.argsort(sub))
        # S^-1(a ^ x) ^ S^-1(b ^ x) for guess x (row) and ciphertext nibbles
        # a, b (column a << 4 | b): one S-box's trial decryption under any key
        inv_s = np.argsort(self.sbox).astype(np.uint8)
        guesses, ab = np.arange(16)[:, None], np.arange(256)
        nibble_diffs = inv_s[(ab >> NIBBLE_BITS) ^ guesses] ^ inv_s[(ab & 0xF) ^ guesses]
        nibble_diffs.flags.writeable = False
        object.__setattr__(self, "_nibble_diffs", nibble_diffs)

    # ---- layers -------------------------------------------------------

    @property
    def num_sboxes(self) -> int:
        return self.block_width // NIBBLE_BITS

    @property
    def block_size(self) -> int:
        return 1 << self.block_width

    def round_keys(self, master: int) -> tuple[int, ...]:
        self._check_block(master, "key")
        return tuple(rotl(master, r, self.block_width) for r in range(self.rounds + 1))

    def last_round_key(self, master: int) -> int:
        """``round_keys(master)[rounds]``, without the other rotations."""
        self._check_block(master, "key")
        return rotl(master, self.rounds, self.block_width)

    def _check_block(self, value, what: str):
        if isinstance(value, int):   # a Python int (or bool) needs no array
            inside = 0 <= value < self.block_size
        else:
            v = np.asarray(value)
            inside = v.size == 0 or (v.min() >= 0 and v.max() < self.block_size)
        if not inside:
            raise ValueError(f"{what} out of range for {self.block_width}-bit block")

    # ---- encryption ---------------------------------------------------

    def encrypt(self, key: int, pt):
        """Encrypt a block (or numpy array of blocks) under the master key."""
        self._check_block(pt, "plaintext")
        keys = self.round_keys(key)
        state = np.asarray(pt)
        for r in range(self.rounds - 1):
            state = self._sub_perm[state ^ keys[r]]
        state = self._sub[state ^ keys[-2]] ^ keys[-1]
        return int(state) if np.isscalar(pt) or np.ndim(pt) == 0 else state


def active_sboxes(delta: int) -> tuple[int, ...]:
    """Positions of delta's nonzero nibbles (0 = low nibble), ascending: the
    S-boxes whose last round key bits a characteristic with delta recovers."""
    return tuple(pos for pos in range(delta.bit_length() // NIBBLE_BITS + 1)
                 if (delta >> (NIBBLE_BITS * pos)) & 0xF)


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
        return active_sboxes(self.output_diff)

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
    table = np.zeros((len(diff), 2 * pairs.num_pairs), dtype=bool)
    right = table[:, :pairs.num_pairs]   # a view: the table is the only (K, .) bool array
    np.equal(diff, ch.output_diff, out=right)
    right &= quiet
    return table


# pairs per chunk of right_pair_counts: its (K, chunk) marks stay near 1 MiB
_COUNT_CHUNK_CELLS = 1 << 20


def right_pair_counts(cipher: ToyCipher, ch: Characteristic, pairs: PairSet) -> np.ndarray:
    """Read-only (K,) int64 right-pair counts, counts[x] = #{j < N : e(x, j)},
    the row sums of ``right_pair_table`` without the table.

    Only pairs whose ciphertexts agree on every S-box that delta leaves quiet
    can be right. Each active S-box's trial decryption under guess x is read
    from the cipher's key-independent nibble table, one gather per S-box, and
    the marks of the S-boxes are combined by an outer product, x's higher
    nibble on the higher S-box, over chunks of pairs, so that no array is
    (K, N)."""
    active = ch.active_sboxes
    quiet_mask = sum(0xF << (NIBBLE_BITS * pos) for pos in range(cipher.num_sboxes)
                     if pos not in active)
    quiet = ((pairs.c1 ^ pairs.c2) & quiet_mask) == 0
    c1, c2 = pairs.c1[quiet], pairs.c2[quiet]
    counts = np.zeros(1 << ch.subkey_bits, dtype=np.int64)
    chunk = max(1, _COUNT_CHUNK_CELLS >> ch.subkey_bits)
    for start in range(0, len(c1), chunk):
        a, b = c1[start:start + chunk], c2[start:start + chunk]
        marked = None
        for pos in active:
            shift = NIBBLE_BITS * pos
            ab = ((a >> shift) & 0xF) << NIBBLE_BITS | ((b >> shift) & 0xF)
            right = cipher._nibble_diffs.take(ab, axis=1) == (ch.output_diff >> shift) & 0xF
            marked = right if marked is None else (
                right[:, None, :] & marked[None, :, :]).reshape(-1, len(a))
        counts += marked.sum(axis=1)
    counts.flags.writeable = False
    return counts


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

    @cached_property
    def counts(self) -> np.ndarray:
        """The read-only (K,) int64 right-pair counts, counted once by
        ``right_pair_counts``, without building ``table``."""
        return right_pair_counts(self.cipher, self.characteristic, self.pairs)

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


def _probe(cipher: ToyCipher, plaintext_diff: int, delta: int) -> Characteristic:
    """(P', delta) at p = 1, refused unless both lie in the block, P' is
    nonzero and delta activates an S-box."""
    cipher._check_block(delta, "expected difference")
    cipher._check_block(plaintext_diff, "plaintext difference")
    return Characteristic(plaintext_diff, delta, 1.0)


def make_characteristic(cipher: ToyCipher, key: int, plaintext_diff: int, delta: int, *,
                        codebook: np.ndarray | None = None) -> Characteristic:
    """Build the characteristic (P', delta) and measure its exact p (see
    ``measure_probability`` for ``codebook``)."""
    p = measure_probability(cipher, key, _probe(cipher, plaintext_diff, delta),
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
    _refuse_unknown_keys(doc, "cipher_doc", ("sbox", "pbox", "rounds", "block_width"))
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
    for name in ("rounds", "block_width"):
        if name in doc:
            if not _is_integer(doc[name]):
                raise ValueError(f"{name} must be an integer, got {doc[name]!r}")
            kwargs[name] = doc[name]
    return ToyCipher(**kwargs)


def differential_from_dict(doc: dict, cipher: ToyCipher) -> tuple[int, int]:
    """(P', delta) from a characteristic document, checked against the block
    without a key; ``make_characteristic`` measures p for each key."""
    _refuse_unknown_keys(doc, "characteristic_doc", ("plaintext_diff", "output_diff"))
    probe = _probe(cipher, _parse_hex(doc, "plaintext_diff", DEFAULT_PLAINTEXT_DIFF),
                   _parse_hex(doc, "output_diff", DEFAULT_OUTPUT_DIFF))
    return probe.plaintext_diff, probe.output_diff


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

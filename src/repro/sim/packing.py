"""Bit-packing utilities for 64-way parallel-pattern simulation.

Vectors are packed along ``uint64`` words: bit *i* of word *w* holds the
value under test vector ``64*w + i``.  A :class:`PatternSet` stores the
primary-input stimulus in that packed form plus the metadata (vector
count, tail mask) that counting utilities need.
"""

from __future__ import annotations

import sys

import numpy as np

from ..errors import SimulationError

WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_LITTLE_ENDIAN = sys.byteorder == "little"

# numpy >= 2.0 ships a native popcount; otherwise use a 16-bit table.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
if not _HAS_BITWISE_COUNT:  # pragma: no cover - depends on numpy version
    _POP16 = np.array([bin(i).count("1") for i in range(1 << 16)],
                      dtype=np.uint8)


def num_words(nbits: int) -> int:
    """Words needed to hold ``nbits`` packed bits."""
    return (nbits + WORD_BITS - 1) // WORD_BITS


def tail_mask(nbits: int) -> np.uint64:
    """Mask of valid bits in the final word of an ``nbits`` stream."""
    rem = nbits % WORD_BITS
    if rem == 0:
        return _ALL_ONES
    return np.uint64((1 << rem) - 1)


def const_row(value: int, nwords: int) -> np.ndarray:
    """A packed row holding ``value`` (0 or 1) under every vector, e.g.
    the forced words of a stuck-at line."""
    return np.full(nwords, _ALL_ONES if value else 0, dtype=np.uint64)


def popcount(words: np.ndarray) -> int:
    """Total number of set bits across ``words`` (any shape)."""
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(words).sum())
    w = words.reshape(-1).view(np.uint64)
    total = 0
    for shift in (0, 16, 32, 48):
        total += int(_POP16[(w >> np.uint64(shift))
                            & np.uint64(0xFFFF)].sum())
    return total


def row_popcounts(matrix: np.ndarray) -> np.ndarray:
    """Set bits per row of a 2-D word matrix, as an int64 vector."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(matrix).sum(axis=1, dtype=np.int64)
    return np.array([popcount(row) for row in matrix], dtype=np.int64)


def _words_to_le_bytes(words: np.ndarray) -> np.ndarray:
    """Reinterpret packed words as their little-endian byte stream."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        words = words.byteswap()
    return words.view(np.uint8)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (signals x nbits) 0/1 array into (signals x words) uint64.

    Vectorized via :func:`numpy.packbits` with ``bitorder="little"`` so
    bit *i* of word *w* is vector ``64*w + i`` — the byte stream is then
    viewed as little-endian ``uint64`` words (byte-swapped on big-endian
    hosts).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim == 1:
        bits = bits[np.newaxis, :]
    nsig, nbits = bits.shape
    nwords = num_words(nbits)
    packed = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((nsig, nwords * 8), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    words = out.view(np.uint64)
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        words = words.byteswap()
    return np.ascontiguousarray(words)


def unpack_bits(words: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: (signals x words) -> (signals x nbits)."""
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim == 1:
        words = words[np.newaxis, :]
    nsig = words.shape[0]
    if nbits > words.shape[1] * WORD_BITS:
        raise SimulationError(
            f"cannot unpack {nbits} bits from {words.shape[1]} word(s)")
    data = _words_to_le_bytes(words).reshape(nsig, -1)
    return np.unpackbits(data, axis=1, count=nbits, bitorder="little")


def bit_indices(words: np.ndarray, nbits: int) -> list[int]:
    """Indices of set bits (vector numbers) in a packed 1-D stream.

    The stream must be tail-masked: a set bit at position >= ``nbits``
    (tail padding of the last word, or any whole word beyond it) raises
    :class:`SimulationError` instead of being silently skipped — it
    means some producer forgot to mask the padding the NOT-like gates
    flip, and counting code downstream would be corrupted too.
    """
    flat = np.ascontiguousarray(np.asarray(words, dtype=np.uint64)
                                .reshape(-1))
    nwords = num_words(nbits)
    head = flat[:nwords]
    stray = 0
    if flat.size >= nwords and nwords:
        stray = int(head[-1] & ~tail_mask(nbits))
    if flat[nwords:].size:
        stray |= int(np.bitwise_or.reduce(flat[nwords:]))
    if stray:
        raise SimulationError(
            f"bit_indices: set bits beyond nbits={nbits} "
            "(unmasked tail padding?)")
    count = min(nbits, head.size * WORD_BITS)
    if count == 0:
        return []
    bits = np.unpackbits(_words_to_le_bytes(head), count=count,
                         bitorder="little")
    return np.flatnonzero(bits).tolist()


class PatternSet:
    """A packed set of input test vectors for a fixed number of PIs."""

    def __init__(self, words: np.ndarray, nbits: int):
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise SimulationError("PatternSet expects a 2-D word array")
        if words.shape[1] != num_words(nbits):
            raise SimulationError(
                f"word count {words.shape[1]} does not match "
                f"{nbits} vectors")
        self.words = words
        self.nbits = nbits

    @property
    def num_inputs(self) -> int:
        return self.words.shape[0]

    @property
    def num_words(self) -> int:
        return self.words.shape[1]

    def __len__(self) -> int:
        return self.nbits

    @classmethod
    def from_vectors(cls, vectors) -> "PatternSet":
        """Build from an iterable of 0/1 sequences (one per vector)."""
        mat = np.asarray(list(vectors), dtype=np.uint8)
        if mat.ndim != 2:
            raise SimulationError("expected a 2-D vector array")
        return cls(pack_bits(mat.T), mat.shape[0])

    @classmethod
    def random(cls, num_inputs: int, nbits: int, seed: int = 0,
               one_probability: float = 0.5) -> "PatternSet":
        """Uniform (or weighted) random patterns."""
        rng = np.random.default_rng(seed)
        bits = (rng.random((num_inputs, nbits)) < one_probability)
        return cls(pack_bits(bits.astype(np.uint8)), nbits)

    @classmethod
    def exhaustive(cls, num_inputs: int) -> "PatternSet":
        """All 2^n vectors (n <= 20 guards accidental blow-ups)."""
        if num_inputs > 20:
            raise SimulationError(
                f"refusing exhaustive pattern set for {num_inputs} inputs")
        nbits = 1 << num_inputs
        codes = np.arange(nbits, dtype=np.uint32)
        shifts = np.arange(num_inputs, dtype=np.uint32)[:, np.newaxis]
        bits = ((codes >> shifts) & 1).astype(np.uint8)
        return cls(pack_bits(bits), nbits)

    def vector(self, index: int) -> np.ndarray:
        """Unpacked 0/1 values of vector ``index`` (one per PI)."""
        if not 0 <= index < self.nbits:
            raise SimulationError(f"vector index {index} out of range")
        w, b = divmod(index, WORD_BITS)
        return ((self.words[:, w] >> np.uint64(b)) & np.uint64(1)
                ).astype(np.uint8)

    def concat(self, other: "PatternSet") -> "PatternSet":
        """Concatenate two pattern sets over the same inputs.

        Splices the packed words directly: ``other``'s stream is shifted
        by ``self.nbits % 64`` across word boundaries and OR-ed in after
        ``self``'s (tail-masked) last word — no unpack/repack round-trip.
        """
        if other.num_inputs != self.num_inputs:
            raise SimulationError("input count mismatch in concat")
        n1, n2 = self.nbits, other.nbits
        total = num_words(n1 + n2)
        out = np.zeros((self.num_inputs, total), dtype=np.uint64)
        w1 = self.words.shape[1]
        out[:, :w1] = self.words
        if w1:
            out[:, w1 - 1] &= tail_mask(n1)
        if n2 == 0:
            return PatternSet(out, n1 + n2)
        o = np.array(other.words, dtype=np.uint64, copy=True)
        o[:, -1] &= tail_mask(n2)
        rem = n1 % WORD_BITS
        if rem == 0:
            out[:, w1:w1 + o.shape[1]] = o
        else:
            low = o << np.uint64(rem)           # into the shared word
            high = o >> np.uint64(WORD_BITS - rem)  # spill into the next
            out[:, w1 - 1] |= low[:, 0]
            ndest = total - w1                  # words after the shared one
            if ndest:
                out[:, w1:] = high[:, :ndest]
                out[:, w1:w1 + o.shape[1] - 1] |= low[:, 1:]
        return PatternSet(out, n1 + n2)

    def tail_mask(self) -> np.uint64:
        return tail_mask(self.nbits)

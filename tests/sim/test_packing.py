"""Bit packing, popcount, and PatternSet."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.packing import (PatternSet, WORD_BITS, bit_indices,
                               num_words, pack_bits, popcount,
                               row_popcounts, tail_mask, unpack_bits)


def test_num_words():
    assert num_words(0) == 0
    assert num_words(1) == 1
    assert num_words(64) == 1
    assert num_words(65) == 2
    assert num_words(128) == 2


def test_tail_mask():
    assert int(tail_mask(64)) == 0xFFFFFFFFFFFFFFFF
    assert int(tail_mask(1)) == 1
    assert int(tail_mask(3)) == 0b111
    assert int(tail_mask(128)) == 0xFFFFFFFFFFFFFFFF


def test_popcount_known_values():
    assert popcount(np.array([0], dtype=np.uint64)) == 0
    assert popcount(np.array([0xFF, 0x1], dtype=np.uint64)) == 9
    assert popcount(np.full(10, 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)) \
        == 640


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
def test_popcount_matches_python(words):
    arr = np.array(words, dtype=np.uint64)
    assert popcount(arr) == sum(bin(w).count("1") for w in words)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2**64 - 1), min_size=3,
                         max_size=3), min_size=1, max_size=6))
def test_row_popcounts_match_popcount_per_row(rows):
    matrix = np.array(rows, dtype=np.uint64)
    counts = row_popcounts(matrix)
    assert counts.dtype == np.int64
    assert counts.tolist() == [popcount(row) for row in matrix]


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(1, 200), st.integers(0, 2**31))
def test_pack_unpack_roundtrip(nsig, nbits, seed):
    rng = np.random.default_rng(seed)
    bits = (rng.random((nsig, nbits)) < 0.5).astype(np.uint8)
    packed = pack_bits(bits)
    assert packed.shape == (nsig, num_words(nbits))
    assert np.array_equal(unpack_bits(packed, nbits), bits)


def test_bit_indices():
    words = np.array([0b1011, 0], dtype=np.uint64)
    assert bit_indices(words, 128) == [0, 1, 3]
    # unmasked tails are a producer bug and are rejected loudly
    words = np.array([1 << 63], dtype=np.uint64)
    with pytest.raises(SimulationError, match="beyond nbits"):
        bit_indices(words, 10)
    # ... including whole words beyond num_words(nbits)
    words = np.array([1, 1], dtype=np.uint64)
    with pytest.raises(SimulationError, match="beyond nbits"):
        bit_indices(words, 64)
    assert bit_indices(np.array([1, 0], dtype=np.uint64), 64) == [0]


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 150), st.integers(0, 2**31))
def test_bit_indices_matches_loop(nbits, seed):
    rng = np.random.default_rng(seed)
    bits = (rng.random(nbits) < 0.3).astype(np.uint8)
    packed = pack_bits(bits)[0]
    expected = [i for i in range(nbits) if bits[i]]
    assert bit_indices(packed, nbits) == expected


def test_pattern_set_from_vectors():
    pats = PatternSet.from_vectors([[0, 1], [1, 1], [1, 0]])
    assert pats.nbits == 3
    assert pats.num_inputs == 2
    assert list(pats.vector(0)) == [0, 1]
    assert list(pats.vector(2)) == [1, 0]


def test_pattern_set_vector_bounds():
    pats = PatternSet.from_vectors([[0, 1]])
    with pytest.raises(SimulationError):
        pats.vector(5)


def test_pattern_set_random_deterministic():
    a = PatternSet.random(4, 100, seed=3)
    b = PatternSet.random(4, 100, seed=3)
    c = PatternSet.random(4, 100, seed=4)
    assert np.array_equal(a.words, b.words)
    assert not np.array_equal(a.words, c.words)


def test_pattern_set_random_bias():
    dense = PatternSet.random(2, 2048, seed=1, one_probability=0.9)
    ones = popcount(dense.words[:, :-1]) \
        + popcount(dense.words[:, -1] & dense.tail_mask())
    assert ones / (2 * 2048) > 0.85


def test_pattern_set_exhaustive():
    pats = PatternSet.exhaustive(3)
    assert pats.nbits == 8
    seen = {tuple(pats.vector(v)) for v in range(8)}
    assert len(seen) == 8
    with pytest.raises(SimulationError):
        PatternSet.exhaustive(21)


def test_pattern_set_concat():
    a = PatternSet.from_vectors([[0, 0], [1, 1]])
    b = PatternSet.from_vectors([[1, 0]])
    both = a.concat(b)
    assert both.nbits == 3
    assert list(both.vector(2)) == [1, 0]
    mismatched = PatternSet.from_vectors([[1, 0, 1]])
    with pytest.raises(SimulationError):
        a.concat(mismatched)


@pytest.mark.parametrize("n1,n2", [
    (1, 1), (63, 1), (1, 63), (63, 65), (65, 63), (37, 91),
    (64, 64), (64, 3), (3, 64), (100, 28), (127, 129),
])
def test_pattern_set_concat_unaligned(n1, n2):
    """Packed-word splicing agrees with bit-level concatenation when
    neither side is a multiple of 64."""
    rng = np.random.default_rng(n1 * 1000 + n2)
    a_bits = (rng.random((3, n1)) < 0.5).astype(np.uint8)
    b_bits = (rng.random((3, n2)) < 0.5).astype(np.uint8)
    a = PatternSet(pack_bits(a_bits), n1)
    b = PatternSet(pack_bits(b_bits), n2)
    both = a.concat(b)
    assert both.nbits == n1 + n2
    expected = np.concatenate([a_bits, b_bits], axis=1)
    assert np.array_equal(unpack_bits(both.words, n1 + n2), expected)
    # tail padding of the result is clean
    assert int(both.words[:, -1].max() & ~both.tail_mask()) == 0


def test_pattern_set_concat_ignores_dirty_tails():
    """Junk in either operand's tail padding must not leak through."""
    a = PatternSet.random(2, 37, seed=5)
    b = PatternSet.random(2, 91, seed=6)
    expected = a.concat(b)
    wa = a.words.copy()
    wa[:, -1] |= ~np.uint64(tail_mask(37))
    wb = b.words.copy()
    wb[:, -1] |= ~np.uint64(tail_mask(91))
    got = PatternSet(wa, 37).concat(PatternSet(wb, 91))
    assert np.array_equal(got.words, expected.words)


def test_pattern_set_shape_validation():
    with pytest.raises(SimulationError):
        PatternSet(np.zeros((2, 3), dtype=np.uint64), 64)  # word mismatch
    with pytest.raises(SimulationError):
        PatternSet(np.zeros(4, dtype=np.uint64), 64)  # 1-D

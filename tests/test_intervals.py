"""Tests for the interval-summand module representation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcohom.errors import InvalidInputError
from orbitcohom.intervals import (INFINITE, IntervalModule, free_module,
                                  from_mask, runs)


def test_free_module_dimensions():
    m = free_module(1)
    assert all(m.dimension_at(k) == 1 for k in range(20))
    assert m.has_infinite() and m.max_degree() is None
    m2 = free_module(2, rank=3)
    assert m2.dimension_at(4) == 3
    assert m2.dimension_at(3) == 0


def test_finite_interval():
    m = IntervalModule(1, ((0, 4),))
    assert [m.dimension_at(k) for k in range(6)] == [1, 1, 1, 1, 0, 0]
    assert m.max_degree() == 3
    assert not m.has_infinite() and not m.is_zero()


def test_step_two_support():
    m = IntervalModule(2, ((0, 3),))
    assert [m.dimension_at(k) for k in range(7)] == [1, 0, 1, 0, 1, 0, 0]
    assert m.max_degree() == 4


def test_zero_module():
    m = IntervalModule(1, ())
    assert m.is_zero()
    assert m.max_degree() == -1


def test_canonical_summand_order():
    a = IntervalModule(1, ((3, 2), (0, 1)))
    b = IntervalModule(1, ((0, 1), (3, 2)))
    assert a == b
    c = IntervalModule(1, [(3, 2), (0, INFINITE), (0, 1)])
    assert c.summands == ((0, 1), (0, INFINITE), (3, 2))
    d = IntervalModule(1, ((0, INFINITE), (3, 2), (0, 1)))
    assert c == d and hash(c) == hash(d)
    assert c != IntervalModule(2, d.summands)


def test_invalid_summands():
    with pytest.raises(InvalidInputError):
        IntervalModule(0, ())
    with pytest.raises(InvalidInputError):
        IntervalModule(1, ((-1, 2),))
    with pytest.raises(InvalidInputError):
        IntervalModule(1, ((0, 0),))


def test_from_mask_merges_runs():
    m = from_mask(1, 0b1100111, 10)
    assert m.summands == ((0, 3), (5, 2))
    m2 = from_mask(2, 0b1011, 10)
    assert m2.summands == ((0, 2), (6, 1))


def test_from_mask_tail():
    # bit 2 is the threshold: its run continues forever
    m = from_mask(1, 0b111, 2)
    assert m.summands == ((0, INFINITE),)
    m2 = from_mask(1, 0b1001, 3)
    assert m2.summands == ((0, 1), (3, INFINITE))
    # bits above the threshold are ignored
    assert from_mask(1, 0b110001, 3).summands == ((0, 1),)


def test_from_mask_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        from_mask(1, -1, 4)
    with pytest.raises(InvalidInputError):
        from_mask(1, 0b1, -1)
    with pytest.raises(InvalidInputError):
        from_mask(0, 0b1, 4)


def test_column_mask():
    m = IntervalModule(2, ((0, 2), (8, INFINITE)))
    assert m.column_mask(8) == 0b11110011
    m2 = IntervalModule(2, ((1, INFINITE), (4, 3), (20, INFINITE)))
    assert m2.column_mask(4) == 0b1100  # odd shift skipped, block clipped
    assert IntervalModule(1, ((5, 2),)).column_mask(5) == 0


summand_strategy = st.tuples(
    st.integers(0, 12),
    st.one_of(st.none(), st.integers(1, 8)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.lists(summand_strategy, max_size=5))
def test_dimension_matches_direct_enumeration(step, summands):
    """dimension_at agrees with a naive degree-by-degree expansion."""
    m = IntervalModule(step, tuple(summands))
    bound = 40
    expected = [0] * bound
    for shift, length in summands:
        count = (bound if length is INFINITE else length)
        for i in range(count):
            d = shift + step * i
            if d < bound:
                expected[d] += 1
    assert [m.dimension_at(k) for k in range(bound)] == expected


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(0, 40), st.integers(0, 1 << 40))
def test_from_mask_round_trip(step, threshold, mask):
    """runs -> summands -> column mask gives back the bits below threshold,
    and the threshold bit's run covers every later column."""
    m = from_mask(step, mask, threshold)
    nbits = threshold + 8
    low = mask & ((1 << threshold) - 1)
    tail = 0
    if (mask >> threshold) & 1:
        tail = ((1 << nbits) - 1) ^ ((1 << threshold) - 1)
    assert m.column_mask(nbits) == low | tail
    assert m.has_infinite() == bool(tail)
    assert not m.has_overlap()


def _column_mask_reference(m, nbits):
    return sum(1 << i for i in range(nbits) if m.dimension_at(i * m.step))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.lists(summand_strategy, max_size=5),
       st.integers(0, 30))
def test_column_mask_matches_dimension_at(step, summands, nbits):
    """The closed-form mask equals a degree-by-degree probe, including shifts
    off the lattice of step, nbits at or below a shift and infinite summands."""
    m = IntervalModule(step, tuple(summands))
    assert m.column_mask(nbits) == _column_mask_reference(m, nbits)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1 << 200))
def test_runs_match_bit_scan(mask):
    expected = []
    i = 0
    while i < mask.bit_length():
        if (mask >> i) & 1:
            j = i
            while (mask >> j) & 1:
                j += 1
            expected.append((i, j))
            i = j
        else:
            i += 1
    assert runs(mask) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.lists(summand_strategy, max_size=5))
def test_has_overlap_matches_dimension_probe(step, summands):
    m = IntervalModule(step, tuple(summands))
    probe = any(m.dimension_at(k) > 1
                for k in range(0, m.max_finite_endpoint() + 1))
    assert m.has_overlap() == probe

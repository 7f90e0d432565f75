"""Tests for page rows held as maximal runs of columns."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcohom.engine import GroupChoice, Page
from orbitcohom.errors import InvalidInputError
from orbitcohom.intervals import (FREE_ROW, INFINITE, IntervalModule,
                                  from_mask, runs)
from orbitcohom.presentation import tot_poincare

from helpers import point_ring


def test_free_module_dimensions():
    assert FREE_ROW.summands == ((0, INFINITE),)
    assert all(FREE_ROW.has_column(k) for k in range(20))
    assert not FREE_ROW.has_column(-1)
    assert FREE_ROW.has_infinite() and FREE_ROW.last_column() is None


def test_finite_interval():
    m = IntervalModule(((0, 4),))
    assert [m.has_column(k) for k in range(6)] == [True] * 4 + [False] * 2
    assert m.last_column() == 3
    assert not m.has_infinite() and m.summands


def test_step_two_support():
    # a row holds columns only; under the circle, column k is degree 2k
    m = IntervalModule(((0, 3),))
    assert [m.has_column(k) for k in range(4)] == [True, True, True, False]
    assert m.last_column() == 2
    page = Page(fiber=point_ring(), group=GroupChoice.CIRCLE, rounds=(),
                rows={0: m})
    assert tot_poincare(page).items() == [(0, 1), (2, 1), (4, 1)]


def test_zero_module():
    m = IntervalModule(())
    assert not m.summands and not m.has_infinite()
    assert m.last_column() == -1
    assert not m.has_column(0)
    assert m.max_finite_endpoint() == 0 and m.column_mask(8) == 0


def test_canonical_summand_order():
    a = IntervalModule(((3, 2), (0, 1)))
    b = IntervalModule(((0, 1), (3, 2)))
    assert a == b and hash(a) == hash(b)
    c = IntervalModule([(3, 2), (9, INFINITE), (0, 1)])
    assert c.summands == ((0, 1), (3, 2), (9, INFINITE))
    assert c.last_column() is None and c.max_finite_endpoint() == 9
    assert a != c


def test_invalid_summands():
    with pytest.raises(InvalidInputError, match="negative column"):
        IntervalModule(((-1, 2),))
    with pytest.raises(InvalidInputError, match="empty"):
        IntervalModule(((0, 0),))


@pytest.mark.parametrize("summands, message", [
    (((0, 3), (2, 2)), "overlaps"),
    (((4, 1), (4, INFINITE)), "overlaps"),
    (((0, 3), (3, 2)), "touches"),
    (((5, 1), (0, INFINITE)), "only the last run may be infinite"),
], ids=["overlapping", "same-start", "touching", "infinite-not-last"])
def test_runs_must_be_maximal_and_disjoint(summands, message):
    with pytest.raises(InvalidInputError, match=message):
        IntervalModule(summands)


def test_from_mask_merges_runs():
    m = from_mask(0b1100111, 10)
    assert m.summands == ((0, 3), (5, 2))
    m2 = from_mask(0b1011, 10)
    assert m2.summands == ((0, 2), (3, 1))


def test_from_mask_tail():
    # bit 2 is the threshold: its run continues forever
    m = from_mask(0b111, 2)
    assert m.summands == ((0, INFINITE),)
    m2 = from_mask(0b1001, 3)
    assert m2.summands == ((0, 1), (3, INFINITE))
    # bits above the threshold are ignored
    assert from_mask(0b110001, 3).summands == ((0, 1),)


def test_from_mask_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        from_mask(-1, 4)
    with pytest.raises(InvalidInputError):
        from_mask(0b1, -1)


def test_column_mask():
    m = IntervalModule(((0, 2), (4, INFINITE)))
    assert m.column_mask(8) == 0b11110011
    m2 = IntervalModule(((2, 3), (10, INFINITE)))
    assert m2.column_mask(4) == 0b1100  # block clipped, run past nbits skipped
    assert IntervalModule(((5, 2),)).column_mask(5) == 0


@st.composite
def run_lists(draw):
    """Maximal disjoint runs, the last one possibly infinite, in any order."""
    out, start = [], draw(st.integers(0, 6))
    for length in draw(st.lists(st.integers(1, 8), max_size=5)):
        out.append((start, length))
        start += length + draw(st.integers(1, 6))
    if draw(st.booleans()):
        out.append((start, INFINITE))
    return draw(st.permutations(out))


@settings(max_examples=80, deadline=None)
@given(run_lists())
def test_dimension_matches_direct_enumeration(summands):
    """has_column (the dimension of a column, 0 or 1) agrees with a naive
    column-by-column expansion, and the last run decides the rest."""
    m = IntervalModule(tuple(summands))
    bound = 100
    expected = [False] * bound
    for start, length in summands:
        for k in range(start, bound if length is INFINITE else start + length):
            expected[k] = True
    assert [m.has_column(k) for k in range(bound)] == expected
    infinite = any(length is INFINITE for _, length in summands)
    assert m.has_infinite() == infinite
    columns = [k for k in range(bound) if expected[k]]
    assert m.last_column() == (None if infinite else max(columns, default=-1))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 40), st.integers(0, 1 << 40))
def test_from_mask_round_trip(threshold, mask):
    """runs -> row -> column mask gives back the bits below threshold, and
    the threshold bit's run covers every later column."""
    m = from_mask(mask, threshold)
    nbits = threshold + 8
    low = mask & ((1 << threshold) - 1)
    tail = 0
    if (mask >> threshold) & 1:
        tail = ((1 << nbits) - 1) ^ ((1 << threshold) - 1)
    assert m.column_mask(nbits) == low | tail
    assert m.has_infinite() == bool(tail)
    assert IntervalModule(m.summands) == m


def _column_mask_reference(m, nbits):
    return sum(1 << k for k in range(nbits) if m.has_column(k))


@settings(max_examples=200, deadline=None)
@given(run_lists(), st.integers(0, 30))
def test_column_mask_matches_has_column(summands, nbits):
    """The closed-form mask equals a column-by-column probe, including nbits
    at or below a start and infinite runs."""
    m = IntervalModule(tuple(summands))
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

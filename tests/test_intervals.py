"""Tests for page rows held as their length over F2[t]."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcohom.engine import GroupChoice, Page
from orbitcohom.errors import InvalidInputError
from orbitcohom.intervals import FREE_ROW, INFINITE, IntervalModule
from orbitcohom.presentation import extract_presentation

from helpers import point_ring


def test_free_module_dimensions():
    assert FREE_ROW.length is INFINITE
    assert all(FREE_ROW.has_column(k) for k in range(20))
    assert not FREE_ROW.has_column(-1)
    assert FREE_ROW.last_column() is None


def test_finite_interval():
    m = IntervalModule(4)
    assert [m.has_column(k) for k in range(6)] == [True] * 4 + [False] * 2
    assert not m.has_column(-1)
    assert m.last_column() == 3 and m.max_finite_endpoint() == 4


def test_step_two_support():
    # a row holds columns only; under the circle, column k is degree 2k
    m = IntervalModule(3)
    assert [m.has_column(k) for k in range(4)] == [True, True, True, False]
    assert m.last_column() == 2
    page = Page(fiber=point_ring(), group=GroupChoice.CIRCLE, rounds=(),
                rows={0: m})
    _, _, series = extract_presentation(page)
    assert series.items() == [(0, 1), (2, 1), (4, 1)]


def test_zero_module():
    # the zero module is no row: a page drops a row that dies
    with pytest.raises(InvalidInputError, match="positive int"):
        IntervalModule(0)


def test_invalid_lengths():
    for length in (0, -1, True, False, 2.5, 3.0, "3"):
        message = f"a row's length is a positive int or INFINITE, not {length!r}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            IntervalModule(length)


def test_rows_compare_by_length():
    assert IntervalModule(3) == IntervalModule(length=3)
    assert hash(IntervalModule(3)) == hash(IntervalModule(3))
    assert IntervalModule(3) != IntervalModule(4)
    assert IntervalModule(INFINITE) == FREE_ROW != IntervalModule(3)
    assert FREE_ROW.max_finite_endpoint() == 0


def test_column_mask():
    assert FREE_ROW.column_mask(8) == 0b11111111
    assert IntervalModule(3).column_mask(8) == 0b111
    assert IntervalModule(5).column_mask(4) == 0b1111  # clipped at nbits
    assert IntervalModule(5).column_mask(0) == FREE_ROW.column_mask(0) == 0


lengths = st.one_of(st.integers(1, 40), st.just(INFINITE))


@settings(max_examples=80, deadline=None)
@given(lengths)
def test_dimension_matches_direct_enumeration(length):
    """has_column (the dimension of a column, 0 or 1) and last_column agree
    with a naive column-by-column expansion."""
    m = IntervalModule(length)
    bound = 100
    expected = [length is INFINITE or k < length for k in range(bound)]
    assert [m.has_column(k) for k in range(bound)] == expected
    columns = [k for k in range(bound) if expected[k]]
    assert m.last_column() == (None if length is INFINITE else max(columns))


def _column_mask_reference(m, nbits):
    return sum(1 << k for k in range(nbits) if m.has_column(k))


@settings(max_examples=200, deadline=None)
@given(lengths, st.integers(0, 50))
def test_column_mask_matches_has_column(length, nbits):
    """The closed-form mask equals a column-by-column probe, including nbits
    at or below the length and infinite rows."""
    m = IntervalModule(length)
    assert m.column_mask(nbits) == _column_mask_reference(m, nbits)

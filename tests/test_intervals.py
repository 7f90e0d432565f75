"""Tests for page rows held as maximal runs of columns."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcohom.engine import GroupChoice, Page
from orbitcohom.errors import InvalidInputError
from orbitcohom.intervals import FREE_ROW, INFINITE, IntervalModule
from orbitcohom.presentation import extract_presentation

from helpers import point_ring


def test_free_module_dimensions():
    assert FREE_ROW.summands == ((0, INFINITE),)
    assert all(FREE_ROW.has_column(k) for k in range(20))
    assert not FREE_ROW.has_column(-1)
    assert FREE_ROW.last_column() is None


def test_finite_interval():
    m = IntervalModule(((0, 4),))
    assert [m.has_column(k) for k in range(6)] == [True] * 4 + [False] * 2
    assert m.last_column() == 3
    assert m.last_column() is not None and m.summands


def test_step_two_support():
    # a row holds columns only; under the circle, column k is degree 2k
    m = IntervalModule(((0, 3),))
    assert [m.has_column(k) for k in range(4)] == [True, True, True, False]
    assert m.last_column() == 2
    page = Page(fiber=point_ring(), group=GroupChoice.CIRCLE, rounds=(),
                rows={0: m})
    _, _, series = extract_presentation(page)
    assert series.items() == [(0, 1), (2, 1), (4, 1)]


def test_zero_module():
    m = IntervalModule(())
    assert not m.summands and m.last_column() is not None
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


def test_minus_examples():
    row = IntervalModule(((0, 4), (6, 3), (12, INFINITE)))
    # a cut that starts below column 0: columns -2..1 of the other row
    assert row.minus(IntervalModule(((0, 4),)), 2).summands == (
        (2, 2), (6, 3), (12, INFINITE))
    # an infinite cut ends the row at its start
    assert row.minus(IntervalModule(((10, INFINITE),)), 3).summands == (
        (0, 4), (6, 1))
    # a cut that swallows a whole run, and one that splits the infinite run
    assert row.minus(IntervalModule(((3, 8), (20, 2))), -2).summands == (
        (0, 4), (13, 9), (24, INFINITE))
    assert row.minus(IntervalModule(()), 5) == row
    assert FREE_ROW.minus(FREE_ROW, -3).summands == ((0, 3),)
    assert FREE_ROW.minus(FREE_ROW, 3).summands == ()


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
    assert (m.last_column() is None) == infinite
    columns = [k for k in range(bound) if expected[k]]
    assert m.last_column() == (None if infinite else max(columns, default=-1))


@settings(max_examples=300, deadline=None)
@given(run_lists(), run_lists(), st.integers(-30, 30))
def test_minus_matches_has_column(mine, theirs, offset):
    """The difference keeps exactly the columns k of the row whose column
    k + offset is not in the other row, past both rows' last endpoints,
    and comes back canonical."""
    row, other = IntervalModule(tuple(mine)), IntervalModule(tuple(theirs))
    diff = row.minus(other, offset)
    bound = 100 + abs(offset)
    assert [diff.has_column(k) for k in range(-2, bound)] == [
        row.has_column(k) and not other.has_column(k + offset)
        for k in range(-2, bound)]
    assert (diff.last_column() is None) == (row.last_column() is None
                                            and other.last_column() is not None)
    _assert_canonical(diff)


def _assert_canonical(row):
    assert IntervalModule(row.summands) == row
    assert all(start + length < after for (start, length), (after, _)
               in zip(row.summands, row.summands[1:]))


def _sides(row, other, offset):
    """The engine's sides of a slot row: dead, the columns k of the row
    with k + offset not in the target row other, and live, the rest."""
    dead = row.minus(other, offset)
    return dead, row.minus(dead, 0)


@settings(max_examples=300, deadline=None)
@given(run_lists(), run_lists(), st.integers(-30, 30))
def test_minus_sides_partition_the_row_by_has_column(mine, theirs, offset):
    """Two cuts split a row: live holds exactly the columns k of the row
    with k + offset in the other row, dead the rest, both canonical."""
    row, other = IntervalModule(tuple(mine)), IntervalModule(tuple(theirs))
    dead, live = _sides(row, other, offset)
    bound = 100 + abs(offset)
    for k in range(-2, bound):
        assert live.has_column(k) == (row.has_column(k)
                                      and other.has_column(k + offset)), k
        assert dead.has_column(k) == (row.has_column(k)
                                      and not live.has_column(k)), k
    _assert_canonical(dead)
    _assert_canonical(live)


@settings(max_examples=300, deadline=None)
@given(run_lists(), run_lists(), run_lists(), st.integers(-30, 30))
def test_minus_chain_matches_has_column(first, mid, last, offset):
    """The engine's d o d test: cutting the live side of the first row by
    the live side of mid changes it exactly when some column k lies in
    the first row, with k + offset in mid and k + 2 offset in last."""
    first, mid, last = (IntervalModule(tuple(summands))
                        for summands in (first, mid, last))
    live_first = _sides(first, mid, offset)[1]
    live_mid = _sides(mid, last, offset)[1]
    bound = 100 + 2 * abs(offset)
    assert (live_first.minus(live_mid, offset) != live_first) == any(
        first.has_column(k) and mid.has_column(k + offset)
        and last.has_column(k + 2 * offset) for k in range(-2, bound))


def _column_mask_reference(m, nbits):
    return sum(1 << k for k in range(nbits) if m.has_column(k))


@settings(max_examples=200, deadline=None)
@given(run_lists(), st.integers(0, 30))
def test_column_mask_matches_has_column(summands, nbits):
    """The closed-form mask equals a column-by-column probe, including nbits
    at or below a start and infinite runs."""
    m = IntervalModule(tuple(summands))
    assert m.column_mask(nbits) == _column_mask_reference(m, nbits)

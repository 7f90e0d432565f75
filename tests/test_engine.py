"""Tests for the page engine: second page, rounds, patterns, page turns."""

import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcohom.engine import (GroupChoice, admissible_rounds, branches,
                               build_e2, check_pattern, classify,
                               differential_slots, DifferentialPattern,
                               is_free_admissible, Page, _sum_hit)
from orbitcohom.errors import (InvalidInputError, InvariantError,
                               PreconditionError, UnsupportedShapeError)
from orbitcohom.fiber import FiberRing, load_fiber, make_type_ab
from orbitcohom.intervals import FREE_ROW, INFINITE, IntervalModule, runs

from helpers import point_ring


def test_build_e2_rows_z2():
    page = build_e2(make_type_ab(2, 0, 0), GroupChoice.Z2)
    assert sorted(page.rows) == [0, 2, 4, 6]
    assert page.step == 1
    for row in page.rows.values():
        assert row is FREE_ROW and row.summands == ((0, INFINITE),)


def test_build_e2_rows_circle():
    page = build_e2(make_type_ab(3, 0, 0), GroupChoice.CIRCLE)
    assert sorted(page.rows) == [0, 3, 6, 9]
    # the same free row as under Z/2: only the page knows that |t| = 2
    assert page.step == 2
    for row in page.rows.values():
        assert row is FREE_ROW


def test_build_e2_point_fiber():
    page = build_e2(point_ring(), GroupChoice.Z2)
    assert sorted(page.rows) == [0]


def test_build_e2_rejects_invalid_fiber():
    # the ring is refused when it is built, so build_e2 never sees it
    with pytest.raises(InvalidInputError,
                       match="^invalid fiber ring: unit law: 1\\*u = "):
        bad = FiberRing(basis=(("1", 0), ("u", 2)), unit="1",
                        products=((("1", "1"), frozenset({"1"})),
                                  (("u", "u"), frozenset({"u"}))),
                        top_degree=2)
        build_e2(bad, GroupChoice.Z2)


def test_admissible_rounds():
    assert admissible_rounds(make_type_ab(2, 0, 0), GroupChoice.Z2) == (3, 5, 7)
    assert admissible_rounds(make_type_ab(3, 0, 0), GroupChoice.CIRCLE) == (4, 10)
    assert admissible_rounds(make_type_ab(2, 0, 0), GroupChoice.CIRCLE) == ()


def test_admissible_rounds_closed_form_for_type_ab():
    # rows 0, n, 2n, 3n are joined by the rounds n+1, 2n+1 and 3n+1; the
    # circle keeps only the even ones
    for group in (GroupChoice.Z2, GroupChoice.CIRCLE):
        for n in range(1, 25):
            expected = tuple(r for r in (n + 1, 2 * n + 1, 3 * n + 1)
                             if r % group.step == 0)
            assert admissible_rounds(make_type_ab(n, 0, 1), group) == expected, (
                group, n)


def test_admissible_rounds_of_other_shapes():
    assert admissible_rounds(point_ring(), GroupChoice.Z2) == ()
    # F2[u]/(u^6), |u| = 1: every gap 1..5 plus one
    u6 = load_fiber(os.path.join(os.path.dirname(__file__),
                                 "fiber_truncated_u6.json"))
    assert admissible_rounds(u6, GroupChoice.Z2) == (2, 3, 4, 5, 6)
    assert admissible_rounds(u6, GroupChoice.CIRCLE) == (2, 4, 6)


def test_slots_on_e2():
    page = build_e2(make_type_ab(2, 0, 0), GroupChoice.Z2)
    assert page.round == 3
    # rows 2, 4, 6 map to rows 0, 2, 4
    assert differential_slots(page) == (2, 4, 6)
    # no slots for a round with no matching target rows
    fiber = make_type_ab(2, 0, 0)
    page4 = Page(fiber=fiber, group=GroupChoice.Z2, rounds=(4,), rows=page.rows)
    assert differential_slots(page4) == ()


def test_slots_need_a_live_target_class():
    # row 0 dies at column 3 and beyond, so d3 on row 2 has no target
    fiber = make_type_ab(2, 0, 0)
    rows = {0: IntervalModule(((0, 3),)), 2: FREE_ROW}
    page = Page(fiber=fiber, group=GroupChoice.Z2, rounds=(3,), rows=rows)
    assert differential_slots(page) == ()


def test_slots_need_a_live_source_generator():
    # row 2 has lost column 0, so its generator v1 is dead although the
    # fiber still names it, and d3 on row 2 has no source
    fiber = make_type_ab(2, 0, 0)
    assert fiber.names[2] == "v1"
    rows = {0: FREE_ROW, 2: IntervalModule(((1, INFINITE),))}
    page = Page(fiber=fiber, group=GroupChoice.Z2, rounds=(3,), rows=rows)
    assert differential_slots(page) == ()
    live = {0: FREE_ROW, 2: FREE_ROW}
    assert differential_slots(Page(fiber=fiber, group=GroupChoice.Z2,
                                   rounds=(3,), rows=live)) == (2,)


def test_rows_off_the_fiber_degrees_are_refused():
    # the fiber of type (2, 0, 0) has basis degrees 0, 2, 4 and 6
    page = Page(fiber=make_type_ab(2, 0, 0), group=GroupChoice.Z2, rounds=(3,),
                rows={0: FREE_ROW, 3: FREE_ROW})
    with pytest.raises(PreconditionError,
                       match=r"rows \[3\] are not degrees of the page's fiber"):
        differential_slots(page)
    with pytest.raises(PreconditionError, match="not degrees"):
        check_pattern(page, DifferentialPattern(3, ()))


def test_finished_page_has_no_round():
    report = classify(make_type_ab(2, 0, 0), GroupChoice.Z2)
    page = report.outcomes[0].e_inf
    assert page.rounds == () and page.round is None
    with pytest.raises(PreconditionError):
        list(branches(page))


def test_leibniz_forces_vanishing_on_v1():
    # with v1*v2 = 0, a nonzero differential on v1 alone contradicts
    # 0 = d(v1 * v2) = d(v1) * v2
    page = build_e2(make_type_ab(2, 1, 0), GroupChoice.Z2)
    reason = check_pattern(page, DifferentialPattern(3, (2,)))
    assert reason is not None and "Leibniz" in reason


def test_enumerate_patterns_even_even_round3():
    # the v1 slot is forced to zero and v2, v3 cannot both be hit
    # (d o d through the middle row), leaving 3 of 8 assignments
    page = build_e2(make_type_ab(2, 0, 0), GroupChoice.Z2)
    patterns = [p for p, reason, _ in branches(page) if reason is None]
    assert [p.round for p in patterns] == [3, 3, 3]
    assert [p.sources for p in patterns] == [(), (6,), (4,)]  # binary order


def _next_page(page, pattern):
    """The next page branches(page) gives for pattern; None when rejected."""
    (next_page,) = [nxt for p, _, nxt in branches(page) if p == pattern]
    return next_page


def test_turn_page_known_intervals():
    page = build_e2(make_type_ab(2, 0, 0), GroupChoice.Z2)
    nxt = _next_page(page, DifferentialPattern(3, (4,)))
    assert nxt.rows[0].summands == ((0, INFINITE),)
    assert nxt.rows[2].summands == ((0, 3),)
    assert 4 not in nxt.rows
    assert nxt.rows[6].summands == ((0, INFINITE),)
    assert nxt.rounds == (5, 7) and nxt.round == 5

    # round 5 has no slots left; round 7 kills rows 0 and 6 against each other
    assert differential_slots(nxt) == ()
    mid = _next_page(nxt, DifferentialPattern(5, ()))
    assert differential_slots(mid) == (6,)
    final = _next_page(mid, DifferentialPattern(7, (6,)))
    assert final.rows[0].summands == ((0, 7),)
    assert 6 not in final.rows
    assert final.rounds == () and final.round is None


def test_turn_page_all_zero_keeps_modules():
    page = build_e2(make_type_ab(2, 0, 0), GroupChoice.Z2)
    nxt = _next_page(page, DifferentialPattern(3, ()))
    assert nxt.rows == page.rows
    assert nxt.round == 5


def test_turn_page_rejects_inconsistent_pattern():
    page = build_e2(make_type_ab(2, 0, 0), GroupChoice.Z2)
    bad = DifferentialPattern(3, (4, 6))  # d o d through row 4
    ((reason, next_page),) = [(reason, nxt) for p, reason, nxt
                              in branches(page) if p == bad]
    assert "d o d" in reason
    assert next_page is None


@pytest.mark.parametrize("source", [0, 99])
def test_pattern_naming_a_non_slot_source_is_refused(source):
    # row 0 has no target at round 3; row 99 is not a row at all
    page = build_e2(make_type_ab(2, 0, 0), GroupChoice.Z2)
    pattern = DifferentialPattern(3, (source,))
    with pytest.raises(PreconditionError, match="not differential slots"):
        check_pattern(page, pattern)


def test_pattern_round_must_match_page_round():
    page = build_e2(make_type_ab(2, 0, 0), GroupChoice.Z2)
    with pytest.raises(PreconditionError, match="round"):
        check_pattern(page, DifferentialPattern(5, ()))


def test_turn_page_raises_when_the_unit_dies():
    # hand-built page whose unit row has lost column 0: a real error, not an
    # assert, so the check also holds under python -O
    fiber = make_type_ab(2, 0, 0)
    rows = {0: IntervalModule(((1, INFINITE),)), 2: FREE_ROW}
    page = Page(fiber=fiber, group=GroupChoice.Z2, rounds=(3,), rows=rows)
    with pytest.raises(InvariantError, match="unit"):
        list(branches(page))


def _sum_hit_per_bit(left: int, right: int, sums: int) -> bool:
    """Reference: True when some k in left and j in right have k + j in sums."""
    while left:
        low = left & -left
        k = low.bit_length() - 1
        if (sums >> k) & right:
            return True
        left ^= low
    return False


def _run_masks(width):
    """Masks made of a few runs, so both outcomes of the sumset test occur."""
    def mask(rs):
        out = 0
        for start, length in rs:
            out |= ((1 << length) - 1) << start
        return out & ((1 << width) - 1)

    run = st.tuples(st.integers(0, width - 1), st.integers(1, width // 4))
    return st.lists(run, max_size=4).map(mask)


@settings(max_examples=300, deadline=None)
@given(_run_masks(48), _run_masks(48), _run_masks(96))
def test_run_sumset_matches_per_bit_scan(left, right, sums):
    assert _sum_hit(runs(left), runs(right), sums) == _sum_hit_per_bit(
        left, right, sums)


@pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_large_n_matches_small_n(a, b):
    """At n = 3000 the branch counts and index / n are those of n = 2."""
    small = classify(make_type_ab(2, a, b), GroupChoice.Z2)
    large = classify(make_type_ab(3000, a, b), GroupChoice.Z2)
    assert len(large.outcomes) == len(small.outcomes)
    assert len(large.rejected) == len(small.rejected)
    assert ([o.index / 3000 for o in large.outcomes]
            == [o.index / 2 for o in small.outcomes])
    circle = classify(make_type_ab(3000, a, b), GroupChoice.CIRCLE)
    assert (len(circle.outcomes), len(circle.rejected)) == (0, 1)


@pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_large_n_memory_stays_bounded(a, b):
    """At n = 100000 classify allocates no per-degree data: the Poincare
    series is a few progressions, and the traced peak stays under 10 MB."""
    fiber = make_type_ab(100000, a, b)
    tracemalloc.start()
    try:
        classify(fiber, GroupChoice.Z2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


def test_dimensions_never_increase():
    page = build_e2(make_type_ab(2, 0, 1), GroupChoice.Z2)
    for _, reason, nxt in branches(page):
        if reason is not None:
            continue
        for l, row in nxt.rows.items():
            old = page.rows[l]
            for k in range(0, 25):
                assert old.has_column(k) or not row.has_column(k)


def test_is_free_admissible():
    page = build_e2(make_type_ab(2, 0, 0), GroupChoice.Z2)
    assert not is_free_admissible(page)
    report = classify(make_type_ab(2, 0, 0), GroupChoice.Z2)
    assert all(is_free_admissible(o.e_inf) for o in report.outcomes)


def test_is_free_admissible_checks_the_top_degree():
    fiber = make_type_ab(1, 0, 0)  # top degree 3

    def page(base, top_row):
        rows = {0: IntervalModule((base,)), 3: IntervalModule((top_row,))}
        return Page(fiber=fiber, group=GroupChoice.Z2, rounds=(), rows=rows)

    assert not is_free_admissible(page((0, 2), (0, 2)))
    assert is_free_admissible(page((0, 4), (0, 1)))
    assert not is_free_admissible(page((0, 5), (0, 1)))


def test_classify_even_even_single_branch():
    report = classify(make_type_ab(2, 0, 0), GroupChoice.Z2)
    assert len(report.outcomes) == 1
    assert report.outcomes[0].history_key() == ((3, (4,)), (5, ()), (7, (6,)))
    assert report.verdict == "free-action-possible"


def test_classify_odd_even_empty():
    report = classify(make_type_ab(2, 1, 0), GroupChoice.Z2)
    assert report.outcomes == ()
    assert report.verdict == "no-free-action"
    assert report.rejected and all(rb.reason for rb in report.rejected)


def test_classify_circle_even_n_empty():
    for a in (0, 1):
        for b in (0, 1):
            report = classify(make_type_ab(4, a, b), GroupChoice.CIRCLE)
            assert report.outcomes == ()


def test_classify_circle_n3_even_odd_two_outcomes():
    report = classify(make_type_ab(3, 0, 1), GroupChoice.CIRCLE)
    assert len(report.outcomes) == 2


def test_every_branch_accounted_once():
    report = classify(make_type_ab(2, 0, 1), GroupChoice.Z2)
    histories = ([o.history_key() for o in report.outcomes]
                 + [tuple((p.round, p.sources) for p in rb.history)
                    for rb in report.rejected])
    assert len(histories) == len(set(histories))


def test_unit_survives_every_outcome():
    for a in (0, 1):
        for b in (0, 1):
            report = classify(make_type_ab(2, a, b), GroupChoice.Z2)
            for out in report.outcomes:
                assert out.e_inf.rows[0].has_column(0)


def test_classify_rejects_rank_two_rows():
    basis = (("1", 0), ("u", 2), ("w", 2))
    products = [(("1", "1"), frozenset({"1"})),
                (("1", "u"), frozenset({"u"})), (("u", "1"), frozenset({"u"})),
                (("1", "w"), frozenset({"w"})), (("w", "1"), frozenset({"w"})),
                (("u", "u"), frozenset()), (("w", "w"), frozenset()),
                (("u", "w"), frozenset()), (("w", "u"), frozenset())]
    ring = FiberRing(basis=basis, unit="1", products=tuple(sorted(products)),
                     top_degree=2)
    with pytest.raises(UnsupportedShapeError):
        classify(ring, GroupChoice.Z2)


@pytest.mark.parametrize("group", list(GroupChoice), ids=lambda g: g.value)
def test_build_e2_rejects_rank_two_rows(group):
    # u and w share degree 2, so row 2 would be free of rank two
    ring = load_fiber(os.path.join(os.path.dirname(__file__),
                                   "fiber_rank_two.json"))
    with pytest.raises(UnsupportedShapeError,
                       match=r"^rows of rank > 1 are not classifiable$"):
        build_e2(ring, group)


def test_even_even_index_is_3n():
    for n in (1, 2, 3, 5):
        report = classify(make_type_ab(n, 0, 0), GroupChoice.Z2)
        assert [o.index for o in report.outcomes] == [3 * n]


def test_odd_odd_index_is_n():
    for n in (2, 4):
        report = classify(make_type_ab(n, 1, 1), GroupChoice.Z2)
        assert [o.index for o in report.outcomes] == [n]


def test_circle_outcomes_have_no_index():
    report = classify(make_type_ab(3, 0, 0), GroupChoice.CIRCLE)
    assert all(o.index is None for o in report.outcomes)

"""Tests for the page engine: second page, rounds, patterns, page turns."""

import itertools
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcohom.engine import (GroupChoice, admissible_rounds, branches,
                               build_e2, check_pattern, classify,
                               differential_slots, DifferentialPattern,
                               is_free_admissible, Page)
from orbitcohom import engine
from orbitcohom.errors import (InvalidInputError, InvariantError,
                               OversizedInstanceError, PreconditionError,
                               UnsupportedShapeError)
from orbitcohom.fiber import FiberRing, load_fiber, make_type_ab
from orbitcohom.intervals import FREE_ROW, INFINITE, IntervalModule

from helpers import (cyclic_garbage, point_ring, reference_branches,
                     truncated_polynomial, wedge)


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


def test_empty_rows_are_refused():
    # F2[u]/(u^3) under Z/2 at round 2, rows 0 and 1 free and row 2 empty:
    # the page turn drops an empty row, so the step refuses such a page
    # rather than hand its zero child a row that every turned child lacks
    page = Page(fiber=truncated_polynomial(1, 3), group=GroupChoice.Z2,
                rounds=(2,), rows={0: FREE_ROW, 1: FREE_ROW,
                                   2: IntervalModule(())})
    with pytest.raises(PreconditionError, match=r"rows \[2\] are empty"):
        differential_slots(page)
    with pytest.raises(PreconditionError, match="are empty"):
        check_pattern(page, DifferentialPattern(2, (1,)))
    with pytest.raises(PreconditionError, match="are empty"):
        next(branches(page))


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


@pytest.mark.parametrize("sources, listed", [
    ((0,), "0"), ((99,), "99"), ((0, 2, 99), "0, 99"), ((99, 2, 0), "0, 99"),
    ((2, 4, 99), "99"),
], ids=["0", "99", "mixed", "mixed-unsorted", "slots-first"])
def test_pattern_naming_a_non_slot_source_is_refused(sources, listed):
    # row 0 has no target at round 3; row 99 is not a row at all; rows 2
    # and 4 are slots, which the message leaves out; it lists the others
    # sorted, wherever they stand in the pattern
    page = build_e2(make_type_ab(2, 0, 0), GroupChoice.Z2)
    pattern = DifferentialPattern(3, sources)
    message = rf"^rows \[{listed}\] are not differential slots of round 3$"
    with pytest.raises(PreconditionError, match=message):
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


def _assert_rows_canonical(page):
    """Every row is as the validating constructor builds it, nonempty, with
    int starts and lengths and None for an infinite one: minus builds the
    rows of a turned page without that constructor."""
    for l, row in page.rows.items():
        assert row.summands and IntervalModule(row.summands) == row, (page, l)
        assert all(type(start) is int and (length is INFINITE
                                           or type(length) is int)
                   for start, length in row.summands), (page, l)


def _assert_branches_match_the_reference(page, expected=None):
    """The contract of the engine's step: branches gives the reference's
    patterns, in its order, with its reasons and its child pages, and
    check_pattern gives the reference's reason for every pattern, the zero
    pattern included. Returns the reference's branches."""
    if expected is None:
        expected = reference_branches(page)
    assert list(branches(page)) == expected, page
    for pattern, reason, _ in expected:
        assert check_pattern(page, pattern) == reason, (page, pattern)
    return expected


def _sweep_fibers():
    """Type (a, b) at n = 1..24 with all four (a, b), and the truncated-u6
    fiber."""
    fibers = [make_type_ab(n, a, b) for n in range(1, 25)
              for a in (0, 1) for b in (0, 1)]
    fibers.append(load_fiber(os.path.join(os.path.dirname(__file__),
                                          "fiber_truncated_u6.json")))
    return fibers


def _sweep():
    """(page, its reference branches) for every page with a round of the
    walks of the sweep's fibers in both groups, walked through the
    reference's own children, so no engine call has touched a page before
    the test reads it."""
    todo = [build_e2(fiber, group) for fiber in _sweep_fibers()
            for group in GroupChoice]
    walked = []
    while todo:
        page = todo.pop()
        if page.round is not None:
            walked.append((page, reference_branches(page)))
            todo.extend(nxt for _, _, nxt in walked[-1][1] if nxt is not None)
    return walked


def test_patterns_on_one_page_do_not_interfere():
    # a page builds each check once, when a pattern first reads it, and
    # every later pattern reads it as built, so a pattern's verdict must not
    # depend on the patterns checked before it:
    # after branches checked them in binary order, checking them in reverse,
    # on the page and on a fresh copy, gives the reference's reasons
    walked = _sweep()
    reasons = [reason for _, steps in walked for _, reason, _ in steps]
    assert any(reason and reason.startswith("d o d") for reason in reasons)
    assert any(reason and reason.startswith("Leibniz") for reason in reasons)
    for page, steps in walked:
        assert [reason for _, reason, _ in branches(page)] == [
            reason for _, reason, _ in steps], page
        fresh = Page(fiber=page.fiber, group=page.group, rounds=page.rounds,
                     rows=page.rows)
        for pattern, reason, _ in reversed(steps):
            assert check_pattern(fresh, pattern) == reason, (page, pattern)
            assert check_pattern(page, pattern) == reason, (page, pattern)


def test_every_turn_of_the_sweep_matches_a_column_reference():
    """The contract on every page of the sweep: patterns, reasons and child
    pages, rows and rounds, are the reference's."""
    walked = _sweep()
    assert any(p.sources and nxt is not None
               for _, steps in walked for p, _, nxt in steps)
    for page, steps in walked:
        _assert_branches_match_the_reference(page, steps)


def test_each_check_is_built_once(monkeypatch):
    """Checking every pattern of a page twice builds no check twice: the
    second pass reads the checks the first one built and runs no sumset
    test. The pages are those of the walks of n = 1..6 in both groups."""
    calls = []
    sum_hit = engine._sum_hit
    monkeypatch.setattr(engine, "_sum_hit",
                        lambda *args: calls.append(args) or sum_hit(*args))
    todo = [build_e2(make_type_ab(n, a, b), group) for n in range(1, 7)
            for a in (0, 1) for b in (0, 1) for group in GroupChoice]
    while todo:
        page = todo.pop()
        if page.round is None:
            continue
        slots = differential_slots(page)
        patterns = [DifferentialPattern(page.round, tuple(
            itertools.compress(slots, coeffs))) for coeffs in
            itertools.product((0, 1), repeat=len(slots))]
        reasons = [check_pattern(page, p) for p in patterns]
        checks, tests = list(page._scan.checks), len(calls)
        assert [check_pattern(page, p) for p in patterns] == reasons, page
        assert page._scan.checks == checks and len(calls) == tests, page
        todo.extend(nxt for _, _, nxt in branches(page) if nxt is not None)
    assert calls


def test_a_page_builds_its_checks_only_as_far_as_its_patterns_read():
    """Every nonzero pattern of this page of F2[u]/(u^3), |u| = 1, breaks
    its first check, on u1*u1 (test_a_table_joins_what_its_parity_vectors_
    break), so its step builds that check alone. The zero pattern breaks
    no check, so checking it on a fresh copy builds them all."""
    rows = {0: IntervalModule(((0, 3),)), 1: FREE_ROW, 2: FREE_ROW}
    page, fresh = (Page(fiber=truncated_polynomial(1, 3), group=GroupChoice.Z2,
                        rounds=(2,), rows=rows) for _ in range(2))
    assert {reason for _, reason, _ in branches(page)} == {
        None, "Leibniz violation at round 2 on the product u1*u1"}
    assert check_pattern(fresh, DifferentialPattern(2, ())) is None
    assert page._scan.checks == fresh._scan.checks[:1]
    assert len(fresh._scan.checks) > 1


def test_the_zero_pattern_needs_no_check_and_no_turn():
    """branches hands the zero pattern its page without check_pattern or a
    turn. On every page of the sweep that must be what they give: no
    constraint refuses it, and its child keeps every row."""
    for page, steps in _sweep():
        zero = DifferentialPattern(page.round, ())
        assert check_pattern(page, zero) is None, page
        assert steps[0][:2] == (zero, None)
        assert steps[0][2].rows == page.rows, page
        assert next(branches(page)) == steps[0], page


def test_a_table_joins_what_its_parity_vectors_break():
    """The pair u1*u1 at round 2 on this page of F2[u]/(u^3), |u| = 1,
    breaks every nonzero pattern: each parity vector of the pair breaks
    two of the three, so a pair that kept one vector would let one pass."""
    page = Page(fiber=truncated_polynomial(1, 3), group=GroupChoice.Z2,
                rounds=(2,), rows={0: IntervalModule(((0, 3),)),
                                   1: FREE_ROW, 2: FREE_ROW})
    reason = "Leibniz violation at round 2 on the product u1*u1"
    assert [(p.sources, why) for p, why, _ in branches(page)] == [
        ((), None), ((2,), reason), ((1,), reason), ((1, 2), reason)]
    _assert_branches_match_the_reference(page)


@pytest.mark.parametrize("group, rows, reasons", [
    # d o d along rows 2 -> 1 -> 0 sends column 0 of row 2 to column
    # 2e = 4 of row 0, the last live one
    (GroupChoice.Z2, {0: ((0, 5),), 1: ((0, 3),), 2: ((0, 1),)},
     [None, None, "d o d nonzero at round 2 along rows 2 -> 1 -> 0"]),
    # e = 1: the pattern breaks x1*x1 only at k = 1, j = 2, whose target
    # column 4 is the last live one
    (GroupChoice.CIRCLE, {0: ((0, 3),), 1: ((0, 3), (4, 1))},
     ["Leibniz violation at round 2 on the product x1*x1"]),
    # consistent, unless a sum of runs reads one column long or late
    (GroupChoice.CIRCLE, {0: ((0, 1),), 1: ((0, INFINITE),), 2: ((0, 2),)},
     [None])], ids=("dod-chain", "sum-run-end", "sum-run-start"))
def test_pages_of_a_wedge_match_the_column_reference(group, rows, reasons):
    """Pages of the wedge of classes in degrees 1 and 2 at round 2, each
    with the reasons of its nonzero patterns: each needs a d o d chain or
    a sum of two runs of columns read to the exact column."""
    page = Page(fiber=wedge((1, 2)), group=group, rounds=(2,),
                rows={l: IntervalModule(runs) for l, runs in rows.items()})
    steps = _assert_branches_match_the_reference(page)
    assert [reason for _, reason, _ in steps] == [None] + reasons


_PAGE_FIBERS = ([make_type_ab(n, a, b) for n in (1, 2, 3) for a in (0, 1)
                 for b in (0, 1)]
                + [truncated_polynomial(degree, k) for degree in (1, 2)
                   for k in (3, 4, 5, 6)]
                + [wedge(degrees) for degrees in ((1, 2), (1, 2, 3), (1, 3),
                                                  (2, 3, 5), (1, 2, 4),
                                                  (1, 2, 3, 4), (2, 3, 4, 5))])


@st.composite
def _random_pages(draw):
    """A page of a small fiber at one of its rounds, the first one twice as
    often. As on every page of a walk, the unit lives. The checks turn
    where a differential, which moves columns by e = r / step, meets a
    row's last live column, so two pages in three have rows of one run
    from column 0, which ends e + 1 or 2e + 1 columns up or one column
    either side, or 0 to 2 columns after its target row's end less e, or
    never. The others have run lists, some rows absent, with bounds on
    the multiples of e or one column off, or near a lower row's bound
    moved down by 0, e or 2e columns."""
    fiber = draw(st.sampled_from(_PAGE_FIBERS))
    group = draw(st.sampled_from(
        [g for g in GroupChoice if admissible_rounds(fiber, g)]))
    rounds = admissible_rounds(fiber, group)
    r = draw(st.sampled_from(rounds[:1] + rounds))
    e = r // group.step
    single = draw(st.integers(0, 2)) > 0
    ends = [e + 1, 2 * e + 1] * 3 + [e, e + 2, 2 * e, 2 * e + 2]
    marks = {k * e + d for k in range(3) for d in (-1, 0, 1)}
    rows = {}
    for l in sorted(fiber.names):
        if single:
            bounds, target = [0], rows.get(l - r + 1)
            if target is not None and draw(st.booleans()):
                start, length = target.summands[-1]
                if length is not INFINITE:
                    bounds.append(max(1, start + length - e
                                      + draw(st.integers(0, 2))))
            elif draw(st.integers(0, 2)):
                bounds.append(draw(st.sampled_from(ends)))
        elif l and draw(st.integers(0, 7)) == 0:
            continue
        else:
            start = 0 if l == 0 else draw(st.sampled_from((0,) * 6 + (1, 3)))
            bounds = [start] + sorted(c for c in draw(st.sets(
                st.sampled_from(sorted(marks)), max_size=6)) if c > start)
        summands = [(bounds[i], bounds[i + 1] - bounds[i])
                    for i in range(0, len(bounds) - 1, 2)]
        if len(bounds) % 2 and (single or not summands or draw(st.booleans())):
            summands.append((bounds[-1], INFINITE))
        rows[l] = IntervalModule(tuple(summands))
        marks |= {c - k * e + d for c in bounds for k in (0, 1, 2)
                  for d in (-2, -1, 0, 1)}
    return Page(fiber=fiber, group=group, rounds=(r,), rows=rows)


@settings(max_examples=600, deadline=None)
@given(_random_pages())
def test_branches_match_the_column_reference_on_random_pages(page):
    _assert_branches_match_the_reference(page)
    for _, _, child in branches(page):
        if child is not None:
            _assert_rows_canonical(child)


def test_every_page_of_a_walk_holds_canonical_rows():
    """The pages classify reaches, walked through the engine's own
    children: the sweep of n = 1..24 in both groups and all four (a, b),
    the truncated-u6 fiber and wedges of at most 8 classes. A row that
    minus builds on these walks is one finite run from column 0; the
    random pages give cut rows of several runs and infinite ones."""
    fibers = _sweep_fibers() + [wedge(range(1, k)) for k in range(2, 9)]
    fibers += [wedge(degrees) for degrees in ((1, 3), (2, 3, 5), (1, 2, 4),
                                              (2, 3, 4, 5), (1, 3, 4, 6, 9))]
    todo = [build_e2(fiber, group) for fiber in fibers for group in GroupChoice]
    cut = 0  # rows that minus built
    while todo:
        page = todo.pop()
        _assert_rows_canonical(page)
        if page.round is not None:
            for pattern, _, child in branches(page):
                if child is not None:
                    cut += sum(l in child.rows for s in pattern.sources
                               for l in (s, s - pattern.round + 1))
                    todo.append(child)
    assert cut > 1000


def test_a_page_masks_its_rows_only_at_its_first_nonzero_pattern(monkeypatch):
    """Only a Leibniz pair's target columns are read as masks, and a page
    masks its rows when its first nonzero pattern is checked. The page
    after d3 on row 4 (test_turn_page_known_intervals) has no slot at
    round 5, so its one pattern is zero, keeps every row and masks none.
    Its child has the slot 6 at round 7: the scan and the zero pattern
    mask no row, and the nonzero pattern masks each row once."""
    fiber = make_type_ab(2, 0, 0)
    rows = {0: FREE_ROW, 2: IntervalModule(((0, 3),)), 6: FREE_ROW}
    page = Page(fiber=fiber, group=GroupChoice.Z2, rounds=(5, 7), rows=rows)
    calls = []
    column_mask = IntervalModule.column_mask

    def counted(self, nbits):
        calls.append(nbits)
        return column_mask(self, nbits)

    monkeypatch.setattr(IntervalModule, "column_mask", counted)
    assert differential_slots(page) == ()
    ((pattern, reason, nxt),) = list(branches(page))
    assert calls == []
    assert (pattern, reason) == (DifferentialPattern(5, ()), None)
    assert nxt.rows == page.rows and nxt.rounds == (7,)
    assert differential_slots(nxt) == (6,)
    steps = branches(nxt)
    assert next(steps)[:2] == (DifferentialPattern(7, ()), None)
    assert calls == []
    assert next(steps)[0] == DifferentialPattern(7, (6,))
    assert len(calls) == len(rows)


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


@pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_large_n_traced_peak_stays_under_2_8_mib(a, b):
    """A page masks its rows only once a nonzero pattern is checked, after
    the zero pattern's subtree is walked, so the pages on the walk stack
    do not all hold masks at once. The traced peak of the second of two
    calls at n = 100000, as README measures it, is at most 2.8 MiB."""
    fiber = make_type_ab(100000, a, b)
    classify(fiber, GroupChoice.Z2)
    tracemalloc.start()
    try:
        classify(fiber, GroupChoice.Z2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.8 * 2**20, peak


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


def test_classify_leaves_no_reference_cycle():
    # a report, its pages and its walk are freed by reference counting
    fibers = [make_type_ab(n, a, b) for n in range(1, 7)
              for a in (0, 1) for b in (0, 1)]
    fibers.append(load_fiber(os.path.join(os.path.dirname(__file__),
                                          "fiber_truncated_u6.json")))

    def calls():
        for fiber in fibers:
            for group in GroupChoice:
                classify(fiber, group)

    assert cyclic_garbage(calls) == 0


def test_a_refused_walk_leaves_no_reference_cycle(monkeypatch):
    # the branches walked before the refusal are freed with its traceback
    monkeypatch.setattr(engine, "MAX_BRANCHES", 5)
    fiber = make_type_ab(4, 1, 1)

    def calls():
        with pytest.raises(OversizedInstanceError):
            classify(fiber, GroupChoice.Z2)

    assert cyclic_garbage(calls) == 0

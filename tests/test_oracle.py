"""Tests for the truncated brute-force oracle."""

import itertools

import pytest

from orbitcohom.engine import GroupChoice, classify
from orbitcohom.errors import InvalidInputError, OversizedInstanceError
from orbitcohom.fiber import make_type_ab
from orbitcohom.oracle import (_differentials, _turn, brute_force_classify,
                               compare_reports, min_cap, truncate_e2)

from helpers import cap_stable, point_ring


def test_cell_counts():
    tc = truncate_e2(make_type_ab(1, 0, 0), GroupChoice.Z2, 8)
    assert len(tc.cells) == 30  # 9 + 8 + 7 + 6 lattice points on rows 0..3
    tc = truncate_e2(point_ring(), GroupChoice.Z2, 4)
    assert len(tc.cells) == 5


def test_circle_cells_have_even_columns():
    tc = truncate_e2(make_type_ab(1, 0, 0), GroupChoice.CIRCLE, 12)
    assert tc.cells and all(k % 2 == 0 for k, _ in tc.cells)


def test_cap_too_small_rejected():
    fiber = make_type_ab(1, 0, 0)
    with pytest.raises(InvalidInputError):
        truncate_e2(fiber, GroupChoice.Z2, min_cap(fiber, GroupChoice.Z2) - 1)


def test_oversized_instance_rejected():
    fiber = make_type_ab(40, 0, 0)
    with pytest.raises(OversizedInstanceError):
        truncate_e2(fiber, GroupChoice.Z2, min_cap(fiber, GroupChoice.Z2))


def test_turn_rejects_nonzero_composite():
    # Z/2, n = 1: on page 2 the rows 3 -> 2 -> 1 form the chain
    # (0, 3) -> (2, 2) -> (4, 1); with both coefficients set d o d != 0.
    chain = {(0, 3), (2, 2), (4, 1)}
    assert _turn(chain, _differentials(chain, 2, {3: 1, 2: 1})) is None


def test_turn_kills_hit_and_hitting_cells_only():
    live = {(0, 0), (0, 3), (2, 2)}
    # (0, 3) hits (2, 2); (0, 0) is untouched
    assert _turn(live, _differentials(live, 2, {3: 1})) == {(0, 0)}
    assert _turn(live, _differentials(live, 2, {3: 0})) == live


def test_oracle_dims_even_even_n1():
    fiber = make_type_ab(1, 0, 0)
    report = brute_force_classify(fiber, GroupChoice.Z2, 8)
    assert len(report.outcomes) == 1
    dims = report.outcomes[0].dims
    assert {d: dims[d] for d in range(4)} == {0: 1, 1: 2, 2: 2, 3: 1}
    assert all(dims.get(d, 0) == 0 for d in range(4, 9))


def test_oracle_rejects_everything_odd_even():
    report = brute_force_classify(make_type_ab(1, 1, 0), GroupChoice.Z2, 8)
    assert report.outcomes == ()
    assert report.rejected_assignments > 0


def test_compare_reports_agreement():
    fiber = make_type_ab(2, 0, 1)
    engine_report = classify(fiber, GroupChoice.Z2)
    oracle_report = brute_force_classify(fiber, GroupChoice.Z2,
                                         min_cap(fiber, GroupChoice.Z2))
    assert compare_reports(engine_report, oracle_report) == []


def test_compare_reports_detects_planted_mismatch():
    fiber = make_type_ab(1, 0, 0)
    engine_report = classify(fiber, GroupChoice.Z2)
    oracle_report = brute_force_classify(fiber, GroupChoice.Z2, 8)

    # plant a corrupted dimension table in the oracle result
    broken_outcome = oracle_report.outcomes[0]._replace(dims={0: 1, 1: 5})
    broken = oracle_report._replace(outcomes=(broken_outcome,))
    problems = compare_reports(engine_report, broken)
    assert any("dimension mismatch" in p for p in problems)

    # plant a missing outcome
    empty = oracle_report._replace(outcomes=())
    problems = compare_reports(engine_report, empty)
    assert any("engine-only outcome" in p for p in problems)


def test_cap_stability():
    fiber = make_type_ab(1, 0, 1)
    assert cap_stable(fiber, GroupChoice.Z2,
                      min_cap(fiber, GroupChoice.Z2)) == []


def test_all_small_cases_agree():
    """Engine and oracle at the smallest cap, both groups, all four (a, b),
    every n the oracle accepts: n = 1..32 under Z/2 and 1..66 under the
    circle. The next n exceeds the oracle's cell limit."""
    pairs = [(a, b) for a in (0, 1) for b in (0, 1)]
    for group, largest in ((GroupChoice.Z2, 32), (GroupChoice.CIRCLE, 66)):
        for n in itertools.count(1):
            fibers = [make_type_ab(n, a, b) for a, b in pairs]
            try:
                oracle_reports = [brute_force_classify(f, group,
                                                       min_cap(f, group))
                                  for f in fibers]
            except OversizedInstanceError:
                break
            for (a, b), fiber, oracle_report in zip(pairs, fibers,
                                                    oracle_reports):
                assert compare_reports(classify(fiber, group),
                                       oracle_report) == [], (group, n, a, b)
        assert n == largest + 1, group

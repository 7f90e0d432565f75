"""Tests for the truncated brute-force oracle."""

import ast
import itertools
from pathlib import Path

import pytest

from orbitcohom import oracle
from orbitcohom.engine import GroupChoice, classify
from orbitcohom.errors import (InvalidInputError, OversizedInstanceError,
                              UnsupportedShapeError)
from orbitcohom.fiber import load_fiber, make_type_ab
from orbitcohom.oracle import brute_force_classify, compare_reports, min_cap

from helpers import cap_stable, cyclic_garbage, point_ring


def cell_count(tc):
    """The number of cells: set bits over the row masks."""
    return sum(bin(columns).count("1") for columns in tc.rows.values())


def test_cell_counts():
    tc = brute_force_classify(make_type_ab(1, 0, 0), GroupChoice.Z2, 8).complex
    # 9 + 8 + 7 + 6 lattice points on rows 0..3
    assert cell_count(tc) == 30
    tc = brute_force_classify(point_ring(), GroupChoice.Z2, 4).complex
    assert cell_count(tc) == 5


def test_circle_cells_have_even_columns():
    tc = brute_force_classify(make_type_ab(1, 0, 0), GroupChoice.CIRCLE,
                              12).complex
    assert any(tc.rows.values())
    odd = sum(1 << k for k in range(1, 13, 2))  # columns 1, 3, ..., 11
    assert not any(columns & odd for columns in tc.rows.values())


def _shortcut_fibers():
    """Type (a, b) at n = 1..8 and the truncated-u6 fiber."""
    u6 = Path(__file__).with_name("fiber_truncated_u6.json")
    return [*(make_type_ab(n, a, b) for n in range(1, 9) for a in (0, 1)
              for b in (0, 1)), load_fiber(str(u6))]


@pytest.mark.parametrize("group", list(GroupChoice))
def test_rows_in_closed_form_are_the_per_cell_masks(group):
    for fiber in _shortcut_fibers():
        low = min_cap(fiber, group)
        for cap in range(low, low + 4):
            assert brute_force_classify(fiber, group, cap).complex.rows == {
                l: sum(1 << k for k in range(0, cap - l + 1, group.step))
                for l in fiber.names}, (fiber, cap)


def test_the_empty_choice_keeps_its_page(monkeypatch):
    """The walk hands the empty choice its live rows, with no turn: on
    every page the walk turns, the turn under d = 0 keeps every cell."""
    turn, turned = oracle._turn, []

    def recorded(live, d, r):
        turned.append((live, r))
        return turn(live, d, r)

    monkeypatch.setattr(oracle, "_turn", recorded)
    for fiber in _shortcut_fibers():
        for group in GroupChoice:
            brute_force_classify(fiber, group, min_cap(fiber, group))
    assert turned
    for live, r in turned:
        assert turn(live, {}, r) == live


def test_cap_too_small_rejected():
    fiber = make_type_ab(1, 0, 0)
    with pytest.raises(InvalidInputError):
        brute_force_classify(fiber, GroupChoice.Z2,
                             min_cap(fiber, GroupChoice.Z2) - 1)


def test_oversized_instance_rejected():
    # Z/2 n = 1281 has 18 n + 12 = 23070 cells, the first count above
    # MAX_CELLS, which is the 23052 cells of n = 1280
    fiber = make_type_ab(1281, 0, 0)
    with pytest.raises(OversizedInstanceError,
                       match="23070 cells exceeds the oracle limit of 23052"):
        brute_force_classify(fiber, GroupChoice.Z2,
                             min_cap(fiber, GroupChoice.Z2))


@pytest.mark.parametrize("group", list(GroupChoice))
def test_two_classes_in_one_degree_rejected(group):
    """The oracle refuses such a fiber itself, not only through the engine,
    which refuses it before any CLI command reaches the oracle. Its Leibniz
    check needs the refusal: with one class per degree, a product of two
    rows is empty or the one row of their degree sum."""
    fiber = load_fiber(str(Path(__file__).with_name("fiber_rank_two.json")))
    with pytest.raises(UnsupportedShapeError,
                       match="oracle needs at most one basis element per "
                             "degree"):
        brute_force_classify(fiber, group, min_cap(fiber, group))


def test_no_outcome_has_a_nonzero_composite():
    # Z/2, type (0, 1), n = 1: on page 2 every row is a slot, and with all
    # of them sources the chain (0, 3) -> (2, 2) -> (4, 1) has d o d != 0.
    # The Leibniz rule admits that choice, so only the d o d test refuses it.
    report = brute_force_classify(make_type_ab(1, 0, 1), GroupChoice.Z2, 8)
    assert report.outcomes
    assert all(o.key[0] != (2, (1, 2, 3)) for o in report.outcomes)


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

    # plant an engine outcome twice, and drop the engine's outcomes
    doubled = engine_report._replace(outcomes=engine_report.outcomes * 2)
    assert compare_reports(doubled, oracle_report) == [
        "engine outcomes have duplicate history keys"]
    none = engine_report._replace(outcomes=())
    assert oracle_report.outcomes
    assert compare_reports(none, oracle_report) == [
        f"oracle-only outcome {o.key}" for o in oracle_report.outcomes]


def test_cap_stability():
    fiber = make_type_ab(1, 0, 1)
    assert cap_stable(fiber, GroupChoice.Z2,
                      min_cap(fiber, GroupChoice.Z2)) == []


def test_all_small_cases_agree():
    """Engine and oracle at the smallest cap, both groups, all four (a, b):
    every n up to 32 under Z/2 and 66 under the circle, then every 8th n up
    to 128 and 256, under Z/2 every 16th n of the benchmark's z2-wide range
    48..320, and the largest n the oracle accepts, 1280 and 2559. The next
    n with a round, 1281 and 2561, is refused (the circle has none at even
    n). Above 32 / 66 the sweep is sampled, to keep the suite fast."""
    for group, ns, refused in (
            (GroupChoice.Z2, {*range(1, 33), *range(40, 129, 8),
                              *range(48, 321, 16), 1280}, 1281),
            (GroupChoice.CIRCLE, {*range(1, 67), *range(74, 256, 8), 256,
                                  2559}, 2561)):
        for n, a, b in itertools.product(sorted(ns), (0, 1), (0, 1)):
            fiber = make_type_ab(n, a, b)
            oracle_report = brute_force_classify(fiber, group,
                                                 min_cap(fiber, group))
            assert compare_reports(classify(fiber, group),
                                   oracle_report) == [], (group, n, a, b)
        fiber = make_type_ab(refused, 0, 0)
        with pytest.raises(OversizedInstanceError):
            brute_force_classify(fiber, group, min_cap(fiber, group))


def test_the_oracle_takes_only_the_group_type_from_the_engine():
    """The oracle is the engine's independent check, so it derives its
    rounds and slots from its own cells and imports from the engine only
    the input type."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            from_engine = "engine" in (node.module or "").split(".")
            taken.update(alias.name for alias in node.names
                         if from_engine or alias.name == "engine")
        elif isinstance(node, ast.Import):
            taken.update(alias.name for alias in node.names
                         if "engine" in alias.name.split("."))
    assert taken == {"GroupChoice"}


def test_the_oracle_leaves_no_reference_cycle():
    # its walk and every outcome it holds are freed by reference counting
    fibers = [make_type_ab(n, a, b) for n in range(1, 6)
              for a in (0, 1) for b in (0, 1)]

    def calls():
        for fiber in fibers:
            for group in GroupChoice:
                brute_force_classify(fiber, group, min_cap(fiber, group))

    assert cyclic_garbage(calls) == 0

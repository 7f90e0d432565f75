"""A truncated polynomial fiber F2[u]/(u^6), whose outcomes carry the
two-term relation z1^2 + z2.

With |u| = 1 and |u| = 2 these are the fibers of free involutions on RP^5
and CP^5. The Z/2 index is read off the limit page's base row, so the
two-term relation needs no special handling. The self-check walks these
outcomes' monomial bases like any other's.
"""

import json
from pathlib import Path

import pytest

from orbitcohom import cli, oracle
from orbitcohom.engine import GroupChoice, classify
from orbitcohom.fiber import load_fiber
from orbitcohom.oracle import brute_force_classify, compare_reports, min_cap
from orbitcohom.presentation import presentation_str
from orbitcohom.selfcheck import basis_problems

FIXTURE = Path(__file__).with_name("fiber_truncated_u6.json")


def _scaled_fixture(tmp_path, degree):
    """The fixture with |u| = degree, written to tmp_path and loaded."""
    doc = json.loads(FIXTURE.read_text())
    doc["basis"] = [dict(b, degree=b["degree"] * degree) for b in doc["basis"]]
    doc["top_degree"] *= degree
    path = tmp_path / f"truncated_u6_deg{degree}.json"
    path.write_text(json.dumps(doc))
    return load_fiber(str(path))


def test_z2_outcome_and_index():
    report = classify(load_fiber(str(FIXTURE)), GroupChoice.Z2)
    assert [presentation_str(o.presentation) for o in report.outcomes] == [
        "F2[x(1),z1(2),z2(4)]/(x^2, z1^2 + z2, z1*z2, z2^2)"]
    (outcome,) = report.outcomes
    assert outcome.index == 1
    assert outcome.poincare.dense(5) == [1] * 6


def test_circle_outcome_is_cp2():
    report = classify(load_fiber(str(FIXTURE)), GroupChoice.CIRCLE)
    assert [presentation_str(o.presentation) for o in report.outcomes] == [
        "F2[z1(2),z2(4)]/(z1^2 + z2, z1*z2, z2^2)"]


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("group", list(GroupChoice), ids=lambda g: g.value)
def test_oracle_agrees(tmp_path, group, degree):
    ring = _scaled_fixture(tmp_path, degree)
    report = classify(ring, group)
    oracle_report = brute_force_classify(ring, group, min_cap(ring, group))
    assert compare_reports(report, oracle_report) == []


@pytest.mark.parametrize("command", ["classify", "index"])
def test_cli_exits_zero(capsys, command):
    code = cli.main([command, "--fiber", str(FIXTURE), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert json.loads(captured.out)["verdict"] == "free-action-possible"


@pytest.mark.parametrize("group", ["z2", "s1"])
def test_self_check_walks_the_basis_and_runs_the_oracle(capsys, group):
    code = cli.main(["classify", "--self-check", "--fiber", str(FIXTURE),
                     "--group", group])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""


@pytest.mark.parametrize("group,degrees", [(GroupChoice.Z2, [4, 5]),
                                           (GroupChoice.CIRCLE, [4])],
                         ids=["z2", "s1"])
def test_basis_walk_catches_a_dropped_two_term_relation(group, degrees):
    # Reading z1^2 + z2 as z1^2 keeps every dimension, so no count can
    # catch it; dropping the relation leaves z1^2 and z2 independent.
    (outcome,) = classify(load_fiber(str(FIXTURE)), group).outcomes
    pres = outcome.presentation
    dropped = pres._replace(relations=tuple(
        rel for rel in pres.relations if len(rel) == 1))
    problems = basis_problems(outcome._replace(presentation=dropped))
    assert [p.split(": ")[1] for p in problems] == [
        f"degree {d} has 2 basis monomials but Poincare dimension 1"
        for d in degrees]


@pytest.mark.parametrize("group", ["z2", "s1"])
def test_self_check_still_fails_on_an_oracle_problem(capsys, monkeypatch,
                                                     group):
    monkeypatch.setattr(oracle, "compare_reports",
                        lambda engine_report, oracle_report: ["planted"])
    code = cli.main(["classify", "--self-check", "--fiber", str(FIXTURE),
                     "--group", group])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "self-check failed: planted" in captured.err.splitlines()


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_z2_index_is_the_degree_of_u(tmp_path, degree):
    report = classify(_scaled_fixture(tmp_path, degree), GroupChoice.Z2)
    assert [o.index for o in report.outcomes] == [degree]

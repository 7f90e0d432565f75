"""Every small fiber ring: one class in each degree of a set of 0..6 that
holds 0, each product 0 or the class of the sum degree (``helpers.census``).
The engine, its self-check and the oracle agree on each of them under both
groups, and its smallest witness pins the oracle's same-row pairs."""

from orbitcohom import oracle
from orbitcohom.engine import GroupChoice, classify
from orbitcohom.fiber import FiberRing
from orbitcohom.selfcheck import self_check

from helpers import census


def test_the_self_check_passes_on_every_ring_of_the_census(capsys):
    rings = list(census(6))
    outcomes = two_term = 0
    for ring in rings:
        for group in GroupChoice:
            report = classify(ring, group)
            assert self_check(report) == [], (group, ring.products)
            outcomes += len(report.outcomes)
            two_term += sum(any(len(rel) > 1 for rel in out.presentation.relations)
                            for out in report.outcomes)
    # the counts pin the enumerator: 312 rings, the one-class ring among them
    assert (len(rings), outcomes, two_term) == (312, 332, 44)
    assert capsys.readouterr().err == ""


def test_the_oracle_needs_its_same_row_pairs():
    # e0, e2, e3, e4 with e2*e2 = e4: d2(e2^2) = 2 e2 d2(e2) = 0, so d2
    # cannot hit e4's row, a Leibniz constraint on the pair (e2, e2) alone
    ring = FiberRing(
        basis=(("e0", 0), ("e2", 2), ("e3", 3), ("e4", 4)), unit="e0",
        products=tuple((("e0", name), frozenset({name}))
                       for name in ("e0", "e2", "e3", "e4"))
        + ((("e2", "e2"), frozenset({"e4"})),), top_degree=4)
    report = classify(ring, GroupChoice.Z2)
    oracle_report, problems = oracle.check(report)
    keys = [out.key for out in oracle_report.outcomes]
    assert ((2, (4,)), (3, (2,)), (4, ()), (5, ())) not in keys
    assert problems == []

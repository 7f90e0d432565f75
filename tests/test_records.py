"""Semantics of the package's records: immutability, constructors, equality."""

import pytest

from orbitcohom.engine import (DifferentialPattern, GroupChoice, Page,
                               build_e2, classify, differential_slots)
from orbitcohom.errors import InvalidInputError
from orbitcohom.fiber import FiberRing, make_type_ab
from orbitcohom.intervals import IntervalModule
from orbitcohom.oracle import brute_force_classify, min_cap
from orbitcohom.presentation import ExtensionFlag, RingPresentation

from helpers import point_ring


def _records():
    """name -> (instance, field) for one instance of every public record."""
    fiber = make_type_ab(2, 0, 1)
    report = classify(fiber, GroupChoice.Z2)
    out = report.outcomes[0]
    oracle = brute_force_classify(fiber, GroupChoice.Z2,
                                  min_cap(fiber, GroupChoice.Z2))
    page = out.e_inf
    return {
        "IntervalModule": (page.rows[0], "summands"),
        "Page": (page, "rows"),
        "DifferentialPattern": (out.history[0], "sources"),
        "FiberRing": (fiber, "top_degree"),
        "Outcome": (out, "index"),
        "RejectedBranch": (report.rejected[0], "reason"),
        "ClassificationReport": (report, "outcomes"),
        "RingPresentation": (out.presentation, "relations"),
        "ExtensionFlag": (ExtensionFlag("z^2", ("x*z",)), "product"),
        "TruncatedComplex": (oracle.complex, "cap"),
        "OracleOutcome": (oracle.outcomes[0], "dims"),
        "OracleReport": (oracle, "outcomes"),
    }


# The records are built inside each test, so that a defect in building one
# fails the tests one by one instead of the module's collection.
@pytest.mark.parametrize("name", [
    "IntervalModule", "Page", "DifferentialPattern", "FiberRing", "Outcome",
    "RejectedBranch", "ClassificationReport", "RingPresentation",
    "ExtensionFlag", "TruncatedComplex", "OracleOutcome", "OracleReport"])
def test_assigning_or_deleting_a_field_raises(name):
    record, field = _records()[name]
    assert type(record).__name__ == name
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_keyword_and_positional_constructors():
    ring = point_ring()
    assert FiberRing(ring.basis, ring.unit, ring.products, 0) == FiberRing(
        basis=ring.basis, unit="1", products=ring.products, top_degree=0,
        warnings=())
    assert ring.warnings == () and ring.degrees == {"1": 0}
    row = IntervalModule(summands=((0, 2),))
    assert row == IntervalModule(((0, 2),))
    page = Page(fiber=ring, group=GroupChoice.Z2, rounds=(), rows={0: row})
    assert page == Page(ring, GroupChoice.Z2, (), {0: row})
    assert page.step == 1 and page.round is None
    assert DifferentialPattern(round=3, sources=(2,)) == DifferentialPattern(3, (2,))
    x_cubed = (("x", 3),)
    pres = RingPresentation((("x", 1),), ((x_cubed,),))
    assert pres.base_generator is None
    assert pres._replace(base_generator="x").base_generator == "x"


def test_differential_pattern_equality_hash_and_repr():
    p = DifferentialPattern(3, (2, 4))
    assert p == DifferentialPattern(3, (2, 4))
    assert hash(p) == hash(DifferentialPattern(3, (2, 4)))
    assert p != DifferentialPattern(5, (2, 4))
    assert p != DifferentialPattern(3, (2,))
    assert p != (3, (2, 4))  # a record equals only records of its own type
    assert {p: 1}[DifferentialPattern(3, (2, 4))] == 1
    assert len({p, DifferentialPattern(3, (2, 4)), DifferentialPattern(3, ())}) == 2
    assert repr(p) == "DifferentialPattern(round=3, sources=(2, 4))"
    assert dict.fromkeys(p.sources, 1) == {2: 1, 4: 1}


def test_page_equality_ignores_its_scan_cache(monkeypatch):
    page = build_e2(make_type_ab(2, 0, 0), GroupChoice.Z2)
    fresh = build_e2(make_type_ab(2, 0, 0), GroupChoice.Z2)
    slots = differential_slots(page)
    # the page scans its rows once: asked again, it reads none of them
    reads = []
    has_column = IntervalModule.has_column
    monkeypatch.setattr(IntervalModule, "has_column",
                        lambda row, k: reads.append(k) or has_column(row, k))
    assert differential_slots(page) == slots and reads == []
    assert page == fresh
    assert "_scan" not in repr(page)


def test_fiber_ring_validation_and_private_tables():
    ring = make_type_ab(2, 1, 1)
    assert ring == make_type_ab(2, 1, 1)
    assert hash(ring) == hash(make_type_ab(2, 1, 1))
    assert ring != make_type_ab(2, 1, 0)
    assert ring.mult("v1", "v2") == frozenset({"v3"})
    assert "_tbl" not in repr(ring)
    assert ring.names == {0: "1", 2: "v1", 4: "v2", 6: "v3"}
    assert "_names" not in repr(ring)
    with pytest.raises(InvalidInputError):
        FiberRing(basis=(("1", 0),), unit="u", products=(), top_degree=0)

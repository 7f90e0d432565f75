"""Tests for the mod-2 cohomology index and sphere-map bound."""

import pytest

from orbitcohom.engine import GroupChoice, classify
from orbitcohom.errors import UnsupportedShapeError, WrongGroupError
from orbitcohom.fiber import make_type_ab
from orbitcohom.obstruction import (IndexResult, cohomology_index,
                                    sphere_map_bound)
from orbitcohom.presentation import RingPresentation, make_presentation


def test_even_even_index_is_3n():
    for n in (1, 2, 3, 5):
        report = classify(make_type_ab(n, 0, 0), GroupChoice.Z2)
        assert [o.index for o in report.outcomes] == [3 * n]


def test_odd_odd_index_is_n():
    for n in (2, 4):
        report = classify(make_type_ab(n, 1, 1), GroupChoice.Z2)
        assert [o.index for o in report.outcomes] == [n]


def test_index_zero_when_x_elided():
    pres = make_presentation([("z", 2)], [((("z", 2),),)],
                             base_generator=None)
    assert cohomology_index(pres) == 0


def test_x_power_one_gives_zero():
    pres = make_presentation([("x", 1)], [((("x", 1),),)], base_generator="x")
    assert cohomology_index(pres) == 0


def test_relation_killing_a_lower_x_power_raises():
    # Relations out of canonical order: the first x power relation says x^5,
    # but x^3 = 0 as well, so the basis side finds 2, not 4.
    pres = RingPresentation((("x", 1), ("z", 2)),
                            (((("x", 5),),), ((("z", 2),),), ((("x", 3),),)),
                            base_generator="x")
    with pytest.raises(UnsupportedShapeError, match="disagreement"):
        cohomology_index(pres)


def test_relation_one_kills_every_x_power():
    pres = make_presentation([("x", 1)], [((),), ((("x", 1),),)],
                             base_generator="x")
    assert pres.relations[0] == ((),)
    assert cohomology_index(pres) == 0
    pres = make_presentation([("x", 1)], [((),), ((("x", 3),),)],
                             base_generator="x")
    with pytest.raises(UnsupportedShapeError, match="basis gives 0"):
        cohomology_index(pres)


def test_mixed_relations_do_not_bound_the_index():
    # x^2*z = 0 does not divide any pure x power.
    pres = make_presentation([("x", 1), ("z", 2)],
                             [((("x", 2), ("z", 1)),), ((("x", 6),),)],
                             base_generator="x")
    assert cohomology_index(pres) == 5


def test_two_term_relations_rejected():
    pres = make_presentation([("x", 1), ("z", 2)],
                             [((("x", 4),),), ((("z", 2),), (("x", 4),))],
                             base_generator="x")
    with pytest.raises(UnsupportedShapeError, match="monomial relations"):
        cohomology_index(pres)


def test_wrong_group_rejected():
    pres = make_presentation([("x", 2)], [((("x", 3),),)], base_generator="x")
    with pytest.raises(WrongGroupError):
        cohomology_index(pres)


def test_index_invariant_under_canonicalization():
    p1 = make_presentation([("x", 1), ("z", 2)],
                           [((("x", 5),),), ((("z", 2),),)],
                           base_generator="x")
    p2 = make_presentation([("z", 2), ("x", 1)],
                           [((("z", 2),),), ((("x", 5),),)],
                           base_generator="x")
    assert cohomology_index(p1) == cohomology_index(p2) == 4


def test_sphere_map_bound_passthrough():
    assert sphere_map_bound(IndexResult(6)) == 6
    assert sphere_map_bound(IndexResult(0)) == 0
    result = IndexResult(3, per_outcome=(3,))
    assert result.no_equivariant_map_above == 3


def test_circle_outcomes_have_no_index():
    report = classify(make_type_ab(3, 0, 0), GroupChoice.CIRCLE)
    assert all(o.index is None for o in report.outcomes)

"""Tests for fiber-ring construction, validation, and loading."""

import json

import pytest

from orbitcohom.errors import InvalidInputError
from orbitcohom.fiber import (FiberRing, load_fiber, make_type_ab,
                              MAX_DEGREE, normalize_parity, point_ring,
                              validate)


def test_normalize_parity():
    assert normalize_parity("even") == 0
    assert normalize_parity("odd") == 1
    assert normalize_parity(4) == 0
    assert normalize_parity(-3) == 1
    assert normalize_parity("7") == 1
    with pytest.raises(InvalidInputError):
        normalize_parity("sometimes")


def test_type_ab_products_even_even():
    ring = make_type_ab(2, 0, 0)
    assert ring.mult("v1", "v1") == frozenset()
    assert ring.mult("v1", "v2") == frozenset()
    assert ring.top_degree == 6


def test_type_ab_products_odd_even():
    ring = make_type_ab(2, 1, 0)
    assert ring.mult("v1", "v1") == frozenset({"v2"})
    assert ring.mult("v1", "v2") == frozenset()


def test_type_ab_products_odd_odd():
    ring = make_type_ab(1, 1, 1)
    assert ring.mult("v1", "v1") == frozenset({"v2"})
    assert ring.mult("v1", "v2") == frozenset({"v3"})
    assert ring.mult("v2", "v1") == frozenset({"v3"})


def test_high_products_vanish():
    ring = make_type_ab(3, 1, 1)
    for u, v in (("v1", "v3"), ("v2", "v2"), ("v2", "v3"), ("v3", "v3")):
        assert ring.mult(u, v) == frozenset()


def test_invalid_n():
    with pytest.raises(InvalidInputError):
        make_type_ab(0, 0, 0)


def test_odd_n_odd_a_warns():
    ring = make_type_ab(3, 1, 0)
    assert ring.warnings and "not integrally realizable" in ring.warnings[0]
    assert make_type_ab(3, 0, 1).warnings == ()
    assert make_type_ab(2, 1, 1).warnings == ()


def test_constructor_output_always_valid():
    for n in (1, 2, 3, 5):
        for a in (0, 1):
            for b in (0, 1):
                ring = make_type_ab(n, a, b)
                assert validate(ring) == []
                assert len(ring.basis) == 4


def _ring_with(products, n=2, top=None):
    basis = (("1", 0), ("v1", n), ("v2", 2 * n), ("v3", 3 * n))
    table = {}
    names = [b[0] for b in basis]
    for u in names:
        table[("1", u)] = frozenset({u})
        table[(u, "1")] = frozenset({u})
    table.update(products)
    return FiberRing(basis=basis, unit="1", products=tuple(sorted(table.items())),
                     top_degree=top if top is not None else 3 * n)


def test_validate_degree_defect():
    ring = _ring_with({("v1", "v2"): frozenset({"v1"}),
                       ("v2", "v1"): frozenset({"v1"})})
    problems = validate(ring)
    assert any("degree additivity" in p for p in problems)


def test_validate_commutativity_defect():
    ring = _ring_with({("v1", "v2"): frozenset({"v3"}),
                       ("v2", "v1"): frozenset()})
    problems = validate(ring)
    assert any("commutativity" in p for p in problems)


def test_validate_associativity_defect():
    # plant v1*v1 = v2 and v1*v2 = v3 but force (v1*v1)*v2 = v2*v2 = 0
    # against v1*(v1*v2) = v1*v3; make v1*v3 nonzero to break the triple
    basis = (("1", 0), ("v1", 1), ("v2", 2), ("v3", 3), ("v4", 4))
    table = {}
    for u, _ in basis:
        table[("1", u)] = frozenset({u})
        table[(u, "1")] = frozenset({u})
    sym = {("v1", "v1"): frozenset({"v2"}),
           ("v1", "v2"): frozenset({"v3"}),
           ("v2", "v2"): frozenset(),
           ("v1", "v3"): frozenset({"v4"})}
    for (u, v), val in sym.items():
        table[(u, v)] = val
        table[(v, u)] = val
    ring = FiberRing(basis=basis, unit="1", products=tuple(sorted(table.items())),
                     top_degree=4)
    problems = validate(ring)
    assert any("associativity" in p and "v1" in p and "v2" in p
               for p in problems)


def test_validate_top_degree_defect():
    ring = _ring_with({("v2", "v3"): frozenset({"v1"})}, n=2)
    problems = validate(ring)
    assert any("top degree" in p or "degree additivity" in p for p in problems)


def test_duplicate_names_rejected():
    with pytest.raises(InvalidInputError):
        FiberRing(basis=(("1", 0), ("1", 1)), unit="1", products=(),
                  top_degree=1)


def test_load_fiber_round_trip(tmp_path):
    doc = {
        "basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 2}],
        "unit": "1",
        "products": [{"left": "u", "right": "u", "result": []}],
        "top_degree": 2,
    }
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps(doc))
    ring = load_fiber(str(path))
    assert validate(ring) == []
    assert ring.mult("u", "u") == frozenset()
    assert ring.mult("1", "u") == frozenset({"u"})


@pytest.mark.parametrize("basis, products", [
    ([["1", 0], ["u", 2]], [{"left": "u", "right": "u", "result": ["w"]}]),
    ([["1", 0], ["u", 2]], [{"left": "u", "right": "w", "result": []}]),
    ([["1", 0], ["u", -2]], []),
], ids=["unknown-result", "unknown-factor", "negative-degree"])
def test_load_fiber_rejects_bad_basis_references(tmp_path, basis, products):
    doc = {"basis": [{"name": name, "degree": deg} for name, deg in basis],
           "unit": "1", "products": products, "top_degree": 2}
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInputError):
        load_fiber(str(path))


# Python's json module reads Infinity and NaN; int() would overflow on the
# first and truncate 2.5 or true without a word.
NON_INTEGER_DEGREES = ["2.5", "2.0", "true", "Infinity", "-Infinity", "NaN",
                       '"2"', "null", "[2]"]


def _fiber_text(degree="2", top_degree="2"):
    return ('{"basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": %s}],'
            ' "unit": "1", "top_degree": %s}' % (degree, top_degree))


@pytest.mark.parametrize("field", ["degree", "top_degree"])
@pytest.mark.parametrize("value", NON_INTEGER_DEGREES)
def test_load_fiber_rejects_non_integer_degrees(tmp_path, field, value):
    path = tmp_path / "fiber.json"
    path.write_text(_fiber_text(**{field: value}))
    with pytest.raises(InvalidInputError, match="must be an integer"):
        load_fiber(str(path))


@pytest.mark.parametrize("value", [2.0, 2.5, True, "3"],
                         ids=["float", "fraction", "bool", "string"])
def test_library_refuses_non_integer_degrees(value):
    with pytest.raises(InvalidInputError, match="n must be a positive integer"):
        make_type_ab(value, 0, 0)
    with pytest.raises(InvalidInputError, match="degree must be an integer"):
        FiberRing(basis=(("1", 0), ("u", value)), unit="1", products=(),
                  top_degree=6)
    with pytest.raises(InvalidInputError, match="top_degree must be an integer"):
        FiberRing(basis=(("1", 0),), unit="1", products=(), top_degree=value)


@pytest.mark.parametrize("result", [
    '"v"', '"vv"', '"1"', "null", "7", '{"v": 1}', '["v", 2]', '[["v"]]',
], ids=["string", "long-string", "unit-string", "null", "number", "object",
        "number-in-list", "nested-list"])
def test_load_fiber_rejects_result_that_is_not_a_list_of_names(tmp_path, result):
    path = tmp_path / "fiber.json"
    path.write_text('{"basis": [{"name": "1", "degree": 0}, '
                    '{"name": "u", "degree": 1}, {"name": "v", "degree": 2}], '
                    '"unit": "1", "top_degree": 2, "products": '
                    '[{"left": "u", "right": "u", "result": %s}]}' % result)
    with pytest.raises(InvalidInputError, match="list of names"):
        load_fiber(str(path))


def test_degree_bound():
    assert make_type_ab(MAX_DEGREE // 3, 0, 0).top_degree == MAX_DEGREE
    with pytest.raises(InvalidInputError, match="supported maximum"):
        make_type_ab(MAX_DEGREE // 3 + 1, 0, 0)
    with pytest.raises(InvalidInputError, match="supported maximum"):
        FiberRing(basis=(("1", 0), ("u", MAX_DEGREE + 1)), unit="1",
                  products=(), top_degree=2)
    with pytest.raises(InvalidInputError, match="supported maximum"):
        FiberRing(basis=(("1", 0),), unit="1", products=(),
                  top_degree=MAX_DEGREE + 1)


def test_load_fiber_rejects_degrees_above_the_bound(tmp_path):
    for fields in ({"degree": str(10**18)}, {"top_degree": str(10**18)}):
        path = tmp_path / "fiber.json"
        path.write_text(_fiber_text(**fields))
        with pytest.raises(InvalidInputError, match="supported maximum"):
            load_fiber(str(path))


def test_load_fiber_bad_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InvalidInputError):
        load_fiber(str(path))
    path.write_bytes(b"\xff\xfe{")  # not UTF-8
    with pytest.raises(InvalidInputError):
        load_fiber(str(path))
    path.write_text("[" * 100000 + "]" * 100000)  # nested past the parser's limit
    with pytest.raises(InvalidInputError):
        load_fiber(str(path))
    with pytest.raises(InvalidInputError):
        load_fiber(str(tmp_path / "missing.json"))

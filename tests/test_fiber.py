"""Tests for fiber-ring construction, validation, and loading."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcohom import fiber
from orbitcohom.engine import GroupChoice, classify
from orbitcohom.errors import InvalidInputError
from orbitcohom.fiber import (FiberRing, load_fiber, make_type_ab,
                              MAX_DEGREE, normalize_parity, validate)
from orbitcohom.oracle import brute_force_classify, min_cap


def test_normalize_parity():
    assert normalize_parity("even") == 0
    assert normalize_parity("odd") == 1
    assert normalize_parity(4) == 0
    assert normalize_parity(-3) == 1
    assert normalize_parity("7") == 1
    with pytest.raises(InvalidInputError):
        normalize_parity("sometimes")


@pytest.mark.parametrize("value", [2.5, 2.0, float("nan"), True, False,
                                   b"1", None, [1]],
                         ids=["fraction", "float", "nan", "true", "false",
                              "bytes", "none", "list"])
def test_normalize_parity_refuses_what_is_not_an_int_or_a_string(value):
    # int() would read 2.5 as even, True and b"1" as odd, and fail bare on
    # None and NaN
    with pytest.raises(InvalidInputError, match="^not a parity: "):
        normalize_parity(value)
    with pytest.raises(InvalidInputError, match="^not a parity: "):
        make_type_ab(2, value, 0)


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


def test_type_ab_table_lists_one_order_of_each_nonzero_product():
    ring = make_type_ab(2, 1, 1)
    keys = [key for key, _ in ring.products]
    assert all(value for _, value in ring.products)
    assert not any((v, u) in keys for u, v in keys if u != v)
    assert ring.mult("v2", "v1") == ring.mult("v1", "v2") == frozenset({"v3"})
    assert ring.mult("v3", "1") == frozenset({"v3"})


def _refusal(build, *args, **kwargs):
    """The violations a ring built by build(*args, **kwargs) is refused for."""
    with pytest.raises(InvalidInputError, match="^invalid fiber ring: ") as info:
        build(*args, **kwargs)
    return str(info.value).removeprefix("invalid fiber ring: ").split("; ")


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
    problems = _refusal(_ring_with, {("v1", "v2"): frozenset({"v1"}),
                                     ("v2", "v1"): frozenset({"v1"})})
    assert any("degree additivity" in p for p in problems)


def test_validate_commutativity_defect():
    problems = _refusal(_ring_with, {("v1", "v2"): frozenset({"v3"}),
                                     ("v2", "v1"): frozenset()})
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
    problems = _refusal(FiberRing, basis=basis, unit="1",
                        products=tuple(sorted(table.items())), top_degree=4)
    assert any("associativity" in p and "v1" in p and "v2" in p
               for p in problems)


def test_unit_law_defect_names_the_ring_unit():
    problems = _refusal(FiberRing, basis=(("e2", 0), ("e0", 1)), unit="e2",
                        products=((("e2", "e2"), frozenset({"e2"})),
                                  (("e2", "e0"), frozenset())), top_degree=1)
    assert problems == ["unit law: e2*e0 = [], expected [e0]"]


def test_validate_top_degree_defect():
    problems = _refusal(_ring_with, {("v2", "v3"): frozenset({"v1"})}, n=2)
    assert any("top degree" in p or "degree additivity" in p for p in problems)


def _reference_violations(basis, unit, products, top_degree):
    """Axiom violations found by walking every pair in both orders and every
    triple, with a product given in one order standing for the other."""
    degree = dict(basis)
    names = list(degree)

    def mult(u, v):
        return products.get((u, v), products.get((v, u), frozenset()))

    def times(left, right):  # product of two F2 combinations
        acc = frozenset()
        for x, y in itertools.product(left, right):
            acc ^= mult(x, y)
        return acc

    found = []
    if degree[unit] != 0:
        found.append(("unit", unit))
    for u, v in itertools.product(names, repeat=2):
        if u == unit and mult(u, v) != {v} or v == unit and mult(u, v) != {u}:
            found.append(("unit law", u, v))
        if (u, v) in products and (v, u) in products \
                and products[(u, v)] != products[(v, u)]:
            found.append(("commutativity", u, v))
        if any(degree[x] != degree[u] + degree[v] for x in mult(u, v)):
            found.append(("degree", u, v))
        if degree[u] + degree[v] > top_degree and mult(u, v):
            found.append(("top degree", u, v))
    for u, v, w in itertools.product(names, repeat=3):
        if times(mult(u, v), {w}) != times({u}, mult(v, w)):
            found.append(("associativity", u, v, w))
    return found


@st.composite
def _small_rings(draw):
    """Random tables, most of them close to a ring (a degree-0 unit with its
    products, results of the right degree), so that both outcomes occur."""
    often = st.sampled_from((True, True, True, False))
    size = draw(st.integers(2, 5))
    names = [f"e{i}" for i in range(size)]
    degree = {name: draw(st.integers(0, 3)) for name in names}
    unit = draw(st.sampled_from(names))
    if draw(often):
        degree[unit] = 0
    element = st.sampled_from(names)
    products = {}
    for u, v in draw(st.lists(st.tuples(element, element), max_size=6)):
        if unit in (u, v) and draw(often):
            products[(u, v)] = frozenset({v if u == unit else u})
            continue
        fitting = [x for x in names if degree[x] == degree[u] + degree[v]]
        pool = fitting if fitting and draw(often) else names
        products[(u, v)] = draw(st.frozensets(st.sampled_from(pool), max_size=2))
    if draw(often):
        for name in names:
            products.setdefault((unit, name), frozenset({name}))
    top_degree = max(degree.values()) if draw(often) else draw(st.integers(0, 6))
    return tuple(degree.items()), unit, products, top_degree


@settings(max_examples=400, deadline=None)
@given(_small_rings())
def test_construction_succeeds_exactly_on_valid_rings(ring):
    basis, unit, products, top_degree = ring
    fields = dict(basis=basis, unit=unit, products=tuple(products.items()),
                  top_degree=top_degree)
    if _reference_violations(*ring):
        with pytest.raises(InvalidInputError, match="^invalid fiber ring: "):
            FiberRing(**fields)
    else:
        assert validate(FiberRing(**fields)) == []


def test_classify_and_oracle_do_not_check_a_built_ring_again(monkeypatch):
    ring = make_type_ab(2, 0, 1)

    def refuse(_):
        raise AssertionError("the ring was checked again after it was built")

    # in place, so that a module that bound validate under another name
    # calls the refusing body too
    monkeypatch.setattr(fiber.validate, "__code__", refuse.__code__)
    for group in GroupChoice:
        report = classify(ring, group)
        oracle = brute_force_classify(ring, group, min_cap(ring, group))
        assert len(oracle.outcomes) == len(report.outcomes)


@pytest.mark.parametrize("values", [(frozenset({"b"}), frozenset()),
                                    (frozenset(), frozenset({"b"}))],
                         ids=["b-then-zero", "zero-then-b"])
def test_repeated_product_rejected(values):
    # with the last value kept, a*a = 0 or b by the order of the entries
    basis = (("1", 0), ("a", 1), ("b", 2))
    units = tuple((("1", name), frozenset({name})) for name, _ in basis)
    with pytest.raises(InvalidInputError,
                       match=r"^product a\*a is listed twice$"):
        FiberRing(basis=basis, unit="1", top_degree=2, products=units + tuple(
            (("a", "a"), value) for value in values))


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

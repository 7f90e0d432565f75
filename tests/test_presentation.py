"""Tests for ring presentations extracted from limit pages."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcohom import selfcheck
from orbitcohom.engine import GroupChoice, Page, classify
from orbitcohom.errors import OversizedInstanceError, UnsupportedShapeError
from orbitcohom.fiber import load_fiber, make_type_ab
from orbitcohom.intervals import INFINITE, IntervalModule
from orbitcohom.presentation import (ExtensionFlag, PoincareSeries,
                                     extract_presentation, make_presentation,
                                     monomial_str, presentation_str,
                                     relation_str)
from orbitcohom.selfcheck import (basis_problems, monomial_basis_elements,
                                  self_check)

from helpers import cyclic_garbage, same_presentation, truncated_polynomial


def _z2_ring(n, power, z_deg, z_len=None):
    """Hand-written Z2-style presentation: x^power, z^2, optional z*x^z_len."""
    rels = [((("x", power),),), ((("z", 2),),)]
    if z_len is not None:
        rels.append(((("x", z_len), ("z", 1)),))
    return make_presentation([("x", 1), ("z", z_deg)], rels,
                             base_generator="x")


def test_even_even_matches_expected_ring():
    for n in (1, 2, 3, 4):
        report = classify(make_type_ab(n, 0, 0), GroupChoice.Z2)
        assert len(report.outcomes) == 1
        expected = _z2_ring(n, 3 * n + 1, n, z_len=n + 1)
        assert same_presentation(report.outcomes[0].presentation, expected)


def test_odd_odd_matches_expected_ring():
    for n in (2, 4):
        report = classify(make_type_ab(n, 1, 1), GroupChoice.Z2)
        assert len(report.outcomes) == 1
        expected = make_presentation([("x", 1), ("z", 2 * n)],
                                     [((("x", n + 1),),), ((("z", 2),),)],
                                     base_generator="x")
        assert same_presentation(report.outcomes[0].presentation, expected)


def test_circle_even_even_ring():
    for n in (1, 3, 5):
        report = classify(make_type_ab(n, 0, 0), GroupChoice.CIRCLE)
        assert len(report.outcomes) == 1
        pres = report.outcomes[0].presentation
        expected = make_presentation(
            [("x", 2), ("z", n)],
            [((("x", (3 * n + 1) // 2),),), ((("z", 2),),),
             ((("x", (n + 1) // 2), ("z", 1)),)],
            base_generator="x")
        assert same_presentation(pres, expected)


def test_circle_degenerate_ring_drops_x():
    report = classify(make_type_ab(1, 0, 1), GroupChoice.CIRCLE)
    degenerate = [o for o in report.outcomes
                  if o.presentation.base_generator is None]
    assert len(degenerate) == 1
    pres = degenerate[0].presentation
    assert pres.generators == (("z", 2),)
    assert pres.relations == (((("z", 2),),),)


def test_same_presentation_swapped_generators():
    p1 = make_presentation([("z", 2), ("x", 1)],
                           [((("x", 3),),), ((("z", 2),),)])
    p2 = make_presentation([("x", 1), ("z", 2)],
                           [((("z", 2),),), ((("x", 3),),)])
    assert same_presentation(p1, p2)


def test_same_presentation_renames_within_degree():
    p1 = make_presentation([("a", 2), ("b", 2)], [((("a", 2),),)])
    p2 = make_presentation([("a", 2), ("b", 2)], [((("b", 2),),)])
    assert same_presentation(p1, p2)


def test_different_degrees_not_same():
    p1 = _z2_ring(3, 10, 3, 4)
    p2 = make_presentation([("x", 2), ("z", 3)],
                           [((("x", 5),),), ((("z", 2),),),
                            ((("x", 2), ("z", 1)),)])
    assert not same_presentation(p1, p2)


def test_basis_problems_finds_none_on_the_reference_outcomes():
    """The monomial walk agrees with the page's Poincare series and index on
    every outcome of the reference fibers, two-term relations included."""
    for group in (GroupChoice.Z2, GroupChoice.CIRCLE):
        for fiber in _reference_fibers():
            for out in classify(fiber, group).outcomes:
                assert basis_problems(out) == [], (group, fiber.basis)


def test_basis_problems_reports_injected_mismatches():
    report = classify(make_type_ab(2, 0, 0), GroupChoice.Z2)
    out = report.outcomes[0]
    wrong_index = out._replace(index=out.index + 1)
    assert [p for p in basis_problems(wrong_index) if "index" in p]
    wrong_series = out._replace(
        poincare=PoincareSeries(out.poincare.terms + ((3, 1, 1),)))
    (problem,) = basis_problems(wrong_series)
    assert "degree 3" in problem


# Per-degree reference versions of the Poincare series and of the extension
# flags, which walk every column of every row and read each vanishing product
# back from the presentation's relations.
def _poincare_per_degree(e_inf):
    out = {}
    for l, row in e_inf.rows.items():
        last = row.last_column()
        if last is None:
            raise UnsupportedShapeError("page has an infinite row")
        for c in range(last + 1):
            if row.has_column(c):
                d = c * e_inf.step + l
                out[d] = out.get(d, 0) + 1
    return dict(sorted(out.items()))


def _surviving_monomials(e_inf, z_names, x_name):
    step = e_inf.step
    out = []
    for l, row in e_inf.rows.items():
        last = row.last_column()
        if last is None:
            continue
        for c in range(last + 1):
            if not row.has_column(c):
                continue
            k = c * step
            parts = []
            if k and x_name:
                parts.append(x_name if k == step else f"{x_name}^{k // step}")
            if l:
                parts.append(z_names[l])
            out.append((k + l, k, "*".join(parts) if parts else "1"))
    return out


def _degree_and_filtration(pres, mono, x_name):
    """A monomial's total degree and the part of it that x carries."""
    degrees = dict(pres.generators)
    return (sum(degrees[g] * e for g, e in mono),
            sum(degrees[g] * e for g, e in mono if g == x_name))


def _extension_flags_sorted(e_inf, pres, z_names, x_name):
    classes = _surviving_monomials(e_inf, z_names, x_name)
    flags = []
    for rel in pres.relations:
        if len(rel) != 1:
            continue
        (mono,) = rel
        if len(mono) == 1 and mono[0][0] == x_name:
            continue
        degree, filtration = _degree_and_filtration(pres, mono, x_name)
        candidates = tuple(name for d, k, name in sorted(classes)
                           if d == degree and k > filtration)
        if candidates:
            flags.append(ExtensionFlag(monomial_str(mono), candidates))
    flags.sort(key=lambda f: f.product)
    return flags


def _z_names(pres):
    return {deg: name for name, deg in pres.generators
            if name != pres.base_generator}


def _reference_fibers():
    for n in range(1, 25):
        for a in (0, 1):
            for b in (0, 1):
                yield make_type_ab(n, a, b)
    # their outcomes carry two-term relations such as z1^2 + z2
    for degree in range(1, 5):
        for k in range(2, 8):
            yield truncated_polynomial(degree, k)


def test_outcome_data_matches_per_degree_reference():
    two_term = 0
    for group in (GroupChoice.Z2, GroupChoice.CIRCLE):
        for fiber in _reference_fibers():
            for out in classify(fiber, group).outcomes:
                pres, page = out.presentation, out.e_inf
                assert (dict(out.poincare.items())
                        == _poincare_per_degree(page))
                assert list(out.extension_flags) == _extension_flags_sorted(
                    page, pres, _z_names(pres), pres.base_generator), (
                        group, fiber.basis)
                two_term += any(len(rel) > 1 for rel in pres.relations)
    assert two_term


@st.composite
def _single_run_pages(draw):
    """Pages of the shape extraction supports, over a truncated polynomial
    fiber: each row finite, none longer than the base row."""
    step, degree = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    k = draw(st.integers(2, 5))
    fiber = truncated_polynomial(degree, k)
    base = draw(st.integers(1, 6))
    rows = {0: IntervalModule(base)}
    for i in range(1, k):
        if draw(st.booleans()):
            rows[i * degree] = IntervalModule(draw(st.integers(1, base)))
    return Page(fiber=fiber, group=GroupChoice(("z2", "s1")[step - 1]),
                rounds=(), rows=rows)


@settings(max_examples=300, deadline=None)
@given(_single_run_pages())
def test_extracted_flags_match_reference_on_hand_built_pages(page):
    pres, flags, series = extract_presentation(page)
    assert flags == _extension_flags_sorted(page, pres, _z_names(pres),
                                            pres.base_generator)
    reference = _poincare_per_degree(page)
    assert series.items() == list(reference.items())
    top = max(reference)
    assert series.dense(top + 3) == [reference.get(d, 0) for d in range(top + 4)]
    assert series.dense(top // 2) == [reference.get(d, 0) for d in range(top // 2 + 1)]


# Pages that break a shape rule of extraction, each with a row above the
# lowest faulty one, and the message, which names that lowest faulty row.
_INFINITE = "row {} is infinite"
_OUTLIVES = "row {} outlives the base row; not generated by x and z"
_UNSUPPORTED_PAGES = {
    "no-unit-row": ({1: 2}, "unit row is missing from the page"),
    "base-infinite": ({0: INFINITE, 2: 1}, _INFINITE.format(0)),
    "fiber-infinite": ({0: 3, 2: INFINITE, 3: 1}, _INFINITE.format(2)),
    "outlives-base": ({0: 3, 1: 3, 3: 4, 4: 4}, _OUTLIVES.format(3)),
    # x is elided on a base row of column 0 alone
    "outlives-base-x-elided": ({0: 1, 1: 1, 3: 2, 4: 2}, _OUTLIVES.format(3)),
}


@pytest.mark.parametrize("rows,message", _UNSUPPORTED_PAGES.values(),
                         ids=_UNSUPPORTED_PAGES.keys())
def test_extraction_refuses_each_unsupported_shape_naming_its_row(rows, message):
    page = Page(fiber=truncated_polynomial(1, 5), group=GroupChoice.Z2,
                rounds=(), rows={l: IntervalModule(n)
                                 for l, n in rows.items()})
    with pytest.raises(UnsupportedShapeError) as refused:
        extract_presentation(page)
    assert str(refused.value) == message


def test_extension_flags_even_even():
    report = classify(make_type_ab(2, 0, 0), GroupChoice.Z2)
    flags = {f.product: set(f.candidates) for f in
             report.outcomes[0].extension_flags}
    assert flags["z^2"] == {"x^2*z", "x^4"}
    # x-power relations are exact at the base edge, never flagged
    assert not any(p.startswith("x^7") or p == "x" for p in flags)


def test_extraction_is_stable():
    report = classify(make_type_ab(3, 0, 0), GroupChoice.Z2)
    out = report.outcomes[0]
    again, flags, series = extract_presentation(out.e_inf)
    assert again == out.presentation
    assert tuple(flags) == out.extension_flags
    assert series == out.poincare


def test_monomial_basis_reduces_two_term_relations():
    # F2[u(1),v(2)]/(u^2 + v) is F2[u]: one class in each degree
    pres = make_presentation(
        [("u", 1), ("v", 2)],
        [((("u", 2),), (("v", 1),))])
    elements = monomial_basis_elements(pres, 4)
    assert [degree for degree, _ in elements] == [0, 1, 2, 3, 4]


def test_presentation_str_and_relation_str():
    pres = _z2_ring(2, 7, 2, 3)
    text = presentation_str(pres)
    assert text == "F2[x(1),z(2)]/(z^2, x^3*z, x^7)"
    assert relation_str(((("x", 1),), (("z", 1),))) == "x + z"


def test_repeated_monomials_cancel_mod_2():
    # x*z + z*x is 2 x*z = 0, and x + x + z is z
    pres = make_presentation(
        [("x", 1), ("z", 1)],
        [((("x", 1), ("z", 1)), (("z", 1), ("x", 1))),
         ((("x", 1),), (("x", 1),), (("z", 1),))])
    assert pres.relations == (((("z", 1),),),)
    # a relation that cancels to nothing is dropped
    assert make_presentation([("x", 1)], [((("x", 2),), (("x", 2),))]
                             ).relations == ()
    # three copies leave one
    assert make_presentation([("x", 1)], [((("x", 2),),) * 3]).relations == (
        ((("x", 2),),),)


def test_canonical_relation_order():
    pres = make_presentation([("x", 1)],
                             [((("x", 5),),), ((("x", 3),),)])
    assert pres.relations == (((("x", 3),),), ((("x", 5),),))


def test_the_self_check_leaves_no_reference_cycle(capsys):
    # the basis walk and the oracle are freed by reference counting, on
    # the truncated-u6 outcomes with a two-term relation too
    reports = [classify(make_type_ab(n, a, b), group) for n in range(1, 5)
               for a in (0, 1) for b in (0, 1) for group in GroupChoice]
    reports += [classify(load_fiber(os.path.join(
        os.path.dirname(__file__), "fiber_truncated_u6.json")), group)
        for group in GroupChoice]

    def calls():
        for report in reports:
            for outcome in report.outcomes:
                basis_problems(outcome)
            self_check(report)

    assert cyclic_garbage(calls) == 0
    assert capsys.readouterr().err == ""


def test_the_self_check_refuses_an_oversized_input_before_any_basis_walk(
        monkeypatch):
    # Z/2 n = 1281 is the smallest input above the oracle's cell limit
    report = classify(make_type_ab(1281, 0, 0), GroupChoice.Z2)

    def walked(outcome):
        raise AssertionError("a basis was walked")

    monkeypatch.setattr(selfcheck, "basis_problems", walked)
    with pytest.raises(OversizedInstanceError):
        self_check(report)

"""Tests for ring presentations extracted from limit pages."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcohom.engine import GroupChoice, Page, classify
from orbitcohom.errors import UnsupportedShapeError
from orbitcohom.fiber import FiberRing, make_type_ab
from orbitcohom.intervals import IntervalModule
from orbitcohom.presentation import (ExtensionFlag, PoincareSeries, _flags,
                                     extract_presentation, make_presentation,
                                     monomial_str, presentation_str,
                                     relation_str, tot_poincare)
from orbitcohom.selfcheck import basis_problems, monomial_basis_elements

from helpers import point_ring, same_presentation


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


def test_tot_poincare_matches_monomial_basis():
    """The monomial walk agrees with the page's Poincare series and index on
    every outcome."""
    for group in (GroupChoice.Z2, GroupChoice.CIRCLE):
        for n in range(1, 9):
            for a in (0, 1):
                for b in (0, 1):
                    report = classify(make_type_ab(n, a, b), group)
                    for out in report.outcomes:
                        assert basis_problems(out) == [], (
                            group, n, a, b)


def test_basis_problems_reports_injected_mismatches():
    report = classify(make_type_ab(2, 0, 0), GroupChoice.Z2)
    out = report.outcomes[0]
    wrong_index = out._replace(index=out.index + 1)
    assert [p for p in basis_problems(wrong_index) if "index" in p]
    wrong_series = out._replace(
        poincare=PoincareSeries(out.poincare.terms + ((3, 1, 1),)))
    (problem,) = basis_problems(wrong_series)
    assert "degree 3" in problem


# Per-degree reference versions of tot_poincare and of the extension flags,
# which walk every column of every row and read each vanishing product back
# from the presentation's relations.
def _tot_poincare_per_degree(e_inf):
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


def _truncated_polynomial(degree, k):
    """F2[u]/(u^k) with |u| = degree, its classes named 1, u1, .., u{k-1}."""
    names = ["1"] + [f"u{i}" for i in range(1, k)]
    products = [((names[i], names[j]),
                 frozenset({names[i + j]}) if i + j < k else frozenset())
                for i in range(k) for j in range(i, k)]
    return FiberRing(basis=tuple((name, i * degree) for i, name in enumerate(names)),
                     unit="1", products=tuple(products),
                     top_degree=(k - 1) * degree)


def _reference_fibers():
    for n in range(1, 25):
        for a in (0, 1):
            for b in (0, 1):
                yield make_type_ab(n, a, b)
    # their outcomes carry two-term relations such as z1^2 + z2
    for degree in range(1, 5):
        for k in range(2, 8):
            yield _truncated_polynomial(degree, k)


def test_outcome_data_matches_per_degree_reference():
    two_term = 0
    for group in (GroupChoice.Z2, GroupChoice.CIRCLE):
        for fiber in _reference_fibers():
            for out in classify(fiber, group).outcomes:
                pres, page = out.presentation, out.e_inf
                assert (dict(out.poincare.items())
                        == _tot_poincare_per_degree(page))
                assert list(out.extension_flags) == _extension_flags_sorted(
                    page, pres, _z_names(pres), pres.base_generator), (
                        group, fiber.basis)
                two_term += any(len(rel) > 1 for rel in pres.relations)
    assert two_term


@st.composite
def _finite_row(draw):
    """One to four finite runs of columns with gaps between them."""
    runs, start = [], draw(st.integers(0, 6))
    for length in draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)):
        runs.append((start, length))
        start += length + draw(st.integers(1, 4))
    return IntervalModule(tuple(runs))


@st.composite
def _finite_pages(draw):
    """Finite pages with several runs per row and gaps between them, plus a
    presentation with a few vanishing monomials in x and the row
    generators, each with a row generator: extraction never records a power
    of x, which is exact at the base edge."""
    step = draw(st.integers(1, 2))
    ls = draw(st.sets(st.integers(1, 9), max_size=3))
    rows = {l: draw(_finite_row()) for l in {0} | ls}
    page = Page(fiber=point_ring(), group=GroupChoice(("z2", "s1")[step - 1]),
                rounds=(), rows=rows)
    z_names = {l: f"z{l}" for l in ls}
    gens = [("x", step)] + [(name, l) for l, name in z_names.items()]
    monos = st.lists(st.tuples(st.sampled_from([g for g, _ in gens]),
                               st.integers(1, 3)),
                     min_size=1, max_size=3, unique_by=lambda p: p[0]).filter(
        lambda m: any(g != "x" for g, _ in m))
    relations = [(tuple(m),)
                 for m in draw(st.lists(monos, max_size=4 if ls else 0))]
    return page, make_presentation(gens, relations, base_generator="x"), z_names


@settings(max_examples=200, deadline=None)
@given(_finite_pages())
def test_outcome_data_matches_reference_on_hand_built_pages(built):
    page, pres, z_names = built
    series, reference = tot_poincare(page), _tot_poincare_per_degree(page)
    assert series.items() == list(reference.items())
    top = max(reference, default=0)
    assert series.dense(top + 3) == [reference.get(d, 0) for d in range(top + 4)]
    assert series.dense(top // 2) == [reference.get(d, 0) for d in range(top // 2 + 1)]
    vanishing = [(mono, *_degree_and_filtration(pres, mono, "x"))
                 for (mono,) in pres.relations]
    assert (_flags(page, vanishing, z_names, "x")
            == _extension_flags_sorted(page, pres, z_names, "x"))


@st.composite
def _single_run_pages(draw):
    """Pages of the shape extraction supports, over a truncated polynomial
    fiber: each row one run from column 0, none longer than the base row."""
    step, degree = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    k = draw(st.integers(2, 5))
    fiber = _truncated_polynomial(degree, k)
    base = draw(st.integers(1, 6))
    rows = {0: IntervalModule(((0, base),))}
    for i in range(1, k):
        if draw(st.booleans()):
            rows[i * degree] = IntervalModule(((0, draw(st.integers(1, base))),))
    return Page(fiber=fiber, group=GroupChoice(("z2", "s1")[step - 1]),
                rounds=(), rows=rows)


@settings(max_examples=300, deadline=None)
@given(_single_run_pages())
def test_extracted_flags_match_reference_on_hand_built_pages(page):
    pres, flags = extract_presentation(page)
    assert flags == _extension_flags_sorted(page, pres, _z_names(pres),
                                            pres.base_generator)


def test_tot_poincare_rejects_infinite_rows():
    page = Page(fiber=point_ring(), group=GroupChoice.Z2, rounds=(),
                rows={0: IntervalModule(((0, 2), (4, None)))})
    with pytest.raises(UnsupportedShapeError):
        tot_poincare(page)


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
    again, flags = extract_presentation(out.e_inf)
    assert again == out.presentation
    assert tuple(flags) == out.extension_flags


def test_monomial_basis_rejects_two_term_relations():
    pres = make_presentation(
        [("u", 1), ("v", 2)],
        [((("u", 2),), (("v", 1),))])
    with pytest.raises(UnsupportedShapeError):
        monomial_basis_elements(pres, 4)


def test_presentation_str_and_relation_str():
    pres = _z2_ring(2, 7, 2, 3)
    text = presentation_str(pres)
    assert text == "F2[x(1),z(2)]/(z^2, x^3*z, x^7)"
    assert relation_str(((("x", 1),), (("z", 1),))) == "x + z"


def test_canonical_relation_order():
    pres = make_presentation([("x", 1)],
                             [((("x", 5),),), ((("x", 3),),)])
    assert pres.relations == (((("x", 3),),), ((("x", 5),),))

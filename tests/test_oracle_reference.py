"""The brute-force oracle against its earlier, slower self.

golden_oracle.json maps each case name to the oracle's rounds, its outcome
keys with their dimensions, and its count of rejected assignments. It was
recorded from the oracle that simulated every joint assignment one at a
time, from scratch, before the round-by-round walk and the vacuous-pair
skip went in, so it checks that neither changes a single count: the walk's
weights for dead slots and for the later rounds of a rejected subset both
show in the rejected counts. Rewrite it only together with an intended
change of the oracle's output.

The Leibniz check is also compared, on random live cells and coefficients,
with a copy of the all-pairs check it replaced: once per choice with a
fresh cache of row pair verdicts, and over every choice of a round in
turn with the one cache the round shares, as the oracle's walk does.
"""

import itertools
import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from orbitcohom.engine import GroupChoice
from orbitcohom.fiber import FiberRing, load_fiber, make_type_ab
from orbitcohom.oracle import (_by_row, _differentials, _leibniz_ok,
                               brute_force_classify, min_cap, truncate_e2)

GOLDEN = Path(__file__).with_name("golden_oracle.json")
U6 = Path(__file__).with_name("fiber_truncated_u6.json")


def scaled_u6(degree: int) -> FiberRing:
    """F2[u]/(u^6) with |u| = degree."""
    ring = load_fiber(str(U6))
    return FiberRing(
        basis=tuple((name, deg * degree) for name, deg in ring.basis),
        unit=ring.unit, products=ring.products,
        top_degree=ring.top_degree * degree)


def cases():
    """(name, fiber, group, cap) for every pinned oracle run."""
    for group in GroupChoice:
        for n in range(1, 7):
            for a in (0, 1):
                for b in (0, 1):
                    fiber = make_type_ab(n, a, b)
                    low = min_cap(fiber, group)
                    for cap in (low, low + 2):
                        yield (f"{group.value} n={n} a={a} b={b} cap={cap}",
                               fiber, group, cap)
    for degree in range(1, 5):
        for group in GroupChoice:
            fiber = scaled_u6(degree)
            cap = min_cap(fiber, group)
            yield f"{group.value} u6 |u|={degree} cap={cap}", fiber, group, cap


def report_doc(report) -> dict:
    """The oracle report as JSON data, dims as ordered [degree, dim] pairs."""
    return {
        "rounds": list(report.rounds),
        "outcomes": [{"key": [[r, list(sources)] for r, sources in o.key],
                      "dims": [[d, c] for d, c in o.dims.items()]}
                     for o in report.outcomes],
        "rejected_assignments": report.rejected_assignments,
    }


def test_oracle_matches_golden_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    names = []
    for name, fiber, group, cap in cases():
        names.append(name)
        report = brute_force_classify(fiber, group, cap)
        assert report_doc(report) == golden[name], name
    assert sorted(names) == sorted(golden)
    assert len(names) == 104


def reference_leibniz_ok(tc, live, r, coeff) -> bool:
    """The Leibniz check over all pairs of live cells, with no pair skipped
    and every product looked up in the fiber ring."""
    def cell_product(c1, c2):
        (k1, l1), (k2, l2) = c1, c2
        hits = tc.fiber.mult(tc.names[l1], tc.names[l2])
        out = {(k1 + k2, tc.fiber.degrees[name]) for name in hits}
        return frozenset(c for c in out if c[0] + c[1] <= tc.cap)

    def differential(cell):
        k, l = cell
        target = (k + r, l - r + 1)
        if coeff.get(l, 0) and target in live:
            return frozenset({target})
        return frozenset()

    if not any(coeff.values()):
        return True
    cells = sorted(live)
    for i, c1 in enumerate(cells):
        for c2 in cells[i:]:
            if c1[0] + c1[1] + c2[0] + c2[1] + 1 > tc.cap:
                continue
            product = frozenset(c for c in cell_product(c1, c2) if c in live)
            lhs = frozenset()
            for c in product:
                lhs ^= differential(c)
            rhs = frozenset()
            for d1 in differential(c1):
                rhs ^= frozenset(c for c in cell_product(d1, c2) if c in live)
            for d2 in differential(c2):
                rhs ^= frozenset(c for c in cell_product(c1, d2) if c in live)
            if lhs != rhs:
                return False
    return True


FIBERS = ([make_type_ab(n, a, b) for n in (1, 2) for a in (0, 1)
           for b in (0, 1)] + [scaled_u6(1), scaled_u6(2)])


def _times(tc, c1, c2):
    """Cells of the product of two cells, read off the fiber ring."""
    if c1[1] not in tc.names or c2[1] not in tc.names:
        return set()
    hits = tc.fiber.mult(tc.names[c1[1]], tc.names[c2[1]])
    return {(c1[0] + c2[0], tc.fiber.degrees[name]) for name in hits}


@st.composite
def leibniz_inputs(draw):
    """A truncated complex with random live cells, round and coefficients.

    One time in four the live cells are the whole complex minus a few.
    Otherwise they are the cells that one pair (c1, c2) involves, less at
    most one: the pair, its product, d of each, and d(c1)*c2 and c1*d(c2).
    The pair is taken on two rows whose product is nonzero, when the fiber
    has such rows, and the round is one that can hit a row from these. Then
    a failing pair of cells is often the only one, so a wrongly skipped
    pair shows.
    """
    fiber = draw(st.sampled_from(FIBERS))
    group = draw(st.sampled_from(list(GroupChoice)))
    tc = truncate_e2(fiber, group,
                     min_cap(fiber, group) + draw(st.integers(0, 2)))
    rows = sorted(tc.names)
    coeff = {l: draw(st.integers(0, 1)) for l in rows}
    if draw(st.integers(0, 3)) == 0:
        r = draw(st.sampled_from(sorted(
            {l - lt + 1 for l in rows for lt in rows if lt < l} or {2})))
        live = set(tc.cells)
        live -= draw(st.sets(st.sampled_from(tc.cells), max_size=4))
        return tc, live, r, coeff
    all_pairs = [(l1, l2) for l1 in rows for l2 in rows if l1 <= l2]
    pairs = [(l1, l2) for l1, l2 in all_pairs if 0 not in (l1, l2)
             and _times(tc, (0, l1), (0, l2))]
    l1, l2 = draw(st.sampled_from(pairs or all_pairs))
    c1 = (draw(st.sampled_from([k for k, l in tc.cells if l == l1])), l1)
    c2 = (draw(st.sampled_from([k for k, l in tc.cells if l == l2])), l2)
    if l1 == l2 and draw(st.booleans()):
        c2 = c1
    product = _times(tc, c1, c2)
    sources = {l1, l2} | {l for _, l in product}
    r = draw(st.sampled_from(sorted(
        {l - lt + 1 for l in sources for lt in rows if lt < l} or {2})))

    def d(c):
        return (c[0] + r, c[1] - r + 1)
    live = ({c1, c2, d(c1), d(c2)} | product | {d(c) for c in product}
            | _times(tc, d(c1), c2) | _times(tc, c1, d(c2))) & set(tc.cells)
    live -= draw(st.sets(st.sampled_from(sorted(live)), max_size=1))
    return tc, live, r, coeff


@settings(max_examples=600, deadline=None)
@given(leibniz_inputs())
def test_leibniz_matches_all_pairs_reference(inputs):
    tc, live, r, coeff = inputs
    d = _differentials(live, r, coeff)
    assert (_leibniz_ok(tc, live, _by_row(live), d, {})
            == reference_leibniz_ok(tc, live, r, coeff))


@settings(max_examples=300, deadline=None)
@given(leibniz_inputs())
def test_a_shared_round_cache_gives_fresh_verdicts(inputs):
    tc, live, r, _ = inputs
    usable = [l for l in sorted(tc.names) if l - r + 1 in tc.names]
    columns, verdicts = _by_row(live), {}
    for choice in itertools.product((0, 1), repeat=len(usable)):
        coeff = dict(zip(usable, choice))
        d = _differentials(live, r, coeff)
        assert (_leibniz_ok(tc, live, columns, d, verdicts)
                == reference_leibniz_ok(tc, live, r, coeff)), coeff

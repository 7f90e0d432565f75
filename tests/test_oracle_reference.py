"""The brute-force oracle against its contract.

golden_oracle.json maps each case name to the oracle's rounds, its outcome
keys with their dimensions, and its count of rejected assignments. It was
recorded from the oracle that simulated every joint assignment one at a
time, from scratch, before the round-by-round walk and the vacuous-pair
skip went in, so it checks that neither changes a single count: the walk's
weights for dead slots and for the later rounds of a rejected subset both
show in the rejected counts. Rewrite it only together with an intended
change of the oracle's output.

``reference_oracle`` states that method once more, cell by cell: it
builds the cell lattice, reads each round's slots off its cells, and runs
every joint assignment from scratch, with the Leibniz rule checked on
every pair of live cells (``reference_pair_ok``) and the page turned cell
by cell (``reference_turn``). It keeps no verdict table, no keys and no
row form, and touches none of the oracle's private functions, so the
oracle may be rewritten freely while whole reports are compared: with
the golden entries the reference can afford, and with
``brute_force_classify`` on drawn small fibers. The claim that lets the
oracle check one key per column sum is tested on the reference, cell pair
by cell pair. The oracle's private row-pair check, ``_leibniz_ok``, is
held to the reference's verdict on complexes thinned at random, whose
gaps the walk's pages never have. The rounds the oracle reads off its
cells are the engine's.
"""

import itertools
import json
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from orbitcohom.engine import GroupChoice, admissible_rounds
from orbitcohom.fiber import FiberRing, load_fiber, make_type_ab
from orbitcohom import oracle
from orbitcohom.oracle import _slots, brute_force_classify, min_cap

from helpers import sphere_product, truncated_polynomial, wedge

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


def test_the_oracle_rounds_are_the_engine_rounds():
    """The oracle reads its rounds off its own cells. They must still be
    the engine's: the benchmark worker sizes the oracle's cap from
    ``admissible_rounds``, and the CLI from ``min_cap``. So this test
    calls the private ``_slots`` until the worker calls ``min_cap``."""
    fibers = ([fiber for _, fiber, _, _ in cases()]
              + [make_type_ab(n, a, b) for n in range(1, 41) for a in (0, 1)
                 for b in (0, 1)]
              + [scaled_u6(degree) for degree in range(1, 5)]
              + [wedge(range(1, classes)) for classes in range(2, 11)])
    for fiber in fibers:
        for group in GroupChoice:
            assert (tuple(_slots(fiber, group))
                    == admissible_rounds(fiber, group)), (fiber, group)


def report_doc(report) -> dict:
    """The oracle report as JSON data, dims as ordered [degree, dim] pairs."""
    return {
        "rounds": list(report.rounds),
        "outcomes": [{"key": [[r, list(sources)] for r, sources in o.key],
                      "dims": [[d, c] for d, c in o.dims.items()]}
                     for o in report.outcomes],
        "rejected_assignments": report.rejected_assignments,
    }


def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_oracle_matches_golden_file():
    entries = golden()
    names = []
    for name, fiber, group, cap in cases():
        names.append(name)
        report = brute_force_classify(fiber, group, cap)
        assert report_doc(report) == entries[name], name
    assert sorted(names) == sorted(entries)
    assert len(names) == 104


def lattice(fiber, group, cap) -> set:
    """The cells (k, l) of the second page up to total degree cap: one
    for each fiber degree l and each column k, a multiple of the step."""
    return {(k, l) for l in fiber.names
            for k in range(0, cap - l + 1, group.step)}


def reference_pair_ok(fiber, cap, live, d, c1, c2) -> bool:
    """The Leibniz rule on the one pair of live cells (c1, c2), every
    product looked up in the fiber ring; d maps each cell on which the
    differential is nonzero to the cell it hits. A pair above the cap
    holds."""
    def cell_product(c1, c2):
        (k1, l1), (k2, l2) = c1, c2
        hits = fiber.mult(fiber.names[l1], fiber.names[l2])
        return {(k1 + k2, fiber.degrees[name]) for name in hits} & live

    if c1[0] + c1[1] + c2[0] + c2[1] + 1 > cap:
        return True
    lhs = {d[c] for c in cell_product(c1, c2) if c in d}
    rhs = set()
    if c1 in d:
        rhs ^= cell_product(d[c1], c2)
    if c2 in d:
        rhs ^= cell_product(c1, d[c2])
    return lhs == rhs


def reference_turn(live, r, d):
    """The page turn cell by cell: a cell dies when it is hit or hits, and
    one that does both is a nonzero composite (None)."""
    new_live = set()
    for cell in live:
        hit = (cell[0] - r, cell[1] + r - 1) in d
        hits = cell in d
        if hit and hits:
            return None
        if not (hit or hits):
            new_live.add(cell)
    return new_live


def reference_oracle(fiber, group, cap) -> dict:
    """The oracle's method, per cell and per joint assignment, as
    ``report_doc`` data.

    Row l is a slot of round r when its generator (0, l) has a cell
    (r, l - r + 1) to hit. Each joint choice of a coefficient for every
    slot of every round is run from the whole lattice. In a round, a slot
    carries its differential when its generator, its target generator and
    its target cell are live, and d maps each live cell of such a row to
    its target when that is live. A choice is rejected for its first round
    that breaks the Leibniz rule or d o d = 0, or for a live cell at the
    end above the top degree and below cap - (number of rounds), where
    the truncation errors begin. An outcome is keyed by its nonzero
    sources per round, and its dims are read up to the reliable degree,
    cap - (last round) - step.
    """
    cells = lattice(fiber, group, cap)
    slots = {r: [l for l in sorted(fiber.names) if (r, l - r + 1) in cells]
             for r in range(2, cap + 1)}
    rounds = [r for r, rows in slots.items() if rows]
    reliable = cap - max(rounds, default=0) - group.step
    outcomes, rejected = {}, 0
    for joint in itertools.product((0, 1),
                                   repeat=sum(map(len, slots.values()))):
        coeffs, live, key = iter(joint), set(cells), ()
        for r in rounds:
            sources = tuple(l for l, c in zip(slots[r], coeffs) if c and {
                (0, l), (0, l - r + 1), (r, l - r + 1)} <= live)
            key += ((r, sources),)
            d = {(k, l): (k + r, l - r + 1) for k, l in live
                 if l in sources and (k + r, l - r + 1) in live}
            ordered = sorted(live)
            # with no d, or above the cap, a pair holds: skip it quickly
            if d and not all(
                    reference_pair_ok(fiber, cap, live, d, c1, c2)
                    for i, c1 in enumerate(ordered) for c2 in ordered[i:]
                    if sum(c1) + sum(c2) < cap):
                break
            live = reference_turn(live, r, d)
            if live is None:
                break
        else:
            degrees = [k + l for k, l in live]
            if not any(fiber.top_degree < t <= cap - len(rounds)
                       for t in degrees):
                outcomes[key] = [[t, degrees.count(t)]
                                 for t in sorted(set(degrees)) if t <= reliable]
                continue
        rejected += 1
    return {"rounds": rounds,
            "outcomes": [{"key": [[r, list(sources)] for r, sources in key],
                          "dims": dims}
                         for key, dims in sorted(outcomes.items())],
            "rejected_assignments": rejected}


def test_reference_oracle_matches_golden_file():
    """The golden entries the reference can afford, about 1.5 s together:
    all under the circle, and under Z/2 the type (a, b) cases up to n = 3.
    The 24 Z/2 cases at n = 4..6 would add about 3.4 s, and the Z/2 u6
    cases take 14-86 s each; the oracle's own golden test pins them."""
    entries, ran = golden(), 0
    for name, fiber, group, cap in cases():
        if group is GroupChoice.Z2 and (len(fiber.basis) > 4
                                        or fiber.top_degree > 9):
            continue
        assert reference_oracle(fiber, group, cap) == entries[name], name
        ran += 1
    assert ran == 76


@st.composite
def small_fibers(draw):
    """A ring of at most four classes, one per degree: a wedge of spheres,
    F2[u]/(u^k) or S^p x S^q."""
    kind = draw(st.sampled_from(("wedge", "polynomial", "spheres")))
    if kind == "wedge":
        return wedge(sorted(draw(st.sets(st.integers(1, 8), min_size=1,
                                         max_size=3))))
    if kind == "polynomial":
        return truncated_polynomial(draw(st.integers(1, 3)),
                                    draw(st.integers(2, 4)))
    p = draw(st.integers(1, 4))
    return sphere_product(p, draw(st.integers(p + 1, 6)))


@settings(max_examples=40, deadline=None)
@given(small_fibers(), st.sampled_from(list(GroupChoice)),
       st.integers(0, 2))
# Fails whenever the oracle's Leibniz check skips the last column of the
# sparser row, which drawn examples do not reach on every seed.
@example(sphere_product(3, 4), GroupChoice.CIRCLE, 0)
def test_reference_oracle_matches_the_oracle(fiber, group, extra):
    cap = min_cap(fiber, group) + extra
    assert (reference_oracle(fiber, group, cap)
            == report_doc(brute_force_classify(fiber, group, cap)))


FIBERS = ([make_type_ab(n, a, b) for n in (1, 2) for a in (0, 1)
           for b in (0, 1)] + [scaled_u6(1), scaled_u6(2)])


@st.composite
def thinned_complexes(draw):
    """A fiber, a cap, the lattice's cells with random ones removed, a
    round and random coefficients. d then vanishes on the cells of a row
    whose target is dead and not on the others, so two cell pairs of a
    row pair with the same column sum can differ in whether d is nonzero
    on a cell."""
    fiber = draw(st.sampled_from(FIBERS))
    group = draw(st.sampled_from(list(GroupChoice)))
    cap = min_cap(fiber, group) + draw(st.integers(0, 2))
    rows = sorted(fiber.names)
    r = draw(st.sampled_from(sorted(
        {l - lt + 1 for l in rows for lt in rows if lt < l})))
    coeff = {l: draw(st.integers(0, 1)) for l in rows}
    cells = sorted(lattice(fiber, group, cap))
    live = set(cells) - draw(st.sets(st.sampled_from(cells),
                                     max_size=len(cells) // 2))
    return fiber, cap, live, r, coeff


@settings(max_examples=300, deadline=None)
@given(thinned_complexes())
def test_a_key_fixes_the_verdict_of_a_cell_pair(inputs):
    """Any two live cell pairs (k1, l1), (k2, l2) of a row pair with the
    same k1 + k2 and the same two flags "d is nonzero on the cell" get the
    same verdict from the reference, so the oracle may check each such
    key once, on no cell pair in particular."""
    fiber, cap, live, r, coeff = inputs
    d = {(k, l): (k + r, l - r + 1) for k, l in live
         if coeff[l] and (k + r, l - r + 1) in live}
    rows = sorted({l for _, l in live})
    for i, l1 in enumerate(rows):
        for l2 in rows[i:]:
            verdicts = {}
            for c1, c2 in itertools.product(
                    [c for c in live if c[1] == l1],
                    [c for c in live if c[1] == l2]):
                ok = reference_pair_ok(fiber, cap, live, d, c1, c2)
                key = (c1[0] + c2[0], c1 in d, c2 in d)
                assert verdicts.setdefault(key, ok) == ok, (c1, c2)


@settings(max_examples=150, deadline=None)
@given(thinned_complexes(), st.data())
def test_a_node_key_fixes_the_verdict_of_a_row_pair(inputs, data):
    """Two coefficient maps that agree on rows l1, l2 and the rows of their
    fiber product give every cell pair of rows l1, l2 the same verdict from
    the reference. Within a walk node d on a row is all or nothing, so the
    oracle may decide a row pair once per key (l1, l2, whether each of them
    holds a source, the product rows that hold one) and reuse the verdict
    for every choice of that node with the same key."""
    fiber, cap, live, r, coeff = inputs
    rows = sorted(fiber.names)
    l1 = data.draw(st.sampled_from(rows))
    l2 = data.draw(st.sampled_from([l for l in rows if l >= l1]))
    fixed = {l1, l2} | {fiber.degrees[name] for name in
                        fiber.mult(fiber.names[l1], fiber.names[l2])}
    other = {l: coeff[l] if l in fixed else data.draw(st.integers(0, 1))
             for l in rows}

    def differential(coeffs):
        return {(k, l): (k + r, l - r + 1) for k, l in live
                if coeffs[l] and (k + r, l - r + 1) in live}

    d, d_other = differential(coeff), differential(other)
    for c1, c2 in itertools.product([c for c in live if c[1] == l1],
                                    [c for c in live if c[1] == l2]):
        assert (reference_pair_ok(fiber, cap, live, d, c1, c2)
                == reference_pair_ok(fiber, cap, live, d_other, c1, c2)), (
                    l1, l2, c1, c2, coeff, other)


@settings(max_examples=300, deadline=None)
@given(thinned_complexes())
def test_the_oracle_decides_a_row_pair_as_the_reference(inputs):
    """The oracle's mask check of a row pair gives the verdict the reference
    gives all the pair's live cell pairs. Thinned at random, a row's live
    columns need not be a run, and d may vanish on some cells of a source
    row; whole reports alone miss a check that skips some columns or a
    flag pair, since the walk's pages have no such gaps."""
    fiber, cap, live, r, coeff = inputs
    rows = sorted(fiber.names)
    masks = {l: sum(1 << k for k, m in live if m == l) for l in rows}
    d = {(k, l): (k + r, l - r + 1) for k, l in live
         if coeff[l] and (k + r, l - r + 1) in live}
    sources = {l: sum(1 << k for k, m in d if m == l) for l in rows
               if coeff[l]}
    products = {(l1, l2): frozenset(fiber.degrees[name] for name in
                                    fiber.mult(fiber.names[l1],
                                               fiber.names[l2]))
                for l1 in rows for l2 in rows}
    above = {m: columns >> r for m, columns in masks.items()}
    for i, l1 in enumerate(rows):
        for l2 in rows[i:]:
            expected = all(
                reference_pair_ok(fiber, cap, live, d, c1, c2)
                for c1, c2 in itertools.product(
                    [c for c in live if c[1] == l1],
                    [c for c in live if c[1] == l2]))
            assert oracle._leibniz_ok(products, masks, above, sources, r,
                                      l1, l2) == expected, (l1, l2)

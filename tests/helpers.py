"""Helpers that only the tests use: the one-class ring, truncated
polynomial rings, wedges and products of two spheres, a census of every
small ring with one class per degree, a comparison of presentations up to
renaming, the oracle's cap-stability check, a column-by-column reference
for the engine's step, and a count of the objects that only the cyclic
garbage collector frees."""

import gc
import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from orbitcohom.engine import DifferentialPattern, GroupChoice, Page
from orbitcohom.fiber import FiberRing
from orbitcohom.intervals import INFINITE, IntervalModule
from orbitcohom.oracle import brute_force_classify
from orbitcohom.presentation import RingPresentation


def cyclic_garbage(calls) -> int:
    """The number of objects left by calls() that reference counting does
    not free: the collector is off while calls() runs, then collects."""
    gc.collect()
    gc.disable()
    try:
        calls()
        return gc.collect()
    finally:
        gc.enable()


def point_ring() -> FiberRing:
    return FiberRing(basis=(("1", 0),), unit="1",
                     products=((("1", "1"), frozenset({"1"})),), top_degree=0)


def truncated_polynomial(degree: int, k: int) -> FiberRing:
    """F2[u]/(u^k) with |u| = degree, its classes named 1, u1, .., u{k-1}."""
    names = ["1"] + [f"u{i}" for i in range(1, k)]
    products = [((names[i], names[j]),
                 frozenset({names[i + j]}) if i + j < k else frozenset())
                for i in range(k) for j in range(i, k)]
    return FiberRing(basis=tuple((name, i * degree) for i, name in enumerate(names)),
                     unit="1", products=tuple(products),
                     top_degree=(k - 1) * degree)


def wedge(degrees) -> FiberRing:
    """The unit and one class in each of the positive degrees, with no
    products but the unit's."""
    basis = [("1", 0)] + [(f"x{d}", d) for d in degrees]
    return FiberRing(basis=tuple(basis), unit="1",
                     products=tuple((("1", name), frozenset({name}))
                                    for name, _ in basis),
                     top_degree=basis[-1][1])


def sphere_product(p: int, q: int) -> FiberRing:
    """H*(S^p x S^q; F2) for 0 < p < q: classes 1, x, y, xy of degrees 0,
    p, q, p + q, with x^2 = y^2 = 0."""
    basis = (("1", 0), ("x", p), ("y", q), ("xy", p + q))
    units = tuple((("1", name), frozenset({name})) for name, _ in basis)
    return FiberRing(basis=basis, unit="1",
                     products=units + ((("x", "y"), frozenset({"xy"})),),
                     top_degree=p + q)


def census(top: int) -> Iterator[FiberRing]:
    """Every ring with one class e{d} in each degree d of a set S of
    0..top that holds 0, where each product of two classes is 0 or the
    class of the sum degree, by rising S, the one-class ring first.

    A table is skipped before its ``FiberRing`` is built when some
    positive i, j, k break associativity: (e_i e_j) e_k and e_i (e_j e_k)
    are each 0 or e_(i+j+k), and differ. ``FiberRing`` validates every
    other table, so one that the filter passes wrongly raises."""
    for size in range(top + 1):
        for positive in itertools.combinations(range(1, top + 1), size):
            degrees = (0,) + positive
            basis = tuple((f"e{d}", d) for d in degrees)
            units = tuple((("e0", name), frozenset({name})) for name, _ in basis)
            pairs = [(i, j) for i in positive for j in positive
                     if i <= j and i + j in degrees]
            triples = [(i, j, k) for i in positive for j in positive
                       for k in positive if i + j + k in degrees]
            for nonzero in itertools.product((False, True), repeat=len(pairs)):
                # the ordered pairs (i, j) with e_i e_j != 0
                on = {ij for (i, j), bit in zip(pairs, nonzero) if bit
                      for ij in ((i, j), (j, i))}
                if any(((i, j) in on and (i + j, k) in on)
                       != ((j, k) in on and (i, j + k) in on)
                       for i, j, k in triples):
                    continue
                products = units + tuple(
                    ((f"e{i}", f"e{j}"),
                     frozenset({f"e{i + j}"}) if bit else frozenset())
                    for (i, j), bit in zip(pairs, nonzero))
                yield FiberRing(basis=basis, unit="e0", products=products,
                                top_degree=degrees[-1])


def same_presentation(p1: RingPresentation, p2: RingPresentation) -> bool:
    """Equality after canonicalization, allowing renames within equal
    degree; unlike ``==``, it ignores ``base_generator``."""

    def forms(p: RingPresentation):
        gens = sorted(p.generators, key=lambda g: (g[1], g[0]))
        degrees = tuple(d for _, d in gens)
        # permute names within each degree class
        by_degree: Dict[int, List[str]] = {}
        for name, d in gens:
            by_degree.setdefault(d, []).append(name)
        degree_classes = [by_degree[d] for d in sorted(by_degree)]
        for perm_parts in itertools.product(
                *[itertools.permutations(c) for c in degree_classes]):
            rename = {}
            slot = 0
            for part in perm_parts:
                for name in part:
                    rename[name] = slot
                    slot += 1
            rels = frozenset(
                tuple(sorted(tuple(sorted((rename[g], e) for g, e in mono))
                             for mono in rel))
                for rel in p.relations)
            yield degrees, rels

    targets = set(forms(p2))
    return any(f in targets for f in forms(p1))


def cap_stable(fiber: FiberRing, group: GroupChoice, cap: int) -> List[str]:
    """Discrepancies between oracle runs at cap and cap + 2."""
    lo = brute_force_classify(fiber, group, cap)
    hi = brute_force_classify(fiber, group, cap + 2)
    problems: List[str] = []
    lo_keys = {o.key: o for o in lo.outcomes}
    hi_keys = {o.key: o for o in hi.outcomes}
    if set(lo_keys) != set(hi_keys):
        problems.append(f"outcome keys differ between caps {cap} and {cap + 2}")
        return problems
    reliable = lo.complex.reliable_degree
    for key, out in lo_keys.items():
        other = hi_keys[key]
        for deg in range(reliable + 1):
            if out.dims.get(deg, 0) != other.dims.get(deg, 0):
                problems.append(
                    f"outcome {key}: degree {deg} changed with the cap")
    return problems


def reference_branches(page: Page) -> List[Tuple[DifferentialPattern,
                                                  Optional[str],
                                                  Optional[Page]]]:
    """The engine's step, column by column: each pattern of the page's
    round, in binary order over its slots, with its first violated
    constraint (None when consistent) and the page it turns to (None when
    refused). It reads the rows through ``has_column`` and ``summands`` and
    the fiber through its names and products, and nothing else of the
    engine.

    With e = r / step, a source l maps t^k g_l to t^(k+e) g_(l-r+1) while
    both live. The constraints, in order: the Leibniz rule on each pair of
    generators u <= v, then d o d = 0 along each chain of two sources.
    Every row is all live or all dead from the largest run endpoint on, so
    a witness column past it can move down to it, and the columns up to
    there decide each constraint; a turned row is constant from that
    endpoint + e on, so that column gives its tail."""
    r, step, rows, fiber = page.round, page.step, page.rows, page.fiber
    names, mult = fiber.names, fiber.mult
    e = r // step
    end = max((start + (length or 0) for row in rows.values()
               for start, length in row.summands), default=0)

    def live(l, shift=0, top=end):
        """The columns k <= top with column k + shift live in row l."""
        return {k for k in range(top + 1)
                if l in rows and rows[l].has_column(k + shift)}

    gens = [l for l in sorted(rows) if rows[l].has_column(0)]
    slots = [l for l in gens if r % step == 0 and l - r + 1 in gens
             and rows[l - r + 1].has_column(e)]

    def violation(sources):
        def hit(l, partner):
            """Columns k at which d(t^k g_l) times the partner is live."""
            if l in sources and mult(names[l - r + 1], partner):
                return live(l - r + 1, e)
            return set()

        # d((t^k u)(t^j v)) = d(t^k u)(t^j v) + (t^k u) d(t^j v), all in
        # column k + j + e of row l_u + l_v - r + 1, zero where that is dead
        for i, lu in enumerate(gens):
            for lv in gens[i:]:
                lw, gu, gv = lu + lv, names[lu], names[lv]
                du, dv = hit(lu, gv), hit(lv, gu)
                # the sums k + j at which an even or an odd number of the
                # right side's two terms live
                even, odd = set(), set()
                for k in live(lu):
                    for j in live(lv):
                        (odd if (k in du) != (j in dv) else even).add(k + j)
                # the sums at which the left side, d(t^(k+j) u*v), lives
                left = (live(lw, 0, 2 * end)
                        if lw in sources and mult(gu, gv) else set())
                target = live(lw - r + 1, e, 2 * end)
                if target & left & even or (target - left) & odd:
                    return (f"Leibniz violation at round {r} on the product "
                            f"{gu}*{gv}")
        for l in slots:
            mid, last = l - r + 1, l - 2 * r + 2
            if (l in sources and mid in sources
                    and live(l) & live(mid, e) & live(last, 2 * e)):
                return (f"d o d nonzero at round {r} along rows "
                        f"{l} -> {mid} -> {last}")
        return None

    def turned(l, sources):
        """Row l after the pattern: t^k g_l dies when it maps to a live
        class or is hit by one."""
        top = end + e
        cols = (live(l, 0, top) - (live(l - r + 1, e, top) if l in sources
                                   else set())
                - (live(l + r - 1, -e, top) if l + r - 1 in sources
                   else set()))
        summands = []
        for k in sorted(cols):
            if summands and sum(summands[-1]) == k:
                summands[-1][1] += 1
            else:
                summands.append([k, 1])
        if top in cols:
            summands[-1][1] = INFINITE
        return IntervalModule(tuple(map(tuple, summands)))

    out = []
    for coeffs in itertools.product((0, 1), repeat=len(slots)):
        sources = tuple(itertools.compress(slots, coeffs))
        reason = violation(set(sources))
        child = None
        if reason is None:
            child_rows = {l: turned(l, set(sources)) for l in rows}
            child = Page(fiber, page.group, page.rounds[1:],
                         {l: row for l, row in child_rows.items()
                          if row.summands})
        out.append((DifferentialPattern(r, sources), reason, child))
    return out

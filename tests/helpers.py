"""Helpers that only the tests use: the one-class ring, truncated
polynomial rings, wedges and products of two spheres, a comparison of
presentations up to renaming, the oracle's cap-stability check, a
reference for the engine's pattern check, and a count of the objects
that only the cyclic garbage collector frees."""

import gc
import itertools
from typing import Dict, List, Optional

from orbitcohom.engine import (DifferentialPattern, GroupChoice, Page,
                               _sum_hit, differential_slots)
from orbitcohom.fiber import FiberRing
from orbitcohom.intervals import runs
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


def reference_check_pattern(page: Page,
                            pattern: DifferentialPattern) -> Optional[str]:
    """The engine's pattern check as four sumset tests per Leibniz pair.

    For generators u, v of a page and w = u*v, each of the three rows is
    read as (off, on), the data of the test when the row is not and is a
    source: for u and v, the runs of columns k with d(t^k g) dead and live;
    for w, the live target columns s where the term d(t^s w) is there
    (odd) and not there (even). A row reads the same on as off unless it
    is a slot and its fiber product is nonzero. The pattern breaks the
    pair when some pair of columns with an even number of live terms
    d(t^k u), d(t^j v) sums into an odd target column, or one with an odd
    number into an even one. Then the d o d chains."""
    r, step, rows, names = page.round, page.step, page.rows, page.fiber.names
    sources, slots = set(pattern.sources), set(differential_slots(page))
    e = r // step
    gens = [(l, names[l]) for l in sorted(rows) if rows[l].has_column(0)]
    endpoint = max((row.max_finite_endpoint() for row in rows.values()),
                   default=0)
    rep = endpoint + 2 * e + 4
    nbits = 2 * rep + 2 * e + 4
    masks = {l: row.column_mask(nbits) for l, row in rows.items()}
    down = {l: mask >> e for l, mask in masks.items()}
    mult = page.fiber.mult

    def side(l, on):  # (d(t^k g) dead, d(t^k g) live) runs of columns k
        cols = masks[l] & ((1 << rep) - 1)
        if on and l in sources:
            return runs(cols & ~down[l - r + 1]), runs(cols & down[l - r + 1])
        return runs(cols), []

    for i, (lu, gu) in enumerate(gens):
        for lv, gv in gens[i:]:
            lw = lu + lv
            alive = down.get(lw - r + 1, 0)
            if not alive:
                continue
            if lw in slots and mult(gu, gv) and lw in sources:
                odd_sum, even_sum = alive & masks[lw], alive & ~masks[lw]
            else:
                odd_sum, even_sum = 0, alive
            u0, u1 = side(lu, lu in slots and mult(names[lu - r + 1], gv))
            v0, v1 = side(lv, lv in slots and mult(gu, names[lv - r + 1]))
            if (_sum_hit(u0, v0, odd_sum) or _sum_hit(u1, v1, odd_sum)
                    or _sum_hit(u0, v1, even_sum)
                    or _sum_hit(u1, v0, even_sum)):
                return (f"Leibniz violation at round {r} on the product "
                        f"{gu}*{gv}")

    for l in sorted(slots):
        mid, last = l - r + 1, l - 2 * r + 2
        if (l in sources and mid in sources
                and masks[l] & down[mid] & (masks[last] >> (2 * e))):
            return (f"d o d nonzero at round {r} along rows "
                    f"{l} -> {mid} -> {last}")
    return None

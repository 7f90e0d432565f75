"""Helpers that only the tests use: the one-class ring, a comparison of
presentations up to renaming, and the oracle's cap-stability check."""

import itertools
from typing import Dict, List

from orbitcohom.engine import GroupChoice
from orbitcohom.fiber import FiberRing
from orbitcohom.oracle import brute_force_classify
from orbitcohom.presentation import RingPresentation


def point_ring() -> FiberRing:
    return FiberRing(basis=(("1", 0),), unit="1",
                     products=((("1", "1"), frozenset({"1"})),), top_degree=0)


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

"""Conner-Floyd mod-2 cohomology index and sphere-map nonexistence bound.

The index of an orbit ring is the largest m with x^m nonzero, where x is
the degree-1 Euler class of the double cover; no equivariant map from the
antipodal m-sphere exists for m above that index. This is specific to the
Z/2 theory, so circle presentations are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import UnsupportedShapeError, WrongGroupError
from .presentation import RingPresentation


@dataclass(frozen=True)
class IndexResult:
    cohomology_index: int
    per_outcome: Optional[Tuple[int, ...]] = None

    @property
    def no_equivariant_map_above(self) -> int:
        return self.cohomology_index


def cohomology_index(pres: RingPresentation) -> int:
    """Largest m with x^m nonzero in the presented ring; 0 when x is elided.

    Computed twice, which must agree: from the first relation x^p = 0, and
    from the basis side, where x^e is a basis monomial exactly when no
    vanishing monomial made only of x (the empty monomial 1 counting as
    x^0) divides it.
    """
    x = pres.base_generator
    if x is None:
        return 0
    if pres.degree_of(x) != 1:
        raise WrongGroupError("the cohomology index needs a degree-1 Euler class")
    power = None
    for rel in pres.relations:
        if len(rel) == 1 and len(rel[0]) == 1 and rel[0][0][0] == x:
            power = rel[0][0][1]
            break
    if power is None:
        raise UnsupportedShapeError("no vanishing power of the Euler class")
    if any(len(rel) != 1 for rel in pres.relations):
        raise UnsupportedShapeError("the index check needs monomial relations")
    from_relation = power - 1
    from_basis = max(min(sum(e for _, e in rel[0]) for rel in pres.relations
                         if all(g == x for g, _ in rel[0])) - 1, 0)
    if from_basis != from_relation:
        raise UnsupportedShapeError(
            f"index disagreement: relation gives {from_relation}, "
            f"basis gives {from_basis}")
    return from_relation


def sphere_map_bound(result: IndexResult) -> int:
    """m0 such that no equivariant map from the antipodal m-sphere exists for m > m0."""
    return result.no_equivariant_map_above

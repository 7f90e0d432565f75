"""Rings realized by known spaces must be among the engine's outcomes.

S^n x S^2n has the mod 2 cohomology of type (0, 1). A free action on one
factor, times the identity on the other, is a free action on the product,
and the Kunneth formula gives the ring of its orbit space from those of
the factors (Dotzel, Singh and Tripathi, Proc. AMS 129, 2001):

- the antipodal map on S^n: RP^n x S^2n, F2[x(1), z(2n)]/(x^(n+1), z^2),
  index n;
- the antipodal map on S^2n: S^n x RP^2n, F2[x(1), z(n)]/(z^2, x^(2n+1)),
  index 2n;
- for odd n, the Hopf circle action on S^n: CP^((n-1)/2) x S^2n,
  F2[x(2), z(2n)]/(x^((n+1)/2), z^2), with x elided at n = 1, where
  CP^0 is a point.

The rings are written here from their factors, and only the public
``classify`` is asked, so the check shares nothing with the spectral
sequence the engine models.
"""

from orbitcohom import GroupChoice, classify, make_type_ab
from orbitcohom.presentation import make_presentation

from helpers import same_presentation

NS = list(range(1, 41)) + [3000, 3001]


def realized(n):
    """(group, ring, index) of each known orbit space of S^n x S^2n."""
    rings = [
        (GroupChoice.Z2, make_presentation(
            [("x", 1), ("z", 2 * n)], [((("x", n + 1),),), ((("z", 2),),)]),
         n),
        (GroupChoice.Z2, make_presentation(
            [("x", 1), ("z", n)], [((("z", 2),),), ((("x", 2 * n + 1),),)]),
         2 * n),
    ]
    if n % 2:
        height = (n + 1) // 2
        gens = [("z", 2 * n)] + [("x", 2)] * (height > 1)
        rels = [((("z", 2),),)] + [((("x", height),),)] * (height > 1)
        rings.append((GroupChoice.CIRCLE, make_presentation(gens, rels), None))
    return rings


def test_known_orbit_spaces_are_outcomes():
    for n in NS:
        fiber = make_type_ab(n, 0, 1)
        reports = {group: classify(fiber, group) for group in GroupChoice}
        for group, ring, index in realized(n):
            assert any(same_presentation(o.presentation, ring)
                       and o.index == index
                       for o in reports[group].outcomes), (n, group, ring)

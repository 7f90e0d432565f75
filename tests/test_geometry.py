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

CP^3, of type (1, 1) at n = 2, has a free involution; the ring of its
orbit space is derived by hand in ``test_cp3_orbit_space_is_an_outcome``.

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


def test_cp3_orbit_space_is_an_outcome():
    """CP^3 has H* = F2[c]/(c^4), |c| = 2: type (1, 1) at n = 2. The map
    t[z0 : z1 : z2 : z3] = [-conj z1 : conj z0 : -conj z3 : conj z2] is a
    free involution: t(z) = lambda z would force |lambda|^2 = -1. Its
    orbit space X is a closed 6-manifold, and the double cover
    p: CP^3 -> X has the mod 2 Gysin sequence

        ... -> H^(i-1)(X) --x--> H^i(X) --p*--> H^i(CP^3)
            --transfer--> H^i(X) --x--> H^(i+1)(X) -> ...

    with x in H^1(X) the cover's class, and H^i(CP^3) = F2 for
    i = 0, 2, 4, 6, else 0. Write b_i = dim H^i(X).

    - Degree 0: p* is onto H^0(CP^3), so the transfer there is 0 and
      x: H^0(X) -> H^1(X) is an isomorphism: b_1 = 1, x != 0.
    - Degree 2: p*x lies in H^1(CP^3) = 0. If p*y = c for some y in
      H^2(X), then p*(y^3) = c^3 != 0, but p* is 0 on H^6(X), since p
      has two sheets. So p* is 0 on H^2(X), and the sequence splits into
      x: H^1(X) = H^2(X) and F2 --transfer--> H^2(X) --x--> H^3(X) -> 0,
      whose transfer is onto: b_2 = 1 with x^2 != 0, and H^3(X) = 0, so
      x^3 = 0.
    - Degree 4: the twistor map CP^3 -> HP^1 = S^4,
      [z] -> [z0 + j z1 : z2 + j z3] (quaternion scalars on the right),
      is t-invariant, as t is right multiplication by j, so it factors
      through X. It pulls the generator of H^4(S^4) back to c^2, the
      generator of H^4(CP^3), as the spectral sequence of its S^2 fibers
      has all terms in even degrees and collapses. So z, the pull-back
      to X, has p*z = c^2: z != 0, z^2 = 0 (pulled back from
      H^8(S^4) = 0), and p* is onto H^4(CP^3). The transfer there is then 0, so with H^3(X) = 0,
      H^4(X) = F2 z (b_4 = 1) and x: H^4(X) -> H^5(X) is an isomorphism:
      xz != 0 and b_5 = 1.
    - Degree 6: H^7(X) = 0 and b_5 = 1 leave
      0 -> H^5(X) --x--> H^6(X) -> F2 -> H^6(X) -> 0, so b_6 = 1 and
      x^2 z != 0.

    So H*(X) has the basis 1, x, x^2, z, xz, x^2 z: it is
    F2[x(1), z(4)]/(x^3, z^2), with index 2, the largest power of x that
    is nonzero.
    """
    ring = make_presentation([("x", 1), ("z", 4)],
                             [((("x", 3),),), ((("z", 2),),)])
    report = classify(make_type_ab(2, 1, 1), GroupChoice.Z2)
    assert any(same_presentation(o.presentation, ring) and o.index == 2
               for o in report.outcomes)

"""Graded ring presentations read off an admissible limit page.

The canonical answer is the total graded ring of the limit page: one
generator x for the surviving base column (the image of t), one generator
per surviving fiber row, and monomial relations read off the interval
endpoints and the induced product table. Extraction notes each product it
finds vanishing, with its total degree and filtration; those whose degree
holds a surviving class of higher filtration are reported as extension
flags, never silently resolved.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from .errors import UnsupportedShapeError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Page

# A monomial is a tuple of (generator name, exponent) pairs in canonical
# generator order; a relation is a tuple of monomials whose sum is zero.
Monomial = Tuple[Tuple[str, int], ...]
Relation = Tuple[Monomial, ...]


class RingPresentation(NamedTuple):
    generators: Tuple[Tuple[str, int], ...]
    relations: Tuple[Relation, ...]
    base_generator: Optional[str] = None  # the image of t; == compares it too


class ExtensionFlag(NamedTuple):
    product: str
    candidates: Tuple[str, ...]


def make_presentation(generators, relations, base_generator=None) -> RingPresentation:
    gens = tuple(sorted(generators, key=lambda g: (g[1], g[0])))
    order = {name: i for i, (name, _) in enumerate(gens)}
    degs = dict(gens)

    def canon_monomial(m: Monomial) -> Monomial:
        return tuple(sorted(((g, e) for g, e in m if e), key=lambda p: order[p[0]]))

    def mono_degree(m: Monomial) -> int:
        return sum(degs[g] * e for g, e in m)

    canon_relations = []
    for rel in relations:
        monos = tuple(sorted({canon_monomial(m) for m in rel}))
        if monos:
            canon_relations.append(monos)
    canon_relations.sort(key=lambda rel: (mono_degree(rel[0]), rel))
    return RingPresentation(gens, tuple(canon_relations), base_generator)


def monomial_str(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(g if e == 1 else f"{g}^{e}" for g, e in m)


def relation_str(rel: Relation) -> str:
    return " + ".join(monomial_str(m) for m in rel)


def presentation_str(pres: RingPresentation) -> str:
    gens = ",".join(f"{name}({deg})" for name, deg in pres.generators)
    rels = ", ".join(relation_str(r) for r in pres.relations)
    return f"F2[{gens}]/({rels})" if rels else f"F2[{gens}]"


class PoincareSeries(NamedTuple):
    """Poincare series of a finite limit page, kept as its progressions.

    ``terms`` holds one (first degree, step, count) per row run, sorted:
    the rational form sum t^first (1 - t^(step*count)) / (1 - t^step).
    ``dense`` and ``items`` expand the series in one pass over the terms,
    and only when asked.
    """

    terms: Tuple[Tuple[int, int, int], ...]

    def dense(self, top: int) -> List[int]:
        """Dimensions in degrees 0..top as a list."""
        out = [0] * (top + 1)
        for first, step, count in self.terms:
            span = slice(first, min(first + step * count, top + 1), step)
            out[span] = [dim + 1 for dim in out[span]]
        return out

    def items(self) -> List[Tuple[int, int]]:
        """The supported (degree, dimension) pairs, by rising degree."""
        top = max((first + step * (count - 1) for first, step, count in self.terms),
                  default=-1)
        return [(degree, dim) for degree, dim in enumerate(self.dense(top)) if dim]


def tot_poincare(e_inf: "Page") -> PoincareSeries:
    """Poincare series of the total graded ring; requires a finite page.

    Each run (start, length) of row l adds one class in each total degree
    (start + i)*step + l, i < length: the progression
    (start*step + l, step, length).
    """
    step = e_inf.step
    terms = []
    for l, row in e_inf.rows.items():
        if row.last_column() is None:
            raise UnsupportedShapeError("page has an infinite row; no finite Poincare data")
        terms += [(start * step + l, step, length)
                  for start, length in row.summands]
    return PoincareSeries(tuple(sorted(terms)))


def extract_presentation(e_inf: "Page") -> Tuple[RingPresentation, List[ExtensionFlag]]:
    """Presentation and extension flags of an admissible limit page's ring.

    One pass over the rows by rising degree reads each row as its length
    and checks the shapes the classification produces; any other page is
    an unsupported-shape error naming the row at fault. The rules:
    - the page has the unit row 0;
    - each row is one finite run of columns starting at column 0;
    - no fiber row is longer than the base row 0.
    """
    step, rows = e_inf.step, e_inf.rows
    if 0 not in rows:
        raise UnsupportedShapeError("unit row is missing from the page")
    length: Dict[int, int] = {}  # row l is alive in columns 0..length[l] - 1
    for l in sorted(rows):
        summands = rows[l].summands
        if len(summands) != 1 or summands[0][0] != 0 or summands[0][1] is None:
            raise UnsupportedShapeError(f"row {l} is not one finite run from column 0")
        length[l] = summands[0][1]
        if length[l] > length[0]:
            raise UnsupportedShapeError(
                f"row {l} outlives the base row; not generated by x and z")

    x_name = "x" if length[0] > 1 else None  # if elided, every row is column 0 alone
    generators: List[Tuple[str, int]] = [(x_name, step)] if x_name else []
    relations: List[Relation] = [(((x_name, length[0]),),)] if x_name else []
    # (monomial, total degree, filtration) of each product that vanishes
    vanishing: List[Tuple[Monomial, int, int]] = []
    z_names = {l: "z" if len(length) == 2 else f"z{i}"
               for i, l in enumerate(length) if l}  # fiber rows, ascending
    for l, name in z_names.items():
        generators.append((name, l))
        if length[l] < length[0]:
            # z*x^length[0] = 0 follows from x^length[0] = 0. For l < |x|,
            # z goes first in the relation, but the product is never flagged:
            # a candidate row lies below l by a multiple of |x|.
            q = length[l] * step
            vanishing.append((((x_name, length[l]), (name, 1)), q + l, q))

    # Products of the fiber-row generators, induced from the starting page.
    names = e_inf.fiber.names
    for li, lj in itertools.combinations_with_replacement(z_names, 2):
        mono = ((z_names[li], 2),) if li == lj else (
            (z_names[li], 1), (z_names[lj], 1))
        if e_inf.fiber.mult(names[li], names[lj]) and li + lj in length:
            relations.append((mono, ((z_names[li + lj], 1),)))
        else:
            vanishing.append((mono, li + lj, 0))

    relations += [(mono,) for mono, _, _ in vanishing]
    pres = make_presentation(generators, relations, base_generator=x_name)
    return pres, _flags(e_inf, vanishing, z_names, x_name)


def _flags(e_inf: "Page", vanishing, z_names, x_name) -> List[ExtensionFlag]:
    """The vanishing products (monomial, total degree D, filtration F) whose
    degree holds a surviving class of higher filtration. A class of degree D
    in row l sits k = D - l degrees above the row's generator, in column
    k / step; the candidates are the rows alive there with k > F, by rising k."""
    step, rows = e_inf.step, e_inf.rows
    flags: List[ExtensionFlag] = []
    for mono, degree, filtration in vanishing:
        candidates = []
        for l in sorted(rows, reverse=True):
            k = degree - l
            if k > filtration and k % step == 0 and rows[l].has_column(k // step):
                factors = ((x_name, k // step), (z_names.get(l), 1))
                candidates.append(monomial_str(tuple(f for f in factors if f[0])))
        if candidates:
            flags.append(ExtensionFlag(monomial_str(mono), tuple(candidates)))
    return sorted(flags, key=lambda f: f.product)

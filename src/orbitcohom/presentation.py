"""Graded ring presentations read off an admissible limit page.

The canonical answer is the total graded ring of the limit page: one
generator x for the surviving base column (the image of t), one generator
per surviving fiber row, and monomial relations read off the interval
endpoints and the induced product table. Products that vanish on the limit
page while higher-filtration classes of the same degree survive are
reported as extension flags, never silently resolved.
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
    base_generator: Optional[str] = None  # image of t; not part of ring identity

    def degree_of(self, name: str) -> int:
        return dict(self.generators)[name]

    def monomial_degree(self, monomial: Monomial) -> int:
        degs = dict(self.generators)
        return sum(degs[g] * e for g, e in monomial)


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
        if row.has_infinite():
            raise UnsupportedShapeError("page has an infinite row; no finite Poincare data")
        terms += [(start * step + l, step, length)
                  for start, length in row.summands]
    return PoincareSeries(tuple(sorted(terms)))


def _single_interval(row) -> Tuple[int, int]:
    """(start, length) of a row that is one finite run, else raise."""
    summands = row.summands
    if len(summands) != 1 or summands[0][1] is None:
        raise UnsupportedShapeError("row is not a single finite interval")
    return summands[0]


def extract_presentation(e_inf: "Page") -> Tuple[RingPresentation, List[ExtensionFlag]]:
    """Presentation of the total ring of an admissible limit page.

    Supports pages whose rows are single intervals based at column 0 (the
    shapes the classification produces); anything else is an
    unsupported-shape error.
    """
    step = e_inf.step
    rows = e_inf.rows
    if 0 not in rows:
        raise UnsupportedShapeError("unit row is missing from the page")

    start0, x_power = _single_interval(rows[0])
    if start0 != 0:
        raise UnsupportedShapeError("base row does not start at column 0")

    generators: List[Tuple[str, int]] = []
    relations: List[Relation] = []
    x_name: Optional[str] = None
    if x_power > 1:
        x_name = "x"
        generators.append((x_name, step))
        relations.append(((((x_name, x_power)),),))

    fiber_rows = sorted(l for l in rows if l > 0)
    z_names: Dict[int, str] = {}
    for i, l in enumerate(fiber_rows):
        start, length = _single_interval(rows[l])
        if start != 0:
            raise UnsupportedShapeError(f"row {l} does not start at column 0")
        name = "z" if len(fiber_rows) == 1 else f"z{i + 1}"
        z_names[l] = name
        generators.append((name, l))
        if x_name is None:
            if length != 1:
                raise UnsupportedShapeError(
                    f"row {l} extends past column 0 but the base generator is elided")
        elif length > x_power:
            raise UnsupportedShapeError(
                f"row {l} outlives the base row; not generated by x and z")
        elif length < x_power:
            # z*x^q with q = x_power is already implied by x^x_power = 0.
            relations.append(((((x_name, length), (name, 1))),))

    # Products of the fiber-row generators, induced from the starting page.
    names = e_inf.fiber.names
    for li, lj in itertools.combinations_with_replacement(fiber_rows, 2):
        product = e_inf.fiber.mult(names[li], names[lj])
        mono: Monomial = ((z_names[li], 2),) if li == lj else (
            (z_names[li], 1), (z_names[lj], 1))
        lw = li + lj
        if product and lw in rows and rows[lw].has_column(0):
            target = ((z_names[lw], 1),)
            relations.append((mono, target))
        else:
            relations.append((mono,))

    pres = make_presentation(generators, relations, base_generator=x_name)
    flags = _extension_flags(e_inf, pres, z_names, x_name)
    return pres, flags


def _extension_flags(e_inf, pres: RingPresentation, z_names,
                     x_name) -> List[ExtensionFlag]:
    """Vanishing products whose degree holds a surviving class of higher filtration.

    A class of total degree D in row l sits k = D - l degrees above the
    row's generator, in column k / step, so the candidates for a product of
    filtration F are the rows whose column of D - l > F is alive, listed by
    rising column.
    """
    step = e_inf.step
    rows = e_inf.rows
    flags: List[ExtensionFlag] = []
    for rel in pres.relations:
        if len(rel) != 1:
            continue  # only vanishing products can hide an extension
        (mono,) = rel
        if len(mono) == 1 and mono[0][0] == x_name:
            continue  # x-power vanishing is exact at the base edge
        degree = pres.monomial_degree(mono)
        filtration = sum(pres.degree_of(g) * e for g, e in mono if g == x_name)
        candidates = []
        for l in sorted(rows, reverse=True):
            k = degree - l
            if (k > filtration and k % step == 0
                    and rows[l].has_column(k // step)):
                parts = []
                if x_name:
                    parts.append(x_name if k == step else f"{x_name}^{k // step}")
                if l:
                    parts.append(z_names[l])
                candidates.append("*".join(parts))
        if candidates:
            flags.append(ExtensionFlag(monomial_str(mono), tuple(candidates)))
    flags.sort(key=lambda f: f.product)
    return flags

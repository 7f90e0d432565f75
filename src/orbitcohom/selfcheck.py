"""``classify --self-check``, imported only when it runs: a walk of each
outcome's monomial basis against its Poincare series and Z/2 index, and a
comparison of the whole report with the brute-force oracle."""

from __future__ import annotations

import sys
from collections import Counter
from typing import List, Tuple

from . import oracle
from .engine import ClassificationReport, Outcome
from .errors import UnsupportedShapeError
from .presentation import (Monomial, RingPresentation, presentation_str,
                           relation_str)


def self_check(report: ClassificationReport) -> List[str]:
    """Disagreements found, empty for agreement. The oracle runs at its
    smallest cap, which is exact through the fiber's top degree. The basis
    walk cannot enumerate a two-term relation, so it skips such an outcome
    with a note on stderr."""
    problems = []
    for out in report.outcomes:
        binomial = [relation_str(r)
                    for r in out.presentation.relations if len(r) != 1]
        if binomial:
            print(f"note: monomial-basis check skipped for "
                  f"{presentation_str(out.presentation)}: "
                  f"two-term relation {', '.join(binomial)}",
                  file=sys.stderr)
        else:
            problems += basis_problems(out)
    return problems + oracle.check(report)[1]


def monomial_basis_elements(pres: RingPresentation,
                            max_degree: int) -> List[Tuple[int, Monomial]]:
    """All (degree, monomial) basis elements of the presented ring up to max_degree.

    Only presentations whose relations each kill a single monomial are
    enumerable this way; two-term relations would need rewriting machinery
    that is out of scope.
    """
    gens = pres.generators
    # Each vanishing monomial as an exponent vector in generator order.
    zero_vectors: List[Tuple[int, ...]] = []
    for rel in pres.relations:
        if len(rel) != 1:
            raise UnsupportedShapeError("basis enumeration needs monomial relations")
        zero = dict(rel[0])
        zero_vectors.append(tuple(zero.get(name, 0) for name, _ in gens))

    out: List[Tuple[int, Monomial]] = []

    def divisible(exps: List[int], zero: Tuple[int, ...]) -> bool:
        return all(e >= z for e, z in zip(exps, zero))

    def walk(i: int, exps: List[int], degree: int):
        if i == len(gens):
            if not any(divisible(exps, z) for z in zero_vectors):
                mono = tuple((name, e) for (name, _), e in zip(gens, exps) if e)
                out.append((degree, mono))
            return
        name, d = gens[i]
        e = 0
        while degree + d * e <= max_degree:
            exps.append(e)
            walk(i + 1, exps, degree + d * e)
            exps.pop()
            e += 1

    walk(0, [], 0)
    out.sort()
    return out


def basis_problems(outcome: Outcome) -> List[str]:
    """Disagreements between an outcome's ring data and its monomial basis.

    Enumerates the monomial basis of the presentation up to the fiber's top
    degree and compares its count per degree with the Poincare series read
    off the page, and, for an outcome with an index (Z/2), its largest
    nonzero pure power of x with that index. Empty means agreement.
    """
    pres = outcome.presentation
    top = outcome.e_inf.fiber.top_degree
    elements = monomial_basis_elements(pres, top)
    counts = Counter(degree for degree, _ in elements)
    key = outcome.history_key()
    problems = [
        f"outcome {key}: degree {d} has {counts[d]} basis monomials "
        f"but Poincare dimension {dim}"
        for d, dim in enumerate(outcome.poincare.dense(top))
        if counts[d] != dim]
    if outcome.index is not None:
        x = pres.base_generator
        walked = max((mono[0][1] for _, mono in elements
                      if len(mono) == 1 and mono[0][0] == x), default=0)
        if walked != outcome.index:
            problems.append(f"outcome {key}: largest basis power of x is "
                            f"{walked} but the index is {outcome.index}")
    return problems

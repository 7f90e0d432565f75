"""``classify --self-check``, imported only when it runs: a comparison of
the report with the brute-force oracle, and a walk of every outcome's
monomial basis against its Poincare series and Z/2 index."""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Tuple

from . import oracle
from .engine import ClassificationReport, Outcome
from .presentation import Monomial, RingPresentation


def self_check(report: ClassificationReport) -> List[str]:
    """Disagreements found, empty for agreement: the basis problems of each
    outcome, then the oracle's. The oracle runs first, at its smallest cap,
    which is exact through the fiber's top degree, so an input above its
    limit is refused before any basis is walked."""
    oracle_problems = oracle.check(report)[1]
    return [problem for out in report.outcomes
            for problem in basis_problems(out)] + oracle_problems


def monomial_basis_elements(pres: RingPresentation,
                            max_degree: int) -> List[Tuple[int, Monomial]]:
    """All (degree, monomial) basis elements of the presented ring up to max_degree.

    In degree d the ring is the degree-d monomials modulo the products of
    a relation with a monomial of degree d minus the relation's (Cox,
    Little and O'Shea, *Ideals, Varieties, and Algorithms*, ch. 5 §3).
    Each product is a row over F2, an int with one bit per monomial of
    degree d, reduced until it leads with a bit no other row leads with;
    the monomials that lead no row are a basis. The pure power of the base
    generator is bit 0, so it is kept exactly when it is nonzero.
    """
    gens = pres.generators
    by_degree: Dict[int, List[Tuple[int, ...]]] = defaultdict(list)
    # Exponent prefixes still to extend, on an explicit stack: a nested
    # function calling itself through its closure would be a cycle.
    stack = [((), 0)]
    while stack:
        exps, degree = stack.pop()
        if len(exps) == len(gens):
            by_degree[degree].append(exps)
            continue
        d = gens[len(exps)][1]
        stack.extend((exps + (e,), degree + d * e)
                     for e in range((max_degree - degree) // d + 1))
    other = [name != pres.base_generator for name, _ in gens]
    bit = {}  # each monomial's bit in the rows of its degree
    for monos in by_degree.values():
        monos.sort(key=lambda exps: any(e and o for e, o in zip(exps, other)))
        bit.update((exps, i) for i, exps in enumerate(monos))
    relations = [[tuple(dict(mono).get(name, 0) for name, _ in gens)
                  for mono in rel] for rel in pres.relations]
    out: List[Tuple[int, Monomial]] = []
    for degree, monos in by_degree.items():
        leads: Dict[int, int] = {}  # leading bit -> the row that has it
        for rel in relations:
            rel_degree = sum(d * e for (_, d), e in zip(gens, rel[0]))
            for mono in by_degree.get(degree - rel_degree, ()):
                row = 0
                for term in rel:
                    row ^= 1 << bit[tuple(a + b for a, b in zip(term, mono))]
                while row.bit_length() - 1 in leads:
                    row ^= leads[row.bit_length() - 1]
                if row:
                    leads[row.bit_length() - 1] = row
        out += [(degree, tuple((g, e) for (g, _), e in zip(gens, exps) if e))
                for i, exps in enumerate(monos) if i not in leads]
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

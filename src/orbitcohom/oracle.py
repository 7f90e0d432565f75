"""Independent brute-force check of the classification engine.

The oracle works on an explicit truncated cell model of the second page:
one cell per (base degree, fiber class) with total degree under a cap.
It counts every joint generator-level coefficient assignment across all
rounds (``engine.admissible_rounds``), checks the Leibniz rule cell by
cell on actual basis products, takes homology cell by cell (a cell
survives when it is neither hit nor hits; an assignment with d o d != 0
is rejected), and reports surviving
dimensions per total degree. Nothing here shares interval or bitmask
machinery with the engine, so agreement is meaningful evidence.

The assignments are walked round by round. In each round only the slots
whose source generator, target generator and target class are all live
can carry a differential. Each subset of those usable slots is checked,
turned and recursed into once, and stands for every joint assignment that
agrees with it there: two for each dead slot of this and earlier rounds,
times every choice of the later rounds when the subset is rejected. Each
outcome's key (its nonzero sources per round) is therefore reached once.
The Leibniz check skips a pair of rows when neither row nor any row of
their fiber product has a nonzero differential: d vanishes on every cell
involved, so both sides of the rule are empty for each of its cell pairs.

Truncation is handled by a safety margin: cells within one round-length
of the cap see truncated differentials, so only total degrees at most
cap - margin are reported or compared.
"""

from __future__ import annotations

import itertools
from typing import (AbstractSet, Dict, FrozenSet, List, NamedTuple, Optional,
                    Set, Tuple)

from .engine import GroupChoice, admissible_rounds
from .errors import (InvalidInputError, OversizedInstanceError,
                     UnsupportedShapeError)
from .fiber import FiberRing

MAX_CELLS = 600

Cell = Tuple[int, int]  # (base degree k, fiber degree l)
HistoryKey = Tuple[Tuple[int, Tuple[int, ...]], ...]


class TruncatedComplex(NamedTuple):
    fiber: FiberRing
    group: GroupChoice
    cap: int
    margin: int
    cells: Tuple[Cell, ...]
    names: Dict[int, str]  # fiber degree -> basis element name
    # (l1, l2) -> fiber degrees of the basis elements in the product of the
    # elements on rows l1 and l2
    products: Dict[Tuple[int, int], FrozenSet[int]]

    @property
    def reliable_degree(self) -> int:
        return self.cap - self.margin


class OracleOutcome(NamedTuple):
    key: HistoryKey
    dims: Dict[int, int]


class OracleReport(NamedTuple):
    complex: TruncatedComplex
    rounds: Tuple[int, ...]
    outcomes: Tuple[OracleOutcome, ...]
    rejected_assignments: int


def min_cap(fiber: FiberRing, group: GroupChoice) -> int:
    """Smallest truncation degree the oracle accepts for this input."""
    rounds = admissible_rounds(fiber, group)
    return fiber.top_degree + (max(rounds) if rounds else 0) + group.step


def truncate_e2(fiber: FiberRing, group: GroupChoice, cap: int) -> TruncatedComplex:
    """Finite cell model of the second page up to total degree cap."""
    names = fiber.names
    if len(names) != len(fiber.basis):
        raise UnsupportedShapeError(
            "oracle needs at most one basis element per degree")
    lowest = min_cap(fiber, group)
    if cap < lowest:
        raise InvalidInputError(f"cap {cap} too small; need at least {lowest}")
    margin = lowest - fiber.top_degree
    step = group.step
    # Count before building, so a huge cap is refused without allocating.
    count = sum(len(range(0, cap - l + 1, step)) for l in names)
    if count > MAX_CELLS:
        raise OversizedInstanceError(
            f"{count} cells exceeds the oracle limit of {MAX_CELLS}")
    cells = tuple((k, l) for l in sorted(names)
                  for k in range(0, cap - l + 1, step))
    products = {(l1, l2): frozenset(fiber.degrees[name]
                                    for name in fiber.mult(u1, u2))
                for l1, u1 in names.items() for l2, u2 in names.items()}
    return TruncatedComplex(fiber=fiber, group=group, cap=cap, margin=margin,
                            cells=cells, names=names, products=products)


def _differential(live: AbstractSet[Cell], r: int, coeff: Dict[int, int],
                  cell: Cell) -> Optional[Cell]:
    """The live cell a live cell's round-r differential hits, or None."""
    k, l = cell
    target = (k + r, l - r + 1)
    if coeff.get(l, 0) and target in live:
        return target
    return None


def _leibniz_ok(tc: TruncatedComplex, live: AbstractSet[Cell], r: int,
                coeff: Dict[int, int]) -> bool:
    """Cell-level Leibniz rule d(c1*c2) = d(c1)*c2 + c1*d(c2) over all pairs
    of live cells, degrees permitting.

    Cells are walked row pair by row pair. A pair of rows (l1, l2) is
    skipped when neither row nor any row of the fiber product l1*l2 has a
    nonzero coefficient: d vanishes on every cell involved, so both sides
    are empty for each of its cell pairs. For the same reason the left side
    sums d only over the product's rows that have one.
    """
    nonzero = {l for l, c in coeff.items() if c}
    if not nonzero:
        return True
    columns: Dict[int, List[int]] = {}
    for k, l in sorted(live):
        columns.setdefault(l, []).append(k)
    rows = sorted(columns)
    products, cap = tc.products, tc.cap

    def times(c1: Cell, c2: Cell) -> Set[Cell]:
        """Product of two cells, as its set of live cells."""
        k = c1[0] + c2[0]
        return {(k, l) for l in products[c1[1], c2[1]] if (k, l) in live}

    for i, l1 in enumerate(rows):
        for l2 in rows[i:]:
            hot = nonzero.intersection(products[l1, l2])
            if not hot and l1 not in nonzero and l2 not in nonzero:
                continue
            for k1 in columns[l1]:
                for k2 in columns[l2]:
                    if l1 == l2 and k2 < k1:
                        continue
                    if k1 + l1 + k2 + l2 + 1 > cap:
                        break
                    c1, c2 = (k1, l1), (k2, l2)
                    lhs: Set[Cell] = set()
                    for l in hot:
                        if (k1 + k2, l) in live:
                            d = _differential(live, r, coeff, (k1 + k2, l))
                            if d is not None:
                                lhs ^= {d}
                    rhs: Set[Cell] = set()
                    d1 = _differential(live, r, coeff, c1)
                    if d1 is not None:
                        rhs ^= times(d1, c2)
                    d2 = _differential(live, r, coeff, c2)
                    if d2 is not None:
                        rhs ^= times(c1, d2)
                    if lhs != rhs:
                        return False
    return True


def _turn(live: AbstractSet[Cell], r: int,
          coeff: Dict[int, int]) -> Optional[FrozenSet[Cell]]:
    """Cells surviving the round-r differential; None when d o d != 0.

    Every cell carries one basis element, so a cell dies exactly when it is
    hit or hits something, and a cell that does both is a nonzero composite.
    """
    new_live: Set[Cell] = set()
    for cell in live:
        src = (cell[0] - r, cell[1] + r - 1)
        hit = src in live and _differential(live, r, coeff, src) is not None
        hits = _differential(live, r, coeff, cell) is not None
        if hit and hits:
            return None
        if not (hit or hits):
            new_live.add(cell)
    return frozenset(new_live)


def brute_force_classify(fiber: FiberRing, group: GroupChoice,
                         cap: int) -> OracleReport:
    """Exhaustive count of all joint differential assignments.

    Every choice of nonzero generator differentials for every round is
    counted, walked round by round: a round's choices are the subsets of
    its usable slots, those whose source generator, target generator and
    target class are live (as in ``engine.differential_slots``). A subset stands
    for 2^(dead slots) choices of its round, so each subset is checked
    and turned once. A rejected subset counts its weight times every
    choice of the later rounds as rejected assignments. An outcome is keyed
    by its nonzero sources per round, matching the branch bookkeeping of
    the engine, and each key is reached by exactly one walk.
    """
    tc = truncate_e2(fiber, group, cap)
    rounds = admissible_rounds(fiber, group)
    slots = [[l for l in sorted(tc.names) if 0 <= l - r + 1 < l
              and l - r + 1 in tc.names] for r in rounds]
    # Joint choices of the rounds after round i.
    later = [2 ** sum(map(len, slots[i + 1:])) for i in range(len(rounds))]
    # Survival is faithful below cap - (number of rounds): truncation
    # errors start at the cap edge and descend one degree per round.
    survival_top = cap - len(rounds)
    outcomes: List[OracleOutcome] = []
    rejected = 0

    def walk(i: int, live: FrozenSet[Cell], weight: int,
             key: HistoryKey) -> None:
        nonlocal rejected
        if i == len(rounds):
            if any(fiber.top_degree < k + l <= survival_top for k, l in live):
                rejected += weight
                return
            dims: Dict[int, int] = {}
            for k, l in live:
                if k + l <= tc.reliable_degree:
                    dims[k + l] = dims.get(k + l, 0) + 1
            outcomes.append(OracleOutcome(key, dict(sorted(dims.items()))))
            return
        r = rounds[i]
        usable = [l for l in slots[i] if (0, l) in live
                  and (0, l - r + 1) in live and (r, l - r + 1) in live]
        weight <<= len(slots[i]) - len(usable)
        for choice in itertools.product((0, 1), repeat=len(usable)):
            coeff = dict(zip(usable, choice))
            turned = (_turn(live, r, coeff)
                      if _leibniz_ok(tc, live, r, coeff) else None)
            if turned is None:
                rejected += weight * later[i]
                continue
            sources = tuple(l for l in usable if coeff[l])
            walk(i + 1, turned, weight, key + ((r, sources),))

    walk(0, frozenset(tc.cells), 1, ())
    return OracleReport(complex=tc, rounds=rounds,
                        outcomes=tuple(sorted(outcomes, key=lambda o: o.key)),
                        rejected_assignments=rejected)


def compare_reports(engine_report, oracle_report: OracleReport) -> List[str]:
    """Discrepancies between engine and oracle results; empty means agreement."""
    problems: List[str] = []
    reliable = oracle_report.complex.reliable_degree
    engine_keys = {o.history_key(): o for o in engine_report.outcomes}
    oracle_keys = {o.key: o for o in oracle_report.outcomes}
    if len(engine_keys) != len(engine_report.outcomes):
        problems.append("engine outcomes have duplicate history keys")
    for key in sorted(set(engine_keys) | set(oracle_keys)):
        if key not in engine_keys:
            problems.append(f"oracle-only outcome {key}")
            continue
        if key not in oracle_keys:
            problems.append(f"engine-only outcome {key}")
            continue
        e_dims = engine_keys[key].poincare.dense(reliable)
        o_dims = oracle_keys[key].dims
        for deg, e_dim in enumerate(e_dims):
            if e_dim != o_dims.get(deg, 0):
                problems.append(
                    f"outcome {key}: dimension mismatch in degree {deg}: "
                    f"engine {e_dim}, oracle {o_dims.get(deg, 0)}")
    return problems


def check(report) -> Tuple[OracleReport, List[str]]:
    """The oracle's report on the engine report's input at ``min_cap``, whose
    reliable degree is the fiber's top degree, and its discrepancies with
    the engine's."""
    fiber, group = report.fiber, report.group
    orep = brute_force_classify(fiber, group, min_cap(fiber, group))
    return orep, compare_reports(report, orep)

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
The choices of one round share its live cells and its length, so d on a
row is fixed by whether the row holds a source: each round maps each
usable row's cells once, and a choice's d is the union of its sources'
maps. The Leibniz check skips a pair of rows when no row of the pair or of
its product holds a source, and keeps one table per round from a row
pair's rows, their two flags and the rows of their product holding a
source, which fix its verdict. Within a row pair, one cell pair is checked
for each column sum and pair of flags "d is nonzero on the cell".

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


def _differentials(live: AbstractSet[Cell], r: int,
                   coeff: Dict[int, int]) -> Dict[Cell, Cell]:
    """Each live cell whose round-r differential is nonzero, mapped to the
    live cell it hits."""
    out: Dict[Cell, Cell] = {}
    for k, l in live:
        if coeff.get(l, 0):
            target = (k + r, l - r + 1)
            if target in live:
                out[k, l] = target
    return out


def _by_row(live: AbstractSet[Cell]) -> Dict[int, List[int]]:
    """The columns of the live cells on each row, ascending."""
    columns: Dict[int, List[int]] = {}
    for k, l in sorted(live):
        columns.setdefault(l, []).append(k)
    return columns


def _leibniz_ok(tc: TruncatedComplex, live: AbstractSet[Cell],
                columns: Dict[int, List[int]], d: Dict[Cell, Cell],
                verdicts: Dict[tuple, bool]) -> bool:
    """Cell-level Leibniz rule d(c1*c2) = d(c1)*c2 + c1*d(c2) over all pairs
    of live cells, degrees permitting, for the differential map d
    (``_differentials``) of one round on live, whose cells by row are
    ``columns`` (``_by_row``).

    Cells are walked row pair by row pair, and the first failing pair ends
    the check. A pair of rows (l1, l2) is skipped when neither row nor any
    row of the fiber product l1*l2 holds a source of d: d vanishes on every
    cell involved, so both sides are empty for each of its cell pairs.

    Within a round, d on a row is all or nothing, so a pair's verdict
    depends only on its rows, whether each holds a source, and which rows
    of their product do (``hot``). ``verdicts`` maps that key to the
    verdict for every choice of the round; a pair is checked only on a miss.
    """
    nonzero = {l for _, l in d}
    if not nonzero:
        return True
    rows = sorted(columns)
    for i, l1 in enumerate(rows):
        for l2 in rows[i:]:
            hot = nonzero.intersection(tc.products[l1, l2])
            on1, on2 = l1 in nonzero, l2 in nonzero
            if not (hot or on1 or on2):
                continue
            key = (l1, l2, on1, on2, frozenset(hot))
            ok = verdicts.get(key)
            if ok is None:
                ok = verdicts[key] = _pair_ok(tc, live, columns, d,
                                              l1, l2, hot)
            if not ok:
                return False
    return True


def _pair_ok(tc: TruncatedComplex, live: AbstractSet[Cell],
             columns: Dict[int, List[int]], d: Dict[Cell, Cell],
             l1: int, l2: int, hot: AbstractSet[int]) -> bool:
    """The Leibniz rule on every pair of live cells of rows l1 <= l2. The
    left side sums d only over the product's rows in hot, those that hold a
    source of d.

    For cells (k1, l1), (k2, l2) and K = k1 + k2, both sides lie in column
    K + r: the left is d of the cells (K, l), l in hot, the right the live
    cells there on the rows of the products (l1-r+1)*l2 and l1*(l2-r+1),
    and the cap cut depends on K alone. So the verdict is fixed by (K, d is
    nonzero on (k1, l1), d is nonzero on (k2, l2)), and only the first cell
    pair of each such key is checked.
    """
    products, cap = tc.products, tc.cap

    def times(c1: Cell, c2: Cell) -> Set[Cell]:
        """Product of two cells, as its set of live cells."""
        k = c1[0] + c2[0]
        return {(k, l) for l in products[c1[1], c2[1]] if (k, l) in live}

    row2 = [(k2, (k2, l2) in d) for k2 in columns[l2]]
    firsts: Dict[Tuple[int, bool, bool], Tuple[Cell, Cell]] = {}
    for k1 in columns[l1]:
        on1 = (k1, l1) in d
        for k2, on2 in row2:
            if l1 == l2 and k2 < k1:
                continue
            if k1 + l1 + k2 + l2 + 1 > cap:
                break
            key = (k1 + k2, on1, on2)
            if key not in firsts:
                firsts[key] = ((k1, l1), (k2, l2))
    for c1, c2 in firsts.values():
        lhs: Set[Cell] = set()
        for l in hot:
            target = d.get((c1[0] + c2[0], l))
            if target is not None:
                lhs ^= {target}
        rhs: Set[Cell] = set()
        d1 = d.get(c1)
        if d1 is not None:
            rhs ^= times(d1, c2)
        d2 = d.get(c2)
        if d2 is not None:
            rhs ^= times(c1, d2)
        if lhs != rhs:
            return False
    return True


def _turn(live: AbstractSet[Cell],
          d: Dict[Cell, Cell]) -> Optional[FrozenSet[Cell]]:
    """Cells surviving the differential map d (``_differentials``) of one
    round on live; None when d o d != 0.

    Every cell carries one basis element, so a cell dies exactly when it is
    hit or hits something, and a cell that does both is a nonzero composite.
    """
    hit = set(d.values())
    if not hit.isdisjoint(d):
        return None
    return frozenset(live).difference(d, hit)


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
        columns = _by_row(live)
        verdicts: Dict[tuple, bool] = {}  # row pair verdicts of this round
        maps = {l: _differentials(live, r, {l: 1}) for l in usable}
        for choice in itertools.product((0, 1), repeat=len(usable)):
            sources = tuple(itertools.compress(usable, choice))
            d: Dict[Cell, Cell] = {}
            for l in sources:
                d.update(maps[l])
            turned = (_turn(live, d)
                      if _leibniz_ok(tc, live, columns, d, verdicts) else None)
            if turned is None:
                rejected += weight * later[i]
                continue
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

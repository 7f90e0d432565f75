"""Independent brute-force check of the classification engine.

The oracle works on an explicit truncated cell model of the second page:
one cell per (base degree k, fiber class l) with total degree under a cap,
held row by row as each fiber degree l's bitmask of live columns (bit k
is column k). Row l is a slot of round r when the generator cell (0, l)
has a cell (r, l - r + 1) to hit. The oracle counts every joint
generator-level coefficient assignment across all rounds, checks the
Leibniz rule on actual basis products, takes homology row by row (a cell
survives when it is neither hit nor hits; an assignment with d o d != 0
is rejected), and reports surviving dimensions per total degree. It
takes only the input type ``GroupChoice`` from the engine, so agreement
is meaningful evidence.

The assignments are walked round by round. In each round only the slots
whose source generator, target generator and target class are all live
can carry a differential. Each subset of those usable slots is checked,
turned and walked into once, and stands for every joint assignment that
agrees with it there: two for each dead slot of this and earlier rounds,
times every choice of the later rounds when the subset is rejected. Each
outcome's key (its nonzero sources per round) is therefore reached once.
The choices of one walk node share its live cells and its round r, so d
on a row is all or nothing: d maps each source row l to the mask of its
live columns k whose target (k + r, l - r + 1) is live, and a page turn
clears, row by row, the columns that hit and those that are hit. So the
walk does a node's fixed work once, not once per choice: the live
columns shifted down by r, and the row pairs l1 <= l2 with a usable slot
among l1, l2 and the row of their fiber product; no choice gives d on
the cells of any other pair. The verdict of a row pair is fixed by which
of those rows hold a source, so a node keeps a table of verdicts under
that key, dropped with the node, and decides a pair only on a miss. A
leaf is rejected when a row holds a live column in the window above the
top degree where survival is faithful; only an outcome's columns are
listed, for its dimensions.

The oracle refuses a fiber with two classes in one degree, and products
add degrees, so the product of rows l1 and l2 is empty or the row
l1 + l2. Both sides of the Leibniz rule for cells (k1, l1), (k2, l2) in
round r then lie in the one cell (K + r, l1 + l2 - r + 1), K = k1 + k2,
so for a row pair and each pair of flags "d is nonzero on the cell" the
columns K where the sides differ are one mask. The rule breaks at the
first column of the sparser row whose shift of the denser row meets that
mask. No cap cut is needed: both sides lie in total degree
K + l1 + l2 + 1, which holds no cell above the cap.

Truncation is handled by a safety margin: cells within one round-length
of the cap see truncated differentials, so only total degrees at most
cap - margin are reported or compared.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .engine import GroupChoice
from .errors import (InvalidInputError, OversizedInstanceError,
                     UnsupportedShapeError)
from .fiber import FiberRing

MAX_CELLS = 23052

Rows = Dict[int, int]  # fiber degree l -> mask of columns k, bit k
HistoryKey = Tuple[Tuple[int, Tuple[int, ...]], ...]


class TruncatedComplex(NamedTuple):
    fiber: FiberRing
    group: GroupChoice
    cap: int
    margin: int
    rows: Rows  # fiber degree -> mask of the columns of its cells
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


def _slots(fiber: FiberRing, group: GroupChoice) -> Dict[int, List[int]]:
    """Each round r >= 2 with a slot, mapped to its slots: the rows l whose
    generator cell (0, l) has a cell (r, l - r + 1) to hit, read off the
    row pairs l, l - r + 1; a cell's column r is a multiple of the step."""
    rows = sorted(fiber.names)
    slots: Dict[int, List[int]] = {}
    for l, target in itertools.product(rows, rows):  # l rising, as slots
        r = l - target + 1
        if r >= 2 and r % group.step == 0:
            slots.setdefault(r, []).append(l)
    return dict(sorted(slots.items()))


def min_cap(fiber: FiberRing, group: GroupChoice) -> int:
    """Smallest truncation degree the oracle accepts for this input."""
    return (fiber.top_degree + max(_slots(fiber, group), default=0)
            + group.step)


def _columns(mask: int) -> List[int]:
    """The columns k of a row mask, bit k set, in rising order. The mask's
    binary digits are read from the lowest; its "0b" prefix holds no 1."""
    return [k for k, digit in enumerate(reversed(bin(mask))) if digit == "1"]


def _leibniz_ok(products: Dict[Tuple[int, int], FrozenSet[int]],
                live: Rows, above: Rows, d: Rows, r: int, l1: int,
                l2: int) -> bool:
    """Cell-level Leibniz rule d(c1*c2) = d(c1)*c2 + c1*d(c2) over all pairs
    of live cells of rows l1 <= l2, for the differential d of round r on
    live: d[l] masks the columns k of source row l on which d is nonzero,
    and each hits (k + r, l - r + 1). above[m] is live[m] >> r.

    Within one walk node d on a row is all or nothing, so the verdict is
    fixed by whether l1, l2 and the row of their product hold a source;
    the walk keeps it in the node's table under that key and calls this
    only on a miss. A product of rows is empty or the row of their degree
    sum, so for cells (k1, l1), (k2, l2) and K = k1 + k2 both sides can
    only hold the cell (K + r, m), m = l1 + l2 - r + 1. The left holds it
    when K is in d[l1 + l2]; the right, when it is live, once for each
    cell that d is nonzero on and whose side's product (l1 - r + 1)*l2 or
    l1*(l2 - r + 1) is nonzero. So each flag pair has one mask of the K
    where the sides differ, and the rule breaks at the first column k of
    the sparser row whose shift of the denser row by k meets it.
    """
    m = l1 + l2 - r + 1
    d1, d2 = d.get(l1, 0), d.get(l2, 0)
    zero1, zero2 = live[l1] & ~d1, live[l2] & ~d2
    lhs = d.get(l1 + l2, 0) if products[l1, l2] else 0
    rhs1 = above[m] if products.get((l1 - r + 1, l2)) else 0
    rhs2 = above[m] if products.get((l1, l2 - r + 1)) else 0
    # each flag pair's columns of the two rows, and the K where sides differ
    for left, right, differ in ((zero1, zero2, lhs), (zero1, d2, lhs ^ rhs2),
                                (d1, zero2, lhs ^ rhs1),
                                (d1, d2, lhs ^ rhs1 ^ rhs2)):
        if left and right and differ:
            if left.bit_count() > right.bit_count():
                left, right = right, left
            while left:  # low is bit k, the sparser row's next column
                low = left & -left
                if right << low.bit_length() - 1 & differ:
                    return False
                left ^= low
    return True


def _turn(live: Rows, d: Rows, r: int) -> Optional[Rows]:
    """The live columns of each row surviving the differential d of round r
    (source row l -> the mask of the columns k of its cells hitting
    (k + r, l - r + 1)) on live; None when d o d != 0.

    Every cell carries one basis element, so a cell dies exactly when it is
    hit or hits something, and a cell that does both is a nonzero composite.
    """
    hit = {l - r + 1: columns << r for l, columns in d.items()}
    if any(hit[l] & columns for l, columns in d.items() if l in hit):
        return None
    return {l: columns & ~d.get(l, 0) & ~hit.get(l, 0)
            for l, columns in live.items()}


def brute_force_classify(fiber: FiberRing, group: GroupChoice,
                         cap: int) -> OracleReport:
    """Exhaustive count of all joint differential assignments.

    Every choice of nonzero generator differentials for every round is
    counted, walked round by round: a round's choices are the subsets of
    its usable slots (``_slots``), those whose source generator, target
    generator and target class are live. A subset stands for 2^(dead
    slots) choices of its round, so each subset is checked and turned once.
    A rejected subset counts its weight times every choice of the later
    rounds as rejected assignments. An outcome is keyed by its nonzero
    sources per round, the engine's history key, and each key is reached
    by exactly one walk.

    The walk runs on the finite cell model of the second page up to total
    degree cap, the report's ``complex``.
    """
    slots = _slots(fiber, group)
    names, step = fiber.names, group.step
    if len(names) != len(fiber.basis):
        raise UnsupportedShapeError(
            "oracle needs at most one basis element per degree")
    lowest = fiber.top_degree + max(slots, default=0) + step  # min_cap
    if cap < lowest:
        raise InvalidInputError(f"cap {cap} too small; need at least {lowest}")
    # Count before building, so a huge cap is refused without allocating.
    columns = {l: len(range(0, cap - l + 1, step)) for l in names}
    count = sum(columns.values())
    if count > MAX_CELLS:
        raise OversizedInstanceError(
            f"{count} cells exceeds the oracle limit of {MAX_CELLS}")
    # m columns 0, step, ..., (m - 1) step: a geometric sum of 2^step
    rows = {l: ((1 << step * m) - 1) // ((1 << step) - 1)
            for l, m in columns.items()}
    degree, mult = fiber.degrees.__getitem__, fiber.mult
    products = {(l1, l2): frozenset(map(degree, mult(u1, u2)))
                for l1, u1 in names.items() for l2, u2 in names.items()}
    # each row pair l1 <= l2 with the rows whose sources give d on its cells
    pair_rows = [(l1, l2, {l1, l2} | products[l1, l2])
                 for l1, l2 in products if l1 <= l2]
    tc = TruncatedComplex(fiber=fiber, group=group, cap=cap,
                          margin=lowest - fiber.top_degree, rows=rows,
                          products=products)
    rounds = tuple(slots)
    # Joint choices of the rounds after round i.
    later = [2 ** sum(len(slots[r]) for r in rounds[i + 1:])
             for i in range(len(rounds))]
    # Survival is faithful below cap - (number of rounds): truncation
    # errors start at the cap edge and descend one degree per round. So a
    # leaf is rejected when a row holds a column in its window, the k with
    # top degree < k + l <= cap - (number of rounds).
    width = max(cap - len(rounds) - fiber.top_degree, 0)
    windows = {l: ((1 << width) - 1) << (fiber.top_degree - l + 1)
               for l in names}
    # an outcome's dims: each row's columns up to the reliable degree
    reliable = {l: (1 << (tc.reliable_degree - l + 1)) - 1 for l in names}
    outcomes: List[OracleOutcome] = []
    rejected = 0
    # Walks still to take, on an explicit stack: a nested function calling
    # itself through its closure would be a cycle holding every outcome.
    stack = [(0, rows, 1, ())]
    while stack:
        i, live, weight, key = stack.pop()
        if i == len(rounds):
            if any(live[l] & window for l, window in windows.items()):
                rejected += weight
                continue
            dims: Dict[int, int] = {}
            for l, columns in live.items():
                for k in _columns(columns & reliable[l]):
                    dims[k + l] = dims.get(k + l, 0) + 1
            outcomes.append(OracleOutcome(key, dict(sorted(dims.items()))))
            continue
        r = rounds[i]
        ends = 1 | 1 << r  # the target row's generator and target class
        usable = [l for l in slots[r]
                  if live[l] & 1 and live[l - r + 1] & ends == ends]
        weight <<= len(slots[r]) - len(usable)
        # The empty choice passes the Leibniz rule and turns no cell.
        stack.append((i + 1, live, weight, key + ((r, ()),)))
        if not usable:
            continue
        # Fixed for the node: each usable row's columns whose target is
        # live, a bit per usable row, and the live row pairs with a usable
        # row among l1, l2 and the row of their product, each with the mask
        # of those rows' bits. No choice gives d on the other pairs' cells.
        hits = {l: live[l] & live[l - r + 1] >> r for l in usable}
        bits = {l: 1 << j for j, l in enumerate(usable)}
        pairs = []
        for l1, l2, rows_near in pair_rows:
            if live[l1] and live[l2]:
                near = 0
                for m in rows_near:
                    near |= bits.get(m, 0)
                if near:
                    pairs.append((l1, l2, near))
        above = {m: columns >> r for m, columns in live.items()}  # bit K: K + r
        # (l1, l2, the bits of the rows among l1, l2 and their product that
        # hold a source) -> the pair's verdict, which that key fixes
        verdicts: Dict[Tuple[int, int, int], bool] = {}
        for choice in range(1, 1 << len(usable)):
            sources = tuple(l for l in usable if choice & bits[l])
            d = {l: hits[l] for l in sources}
            for l1, l2, near in pairs:
                touched = choice & near
                if not touched:
                    continue  # d vanishes on every cell involved
                ok = verdicts.get((l1, l2, touched))
                if ok is None:
                    ok = verdicts[l1, l2, touched] = _leibniz_ok(
                        products, live, above, d, r, l1, l2)
                if not ok:
                    break
            else:
                turned = _turn(live, d, r)
                if turned is not None:
                    stack.append((i + 1, turned, weight,
                                   key + ((r, sources),)))
                    continue
            rejected += weight * later[i]

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

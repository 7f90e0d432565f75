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
turned and recursed into once, and stands for every joint assignment that
agrees with it there: two for each dead slot of this and earlier rounds,
times every choice of the later rounds when the subset is rejected. Each
outcome's key (its nonzero sources per round) is therefore reached once.
The choices of one round share its live cells and its length, so d on a
row is fixed by whether the row holds a source: d maps each source row l
to the mask of its live columns k whose target (k + r, l - r + 1) is
live, and a page turn clears, row by row, the columns that hit and those
that are hit.

The Leibniz rule for cells (k1, l1), (k2, l2) is fixed by K = k1 + k2 and
whether d is nonzero on each cell. So for a row pair and each flag pair,
the column sums K are the sumset of the two rows' columns with those
flags, one shift per column of the sparser one, and the rule is one AND per
target row of that sumset against the columns K where the two sides
differ. No cap cut is needed: both sides lie in total degree
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

MAX_CELLS = 2316

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
    generator cell (0, l) has a cell (r, l - r + 1) to hit. Cells lie only
    in the columns that are multiples of the step."""
    rows = sorted(fiber.names)
    slots = {r: [l for l in rows if l - r + 1 in fiber.names]
             for r in range(2, rows[-1] + 2, group.step)}
    return {r: ls for r, ls in slots.items() if ls}


def min_cap(fiber: FiberRing, group: GroupChoice) -> int:
    """Smallest truncation degree the oracle accepts for this input."""
    return (fiber.top_degree + max(_slots(fiber, group), default=0)
            + group.step)


def _columns(mask: int) -> List[int]:
    """The columns k of a row mask, bit k set, in rising order. The mask's
    binary digits are read from the lowest; its "0b" prefix holds no 1."""
    return [k for k, digit in enumerate(reversed(bin(mask))) if digit == "1"]


def _leibniz_ok(tc: TruncatedComplex, live: Rows, d: Rows, r: int) -> bool:
    """Cell-level Leibniz rule d(c1*c2) = d(c1)*c2 + c1*d(c2) over all pairs
    of live cells, for the differential d of round r on live: d[l] masks
    the columns k of source row l on which d is nonzero, and each hits
    (k + r, l - r + 1).

    A pair of rows l1 <= l2 is skipped when neither row nor any row of the
    fiber product l1*l2 (``hot``) holds a source of d: d vanishes on every
    cell involved. For cells (k1, l1), (k2, l2) and K = k1 + k2, both sides
    lie in column K + r, as sets of rows m there. The left holds m when
    K is in d[m + r - 1], m + r - 1 in hot; the right, when K + r is live
    in row m, once for each side whose cell d is nonzero on and whose
    product (l1 - r + 1)*l2 or l1*(l2 - r + 1) holds m. So each row m
    gives a mask of the K where the sides differ, and for each flag pair
    the rule holds when the sumset of the two rows' columns with those
    flags misses all of them. The sumset is symmetric, so it is formed by
    shifting the denser class by each column of the sparser one.
    """
    products = tc.products
    above = {m: columns >> r for m, columns in live.items()}  # bit K: K + r
    rows = sorted(l for l, columns in live.items() if columns)
    for i, l1 in enumerate(rows):
        for l2 in rows[i:]:
            hot = d.keys() & products[l1, l2]
            d1, d2 = d.get(l1, 0), d.get(l2, 0)
            if not (hot or d1 or d2):
                continue
            lhs = {l - r + 1: d[l] for l in hot}
            # each flag's columns of the row, and the product rows that
            # the right side holds when d is nonzero on the row's cell
            ones = ((live[l1] & ~d1, ()),
                    (d1, products.get((l1 - r + 1, l2), ())))
            twos = ((live[l2] & ~d2, ()),
                    (d2, products.get((l1, l2 - r + 1), ())))
            for (left, targets1), (right, targets2) in itertools.product(
                    ones, twos):
                if not (left and right):
                    continue
                differ = dict(lhs)
                for m in itertools.chain(targets1, targets2):
                    differ[m] = differ.get(m, 0) ^ above[m]
                if not any(differ.values()):
                    continue
                if left.bit_count() > right.bit_count():
                    left, right = right, left
                sums = 0
                for k in _columns(left):
                    sums |= right << k
                if any(sums & columns for columns in differ.values()):
                    return False
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
    products = {(l1, l2): frozenset(fiber.degrees[name]
                                    for name in fiber.mult(u1, u2))
                for l1, u1 in names.items() for l2, u2 in names.items()}
    tc = TruncatedComplex(fiber=fiber, group=group, cap=cap,
                          margin=lowest - fiber.top_degree, rows=rows,
                          products=products)
    rounds = tuple(slots)
    # Joint choices of the rounds after round i.
    later = [2 ** sum(len(slots[r]) for r in rounds[i + 1:])
             for i in range(len(rounds))]
    # Survival is faithful below cap - (number of rounds): truncation
    # errors start at the cap edge and descend one degree per round.
    survival_top = cap - len(rounds)
    outcomes: List[OracleOutcome] = []
    rejected = 0

    def walk(i: int, live: Rows, weight: int, key: HistoryKey) -> None:
        nonlocal rejected
        if i == len(rounds):
            degrees = [k + l for l, columns in live.items()
                       for k in _columns(columns)]
            if any(fiber.top_degree < t <= survival_top for t in degrees):
                rejected += weight
                return
            dims: Dict[int, int] = {}
            for t in degrees:
                if t <= tc.reliable_degree:
                    dims[t] = dims.get(t, 0) + 1
            outcomes.append(OracleOutcome(key, dict(sorted(dims.items()))))
            return
        r = rounds[i]
        ends = 1 | 1 << r  # the target row's generator and target class
        usable = [l for l in slots[r]
                  if live[l] & 1 and live[l - r + 1] & ends == ends]
        weight <<= len(slots[r]) - len(usable)
        # each usable row's columns whose target is live
        hits = {l: live[l] & live[l - r + 1] >> r for l in usable}
        # The empty choice passes the Leibniz rule and turns no cell.
        walk(i + 1, live, weight, key + ((r, ()),))
        for choice in itertools.islice(
                itertools.product((0, 1), repeat=len(usable)), 1, None):
            sources = tuple(itertools.compress(usable, choice))
            d = {l: hits[l] for l in sources}
            ok = _leibniz_ok(tc, live, d, r)
            turned = _turn(live, d, r) if ok else None
            if turned is None:
                rejected += weight * later[i]
                continue
            walk(i + 1, turned, weight, key + ((r, sources),))

    walk(0, rows, 1, ())
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

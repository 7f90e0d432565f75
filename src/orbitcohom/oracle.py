"""Independent brute-force check of the classification engine.

The oracle works on an explicit truncated cell model of the second page:
one cell per (base degree, fiber class) with total degree under a cap.
It enumerates every joint generator-level coefficient assignment across
all rounds at once, checks the Leibniz rule cell by cell on actual basis
products, turns pages cell by cell (a cell survives when it is neither hit
nor hits; an assignment with d o d != 0 is rejected), and reports surviving
dimensions per total degree. Nothing here shares interval or bitmask
machinery with the engine, so agreement is meaningful evidence.

Truncation is handled by a safety margin: cells within one round-length
of the cap see truncated differentials, so only total degrees at most
cap - margin are reported or compared.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .engine import GroupChoice, _round_schedule
from .errors import (InvalidInputError, OversizedInstanceError,
                     UnsupportedShapeError)
from .fiber import FiberRing, validate as validate_fiber

MAX_CELLS = 600

Cell = Tuple[int, int]  # (base degree k, fiber degree l)
HistoryKey = Tuple[Tuple[int, Tuple[int, ...]], ...]


@dataclass(frozen=True)
class TruncatedComplex:
    fiber: FiberRing
    group: GroupChoice
    cap: int
    margin: int
    cells: Tuple[Cell, ...]
    names: Dict[int, str]  # fiber degree -> basis element name

    @property
    def reliable_degree(self) -> int:
        return self.cap - self.margin


@dataclass(frozen=True)
class OracleOutcome:
    key: HistoryKey
    dims: Dict[int, int]


@dataclass(frozen=True)
class OracleReport:
    complex: TruncatedComplex
    rounds: Tuple[int, ...]
    outcomes: Tuple[OracleOutcome, ...]
    rejected_assignments: int


def min_cap(fiber: FiberRing, group: GroupChoice) -> int:
    """Smallest truncation degree the oracle accepts for this input."""
    rounds = _round_schedule(fiber, group)
    return fiber.top_degree + (max(rounds) if rounds else 0) + group.step


def truncate_e2(fiber: FiberRing, group: GroupChoice, cap: int) -> TruncatedComplex:
    """Finite cell model of the second page up to total degree cap."""
    problems = validate_fiber(fiber)
    if problems:
        raise InvalidInputError("invalid fiber ring: " + "; ".join(problems))
    names: Dict[int, str] = {}
    for name, deg in fiber.basis:
        if deg in names:
            raise UnsupportedShapeError(
                "oracle needs at most one basis element per degree")
        names[deg] = name
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
    return TruncatedComplex(fiber=fiber, group=group, cap=cap, margin=margin,
                            cells=cells, names=names)


def _cell_product(tc: TruncatedComplex, c1: Cell, c2: Cell) -> FrozenSet[Cell]:
    """Product of two cells in the truncated model (empty set = zero)."""
    (k1, l1), (k2, l2) = c1, c2
    hits = tc.fiber.mult(tc.names[l1], tc.names[l2])
    degs = tc.fiber.degrees
    out = {(k1 + k2, degs[name]) for name in hits}
    return frozenset(c for c in out if c[0] + c[1] <= tc.cap)


def _differential(tc: TruncatedComplex, live: Set[Cell], r: int,
                  coeff: Dict[int, int], cell: Cell) -> FrozenSet[Cell]:
    """Value of the round-r differential on a live cell, as a set of live cells."""
    k, l = cell
    target = (k + r, l - r + 1)
    if coeff.get(l, 0) and target in live:
        return frozenset({target})
    return frozenset()


def _effective(tc: TruncatedComplex, live: Set[Cell], r: int,
               coeff: Dict[int, int]) -> Dict[int, int]:
    """Zero the differentials whose generator or generator target is dead.

    The slot convention matches the engine: a differential needs its source
    generator, the target row generator, and the target class all alive.
    """
    out = {}
    for l, c in coeff.items():
        lt = l - r + 1
        out[l] = c if (c and (0, l) in live and (0, lt) in live
                       and (r, lt) in live) else 0
    return out


def _leibniz_ok(tc: TruncatedComplex, live: Set[Cell], r: int,
                coeff: Dict[int, int]) -> bool:
    """Cell-level Leibniz rule over all pairs of live cells, degrees permitting."""
    if not any(coeff.values()):
        return True
    cells = sorted(live)
    for i, c1 in enumerate(cells):
        for c2 in cells[i:]:
            if c1[0] + c1[1] + c2[0] + c2[1] + 1 > tc.cap:
                continue
            product = frozenset(c for c in _cell_product(tc, c1, c2) if c in live)
            lhs: FrozenSet[Cell] = frozenset()
            for c in product:
                lhs ^= _differential(tc, live, r, coeff, c)
            rhs: FrozenSet[Cell] = frozenset()
            for d1 in _differential(tc, live, r, coeff, c1):
                rhs ^= frozenset(c for c in _cell_product(tc, d1, c2) if c in live)
            for d2 in _differential(tc, live, r, coeff, c2):
                rhs ^= frozenset(c for c in _cell_product(tc, c1, d2) if c in live)
            if lhs != rhs:
                return False
    return True


def _turn(tc: TruncatedComplex, live: Set[Cell], r: int,
          coeff: Dict[int, int]) -> Optional[Set[Cell]]:
    """Cells surviving the round-r differential; None when d o d != 0.

    Every cell carries one basis element, so a cell dies exactly when it is
    hit or hits something, and a cell that does both is a nonzero composite.
    """
    new_live: Set[Cell] = set()
    for cell in live:
        src = (cell[0] - r, cell[1] + r - 1)
        hit = src in live and bool(_differential(tc, live, r, coeff, src))
        hits = bool(_differential(tc, live, r, coeff, cell))
        if hit and hits:
            return None
        if not (hit or hits):
            new_live.add(cell)
    return new_live


def brute_force_classify(fiber: FiberRing, group: GroupChoice,
                         cap: int) -> OracleReport:
    """Joint exhaustive enumeration of all differential assignments.

    Every choice of nonzero generator differentials for every round is
    simulated from scratch; outcomes are deduplicated by their effective
    assignment, matching the branch bookkeeping of the engine.
    """
    tc = truncate_e2(fiber, group, cap)
    rounds = _round_schedule(fiber, group)
    row_degrees = sorted(tc.names)
    slots_per_round = []
    for r in rounds:
        sources = [l for l in row_degrees if l - r + 1 in tc.names and l - r + 1 >= 0
                   and l - r + 1 < l]
        slots_per_round.append(sources)

    start_live = set(tc.cells)
    outcomes: Dict[HistoryKey, Dict[int, int]] = {}
    rejected = 0
    choice_space = [itertools.product((0, 1), repeat=len(s))
                    for s in slots_per_round]
    for joint in itertools.product(*choice_space):
        live = set(start_live)
        key_parts: List[Tuple[int, Tuple[int, ...]]] = []
        ok = True
        for r, sources, coeffs in zip(rounds, slots_per_round, joint):
            coeff = _effective(tc, live, r, dict(zip(sources, coeffs)))
            key_parts.append((r, tuple(sorted(l for l, c in coeff.items() if c))))
            if not _leibniz_ok(tc, live, r, coeff):
                ok = False
                break
            turned = _turn(tc, live, r, coeff)
            if turned is None:
                ok = False
                break
            live = turned
        if not ok:
            rejected += 1
            continue
        key = tuple(key_parts)
        if key in outcomes:
            continue
        # Survival is faithful below cap - (number of rounds): truncation
        # errors start at the cap edge and descend one degree per round.
        survival_top = cap - len(rounds)
        bad = any(fiber.top_degree < k + l <= survival_top
                  for k, l in live)
        if bad:
            rejected += 1
            continue
        dims: Dict[int, int] = {}
        for k, l in live:
            if k + l <= tc.reliable_degree:
                dims[k + l] = dims.get(k + l, 0) + 1
        outcomes[key] = dict(sorted(dims.items()))

    ordered = tuple(OracleOutcome(key, dims)
                    for key, dims in sorted(outcomes.items()))
    return OracleReport(complex=tc, rounds=rounds, outcomes=ordered,
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
        e_dims = engine_keys[key].poincare
        o_dims = oracle_keys[key].dims
        for deg in range(reliable + 1):
            if e_dims.get(deg, 0) != o_dims.get(deg, 0):
                problems.append(
                    f"outcome {key}: dimension mismatch in degree {deg}: "
                    f"engine {e_dims.get(deg, 0)}, oracle {o_dims.get(deg, 0)}")
    return problems


def cap_stable(fiber: FiberRing, group: GroupChoice, cap: int) -> List[str]:
    """Discrepancies between oracle runs at cap and cap + 2."""
    lo = brute_force_classify(fiber, group, cap)
    hi = brute_force_classify(fiber, group, cap + 2)
    problems: List[str] = []
    lo_keys = {o.key: o for o in lo.outcomes}
    hi_keys = {o.key: o for o in hi.outcomes}
    if set(lo_keys) != set(hi_keys):
        problems.append(f"outcome keys differ between caps {cap} and {cap + 2}")
        return problems
    reliable = lo.complex.reliable_degree
    for key, out in lo_keys.items():
        other = hi_keys[key]
        for deg in range(reliable + 1):
            if out.dims.get(deg, 0) != other.dims.get(deg, 0):
                problems.append(
                    f"outcome {key}: degree {deg} changed with the cap")
    return problems

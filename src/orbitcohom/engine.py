"""Spectral-sequence engine for the Borel fibration of a free action.

Starting from the tensor-product second page, the engine takes one step
per round, ``branches``: it enumerates every choice of nonzero
differentials among the round's slots, rejects the choices that break the
Leibniz rule or d o d = 0, and takes homology under the others. ``classify``
keeps exactly the branches whose limit page is compatible with a free
action (finite, and supported in total degree at most the fiber dimension).

Row l of a page is the F2[t]-module of the fiber's degree l. Its generator
g is the fiber's one basis element of that degree, and it survives while
column 0 does; a fiber with two basis elements in one degree is refused.
A row is held as the set of columns k whose class t^k g survives, in runs
(``intervals.IntervalModule``); column k of row l lies in total degree
l + k*step, where step = |t| is the group's.
Differentials are recorded only on row generators: every starting row is a
free module over the base ring H*(B_G) = F2[t] and the differentials are
module maps over it, so the generator values determine everything. A
round's assignment is therefore the pattern (round, sources): the rows
whose generator maps nonzero, the same pair that keys a branch's history.
A page carries only its remaining rounds, the current one first.

The Leibniz and d o d checks hold across all columns exactly. Each row
is a union of runs of columns that is constant beyond its last run
endpoint, so finitely many columns represent every regime. A page that
has a slot builds, once, one list of checks (``Page._scan``). A check is
three rows, the 8-bit table of the coefficient triples on them that break
it, and its reason: a Leibniz pair's rows are those of u*v, u and v, and a
d o d chain l -> mid -> last is c_l c_mid = 0. A pattern is refused for the
first check its sources break. A Leibniz table entry asks whether
some pair of columns k, j with given term parities sums into a set of live
target columns; the sumset of the runs (a, m) and (c, n), as (start,
length), is the single run (a + c, m + n - 1), so each costs O(runs^2)
big-int operations: as many whatever n is, but each as wide as the masks,
which grow with the degrees. A row's own runs are its summands; masks are
built only where two rows meet: the sides of a source row split by its
live targets, the target columns of a product, and a d o d chain.
A page without a slot builds no masks at all, and the zero pattern costs
no check and no turn. A page turn reads no mask: with e = r / step, a
source row l loses each column k whose column k + e lives in row
l - r + 1, a target row each column k whose column k - e lives in its
source row, and every other row is kept as it is.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from . import presentation
from .errors import (InvariantError, OversizedInstanceError,
                     PreconditionError, UnsupportedShapeError)
from .fiber import FiberRing
from .intervals import FREE_ROW, INFINITE, IntervalModule, runs
from .record import Record

# The most branches classify walks before it refuses the fiber. The tree
# grows about x3.5-4 per fiber class, and the report keeps every branch: the
# wedge of 12 classes (one in each degree 0..11) has 164332 under Z/2.
MAX_BRANCHES = 200_000


class GroupChoice(enum.Enum):
    Z2 = "z2"
    CIRCLE = "s1"

    @property
    def step(self) -> int:
        return 1 if self is GroupChoice.Z2 else 2


class Page(Record):
    """A page of the spectral sequence. Its rows are degrees of its fiber:
    row l holds the columns left of the free row on 1 (x) fiber.names[l],
    whose generator lives while column 0 does."""
    __slots__ = ("fiber", "group", "rounds", "rows", "_scan_cache")

    def __init__(self, fiber: FiberRing, group: GroupChoice,
                 rounds: Tuple[int, ...], rows: Dict[int, IntervalModule]):
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "rounds", rounds)  # remaining, current first
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_scan_cache", None)

    @property
    def step(self) -> int:
        return self.group.step

    @property
    def round(self) -> Optional[int]:
        """Current round; None once past the last."""
        return self.rounds[0] if self.rounds else None

    @property
    def _scan(self) -> "_Scan":
        """Column data for the current round, built once and shared by every
        pattern checked or turned on this page."""
        if self._scan_cache is None:
            object.__setattr__(self, "_scan_cache", _scan_page(self))
        return self._scan_cache


class DifferentialPattern(Record):
    __slots__ = ("round", "sources")

    def __init__(self, round: int, sources: Tuple[int, ...]):
        object.__setattr__(self, "round", round)
        # ascending rows whose generator maps nonzero
        object.__setattr__(self, "sources", sources)


class Outcome(NamedTuple):
    history: Tuple[DifferentialPattern, ...]
    e_inf: Page
    # Dimension per total degree, held as one progression per row run
    # (presentation.PoincareSeries), so its size does not grow with n.
    poincare: presentation.PoincareSeries
    presentation: presentation.RingPresentation
    extension_flags: Tuple[presentation.ExtensionFlag, ...]
    index: Optional[int]

    def history_key(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        return tuple((p.round, p.sources) for p in self.history)


class RejectedBranch(NamedTuple):
    history: Tuple[DifferentialPattern, ...]
    round: Optional[int]
    reason: str


class ClassificationReport(NamedTuple):
    fiber: FiberRing
    group: GroupChoice
    outcomes: Tuple[Outcome, ...]
    rejected: Tuple[RejectedBranch, ...]

    @property
    def verdict(self) -> str:
        return "free-action-possible" if self.outcomes else "no-free-action"


def build_e2(fiber: FiberRing, group: GroupChoice) -> Page:
    """Second page of the Borel fibration: each fiber row free of rank one
    over F2[t]. Two basis elements in one degree are refused."""
    if len(fiber.names) != len(fiber.basis):
        raise UnsupportedShapeError("rows of rank > 1 are not classifiable")
    return Page(fiber=fiber, group=group,
                rounds=admissible_rounds(fiber, group),
                rows={deg: FREE_ROW for deg in sorted(fiber.names)})


def admissible_rounds(fiber: FiberRing, group: GroupChoice) -> Tuple[int, ...]:
    """Every round r >= 2 that can connect two nonzero rows: a gap between
    two basis degrees plus one, kept when the group's step divides it (of
    n+1, 2n+1 and 3n+1 for a fiber of type (a,b))."""
    degrees = sorted({d for _, d in fiber.basis})
    rounds = sorted({hi - lo + 1 for hi in degrees for lo in degrees
                     if hi > lo and (hi - lo + 1) % group.step == 0})
    return tuple(r for r in rounds if r >= 2)


def differential_slots(page: Page) -> Tuple[int, ...]:
    """Source rows that can carry a differential in the page's round.

    A slot needs a surviving source generator, a surviving target generator
    in row l - r + 1, and a live target class t^e (x) v at column r;
    anything else forces a zero differential and carries no choice.
    """
    return page._scan.slots


class _Scan(NamedTuple):
    """Data of a page for its current round that no pattern changes, shared
    by all its patterns. A page without slots has only the zero pattern,
    which needs none of it, so its scan holds the slots alone."""
    slots: Tuple[int, ...]  # source rows of the round's slots
    # (la, lb, lc, table, reason): sources S break the check when bit
    # 4 [la in S] + 2 [lb in S] + [lc in S] of table is set
    checks: Tuple[Tuple[int, int, int, int, str], ...]


# _BREAKS[tau]: the 8-bit set of the c = 4 c_w + 2 c_u + c_v with tau . c odd
_BREAKS = tuple(sum(1 << c for c in range(8) if bin(tau & c).count("1") % 2)
                for tau in range(8))


def _scan_page(page: Page) -> _Scan:
    """Slots, and for a page with slots its Leibniz, then d o d, checks
    covering every support regime, read off its rows' runs, and off column
    masks where two rows meet.

    Beyond the largest run endpoint shifted by the differential every
    row's support is constant, so scanning representatives up to that bound
    is exact even though the modules are infinite.
    """
    r, step, rows = page.round, page.step, page.rows
    if r is None:
        raise PreconditionError("the page has no differential rounds left")
    names = page.fiber.names
    stray = set(rows).difference(names)
    if stray:
        raise PreconditionError(
            f"rows {sorted(stray)} are not degrees of the page's fiber")
    e = r // step
    gens = tuple((l, names[l]) for l in sorted(rows) if rows[l].has_column(0))
    live = {l for l, _ in gens}
    slots = tuple(l for l, _ in gens if r % step == 0 and l - r + 1 in live
                  and rows[l - r + 1].has_column(e))
    if not slots:
        return _Scan(slots, ())

    endpoint = max(row.max_finite_endpoint() for row in rows.values())
    rep = endpoint + 2 * e + 4
    nbits = 2 * rep + 2 * e + 4
    masks = {l: row.column_mask(nbits) for l, row in rows.items()}
    rep_mask = (1 << rep) - 1
    down = {l: mask >> e for l, mask in masks.items()}  # bit s: column s + e

    # Leibniz closure, columnwise: for generators u, v and all columns k, j,
    #   d((t^k u)(t^j v)) = d(t^k u)(t^j v) + (t^k u) d(t^j v)
    # with page products of dead classes equal to zero. Both sides lie in
    # column k + j + e of the target row of w = u*v; where that lives, a
    # pattern with c_x = 1 for each source row lx among lw, lu, lv needs
    # c_w W + c_u DU + c_v DV = 0 (mod 2), where W says t^(k+j) w lives and
    # DU, DV say d(t^k u), d(t^j v) live. So c = (c_w, c_u, c_v) breaks the
    # pair exactly when some parity vector tau = (W, DU, DV) that occurs
    # has an odd dot product with c, and the pair keeps the 8-bit table of
    # those c. A side is on when its row is a slot and its fiber product is
    # nonzero; an off side reads 0 for every c, so only the tau that are 0
    # on off sides are tested, and none that adds no new c a pattern can
    # give: no pattern gives c_w != c_v when u is the unit, or c_u != c_v
    # when u = v.
    mult, slot_set = page.fiber.mult, set(slots)
    whole, split = {}, {}  # (tau bit, runs of columns k): all, or by d(t^k g)
    for l in live:
        # every finite run ends below rep, so only the infinite one is cut
        whole[l] = ((0, [(start, rep - start if length is INFINITE else length)
                         for start, length in rows[l].summands]),)
        if l in slot_set:
            cols, hit = masks[l] & rep_mask, down[l - r + 1]  # d(t^k g) lives
            split[l] = ((0, runs(cols & ~hit)), (1, runs(cols & hit)))

    checks = []
    for i, (lu, gu) in enumerate(gens):
        for lv, gv in gens[i:]:
            lw = lu + lv
            alive = down.get(lw - r + 1)  # bit s: t^s of the target lives
            if not alive:
                continue
            ws = (((0, alive & ~masks[lw]), (1, alive & masks[lw]))
                  if lw in slot_set and mult(gu, gv) else ((0, alive),))
            us = (split[lu] if lu in slot_set
                  and mult(names[lu - r + 1], gv) else whole[lu])
            vs = (split[lv] if lv in slot_set
                  and mult(gu, names[lv - r + 1]) else whole[lv])
            reach = (0xA5 if lu == 0 else 0xFF) & (0x99 if lu == lv else 0xFF)
            table = 0
            for (tw, sums), (tu, left), (tv, right) in itertools.product(
                    ws, us, vs):
                breaks = _BREAKS[4 * tw + 2 * tu + tv]
                if breaks & reach & ~table and _sum_hit(left, right, sums):
                    table |= breaks
            if table:
                checks.append((lw, lu, lv, table, "Leibniz violation at round "
                               f"{r} on the product {gu}*{gv}"))

    # d o d = 0 along row chains l -> l-r+1 -> l-2r+2, whose last row lives
    # whenever the middle one is a slot: c_l c_mid = 0, which only bit 7
    # breaks. A pattern that breaks a pair and a chain is refused for the pair.
    for l in slots:
        mid, last = l - r + 1, l - 2 * r + 2
        if mid in slot_set and masks[l] & down[mid] & (masks[last] >> (2 * e)):
            checks.append((l, mid, mid, 1 << 7, "d o d nonzero at round "
                           f"{r} along rows {l} -> {mid} -> {last}"))
    return _Scan(slots, tuple(checks))


def _sum_hit(left: List[Tuple[int, int]], right: List[Tuple[int, int]],
             sums: int) -> bool:
    """True when some k in the runs left and j in the runs right have k + j in sums.

    The sumset of the runs (a, m) and (c, n), as (start, length), is the
    single run (a + c, m + n - 1): one big-int operation per pair.
    """
    for a, m in left:
        for c, n in right:
            if (sums >> (a + c)) & ((1 << (m + n - 1)) - 1):
                return True
    return False


def check_pattern(page: Page, pattern: DifferentialPattern) -> Optional[str]:
    """First violated constraint of the assignment, or None when consistent."""
    r = pattern.round
    if page.round != r:
        raise PreconditionError("pattern round does not match page round")
    scan = page._scan
    sources = set(pattern.sources)
    stray = sources.difference(scan.slots)
    if stray:
        raise PreconditionError(
            f"rows {sorted(stray)} are not differential slots of round {r}")
    for la, lb, lc, table, reason in scan.checks:
        if table >> (4 * (la in sources) + 2 * (lb in sources)
                     + (lc in sources)) & 1:
            return reason
    return None


def branches(page: Page) -> Iterator[Tuple[DifferentialPattern, Optional[str],
                                           Optional[Page]]]:
    """One step: each pattern of the page's round, in binary order over its
    slots, with its first violated constraint (None when consistent) and
    the homology of the page under it (None when inconsistent). The zero
    pattern costs no check and no turn: its page holds the same rows."""
    slots = differential_slots(page)
    # The zero pattern reads bit 0 of every check's table, and no table sets
    # it: no _BREAKS entry holds c = 0, and the d o d table is 1 << 7.
    yield DifferentialPattern(page.round, ()), None, _child(page, page.rows)
    for coeffs in itertools.islice(
            itertools.product((0, 1), repeat=len(slots)), 1, None):
        pattern = DifferentialPattern(page.round,
                                      tuple(itertools.compress(slots, coeffs)))
        reason = check_pattern(page, pattern)
        yield pattern, reason, _turn(page, pattern) if reason is None else None


def _turn(page: Page, pattern: DifferentialPattern) -> Page:
    """Homology of the page under a pattern that passed check_pattern: each
    row the pattern sources or targets is a difference of the old page's
    rows, and every other row is kept as it is, in its place."""
    r, rows = pattern.round, page.rows
    e = r // page.step
    new_rows = dict(rows)
    for l in pattern.sources:
        mid = l - r + 1  # t^k g hits t^(k+e) of row mid while both live
        new_rows[l] = new_rows[l].minus(rows[mid], e)
        new_rows[mid] = new_rows[mid].minus(rows[l], -e)
    return _child(page, {l: row for l, row in new_rows.items()
                         if row.summands})


def _child(page: Page, rows: Dict[int, IntervalModule]) -> Page:
    """The next round's page with these rows, in which the unit must live."""
    if 0 not in rows or not rows[0].has_column(0):
        raise InvariantError(
            f"the unit class did not survive round {page.round}")
    return Page(page.fiber, page.group, page.rounds[1:], rows)


def is_free_admissible(page: Page) -> bool:
    """Freeness filter: finite page supported in total degree at most the
    fiber's top degree."""
    top_degree, step = page.fiber.top_degree, page.step
    for l, row in page.rows.items():
        last = row.last_column()
        if last is None or (last >= 0 and l + last * step > top_degree):
            return False
    return True


def classify(fiber: FiberRing, group: GroupChoice) -> ClassificationReport:
    """Depth-first enumeration of all differential branches.

    Outcomes are the admissible limit pages with their extracted ring data;
    every maximal branch lands exactly once in outcomes or rejected. A tree
    of more than MAX_BRANCHES branches is refused.
    """
    page0 = build_e2(fiber, group)
    outcomes: List[Outcome] = []
    rejected: List[RejectedBranch] = []

    def dfs(page: Page, history: Tuple[DifferentialPattern, ...]):
        r = page.round
        if r is None:
            if is_free_admissible(page):
                pres, flags = presentation.extract_presentation(page)
                # x^m != 0 exactly when t^m survives on the base row (the
                # edge map), so the index is the row's last live column,
                # which is its degree under Z/2, where t has degree 1.
                index = (page.rows[0].last_column()
                         if group is GroupChoice.Z2 else None)
                outcomes.append(Outcome(
                    history=history,
                    e_inf=page,
                    poincare=presentation.tot_poincare(page),
                    presentation=pres,
                    extension_flags=tuple(flags),
                    index=index,
                ))
            else:
                rejected.append(RejectedBranch(
                    history, None,
                    "survival: classes persist to infinity or above the top degree"))
            return
        for pattern, reason, next_page in branches(page):
            branch = history + (pattern,)
            if reason is not None:
                rejected.append(RejectedBranch(branch, r, reason))
            else:
                dfs(next_page, branch)
            if len(outcomes) + len(rejected) > MAX_BRANCHES:
                raise OversizedInstanceError(
                    f"more than {MAX_BRANCHES} branches; the fiber is too "
                    "large to classify")

    dfs(page0, ())
    outcomes.sort(key=lambda o: o.history_key())
    return ClassificationReport(
        fiber=fiber, group=group,
        outcomes=tuple(outcomes), rejected=tuple(rejected))

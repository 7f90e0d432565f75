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
endpoint, so finitely many columns represent every regime. A check is
three rows, the 8-bit table of the coefficient triples on them that break
it, and its reason: a Leibniz pair's rows are those of u*v, u and v, and a
d o d chain l -> mid -> last is c_l c_mid = 0. A pattern is refused for the
first check its sources break, the Leibniz pairs in order, then the
chains. A page builds each check once, in that order, when a pattern first
reads past those built (``Page._scan``). A Leibniz table entry asks whether
some pair of columns k, j with given term parities sums into a set of live
target columns; the sumset of the runs (a, m) and (c, n), as (start,
length), is the single run (a + c, m + n - 1), so each costs O(runs^2)
big-int operations: as many whatever n is, but each as wide as the masks,
which grow with the degrees. A row's own runs are its summands, and a sum
with an infinite run is read as every target column from its start up.
With e = r / step, a slot row's sides are cut from the rows by ``minus``:
the dead side, the columns k whose d(t^k g) dies, is the row less its
target row moved down by e, and the live side is the row less the dead
one. A d o d chain l -> mid -> last is nonzero when cutting the live side
of l by that of mid, moved down by e, changes it. Only a Leibniz pair's
target columns are read as masks, and a page masks its rows when its
first nonzero pattern is checked, after the zero pattern's subtree is
walked: a page without a slot never does. A pair with no slot among its
rows is skipped: its only parity triple, 0, breaks no pattern. The zero
pattern costs no check and no turn. A page turn reads no mask: a source
row l loses each column k whose column k + e lives in row l - r + 1, a
target row each column k whose column k - e lives in its source row, and
every other row is kept as it is.
"""

from __future__ import annotations

import enum
import itertools
from typing import (Callable, Dict, FrozenSet, Iterator, List, NamedTuple,
                    Optional, Tuple)

from . import presentation
from .errors import (InvariantError, OversizedInstanceError,
                     PreconditionError, UnsupportedShapeError)
from .fiber import FiberRing
from .intervals import FREE_ROW, INFINITE, IntervalModule, Run
from .record import Record, set_field

# The most branches classify walks before it refuses the fiber. The tree
# grows about x3.5-4 per fiber class, and the report keeps every branch: the
# wedge of 12 classes (one in each degree 0..11) has 164332 under Z/2.
MAX_BRANCHES = 200_000


class GroupChoice(enum.Enum):
    Z2 = "z2"
    CIRCLE = "s1"

    def __init__(self, value: str):
        self.step = 1 if value == "z2" else 2  # |t|; read per page


class Page(Record):
    """A page of the spectral sequence. Its rows are degrees of its fiber:
    row l holds the columns left of the free row on 1 (x) fiber.names[l],
    whose generator lives while column 0 does."""
    __slots__ = ("fiber", "group", "rounds", "rows", "_scan_cache")

    def __init__(self, fiber: FiberRing, group: GroupChoice,
                 rounds: Tuple[int, ...], rows: Dict[int, IntervalModule]):
        set_field(self, "fiber", fiber)
        set_field(self, "group", group)
        set_field(self, "rounds", rounds)  # remaining, current first
        set_field(self, "rows", rows)
        set_field(self, "_scan_cache", None)

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
            set_field(self, "_scan_cache", _scan_page(self))
        return self._scan_cache


class DifferentialPattern(Record):
    __slots__ = ("round", "sources")

    def __init__(self, round: int, sources: Tuple[int, ...]):
        set_field(self, "round", round)
        # ascending rows whose generator maps nonzero
        set_field(self, "sources", sources)


class Outcome(NamedTuple):
    history: Tuple[DifferentialPattern, ...]
    e_inf: Page
    # Dimension per total degree, held as one progression per row
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
    step, degrees = group.step, fiber.names
    return tuple(sorted({hi - lo + 1 for hi in degrees for lo in degrees
                         if hi > lo and (hi - lo + 1) % step == 0}))


def differential_slots(page: Page) -> Tuple[int, ...]:
    """Source rows that can carry a differential in the page's round.

    A slot needs a surviving source generator, a surviving target generator
    in row l - r + 1, and a live target class t^e (x) v at column r;
    anything else forces a zero differential and carries no choice.
    """
    return page._scan.slots


class _Scan(NamedTuple):
    """A page's data for its current round, shared by all its patterns; its
    checks are built in order, each when a pattern first reads past those
    built. A page without slots has only the zero pattern, and no check."""
    slots: Tuple[int, ...]  # source rows of the round's slots
    slot_set: FrozenSet[int]  # the same rows, for membership and subset tests
    # (la, lb, lc, table, reason): sources S break the check when bit
    # 4 [la in S] + 2 [lb in S] + [lc in S] of table is set
    checks: List[Tuple[int, int, int, int, str]]
    more: Iterator[Tuple[int, int, int, int, str]]  # appends each to checks


# _BREAKS[tau]: the 8-bit set of the c = 4 c_w + 2 c_u + c_v with tau . c odd
_BREAKS = tuple(sum(1 << c for c in range(8) if bin(tau & c).count("1") % 2)
                for tau in range(8))


def _scan_page(page: Page) -> _Scan:
    """Slots, and on a page with slots the generator of its checks, which
    reads no row until a pattern first asks for a check; a stray or empty
    row is refused before either."""
    r, step, rows = page.round, page.step, page.rows
    if r is None:
        raise PreconditionError("the page has no differential rounds left")
    names, mult = page.fiber.names, page.fiber.mult
    if not rows.keys() <= names.keys():
        raise PreconditionError(f"rows {sorted(set(rows).difference(names))} "
                                "are not degrees of the page's fiber")
    # One pass up the rows: a slot's target row, below it, is already
    # known. A page turn drops empty rows; an empty row has no column 0.
    e, fits = r // step, r % step == 0
    gens, slots = {}, []
    for l in sorted(rows):
        if rows[l].has_column(0):
            gens[l] = names[l]
            if fits and l - r + 1 in gens and rows[l - r + 1].has_column(e):
                slots.append(l)
        elif not rows[l].summands:
            empty = sorted(k for k, row in rows.items() if not row.summands)
            raise PreconditionError(f"rows {empty} are empty")
    slots, slot_set, checks = tuple(slots), frozenset(slots), []
    if not slots:
        return _Scan(slots, slot_set, checks, iter(()))
    return _Scan(slots, slot_set, checks, _checks(
        checks, r, e, rows, gens, slots, slot_set, mult))


def _checks(checks: list, r: int, e: int, rows: Dict[int, IntervalModule],
            gens: Dict[int, str], slots: Tuple[int, ...],
            slot_set: FrozenSet[int], mult: Callable) -> Iterator[tuple]:
    """Append to checks, and yield, the page's Leibniz checks, then its d o d
    checks. It holds the page's rows, not the page, whose scan holds it,
    and masks them at its first resume. Every row is constant beyond the
    largest run endpoint shifted by the differential, so masks up to there
    are exact though rows are infinite."""
    rep = max(row.max_finite_endpoint() for row in rows.values()) + 2 * e + 4
    masks = {l: row.column_mask(2 * (rep + e + 2)) for l, row in rows.items()}
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
    # nonzero; an off side reads its row's own runs and 0 for every c, so
    # only the tau that are 0 on off sides are tested, and none that adds
    # no new c a pattern can give: no pattern gives c_w != c_v when u is the
    # unit, or c_u != c_v when u = v. A pair none of whose rows is a slot
    # has only tau = 0, whose _BREAKS entry is empty, so it is skipped.
    # A slot row's sides, (tau bit, runs of columns k), by whether d(t^k g)
    # lives: it dies where column k + e of the target row is gone.
    live, split = {}, {}
    for l in slots:
        dead = rows[l].minus(rows[l - r + 1], e)
        live[l] = rows[l].minus(dead, 0)
        split[l] = ((0, dead.summands), (1, live[l].summands))
    pairs = tuple(gens.items())
    for i, (lu, gu) in enumerate(pairs):
        for lv, gv in pairs[i:]:
            lw = lu + lv
            if lu not in slot_set and lv not in slot_set and lw not in slot_set:
                continue
            alive = masks.get(lw - r + 1, 0) >> e  # bit s: its column s + e
            if not alive:
                continue
            ws = (((0, alive & ~masks[lw]), (1, alive & masks[lw]))
                  if lw in slot_set and mult(gu, gv) else ((0, alive),))
            us = (split[lu] if lu in slot_set and mult(gens[lu - r + 1], gv)
                  else ((0, rows[lu].summands),))
            vs = (split[lv] if lv in slot_set and mult(gu, gens[lv - r + 1])
                  else ((0, rows[lv].summands),))
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
                yield checks[-1]

    # d o d = 0 along row chains l -> l-r+1 -> l-2r+2, whose last row lives
    # whenever the middle one is a slot: c_l c_mid = 0, which only bit 7
    # breaks, and it breaks when some live column k of l has k + e live in
    # mid. A pattern that breaks a pair and a chain is refused for the pair.
    for l in slots:
        mid, last = l - r + 1, l - 2 * r + 2
        if mid in slot_set and (live[l].minus(live[mid], e).summands
                                != live[l].summands):
            checks.append((l, mid, mid, 1 << 7, "d o d nonzero at round "
                           f"{r} along rows {l} -> {mid} -> {last}"))
            yield checks[-1]


def _sum_hit(left: Tuple[Run, ...], right: Tuple[Run, ...], sums: int) -> bool:
    """True when some k in the runs left and j in the runs right have k + j in sums.

    The sumset of the runs (a, m) and (c, n), as (start, length), is the
    single run (a + c, m + n - 1), read in place as every bit of sums from
    a + c up when either run is infinite: one big-int operation per pair."""
    for a, m in left:
        for c, n in right:
            hit = sums >> (a + c)
            if hit and (m is INFINITE or n is INFINITE
                        or hit & ((1 << (m + n - 1)) - 1)):
                return True
    return False


def check_pattern(page: Page, pattern: DifferentialPattern) -> Optional[str]:
    """First violated constraint of the assignment, or None when consistent:
    the page's checks built so far are read first, then more are built."""
    r, sources = pattern.round, pattern.sources
    if page.round != r:
        raise PreconditionError("pattern round does not match page round")
    scan = page._scan
    if not scan.slot_set.issuperset(sources):
        raise PreconditionError(f"rows {sorted(set(sources) - scan.slot_set)} "
                                f"are not differential slots of round {r}")
    for la, lb, lc, table, reason in itertools.chain(scan.checks, scan.more):
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
    r, slots = page.round, differential_slots(page)
    # The zero pattern reads bit 0 of every check's table, and no table sets
    # it: no _BREAKS entry holds c = 0, and the d o d table is 1 << 7.
    yield DifferentialPattern(r, ()), None, _child(page, page.rows)
    for coeffs in itertools.islice(
            itertools.product((0, 1), repeat=len(slots)), 1, None):
        pattern = DifferentialPattern(r, tuple(itertools.compress(slots, coeffs)))
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
    of more than MAX_BRANCHES branches is refused. Nothing refers back to
    the walk, so a report and its pages are freed when their last reference
    goes, as are the branches of a refused walk.
    """
    outcomes: List[Outcome] = []
    rejected: List[RejectedBranch] = []
    _walk(build_e2(fiber, group), (), outcomes, rejected)
    outcomes.sort(key=lambda o: o.history_key())
    return ClassificationReport(
        fiber=fiber, group=group,
        outcomes=tuple(outcomes), rejected=tuple(rejected))


def _walk(page: Page, history: Tuple[DifferentialPattern, ...],
          outcomes: List[Outcome], rejected: List[RejectedBranch]) -> None:
    """Append every maximal branch below page, reached by history, to
    outcomes or rejected, in depth-first order."""
    if not page.rounds:
        if is_free_admissible(page):
            pres, flags, poincare = presentation.extract_presentation(page)
            # x^m != 0 exactly when t^m survives on the base row (the
            # edge map), so the index is the row's last live column,
            # which is its degree under Z/2, where t has degree 1.
            index = (page.rows[0].last_column()
                     if page.group is GroupChoice.Z2 else None)
            outcomes.append(Outcome(
                history=history,
                e_inf=page,
                poincare=poincare,
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
            rejected.append(RejectedBranch(branch, pattern.round, reason))
        else:
            _walk(next_page, branch, outcomes, rejected)
        if len(outcomes) + len(rejected) > MAX_BRANCHES:
            raise OversizedInstanceError(
                f"more than {MAX_BRANCHES} branches; the fiber is too "
                "large to classify")

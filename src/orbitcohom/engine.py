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
endpoint, so finitely many columns represent every regime. A page
reads its rows as column masks once per round (``Page._scan``). A Leibniz
test asks whether some pair of columns k, j with given term parities sums
into a set of live target columns; the sumset of the runs [a, b) and
[c, d) is the single run [a + c, b + d - 1), so each test costs O(runs^2)
big-int operations, whatever n is. A page turn clears the columns that are
hit or hit something and reads the surviving runs straight back as the
row, the run that reaches the constant regime becoming infinite.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from . import presentation
from .errors import InvariantError, PreconditionError, UnsupportedShapeError
from .fiber import FiberRing
from .intervals import FREE_ROW, IntervalModule, from_mask, runs
from .record import Record


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


class _Scan(Record):
    """Column data of a page for its current round, shared by all its patterns."""
    __slots__ = ("rep_bits", "nbits", "masks", "gens", "slots")

    def __init__(self, rep_bits: int, nbits: int, masks: Dict[int, int],
                 gens: Tuple[Tuple[int, str], ...], slots: Tuple[int, ...]):
        object.__setattr__(self, "rep_bits", rep_bits)  # representatives to scan
        object.__setattr__(self, "nbits", nbits)  # room for sums of representatives
        object.__setattr__(self, "masks", masks)  # row -> column mask
        object.__setattr__(self, "gens", gens)  # (row, generator) alive at column 0
        object.__setattr__(self, "slots", slots)  # source rows of the round's slots


def _scan_page(page: Page) -> _Scan:
    """Mask widths and row masks covering every support regime.

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
    endpoint = max((row.max_finite_endpoint() for row in rows.values()),
                   default=0)
    rep = endpoint + 2 * e + 4
    nbits = 2 * rep + 2 * e + 4
    masks = {l: row.column_mask(nbits) for l, row in rows.items()}
    gens = tuple((l, names[l]) for l in sorted(rows) if masks[l] & 1)
    live = {l for l, _ in gens}
    slots = tuple(l for l, _ in gens if r % step == 0 and l - r + 1 in live
                  and masks[l - r + 1] >> e & 1)
    return _Scan(rep_bits=rep, nbits=nbits, masks=masks, gens=gens, slots=slots)


def _sum_hit(left: List[Tuple[int, int]], right: List[Tuple[int, int]],
             sums: int) -> bool:
    """True when some k in the runs left and j in the runs right have k + j in sums.

    The sumset of the runs [a, b) and [c, d) is the single run
    [a + c, b + d - 1), so the test costs one big-int operation per pair.
    """
    for a, b in left:
        for c, d in right:
            if (sums >> (a + c)) & ((1 << (b + d - 1 - a - c)) - 1):
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
    e = r // page.step
    rows = page.rows
    masks = scan.masks
    rep_mask = (1 << scan.rep_bits) - 1
    gens = scan.gens
    names = page.fiber.names

    # Leibniz closure, columnwise: for generators u, v and all columns k, j,
    #   d((t^k u)(t^j v)) = d(t^k u)(t^j v) + (t^k u) d(t^j v)
    # with page products of dead classes equal to zero.
    for i, (lu, gu) in enumerate(gens):
        for lv, gv in gens[i:]:
            lw = lu + lv
            target = lw - r + 1
            if target < 0 or target not in rows:
                continue
            sum_alive = masks.get(target, 0) >> e  # s -> class t^(s+e) in row target
            if not sum_alive:
                continue
            phi_w = bool(page.fiber.mult(gu, gv))
            w_mask = masks.get(lw, 0) if (lw in sources and phi_w) else 0

            u_mask = 0
            if lu in sources:
                lu2 = lu - r + 1
                gu2 = names[lu2]
                if page.fiber.mult(gu2, gv):
                    u_mask = masks.get(lu2, 0) >> e
            v_mask = 0
            if lv in sources:
                lv2 = lv - r + 1
                gv2 = names[lv2]
                if page.fiber.mult(gu, gv2):
                    v_mask = masks.get(lv2, 0) >> e
            if not (w_mask or u_mask or v_mask):
                continue

            u_cols = masks[lu] & rep_mask
            v_cols = masks[lv] & rep_mask
            u1, u0 = runs(u_cols & u_mask), runs(u_cols & ~u_mask)
            v1, v0 = runs(v_cols & v_mask), runs(v_cols & ~v_mask)
            odd_sum = sum_alive & w_mask    # term count is odd here ...
            even_sum = sum_alive & ~w_mask  # ... and even here
            if (_sum_hit(u0, v0, odd_sum) or _sum_hit(u1, v1, odd_sum)
                    or _sum_hit(u0, v1, even_sum) or _sum_hit(u1, v0, even_sum)):
                return (f"Leibniz violation at round {r} on the product "
                        f"{gu}*{gv}")

    # d o d = 0 along row chains l -> l-r+1 -> l-2r+2.
    for l in sorted(sources):
        mid = l - r + 1
        if mid not in sources:
            continue
        last = mid - r + 1
        if last < 0 or last not in rows:
            continue
        chain = masks[l] & (masks[mid] >> e) & (masks[last] >> (2 * e))
        if chain:
            return (f"d o d nonzero at round {r} along rows "
                    f"{l} -> {mid} -> {last}")
    return None


def branches(page: Page) -> Iterator[Tuple[DifferentialPattern, Optional[str],
                                           Optional[Page]]]:
    """One step: each pattern of the page's round, in binary order over its
    slots, with its first violated constraint (None when consistent) and
    the homology of the page under it (None when inconsistent)."""
    slots = differential_slots(page)
    for coeffs in itertools.product((0, 1), repeat=len(slots)):
        pattern = DifferentialPattern(page.round,
                                      tuple(itertools.compress(slots, coeffs)))
        reason = check_pattern(page, pattern)
        yield pattern, reason, _turn(page, pattern) if reason is None else None


def _turn(page: Page, pattern: DifferentialPattern) -> Page:
    """Homology of the page under a pattern that passed check_pattern, rows
    back in canonical form."""
    r = pattern.round
    e = r // page.step
    sources = set(pattern.sources)
    scan = page._scan
    masks = scan.masks
    threshold = scan.nbits - 2 * e - 2  # supports are constant from this bit on

    new_rows: Dict[int, IntervalModule] = {}
    for l in sorted(page.rows):
        mask = masks[l]
        if l in sources:
            mask &= ~(masks[l - r + 1] >> e)
        if l + r - 1 in sources:
            # image of the incoming differential: source column k - r must live
            mask &= ~(masks[l + r - 1] << e)
        row = from_mask(mask, threshold)
        if row.summands:
            new_rows[l] = row
    if 0 not in new_rows or not new_rows[0].has_column(0):
        raise InvariantError(f"the unit class did not survive round {r}")
    return Page(fiber=page.fiber, group=page.group, rounds=page.rounds[1:],
                rows=new_rows)


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
    every maximal branch lands exactly once in outcomes or rejected.
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

    dfs(page0, ())
    outcomes.sort(key=lambda o: o.history_key())
    return ClassificationReport(
        fiber=fiber, group=group,
        outcomes=tuple(outcomes), rejected=tuple(rejected))

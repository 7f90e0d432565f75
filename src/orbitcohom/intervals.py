"""Page rows as sets of columns over the base ring F2[t].

A row of a page is a quotient of the free F2[t]-module on one generator g:
its classes are t^k g for the columns k it supports. An ``IntervalModule``
holds that set as its maximal runs (start, length) of columns, sorted,
disjoint and never touching; length None means the run continues forever,
and only the last run may. Infinitude stays exactly decidable, which is
what the freeness filter needs. A row knows columns only: the degree of
column k is k times the degree of t, which the page's group gives.

A page turn is a difference of rows, ``minus``: one merge over two run
lists, so it costs O(runs) whatever the columns. Where the engine's checks
meet two rows they read them as bitmasks of columns (bit k for column k),
in which a run is one block of set bits; ``runs`` lists the blocks of a
mask in summand form, (start, length).
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Optional, Tuple

from .errors import InvalidInputError
from .record import Record

INFINITE = None
_END = float("inf")  # end of an infinite run, so that ends compare as numbers

Run = Tuple[int, Optional[int]]


class IntervalModule(Record):
    __slots__ = ("summands",)

    def __init__(self, summands: Tuple[Run, ...]):
        summands = tuple(sorted(summands, key=itemgetter(0)))
        free = 0  # lowest column the next run may start at
        for start, length in summands:
            if free is INFINITE:
                raise InvalidInputError("only the last run may be infinite")
            if start < 0:
                raise InvalidInputError(f"run ({start}, {length}) starts "
                                        "at a negative column")
            if length is not INFINITE and length < 1:
                raise InvalidInputError(f"run ({start}, {length}) is empty")
            if start < free:
                raise InvalidInputError(f"run ({start}, {length}) overlaps "
                                        "or touches the run before it")
            free = INFINITE if length is INFINITE else start + length + 1
        object.__setattr__(self, "summands", summands)

    def has_column(self, k: int) -> bool:
        for start, length in self.summands:
            if k < start:
                return False
            if length is INFINITE or k < start + length:
                return True
        return False

    def last_column(self) -> Optional[int]:
        """Largest supported column: None when the last run is infinite, -1
        for the zero row."""
        if not self.summands:
            return -1
        start, length = self.summands[-1]
        return None if length is INFINITE else start + length - 1

    def max_finite_endpoint(self) -> int:
        """Largest column at which the support can still change."""
        if not self.summands:
            return 0
        start, length = self.summands[-1]
        return start if length is INFINITE else start + length

    def column_mask(self, nbits: int) -> int:
        """Bitmask with bit k set when column k is supported (k < nbits)."""
        mask = 0
        for start, length in self.summands:
            if start >= nbits:
                break
            end = nbits if length is INFINITE else min(start + length, nbits)
            mask |= ((1 << (end - start)) - 1) << start
        return mask

    def minus(self, other: "IntervalModule", offset: int) -> "IntervalModule":
        """The columns k of this row for which column k + offset is not in
        other: other's runs, moved down by offset, cut this row's runs in
        one merge over the two sorted lists."""
        cuts = ((s - offset, s - offset + (_END if n is INFINITE else n))
                for s, n in other.summands)
        out, lo, hi = [], -_END, -_END
        for start, length in self.summands:
            end = start + (_END if length is INFINITE else length)
            while start < end:
                while hi <= start:  # the cut [lo, hi) ends below: take the next
                    lo, hi = next(cuts, (_END, _END))
                if lo > start:
                    out.append((start, min(lo, end) - start))
                start = hi
        return IntervalModule(tuple((start, INFINITE if length == _END
                                     else length) for start, length in out))


# The second page's row: free of rank one, every column supported.
FREE_ROW = IntervalModule(((0, INFINITE),))


def runs(mask: int) -> List[Tuple[int, int]]:
    """Maximal runs of set bits of a nonnegative mask, as (start, length)
    pairs, the form of ``IntervalModule.summands``.

    Adding the lowest set bit carries through the lowest run and lands on
    the first clear bit above it, so each run costs a few big-int operations.
    """
    out = []
    while mask:
        low = mask & -mask
        top = mask + low
        start = low.bit_length() - 1
        out.append((start, (top & -top).bit_length() - 1 - start))
        mask &= top
    return out


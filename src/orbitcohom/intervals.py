"""Interval summand representation of graded modules over the base ring F2[t].

A summand (shift, length) contributes one F2 dimension in the degrees
shift, shift + step, ..., shift + step*(length - 1); length None means the
summand continues forever. Infinitude stays exactly decidable, which is
what the freeness filter needs.

The engine reads a module's support on the lattice of multiples of step as
a bitmask (bit i for degree i*step). A summand is one run of set bits, and
``runs`` / ``from_mask`` turn a mask back into summands, so every
conversion costs a few big-int operations per run, whatever the degrees.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from .errors import InvalidInputError
from .record import Record

INFINITE = None

Summand = Tuple[int, Optional[int]]


def _sort_key(summand: Summand):
    shift, length = summand
    return (shift, length is INFINITE, length if length is not INFINITE else 0)


class IntervalModule(Record):
    __slots__ = ("step", "summands")

    def __init__(self, step: int, summands: Tuple[Summand, ...]):
        if step < 1:
            raise InvalidInputError("step must be positive")
        for shift, length in summands:
            if shift < 0 or (length is not INFINITE and length < 1):
                raise InvalidInputError(f"bad summand ({shift}, {length})")
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "summands", tuple(sorted(summands, key=_sort_key)))

    def dimension_at(self, k: int) -> int:
        dim = 0
        for shift, length in self.summands:
            d = k - shift
            if d < 0 or d % self.step:
                continue
            if length is INFINITE or d // self.step < length:
                dim += 1
        return dim

    def alive(self, k: int) -> bool:
        return k >= 0 and self.dimension_at(k) > 0

    def is_zero(self) -> bool:
        return not self.summands

    def has_infinite(self) -> bool:
        return any(length is INFINITE for _, length in self.summands)

    def has_overlap(self) -> bool:
        """True when two summands share a degree, i.e. some dimension exceeds 1."""
        reach: Dict[int, float] = {}  # residue mod step -> end of support so far
        for shift, length in self.summands:  # canonical order: by shift
            res = shift % self.step
            if shift < reach.get(res, -1):
                return True
            end = math.inf if length is INFINITE else shift + self.step * length
            reach[res] = max(reach.get(res, -1), end)
        return False

    def max_degree(self) -> Optional[int]:
        """Largest supported degree, or None when some summand is infinite."""
        if self.has_infinite():
            return None
        if not self.summands:
            return -1
        return max(shift + self.step * (length - 1) for shift, length in self.summands)

    def max_finite_endpoint(self) -> int:
        """Largest degree at which the support pattern can still change."""
        best = 0
        for shift, length in self.summands:
            if length is INFINITE:
                best = max(best, shift)
            else:
                best = max(best, shift + self.step * length)
        return best

    def column_mask(self, nbits: int) -> int:
        """Bitmask with bit i set when degree i*step is supported (i < nbits).

        Each summand on the lattice sets one block of bits; a summand whose
        shift is not a multiple of step never meets the lattice.
        """
        mask = 0
        for shift, length in self.summands:
            start, off = divmod(shift, self.step)
            if off or start >= nbits:
                continue
            end = nbits if length is INFINITE else min(start + length, nbits)
            mask |= ((1 << (end - start)) - 1) << start
        return mask


def free_module(step: int, rank: int = 1) -> IntervalModule:
    return IntervalModule(step, ((0, INFINITE),) * rank)


def runs(mask: int) -> List[Tuple[int, int]]:
    """Maximal runs of set bits of a nonnegative mask, as [start, end) pairs.

    Adding the lowest set bit carries through the lowest run and lands on
    the first clear bit above it, so each run costs a few big-int operations.
    """
    out = []
    while mask:
        low = mask & -mask
        top = mask + low
        out.append((low.bit_length() - 1, (top & -top).bit_length() - 1))
        mask &= top
    return out


def from_mask(step: int, mask: int, threshold: int) -> IntervalModule:
    """Canonical module supported on degree i*step for each set bit i < threshold.

    When bit threshold is set, the support also covers every degree from
    threshold*step on, so the run reaching it becomes an infinite summand;
    bits above threshold are ignored.
    """
    if mask < 0 or threshold < 0:
        raise InvalidInputError("mask and threshold must be nonnegative")
    mask &= (1 << (threshold + 1)) - 1
    return IntervalModule(step, tuple(
        (start * step, INFINITE if end > threshold else end - start)
        for start, end in runs(mask)))

"""Page rows over the base ring F2[t].

Every page of the spectral sequence is a module over H*(B_G) = F2[t], and
each row the engine reaches is a quotient F2[t]/(t^L) g of the free module
on one generator g: its classes are t^k g for the columns 0 <= k < L. An
``IntervalModule`` holds that length L, a positive int, or INFINITE for the
free row F2[t] g, so infinitude stays exactly decidable, which is what the
freeness filter needs. A row knows columns only: the degree of column k is
k times the degree of t, which the page's group gives. Where the engine's
checks read a row's columns they read them as a bitmask of columns (bit k
for column k), in which the row is one block of set bits from bit 0.
"""

from __future__ import annotations

from typing import Optional

from .errors import InvalidInputError
from .record import Record, set_field

INFINITE = None


class IntervalModule(Record):
    __slots__ = ("length",)

    def __init__(self, length: Optional[int]):
        # type() and not isinstance(), which would take True for 1
        if length is not INFINITE and (type(length) is not int or length < 1):
            raise InvalidInputError("a row's length is a positive int or "
                                    f"INFINITE, not {length!r}")
        set_field(self, "length", length)

    def has_column(self, k: int) -> bool:
        return 0 <= k and (self.length is INFINITE or k < self.length)

    def last_column(self) -> Optional[int]:
        """Largest supported column: None when the row is infinite."""
        return None if self.length is INFINITE else self.length - 1

    def max_finite_endpoint(self) -> int:
        """Largest column at which the support can still change."""
        return 0 if self.length is INFINITE else self.length

    def column_mask(self, nbits: int) -> int:
        """Bitmask with bit k set when column k is supported (k < nbits)."""
        return (1 << (nbits if self.length is INFINITE
                      else min(self.length, nbits))) - 1


# The second page's row: free of rank one, every column supported.
FREE_ROW = IntervalModule(INFINITE)

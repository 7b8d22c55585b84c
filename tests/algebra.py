"""Orders on closed subintervals of [0,1]: the componentwise partial order
and three admissible total orders that refine it.

No command compares intervals by an order, so the orders live beside the
tests that check them, and the package has none.
"""

from __future__ import annotations

import enum

from ivhom.interval import Interval


class Ordering(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


#: Recognized comparator kinds. "componentwise" is a partial order; the
#: other three are total orders refining it (admissible orders).
ORDER_KINDS = ("componentwise", "lex-lo", "lex-hi", "midpoint-width")


def compare(order: str, x: Interval, y: Interval) -> Ordering:
    if order == "componentwise":
        if x.lo == y.lo and x.hi == y.hi:
            return Ordering.EQUAL
        if x.lo <= y.lo and x.hi <= y.hi:
            return Ordering.LESS
        if x.lo >= y.lo and x.hi >= y.hi:
            return Ordering.GREATER
        return Ordering.INCOMPARABLE
    if order == "lex-lo":
        kx, ky = (x.lo, x.hi), (y.lo, y.hi)
    elif order == "lex-hi":
        kx, ky = (x.hi, x.lo), (y.hi, y.lo)
    elif order == "midpoint-width":
        kx, ky = (x.lo + x.hi, x.hi - x.lo), (y.lo + y.hi, y.hi - y.lo)
    else:
        raise ValueError(f"unknown order {order!r}; choose from {ORDER_KINDS}")
    if kx == ky:
        return Ordering.EQUAL
    return Ordering.LESS if kx < ky else Ordering.GREATER

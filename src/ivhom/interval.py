"""Closed subintervals of [0,1]: construction, arithmetic, negation, orders.

Endpoints may be ints, floats, or `fractions.Fraction`; all operations are
pure and preserve the numeric type of their inputs (exact stays exact).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction]


class IntervalError(ValueError):
    """Endpoints do not describe a valid closed subinterval of [0,1]."""


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] with 0 <= lo <= hi <= 1."""

    lo: Number
    hi: Number

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= 1:
            raise IntervalError(f"lo={self.lo!r} outside [0,1]")
        if not 0 <= self.hi <= 1:
            raise IntervalError(f"hi={self.hi!r} outside [0,1]")
        if self.lo > self.hi:
            raise IntervalError(
                f"inverted endpoints: lo={self.lo!r} > hi={self.hi!r}"
            )

    def __repr__(self) -> str:
        return f"[{self.lo},{self.hi}]"


def product(x: Interval, y: Interval) -> Interval:
    """Endpoint-wise product; monotone because all endpoints lie in [0,1]."""
    return Interval(x.lo * y.lo, x.hi * y.hi)


def complement(x: Interval) -> Interval:
    """The reflection 1 - X, i.e. [1-hi, 1-lo]."""
    return Interval(1 - x.hi, 1 - x.lo)


def prob_sum(x: Interval, y: Interval) -> Interval:
    """Probabilistic sum per endpoint: a + b - a*b.

    Computed as a + (1-a)*b, which cannot leave [0,1] even in float
    arithmetic; in exact mode the two forms are identical.
    """
    return Interval(
        x.lo + (1 - x.lo) * y.lo,
        x.hi + (1 - x.hi) * y.hi,
    )


def meet(x: Interval, y: Interval) -> Interval:
    """Lattice minimum under the componentwise order."""
    return Interval(min(x.lo, y.lo), min(x.hi, y.hi))


def join(x: Interval, y: Interval) -> Interval:
    """Lattice maximum under the componentwise order."""
    return Interval(max(x.lo, y.lo), max(x.hi, y.hi))


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


@dataclass(frozen=True)
class NumericMode:
    """Numeric regime for evaluation and equality.

    exact: endpoints are rationals, equality is literal.
    float: endpoints are floats, intervals are equal when both endpoint
    differences are within eps.
    """

    kind: str
    eps: float = 1e-9

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "float"):
            raise ValueError(f"unknown numeric mode {self.kind!r}")
        if not 0 <= self.eps < float("inf"):
            raise ValueError(f"eps must be finite and nonnegative, got {self.eps!r}")

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def convert(self, v: Number) -> Number:
        return Fraction(v) if self.is_exact else float(v)

    def zero(self) -> Number:
        return Fraction(0) if self.is_exact else 0.0

    def values_equal(self, a: Number, b: Number) -> bool:
        if self.is_exact:
            return a == b
        return abs(a - b) <= self.eps

    def intervals_equal(self, x: Interval, y: Interval) -> bool:
        return self.values_equal(x.lo, y.lo) and self.values_equal(x.hi, y.hi)

    def deviation(self, x: Interval, y: Interval) -> Number:
        return max(abs(x.lo - y.lo), abs(x.hi - y.hi))


EXACT = NumericMode("exact")
FLOAT = NumericMode("float")

_INTERVAL_RE = re.compile(r"\s*\[\s*([^,\[\]\s]+)\s*,\s*([^,\[\]\s]+)\s*\]\s*\Z")


def parse_number(text: str, mode: NumericMode = EXACT) -> Number:
    """Parse a decimal ("0.25") or rational ("1/3") endpoint."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise IntervalError(f"cannot parse number {text!r}: {exc}") from exc
    return mode.convert(value)


def parse_interval(text: str, mode: NumericMode = EXACT) -> Interval:
    """Parse the textual form "[lo,hi]" with decimal or rational endpoints."""
    m = _INTERVAL_RE.match(text)
    if m is None:
        raise IntervalError(f"cannot parse interval {text!r}; expected [lo,hi]")
    return Interval(parse_number(m.group(1), mode), parse_number(m.group(2), mode))


def format_number(v: Number, mode: NumericMode) -> str:
    if mode.is_exact:
        f = Fraction(v)
        return f"{f.numerator}/{f.denominator}"
    return repr(float(v))


def format_interval(x: Interval, mode: NumericMode) -> str:
    return f"[{format_number(x.lo, mode)},{format_number(x.hi, mode)}]"

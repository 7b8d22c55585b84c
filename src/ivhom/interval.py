"""Closed subintervals of [0,1]: construction, arithmetic, negation, the
numeric modes, and the text form of numbers and intervals.

Endpoints may be ints, floats, or `fractions.Fraction`; all operations are
pure and preserve the numeric type of their inputs (exact stays exact).
Every exact number of the package is made by `fraction`, which imports
`fractions` (and with it `decimal` and `numbers`) on its first call. A
float literal is read without it, so a float run that reads no DSL
constant never loads them. The pattern of an interval literal is compiled
on first use. No command compares intervals by an order, so the package
defines none.
"""

from __future__ import annotations

import re
from typing import Union

from .gate import as_double, check_epsilon

Number = Union[int, float, "Fraction"]

_Fraction = None


def fraction(numerator, denominator=None):
    """`Fraction(numerator, denominator)`: the one constructor of exact
    numbers, which imports `fractions` when it is first called."""
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction
    return _Fraction(numerator, denominator)


class IntervalError(ValueError):
    """Endpoints do not describe a valid closed subinterval of [0,1]."""


_set = object.__setattr__


class _Value:
    """An immutable value: it compares and hashes by class and fields, the
    `__slots__` of its own class, and refuses attribute assignment. Unlike
    `dataclasses`, it generates no methods with `exec` at import."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((self.__class__, self._values()))

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set "
                             f"or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._values()!r}"


class Interval(_Value):
    """A closed interval [lo, hi] with 0 <= lo <= hi <= 1."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Number, hi: Number) -> None:
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        self.__post_init__()  # hooked by perfbench to count constructions

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= 1:
            raise IntervalError(f"lo={self.lo} outside [0,1]")
        if not 0 <= self.hi <= 1:
            raise IntervalError(f"hi={self.hi} outside [0,1]")
        if self.lo > self.hi:
            raise IntervalError(
                f"inverted endpoints: lo={self.lo} > hi={self.hi}"
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

    Computed as 1 - (1-a)*(1-b): each step rounds monotonically, so in
    float arithmetic too the result stays in [0,1] and rises with a and b.
    """
    return Interval(
        1 - (1 - x.lo) * (1 - y.lo),
        1 - (1 - x.hi) * (1 - y.hi),
    )


def meet(x: Interval, y: Interval) -> Interval:
    """Lattice minimum under the componentwise order."""
    return Interval(min(x.lo, y.lo), min(x.hi, y.hi))


def join(x: Interval, y: Interval) -> Interval:
    """Lattice maximum under the componentwise order."""
    return Interval(max(x.lo, y.lo), max(x.hi, y.hi))


class NumericMode(_Value):
    """Numeric regime for evaluation and equality.

    exact: endpoints are rationals, equality is literal.
    float: endpoints are floats, intervals are equal when both endpoint
    differences are within eps.
    """

    __slots__ = ("kind", "eps")

    def __init__(self, kind: str, eps: float = 1e-9) -> None:
        if kind not in ("exact", "float"):
            raise ValueError(f"unknown numeric mode {kind!r}")
        check_epsilon(eps)
        super().__init__(kind, eps)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def convert(self, v: Number) -> Number:
        return fraction(v) if self.is_exact else as_double(v)

    def zero(self) -> Number:
        return fraction(0) if self.is_exact else 0.0

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

#: the text of an interval literal and of a number's exponent; `re`
#: compiles each on its first use and caches it
_INTERVAL = r"\s*\[\s*([^,\[\]\s]+)\s*,\s*([^,\[\]\s]+)\s*\]\s*\Z"
_EXPONENT = r"[eE][-+]?([\d_]+)\Z"
#: Python's default limit on the digits of an int read from or written as
#: a decimal string
MAX_DIGITS = 4300


def parse_number(text: str, mode: NumericMode = EXACT) -> Number:
    """Parse a decimal ("0.25") or rational ("1/3") endpoint: an optional
    sign, then digits, with no "_" and no space inside.

    `Fraction` multiplies out 10 to the power of the exponent, so
    `1e999999999` would run for minutes. A literal whose digits and
    exponent together pass `MAX_DIGITS` is refused before it is built. In
    float mode no `Fraction` is built: `float()` reads a decimal and
    `int(p) / int(q)` a ratio, each correctly rounded, so the double is
    bit for bit `float(Fraction(text))`, and each refuses what `Fraction`
    refuses ("nan" and "inf" are not numbers here)."""
    text = text.strip()
    e = re.search(_EXPONENT, text)
    mantissa = text[:e.start()] if e else text
    exponent = e.group(1).replace("_", "").lstrip("0") if e else ""
    if (len(exponent) > len(str(MAX_DIGITS)) or sum(
            c.isdigit() for c in mantissa) + int(exponent or 0) > MAX_DIGITS):
        shown = text if len(text) <= 40 else text[:37] + "..."
        raise IntervalError(f"cannot parse number {shown!r}: its digits and "
                            f"exponent exceed the limit of {MAX_DIGITS}")
    num, slash, den = text.partition("/")
    try:
        # Python versions differ on whether Fraction reads "_" and spaces
        # around "/": a literal may have neither, so it means the same on all
        if "_" in text or text.split() != [text] or not mode.is_exact and (
                "n" in text.lower() or slash and not den[:1].isdecimal()):
            raise ValueError("expected a decimal or a ratio p/q")
        if mode.is_exact:
            return fraction(text)
        value = int(num) / int(den) if slash else float(text)
    except OverflowError:  # past the largest double, as float("1e400") is
        value = float("-inf" if num[:1] == "-" else "inf")
    except (ValueError, ZeroDivisionError) as exc:
        raise IntervalError(f"cannot parse number {text!r}: {exc}") from exc
    # Fraction has no -0, so -0 reads 0.0; a negative number that rounds to
    # 0 reads -0.0, as float(Fraction(text)) gives
    return value if value or any(c.isdigit() and int(c) for c in mantissa) else 0.0


def parse_interval(text: str, mode: NumericMode = EXACT) -> Interval:
    """Parse the textual form "[lo,hi]" with decimal or rational endpoints."""
    m = re.match(_INTERVAL, text)
    if m is None:
        raise IntervalError(f"cannot parse interval {text!r}; expected [lo,hi]")
    return Interval(parse_number(m.group(1), mode), parse_number(m.group(2), mode))


def too_long(what: str) -> str:
    """The message for an int, `what`, that Python will not write as text."""
    return (f"{what} has more than {MAX_DIGITS} digits, Python's limit for "
            "writing an integer as text; use --mode float")


def format_number(v: Number, mode: NumericMode, role: str = "number") -> str:
    """`v` as text, "p/q" in exact mode; `role` names it in the error for a
    numerator or denominator past `MAX_DIGITS` digits."""
    if not mode.is_exact:
        return repr(float(v))
    f = fraction(v)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError:
        raise IntervalError(too_long(f"the numerator or denominator of the "
                                     f"{role}")) from None


def format_interval(x: Interval, mode: NumericMode,
                    role: str = "interval") -> str:
    return (f"[{format_number(x.lo, mode, f'lower endpoint of the {role}')},"
            f"{format_number(x.hi, mode, f'upper endpoint of the {role}')}]")

"""Closed subintervals of [0,1]: construction, arithmetic, negation, the
numeric modes, and the text form of numbers and intervals.

Endpoints may be ints, floats, or `fractions.Fraction`; all operations are
pure and preserve the numeric type of their inputs (exact stays exact).
Every exact number of the package is made by `fraction`, which gives an
int for a whole number and a `Fraction` otherwise. Ints have `numerator`
and `denominator` too, and compare and hash equal to the equal
`Fraction`, so the two forms mean the same to every caller. A whole
number from ints or from a literal of ASCII digits is made without
`fractions`, which `fraction` imports (and with it `decimal` and
`numbers`) only for a number that needs it. So an exact run that reads
and prints only whole numbers, such as a passing check, whose deviation
is 0, never loads them, and neither does a float run that reads no DSL
constant. `parse_interval` reads a literal with the literal reader,
`ivhom.literal`, which it imports on its first call, so only a run that
reads a literal (`eval`, and `theorem1`'s `--a`) compiles it. No command
compares intervals by an order, so the package defines none.
"""

from __future__ import annotations

from .gate import DEFAULT_EPSILON, check_epsilon

#: `typing.TYPE_CHECKING` without importing `typing`: the annotations are
#: never evaluated, so `Number` and `Fraction` exist for type checkers alone
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

    Number = int | float | Fraction

_Fraction = None


def fraction(numerator, denominator=None):
    """The value of `Fraction(numerator, denominator)`, the one constructor
    of exact numbers: an int when it is whole, else a `Fraction`. An int
    over an int that divides it, or a literal of ASCII digits alone, is
    read without `fractions`, which is imported on the first call that
    needs it."""
    if denominator is None and numerator.__class__ is str and (
            numerator.isascii() and numerator.isdecimal()):
        return int(numerator)
    if numerator.__class__ is int and (denominator is None or (
            denominator.__class__ is int and denominator
            and not numerator % denominator)):
        return numerator // (denominator or 1)
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction
    value = _Fraction(numerator, denominator)
    return value.numerator if value.denominator == 1 else value


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

    `tol` is the one equality tolerance: two numbers are equal when they
    differ by at most it, 0 in exact mode and eps in float mode.
    """

    __slots__ = ("kind", "eps")

    def __init__(self, kind: str, eps: float = DEFAULT_EPSILON) -> None:
        if kind not in ("exact", "float"):
            raise ValueError(f"unknown numeric mode {kind!r}")
        check_epsilon(eps)
        super().__init__(kind, eps)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def zero(self) -> Number:
        return fraction(0) if self.is_exact else 0.0

    @property
    def tol(self) -> Number:
        return 0 if self.is_exact else self.eps

    def intervals_equal(self, x: Interval, y: Interval) -> bool:
        return self.deviation(x, y) <= self.tol

    def deviation(self, x: Interval, y: Interval) -> Number:
        return max(abs(x.lo - y.lo), abs(x.hi - y.hi))


EXACT = NumericMode("exact")

#: Python's default limit on the digits of an int read from or written as
#: a decimal string
MAX_DIGITS = 4300


def parse_interval(text: str, mode: NumericMode = EXACT) -> Interval:
    """Parse the textual form "[lo,hi]" with decimal or rational endpoints,
    by the literal reader, `ivhom.literal`, which loads on the first call."""
    from .literal import _split_interval, parse_number

    ends = _split_interval(text)
    if ends is None:
        raise IntervalError(f"cannot parse interval {text!r}; expected [lo,hi]")
    return Interval(parse_number(ends[0], mode), parse_number(ends[1], mode))


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

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from algebra import Ordering, compare
from grids import FLOAT
from ivhom.expr import Const
from ivhom.gate import as_double
from ivhom.interval import (
    EXACT,
    Interval,
    IntervalError,
    NumericMode,
    _split_exponent,
    _split_interval,
    complement,
    format_interval,
    fraction,
    join,
    meet,
    parse_interval,
    parse_number,
    prob_sum,
    product,
)


def grid_points(m):
    vals = [Fraction(i, m) for i in range(m + 1)]
    return [Interval(a, b) for a in vals for b in vals if a <= b]


def test_make_basic():
    x = Interval(Fraction(1, 5), Fraction(1, 2))
    assert x.lo == Fraction(1, 5) and x.hi == Fraction(1, 2)
    assert Interval(1, 1) == Interval(Fraction(1), Fraction(1))


def test_make_rejects_inverted():
    with pytest.raises(IntervalError, match="inverted"):
        Interval(0.6, 0.4)


@pytest.mark.parametrize("lo,hi,field", [(-0.1, 0.5, "lo"), (0.5, 1.2, "hi")])
def test_make_rejects_out_of_range(lo, hi, field):
    with pytest.raises(IntervalError, match=field):
        Interval(lo, hi)


def test_product_examples():
    x = Interval(Fraction(1, 5), Fraction(1, 2))
    y = Interval(Fraction(2, 5), Fraction(3, 5))
    assert product(x, y) == Interval(Fraction(2, 25), Fraction(3, 10))
    for p in grid_points(4):
        assert product(Interval(1, 1), p) == p
        assert product(Interval(0, 0), p) == Interval(0, 0)


def test_product_commutative_associative_closed():
    pts = grid_points(3)
    for x, y in itertools.product(pts, repeat=2):
        assert product(x, y) == product(y, x)
    for x, y, z in itertools.product(pts[:5], pts[:5], pts[:5]):
        assert product(product(x, y), z) == product(x, product(y, z))


def test_complement_examples():
    assert complement(Interval(Fraction(1, 5), Fraction(1, 2))) == Interval(
        Fraction(1, 2), Fraction(4, 5)
    )
    assert complement(Interval(0, 0)) == Interval(1, 1)
    assert complement(Interval(Fraction(3, 10), Fraction(3, 10))) == Interval(
        Fraction(7, 10), Fraction(7, 10)
    )


def test_complement_involution_and_order_reversing():
    pts = grid_points(8)
    for x in pts:
        assert complement(complement(x)) == x
    for x, y in itertools.product(pts, repeat=2):
        if compare("componentwise", x, y) is Ordering.LESS:
            assert compare("componentwise", complement(y), complement(x)) is Ordering.LESS


def test_prob_sum_examples():
    # expected values computed from the endpoint formula in exact rationals:
    # 1/5 + 2/5 - 2/25 = 13/25, 1/2 + 3/5 - 3/10 = 4/5
    x = Interval(Fraction(1, 5), Fraction(1, 2))
    y = Interval(Fraction(2, 5), Fraction(3, 5))
    assert prob_sum(x, y) == Interval(Fraction(13, 25), Fraction(4, 5))
    for p in grid_points(4):
        assert prob_sum(Interval(0, 0), p) == p


def test_de_morgan_exhaustive():
    pts = grid_points(8)
    for x, y in itertools.product(pts, repeat=2):
        assert prob_sum(x, y) == complement(product(complement(x), complement(y)))


def test_meet_join_examples():
    x = Interval(Fraction(1, 5), Fraction(1, 2))
    y = Interval(Fraction(2, 5), Fraction(3, 5))
    assert meet(x, y) == x
    # componentwise max of an incomparable pair
    z = Interval(Fraction(2, 5), Fraction(9, 20))
    assert join(x, z) == Interval(Fraction(2, 5), Fraction(1, 2))
    for p in grid_points(4):
        assert meet(p, p) == p


def test_lattice_absorption():
    pts = grid_points(6)
    for x, y in itertools.product(pts, repeat=2):
        assert join(x, meet(x, y)) == x
        assert meet(x, join(x, y)) == x


def test_compare_examples():
    a = Interval(Fraction(1, 5), Fraction(1, 2))
    b = Interval(Fraction(2, 5), Fraction(9, 20))
    assert compare("componentwise", a, b) is Ordering.INCOMPARABLE
    assert (
        compare("lex-lo", Interval(Fraction(1, 5), Fraction(1, 2)),
                Interval(Fraction(1, 5), Fraction(7, 10)))
        is Ordering.LESS
    )
    # equal midpoints 2/5, widths 1/5 < 2/5
    assert (
        compare("midpoint-width", Interval(Fraction(3, 10), Fraction(1, 2)),
                Interval(Fraction(1, 5), Fraction(3, 5)))
        is Ordering.LESS
    )


@pytest.mark.parametrize("order", ["lex-lo", "lex-hi", "midpoint-width"])
def test_total_orders_refine_componentwise(order):
    pts = grid_points(6)
    for x, y in itertools.product(pts, repeat=2):
        cw = compare("componentwise", x, y)
        total = compare(order, x, y)
        assert total is not Ordering.INCOMPARABLE
        if cw is Ordering.LESS:
            assert total is Ordering.LESS
        elif cw is Ordering.EQUAL:
            assert total is Ordering.EQUAL


def test_compare_unknown_order():
    with pytest.raises(ValueError, match="unknown order"):
        compare("width-first", Interval(0, 1), Interval(0, 1))


def test_parse_interval_decimal_and_rational():
    assert parse_interval("[0.2,0.5]") == Interval(Fraction(1, 5), Fraction(1, 2))
    assert parse_interval("[1/3, 1/2]") == Interval(Fraction(1, 3), Fraction(1, 2))
    got = parse_interval("[1/3,1/2]", FLOAT)
    assert got.lo == pytest.approx(1 / 3) and isinstance(got.lo, float)


def test_parse_interval_rejects_garbage():
    for bad in ("0.2,0.5", "[0.2;0.5]", "[0.2,0.5", "[a,b]"):
        with pytest.raises(IntervalError):
            parse_interval(bad)


#: the patterns that read an interval literal (with `re.match`) and a
#: number's exponent (with `re.search`) before `interval` read them with
#: `str` methods: the oracle of `_split_interval` and `_split_exponent`
_INTERVAL = r"\s*\[\s*([^,\[\]\s]+)\s*,\s*([^,\[\]\s]+)\s*\]\s*\Z"
_EXPONENT = r"[eE][-+]?([\d_]+)\Z"

#: pieces of literals: brackets, commas, ASCII and Unicode whitespace
#: (`\s` and `str.isspace` alike), ASCII and other decimal digits (one
#: astral), a superscript that is a digit but not a decimal, "_", signs and
#: exponent letters
LITERAL_PIECES = ["[", "]", ",", " ", "\t", "\n", "\x0b", "\x1c", "\x85",
                  "\xa0", "\u2003", "\u2028", "\u3000", "0", "1", "9",
                  "\u0663", "\uff11", "\U0001d7ce", "\u00b2", "_", "+", "-",
                  "e", "E", ".", "/", "x"]


@settings(max_examples=3000, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(LITERAL_PIECES), st.characters()),
                max_size=14).map("".join))
@example("[0,1]")
@example(" [ 1/3 ,\t2/3 ]\n")
@example("[0,1]]")
@example("[[0,1]")
@example("[0,,1]")
@example("[ ,1]")
@example("[]")
@example("1e5e6")
@example("1e+-5")
@example("1e___")
@example("1E-0_1")
@example("e5")
@example("1e\u0663")
@example("1e\u00b2")
def test_literal_readers_match_the_patterns(text):
    """`_split_interval` accepts, refuses and splits exactly what
    `re.match(_INTERVAL)` did, and `_split_exponent` finds the exponent that
    `re.search(_EXPONENT)` found, at the same place."""
    m = re.match(_INTERVAL, text)
    assert _split_interval(text) == (m and [m.group(1), m.group(2)])
    e = re.search(_EXPONENT, text)
    assert _split_exponent(text) == ((text[:e.start()], e.group(1)) if e
                                     else (text, None))


@given(st.integers(-10**30, 10**30), st.integers(-60, 60).filter(bool))
@example(0, 1)
@example(12, -4)
@example(-12, 4)
def test_fraction_is_an_int_exactly_when_whole(n, d):
    """`fraction(n, d)` is an int exactly when d divides n, and equals and
    hashes as `Fraction(n, d)`."""
    x = fraction(n, d)
    assert x == Fraction(n, d) and hash(x) == hash(Fraction(n, d))
    assert type(x) is (int if n % d == 0 else Fraction)


@given(st.integers(1, 24).flatmap(
    lambda d: st.tuples(st.integers(0, d), st.integers(0, d), st.just(d))))
def test_interval_and_const_equal_for_either_form(case):
    """An `Interval` or a `Const` built from `fraction`s, ints where whole,
    compares and hashes equal to one built from `Fraction`s."""
    i, j, d = case
    lo, hi = min(i, j), max(i, j)
    for kind in (Interval, Const):
        x, y = kind(fraction(lo, d), fraction(hi, d)), kind(Fraction(lo, d),
                                                            Fraction(hi, d))
        assert x == y and hash(x) == hash(y)


#: pieces of number literals: signs, ASCII and Arabic-Indic digits, points,
#: exponents, "/", "_", spaces, long runs of digits, and words that float()
#: reads and Fraction does not
NUMBER_PIECES = ["-", "+", "0", "1", "7", "12", "\u0663", "\u0660", ".", "5",
                 "e", "E", "400", "/", "_", " ", "\t", "0" * 30, "9" * 20,
                 "nan", "inf", "Infinity", "iNF", "x"]


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(NUMBER_PIECES), max_size=7).map("".join))
@example("1/0")
@example("1/-3")
@example("1/+3")
@example("-0")
@example("-0e5")
@example("-0/3")
@example("-1e-400")
@example("-" + "0." + "0" * 400 + "1")
@example("1" * 400 + "/1")
@example("-" + "1" * 400 + "/1")
@example("1e400")
@example("-1e400")
@example("1_0")
@example("1 /2")
@example("1/ 2")
@example(" 1/2\t")
@example("\u0663/\u0667")
@example("5e-324")
@example("2.4703282292062328e-324")
@example("9007199254740993")
@example("1/3")
def test_float_literal_reads_as_its_fraction(text):
    """A float literal is read without `Fraction`, bit for bit the double
    of the exact value (-0.0 and inf too), and the float reading refuses
    exactly what the exact one refuses: `_`, a space inside, "nan" and
    "inf" on every Python. An exact literal equals `Fraction(text)`, and
    is an int when whole and a `Fraction` otherwise."""
    try:
        exact = parse_number(text, EXACT)
    except IntervalError:
        exact = None
    try:
        value = parse_number(text, FLOAT)
    except IntervalError:
        value = None
    assert (exact is None) == (value is None)
    if exact is not None:
        assert exact == Fraction(text)
        assert type(exact) is (int if exact.denominator == 1 else Fraction)
        assert value.hex() == as_double(exact).hex()


@pytest.mark.parametrize("text", ["1_0", "1/1_0", "1 / 2", "1e1_0"])
def test_number_with_an_underscore_or_a_space_refused(text):
    """Python versions differ on whether Fraction reads "_" and spaces
    around "/"; a literal means the same on every Python, so both are
    refused."""
    for mode in (EXACT, FLOAT):
        with pytest.raises(IntervalError, match="expected a decimal or a ratio"):
            parse_number(text, mode)


@given(
    st.fractions(min_value=0, max_value=1, max_denominator=64),
    st.fractions(min_value=0, max_value=1, max_denominator=64),
)
def test_parse_format_round_trip(a, b):
    x = Interval(min(a, b), max(a, b))
    assert parse_interval(format_interval(x, EXACT)) == x


def test_float_mode_equality():
    mode = NumericMode("float", 1e-9)
    assert mode.intervals_equal(Interval(0.25, 0.5), Interval(0.25 + 1e-12, 0.5))
    assert not mode.intervals_equal(Interval(0.25, 0.5), Interval(0.26, 0.5))
    assert EXACT.intervals_equal(Interval(Fraction(1, 4), 1), Interval(Fraction(1, 4), 1))


def test_mode_validation():
    with pytest.raises(ValueError, match="unknown numeric mode 'interval'"):
        NumericMode("interval")
    with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
        NumericMode("float", -1.0)
    with pytest.raises(ValueError, match="eps must be finite"):
        NumericMode(kind="float", eps=float("inf"))


# --- the interval algebra in exact mode, on random rational intervals ---

_endpoints = st.fractions(min_value=0, max_value=1, max_denominator=64)
_intervals = st.builds(lambda a, b: Interval(min(a, b), max(a, b)),
                       _endpoints, _endpoints)


@pytest.mark.parametrize("op", [meet, join, product, prob_sum],
                         ids=lambda op: op.__name__)
@given(_intervals, _intervals, _intervals)
def test_binary_ops_commutative_and_associative(op, x, y, z):
    assert op(x, y) == op(y, x)
    assert op(op(x, y), z) == op(x, op(y, z))


@given(_intervals)
def test_complement_is_an_involution(x):
    assert complement(complement(x)) == x


@given(_intervals, _intervals)
def test_prob_sum_is_ns_dual_of_product(x, y):
    assert complement(prob_sum(x, y)) == product(complement(x), complement(y))

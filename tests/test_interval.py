import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ivhom.interval import (
    EXACT,
    FLOAT,
    Interval,
    IntervalError,
    NumericMode,
    Ordering,
    compare,
    complement,
    format_interval,
    join,
    meet,
    parse_interval,
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
    with pytest.raises(ValueError):
        NumericMode("interval")
    with pytest.raises(ValueError):
        NumericMode("float", -1.0)

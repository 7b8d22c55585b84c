import itertools
import math
from fractions import Fraction

import pytest

from ivhom.interval import EXACT, Interval, complement, prob_sum
from ivhom.functions import (
    FUNCTION_NAMES,
    IDENTITY,
    SQUARE,
    P,
    P_NS,
    PI2,
    dual_ns,
    dual_scaling_ns,
    get_function,
    get_iso,
    get_scaling,
    registry_get,
)
from ivhom.homogeneity import make_grid

GRID = make_grid(4).points


def test_registry_pi2():
    pi2 = registry_get("pi2")
    assert pi2(
        Interval(Fraction(3, 10), Fraction(2, 5)), Interval(Fraction(1, 10), Fraction(9, 10))
    ) == Interval(Fraction(1, 10), Fraction(9, 10))


def test_registry_p_identity():
    p = registry_get("P")
    for x in GRID:
        assert p(Interval(1, 1), x) == x


def test_registry_unknown_name_lists_choices():
    with pytest.raises(LookupError, match="frobnicate.*available"):
        registry_get("frobnicate")


def test_registry_shipped_functions():
    for name in FUNCTION_NAMES:
        f = get_function(name)
        assert f.arity == (1 if name == "pow_2" else 2)
    assert get_function("min", 3).arity == 3
    assert get_function("proj_3", 3)(GRID[0], GRID[1], GRID[2]) == GRID[2]
    with pytest.raises(LookupError, match="arity"):
        get_function("proj_3", 2)
    with pytest.raises(LookupError, match="unary"):
        get_function("pow_2", 2)


def test_registry_type_guards():
    with pytest.raises(LookupError):
        get_scaling("min")
    with pytest.raises(LookupError):
        get_iso("P")
    with pytest.raises(LookupError):
        get_function("identity")


def test_pow_is_repeated_product():
    pow3 = get_function("pow_3")
    x = Interval(Fraction(1, 2), Fraction(3, 4))
    assert pow3(x) == Interval(Fraction(1, 8), Fraction(27, 64))


def test_mean_componentwise():
    mean = get_function("mean", 2)
    got = mean(Interval(Fraction(1, 4), Fraction(1, 2)), Interval(Fraction(3, 4), 1))
    assert got == Interval(Fraction(1, 2), Fraction(3, 4))


def test_arity_enforced():
    mn = get_function("min", 2)
    with pytest.raises(TypeError, match="expects 2"):
        mn(GRID[0])


def test_dual_ns_min_is_max():
    # oracle: expand N_S(min(N_S X, N_S Y)) endpoint-wise in rationals
    mn, mx = get_function("min", 2), get_function("max", 2)
    d = dual_ns(mn)
    for x, y in itertools.product(GRID, repeat=2):
        expected = complement(
            Interval(
                min(1 - x.hi, 1 - y.hi),
                min(1 - x.lo, 1 - y.lo),
            )
        )
        assert d(x, y) == expected == mx(x, y)
    assert d(
        Interval(Fraction(1, 5), Fraction(1, 2)), Interval(Fraction(2, 5), Fraction(3, 5))
    ) == Interval(Fraction(2, 5), Fraction(3, 5))


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_dual_ns_involution(name):
    f = get_function(name)
    dd = dual_ns(dual_ns(f))
    for xs in itertools.product(GRID, repeat=f.arity):
        assert dd(*xs) == f(*xs)


def test_dual_scaling_ns_of_p_is_prob_sum():
    d = dual_scaling_ns(P)
    for x, y in itertools.product(GRID, repeat=2):
        assert d(x, y) == prob_sum(x, y) == P_NS(x, y)
    for x in GRID:
        assert d(Interval(0, 0), x) == x


def test_dual_scaling_ns_of_pi2_is_pi2():
    d = dual_scaling_ns(PI2)
    for lam, x in itertools.product(GRID, repeat=2):
        assert d(lam, x) == x


def test_identity_iso():
    for x in GRID:
        assert IDENTITY(x) == x


def test_square_iso_round_trip_float():
    pts = make_grid(8, EXACT).points  # rational points, float sqrt below
    for x in pts:
        fx = Interval(float(x.lo), float(x.hi))
        sq = SQUARE(fx)
        assert sq == Interval(fx.lo * fx.lo, fx.hi * fx.hi)
        back = Interval(math.sqrt(sq.lo), math.sqrt(sq.hi))
        assert back.lo == pytest.approx(fx.lo, abs=1e-12)
        assert back.hi == pytest.approx(fx.hi, abs=1e-12)
    assert not SQUARE.exact_ok


def test_isos_fix_bounds_and_preserve_order():
    from algebra import Ordering, compare

    for iso in (IDENTITY, SQUARE):
        assert iso(Interval(0, 0)) == Interval(0, 0)
        assert iso(Interval(1, 1)) == Interval(1, 1)
        for x, y in itertools.product(GRID, repeat=2):
            if compare("componentwise", x, y) is Ordering.LESS:
                assert compare("componentwise", iso(x), iso(y)) is Ordering.LESS

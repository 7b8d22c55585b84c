import itertools
from fractions import Fraction

import pytest

from ivhom.interval import EXACT, Interval, NumericMode, complement, product
from ivhom.functions import (
    FUNCTION_NAMES,
    IDENTITY,
    SQUARE,
    P,
    PI2,
    dual_ns,
    get_function,
)
from ivhom.homogeneity import (
    Counterexample,
    UnsupportedModeError,
    check_homogeneity,
    check_idempotency,
    check_section_bijective,
    make_grid,
    run_prop2,
    run_theorem1,
)

FLOAT12 = NumericMode("float", 1e-12)


def brute_force_homogeneity(f, g, phi, grid):
    """Independent oracle: plain nested loops, first failing tuple wins."""
    for lam in grid.points:
        for xs in itertools.product(grid.points, repeat=f.arity):
            lhs = f(*(g(lam, x) for x in xs))
            rhs = g(phi(lam), f(*xs))
            if not grid.mode.intervals_equal(lhs, rhs):
                return Counterexample(lam, xs, lhs, rhs)
    return None


def test_make_grid_sizes_and_order():
    g1 = make_grid(1)
    assert g1.points == (Interval(0, 0), Interval(0, 1), Interval(1, 1))
    assert len(make_grid(2)) == 6
    g4 = make_grid(4)
    assert len(g4) == 15
    keys = [(p.lo, p.hi) for p in g4.points]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    # enumeration oracle for m=4
    vals = [Fraction(i, 4) for i in range(5)]
    assert set(g4.points) == {
        Interval(a, b) for a in vals for b in vals if a <= b
    }


def test_make_grid_rejects_zero():
    with pytest.raises(ValueError):
        make_grid(0)


def count_intervals(monkeypatch):
    """Count the `Interval`s built from here on."""
    built = [0]
    post_init = Interval.__post_init__

    def counting(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(Interval, "__post_init__", counting)
    return built


def test_make_grid_builds_no_interval(monkeypatch):
    built = count_intervals(monkeypatch)
    grid = make_grid(3000)
    assert len(grid) == 4504501 and built[0] == 0
    lo, hi = grid.point((1, 3000)).lo, make_grid(3, FLOAT12).point((1, 3)).hi
    assert built[0] == 2 and (lo, hi) == (Fraction(1, 3000), 1.0)


@pytest.mark.parametrize("mode", ("exact", "float"))
@pytest.mark.parametrize("argv,built", [
    (("check", "--f", "min", "--budget", "2000000000"), 0),
    (("idempotent", "--f", "min"), 0),
    (("dual", "--f", "min"), 0),
    # the counterexample: Λ, X1, X2, G(Λ,X1), G(Λ,X2) and F of them, and
    # phi(Λ), F(X1,X2) and G of those two
    (("check", "--f", "product", "--budget", "2000000000"), 9),
], ids=["check", "idempotent", "dual", "check-fail"])
def test_only_a_report_builds_intervals(monkeypatch, capsys, argv, built, mode):
    """A passing run builds no `Interval`, and a failing one only its
    counterexample: every sweep runs on numerator pairs or doubles."""
    from ivhom.cli import main

    count = count_intervals(monkeypatch)
    code = main([*argv, "--resolution", "40", "--mode", mode])
    capsys.readouterr()
    assert (code, count[0]) == (1 if built else 0, built)


def test_min_p_homogeneous():
    grid = make_grid(4)
    r = check_homogeneity(get_function("min", 2), P, IDENTITY, grid)
    assert r.verdict == "pass"
    assert r.max_deviation == 0
    assert r.evaluations == 15**3


def test_product_p_fails_with_smallest_counterexample():
    grid = make_grid(2)
    f = get_function("product", 2)
    r = check_homogeneity(f, P, IDENTITY, grid)
    assert r.verdict == "fail"
    oracle = brute_force_homogeneity(f, P, IDENTITY, grid)
    assert r.counterexample == oracle
    # frozen from the oracle: Lambda=X=Y=[0,1/2], lhs=[0,1/16], rhs=[0,1/8]
    h = Interval(0, Fraction(1, 2))
    assert r.counterexample == Counterexample(
        h, (h, h), Interval(0, Fraction(1, 16)), Interval(0, Fraction(1, 8))
    )


def test_pow2_square_homogeneous_in_float():
    grid = make_grid(4, FLOAT12)
    r = check_homogeneity(get_function("pow_2"), P, SQUARE, grid)
    assert r.verdict == "pass"
    assert r.max_deviation <= 1e-12


def test_square_refused_in_exact_mode():
    grid = make_grid(2)
    with pytest.raises(UnsupportedModeError, match="irrational"):
        check_homogeneity(get_function("pow_2"), P, SQUARE, grid)


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_pi2_universal(name):
    grid = make_grid(3)
    r = check_homogeneity(get_function(name), PI2, IDENTITY, grid)
    assert r.verdict == "pass" and r.max_deviation == 0


def test_monotone_refutation_m2_vs_m4():
    f = get_function("product", 2)
    r2 = check_homogeneity(f, P, IDENTITY, make_grid(2))
    r4 = check_homogeneity(f, P, IDENTITY, make_grid(4))
    assert r2.verdict == r4.verdict == "fail"
    # the m=2 counterexample re-evaluates as a true inequality at m=4 too
    c = r2.counterexample
    lhs = f(P(c.lam, c.xs[0]), P(c.lam, c.xs[1]))
    rhs = P(c.lam, f(*c.xs))
    assert lhs != rhs and all(p in make_grid(4).points for p in (c.lam, *c.xs))


def test_idempotency_min_and_mean_pass():
    assert check_idempotency(get_function("min", 2), make_grid(8)).verdict == "pass"
    assert check_idempotency(get_function("mean", 2), make_grid(4)).verdict == "pass"


def test_idempotency_product_fails():
    r = check_idempotency(get_function("product", 2), make_grid(2))
    assert r.verdict == "fail"
    # lexicographically smallest failing point: [0,1/2] squares to [0,1/4]
    assert r.counterexample.xs == (Interval(0, Fraction(1, 2)),)
    assert r.counterexample.lhs == Interval(0, Fraction(1, 4))
    # the degenerate point [1/2,1/2] -> [1/4,1/4] also fails
    half = Interval(Fraction(1, 2), Fraction(1, 2))
    assert product(half, half) == Interval(Fraction(1, 4), Fraction(1, 4)) != half


def test_section_bijective():
    grid = make_grid(2)
    assert check_section_bijective(P, Interval(1, 1), grid).verdict == "pass"
    assert check_section_bijective(P, Interval(1, 1), grid).note == "grid-certified"
    r0 = check_section_bijective(P, Interval(0, 0), grid)
    assert r0.verdict == "fail" and "not injective" in r0.note
    rpi = check_section_bijective(
        PI2, Interval(Fraction(1, 2), Fraction(1, 2)), grid
    )
    assert rpi.verdict == "fail"


def test_theorem1_min_confirmed():
    rep = run_theorem1(get_function("min", 2), P, Interval(1, 1), make_grid(4))
    assert rep.status == "confirmed"
    assert all(r.verdict == "pass" for _, r in rep.checks)
    assert rep.verdict == "pass"


def test_theorem1_product_not_applicable():
    rep = run_theorem1(get_function("product", 2), P, Interval(1, 1), make_grid(2))
    checks = dict(rep.checks)
    assert checks["fixed-point"].verdict == "pass"
    assert checks["section-bijective"].verdict == "pass"
    assert checks["homogeneity"].verdict == "fail"
    assert checks["idempotency"].verdict == "fail"  # informational
    assert rep.status == "not-applicable"


def test_theorem1_pi2_section_constant():
    a = Interval(Fraction(1, 2), Fraction(1, 2))
    rep = run_theorem1(get_function("min", 2), PI2, a, make_grid(2))
    checks = dict(rep.checks)
    assert checks["section-bijective"].verdict == "fail"
    assert rep.status == "not-applicable"
    assert checks["idempotency"].verdict == "pass"


def test_prop2_min_and_mean_confirmed():
    for name in ("min", "mean"):
        rep = run_prop2(get_function(name, 2), make_grid(3))
        assert rep.status == "confirmed"
    # the dual of min acts as max throughout
    mn, mx = get_function("min", 2), get_function("max", 2)
    d = dual_ns(mn)
    for xs in itertools.product(make_grid(3).points, repeat=2):
        assert d(*xs) == mx(*xs)


def test_prop2_product_not_applicable():
    rep = run_prop2(get_function("product", 2), make_grid(2))
    assert rep.status == "not-applicable"
    assert dict(rep.checks)["base-homogeneity"].verdict == "fail"


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_pipelines_never_violate_for_registry(name):
    # premises-pass-and-conclusion-fail must not occur on exact grids
    f = get_function(name)
    grid = make_grid(2)
    assert run_theorem1(f, P, Interval(1, 1), grid).status != "violation"
    assert run_prop2(f, grid).status != "violation"


def test_exact_fail_is_re_evaluable():
    grid = make_grid(2)
    f = get_function("product", 2)
    r = check_homogeneity(f, P, IDENTITY, grid)
    c = r.counterexample
    lhs = f(*(P(c.lam, x) for x in c.xs))
    rhs = P(IDENTITY(c.lam), f(*c.xs))
    assert lhs == c.lhs and rhs == c.rhs and lhs != rhs


def test_float_grid_points_are_floats():
    g = make_grid(3, FLOAT12)
    assert all(isinstance(p.lo, float) for p in g.points)
    assert len(g) == 10

"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import functools
import itertools
import json
import time
from fractions import Fraction

import pytest

from algebra import Ordering, compare
from ivhom.cli import main as cli_main
from ivhom.interval import (
    Interval,
    NumericMode,
    complement,
    join,
    meet,
    prob_sum,
    product,
)
from ivhom.functions import (
    FUNCTION_NAMES,
    IDENTITY,
    SQUARE,
    P,
    PI2,
    dual_ns,
    dual_scaling_ns,
    get_function,
)
from ivhom.homogeneity import (
    UnsupportedModeError,
    check_homogeneity,
    make_grid,
    run_prop2,
    run_theorem1,
)

EXACT = NumericMode("exact")
FLOAT12 = NumericMode("float", 1e-12)


def criterion(num, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {description}")
                raise
            print(f"[PASS] criterion {num}: {description}")

        return wrapper

    return deco


@criterion(1, "pi2-homogeneity holds for every registry function (m=3, exact)")
def test_criterion_1_pi2_universality():
    grid = make_grid(3, EXACT)
    assert FUNCTION_NAMES == ("min", "max", "product", "mean", "proj_1", "proj_2", "pow_2")
    for name in FUNCTION_NAMES:
        start = time.perf_counter()
        r = check_homogeneity(get_function(name), PI2, IDENTITY, grid)
        elapsed = time.perf_counter() - start
        assert r.verdict == "pass", name
        assert r.max_deviation == 0, name
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"


@criterion(2, "min and max are P-homogeneous (m=6 exact; m=8 float, dev<=1e-12)")
def test_criterion_2_min_max_p_homogeneous():
    g6 = make_grid(6, EXACT)
    assert len(g6) == 28
    for name in ("min", "max"):
        r = check_homogeneity(get_function(name, 2), P, IDENTITY, g6)
        assert r.verdict == "pass" and r.max_deviation == 0, name
    g8 = make_grid(8, FLOAT12)
    for name in ("min", "max"):
        r = check_homogeneity(get_function(name, 2), P, IDENTITY, g8)
        assert r.verdict == "pass" and r.max_deviation <= 1e-12, name


@criterion(3, "duality pipeline passes; dual(min)=max and dual(P)=prob_sum on m=8")
def test_criterion_3_prop2_pipeline():
    g4 = make_grid(4, EXACT)
    for name in ("min", "mean"):
        rep = run_prop2(get_function(name, 2), g4)
        assert rep.status == "confirmed", name
        assert all(r.max_deviation == 0 for _, r in rep.checks), name
    g8 = make_grid(8, EXACT)
    d_min, mx = dual_ns(get_function("min", 2)), get_function("max", 2)
    for xs in itertools.product(g8.points, repeat=2):
        assert d_min(*xs) == mx(*xs)
    d_p = dual_scaling_ns(P)
    for x, y in itertools.product(g8.points, repeat=2):
        expected = Interval(
            x.lo + y.lo - x.lo * y.lo,
            x.hi + y.hi - x.hi * y.hi,
        )
        assert d_p(x, y) == prob_sum(x, y) == expected


@criterion(4, "idempotency pipeline: min confirmed, product refuted with witness")
def test_criterion_4_theorem1_pipeline():
    g4 = make_grid(4, EXACT)
    one = Interval(1, 1)
    rep = run_theorem1(get_function("min", 2), P, one, g4)
    assert rep.status == "confirmed"
    checks = dict(rep.checks)
    assert checks["section-bijective"].note == "grid-certified"
    assert all(r.verdict == "pass" for r in checks.values())

    rep = run_theorem1(get_function("product", 2), P, one, g4)
    checks = dict(rep.checks)
    assert checks["homogeneity"].verdict == "fail"
    assert checks["idempotency"].verdict == "fail"
    assert rep.status == "not-applicable"
    # the stated witness is a genuine failing point, exactly:
    half = Interval(Fraction(1, 2), Fraction(1, 2))
    quarter = Interval(Fraction(1, 4), Fraction(1, 4))
    assert product(half, half) == quarter != half
    # the reported counterexample is the lex-smallest failing grid point
    # ([0,1/4] precedes [1/2,1/2] in grid order) and re-evaluates exactly
    c = checks["idempotency"].counterexample
    assert c.xs == (Interval(0, Fraction(1, 4)),)
    assert product(*c.xs, *c.xs) == c.lhs == Interval(0, Fraction(1, 16))


@criterion(5, "product/P counterexample byte-identical across 1, 2, 8 workers")
def test_criterion_5_worker_determinism(capsys):
    outputs = []
    for w in ("1", "2", "8"):
        code = cli_main([
            "check", "--f", "product", "--arity", "2", "--g", "P",
            "--resolution", "2", "--mode", "exact", "--workers", w,
        ])
        assert code == 1
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1] == outputs[2]
    d = json.loads(outputs[0])
    assert d["counterexample"] == {
        "lambda": "[0/1,1/2]",
        "xs": ["[0/1,1/2]", "[0/1,1/2]"],
        "lhs": "[0/1,1/16]",
        "rhs": "[0/1,1/8]",
    }


@criterion(6, "pow_2 is (P,square)-homogeneous in float; exact mode refuses square")
def test_criterion_6_square_iso():
    g8 = make_grid(8, FLOAT12)
    r = check_homogeneity(get_function("pow_2"), P, SQUARE, g8)
    assert r.verdict == "pass" and r.max_deviation <= 1e-12
    with pytest.raises(UnsupportedModeError, match="irrational"):
        check_homogeneity(get_function("pow_2"), P, SQUARE, make_grid(8, EXACT))
    assert cli_main([
        "check", "--f", "pow_2", "--arity", "1", "--g", "P", "--phi", "square",
        "--resolution", "8", "--mode", "exact",
    ]) == 2


@criterion(7, "algebraic law suite holds exhaustively at m=8, exact, under 10s")
def test_criterion_7_algebra_suite():
    start = time.perf_counter()
    pts = make_grid(8, EXACT).points
    for x in pts:
        assert complement(complement(x)) == x
    for x, y in itertools.product(pts, repeat=2):
        assert prob_sum(x, y) == complement(product(complement(x), complement(y)))
        assert join(x, meet(x, y)) == x
        cw = compare("componentwise", x, y)
        for order in ("lex-lo", "lex-hi", "midpoint-width"):
            total = compare(order, x, y)
            assert total is not Ordering.INCOMPARABLE
            if cw is Ordering.LESS:
                assert total is Ordering.LESS
            elif cw is Ordering.EQUAL:
                assert total is Ordering.EQUAL
    assert time.perf_counter() - start < 10.0

import itertools
from fractions import Fraction

import pytest

from ivhom.expr import (
    Call,
    Const,
    ExprError,
    LVar,
    Pow,
    Proj,
    Var,
    compile_ivfunction,
    compile_scaling,
    parse_expr,
)
from ivhom.functions import P, get_function
from ivhom.homogeneity import make_grid
from ivhom.interval import Interval

GRID = make_grid(3).points


def test_parse_structure():
    ast = parse_expr("min(mul(L,X1),mul(L,X2))", 2)
    assert ast == Call(
        "min",
        (Call("mul", (LVar(), Var(1))), Call("mul", (LVar(), Var(2)))),
    )


def test_parse_const_pow_proj():
    ast = parse_expr("psum(pow(X1,2),[1/4,0.5])", 1)
    assert ast == Call(
        "psum", (Pow(Var(1), 2), Const(Fraction(1, 4), Fraction(1, 2)))
    )
    assert parse_expr("proj(2)", 2) == Proj(2)


def test_syntax_error_position():
    with pytest.raises(ExprError) as exc:
        parse_expr("min(X1,", 2)
    assert exc.value.line == 1 and exc.value.column == 8


@pytest.mark.parametrize(
    "src",
    [
        "min(X1 X2)",
        "min(X1,)",
        "frob(X1,X2)",
        "pow(X1,0)",
        "pow(X1,1/2)",
        "proj(X1)",
        "neg(X1,X2)",
        "min(X1)",
        "[0.2,0.5",
        "min(X1,X2))",
        "X0",
        "",
        "min(X1,X2) junk",
    ],
)
def test_syntax_errors(src):
    with pytest.raises(ExprError):
        parse_expr(src, 2)


def test_arity_violation():
    with pytest.raises(ExprError, match="X3 exceeds"):
        parse_expr("min(X1,X3)", 2)
    with pytest.raises(ExprError, match="exceeds"):
        parse_expr("proj(3)", 2)


def test_evaluate_at_identity_scale_matches_min():
    f = compile_ivfunction(parse_expr("min(mul([1,1],X1),mul([1,1],X2))", 2), 2)
    mn = get_function("min", 2)
    for x, y in itertools.product(GRID, repeat=2):
        assert f(x, y) == mn(x, y)


@pytest.mark.parametrize(
    "src,name",
    [
        ("min(X1,X2)", "min"),
        ("max(X1,X2)", "max"),
        ("mul(X1,X2)", "product"),
        ("mean(X1,X2)", "mean"),
        ("proj(2)", "proj_2"),
    ],
)
def test_compile_golden_against_registry(src, name):
    f = compile_ivfunction(parse_expr(src, 2), 2)
    ref = get_function(name, 2)
    for xs in itertools.product(GRID, repeat=2):
        assert f(*xs) == ref(*xs)


def test_compile_pow_golden():
    f = compile_ivfunction(parse_expr("pow(X1,2)", 1), 1)
    ref = get_function("pow_2")
    for x in GRID:
        assert f(x) == ref(x)


def test_compile_scaling_p():
    g = compile_scaling(parse_expr("mul(L,X1)", 1))
    for lam, x in itertools.product(GRID, repeat=2):
        assert g(lam, x) == P(lam, x)


def test_compile_rejects_misplaced_l():
    with pytest.raises(ExprError, match="may not use L"):
        compile_ivfunction(parse_expr("mul(L,X1)", 1), 1)
    with pytest.raises(ExprError, match="only use L and X1"):
        compile_scaling(parse_expr("min(X1,X2)", 2))


def test_neg_and_const_evaluate():
    f = compile_ivfunction(parse_expr("neg(X1)", 1), 1)
    assert f(Interval(Fraction(1, 5), Fraction(1, 2))) == Interval(
        Fraction(1, 2), Fraction(4, 5)
    )
    c = compile_ivfunction(parse_expr("[1/3,2/3]", 1), 1)
    assert c(GRID[0]) == Interval(Fraction(1, 3), Fraction(2, 3))

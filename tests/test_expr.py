import inspect
import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import dsl_oracle
from grids import FLOAT, grid_points
from ivhom import compiler, dsl, expr
from ivhom.expr import (
    MAX_ARITY,
    Call,
    Const,
    ExprError,
    IVFunction,
    LVar,
    OrderIso,
    Pow,
    ScalingFunction,
    Var,
    compile_ivfunction,
    compile_scaling,
    parse_expr,
)
from ivhom.functions import P, get_function
from ivhom.gate import MAX_DEPTH, MAX_POW_EXPONENT
from ivhom.homogeneity import make_grid
from ivhom.interval import Interval, IntervalError

GRID = grid_points(make_grid(3))


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
    assert parse_expr("proj(2)", 2) == parse_expr("X2", 2) == Var(2)


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
        "min(X1,[1/0,1])",
        "min(X1,[0/0,1])",
        "min(X1,[1.5/2,1])",
        # more digits than Python converts to an int
        "X" + "1" * 5000,
        "pow(X1," + "9" * 5000 + ")",
    ],
    ids=lambda src: src if len(src) < 40 else src[:20] + "...",
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


def chain(depth):
    """neg(...neg(X1)...), `depth` levels deep."""
    node = Var(1)
    for _ in range(depth - 1):
        node = Call("neg", (node,))
    return node


def chain_source(depth):
    return "neg(" * (depth - 1) + "X1" + ")" * (depth - 1)


def test_nesting_too_deep_is_an_expr_error():
    deepest = chain(MAX_DEPTH)
    assert parse_expr(chain_source(MAX_DEPTH), 1) == deepest
    # the parser refuses the token one level past the limit
    with pytest.raises(ExprError, match="nested too deeply: more than "
                                        f"{MAX_DEPTH} levels") as exc:
        parse_expr(chain_source(MAX_DEPTH + 1), 1)
    assert (exc.value.line, exc.value.column) == (1, 4 * MAX_DEPTH + 1)
    # a node one level past it is refused when it is built, with no
    # source position, whatever its op
    for make in (lambda a: Call("neg", (a,)), lambda a: Pow(a, 2),
                 lambda a: Call("mean", (Var(1), a, Var(1)))):
        with pytest.raises(ExprError, match="nested too deeply") as exc:
            make(deepest)
        assert exc.value.line is None and "line" not in str(exc.value)


class _Recording(compiler._ScalarTarget):
    """A trace target that records whether each trace is exact."""

    traced: list = []

    def __init__(self, exact, **kwargs):
        self.traced.append(exact)
        super().__init__(exact, **kwargs)


@pytest.mark.parametrize("node,error,message,built", [
    (lambda: Call("foo", (Var(1),)), ExprError, "unknown operation 'foo'",
     False),
    (lambda: Call("min", (Var(1), Const(0, 2))), IntervalError,
     "hi=2 outside", False),
    (lambda: Call("min", (Var(1), Var(3))), ExprError,
     "X3 exceeds declared arity 1|may only use L and X1", False),
    (lambda: Call("min", (Var(1), Const(Fraction(1, 3**10000), 1))),
     ExprError, "more than 4300 digits", True),
], ids=["op", "constant", "variables", "digits"])
@pytest.mark.parametrize("make", [
    lambda e: IVFunction("f", 1, e), lambda e: ScalingFunction("g", e),
    lambda e: OrderIso("phi", e)], ids=["F", "G", "phi"])
def test_bad_expression_fails_at_construction(monkeypatch, make, node, error,
                                              message, built):
    """A node checks its op and its constant when it is built, and an
    ingredient its variables, tracing nothing. An exact literal past
    Python's digit limit is met only when the exact kernel is traced, and
    the float kernel of the same ingredient works."""
    monkeypatch.setattr(_Recording, "traced", [])
    monkeypatch.setattr(compiler, "_ScalarTarget", _Recording)
    made = []
    with pytest.raises(error, match=message):
        made.append(make(node()))
        made[0].kernel((1,) * len(made[0].params))
    assert len(made) == built and _Recording.traced == [True] * built
    if built:
        fn, _ = made[0].kernel(None)
        assert fn(*[(0.5, 0.5)] * len(made[0].params)) == (0.0, 0.5)


@pytest.mark.parametrize("make,message", [
    (lambda: IVFunction("f", 1, Var(3)), "variable X3 exceeds declared arity 1"),
    (lambda: IVFunction("f", 2, Call("mul", (LVar(), Var(5)))),
     "IV-function expressions may not use L"),
    (lambda: ScalingFunction("g", Call("min", (LVar(), Var(2)))),
     "scaling expressions may only use L and X1"),
    (lambda: OrderIso("phi", LVar()),
     "order isomorphism expressions may not use L"),
    (lambda: OrderIso("phi", parse_expr("proj(2)", 2)),
     "variable X2 exceeds declared arity 1"),
    (lambda: Var(0), "variable index must be >= 1, got 0"),
    # `pow` is a node of its own, which carries its exponent
    (lambda: Call("pow", (Var(1), Var(1))), "unknown operation 'pow'"),
    # the arguments of a call, and a power's exponent, with the parser's
    # wording where it has the rule; the parser asks `min`, `max`, `mul`
    # and `psum` for 2 arguments, but the registry builds them on one
    (lambda: Call("min", ()), "min needs at least one argument"),
    (lambda: Call("mean", ()), "mean needs at least one argument"),
    (lambda: Call("neg", ()), "neg takes exactly one argument"),
    (lambda: Call("neg", (Var(1), Var(1))), "neg takes exactly one argument"),
    (lambda: IVFunction("f", 1, Pow(Var(1), 0)),
     "pow exponent must be a positive integer"),
    (lambda: Pow(Var(1), -1), "pow exponent must be a positive integer"),
    (lambda: Pow(Var(1), MAX_POW_EXPONENT + 1),
     f"pow exponent {MAX_POW_EXPONENT + 1} exceeds the limit of "
     f"{MAX_POW_EXPONENT}"),
], ids=["F-X3", "F-L", "G-X2", "phi-L", "phi-proj", "X0", "pow",
        "min-none", "mean-none", "neg-none", "neg-two", "F-pow-0", "pow-neg",
        "pow-past-limit"])
def test_bad_node_or_variable_is_an_expr_error(make, message):
    """A node checks its index, its op, its argument count and its
    exponent, and an ingredient every variable its expression reads, when
    each is built."""
    with pytest.raises(ExprError) as exc:
        make()
    assert str(exc.value) == message


def test_diagonal_reads_x1_for_every_variable():
    """`diagonal` puts X1 in place of every X<k>, under `neg` and `pow`
    alike, and keeps constants; the result at X is F at (X,...,X)."""
    third = Const(Fraction(1, 3), Fraction(2, 3))
    node = Call("mean", (Var(3), Call("neg", (Var(2),)), Pow(Var(3), 2), third))
    x1 = Var(1)
    assert expr.diagonal(node) == Call(
        "mean", (x1, Call("neg", (x1,)), Pow(x1, 2), third))
    assert expr.diagonal(third) is third
    f, diag = IVFunction("f", 3, node), IVFunction("d", 1, expr.diagonal(node))
    for x in [*GRID, *grid_points(make_grid(3, FLOAT))]:
        assert diag(x) == f(x, x, x)


def test_node_hash_is_cached_and_does_not_recurse():
    deep = chain(MAX_DEPTH)
    assert hash(deep) == hash(chain(MAX_DEPTH)) != hash(chain(MAX_DEPTH - 1))
    assert {deep: 1}[deep] == 1
    assert chain(3) == chain(3) and hash(chain(3)) == hash(chain(3))
    assert Const(0, 1) != Const(0, Fraction(1, 2))


def test_node_equality_does_not_recurse():
    """Two distinct trees at the depth limit compare on an explicit stack,
    within 50 frames of Python's recursion limit; a difference at a leaf,
    in an op or in a call's argument count makes them unequal."""
    deep = chain(MAX_DEPTH)
    other_leaf = Var(2)
    for _ in range(MAX_DEPTH - 1):
        other_leaf = Call("neg", (other_leaf,))

    def near_the_limit(k):
        if k:
            return near_the_limit(k - 1)
        return (deep == chain(MAX_DEPTH), deep != other_leaf,
                deep == chain(MAX_DEPTH - 1))

    frames = len(inspect.stack())
    assert near_the_limit(sys.getrecursionlimit() - frames - 50) == (
        True, True, False)
    x = Var(1)
    assert Call("mean", (x, x)) != Call("mean", (x,)) != Call("max", (x,))
    assert Const(0, 1) == Const(Fraction(0), Fraction(1)) != Var(1)


def test_arity_limit():
    assert get_function("mean", MAX_ARITY).arity == MAX_ARITY
    # refused before 10^9 variables or parameter names are built
    with pytest.raises(ValueError, match="arity must be from 1 to 1000"):
        get_function("proj_1", 10**9)
    with pytest.raises(ValueError, match="arity must be from 1 to 1000"):
        IVFunction("f", 10**9, Var(1))
    with pytest.raises(ValueError, match="arity must be from 1 to 1000"):
        parse_expr("X1", MAX_ARITY + 1)


#: DSL tokens, some of them run together, and text the DSL does not accept
_SOUP = ("min", "max", "mul", "psum", "neg", "mean", "pow", "proj", "frob",
         "L", "X1", "X2", "X0", "(", ")", "[", "]", ",", " ", "\n", "@",
         "0", "1", "2", "1/3", "0.5", "3/2", "1/0", "0/0", "1.5/2",
         "min(", "neg(", "mul(L,", "pow(X1,", "X1,", "[0,1]", "[1/3,2/3]",
         "[1/0,1]", "[1,0]")


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_SOUP), max_size=25), st.integers(1, 2),
       st.booleans())
def test_fuzzed_source_gives_ast_or_expr_error(tokens, arity, scaling):
    src = "".join(tokens)
    try:
        node = parse_expr(src, arity)
        if scaling:
            compile_scaling(node)
        else:
            compile_ivfunction(node, arity)
    except (ExprError, IntervalError):
        pass


#: the soup above, with Unicode digits (`٣` is one, `²` is not), a letter,
#: whitespace that is not ASCII, and runs that a number or a variable
#: reads only in part
_TOKEN_SOUP = (*_SOUP, "٣", "²", "é", "\x85", "\u2028", "\x1c", "\t", "1.",
               "1/", "1.5/2", "X01", "Xa", "X٣", "X²", "_", ".", "/")


def _tokens_or_error(tokenize, src):
    try:
        return tokenize(src)
    except ExprError as error:
        return str(error), error.line, error.column


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.sampled_from(_TOKEN_SOUP), st.characters()),
                max_size=25).map("".join))
@example("1.5/2.5")
@example("X٣٣ é")
@example("min(X1,\n\u2028 X2\x85)\n@")
def test_tokens_are_read_as_the_regular_expression_read_them(src):
    """`dsl._tokenize` gives the tokens (kind, text, line, column) that the
    regular expression it replaced gave, or the same error at the same
    position."""
    assert (_tokens_or_error(dsl._tokenize, src)
            == _tokens_or_error(dsl_oracle.tokenize, src))


def test_variable_index_is_decimal_digits():
    """`X` and digits for which `isdecimal` is true is a variable: `X٣` is
    X3, and `X²` is an unknown identifier, as `int` would not read `²`."""
    assert parse_expr("min(X٣,X1)", 3) == Call("min", (Var(3), Var(1)))
    with pytest.raises(ExprError) as exc:
        parse_expr("min(X1,X²)", 2)
    assert str(exc.value) == "unknown identifier 'X²' (line 1, column 8)"


@pytest.mark.parametrize("src,message,column", [
    ("X0", "variable index must be >= 1, got 0", 1),
    ("min(X1,X0)", "variable index must be >= 1, got 0", 8),
    ("mean(proj(0))", "variable index must be >= 1, got 0", 6),
    ("min(X1,pow(X1,0))", "pow exponent must be a positive integer", 8),
    ("pow(X1,1001)", "pow exponent 1001 exceeds the limit of 1000", 1),
    ("max(X1, neg(X1,X2))", "neg takes exactly one argument", 9),
], ids=["X0", "min-X0", "proj", "pow-0", "pow-past-limit", "neg-two"])
def test_node_error_is_placed_at_the_token_that_built_it(src, message, column):
    """The parser leaves these checks to the node it builds, and gives the
    node's own message the position of the variable, or of the call's
    name."""
    with pytest.raises(ExprError) as exc:
        parse_expr(src, 2)
    assert str(exc.value) == f"{message} (line 1, column {column})"
    assert (exc.value.line, exc.value.column) == (1, column)

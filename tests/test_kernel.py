"""The scalar-endpoint kernel against `Interval` evaluation.

One kernel per expression is the only evaluator: the sweeps of
`homogeneity` run on the kernels that `IVFunction.kernel` compiles, and
`IVFunction.__call__` runs a kernel too, on the `Fraction` endpoints
themselves as numerators over denominator 1 in exact mode, or on the
doubles in float mode. These tests hold both uses to `tree_eval`, an
oracle that walks the AST and applies the ops of `interval`, independent
of any compiled code, and the sweeps to reference sweeps over it. The
reference always visits all s^(n+1) grid tuples, so it also checks the
reduced sweep, which visits only the m+1 degenerate points in each
coordinate that has one parity of `neg`s.
"""

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from functools import cache, reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from ivhom import expr
from ivhom.expr import (
    Call,
    Const,
    LVar,
    OrderIso,
    Pow,
    Proj,
    ScalingFunction,
    Var,
    compile_ivfunction,
    compile_scaling,
    parse_expr,
)
from ivhom.functions import (
    FUNCTION_NAMES,
    IDENTITY,
    P,
    P_NS,
    PI2,
    SQUARE,
    dual_ns,
    dual_scaling_ns,
    get_function,
)
from ivhom.gate import MAX_DEPTH
from ivhom.homogeneity import (
    CheckReport,
    Counterexample,
    _float_lookup,
    _homogeneity_law,
    _sweep_law,
    check_homogeneity,
    check_idempotency,
    check_section_bijective,
    equal_on_grid,
    make_grid,
    run_theorem1,
)
from ivhom.interval import (
    EXACT,
    FLOAT,
    Interval,
    NumericMode,
    complement,
    join,
    meet,
    parse_interval,
    prob_sum,
    product,
)

MODES = (EXACT, FLOAT)
#: resolution per arity, so that every reference sweep stays small
RESOLUTION = {1: 5, 2: 3, 3: 2}

#: the n-ary DSL ops, each a binary op of `interval` folded left
_FOLDED = {"min": meet, "max": join, "mul": product, "psum": prob_sum}


def tree_eval(node, env, num):
    """The value of an AST at the Intervals of `env` (by parameter name),
    with constants converted by `num`, Fraction or float."""
    if isinstance(node, (Var, Proj)):
        return env[f"X{node.index}"]
    if isinstance(node, LVar):
        return env["L"]
    if isinstance(node, Const):
        return Interval(num(node.lo), num(node.hi))
    if isinstance(node, Pow):
        return reduce(product, [tree_eval(node.arg, env, num)] * node.exponent)
    args = [tree_eval(arg, env, num) for arg in node.args]
    if node.ident == "neg":
        return complement(*args)
    if node.ident == "mean":
        n = len(args)
        lo, hi = sum(x.lo for x in args), sum(x.hi for x in args)
        if num is float:
            return Interval(lo / n, hi / n)
        return Interval(Fraction(lo, n), Fraction(hi, n))
    return reduce(_FOLDED[node.ident], args)


def oracle(ingredient, mode):
    """The ingredient as a function of Intervals, evaluated by `tree_eval`."""
    num = Fraction if mode.is_exact else float
    return lambda *xs: tree_eval(
        ingredient.expr, dict(zip(ingredient.params, xs, strict=True)), num
    )


def reference_sweep(f, g, phi, grid, law="def1-homogeneity"):
    """The homogeneity sweep as nested loops over Interval evaluations,
    each made once."""
    mode, n = grid.mode, f.arity
    f, g, phi = (cache(oracle(x, mode)) for x in (f, g, phi))
    max_dev, cex = mode.zero(), None
    for lam in grid.points:
        for xs in itertools.product(grid.points, repeat=n):
            lhs = f(*(g(lam, x) for x in xs))
            rhs = g(phi(lam), f(*xs))
            max_dev = max(max_dev, mode.deviation(lhs, rhs))
            if cex is None and not mode.intervals_equal(lhs, rhs):
                cex = Counterexample(lam, xs, lhs, rhs)
    return CheckReport(
        law=law,
        verdict="pass" if cex is None else "fail",
        counterexample=cex,
        evaluations=len(grid) ** (n + 1),
        max_deviation=max_dev,
        mode=mode,
        resolution=grid.resolution,
    )


def _registry():
    for name in FUNCTION_NAMES:
        for arity in (1, 2, 3):
            try:
                yield get_function(name, arity)
            except LookupError:
                continue


#: every registry F and its N_S dual, against P, P_NS, pi2 and the dual of P
CASES = [
    pytest.param(f, g, phi, mode, id=f"{f.name}/{f.arity}-{g.name}-{phi.name}-{mode.kind}")
    for f in (*_registry(), *map(dual_ns, _registry()))
    for g in (P, P_NS, PI2, dual_scaling_ns(P))
    for mode in MODES
    for phi in ((IDENTITY,) if mode.is_exact else (IDENTITY, SQUARE))
]


@pytest.mark.parametrize("f,g,phi,mode", CASES)
def test_sweep_matches_reference(f, g, phi, mode):
    grid = make_grid(RESOLUTION[f.arity], mode)
    assert check_homogeneity(f, g, phi, grid) == reference_sweep(f, g, phi, grid)


def first_failures(f, g, phi, grid):
    """The first grid tuple (by index) at which the lower law fails and the
    first at which the upper law fails, each None when there is none."""
    mode, n, firsts = grid.mode, f.arity, [None, None]
    f, g, phi = (oracle(x, mode) for x in (f, g, phi))
    for t in itertools.product(range(len(grid)), repeat=n + 1):
        lam, *xs = (grid.points[i] for i in t)
        lhs = f(*(g(lam, x) for x in xs))
        rhs = g(phi(lam), f(*xs))
        for side, (a, b) in enumerate(((lhs.lo, rhs.lo), (lhs.hi, rhs.hi))):
            if firsts[side] is None and not mode.values_equal(a, b):
                firsts[side] = t
    return tuple(firsts)


def _kind(lower, upper) -> str:
    """How the first failures of the lower and the upper law relate."""
    if upper is None:
        return "lower-only"
    if lower is None:
        return "upper-only"
    return ("both-at-once" if lower == upper
            else "lower-first" if lower < upper else "upper-first")


#: separable laws that fail, with how their first failures relate
FAILING_LAWS = (
    ("mul(X1,X2)", "mul(L,X1)", "upper-first"),  # registry product / P
    ("pow(X1,2)", "mul(L,X1)", "upper-first"),  # registry pow_2 / P
    ("min(X1,[1/3,2/3])", "mul(L,X1)", "upper-first"),
    ("min(X1,[1/2,1])", "mul(L,X1)", "lower-only"),
    ("max(X1,[0,1/2])", "mul(L,X1)", "upper-only"),
    ("max(X1,[1/3,2/3])", "mul(L,X1)", "both-at-once"),
    ("mean([0,1/2],mul(X1,[0,1]))", "mean(min([1/2,1],L),[1,1])", "lower-first"),
    ("min(X2,mean([0,1/2],mul(X1,[0,1])))", "mean(min([1/2,1],L),[1,1])",
     "lower-first"),
)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.kind)
@pytest.mark.parametrize("f_src,g_src,kind", FAILING_LAWS,
                         ids=[f"{f}-{g}" for f, g, _ in FAILING_LAWS])
def test_separable_failure_matches_reference(f_src, g_src, kind, mode):
    arity = 2 if "X2" in f_src else 1
    f = compile_ivfunction(parse_expr(f_src, arity), arity, name=f_src)
    g = compile_scaling(parse_expr(g_src, 1), name=g_src)
    grid = make_grid(RESOLUTION[arity], mode)
    assert all(len(p) <= 1 for p in _homogeneity_law(f, g, IDENTITY, f))
    assert _kind(*first_failures(f, g, IDENTITY, grid)) == kind
    report = check_homogeneity(f, g, IDENTITY, grid)
    assert report.verdict == "fail"
    assert report == reference_sweep(f, g, IDENTITY, grid)


#: x -> 1-(1-x)^2: an order isomorphism with `neg` in its AST, all even
NEG_SQUARE = OrderIso("neg_square", expr.dual(SQUARE.expr), exact_ok=False)
#: x -> 1-x: not order-preserving, but it makes L odd on the right
NEG = OrderIso("neg", parse_expr("neg(X1)", 1))
MIN2 = get_function("min", 2)
#: the parities of `neg`s above a variable: even, odd or mixed
E, O, M = {0}, {1}, {0, 1}
EVEN2, EVEN1 = [E] * 3, [E] * 2


def _dsl(src):
    arity = max(k for k in (1, 2, 3) if f"X{k}" in src)
    return compile_ivfunction(parse_expr(src, arity), arity, name=src)


def _dsl_scaling(src):
    return compile_scaling(parse_expr(src, 1), name=src)


#: (F, G, phi, mode, the parities of each of L, X1..Xn)
PATHS = (
    (MIN2, P, IDENTITY, EXACT, EVEN2),
    (MIN2, P, IDENTITY, FLOAT, EVEN2),
    (get_function("pow_2", 1), P, SQUARE, FLOAT, EVEN1),
    (MIN2, P_NS, IDENTITY, EXACT, EVEN2),
    (MIN2, P_NS, IDENTITY, FLOAT, EVEN2),
    (get_function("mean", 2), P, IDENTITY, FLOAT, EVEN2),
    (_dsl("psum(X1,[1/3,2/3])"), P, IDENTITY, EXACT, EVEN1),
    (_dsl("psum(X1,[1/3,2/3])"), P, IDENTITY, FLOAT, EVEN1),
    (dual_ns(MIN2), P, IDENTITY, EXACT, EVEN2),
    (MIN2, dual_scaling_ns(P), IDENTITY, EXACT, EVEN2),
    (MIN2, dual_scaling_ns(P), IDENTITY, FLOAT, EVEN2),
    (MIN2, P, NEG_SQUARE, FLOAT, EVEN2),
    (dual_ns(get_function("product", 2)), dual_scaling_ns(P), IDENTITY, FLOAT,
     EVEN2),
    # X1 under one neg and under none
    (_dsl("mul(X1,neg(X1))"), P, IDENTITY, EXACT, [M, M]),
    # L odd on the left, even on the right
    (_dsl("neg(X1)"), P, IDENTITY, EXACT, [M, O]),
    (_dsl("neg(X1)"), P, NEG, EXACT, [O, O]),
    (MIN2, _dsl_scaling("mul(L,neg(X1))"), IDENTITY, FLOAT, [E, O, O]),
    (MIN2, _dsl_scaling("mul(neg(L),X1)"), IDENTITY, EXACT, [O, E, E]),
    (_dsl("mul(X1,neg(X2))"), P, IDENTITY, FLOAT, [M, E, O]),
    (MIN2, _dsl_scaling("mul(L,max(X1,neg(X1)))"), IDENTITY, EXACT, [E, M, M]),
    # a variable the law does not read: L under pi2, X2 of proj_1
    (MIN2, PI2, IDENTITY, EXACT, [set(), E, E]),
    (_dsl("mul(X1,neg(X2))"), PI2, IDENTITY, FLOAT, [set(), E, O]),
    (get_function("proj_1", 2), P, IDENTITY, FLOAT, [E, E, set()]),
    (get_function("proj_1", 2), P_NS, IDENTITY, EXACT, [E, E, set()]),
)


@pytest.fixture
def uncompiled():
    """Empty the kernels that the registry's singletons keep for the life of
    the process, before the test and after it, so that the test's compile
    counts do not depend on the tests that ran before it."""
    singletons = (P, P_NS, PI2, IDENTITY, SQUARE)
    for x in singletons:
        x.fns.clear()
    yield
    for x in singletons:
        x.fns.clear()


def _uncompiled(x):
    """An ingredient equal to `x` that has compiled no kernel yet."""
    return type(x)(*x._values())


def count_kernels(monkeypatch):
    """Count the functions `expr._compile` generates, and their calls."""
    compiles, calls = [0], [0]
    compile_ = expr._compile

    def counting_compile(*args):
        compiles[0] += 1
        fn = compile_(*args)

        def counted(*xs):
            calls[0] += 1
            return fn(*xs)
        return counted

    monkeypatch.setattr(expr, "_compile", counting_compile)
    return compiles, calls


@pytest.mark.parametrize(
    "f,g,phi,mode,law", PATHS,
    ids=[f"{f.name}/{f.arity}-{g.name}-{phi.name}-{mode.kind}"
         for f, g, phi, mode, _ in PATHS],
)
def test_sweep_path_follows_ir(monkeypatch, f, g, phi, mode, law):
    """Each of L, X1..Xn with one parity of `neg`s above it is swept on the
    m+1 degenerate points only, one with both parities on the full grid,
    and one the law does not read on the one point [0,0], in both
    modes."""
    assert _homogeneity_law(f, g, phi, f) == law
    grid = make_grid(3, mode)
    f, g, phi = map(_uncompiled, (f, g, phi))
    compiles, calls = count_kernels(monkeypatch)
    # the sweep alone, with no counterexample evaluated
    _sweep_law(f, g, phi, f, grid)
    pl, *px = (len(grid) if p == M else 4 if p else 1 for p in law)
    # the F table, a G row per distinct X point list (all s grid points,
    # the m+1 = 4 degenerate ones, or [0,0]) and phi per Λ, and one call of
    # the sweep
    assert calls[0] == math.prod(px) + pl * (sum(set(px)) + 1) + 1
    assert compiles[0] == 4  # G, phi, F, and the sweep
    assert check_homogeneity(f, g, phi, grid) == reference_sweep(f, g, phi, grid)


#: laws with `neg`: (F, G, phi, the parities of L, X1..Xn, how the first
#: failures relate). An odd variable's lower failure at a is first met at
#: [0,a], its upper one at b at [b,b]; a variable with both parities is
#: swept on the full grid.
PARITY_LAWS = (
    ("min(X1,X2)", "mul(L,neg(X1))", IDENTITY, [E, O, O], "upper-first"),
    ("mul(X1,X2)", "mul(L,neg(X1))", IDENTITY, [E, O, O], "upper-first"),
    ("max(X1,[1/3,2/3])", "mul(L,neg(X1))", IDENTITY, [E, O], "both-at-once"),
    ("min(X1,[1/2,1])", "mul(L,neg(X1))", IDENTITY, [E, O], "upper-first"),
    ("neg(mul(X1,X2))", "mul(L,X1)", NEG, [O, O, O], "lower-first"),
    ("neg(max(X1,[0,1/2]))", "mul(L,X1)", NEG, [O, O], "lower-first"),
    ("mul(X1,X2)", "mul(neg(L),X1)", IDENTITY, [O, E, E], "lower-first"),
    ("pow(X1,2)", "neg(mul(L,neg(X1)))", IDENTITY, [O, E], "lower-first"),
    ("neg(X1)", "X1", IDENTITY, [set(), O], "pass"),
    ("mul(X1,neg(X1))", "mul(L,X1)", IDENTITY, [M, M], "upper-first"),
    ("neg(X1)", "mul(L,X1)", IDENTITY, [M, O], "both-at-once"),
    # L under X1 (even) and X2 (odd) on the left
    ("min(X1,neg(X2))", "psum(L,X1)", IDENTITY, [M, E, O], "upper-first"),
    ("mul(X1,neg(X2))", "mul(L,X1)", IDENTITY, [M, E, O], "upper-first"),
    ("min(X1,X2)", "mul(X1,max(L,neg(L)))", IDENTITY, [M, E, E], "pass"),
    # X mixed, L not
    ("min(X1,X2)", "mul(L,max(X1,neg(X1)))", IDENTITY, [E, M, M],
     "upper-first"),
    ("X1", "mul(L,max(X1,neg(X1)))", IDENTITY, [E, M], "pass"),
    # L and an X mixed
    ("max(mul(X1,X2),neg(X1))", "mul(L,X1)", IDENTITY, [M, M, E],
     "both-at-once"),
    ("X1", "mul(max(L,neg(L)),max(X1,neg(X1)))", IDENTITY, [M, M], "pass"),
    # one mixed X between single-parity ones
    ("min(X1,mul(X2,neg(X2)),X3)", "mul(L,X1)", IDENTITY, [M, E, M, E],
     "upper-first"),
    ("min(neg(X1),max(X2,neg(X2)),X3)", "X1", IDENTITY, [set(), O, M, E],
     "pass"),
)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.kind)
@pytest.mark.parametrize("f_src,g_src,phi,law,kind", PARITY_LAWS,
                         ids=[f"{f}-{g}-{phi.name}" for f, g, phi, *_ in PARITY_LAWS])
def test_parity_law_matches_reference(f_src, g_src, phi, law, kind, mode):
    f, g = _dsl(f_src), _dsl_scaling(g_src)
    grid = make_grid(RESOLUTION[f.arity], mode)
    assert _homogeneity_law(f, g, phi, f) == law
    firsts = first_failures(f, g, phi, grid)
    assert (_kind(*firsts) if any(firsts) else "pass") == kind
    assert check_homogeneity(f, g, phi, grid) == reference_sweep(f, g, phi, grid)


def _negs(k):
    src = "neg(" * k + "X1" + ")" * k
    return compile_ivfunction(parse_expr(src, 1), 1)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.kind)
def test_deep_neg_chain_is_swept(mode):
    """A source at the declared depth limit, MAX_DEPTH - 1 `neg`s over X1,
    parses and sweeps on the test's own stack, and so does one a level
    less. An even number of `neg`s is X1, which is P-homogeneous, and an odd
    one neg(X1), which is not. One `neg` more is past the limit."""
    grid = make_grid(2, mode)

    def check(k):
        return check_homogeneity(_negs(k), P, IDENTITY, grid)

    assert check(0).verdict == "pass" and check(1).verdict == "fail"
    for k in (MAX_DEPTH - 2, MAX_DEPTH - 1):
        assert check(k) == check(k % 2)
    with pytest.raises(expr.ExprError, match="nested too deeply"):
        _negs(MAX_DEPTH)


#: a rises by one ulp to A_NEXT; rounded a + (1-a)*B fell there, from
#: 0.8821464334075363 to 0.8821464334075362
A = float.fromhex("0x1.056bcd04279eep-2")
A_NEXT = math.nextafter(A, 1.0)
B = float.fromhex("0x1.aef92dbc63747p-1")


def test_float_psum_ulp_step_matches_reference():
    """G is the constant [A, A_NEXT], and F = max(min(psum(X1,[B,B]),[0,0]),X1)
    is X1 on intervals, so the law holds. psum(G(Λ,X1),[B,B]) once came out
    inverted and raised; now it is an interval, and the sweep on the
    degenerate points gives the reference verdict."""
    g = ScalingFunction("const", Const(Fraction(A), Fraction(A_NEXT)))
    zero = Const(Fraction(0), Fraction(0))
    psum = Call("psum", (Var(1), Const(Fraction(B), Fraction(B))))
    f = compile_ivfunction(
        Call("max", (Call("min", (psum, zero)), Var(1))), 1)
    grid = make_grid(2, FLOAT)
    assert _homogeneity_law(f, g, IDENTITY, f) == [set(), set()]  # G reads neither
    report = check_homogeneity(f, g, IDENTITY, grid)
    assert report.verdict == "pass"
    assert report == reference_sweep(f, g, IDENTITY, grid)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.kind)
def test_each_kernel_is_compiled_once(monkeypatch, uncompiled, mode):
    grid, exact = make_grid(3, mode), mode.is_exact
    compiles, _ = count_kernels(monkeypatch)
    # construction traces no expression and compiles no kernel
    min2, mean2, product2 = (get_function(name, 2)
                             for name in ("min", "mean", "product"))
    p, phi = ScalingFunction("P", P.expr), OrderIso("identity", IDENTITY.expr)
    assert compiles[0] == 0
    # a passing check compiles G, phi, F and the sweep
    assert check_homogeneity(min2, p, phi, grid).passed
    assert compiles[0] == 4
    # F's kernel over the grid's denominators is kept, so comparing F with
    # another function compiles only the other's
    equal_on_grid(min2, mean2, grid)
    assert compiles[0] == 4 + 1
    # idempotency is a law of the one sweep too: it compiles G (pi2), phi
    # (the identity), whose kernel serves H (X1) as well, and the sweep,
    # which traces F(X1,...,X1) inline
    check_idempotency(mean2, grid)
    assert compiles[0] == 5 + 3
    # fixed point and bijectivity evaluate Intervals through the kernels of
    # F and G over denominator 1, which in float mode are the kernels the
    # sweeps use; the homogeneity and idempotency steps find every kernel
    # kept, and compile only their sweeps
    run_theorem1(mean2, p, grid.points[-1], grid)
    assert compiles[0] == 8 + 2 * exact + 2
    run_theorem1(mean2, p, grid.points[-1], grid)
    assert compiles[0] == 10 + 2 * exact + 2
    # a failing check compiles F and the sweep, and in exact mode also the
    # kernels over denominator 1 that its counterexample calls: those of F
    # and phi, as G's was compiled for bijectivity
    assert not check_homogeneity(product2, p, phi, grid).passed
    assert compiles[0] == 12 + 2 * exact + 2 + 2 * exact


_unit_doubles = st.floats(0.0, 1.0)


@settings(max_examples=500, deadline=None)
@given(_unit_doubles, _unit_doubles, _unit_doubles)
@example(A, A_NEXT, B)
def test_float_psum_is_monotone(a, a_next, b):
    """Float `psum` rises with each argument, is commutative and stays in
    [0,1], in the kernel and in `interval.prob_sum` alike."""
    a, a_next = sorted((a, a_next))
    fn, _ = _dsl("psum(X1,X2)").kernel(None)
    by_kernel = lambda x, y: fn((x, x), (y, y))[0]
    by_interval = lambda x, y: prob_sum(Interval(x, x), Interval(y, y)).lo
    for psum in (by_kernel, by_interval):
        assert 0 <= psum(a, b) <= psum(a_next, b) <= 1
        assert psum(b, a) <= psum(b, a_next)
        assert psum(a, b) == psum(b, a)
    assert fn((a, a_next), (b, b)) == (by_kernel(a, b), by_kernel(a_next, b))


EXPR_FS = (
    "max(neg(X1),[1/3,2/3])",
    "psum(neg(min(X1,X2)),mul(X2,[1/3,2/3]))",
    "mean(X1,[1/4,1/2],pow(X2,2))",
    "min(psum(X1,[1/3,1/3]),max(neg(X2),mul(X1,X2)))",
    "max(mul(X1,[1/3,2/3]),min(X2,[1/2,1]))",
    "psum(X1,mul(X2,[1/3,2/3]))",
)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.kind)
@pytest.mark.parametrize("src", EXPR_FS)
@pytest.mark.parametrize("g_src", ("mul(L,X1)", "psum(L,X1)", "mean(L,X1)"))
def test_dsl_sweep_matches_reference(src, g_src, mode):
    f = compile_ivfunction(parse_expr(src, 2), 2, name=src)
    g = compile_scaling(parse_expr(g_src, 1), name=g_src)
    grid = make_grid(3, mode)
    assert check_homogeneity(f, g, IDENTITY, grid) == reference_sweep(
        f, g, IDENTITY, grid
    )


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.kind)
@pytest.mark.parametrize("name", ("min", "max", "product", "mean"))
def test_dual_sweep_matches_reference(name, mode):
    f, g = dual_ns(get_function(name, 2)), dual_scaling_ns(P)
    grid = make_grid(3, mode)
    law = "def1-homogeneity-dual"
    assert check_homogeneity(f, g, IDENTITY, grid, law=law) == reference_sweep(
        f, g, IDENTITY, grid, law
    )


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.kind)
def test_equal_on_grid_matches_interval_comparison(mode):
    grid = make_grid(3, mode)
    fs = [get_function(name, 2) for name in FUNCTION_NAMES if name != "pow_2"]
    fs += [dual_ns(f) for f in fs]
    # X1 odd in both, equal; then X1 of both parities, where the first
    # two agree on the degenerate points only; then X1 of both parities
    # and X2 even, where the last two agree wherever X1 is degenerate
    fs += [compile_ivfunction(parse_expr(src, 2), 2, name=src)
           for src in ("min(neg(X1),X2)", "neg(max(X1,neg(X2)))",
                       "mean(X1,neg(X1))", "max(min(X1,[1/2,1/2]),[1/2,1/2])",
                       "min(mul(X1,neg(X1)),X2)", "min(mean(X1,neg(X1)),X2)",
                       "min([1/2,1/2],X2)")]
    for f, h in itertools.product(fs, repeat=2):
        f_ref, h_ref = oracle(f, mode), oracle(h, mode)
        want = all(
            mode.intervals_equal(f_ref(*xs), h_ref(*xs))
            for xs in itertools.product(grid.points, repeat=2)
        )
        assert equal_on_grid(f, h, grid) == want, (f.name, h.name)


def reference_idempotency(f, grid):
    """The idempotency check as a loop over Interval evaluations."""
    mode, n = grid.mode, f.arity
    f = oracle(f, mode)
    max_dev, cex = mode.zero(), None
    for x in grid.points:
        out = f(*(x,) * n)
        max_dev = max(max_dev, mode.deviation(out, x))
        if cex is None and not mode.intervals_equal(out, x):
            cex = Counterexample(None, (x,), out, x)
    return CheckReport("idempotency", "pass" if cex is None else "fail", cex,
                       len(grid), max_dev, mode, grid.resolution)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.kind)
@pytest.mark.parametrize("src", ("min(X1,X2)", "mul(X1,neg(X2))",
                                 "mean(X2,proj(1),[1/3,2/3])"))
def test_idempotency_is_one_run_of_the_sweep(monkeypatch, src, mode):
    """Idempotency is the law F(X1,...,X1) = X1 of the one generated loop,
    with G = pi2: `check_idempotency` builds one sweep, for F(X1,...,X1)
    and pi2, and runs it once."""
    from ivhom import homogeneity

    runs, sweep = [], homogeneity.sweep

    def recording(f, g, dens):
        fn, den = sweep(f, g, dens)
        return (lambda *args: runs.append((f.expr, g)) or fn(*args)), den

    monkeypatch.setattr(homogeneity, "sweep", recording)
    f, grid = _dsl(src), make_grid(3, mode)
    assert check_idempotency(f, grid) == reference_idempotency(f, grid)
    assert runs == [(expr.diagonal(f.expr), PI2)]


IDEMPOTENCY_FS = [
    compile_ivfunction(parse_expr(src, arity), arity, name=src)
    for src, arity in (("min(X1,[1/3,2/3])", 1), ("max(neg(X1),[1/3,2/3])", 1),
                       ("psum(X1,[1/3,2/3])", 1), ("mean(X1,X2,[1/3,2/3])", 2),
                       ("pow(mean(X1,[1/3,2/3]),2)", 1), ("neg(neg(X1))", 1))
]


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.kind)
@pytest.mark.parametrize("f", [*_registry(), *IDEMPOTENCY_FS],
                         ids=lambda f: f"{f.name}/{f.arity}")
def test_idempotency_matches_reference(f, mode):
    grid = make_grid(6, mode)
    report, want = check_idempotency(f, grid), reference_idempotency(f, grid)
    assert report == want
    assert type(report.max_deviation) is type(want.max_deviation)


def reference_bijective(g, a, grid):
    """Pairwise O(s^2) scan: the smallest colliding (i, j), else the first
    unattained grid point."""
    mode, pts = grid.mode, grid.points
    images = [oracle(g, mode)(x, a) for x in pts]
    for i, j in itertools.combinations(range(len(pts)), 2):
        if mode.intervals_equal(images[i], images[j]):
            return "collide", (pts[i], pts[j]), images[i], images[j]
    for target in pts:
        if not any(mode.intervals_equal(img, target) for img in images):
            return "unattained", (), target, target
    return None


@pytest.mark.parametrize("mode", (EXACT, FLOAT, NumericMode("float", 0.2)),
                         ids=("exact", "float", "float-eps0.2"))
@pytest.mark.parametrize("g_src", ("mul(L,X1)", "psum(L,X1)", "X1", "mean(L,X1)",
                                   "min(L,[1/2,1])", "max(L,neg(X1))",
                                   "mul(L,[9/10,9/10])"))
def test_section_bijective_matches_pairwise_scan(g_src, mode):
    g = compile_scaling(parse_expr(g_src, 1), name=g_src)
    grid = make_grid(4, mode)
    for a in grid.points:
        r = check_section_bijective(g, a, grid)
        want = reference_bijective(g, a, grid)
        if want is None:
            assert r.verdict == "pass" and r.counterexample is None
            continue
        kind, xs, lhs, rhs = want
        assert r.verdict == "fail"
        assert ("not injective" in r.note) == (kind == "collide")
        assert r.counterexample == Counterexample(None, xs, lhs, rhs)


def window_scan(values, eps):
    """The float lookup that `_float_lookup` replaced, kept as its
    reference: bisect the sorted lower endpoints, walk every image whose
    lower endpoint lies within eps, and keep those whose upper endpoint
    does too. On a grid a whole row shares one lower endpoint, so each
    lookup walks O(m) images."""
    values = sorted(values)
    los = [v[0] for v in values]

    def lookup(x):
        lo = hi = bisect_left(los, x[0])
        while lo > 0 and x[0] - los[lo - 1] <= eps:
            lo -= 1
        while hi < len(los) and los[hi] - x[0] <= eps:
            hi += 1
        return [v for v in values[lo:hi] if abs(v[1] - x[1]) <= eps]
    return lookup


@pytest.mark.parametrize("g_src,a,eps,m,note", [
    ("mul(L,X1)", "[1,1]", 1e-9, 30, ""),
    # 1 - (1 - L) is L only within eps
    ("psum(L,X1)", "[0,0]", 1e-9, 29, ""),
    ("psum(L,X1)", "[0,0]", 0.0, 29, ": not surjective"),
    # grid neighbours 1/30 apart are equal within eps
    ("mul(L,X1)", "[1,1]", 0.05, 30, ": not injective"),
    ("min(L,[1/2,1])", "[1,1]", 1e-9, 30, ": not injective"),
    ("mul(L,X1)", "[0,0]", 1e-9, 7, ": not injective"),
    ("max(L,neg(X1))", "[1/3,2/3]", 0.01, 12, ": not injective"),
    ("mul(L,X1)", "[1/2,1/2]", 1e-9, 30, ": not surjective"),
    ("mean(L,X1)", "[1,1]", 0.01, 30, ": not surjective"),
    ("mean(L,X1)", "[1/3,2/3]", 0.003, 30, ": not surjective"),
])
def test_float_bijectivity_lookup_matches_window_scan(g_src, a, eps, m, note):
    """`_float_lookup` finds, for every image and every grid target, the
    images that the window scan finds, in the same order; so the colliding
    pairs, and the counterexample, are the same."""
    mode = NumericMode("float", eps)
    g, grid = compile_scaling(parse_expr(g_src, 1)), make_grid(m, mode)
    a = parse_interval(a, mode)
    fn, _ = g.kernel(None)
    images = {fn((x.lo, x.hi), (a.lo, a.hi)) for x in grid.points}
    lookup, want = _float_lookup(images, eps), window_scan(images, eps)
    for x in [*images, *((t.lo, t.hi) for t in grid.points)]:
        assert lookup(x) == want(x)
    report = check_section_bijective(g, a, grid)
    assert report.note.startswith("grid-certified" + note)
    assert report.verdict == ("fail" if note else "pass")


def test_float_constants_are_doubles():
    f = compile_ivfunction(parse_expr("min(X1,[1/3,2/3])", 1), 1)
    half = Interval(0.5, 0.5)
    assert type(f(half).lo) is float and type(f(half).hi) is float
    g = compile_ivfunction(parse_expr("psum([1/3,2/3],X1)", 1), 1)
    # 1 - (1 - 1/3) * (1 - 0.5) in doubles, as `interval.prob_sum` computes it
    third = 1 / 3
    assert g(half).lo == 1 - (1 - third) * (1 - 0.5) == 0.6666666666666666
    # exact arguments still meet exact constants
    assert g(Interval(Fraction(1, 2), Fraction(1, 2))).lo == Fraction(2, 3)


@pytest.mark.parametrize("src", ("pow(X1,1000)",  # the largest exponent
                                 "mean(" + ",".join(["X1"] * 3000) + ")"))
def test_kernel_of_long_expression_compiles(src):
    # no generated expression may nest as deep as the source is long
    f = compile_ivfunction(parse_expr(src, 1), 1)
    fn, den = f.kernel((2,))
    lo, hi = fn((1, 2))
    want = oracle(f, EXACT)(Interval(Fraction(1, 2), Fraction(1, 1)))
    assert (Fraction(lo, den), Fraction(hi, den)) == (want.lo, want.hi)
    fn, _ = f.kernel(None)
    want = oracle(f, FLOAT)(Interval(0.5, 1.0))
    assert fn((0.5, 1.0)) == (want.lo, want.hi)


# --- random expressions: exact kernel == Fraction interval evaluation ---

_fractions = st.builds(Fraction, st.integers(0, 6), st.integers(1, 6)).filter(
    lambda q: q <= 1
)


@st.composite
def _consts(draw):
    lo, hi = sorted((draw(_fractions), draw(_fractions)))
    return Const(lo, hi)


def _calls(children):
    binary = st.sampled_from(("min", "max", "mul", "psum"))
    return st.one_of(
        st.builds(lambda op, args: Call(op, tuple(args)), binary,
                  st.lists(children, min_size=2, max_size=3)),
        st.builds(lambda a: Call("neg", (a,)), children),
        st.builds(lambda args: Call("mean", tuple(args)),
                  st.lists(children, min_size=1, max_size=3)),
        st.builds(Pow, children, st.integers(1, 3)),
    )


_exprs = st.recursive(
    st.one_of(st.builds(Var, st.integers(1, 3)), _consts()), _calls, max_leaves=8
)


@st.composite
def _arguments(draw):
    """Three intervals, each over its own denominator."""
    dens, xs = [], []
    for _ in range(3):
        d = draw(st.integers(1, 7))
        lo, hi = sorted((draw(st.integers(0, d)), draw(st.integers(0, d))))
        dens.append(d)
        xs.append((lo, hi))
    return tuple(dens), xs


@settings(max_examples=300, deadline=None)
@given(_exprs, _arguments(), st.integers(1, 5))
def test_exact_kernel_equals_interval_evaluation(node, args, scale):
    dens, xs = args
    f = compile_ivfunction(node, 3)
    fn, den = f.kernel(dens)
    intervals = [Interval(Fraction(lo, d), Fraction(hi, d))
                 for (lo, hi), d in zip(xs, dens)]
    want = oracle(f, EXACT)(*intervals)
    lo, hi = fn(*xs)
    assert (Fraction(lo, den), Fraction(hi, den)) == (want.lo, want.hi)
    assert f(*intervals) == want
    # two kernels over different denominators compare cross-multiplied, as
    # `equal_on_grid` compares them: mean(node,node) has f's values over
    # twice its denominator, and the constant [0,1/scale] is over `scale`
    twice = compile_ivfunction(Call("mean", (node, node)), 3)
    fn2, den2 = twice.kernel(dens)
    assert den2 == 2 * den
    assert [x * den2 for x in (lo, hi)] == [x * den for x in fn2(*xs)]
    other = compile_ivfunction(Const(Fraction(0), Fraction(1, scale)), 3)
    fn3, den3 = other.kernel(dens)
    assert den3 == scale
    for x, y in zip((lo, hi), fn3(*xs)):
        assert (x * den3 == y * den) == (Fraction(x, den) == Fraction(y, den3))


@settings(max_examples=300, deadline=None)
@given(_exprs, _arguments())
def test_float_kernel_equals_interval_evaluation(node, args):
    dens, xs = args
    floats = [(lo / d, hi / d) for (lo, hi), d in zip(xs, dens)]
    f = compile_ivfunction(node, 3)
    fn, den = f.kernel(None)
    intervals = [Interval(lo, hi) for lo, hi in floats]
    # every op is monotone, so no rounding can breach an interval
    want = oracle(f, FLOAT)(*intervals)
    assert den == 1 and fn(*floats) == (want.lo, want.hi)
    assert f(*intervals) == want


# --- random laws: every sweep == the reference over the full grid ---


def _random_exprs(leaves, max_leaves):
    """Random ASTs over `leaves` and constants, with `neg`, `pow` and
    mixed parities."""
    return st.recursive(st.one_of(*leaves, _consts()), _calls,
                        max_leaves=max_leaves)


#: F (and H) over X1..Xn, G and phi
_F_EXPRS = {n: _random_exprs([st.builds(Var, st.integers(1, n))], 6)
            for n in (1, 2, 3)}
_G_EXPRS = _random_exprs([st.just(LVar()), st.just(Var(1))], 4)
_PHI_EXPRS = _random_exprs([st.just(Var(1))], 3)


@st.composite
def _resolution_arity(draw):
    """m = 1..3 and an arity n = 1..2, or 3 at m <= 2."""
    m = draw(st.integers(1, 3))
    return m, draw(st.integers(1, 3 if m <= 2 else 2))


@st.composite
def _random_laws(draw):
    m, n = draw(_resolution_arity())
    return (m, compile_ivfunction(draw(_F_EXPRS[n]), n),
            compile_scaling(draw(_G_EXPRS)),
            OrderIso("phi", draw(_PHI_EXPRS)))


@st.composite
def _random_pairs(draw):
    """F and H of one arity, where H is often F in another form."""
    m, n = draw(_resolution_arity())
    f = draw(_F_EXPRS[n])
    h = draw(st.one_of(
        _F_EXPRS[n], st.just(Call("neg", (Call("neg", (f,)),))),
        st.builds(lambda op, e: Call(op, (f, e)),
                  st.sampled_from(("min", "max")), _F_EXPRS[n])))
    return m, compile_ivfunction(f, n), compile_ivfunction(h, n)


@settings(max_examples=300, deadline=None)
@given(_random_laws())
def test_random_law_matches_reference(law):
    """A random F over X1..Xn, G over L and X1 and phi over X1: the sweep
    gives the reference report in both modes."""
    m, f, g, phi = law
    for mode in MODES:
        grid = make_grid(m, mode)
        assert check_homogeneity(f, g, phi, grid) == reference_sweep(
            f, g, phi, grid)


@settings(max_examples=300, deadline=None)
@given(_random_pairs())
# X1 of both parities: equal on the degenerate points only, and everywhere
@example((3, _dsl("mean(X1,neg(X1))"),
          compile_ivfunction(parse_expr("[1/2,1/2]", 1), 1)))
@example((2, _dsl("min(X1,neg(X1))"), _dsl("min(neg(X1),X1)")))
def test_random_pair_equal_on_grid_matches_full_comparison(pair):
    """`equal_on_grid` against an oracle comparison on all s^n tuples."""
    m, f, h = pair
    for mode in MODES:
        grid = make_grid(m, mode)
        f_ref, h_ref = oracle(f, mode), oracle(h, mode)
        want = all(mode.intervals_equal(f_ref(*xs), h_ref(*xs))
                   for xs in itertools.product(grid.points, repeat=f.arity))
        assert equal_on_grid(f, h, grid) == want


@st.composite
def _random_idempotency(draw):
    """m = 1..4 and a random F of arity 1..3."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    return m, compile_ivfunction(draw(_F_EXPRS[n]), n)


@settings(max_examples=200, deadline=None)
@given(_random_idempotency())
# X1 of both parities, checked on the full grid: idempotent; and failing
# at [1,1] alone, where the degenerate sweep would map the upper failure
# to [0,1]
@example((4, _dsl("max(X1,min(X1,neg(X1)))")))
@example((1, _dsl("min(X1,neg(X1))")))
@example((3, _dsl("mean(X1,X2,min(X1,X2))")))
def test_random_idempotency_matches_reference(case):
    """A random F, with `neg`, `pow`, constants and mixed parities: the
    idempotency check gives the reference report in both modes."""
    m, f = case
    for mode in MODES:
        grid = make_grid(m, mode)
        report, want = check_idempotency(f, grid), reference_idempotency(f, grid)
        assert report == want
        assert type(report.max_deviation) is type(want.max_deviation)

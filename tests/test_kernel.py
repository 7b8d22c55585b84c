"""The scalar-endpoint kernel against `Interval` evaluation.

The sweeps of `homogeneity` run on the kernels that `IVFunction.kernel`
compiles; these tests hold them to reference sweeps written here with
`IVFunction.__call__`, which evaluates through the ops of `interval`.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ivhom.expr import (
    Call,
    Const,
    Pow,
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
from ivhom.homogeneity import (
    CheckReport,
    Counterexample,
    check_homogeneity,
    check_section_bijective,
    equal_on_grid,
    make_grid,
)
from ivhom.interval import EXACT, FLOAT, Interval, IntervalError, NumericMode

MODES = (EXACT, FLOAT)
#: resolution per arity, so that every reference sweep stays small
RESOLUTION = {1: 4, 2: 3, 3: 2}


def reference_sweep(f, g, phi, grid, law="def1-homogeneity"):
    """The homogeneity sweep as nested loops over Interval evaluations."""
    mode = grid.mode
    max_dev, cex = mode.zero(), None
    for lam in grid.points:
        for xs in itertools.product(grid.points, repeat=f.arity):
            lhs = f(*(g(lam, x) for x in xs))
            rhs = g(phi(lam), f(*xs))
            max_dev = max(max_dev, mode.deviation(lhs, rhs))
            if cex is None and not mode.intervals_equal(lhs, rhs):
                cex = Counterexample(lam, xs, lhs, rhs)
    return CheckReport(
        law=law,
        verdict="pass" if cex is None else "fail",
        counterexample=cex,
        evaluations=len(grid) ** (f.arity + 1),
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


CASES = [
    pytest.param(f, g, phi, mode, id=f"{f.name}/{f.arity}-{g.name}-{phi.name}-{mode.kind}")
    for f in _registry()
    for g in (P, P_NS, PI2)
    for mode in MODES
    for phi in ((IDENTITY,) if mode.is_exact else (IDENTITY, SQUARE))
]


@pytest.mark.parametrize("f,g,phi,mode", CASES)
def test_sweep_matches_reference(f, g, phi, mode):
    grid = make_grid(RESOLUTION[f.arity], mode)
    assert check_homogeneity(f, g, phi, grid) == reference_sweep(f, g, phi, grid)


EXPR_FS = (
    "max(neg(X1),[1/3,2/3])",
    "psum(neg(min(X1,X2)),mul(X2,[1/3,2/3]))",
    "mean(X1,[1/4,1/2],pow(X2,2))",
    "min(psum(X1,[1/3,1/3]),max(neg(X2),mul(X1,X2)))",
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
    for f, h in itertools.product(fs, repeat=2):
        want = all(
            mode.intervals_equal(f(*xs), h(*xs))
            for xs in itertools.product(grid.points, repeat=2)
        )
        assert equal_on_grid(f, h, grid) == want, (f.name, h.name)


def reference_bijective(g, a, grid):
    """Pairwise O(s^2) scan: the smallest colliding (i, j), else the first
    unattained grid point."""
    mode, pts = grid.mode, grid.points
    images = [g(x, a) for x in pts]
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


def test_float_constants_are_doubles():
    f = compile_ivfunction(parse_expr("min(X1,[1/3,2/3])", 1), 1)
    half = Interval(0.5, 0.5)
    assert type(f(half).lo) is float and type(f(half).hi) is float
    g = compile_ivfunction(parse_expr("psum([1/3,2/3],X1)", 1), 1)
    # 1/3 + (1 - 1/3) * 0.5 in doubles, as `interval.prob_sum` computes it
    third = 1 / 3
    assert g(half).lo == third + (1 - third) * 0.5 == 0.6666666666666667
    # exact arguments still meet exact constants
    assert g(Interval(Fraction(1, 2), Fraction(1, 2))).lo == Fraction(2, 3)


def test_kernel_breach_raises_interval_error():
    neg = compile_ivfunction(parse_expr("neg(X1)", 1), 1)
    fn, den = neg.kernel((4,))
    assert fn((1, 3)) == (1, 3) and den == 4
    with pytest.raises(IntervalError, match="inverted"):
        fn((3, 2))  # [3/4,1/2] is no interval
    fn, _ = neg.kernel(None)
    with pytest.raises(IntervalError):
        fn((0.5, 1.5))


@pytest.mark.parametrize("src", ("pow(X1,5000)",
                                 "mean(" + ",".join(["X1"] * 3000) + ")"))
def test_kernel_of_long_expression_compiles(src):
    # no generated expression may nest as deep as the source is long
    f = compile_ivfunction(parse_expr(src, 1), 1)
    x = Interval(Fraction(1, 2), Fraction(1, 1))
    fn, den = f.kernel((2,))
    lo, hi = fn((1, 2))
    assert (Fraction(lo, den), Fraction(hi, den)) == (f(x).lo, f(x).hi)
    fn, _ = f.kernel(None)
    assert fn((0.5, 1.0)) == (f(Interval(0.5, 1.0)).lo, f(Interval(0.5, 1.0)).hi)


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
    want = f(*(Interval(Fraction(lo, d), Fraction(hi, d))
               for (lo, hi), d in zip(xs, dens)))
    lo, hi = fn(*xs)
    assert (Fraction(lo, den), Fraction(hi, den)) == (want.lo, want.hi)
    scaled, out_den = f.kernel(dens, den * scale)
    assert out_den == den * scale and scaled(*xs) == (lo * scale, hi * scale)


@settings(max_examples=300, deadline=None)
@given(_exprs, _arguments())
def test_float_kernel_equals_interval_evaluation(node, args):
    dens, xs = args
    floats = [(lo / d, hi / d) for (lo, hi), d in zip(xs, dens)]
    f = compile_ivfunction(node, 3)
    fn, den = f.kernel(None)
    try:
        want = f(*(Interval(lo, hi) for lo, hi in floats))
    except IntervalError:  # a rounding breach must be found by both
        with pytest.raises(IntervalError):
            fn(*floats)
        return
    assert den == 1 and fn(*floats) == (want.lo, want.hi)

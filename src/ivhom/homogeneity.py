"""Exhaustive grid checks for homogeneity, idempotency, and duality laws.

Every check covers the full endpoint grid; there is no sampling. A "pass"
verdict therefore always means exhaustive over the stated resolution, and
a "fail" verdict carries the lexicographically smallest failing tuple in
grid order.

A grid is its resolution m and its numeric mode. The engine names a grid
point by its numerator pair (i, j) over m, i <= j, and grid order is the
order of the pairs. The sweeps run on the scalar kernels of `expr`
(`IVFunction.kernel`, each compiled once for its denominators), on the
pairs themselves in exact mode and on the doubles (i/m, j/m) in float
mode, which `_coordinates` alone makes for every scan. Homogeneity and
idempotency are each a law F(G(L,X1),...,G(L,Xn)) = G(phi(L),
H(X1,...,Xn)) (`_sweep_law`), checked in the one loop that
`compiler.sweep` generates for it; the comparison of two functions
(`equal_on_grid`) is a yes/no scan that stops at the first difference.
Each variable with one parity of `neg`s above it is swept on the m+1
degenerate pairs (a, a) alone, one with both parities on all s pairs, and
one the law does not read on the pair (0, 0) (`_coordinates`), which
covers every grid tuple by construction. An `Interval` is made from a
pair only for a value that a report shows (`Grid.point`).

Some laws hold by an identity that F's AST shows (`_polynomial`). An F
built from `min`, `max`, `mean` and `neg` over variables, each under an
even number of `neg`s, in exact mode, or from `min` and `max` alone in
float mode, is idempotent, and commutes with every non-decreasing map of
the endpoints, or, if it reads `mean`, every non-decreasing affine one.
So its idempotency, its fixed point in theorem1, and its homogeneity with
phi the identity and a G of that kind in X1 (`check_homogeneity`) are
reported as their sweeps would report them, with no kernel compiled.

No function here checks a budget or takes a worker count: the command
line (`cli`) is the one budget gate, and it refuses an over-budget run
before it imports this module. A certified law is charged as if swept.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections.abc import Callable

from .expr import Call, Pow, Var, diagonal, parities
from .gate import UnsupportedModeError, grid_size
from .interval import (EXACT, TYPE_CHECKING, Interval, NumericMode, _Value,
                       fraction)
from .functions import (
    IDENTITY,
    PI2,
    IVFunction,
    OrderIso,
    P,
    ScalingFunction,
    dual_ns,
    dual_scaling_ns,
)

if TYPE_CHECKING:
    from .interval import Number


class Grid(_Value):
    """All intervals with endpoints in {0, 1/m, ..., 1}, sorted by (lo, hi):
    s = (m+1)(m+2)/2 points at resolution m. A grid holds only its
    resolution and mode; its points are the numerator pairs (i, j) over m,
    i <= j, in order, and `point` makes the `Interval` of one of them."""

    __slots__ = ("resolution", "mode")

    def __init__(self, resolution: int, mode: NumericMode) -> None:
        super().__init__(resolution, mode)

    def __len__(self) -> int:
        return grid_size(self.resolution)

    def point(self, pair: tuple[int, int]) -> Interval:
        """The grid point with numerators `pair` over m, as an `Interval`."""
        (i, j), m = pair, self.resolution
        if self.mode.is_exact:
            return Interval(fraction(i, m), fraction(j, m))
        return Interval(i / m, j / m)


def make_grid(m: int, mode: NumericMode = EXACT) -> Grid:
    if m < 1:
        raise ValueError("grid resolution must be >= 1")
    return Grid(resolution=m, mode=mode)


def _pairs(m: int) -> list[tuple[int, int]]:
    """The numerator pairs of all s grid points, in grid order."""
    return [(i, j) for i in range(m + 1) for j in range(i, m + 1)]


class Counterexample(_Value):
    __slots__ = ("lam", "xs", "lhs", "rhs")

    def __init__(self, lam: Interval | None, xs: tuple[Interval, ...],
                 lhs: Interval | None, rhs: Interval | None) -> None:
        super().__init__(lam, xs, lhs, rhs)


class CheckReport(_Value):
    __slots__ = ("law", "verdict", "counterexample", "evaluations",
                 "max_deviation", "mode", "resolution", "note")

    def __init__(self, law: str, verdict: str,  # verdict: "pass" | "fail"
                 counterexample: Counterexample | None, evaluations: int,
                 max_deviation: Number, mode: NumericMode, resolution: int,
                 note: str | None = None) -> None:
        super().__init__(law, verdict, counterexample, evaluations,
                         max_deviation, mode, resolution, note)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


class PipelineReport(_Value):
    __slots__ = ("pipeline", "status", "checks", "mode", "resolution")

    def __init__(self, pipeline: str,
                 status: str,  # "confirmed" | "not-applicable" | "violation"
                 checks: tuple[tuple[str, CheckReport], ...], mode: NumericMode,
                 resolution: int) -> None:
        super().__init__(pipeline, status, checks, mode, resolution)

    @property
    def verdict(self) -> str:
        return "pass" if all(r.passed for _, r in self.checks) else "fail"


def _dens(grid: Grid, *dens: int) -> tuple[int, ...] | None:
    """Kernel denominators: `dens` in exact mode, None in float mode."""
    return dens if grid.mode.is_exact else None


def _tolerance(mode: NumericMode) -> Number:
    """Two kernel results are equal when their deviation is within this.

    In float mode that is the eps rule of `NumericMode.intervals_equal`;
    in exact mode equality is literal."""
    return 0 if mode.is_exact else mode.eps


def _compose(a: set, b: set) -> set:
    """The parities of a variable whose occurrences in `b` sit under
    occurrences in `a` of the slot it fills."""
    return {x ^ y for x in a for y in b}


def _report(law: str, cex: Counterexample | None, evaluations: int,
            max_deviation: Number, grid: Grid,
            note: str | None = None) -> CheckReport:
    """The report of a check on `grid` that found `cex`, None for a pass."""
    return CheckReport(law, "pass" if cex is None else "fail", cex,
                       evaluations, max_deviation, grid.mode, grid.resolution,
                       note)


def _homogeneity_law(f: IVFunction, g: ScalingFunction, phi: OrderIso,
                     h: IVFunction) -> list[set]:
    """The parities of `neg`s above each of L, X1..Xn in the law of
    `_sweep_law`, decided from the ASTs alone: {0}, {1}, {0, 1}, or empty
    for a variable the law does not read.

    `neg` maps [a,b] to [1-b,1-a], and every other op computes a lower
    endpoint from lower endpoints only and an upper one from upper ones
    only. So an occurrence of a variable under an even number of `neg`s
    feeds its lower endpoint to the lower endpoint of the result, and one
    under an odd number its upper endpoint. The parities compose through
    the law: X_i has those of F's and H's X_i under G's X1; L has those of
    G's L under each of F's X_i on the left, and those of phi's X1 under
    G's L on the right.
    """
    pf, pg, pphi, ph = (parities(x.expr) for x in (f, g, phi, h))
    gl, gx = pg.get("L", set()), pg.get("X1", set())
    fx = [pf.get(p, set()) for p in f.params]
    lam = _compose(gl, pphi.get("X1", set())).union(*(_compose(p, gl) for p in fx))
    return [lam, *(_compose(p | ph.get(x, set()), gx)
                   for p, x in zip(fx, f.params))]


#: the ops on the path to X1 of a G that `_affine` accepts
_AFFINE_OPS = {"mul", "psum", "mean", "neg"}


def _polynomial(f: IVFunction, mode: NumericMode) -> set[str] | None:
    """The ops of F if its structure alone decides its laws in `mode`,
    else None: F is built from `min`, `max`, `mean` and `neg` in exact
    mode, or `min` and `max` in float mode, over variables only, with no
    constant or `pow`, and no variable sits under an odd number of
    `neg`s.

    In exact mode such an F is a `neg`-free polynomial of `min`, `max` and
    `mean`: neg(min(x,y)) = max(neg(x),neg(y)), neg(mean(x,...)) =
    mean(neg(x),...) and neg(neg(x)) = x hold in rationals, so every `neg`
    moves down to a leaf, where an even number cancels. Such a polynomial
    is idempotent, F(X,...,X) = X, and it commutes with each map h applied
    to every endpoint alike, h(F(x1,...,xn)) = F(h(x1),...,h(xn)), when h
    is non-decreasing and, if F reads `mean`, also affine: h commutes with
    `min` and `max` because it keeps order, and with `mean` because it
    keeps sums. Lattice polynomials are exactly the order-invariant
    aggregation functions (J.-L. Marichal, J. Math. Psych. 46, 2002).

    In float mode F is a polynomial of `min` and `max` alone, for which
    both laws hold bit for bit: `min` and `max` return one of their
    arguments, and h, one fixed sequence of rounded ops, is deterministic.
    A rounded `mean` need not keep them, nor 1-(1-x) = x hold.
    """
    allowed = {"min", "max", "mean", "neg"} if mode.is_exact else {"min", "max"}
    ops, stack = set(), [f.expr]
    while stack:
        n = stack.pop()
        if isinstance(n, Call) and n.ident in allowed:
            ops.add(n.ident)
            stack += n.args
        elif not isinstance(n, Var):
            return None
    if any(p != {0} for p in parities(f.expr).values()):
        return None
    return ops


def _affine(g: ScalingFunction) -> bool:
    """Whether, for a fixed L, each endpoint of G is an affine function of
    one endpoint of X1: X1 is read at most once, and only under calls of
    `_AFFINE_OPS`, each affine in an argument whose others are fixed,
    psum(c,x) = c + (1-c)x and neg(x) = 1-x among them."""
    reads, stack = 0, [(g.expr, True)]
    while stack:
        n, affine = stack.pop()
        if isinstance(n, Var):  # a scaling's variable leaf is X1
            reads += 1
            if not affine or reads > 1:
                return False
        elif isinstance(n, Pow):
            stack.append((n.arg, False))
        elif isinstance(n, Call):
            stack += [(a, affine and n.ident in _AFFINE_OPS) for a in n.args]
    return True


def _coordinates(grid: Grid, variables: list[set]) -> list[tuple[list, ...]]:
    """For each variable's parities, the points its coordinate sweeps, as
    kernel arguments, and the maps from a swept position to the first grid
    pair at which a lower, and an upper, failure there is met.

    The lower law reads the lower endpoint of an even variable, the upper
    one of an odd variable and both of a mixed one; the upper law the other
    endpoint of each. So a coordinate of one parity sweeps the m+1
    degenerate pairs (a, a), which give both endpoints at a, and a failure
    at a is first met at (a, a) if read from the lower endpoint and at
    (0, a) if from the upper one. A mixed coordinate sweeps all s pairs and
    maps to itself. A coordinate the law does not read sweeps the one pair
    (0, 0): every value of it gives the same two sides, and (0, 0) is the
    lowest grid pair. Every map rises, so the first failure in sweep order
    maps to the lowest failing grid tuple (`_lowest_failure`).

    The swept points are the pairs themselves in exact mode and the doubles
    (i/m, j/m) in float mode. Each distinct pair list is converted once, so
    coordinates that sweep the same pairs share one point list, and with it
    one G row of the sweep.
    """
    m = grid.resolution
    low, unread = range(m + 1), [(0, 0)]
    diag, zero = [(a, a) for a in low], [(0, a) for a in low]
    every = _pairs(m) if any(len(p) > 1 for p in variables) else []
    at_diag, at_every, at_unread = (
        pairs if grid.mode.is_exact else [(i / m, j / m) for i, j in pairs]
        for pairs in (diag, every, unread))
    return [(at_every, every, every) if len(p) > 1 else
            (at_diag, zero, diag) if 1 in p else
            (at_diag, diag, zero) if p else (at_unread, unread, unread)
            for p in variables]


def _lowest_failure(coords: list[tuple[list, ...]], first_lo: tuple | None,
                    first_hi: tuple | None) -> tuple | None:
    """The lowest failing grid tuple, as pairs, from the positions in the
    swept points of `coords` of the first lower and the first upper failure:
    each is mapped to the grid by its side's maps, and the earlier of the
    two is the lowest. None when neither law failed."""
    hits = [tuple(c[side][i] for c, i in zip(coords, at))
            for side, at in ((1, first_lo), (2, first_hi)) if at is not None]
    return min(hits, default=None)


def _sweep_law(f: IVFunction, g: ScalingFunction, phi: OrderIso,
               h: IVFunction, grid: Grid) -> tuple[tuple | None, Number]:
    """Sweep F(G(L,X1),...,G(L,Xn)) = G(phi(L), H(X1,...,Xn)) over
    grid^(n+1), and return the lowest failing grid tuple, as pairs (None
    when the law holds), and the largest endpoint deviation.

    Each of L, X1..Xn sweeps the points that `_coordinates` gives for its
    parities in the law (`_homogeneity_law`). The kernel of H gives its
    results on the product of the X coordinates' points, in order, which
    the law's one generated loop (`compiler.sweep`) reads once per Λ
    point: as a list when Λ sweeps several points, else as they are made.
    In exact mode both sides come out over one common denominator, so they
    compare as integers, and equality is literal; in float mode two
    endpoints are equal within the mode's eps. `_lowest_failure` maps the
    first failure of each endpoint to the lowest failing grid tuple.
    """
    from .compiler import sweep

    mode, m, n = grid.mode, grid.resolution, f.arity
    coords = _coordinates(grid, _homogeneity_law(f, g, phi, h))
    # the X_i that share a point list share one G row in the sweep
    lams, *xpts = (points for points, _, _ in coords)
    g_fn, dg = g.kernel(_dens(grid, m, m))
    phi_fn, dphi = phi.kernel(_dens(grid, m))
    h_fn, dh = h.kernel(_dens(grid, *(m,) * n))
    # compiled before any result of H is made, so that a law the generator
    # refuses is refused at once
    sweep_fn, den = sweep(f, g, _dens(grid, dg, dphi, dh))
    # read once per Λ point, so made a list only when there are several
    h_table = itertools.starmap(h_fn, itertools.product(*xpts))
    if len(lams) > 1:
        h_table = list(h_table)
    max_dev, first_lo, first_hi = sweep_fn(lams, xpts, h_table, g_fn, phi_fn,
                                           _tolerance(mode))
    return (_lowest_failure(coords, first_lo, first_hi),
            fraction(max_dev, den) if mode.is_exact else max_dev)


def check_homogeneity(
    f: IVFunction,
    g: ScalingFunction,
    phi: OrderIso,
    grid: Grid,
    law: str = "def1-homogeneity",
) -> CheckReport:
    """Sweep F(G(L,X1),...,G(L,Xn)) = G(phi(L), F(X1,...,Xn)) over
    grid^(n+1): the law of `_sweep_law` with H = F. The counterexample is
    the lowest failing grid tuple, and `evaluations` counts the s^(n+1)
    grid tuples the verdict covers.

    The law holds when F passes `_polynomial`, phi is X1, no X1 in G sits
    under an odd number of `neg`s, and G is `_affine` if F reads `mean`.
    Fix Λ: each endpoint of G(Λ,·) is then a map h of the same endpoint of
    its argument, non-decreasing, since every op but `neg` is (in float
    mode each rounded op too) and an even number of `neg`s cancels, and
    affine where asked. So h commutes with F, and the left side,
    F(h(x1),...,h(xn)), is h(F(x1,...,xn)), the right side. Such a law
    gets the report its sweep would give, a pass with deviation 0, and
    compiles no kernel.
    """
    if grid.mode.is_exact and not phi.exact_ok:
        raise UnsupportedModeError(
            f"order isomorphism {phi.name!r} has an irrational inverse; "
            "it is only available in float mode"
        )
    evaluations = len(grid) ** (f.arity + 1)
    ops = _polynomial(f, grid.mode)
    # an order isomorphism reads only X1, so a variable leaf is X1
    if (ops is not None and isinstance(phi.expr, Var)
            and parities(g.expr).get("X1", {0}) == {0}
            and ("mean" not in ops or _affine(g))):
        return _report(law, None, evaluations, grid.mode.zero(), grid)
    failure, max_dev = _sweep_law(f, g, phi, f, grid)
    cex = None
    if failure is not None:
        lam, *xs = map(grid.point, failure)
        cex = Counterexample(
            lam=lam,
            xs=tuple(xs),
            lhs=f(*(g(lam, x) for x in xs)),
            rhs=g(phi(lam), f(*xs)),
        )
    return _report(law, cex, evaluations, max_dev, grid)


def equal_on_grid(f: IVFunction, h: IVFunction, grid: Grid) -> bool:
    """Whether F and H (of one arity) agree on all s^n grid tuples, by the
    equality rule of `_sweep_law`, on the kernels of both. Each result is
    compared cross-multiplied by the other kernel's denominator: in exact
    mode that compares the two values, and in float mode both denominators
    are 1, so the doubles compare as they are.

    F = H is the law F(pi2(L,X1),...) = pi2(L, H(X1,...)), so each X_i
    sweeps the points that `_coordinates` gives for its parities in that
    law (`_homogeneity_law`), and the scan stops at the first difference.
    """
    coords = _coordinates(grid, _homogeneity_law(f, PI2, IDENTITY, h)[1:])
    dens = _dens(grid, *(grid.resolution,) * f.arity)
    (f_fn, df), (h_fn, dh) = f.kernel(dens), h.kernel(dens)
    tol = _tolerance(grid.mode)
    for xs in itertools.product(*(points for points, _, _ in coords)):
        (a, b), (c, d) = f_fn(*xs), h_fn(*xs)
        if abs(a * dh - c * df) > tol or abs(b * dh - d * df) > tol:
            return False
    return True


def check_idempotency(f: IVFunction, grid: Grid) -> CheckReport:
    """Check F(X,...,X) = X for every grid point: the law of `_sweep_law`
    with F(X1,...,X1) (`expr.diagonal`) for F, pi2 for G, and the identity
    for phi and for H, whose right side is X1.

    So X sweeps the pairs that `_coordinates` gives for the parities of
    every X_i in F, and the even one of X itself on the right: an F with no
    X_i under an odd number of `neg`s is checked on the m+1 degenerate
    points, and one with such an X_i on all s. Λ, which pi2 does not read,
    sweeps one pair. F(X1,...,X1) is traced inline in F's own operation
    order, so float results are those of F at (X,...,X). An F that passes
    `_polynomial` is idempotent, and gets the report its sweep would give,
    a pass with deviation 0, without compiling a kernel.
    """
    if _polynomial(f, grid.mode) is not None:
        return _report("idempotency", None, len(grid), grid.mode.zero(), grid)
    diag = IVFunction(f.name, 1, diagonal(f.expr))
    failure, max_dev = _sweep_law(diag, PI2, IDENTITY, IDENTITY, grid)
    cex = None
    if failure is not None:
        x = grid.point(failure[1])
        cex = Counterexample(lam=None, xs=(x,), lhs=f(*(x,) * f.arity), rhs=x)
    return _report("idempotency", cex, len(grid), max_dev, grid)


def check_section_bijective(g: ScalingFunction, a: Interval,
                            grid: Grid) -> CheckReport:
    """Grid-certify that X -> G(X, A) is a bijection.

    Pass means injective on grid points and grid-surjective (every grid
    point is attained up to numeric equality). This certifies the premise
    on the grid only; it proves nothing about the continuum.

    The images are the results of G's kernel over the grid's denominators,
    which the homogeneity step sweeps too, grouped by value, so exact mode
    takes O(s) steps. The kernel takes the grid's points as `_coordinates`
    gives them and A's endpoints times k, and gives results over its
    denominator D: k = m in exact mode, where the points are numerators
    over m, and k = 1 in float mode, where the points are doubles and D is
    1. An image times k and a grid point times D then compare as the two
    values; in exact mode they are ints when A's endpoints times m are. In
    float mode, where eps-equality is not transitive, distinct values are
    also compared with their neighbours within eps, which `_float_lookup`
    finds by bisection. A collision is reported as the lexicographically
    smallest colliding pair of grid indices. `Interval`s are built only
    for the counterexample.
    """
    mode, m = grid.mode, grid.resolution
    (points, grid_pairs, _), = _coordinates(grid, [{0, 1}])
    fn, den = g.kernel(_dens(grid, m, m))
    k = m if mode.is_exact else 1
    ends = (a.lo * k, a.hi * k)
    images = [(lo * k, hi * k) for lo, hi in (fn(x, ends) for x in points)]
    targets = [(i * den, j * den) for i, j in points]

    def report(cex: Counterexample | None, note: str) -> CheckReport:
        return _report("section-bijective", cex, len(grid), mode.zero(), grid,
                       "grid-certified" + note)

    indices: dict[tuple, list[int]] = {}
    for i, img in enumerate(images):
        indices.setdefault(img, []).append(i)
    if mode.is_exact:
        def equal_images(x: tuple) -> list[tuple]:
            return [x] if x in indices else []
    else:
        equal_images = _float_lookup(indices, mode.eps)

    # the smallest pair within one value's indices, or across two values
    collisions = []
    for value, ix in indices.items():
        for other in equal_images(value):
            if other == value:
                if len(ix) > 1:
                    collisions.append((ix[0], ix[1]))
            else:
                collisions.append(tuple(sorted((ix[0], indices[other][0]))))
    if collisions:
        x, y = (grid.point(grid_pairs[i]) for i in min(collisions))
        cex = Counterexample(None, (x, y), g(x, a), g(y, a))
        return report(cex, ": not injective, two grid points collide")
    for target, pair in zip(targets, grid_pairs):
        if not equal_images(target):
            target = grid.point(pair)
            cex = Counterexample(None, (), target, target)
            return report(cex, ": not surjective, grid point never attained")
    return report(None, "")


def _float_lookup(values, eps: float) -> Callable[[tuple], list[tuple]]:
    """The lookup, for a pair of doubles (lo, hi), of the pairs in `values`
    within eps of it at both endpoints. The pairs are kept by lower
    endpoint: bisection finds the lower endpoints within eps, and in each
    one's sorted uppers those within eps, so a lookup takes O(log s) steps
    plus one for each pair it finds."""
    rows: dict = {}
    for lo, hi in sorted(values):
        rows.setdefault(lo, []).append(hi)
    los = list(rows)
    return lambda x: [(lo, hi) for lo in _within(los, x[0], eps)
                      for hi in _within(rows[lo], x[1], eps)]


def _within(xs: list, x: float, eps: float) -> list:
    """The run of the sorted doubles `xs` that lie within eps of `x`."""
    lo = hi = bisect_left(xs, x)
    while lo > 0 and x - xs[lo - 1] <= eps:
        lo -= 1
    while hi < len(xs) and xs[hi] - x <= eps:
        hi += 1
    return xs[lo:hi]


def _check_fixed_point(f: IVFunction, a: Interval, grid: Grid) -> CheckReport:
    """Check F(A,...,A) = A. An F that passes `_polynomial` is idempotent,
    so its value is A itself, and F is not called."""
    mode = grid.mode
    out = a if _polynomial(f, mode) is not None else f(*(a,) * f.arity)
    cex = (None if mode.intervals_equal(out, a)
           else Counterexample(None, (a,) * f.arity, out, a))
    return _report("fixed-point", cex, 1, mode.deviation(out, a), grid)


def _pipeline(name: str, checks: tuple[tuple[str, CheckReport], ...],
              grid: Grid) -> PipelineReport:
    """The report of a pipeline of labelled checks, all of them run: the
    last is the conclusion and the others are its premises. The status is
    "confirmed" when every check passes, "violation" when the premises pass
    and the conclusion fails (an implementation-bug signal on exact closed
    grids), and "not-applicable" when a premise fails, in which case the
    conclusion is informational."""
    *premises, (_, conclusion) = checks
    if all(report.passed for _, report in premises):
        status = "confirmed" if conclusion.passed else "violation"
    else:
        status = "not-applicable"
    return PipelineReport(name, status, checks, grid.mode, grid.resolution)


def run_theorem1(f: IVFunction, g: ScalingFunction, a: Interval,
                 grid: Grid) -> PipelineReport:
    """Premises: F(A,..,A)=A, G(.,A) bijective, F G-homogeneous; then F
    must be idempotent."""
    return _pipeline("theorem1", (
        ("fixed-point", _check_fixed_point(f, a, grid)),
        ("section-bijective", check_section_bijective(g, a, grid)),
        ("homogeneity", check_homogeneity(f, g, IDENTITY, grid)),
        ("idempotency", check_idempotency(f, grid)),
    ), grid)


def run_prop2(f: IVFunction, grid: Grid) -> PipelineReport:
    """If F is P-homogeneous, its standard-negation dual must be
    homogeneous w.r.t. the dual scaling (the probabilistic sum)."""
    return _pipeline("prop2", (
        ("base-homogeneity", check_homogeneity(f, P, IDENTITY, grid)),
        ("dual-homogeneity", check_homogeneity(
            dual_ns(f), dual_scaling_ns(P), IDENTITY, grid,
            law="def1-homogeneity-dual")),
    ), grid)

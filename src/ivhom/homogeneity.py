"""Exhaustive grid checks for homogeneity, idempotency, and duality laws.

Every check covers the full endpoint grid; there is no sampling. A "pass"
verdict therefore always means exhaustive over the stated resolution, and
a "fail" verdict carries the lexicographically smallest failing tuple in
grid order.

The sweeps run on the scalar kernels of `expr` (`IVFunction.kernel`):
integer numerators in exact mode, doubles in float mode; a homogeneity law
runs in one loop that `expr.sweep` generates for it. `Interval` objects
are built only for what a report shows. Each variable of a law with one
parity of `neg`s above it is swept on the m+1 degenerate grid points alone,
and one with both parities on all s points (`_coordinates`), which covers
every grid tuple by construction.

No function here checks a budget or takes a worker count: the command
line (`cli`) is the one budget gate, and it refuses an over-budget run
before it imports this module.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Callable, Optional

from .expr import kernels, parities, sweep
from .gate import UnsupportedModeError
from .interval import EXACT, Interval, Number, NumericMode, _Value, fraction
from .functions import (
    IDENTITY,
    IVFunction,
    OrderIso,
    P,
    ScalingFunction,
    dual_ns,
    dual_scaling_ns,
)


class Grid(_Value):
    """All intervals with endpoints in {0, 1/m, ..., 1}, sorted by (lo, hi)."""

    __slots__ = ("resolution", "mode", "points")

    def __init__(self, resolution: int, mode: NumericMode,
                 points: tuple[Interval, ...]) -> None:
        super().__init__(resolution, mode, points)

    def __len__(self) -> int:
        return len(self.points)


def make_grid(m: int, mode: NumericMode = EXACT) -> Grid:
    if m < 1:
        raise ValueError("grid resolution must be >= 1")
    if mode.is_exact:
        values = [fraction(i, m) for i in range(m + 1)]
    else:
        values = [i / m for i in range(m + 1)]
    points = tuple(
        Interval(values[i], values[j])
        for i in range(m + 1)
        for j in range(i, m + 1)
    )
    return Grid(resolution=m, mode=mode, points=points)


class Counterexample(_Value):
    __slots__ = ("lam", "xs", "lhs", "rhs")

    def __init__(self, lam: Optional[Interval], xs: tuple[Interval, ...],
                 lhs: Optional[Interval], rhs: Optional[Interval]) -> None:
        super().__init__(lam, xs, lhs, rhs)


class CheckReport(_Value):
    __slots__ = ("law", "verdict", "counterexample", "evaluations",
                 "max_deviation", "mode", "resolution", "note")

    def __init__(self, law: str, verdict: str,  # verdict: "pass" | "fail"
                 counterexample: Optional[Counterexample], evaluations: int,
                 max_deviation: Number, mode: NumericMode, resolution: int,
                 note: Optional[str] = None) -> None:
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


def _kernel_points(grid: Grid) -> list[tuple]:
    """The grid points as kernel arguments: their numerators (i, j) over the
    resolution in exact mode, doubles in float mode."""
    if grid.mode.is_exact:
        m = grid.resolution
        return [(i, j) for i in range(m + 1) for j in range(i, m + 1)]
    return [(p.lo, p.hi) for p in grid.points]


def _dens(grid: Grid, *dens: int) -> Optional[tuple[int, ...]]:
    """Kernel denominators: `dens` in exact mode, None in float mode."""
    return dens if grid.mode.is_exact else None


def _tolerance(mode: NumericMode) -> Number:
    """Two kernel results are equal when their deviation is within this.

    In float mode that is the eps rule of `NumericMode.intervals_equal`;
    in exact mode equality is literal."""
    return 0 if mode.is_exact else mode.eps


def _deviation(x: tuple, y: tuple) -> Number:
    return max(abs(x[0] - y[0]), abs(x[1] - y[1]))


def _compose(a: set, b: set) -> set:
    """The parities of a variable whose occurrences in `b` sit under
    occurrences in `a` of the slot it fills."""
    return {x ^ y for x in a for y in b}


def _homogeneity_law(f: IVFunction, g: ScalingFunction,
                     phi: OrderIso) -> list[set]:
    """The parities of `neg`s above each of L, X1..Xn in the law, decided
    from the ASTs alone: {0}, {1}, {0, 1}, or empty for an unused variable.

    `neg` maps [a,b] to [1-b,1-a], and every other op computes a lower
    endpoint from lower endpoints only and an upper one from upper ones
    only. So an occurrence of a variable under an even number of `neg`s
    feeds its lower endpoint to the lower endpoint of the result, and one
    under an odd number its upper endpoint. The parities compose through
    the law: X_i has those of F's X_i under G's X1 on both sides; L has
    those of G's L under each of F's X_i on the left, and those of phi's X1
    under G's L on the right.
    """
    pf, pg, pphi = (parities(x.expr) for x in (f, g, phi))
    gl, gx = pg.get("L", set()), pg.get("X1", set())
    fx = [pf.get(p, set()) for p in f.params]
    lam = _compose(gl, pphi.get("X1", set())).union(*(_compose(p, gl) for p in fx))
    return [lam, *(_compose(p, gx) for p in fx)]


def _coordinates(grid: Grid, variables: list[set]) -> list[tuple]:
    """For each variable's parities, the grid indices its coordinate sweeps
    and the maps from a swept position to the first grid index at which a
    lower, and an upper, failure there is met.

    The lower law reads the lower endpoint of an even variable, the upper
    one of an odd variable and both of a mixed one; the upper law the other
    endpoint of each. So a coordinate of one parity sweeps the m+1
    degenerate points [a,a] (grid index a(m+1) - a(a-1)/2), which give both
    endpoints at a, and a failure at a is first met at [a,a] if read from
    the lower endpoint and at [0,a] (grid index a) if from the upper one. A
    mixed coordinate sweeps all s points and maps to itself. Every map
    rises, so the first failure in sweep order maps to the lowest failing
    grid tuple. Coordinates that sweep the same points share one index
    list object.
    """
    m, every = grid.resolution, range(len(grid))
    low = range(m + 1)
    diag = [a * (m + 1) - a * (a - 1) // 2 for a in low]
    return [(every, every, every) if len(p) > 1 else
            (diag, low, diag) if 1 in p else (diag, diag, low)
            for p in variables]


def check_homogeneity(
    f: IVFunction,
    g: ScalingFunction,
    phi: OrderIso,
    grid: Grid,
    law: str = "def1-homogeneity",
) -> CheckReport:
    """Sweep F(G(L,X1),...,G(L,Xn)) = G(phi(L), F(X1,...,Xn)) over grid^(n+1).

    Each of L, X1..Xn sweeps the points that `_coordinates` gives for its
    parities in the law (`_homogeneity_law`). The kernel of F fills a table
    of its results on the product of the X coordinates' points, and the
    law's one generated loop (`expr.sweep`) does the rest. In exact mode
    both sides come out over one common denominator, so they compare as
    integers. The first failure of each endpoint is mapped to the grid by
    `_coordinates`, and the earlier of the two is the lowest failing grid
    tuple. `evaluations` counts the s^(n+1) grid tuples the verdict covers.
    """
    mode = grid.mode
    if mode.is_exact and not phi.exact_ok:
        raise UnsupportedModeError(
            f"order isomorphism {phi.name!r} has an irrational inverse; "
            "it is only available in float mode"
        )
    m, n = grid.resolution, f.arity
    pts = _kernel_points(grid)
    coords = _coordinates(grid, _homogeneity_law(f, g, phi))
    # one point list per index list, so that the sweep fills one G row for
    # all the X_i that share it
    points = {id(index): [pts[i] for i in index] for index, _, _ in coords}
    lams, *xpts = (points[id(index)] for index, _, _ in coords)
    g_fn, dg = g.kernel(_dens(grid, m, m))
    phi_fn, dphi = phi.kernel(_dens(grid, m))
    f_fn, df = f.kernel(_dens(grid, *(m,) * n))
    f_table = [f_fn(*xs) for xs in itertools.product(*xpts)]
    sweep_fn, den = sweep(f, g, _dens(grid, dg, dphi, df))
    max_dev, first_lo, first_hi = sweep_fn(lams, xpts, f_table, g_fn, phi_fn,
                                           _tolerance(mode))

    # the grid indices of each endpoint's first failing tuple
    hits = [tuple(c[side][i] for c, i in zip(coords, hit))
            for side, hit in ((1, first_lo), (2, first_hi)) if hit is not None]
    cex = None
    if hits:
        lam, *xs = (grid.points[i] for i in min(hits))
        cex = Counterexample(
            lam=lam,
            xs=tuple(xs),
            lhs=f(*(g(lam, x) for x in xs)),
            rhs=g(phi(lam), f(*xs)),
        )
    return CheckReport(
        law=law,
        verdict="pass" if cex is None else "fail",
        counterexample=cex,
        evaluations=len(grid) ** (n + 1),
        max_deviation=fraction(max_dev, den) if mode.is_exact else max_dev,
        mode=mode,
        resolution=grid.resolution,
    )


def equal_on_grid(f: IVFunction, h: IVFunction, grid: Grid) -> bool:
    """Whether F and H (of one arity) agree on all s^n grid tuples, by the
    kernels and the equality rule of `check_homogeneity`. Each X_i sweeps
    the points that `_coordinates` gives for its parities in F and H
    together."""
    pts = _kernel_points(grid)
    pf, ph = parities(f.expr), parities(h.expr)
    variables = [pf.get(p, set()) | ph.get(p, set()) for p in f.params]
    xpts = [[pts[i] for i in index]
            for index, _, _ in _coordinates(grid, variables)]
    dens = _dens(grid, *(grid.resolution,) * f.arity)
    (f_fn, h_fn), _ = kernels([(f, dens), (h, dens)])
    tol = _tolerance(grid.mode)
    return all(
        x == y or _deviation(x, y) <= tol
        for x, y in zip(itertools.starmap(f_fn, itertools.product(*xpts)),
                        itertools.starmap(h_fn, itertools.product(*xpts)))
    )


def check_idempotency(f: IVFunction, grid: Grid) -> CheckReport:
    """Check F(X,...,X) = X for every grid point, on the kernel of F, by the
    equality rule of `check_homogeneity`."""
    mode = grid.mode
    m, n = grid.resolution, f.arity
    fn, den = f.kernel(_dens(grid, *(m,) * n), m)
    k = den // m if mode.is_exact else 1  # X's endpoints over den
    tol = _tolerance(mode)
    max_dev = 0 if mode.is_exact else mode.zero()
    first = None
    for i, x in enumerate(_kernel_points(grid)):
        out, want = fn(*(x,) * n), (x[0] * k, x[1] * k)
        if out != want:
            dev = _deviation(out, want)
            if dev > max_dev:
                max_dev = dev
            if first is None and dev > tol:
                first = i
    cex = None
    if first is not None:
        x = grid.points[first]
        cex = Counterexample(lam=None, xs=(x,), lhs=f(*(x,) * n), rhs=x)
    return CheckReport(
        law="idempotency",
        verdict="pass" if cex is None else "fail",
        counterexample=cex,
        evaluations=len(grid.points),
        max_deviation=fraction(max_dev, den) if mode.is_exact else max_dev,
        mode=mode,
        resolution=grid.resolution,
    )


def check_section_bijective(g: ScalingFunction, a: Interval,
                            grid: Grid) -> CheckReport:
    """Grid-certify that X -> G(X, A) is a bijection.

    Pass means injective on grid points and grid-surjective (every grid
    point is attained up to numeric equality). This certifies the premise
    on the grid only; it proves nothing about the continuum.

    The images are the results of G's `Interval` evaluator kernel, grouped
    by value, so exact mode takes O(s) steps; a target is a grid point
    over that kernel's denominator. In float mode, where eps-equality is
    not transitive, distinct values are also compared with their
    neighbours within eps, which `_float_lookup` finds by bisection. A
    collision is reported as the lexicographically smallest colliding pair
    of grid indices. `Interval`s are built only for the counterexample.
    """
    mode = grid.mode
    pts = grid.points
    fn, den = g.evaluator(not mode.is_exact)
    images = [fn((x.lo, x.hi), (a.lo, a.hi)) for x in pts]

    def report(cex: Optional[Counterexample], note: str) -> CheckReport:
        return CheckReport(
            law="section-bijective",
            verdict="pass" if cex is None else "fail",
            counterexample=cex,
            evaluations=len(pts),
            max_deviation=mode.zero(),
            mode=mode,
            resolution=grid.resolution,
            note="grid-certified" + note,
        )

    indices: dict[tuple, list[int]] = {}
    for i, img in enumerate(images):
        indices.setdefault(img, []).append(i)
    if mode.is_exact:
        def equal_images(x: tuple) -> list[tuple]:
            return [x] if x in indices else []
    else:
        equal_images = _float_lookup(indices, mode.eps)

    # the smallest pair within one value's indices, or across two values
    pairs = []
    for value, ix in indices.items():
        for other in equal_images(value):
            if other == value:
                if len(ix) > 1:
                    pairs.append((ix[0], ix[1]))
            else:
                pairs.append(tuple(sorted((ix[0], indices[other][0]))))
    if pairs:
        i, j = min(pairs)
        cex = Counterexample(None, (pts[i], pts[j]), g(pts[i], a), g(pts[j], a))
        return report(cex, ": not injective, two grid points collide")
    for target in pts:
        if not equal_images((target.lo * den, target.hi * den)):
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
    mode = grid.mode
    out = f(*(a,) * f.arity)
    ok = mode.intervals_equal(out, a)
    return CheckReport(
        law="fixed-point",
        verdict="pass" if ok else "fail",
        counterexample=None if ok else Counterexample(None, (a,) * f.arity, out, a),
        evaluations=1,
        max_deviation=mode.deviation(out, a),
        mode=mode,
        resolution=grid.resolution,
    )


def run_theorem1(f: IVFunction, g: ScalingFunction, a: Interval,
                 grid: Grid) -> PipelineReport:
    """Premises: F(A,..,A)=A, G(.,A) bijective, F G-homogeneous; then F
    must be idempotent. Idempotency is always run, informationally when a
    premise fails; premises-pass with conclusion-fail is flagged as a
    violation (an implementation-bug signal on exact closed grids).
    """
    fixed = _check_fixed_point(f, a, grid)
    bij = check_section_bijective(g, a, grid)
    hom = check_homogeneity(f, g, IDENTITY, grid)
    idem = check_idempotency(f, grid)
    if fixed.passed and bij.passed and hom.passed:
        status = "confirmed" if idem.passed else "violation"
    else:
        status = "not-applicable"
    return PipelineReport(
        pipeline="theorem1",
        status=status,
        checks=(
            ("fixed-point", fixed),
            ("section-bijective", bij),
            ("homogeneity", hom),
            ("idempotency", idem),
        ),
        mode=grid.mode,
        resolution=grid.resolution,
    )


def run_prop2(f: IVFunction, grid: Grid) -> PipelineReport:
    """If F is P-homogeneous, its standard-negation dual must be
    homogeneous w.r.t. the dual scaling (the probabilistic sum). The dual
    check is always run, informationally when the premise fails.
    """
    base = check_homogeneity(f, P, IDENTITY, grid)
    dual = check_homogeneity(dual_ns(f), dual_scaling_ns(P), IDENTITY, grid,
                             law="def1-homogeneity-dual")
    if base.passed:
        status = "confirmed" if dual.passed else "violation"
    else:
        status = "not-applicable"
    return PipelineReport(
        pipeline="prop2",
        status=status,
        checks=(("base-homogeneity", base), ("dual-homogeneity", dual)),
        mode=grid.mode,
        resolution=grid.resolution,
    )

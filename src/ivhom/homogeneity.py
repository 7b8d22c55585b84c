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
mode. Homogeneity and idempotency are each a law F(G(L,X1),...,G(L,Xn)) =
G(phi(L), H(X1,...,Xn)) (`_sweep_law`), checked in the one loop that
`expr.sweep` generates for it; the comparison of two functions
(`equal_on_grid`) is a yes/no scan that stops at the first difference. Each variable with one parity of `neg`s above it is
swept on the m+1 degenerate pairs (a, a) alone, one with both parities on
all s pairs, and one the law does not read on the pair (0, 0)
(`_coordinates`), which covers every grid tuple by construction. An
`Interval` is made from a pair only for a value that a report shows
(`Grid.point`).

No function here checks a budget or takes a worker count: the command
line (`cli`) is the one budget gate, and it refuses an over-budget run
before it imports this module.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Callable, Optional

from .expr import diagonal, parities, sweep
from .gate import UnsupportedModeError, grid_size
from .interval import EXACT, Interval, Number, NumericMode, _Value, fraction
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

    @property
    def points(self) -> tuple[Interval, ...]:
        """Every grid point as an `Interval`, in grid order, built on each
        read."""
        return tuple(map(self.point, _pairs(self.resolution)))


def make_grid(m: int, mode: NumericMode = EXACT) -> Grid:
    if m < 1:
        raise ValueError("grid resolution must be >= 1")
    return Grid(resolution=m, mode=mode)


def _pairs(m: int) -> list[tuple[int, int]]:
    """The numerator pairs of all s grid points, in grid order."""
    return [(i, j) for i in range(m + 1) for j in range(i, m + 1)]


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


def _dens(grid: Grid, *dens: int) -> Optional[tuple[int, ...]]:
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


def _report(law: str, cex: Optional[Counterexample], evaluations: int,
            max_deviation: Number, grid: Grid,
            note: Optional[str] = None) -> CheckReport:
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


def _coordinates(m: int, variables: list[set]) -> list[tuple[list, ...]]:
    """For each variable's parities, the grid pairs its coordinate sweeps
    and the maps from a swept position to the first grid pair at which a
    lower, and an upper, failure there is met.

    The lower law reads the lower endpoint of an even variable, the upper
    one of an odd variable and both of a mixed one; the upper law the other
    endpoint of each. So a coordinate of one parity sweeps the m+1
    degenerate pairs (a, a), which give both endpoints at a, and a failure
    at a is first met at (a, a) if read from the lower endpoint and at
    (0, a) if from the upper one. A mixed coordinate sweeps all s pairs and
    maps to itself. A coordinate the law does not read sweeps the one pair
    (0, 0): every value of it gives the same two sides, and (0, 0) is the
    lowest grid pair. Every map rises, so the first failure in sweep order
    maps to the lowest failing grid tuple (`_lowest_failure`). Coordinates
    that sweep the same pairs share one list object.
    """
    low, unread = range(m + 1), [(0, 0)]
    diag, zero = [(a, a) for a in low], [(0, a) for a in low]
    every = _pairs(m) if any(len(p) > 1 for p in variables) else None
    return [(every, every, every) if len(p) > 1 else
            (diag, zero, diag) if 1 in p else
            (diag, diag, zero) if p else (unread, unread, unread)
            for p in variables]


def _sweep_points(grid: Grid, coords: list[tuple[list, ...]]) -> list[list]:
    """The pairs each coordinate sweeps as kernel arguments: the pairs
    themselves in exact mode, doubles in float mode. Coordinates that sweep
    one pair list share one point list."""
    m, points = grid.resolution, {}
    for swept, _, _ in coords:
        if id(swept) not in points:
            points[id(swept)] = (swept if grid.mode.is_exact else
                                 [(i / m, j / m) for i, j in swept])
    return [points[id(swept)] for swept, _, _ in coords]


def _lowest_failure(coords: list[tuple[list, ...]], first_lo: Optional[tuple],
                    first_hi: Optional[tuple]) -> Optional[tuple]:
    """The lowest failing grid tuple, as pairs, from the positions in the
    swept pairs of `coords` of the first lower and the first upper failure:
    each is mapped to the grid by its side's maps, and the earlier of the
    two is the lowest. None when neither law failed."""
    hits = [tuple(c[side][i] for c, i in zip(coords, at))
            for side, at in ((1, first_lo), (2, first_hi)) if at is not None]
    return min(hits, default=None)


def _sweep_law(f: IVFunction, g: ScalingFunction, phi: OrderIso,
               h: IVFunction, grid: Grid) -> tuple[Optional[tuple], Number]:
    """Sweep F(G(L,X1),...,G(L,Xn)) = G(phi(L), H(X1,...,Xn)) over
    grid^(n+1), and return the lowest failing grid tuple, as pairs (None
    when the law holds), and the largest endpoint deviation.

    Each of L, X1..Xn sweeps the pairs that `_coordinates` gives for its
    parities in the law (`_homogeneity_law`). The kernel of H fills a table
    of its results on the product of the X coordinates' points, and the
    law's one generated loop (`expr.sweep`) does the rest. In exact mode
    both sides come out over one common denominator, so they compare as
    integers, and equality is literal; in float mode two endpoints are
    equal within the mode's eps. `_lowest_failure` maps the first failure
    of each endpoint to the lowest failing grid tuple.
    """
    mode = grid.mode
    if mode.is_exact and not phi.exact_ok:
        raise UnsupportedModeError(
            f"order isomorphism {phi.name!r} has an irrational inverse; "
            "it is only available in float mode"
        )
    m, n = grid.resolution, f.arity
    coords = _coordinates(m, _homogeneity_law(f, g, phi, h))
    # the X_i that share a point list share one G row in the sweep
    lams, *xpts = _sweep_points(grid, coords)
    g_fn, dg = g.kernel(_dens(grid, m, m))
    phi_fn, dphi = phi.kernel(_dens(grid, m))
    h_fn, dh = h.kernel(_dens(grid, *(m,) * n))
    h_table = [h_fn(*xs) for xs in itertools.product(*xpts)]
    sweep_fn, den = sweep(f, g, _dens(grid, dg, dphi, dh))
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
    """
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
    return _report(law, cex, len(grid) ** (f.arity + 1), max_dev, grid)


def equal_on_grid(f: IVFunction, h: IVFunction, grid: Grid) -> bool:
    """Whether F and H (of one arity) agree on all s^n grid tuples, by the
    equality rule of `_sweep_law`, on the kernels of both. Each result is
    compared cross-multiplied by the other kernel's denominator: in exact
    mode that compares the two values, and in float mode both denominators
    are 1, so the doubles compare as they are. Each X_i sweeps the pairs
    that `_coordinates` gives for its parities in F and H together, and
    the scan stops at the first difference."""
    pf, ph = parities(f.expr), parities(h.expr)
    coords = _coordinates(grid.resolution, [pf.get(p, set()) | ph.get(p, set())
                                            for p in f.params])
    dens = _dens(grid, *(grid.resolution,) * f.arity)
    (f_fn, df), (h_fn, dh) = f.kernel(dens), h.kernel(dens)
    tol = _tolerance(grid.mode)
    for xs in itertools.product(*_sweep_points(grid, coords)):
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
    order, so float results are those of F at (X,...,X).
    """
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

    The images are the results of the kernel of G that `Interval`
    evaluation runs (`ScalingFunction.__call__`), grouped by value, so
    exact mode takes O(s) steps; a target is a grid point over that
    kernel's denominator. In float mode, where eps-equality is
    not transitive, distinct values are also compared with their
    neighbours within eps, which `_float_lookup` finds by bisection. A
    collision is reported as the lexicographically smallest colliding pair
    of grid indices. `Interval`s are built only for the counterexample.
    """
    mode, m = grid.mode, grid.resolution
    grid_pairs = _pairs(m)
    # the endpoints of each grid point as `Interval` evaluation passes them
    values = [fraction(i, m) if mode.is_exact else i / m for i in range(m + 1)]
    points = [(values[i], values[j]) for i, j in grid_pairs]
    fn, den = g.kernel(_dens(grid, 1, 1))
    images = [fn(x, (a.lo, a.hi)) for x in points]

    def report(cex: Optional[Counterexample], note: str) -> CheckReport:
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
    for (lo, hi), pair in zip(points, grid_pairs):
        if not equal_images((lo * den, hi * den)):
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
    mode = grid.mode
    out = f(*(a,) * f.arity)
    cex = (None if mode.intervals_equal(out, a)
           else Counterexample(None, (a,) * f.arity, out, a))
    return _report("fixed-point", cex, 1, mode.deviation(out, a), grid)


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

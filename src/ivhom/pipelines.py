"""The theorem1 and prop2 pipelines and theorem1's bijectivity scan, which
`homogeneity.run_theorem1`, `run_prop2` and `check_section_bijective` load
when called, so no other command compiles them.

A pipeline is a tuple of labelled checks, the last its conclusion and the
others its premises (`_pipeline`). Each step that is a check of its own,
`check_homogeneity`, `check_idempotency` and `check_section_bijective`, is
imported from `homogeneity` where it is called, and so are the functions
of `functions` that a step calls, so that a name replaced in its module
after import, as a benchmark's probe does, is the one called. The
bijectivity scan (`section_bijective`) imports the swept path,
`compiler`, when it runs, so a prop2 whose laws are certified from their
ASTs never compiles it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable

from .functions import IDENTITY, P, IVFunction, ScalingFunction
from .homogeneity import (CheckReport, Counterexample, Grid, PipelineReport,
                          _polynomial, _report)
from .interval import Interval


def section_bijective(g: ScalingFunction, a: Interval,
                      grid: Grid) -> CheckReport:
    """`homogeneity.check_section_bijective`: whether X -> G(X, A) is a
    bijection on the grid.

    The images are the results of G's kernel over the grid's denominator,
    which the homogeneity step sweeps too, grouped by value, so exact mode
    takes O(s) steps. The kernel takes the grid's points as
    `compiler._coordinates` gives them and A's endpoints times k, and gives
    results over its denominator D: k = m in exact mode, where the points
    are numerators over m, and k = 1 in float mode, where the points are
    doubles and D is 1. An image times k and a grid point times D then
    compare as the two values; in exact mode they are ints when A's
    endpoints times m are. In float mode, where eps-equality is not
    transitive, distinct values are also compared with their neighbours
    within eps, which `_float_lookup` finds by bisection. A collision is
    reported as the lexicographically smallest colliding pair of grid
    indices. `Interval`s are built only for the counterexample.
    """
    from .compiler import _coordinates, _den

    mode, m = grid.mode, grid.resolution
    (points, grid_pairs, _), = _coordinates(grid, [{0, 1}])
    fn, den = g.kernel(_den(grid))
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
        equal_images = _float_lookup(indices, mode.tol)

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


def theorem1(f: IVFunction, g: ScalingFunction, a: Interval,
             grid: Grid) -> PipelineReport:
    """`homogeneity.run_theorem1`. The fixed point is checked after the
    homogeneity step, so that an exact call of F runs on the kernel that
    step's sweep compiled over the grid's denominators, and compiles no
    other."""
    from .homogeneity import (check_homogeneity, check_idempotency,
                              check_section_bijective)

    bijective = check_section_bijective(g, a, grid)
    homogeneous = check_homogeneity(f, g, IDENTITY, grid)
    return _pipeline("theorem1", (
        ("fixed-point", _check_fixed_point(f, a, grid)),
        ("section-bijective", bijective),
        ("homogeneity", homogeneous),
        ("idempotency", check_idempotency(f, grid)),
    ), grid)


def prop2(f: IVFunction, grid: Grid) -> PipelineReport:
    """`homogeneity.run_prop2`."""
    from .functions import dual_ns, dual_scaling_ns
    from .homogeneity import check_homogeneity

    return _pipeline("prop2", (
        ("base-homogeneity", check_homogeneity(f, P, IDENTITY, grid)),
        ("dual-homogeneity", check_homogeneity(
            dual_ns(f), dual_scaling_ns(P), IDENTITY, grid,
            law="def1-homogeneity-dual")),
    ), grid)

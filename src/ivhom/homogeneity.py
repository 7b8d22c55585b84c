"""Exhaustive grid checks for homogeneity, idempotency, and duality laws.

Every check sweeps the full endpoint grid; there is no sampling. A "pass"
verdict therefore always means exhaustive over the stated resolution, and
a "fail" verdict carries the lexicographically smallest failing tuple in
grid order, independent of the worker count.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .interval import Interval, Number, NumericMode, EXACT
from .functions import (
    IDENTITY,
    IVFunction,
    OrderIso,
    P,
    ScalingFunction,
    dual_ns,
    dual_scaling_ns,
)

DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """The sweep would exceed the evaluation budget; refuse, never sample."""

    def __init__(self, tuple_count: int, budget: int):
        super().__init__(
            f"sweep needs {2 * tuple_count} side-evaluations over "
            f"{tuple_count} tuples, exceeding the budget of {budget}"
        )
        self.tuple_count = tuple_count
        self.budget = budget


class UnsupportedModeError(RuntimeError):
    """An ingredient cannot be evaluated in the requested numeric mode."""


@dataclass(frozen=True)
class Grid:
    """All intervals with endpoints in {0, 1/m, ..., 1}, sorted by (lo, hi)."""

    resolution: int
    mode: NumericMode
    points: tuple[Interval, ...]

    def __len__(self) -> int:
        return len(self.points)


def make_grid(m: int, mode: NumericMode = EXACT) -> Grid:
    if m < 1:
        raise ValueError("grid resolution must be >= 1")
    if mode.is_exact:
        values = [Fraction(i, m) for i in range(m + 1)]
    else:
        values = [i / m for i in range(m + 1)]
    points = tuple(
        Interval(values[i], values[j])
        for i in range(m + 1)
        for j in range(i, m + 1)
    )
    return Grid(resolution=m, mode=mode, points=points)


@dataclass(frozen=True)
class Counterexample:
    lam: Optional[Interval]
    xs: tuple[Interval, ...]
    lhs: Optional[Interval]
    rhs: Optional[Interval]


@dataclass(frozen=True)
class CheckReport:
    law: str
    verdict: str  # "pass" | "fail"
    counterexample: Optional[Counterexample]
    evaluations: int
    max_deviation: Number
    mode: NumericMode
    resolution: int
    note: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class PipelineReport:
    pipeline: str
    status: str  # "confirmed" | "not-applicable" | "violation"
    checks: tuple[tuple[str, CheckReport], ...]
    mode: NumericMode
    resolution: int

    @property
    def verdict(self) -> str:
        return "pass" if all(r.passed for _, r in self.checks) else "fail"


def check_budget(*tuple_counts: int, budget: int) -> None:
    """Refuse unless each sweep's 2 side-evaluations per tuple fit the
    budget; the counts are checked in the order their sweeps would run."""
    for tuple_count in tuple_counts:
        if 2 * tuple_count > budget:
            raise BudgetExceededError(tuple_count, budget)


def _chunk_bounds(total: int, workers: int) -> list[tuple[int, int]]:
    workers = max(1, min(workers, total)) if total else 1
    base, extra = divmod(total, workers)
    bounds, start = [], 0
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def check_homogeneity(
    f: IVFunction,
    g: ScalingFunction,
    phi: OrderIso = IDENTITY,
    grid: Grid = None,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    law: str = "def1-homogeneity",
) -> CheckReport:
    """Sweep F(G(L,X1),...,G(L,Xn)) = G(phi(L), F(X1,...,Xn)) over grid^(n+1)."""
    if grid is None:
        raise TypeError("grid is required")
    mode = grid.mode
    if mode.is_exact and not phi.exact_ok:
        raise UnsupportedModeError(
            f"order isomorphism {phi.name!r} has an irrational inverse; "
            "it is only available in float mode"
        )
    pts = grid.points
    s = len(pts)
    n = f.arity
    total = s ** (n + 1)
    check_budget(total, budget=budget)

    phi_cache = [phi(p) for p in pts]
    g_cache = [[g(lam, x) for x in pts] for lam in pts]
    x_combos = list(itertools.product(range(s), repeat=n))
    f_table = [f(*(pts[i] for i in combo)) for combo in x_combos]
    per_lam = len(x_combos)

    def scan(start: int, stop: int):
        max_dev = mode.zero()
        first_idx, first_cex = None, None
        for idx in range(start, stop):
            il, rest = divmod(idx, per_lam)
            combo = x_combos[rest]
            lhs = f(*(g_cache[il][i] for i in combo))
            rhs = g(phi_cache[il], f_table[rest])
            dev = mode.deviation(lhs, rhs)
            if dev > max_dev:
                max_dev = dev
            if first_idx is None and not mode.intervals_equal(lhs, rhs):
                first_idx = idx
                first_cex = Counterexample(
                    lam=pts[il],
                    xs=tuple(pts[i] for i in combo),
                    lhs=lhs,
                    rhs=rhs,
                )
        return first_idx, first_cex, max_dev

    bounds = _chunk_bounds(total, workers)
    if len(bounds) == 1:
        results = [scan(*bounds[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
            results = list(pool.map(lambda b: scan(*b), bounds))

    max_dev = mode.zero()
    best_idx, best_cex = None, None
    for idx, cex, dev in results:
        if dev > max_dev:
            max_dev = dev
        if idx is not None and (best_idx is None or idx < best_idx):
            best_idx, best_cex = idx, cex

    return CheckReport(
        law=law,
        verdict="pass" if best_idx is None else "fail",
        counterexample=best_cex,
        evaluations=total,
        max_deviation=max_dev,
        mode=mode,
        resolution=grid.resolution,
    )


def check_idempotency(
    f: IVFunction,
    grid: Grid,
    budget: int = DEFAULT_BUDGET,
) -> CheckReport:
    """Check F(X,...,X) = X for every grid point."""
    mode = grid.mode
    check_budget(len(grid.points), budget=budget)
    max_dev = mode.zero()
    cex = None
    for x in grid.points:
        out = f(*(x,) * f.arity)
        dev = mode.deviation(out, x)
        if dev > max_dev:
            max_dev = dev
        if cex is None and not mode.intervals_equal(out, x):
            cex = Counterexample(lam=None, xs=(x,), lhs=out, rhs=x)
    return CheckReport(
        law="idempotency",
        verdict="pass" if cex is None else "fail",
        counterexample=cex,
        evaluations=len(grid.points),
        max_deviation=max_dev,
        mode=mode,
        resolution=grid.resolution,
    )


def check_section_bijective(
    g: ScalingFunction,
    a: Interval,
    grid: Grid,
    budget: int = DEFAULT_BUDGET,
) -> CheckReport:
    """Grid-certify that X -> G(X, A) is a bijection.

    Pass means injective on grid points and grid-surjective (every grid
    point is attained up to numeric equality). This certifies the premise
    on the grid only; it proves nothing about the continuum.
    """
    mode = grid.mode
    pts = grid.points
    check_budget(len(pts), budget=budget)
    images = [g(x, a) for x in pts]

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

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if mode.intervals_equal(images[i], images[j]):
                cex = Counterexample(None, (pts[i], pts[j]), images[i], images[j])
                return report(cex, ": not injective, two grid points collide")
    for target in pts:
        if not any(mode.intervals_equal(img, target) for img in images):
            cex = Counterexample(None, (), target, target)
            return report(cex, ": not surjective, grid point never attained")
    return report(None, "")


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


def run_theorem1(
    f: IVFunction,
    g: ScalingFunction,
    a: Interval,
    grid: Grid,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> PipelineReport:
    """Premises: F(A,..,A)=A, G(.,A) bijective, F G-homogeneous; then F
    must be idempotent. Idempotency is always run, informationally when a
    premise fails; premises-pass with conclusion-fail is flagged as a
    violation (an implementation-bug signal on exact closed grids).
    """
    s = len(grid)
    check_budget(1, s, s ** (f.arity + 1), s, budget=budget)
    fixed = _check_fixed_point(f, a, grid)
    bij = check_section_bijective(g, a, grid, budget=budget)
    hom = check_homogeneity(f, g, IDENTITY, grid, budget=budget, workers=workers)
    idem = check_idempotency(f, grid, budget=budget)
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


def run_prop2(
    f: IVFunction,
    grid: Grid,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> PipelineReport:
    """If F is P-homogeneous, its standard-negation dual must be
    homogeneous w.r.t. the dual scaling (the probabilistic sum). The dual
    check is always run, informationally when the premise fails.
    """
    check_budget(len(grid) ** (f.arity + 1), budget=budget)  # both sweeps
    base = check_homogeneity(f, P, IDENTITY, grid, budget=budget, workers=workers)
    f_dual = dual_ns(f)
    p_dual = dual_scaling_ns(P)
    dual = check_homogeneity(
        f_dual, p_dual, IDENTITY, grid, budget=budget, workers=workers,
        law="def1-homogeneity-dual",
    )
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

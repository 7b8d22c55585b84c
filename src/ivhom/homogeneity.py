"""Exhaustive grid checks for homogeneity, idempotency, and duality laws.

Every check covers the full endpoint grid; there is no sampling. A "pass"
verdict therefore always means exhaustive over the stated resolution, and
a "fail" verdict carries the lexicographically smallest failing tuple in
grid order.

A grid is its resolution m and its numeric mode. The engine names a grid
point by its numerator pair (i, j) over m, i <= j, and grid order is the
order of the pairs. An `Interval` is made from a pair only for a value
that a report shows (`Grid.point`).

Some laws hold by an identity that F's AST shows (`_polynomial`). An F
built from `min`, `max`, `mean` and `neg` over variables, each under an
even number of `neg`s, in exact mode, or from `min` and `max` alone in
float mode, is idempotent, and commutes with every non-decreasing map of
the endpoints, or, if it reads `mean`, every non-decreasing affine one.
So its idempotency, its fixed point in theorem1, and its homogeneity with
phi the identity and a G of that kind in X1 (`check_homogeneity`) are
reported as their sweeps would report them, with no kernel compiled.
Every other law is swept by the swept path of `ivhom.compiler`, which a
check imports only when it sweeps, so a run whose every law is certified
never compiles it.

The theorem1 and prop2 pipelines and theorem1's bijectivity scan are in
`ivhom.pipelines`, which `run_theorem1`, `run_prop2` and
`check_section_bijective` import when called, so a `check`, `idempotent`
or `dual` never compiles it. The three stay here, with the reports of
checks and pipelines (`CheckReport`, `PipelineReport`), as the entry
points of their commands.

No function here checks a budget or takes a worker count: the command
line (`cli`) is the one budget gate, and it refuses an over-budget run
before it imports this module. A certified law is charged as if swept.
"""

from __future__ import annotations

from .expr import Call, Pow, Var, diagonal
from .gate import UnsupportedModeError, grid_size
from .interval import (EXACT, TYPE_CHECKING, Interval, NumericMode, _Value,
                       fraction)
from .functions import IDENTITY, PI2, IVFunction, OrderIso, ScalingFunction

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


def _report(law: str, cex: Counterexample | None, evaluations: int,
            max_deviation: Number, grid: Grid,
            note: str | None = None) -> CheckReport:
    """The report of a check on `grid` that found `cex`, None for a pass."""
    return CheckReport(law, "pass" if cex is None else "fail", cex,
                       evaluations, max_deviation, grid.mode, grid.resolution,
                       note)


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
    if any(p != {0} for p in f.parities.values()):
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


def check_homogeneity(
    f: IVFunction,
    g: ScalingFunction,
    phi: OrderIso,
    grid: Grid,
    law: str = "def1-homogeneity",
) -> CheckReport:
    """Sweep F(G(L,X1),...,G(L,Xn)) = G(phi(L), F(X1,...,Xn)) over
    grid^(n+1): the law of `compiler._sweep_law` with H = F. The
    counterexample is the lowest failing grid tuple, and `evaluations`
    counts the s^(n+1) grid tuples the verdict covers.

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
            and g.parities.get("X1", {0}) == {0}
            and ("mean" not in ops or _affine(g))):
        return _report(law, None, evaluations, grid.mode.zero(), grid)
    from .compiler import _sweep_law

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


def check_idempotency(f: IVFunction, grid: Grid) -> CheckReport:
    """Check F(X,...,X) = X for every grid point: the law of
    `compiler._sweep_law` with F(X1,...,X1) (`expr.diagonal`) for F, pi2 for
    G, and the identity for phi and for H, whose right side is X1.

    So X sweeps the pairs that `compiler._coordinates` gives for the parities
    of every X_i in F, and the even one of X itself on the right: an F with
    no X_i under an odd number of `neg`s is checked on the m+1 degenerate
    points, and one with such an X_i on all s. Λ, which pi2 does not read,
    sweeps one pair. F(X1,...,X1) is traced inline in F's own operation
    order, so float results are those of F at (X,...,X). An F that passes
    `_polynomial` is idempotent, and gets the report its sweep would give,
    a pass with deviation 0, without compiling a kernel.
    """
    if _polynomial(f, grid.mode) is not None:
        return _report("idempotency", None, len(grid), grid.mode.zero(), grid)
    from .compiler import _sweep_law

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
    on the grid only; it proves nothing about the continuum. The scan is
    `pipelines.section_bijective`.
    """
    from .pipelines import section_bijective

    return section_bijective(g, a, grid)


def run_theorem1(f: IVFunction, g: ScalingFunction, a: Interval,
                 grid: Grid) -> PipelineReport:
    """Premises: F(A,..,A)=A, G(.,A) bijective, F G-homogeneous; then F
    must be idempotent (`pipelines.theorem1`)."""
    from .pipelines import theorem1

    return theorem1(f, g, a, grid)


def run_prop2(f: IVFunction, grid: Grid) -> PipelineReport:
    """If F is P-homogeneous, its standard-negation dual must be
    homogeneous w.r.t. the dual scaling, the probabilistic sum
    (`pipelines.prop2`)."""
    from .pipelines import prop2

    return prop2(f, grid)

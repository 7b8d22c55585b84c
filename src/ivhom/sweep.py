"""The swept path: the grid sweeps of the laws that no structure decides.

`homogeneity` imports this module only when it sweeps, after `_polynomial`
fails to certify a homogeneity or idempotency law; `pipelines` imports it
for theorem1's bijectivity scan, and `dual` for its comparison of two
functions. So a run whose every law is certified from the ASTs, such as
`check --f min`, never compiles it.

Homogeneity and idempotency are each a law F(G(L,X1),...,G(L,Xn)) =
G(phi(L), H(X1,...,Xn)) (`_sweep_law`), checked in the one loop that
`compiler.sweep` generates for it. The sweeps run on the scalar kernels of
`expr` (`IVFunction.kernel`, each compiled once for its denominators), on
the grid's numerator pairs themselves in exact mode and on the doubles
(i/m, j/m) in float mode, which `_coordinates` alone makes for every scan,
here, in theorem1's bijectivity scan and in `dual`'s comparison. A
variable's parities of `neg`s come from one trace of the law by
`expr._trace`, the walker that also writes the sweep's code
(`_law_parities`). Each variable with one parity is swept on the m+1
degenerate pairs (a, a) alone, one with both parities on all s pairs, and
one the law does not read on the pair (0, 0) (`_coordinates`), which
covers every grid tuple by construction.
"""

from __future__ import annotations

import itertools

from .expr import Var, _Reads, _trace
from .interval import TYPE_CHECKING, fraction

if TYPE_CHECKING:
    from .functions import IVFunction, OrderIso, ScalingFunction
    from .homogeneity import Grid
    from .interval import Number


def _pairs(m: int) -> list[tuple[int, int]]:
    """The numerator pairs of all s grid points, in grid order."""
    return [(i, j) for i in range(m + 1) for j in range(i, m + 1)]


def _dens(grid: Grid, *dens: int) -> tuple[int, ...] | None:
    """Kernel denominators: `dens` in exact mode, None in float mode."""
    return dens if grid.mode.is_exact else None


def _law_parities(f: IVFunction, g: ScalingFunction, phi: OrderIso,
                  h: IVFunction) -> list[set]:
    """The parities of `neg`s above each of L, X1..Xn in the law of
    `_sweep_law`, decided from the ASTs alone: {0}, {1}, {0, 1}, or empty
    for a variable the law does not read.

    The law is traced into `expr._Reads`, bound as `compiler.sweep` binds
    it: F's X_i to G(L, X_i) on the left, and G's L to phi(L) and its X1 to
    H on the right. A variable's parities are the endpoints of it that the
    lower endpoints of the two sides read: 0 for its lower endpoint and 1
    for its upper one. The upper endpoints read the other ones.
    """
    own = _Reads()

    def trace(node, **env) -> tuple:
        return _trace(node, own, _Reads(env))

    lhs = trace(f.expr, **{x: trace(g.expr, L=own["L"], X1=own[x])
                           for x in f.params})
    rhs = trace(g.expr, L=trace(phi.expr, X1=own["L"]), X1=trace(h.expr))
    lower = lhs[0] | rhs[0]
    return [{s for v, s in lower if v == x} for x in ("L", *f.params)]


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
    parities in one trace of the law (`_law_parities`). The kernel of H
    gives its results on the product of the X coordinates' points, in
    order, which the law's one generated loop (`compiler.sweep`) reads once
    per Λ point: as a list when Λ sweeps several points, else as they are
    made. When H is its variable leaf X1 over one X, as idempotency's is,
    its results are that X's points, over their denominator m, so H
    compiles no kernel. The loop computes the rest: phi is traced into it,
    and G's kernel, which it compiles unless G is its variable leaf, fills
    its rows. In exact mode both sides come out over one common
    denominator, so they compare as integers; two endpoints are equal when
    they differ by at most `mode.tol`, 0 in exact mode. `_lowest_failure`
    maps the first failure of each endpoint to the lowest failing grid
    tuple.
    """
    from .compiler import sweep

    mode, m, n = grid.mode, grid.resolution, f.arity
    coords = _coordinates(grid, _law_parities(f, g, phi, h))
    # the X_i that share a point list share one G row in the sweep
    lams, *xpts = (points for points, _, _ in coords)
    leaf = n == 1 and isinstance(h.expr, Var)
    h_fn, dh = (None, m) if leaf else h.kernel(_dens(grid, *(m,) * n))
    # compiled before any result of H is made, so that a law the generator
    # refuses is refused at once
    sweep_fn, den = sweep(f, g, phi, _dens(grid, m, dh))
    h_table = xpts[0] if leaf else itertools.starmap(
        h_fn, itertools.product(*xpts))
    # read once per Λ point, so made a list only when there are several
    if len(lams) > 1 and not leaf:
        h_table = list(h_table)
    max_dev, first_lo, first_hi = sweep_fn(lams, xpts, h_table, mode.tol)
    return (_lowest_failure(coords, first_lo, first_hi),
            fraction(max_dev, den) if mode.is_exact else max_dev)

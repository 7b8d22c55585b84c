"""The compiler of `expr` ASTs and the swept path: the code generator, and
the grid sweeps of the laws that no structure decides.

`expr._trace` sends the code of each endpoint of an AST to a
`_ScalarTarget`, and `_compile` executes the generated source. This module
writes every generated function: `kernel`, the scalar-endpoint kernel of
one ingredient over one denominator, which `expr._Compiled.kernel` keeps,
and `sweep`, the fused loop of one law of homogeneity's shape, which also
checks idempotency. `_trace` binds each variable to the refs of its two
endpoints, so one traced value can feed another ingredient's variable with
no composed AST built: `sweep` traces phi(Λ) into G's L, and compiles no
kernel for phi.

Every op is representable: each endpoint of its result comes from one
scalar formula, over the same endpoint of its arguments, or for `neg` over
the other one. So `_trace` walks an AST once per endpoint, and each op of
`_ScalarTarget` is written once. No walk compares two trees.

Homogeneity and idempotency are each a law F(G(L,X1),...,G(L,Xn)) =
G(phi(L), H(X1,...,Xn)) (`_sweep_law`), checked in the one loop that
`sweep` generates for it. The sweeps run on the scalar kernels of `expr`
(`IVFunction.kernel`, each compiled once for its denominator), on the
grid's numerator pairs themselves in exact mode and on the doubles
(i/m, j/m) in float mode, which `_coordinates` alone makes for every scan,
here, in theorem1's bijectivity scan and in `dual`'s comparison. A
variable's parities of `neg`s come from one trace of the law by
`expr._trace`, the walker that also writes the sweep's code
(`_law_parities`). Each variable with one parity is swept on the m+1
degenerate pairs (a, a) alone, one with both parities on all s pairs, and
one the law does not read on the pair (0, 0) (`_coordinates`), which
covers every grid tuple by construction.

Each caller imports this module on first use: `expr` with the first kernel
compiled, `homogeneity` when `_polynomial` fails to certify a homogeneity
or idempotency law, `pipelines` for theorem1's bijectivity scan, and
`dual` for its comparison of two functions. So a run that compiles no
kernel, such as a `check` whose every law `homogeneity` certifies from the
ASTs, never loads it.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from math import lcm, log10

from .expr import Const, ExprError, Node, Var, _Reads, _trace
from .interval import MAX_DIGITS, TYPE_CHECKING, fraction, too_long

if TYPE_CHECKING:
    from .functions import IVFunction, OrderIso, ScalingFunction
    from .homogeneity import Grid
    from .interval import Number

#: CPython compiles at most this many statically nested blocks in one
#: function, and a sweep nests one loop over Λ and one per X_i
MAX_NESTED_BLOCKS = 20


def _fold_pow(x: float, k: int) -> float:
    """x multiplied by itself k times, left to right, as repeated
    `interval.product` does."""
    acc = x
    for _ in range(k - 1):
        acc *= x
    return acc


def _too_long(what: str) -> ExprError:
    """The error for an exact `what` that Python will not write as text."""
    return ExprError(too_long(f"an exact {what} of the compiled expression"))


def _int_lit(n: int, what: str) -> str:
    """`n` as an int literal of generated code."""
    try:
        return f"{n:d}"
    except ValueError:
        raise _too_long(what) from None


def _scaled(x: str, k: int) -> str:
    return x if k == 1 else f"{x} * {_int_lit(k, 'scale factor')}"


class _ScalarTarget:
    """Where `_trace` sends the code of each endpoint of each node:
    statements over scalar endpoints that build no `Interval`.

    A ref is the (code, den, level) of one endpoint of a node's value: its
    code, its denominator, and the loop level of the last variable it
    reads. Both endpoints of a node have one denominator. Each op writes
    its one formula for one endpoint; each statement goes into
    `lines[level]`, so a sweep computes it once per value of the variables
    it reads, and equal code at one level is computed once, into one local
    (`local`): the endpoints of equal subtrees, and any code the two
    endpoints of a node share.

    Exact mode: endpoints are numerators, and every node's denominator is
    fixed here, before any call: `mul` multiplies them, `pow` raises to its
    exponent, `psum` is Da*Db - (Da-a)*(Db-b) over Da*Db, `min`/`max`/`neg`
    work over a common denominator, `mean` over n times the common one, and
    a constant over the lcm of its endpoints' own. The code uses only ring
    ops, comparisons and int literals, so `Fraction` numerators over
    denominator 1 work as well as ints. Float mode: endpoints are doubles,
    combined in the op order of `interval`, with every denominator 1.0.

    Every op is monotone and maps intervals of [0,1] to intervals of [0,1]
    in both modes, so valid arguments and constants, which `Const` checks,
    give valid results.
    """

    def __init__(self, exact: bool, depth: int = 0) -> None:
        self.env: dict = {"_fold_pow": _fold_pow}
        self.lines: list[list[str]] = [[] for _ in range(depth + 1)]
        self.names: dict[tuple[str, int], str] = {}
        self.exact = exact

    def local(self, src: str, level: int) -> str:
        """The name of a local that holds `src`, computed at `level`: one
        name for each distinct code at each level."""
        if (src, level) not in self.names:
            name = self.names[src, level] = f"t{len(self.names)}"
            self.lines[level].append(f"{name} = {src}")
        return self.names[src, level]

    def lit(self, den: int) -> str:
        """A denominator as a literal of the mode's number type."""
        return _int_lit(den, "denominator") if self.exact else repr(float(den))

    def const(self, c: Const, side: int) -> tuple:
        if not self.exact:
            return repr(float((c.lo, c.hi)[side])), 1, 0
        ends = fraction(c.lo), fraction(c.hi)
        den = lcm(*(x.denominator for x in ends))
        # both literals, so that a constant past the digit limit is refused
        # on the first endpoint traced, whichever it is
        return [_int_lit(int(x * den), "constant") for x in ends][side], den, 0

    def scaled(self, ref: tuple, den: int) -> str:
        """`ref` as a name, which code may use twice, scaled in exact mode
        to `den`, a multiple of its denominator."""
        x, d, level = ref
        x = _scaled(x, den // d)  # in float mode both are 1
        return x if x.isidentifier() else self.local(x, level)

    def op(self, ident: str, args: tuple) -> tuple:
        level = max(a[2] for a in args)
        if ident == "neg":  # of the other endpoint of its argument
            (x, d, _), = args
            return self.local(f"{self.lit(d)} - {x}", level), d, level
        if ident == "mean":
            den = lcm(*(a[1] for a in args))
            total = self.sum([(_scaled(x, den // d), at) for x, d, at in args])
            if self.exact:
                return self.local(total, level), len(args) * den, level
            return self.local(f"({total}) / {len(args):d}", level), 1, level
        (a, da, _), (b, db, _) = args
        if ident == "mul":
            return self.local(f"{a} * {b}", level), da * db, level
        if ident == "psum":  # 1 - (1-a)*(1-b), with 1-a and 1-b as neg's
            (ca, _, _), (cb, _, _) = (self.op("neg", (x,)) for x in args)
            one = self.lit(da * db)
            return self.local(f"{one} - {ca} * {cb}", level), da * db, level
        # the conditional names each operand twice
        den = lcm(da, db)
        a, b = (self.scaled(x, den) for x in args)
        cmp = "<=" if ident == "min" else ">="
        return self.local(f"{a} if {a} {cmp} {b} else {b}", level), den, level

    def sum(self, terms: list[tuple[str, int]]) -> str:
        """The (code, level) terms added left to right, with each partial
        sum but the last in a local so that no expression nests deeply."""
        (acc, level), *rest = terms
        for term, at in rest[:-1]:
            level = max(level, at)
            acc = self.local(f"{acc} + {term}", level)
        return f"{acc} + {rest[-1][0]}" if rest else acc

    def pow(self, arg: tuple, k: int) -> tuple:
        x, d, level = arg
        if self.exact:
            # d**k >= 2**((b-1)k) for d of b bits: refuse one that must pass
            # the digit limit before computing it, since nested powers
            # multiply their exponents past what Python can compute
            if (d.bit_length() - 1) * k * log10(2) >= MAX_DIGITS:
                raise _too_long("denominator")
            return self.local(f"{x} ** {k:d}", level), d**k, level
        return self.local(f"_fold_pow({x}, {k:d})", level), 1, level


def _endpoints(name: str, den: int, level: int) -> tuple:
    """The refs of the endpoints `<name>l` and `<name>h` of a parameter of
    denominator `den`, read at loop `level`."""
    return (f"{name}l", den, level), (f"{name}h", den, level)


def _compile(source: list[str], env: dict) -> Callable:
    """The function `fn` that the lines of `source` define, executed in
    `env`. The generated source holds only loops over the arguments,
    arithmetic, comparisons, integer and float literals, and the names of
    parameters, locals and the helper `_fold_pow`: no text of the user's
    expression reaches it."""
    exec("".join(line + "\n" for line in source), env)
    return env["fn"]


def _indent(lines: list[str], depth: int) -> list[str]:
    return ["    " * depth + line for line in lines]


def kernel(node: Node, params: tuple[str, ...],
           den: int | None) -> tuple[Callable, int]:
    """The scalar-endpoint kernel of `node` over `params`, and the
    denominator of its results.

    The kernel takes one (lo, hi) tuple per parameter and returns one
    (lo, hi) tuple. `den` is the denominator of every parameter in exact
    mode and None in float mode, where every denominator is 1. An exact
    argument is the numerators of a value over that denominator: the
    sweeps pass ints, and `expr._Compiled.__call__` any rationals.
    """
    t = _ScalarTarget(den is not None)
    refs = _trace(node, t, {p: _endpoints(p, den or 1, 0) for p in params})
    den = refs[0][1]
    lo, hi = (t.scaled(r, den) for r in refs)
    return _compile([f"def fn({', '.join(params)}):",
                     *(f"    {p}l, {p}h = {p}" for p in params),
                     *_indent(t.lines[0], 1),
                     f"    return ({lo}, {hi})"], t.env), den


def sweep(f: IVFunction, g: ScalingFunction, phi: OrderIso,
          dens: tuple[int, int] | None) -> tuple[Callable, int]:
    """The sweep of the law F(G(L,X1),...,G(L,Xn)) = G(phi(L),
    H(X1,...,Xn)) as one generated function, and the one denominator of
    both sides. Homogeneity is the law with H = F, and idempotency one
    with H = X1 (`homogeneity`).

    `fn(lams, xpts, h_table, tol)` takes the sweep points of Λ and the list
    of sweep points of each X_i, as kernel arguments, and H's kernel
    results on `itertools.product(*xpts)` in order, which it walks once per
    Λ (so any iterable when `lams` has one point). For each Λ in `lams` it
    fills one row [G(Λ,x) for x in xs] with G's kernel per distinct list
    object xs in `xpts`, which every X_i that sweeps it shares, then runs n
    nested loops, one over the row of each X_i, X1 outermost, walking the
    H table in order. When G is its variable leaf X1, as pi2 is, each row
    is xs itself, which G's kernel would return point for point, so G
    compiles no kernel. Both sides are inlined, and phi(Λ) too: it is
    traced at the Λ level and feeds G's L on the right, so phi compiles no
    kernel. Each subexpression is computed in the loop of the last
    variable it reads. It returns the largest endpoint deviation (0 of the
    mode's number type when there is none), and the positions (Λ, X1, ...,
    Xn) in those point lists of the first tuple whose lower endpoints, and
    of the first whose upper endpoints, differ by more than `tol`, each
    None when there is none.

    `dens` is the denominator of the sweep points and that of H's kernel
    results in exact mode, None in float mode. A law of arity n >
    `MAX_NESTED_BLOCKS` - 1 is refused before anything is traced.
    """
    n = f.arity
    if n + 1 > MAX_NESTED_BLOCKS:
        raise ExprError(f"a sweep of arity {n} nests {n + 1} loops, and Python "
                        f"compiles at most {MAX_NESTED_BLOCKS}: the largest "
                        f"arity a sweep takes is {MAX_NESTED_BLOCKS - 1}")
    dx, dh = dens or (1, 1)
    t = _ScalarTarget(dens is not None, depth=n)
    # G(Λ,x) = x when G is its variable leaf, X1: the rows are the points
    leaf = isinstance(g.expr, Var)
    t.env["g_fn"], dg = (None, dx) if leaf else g.kernel(dens and dx)
    lhs = _trace(f.expr, t, {f"X{i}": _endpoints(f"X{i}", dg, i)
                             for i in range(1, n + 1)})
    lam = _trace(phi.expr, t, {"X1": _endpoints("L", dx, 0)})
    rhs = _trace(g.expr, t, {"L": lam, "X1": _endpoints("H", dh, n)})
    den = lcm(lhs[0][1], rhs[0][1]) if t.exact else 1
    pairs = [(t.scaled(a, den), t.scaled(b, den)) for a, b in zip(lhs, rhs)]
    at = ", ".join(["il", *(f"i{i}" for i in range(1, n + 1))])
    rows = ", ".join(f"row{i}" for i in range(1, n + 1))
    t.lines[n].append(f"if {' or '.join(f'{a} != {b}' for a, b in pairs)}:")
    for (a, b), first in zip(pairs, ("first_lo", "first_hi")):
        t.lines[n] += [f"    d = abs({a} - {b})",
                       "    if d > max_dev: max_dev = d",
                       f"    if d > tol and {first} is None: {first} = {at}"]
    source = [
        "def fn(lams, xpts, h_table, tol):",
        f"    max_dev = {t.lit(0)}",
        "    first_lo = first_hi = None",
        "    R = range(len(xpts[-1]))",
        "    for il, lam in enumerate(lams):",
        "        Ll, Lh = lam",
        # one row per distinct point list
        *_indent([f"{rows}, = xpts"] if leaf else [
            "made = {id(xs): [g_fn(lam, x) for x in xs]",
            "        for xs in {id(xs): xs for xs in xpts}.values()}",
            f"{rows}, = [made[id(xs)] for xs in xpts]"], 2),
        "        ht = iter(h_table)",
        *_indent(t.lines[0], 2),
    ]
    for i in range(1, n + 1):
        loop = (f"for i{i}, (X{i}l, X{i}h) in enumerate(row{i}):" if i < n else
                f"for i{i}, (X{i}l, X{i}h), (Hl, Hh) in zip(R, row{i}, ht):")
        source += [*_indent([loop], i + 1), *_indent(t.lines[i], i + 2)]
    source.append("    return max_dev, first_lo, first_hi")
    return _compile(source, t.env), den


def _pairs(m: int) -> list[tuple[int, int]]:
    """The numerator pairs of all s grid points, in grid order."""
    return [(i, j) for i in range(m + 1) for j in range(i, m + 1)]


def _den(grid: Grid) -> int | None:
    """The kernel denominator of the grid's points: m in exact mode, None
    in float mode."""
    return grid.resolution if grid.mode.is_exact else None


def _law_parities(f: IVFunction, g: ScalingFunction, phi: OrderIso,
                  h: IVFunction) -> list[set]:
    """The parities of `neg`s above each of L, X1..Xn in the law of
    `_sweep_law`, decided from the ASTs alone: {0}, {1}, {0, 1}, or empty
    for a variable the law does not read.

    The law is traced into `expr._Reads`, bound as `sweep` binds it: F's
    X_i to G(L, X_i) on the left, and G's L to phi(L) and its X1 to H on
    the right. A variable's parities are the endpoints of it that the
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
    order, which the law's one generated loop (`sweep`) reads once per Λ
    point: as a list when Λ sweeps several points, else as they are made.
    When H is its variable leaf X1 over one X, as idempotency's is, its
    results are that X's points, over their denominator m, so H compiles
    no kernel. The loop computes the rest: phi is traced into it, and G's
    kernel, which it compiles unless G is its variable leaf, fills its
    rows. In exact mode both sides come out over one common
    denominator, so they compare as integers; two endpoints are equal when
    they differ by at most `mode.tol`, 0 in exact mode. `_lowest_failure`
    maps the first failure of each endpoint to the lowest failing grid
    tuple.
    """
    mode, m, n = grid.mode, grid.resolution, f.arity
    coords = _coordinates(grid, _law_parities(f, g, phi, h))
    # the X_i that share a point list share one G row in the sweep
    lams, *xpts = (points for points, _, _ in coords)
    leaf = n == 1 and isinstance(h.expr, Var)
    dx = _den(grid)
    h_fn, dh = (None, m) if leaf else h.kernel(dx)
    # compiled before any result of H is made, so that a law the generator
    # refuses is refused at once
    sweep_fn, den = sweep(f, g, phi, dx and (dx, dh))
    h_table = xpts[0] if leaf else itertools.starmap(
        h_fn, itertools.product(*xpts))
    # read once per Λ point, so made a list only when there are several
    if len(lams) > 1 and not leaf:
        h_table = list(h_table)
    max_dev, first_lo, first_hi = sweep_fn(lams, xpts, h_table, mode.tol)
    return (_lowest_failure(coords, first_lo, first_hi),
            fraction(max_dev, den) if mode.is_exact else max_dev)

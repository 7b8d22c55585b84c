"""The compiler of `expr` ASTs: the code generator.

`expr._trace` sends the code of each endpoint of an AST to a
`_ScalarTarget`, and `_compile` executes the generated source. This module
writes every generated function: `kernel`, the scalar-endpoint kernel of
one ingredient, which `expr._Compiled.kernel` keeps, and `sweep`, the fused
loop of one law of homogeneity's shape, which also checks idempotency.
`_trace` binds each variable to the refs of its two endpoints, so one
traced value can feed another ingredient's variable with no composed AST
built: `sweep` traces phi(Λ) into G's L, and compiles no kernel for phi.
Each caller imports this module on first use, so a run that compiles no
kernel, such as a `check` that `homogeneity` certifies from the ASTs,
never loads it.

Every op is representable: each endpoint of its result comes from one
scalar formula, over the same endpoint of its arguments, or for `neg` over
the other one. So `_trace` walks an AST once per endpoint, and each op of
`_ScalarTarget` is written once. No walk compares two trees.
"""

from __future__ import annotations

from collections.abc import Callable
from math import lcm, log10

from .expr import Const, ExprError, Node, Var, _trace
from .interval import MAX_DIGITS, fraction, too_long

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
           dens: tuple[int, ...] | None) -> tuple[Callable, int]:
    """The scalar-endpoint kernel of `node` over `params`, and the
    denominator of its results.

    The kernel takes one (lo, hi) tuple per parameter and returns one
    (lo, hi) tuple. `dens` holds each parameter's denominator in exact
    mode and is None in float mode, where every denominator is 1. An
    exact argument is the numerators of a value over its denominator: the
    sweeps pass ints, and `expr._Compiled.__call__` any rationals.
    """
    t = _ScalarTarget(dens is not None)
    refs = _trace(node, t, {p: _endpoints(p, d, 0) for p, d in zip(
        params, dens or (1,) * len(params), strict=True)})
    den = refs[0][1]
    lo, hi = (t.scaled(r, den) for r in refs)
    return _compile([f"def fn({', '.join(params)}):",
                     *(f"    {p}l, {p}h = {p}" for p in params),
                     *_indent(t.lines[0], 1),
                     f"    return ({lo}, {hi})"], t.env), den


def sweep(f: "IVFunction", g: "ScalingFunction", phi: "OrderIso",
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
    t.env["g_fn"], dg = (None, dx) if leaf else g.kernel(dens and (dx, dx))
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

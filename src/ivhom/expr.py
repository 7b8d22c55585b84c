"""The expression IR of every ingredient: AST and compiler.

Built-in and user-defined IV-functions, scalings and order isomorphisms are
all ASTs over the nodes below; `dsl` parses the `expr:` sources. `_compile`
is the one place an AST becomes a callable: a scalar-endpoint kernel of one
ingredient (`_Compiled.kernel`), or the fused loop of one law of
homogeneity's shape (`sweep`), which also checks idempotency. The kernels
serve the sweeps of `homogeneity` and `__call__` on `Interval`s. An exact
call passes the `Fraction` endpoints themselves as numerators over
denominator 1, which a kernel built only of ring ops, comparisons and int
literals evaluates exactly; a float call passes the doubles.

An AST is valid once built: each node checks its op, constant, index and
depth (`gate.MAX_DEPTH`), and each ingredient its variables. It is traced
only when a kernel is compiled, and an ingredient compiles its kernel
once for each set of parameter denominators and keeps it. A passing
`check` traces G, phi, F and its sweep, so a float run traces no exact
code. Exact numbers come from `interval.fraction`, so a float run with no
DSL constant loads no `fractions`.

Every op is representable: each endpoint of its result comes from one
scalar formula, over the same endpoint of its arguments, or for `neg` over
the other one. So `_trace` walks an AST once per endpoint, and each op of
`_ScalarTarget` is written once. No walk compares two trees.
"""

from __future__ import annotations

from functools import reduce
from math import lcm, log10
from typing import Callable, Union

from .gate import MAX_ARITY, MAX_DEPTH, MAX_POW_EXPONENT, check_arity
from .interval import MAX_DIGITS, Interval, _set, _Value, fraction, too_long


class ExprError(ValueError):
    """Syntax, arity or compile error in an expression. A parser error
    carries its 1-based source position; one that a node, an ingredient or
    the compiler finds has none, and its message names no position."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


#: the error for a node, or a source, deeper than `MAX_DEPTH`
TOO_DEEP = f"expression nested too deeply: more than {MAX_DEPTH} levels"


class _Node(_Value):
    """An AST node. Its hash and its depth are computed once, at
    construction, from those its children cached, so neither recurses, and
    a node deeper than `MAX_DEPTH` is refused there. So each walk of a
    built tree recurses at most `MAX_DEPTH` times, whoever calls it."""

    __slots__ = ("_hash", "_depth")

    def __init__(self, *values, depth: int = 1) -> None:
        if depth > MAX_DEPTH:
            raise ExprError(TOO_DEEP)
        super().__init__(*values)
        _set(self, "_hash", hash((self.__class__, values)))
        _set(self, "_depth", depth)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        """Equal by class and fields, compared on an explicit stack, so no
        depth recurses; unequal cached hashes decide at once."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]  # pairs of nodes, fields or a call's args
        while stack:
            a, b = stack.pop()
            if isinstance(a, _Node):
                if a.__class__ is not b.__class__ or a._hash != b._hash:
                    return False
                stack += zip(a._values(), b._values())
            elif isinstance(a, tuple):
                if len(a) != len(b):
                    return False
                stack += zip(a, b)
            elif a != b:
                return False
        return True


class Var(_Node):
    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        if index < 1:
            raise ExprError(f"variable index must be >= 1, got {index}")
        super().__init__(index)


class LVar(_Node):
    __slots__ = ()


class Const(_Node):
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        Interval(lo, hi)  # a constant must be an interval of [0,1]
        super().__init__(lo, hi)


class Pow(_Node):
    __slots__ = ("arg", "exponent")

    def __init__(self, arg: "Node", exponent: int) -> None:
        if exponent < 1:
            raise ExprError("pow exponent must be a positive integer")
        if exponent > MAX_POW_EXPONENT:
            raise ExprError(f"pow exponent {exponent} exceeds the limit of "
                            f"{MAX_POW_EXPONENT}")
        super().__init__(arg, exponent, depth=arg._depth + 1)


class Proj(_Node):
    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        if index < 1:
            raise ExprError(f"proj index must be >= 1, got {index}")
        super().__init__(index)


class Call(_Node):
    __slots__ = ("ident", "args")

    def __init__(self, ident: str, args: tuple["Node", ...]) -> None:
        if ident not in _OPS:
            raise ExprError(f"unknown operation {ident!r}")
        if ident == "neg" and len(args) != 1:
            raise ExprError("neg takes exactly one argument")
        if not args:
            raise ExprError(f"{ident} needs at least one argument")
        super().__init__(ident, args,
                         depth=1 + max((a._depth for a in args), default=0))


Node = Union[Var, LVar, Const, Pow, Proj, Call]


#: The ops of a `Call`, which `_ScalarTarget.op` compiles; `pow` is a `Pow`.
_OPS = {"min", "max", "mul", "psum", "neg", "mean"}
#: binary ops applied to n arguments by folding left, as functools.reduce does
_FOLDED = {"min", "max", "mul", "psum"}


def parities(node: Node) -> dict[str, set[int]]:
    """For each variable of the AST, "L" or "X<k>" (`proj(k)` too), the
    parities of the number of `neg` calls above its occurrences: {0}, {1}
    or {0, 1}."""
    out: dict[str, set[int]] = {}

    def visit(n: Node, odd: int) -> None:
        if isinstance(n, (Var, Proj)):
            out.setdefault(f"X{n.index:d}", set()).add(odd)
        elif isinstance(n, LVar):
            out.setdefault("L", set()).add(odd)
        elif isinstance(n, Pow):
            visit(n.arg, odd)
        elif isinstance(n, Call):
            for arg in n.args:
                visit(arg, odd ^ (n.ident == "neg"))

    visit(node, 0)
    return out


def _past_arity(variables, arity: int) -> str | None:
    """The error for the highest X<k> of `variables`, names such as
    `parities` gives, if k exceeds `arity`."""
    hi = max((int(v[1:]) for v in variables if v != "L"), default=0)
    return f"variable X{hi} exceeds declared arity {arity}" if hi > arity else None


def parse_expr(src: str, arity: int) -> Node:
    """Parse and check variable indices against the declared arity."""
    from .dsl import _Parser

    check_arity(arity)
    node = _Parser(src).parse()
    error = _past_arity(parities(node), arity)
    if error:
        raise ExprError(error)
    return node


def _map_leaves(node: Node, leaf: Callable[[Node], Node]) -> Node:
    """`node` with each variable, X<k>, proj(k) or L, replaced by `leaf` of
    it, in one walk of one frame a level."""

    def walk(n: Node) -> Node:
        if isinstance(n, (Var, Proj, LVar)):
            return leaf(n)
        if isinstance(n, Pow):
            return Pow(walk(n.arg), n.exponent)
        if isinstance(n, Call):
            return Call(n.ident, tuple(map(walk, n.args)))
        return n

    return walk(node)


def dual(node: Node) -> Node:
    """The standard-negation dual neg(F(neg(X1),...)), with L -> neg(L)."""
    return Call("neg", (_map_leaves(node, lambda n: Call("neg", (n,))),))


def diagonal(node: Node) -> Node:
    """F(X1,...,X1): each X<k> and proj(k) replaced by X1, and L kept."""
    return _map_leaves(node, lambda n: n if isinstance(n, LVar) else Var(1))


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


def _trace(node: Node, target: _ScalarTarget, env: dict) -> tuple:
    """Send the code of an AST to `target` and return the refs of the
    result's lower and upper endpoint.

    `env` holds the (name, den, level) of each parameter, "L" or "X<k>":
    its endpoints are the names `<name>l` and `<name>h`. Each endpoint is
    traced on its own: every op but `neg` applies its formula to that
    endpoint of its arguments, and `neg` to the other one. The walk
    memoizes by node and endpoint, and compares no two trees: equal
    subtrees give equal code, which `target` computes once. The code keeps
    the operation order of the tree, so float results match a direct
    evaluation.
    """
    refs: dict = {}

    def ref(n: Node, side: int) -> tuple:
        key = id(n), side
        if key not in refs:
            if isinstance(n, (Var, Proj, LVar)):
                name, den, level = env["L" if isinstance(n, LVar)
                                       else f"X{n.index:d}"]
                r = f"{name}{'lh'[side]}", den, level
            elif isinstance(n, Const):
                r = target.const(n, side)
            elif isinstance(n, Pow):
                r = target.pow(ref(n.arg, side), n.exponent)
            else:  # `neg` reads the other endpoint of its argument
                args = [ref(a, side ^ (n.ident == "neg")) for a in n.args]
                r = (reduce(lambda x, y: target.op(n.ident, (x, y)), args)
                     if n.ident in _FOLDED else target.op(n.ident, args))
            refs[key] = r
        return refs[key]

    return ref(node, 0), ref(node, 1)


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


class _Compiled(_Value):
    """The compiled forms of an ingredient's `expr` over its `params`: slots
    of this base, so the ingredient's equality and hash leave them out.

    `fns` maps the `dens` of each kernel asked for (`kernel`) to its
    (kernel, denominator), traced and compiled on the first request and
    kept after that, so no kernel is compiled twice. Construction traces
    nothing.
    """

    __slots__ = ("params", "fns")

    def _compile_expr(self, params: tuple[str, ...], misuse: str) -> None:
        """Set `params` and `fns` if `expr` reads no other variable. Else
        refuse it with `misuse`, or, for an F or phi that reads no L, with
        the arity error of `parse_expr` for its highest X<k>."""
        used = parities(self.expr).keys() - set(params)
        if used:
            raise ExprError(misuse if "L" in used | set(params)
                            else _past_arity(used, len(params)))
        _set(self, "params", params)
        _set(self, "fns", {})

    def __call__(self, *xs: Interval) -> Interval:
        """The value at one Interval per parameter, in the mode of the
        first one's endpoints: the kernel over `Fraction` endpoints, as
        numerators over denominator 1, or over doubles."""
        if len(xs) != len(self.params):
            raise TypeError(f"{self.name} expects {len(self.params)} "
                            f"argument(s), got {len(xs)}")
        is_float = isinstance(xs[0].lo, float)
        fn, den = self.kernel(None if is_float else (1,) * len(xs))
        lo, hi = fn(*((x.lo, x.hi) for x in xs))
        if is_float:
            return Interval(lo, hi)
        return Interval(fraction(lo, den), fraction(hi, den))

    def kernel(self, dens: tuple[int, ...] | None = None) -> tuple[Callable, int]:
        """The scalar-endpoint kernel and the denominator of its results,
        compiled once for each `dens`.

        The kernel takes one (lo, hi) tuple per parameter and returns one
        (lo, hi) tuple. `dens` holds each parameter's denominator in exact
        mode and is None in float mode, where every denominator is 1.
        """
        if dens not in self.fns:
            t = _ScalarTarget(dens is not None)
            env = {p: (p, d, 0) for p, d in zip(
                self.params, dens or (1,) * len(self.params), strict=True)}
            refs = _trace(self.expr, t, env)
            den = refs[0][1]
            lo, hi = (t.scaled(r, den) for r in refs)
            fn = _compile([f"def fn({', '.join(self.params)}):",
                           *(f"    {p}l, {p}h = {p}" for p in self.params),
                           *_indent(t.lines[0], 1),
                           f"    return ({lo}, {hi})"], t.env)
            self.fns[dens] = fn, den
        return self.fns[dens]


def sweep(f: "IVFunction", g: "ScalingFunction",
          dens: tuple[int, int, int] | None) -> tuple[Callable, int]:
    """The sweep of the law F(G(L,X1),...,G(L,Xn)) = G(phi(L),
    H(X1,...,Xn)) as one generated function, and the one denominator of
    both sides. Homogeneity is the law with H = F, and idempotency one
    with H = X1 (`homogeneity`).

    `fn(lams, xpts, h_table, g_fn, phi_fn, tol)` takes the sweep points of
    Λ and the list of sweep points of each X_i, as kernel arguments, H's
    kernel results on `itertools.product(*xpts)` in order, and the kernels
    of G and phi. For each Λ in `lams` it fills one row [G(Λ,x) for x in
    xs] per distinct list object xs in `xpts`, which every X_i that sweeps
    it shares, and phi(Λ) with those kernels, then runs n nested loops, one
    over the row of each X_i, X1 outermost, walking the H table in order.
    Both sides are inlined, and each subexpression is computed in the loop
    of the last variable it reads. It returns the largest endpoint
    deviation (0 of the mode's number type when there is none), and the
    positions (Λ, X1, ..., Xn) in those point lists of the first tuple
    whose lower endpoints, and of the first whose upper endpoints, differ
    by more than `tol`, each None when there is none.

    `dens` is the (G, phi, H) kernels' result denominators in exact mode,
    None in float mode.
    """
    n = f.arity
    dg, dphi, dh = dens or (1, 1, 1)
    t = _ScalarTarget(dens is not None, depth=n)
    lhs = _trace(f.expr, t, {f"X{i}": (f"X{i}", dg, i)
                             for i in range(1, n + 1)})
    rhs = _trace(g.expr, t, {"L": ("P", dphi, 0), "X1": ("H", dh, n)})
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
        "def fn(lams, xpts, h_table, g_fn, phi_fn, tol):",
        f"    max_dev = {t.lit(0)}",
        "    first_lo = first_hi = None",
        "    R = range(len(xpts[-1]))",
        "    shared = {id(xs): xs for xs in xpts}",
        "    for il, lam in enumerate(lams):",
        "        made = {k: [g_fn(lam, x) for x in xs]",
        "                for k, xs in shared.items()}",
        f"        {rows}, = [made[id(xs)] for xs in xpts]",
        "        Pl, Ph = phi_fn(lam)",
        "        ht = iter(h_table)",
        *_indent(t.lines[0], 2),
    ]
    for i in range(1, n + 1):
        loop = (f"for i{i}, (X{i}l, X{i}h) in enumerate(row{i}):" if i < n else
                f"for i{i}, (X{i}l, X{i}h), (Hl, Hh) in zip(R, row{i}, ht):")
        source += [*_indent([loop], i + 1), *_indent(t.lines[i], i + 2)]
    source.append("    return max_dev, first_lo, first_hi")
    return _compile(source, t.env), den


class IVFunction(_Compiled):
    """An n-ary IV-function: an AST over X1..Xn and its compiled form."""

    __slots__ = ("name", "arity", "expr")

    def __init__(self, name: str, arity: int, expr: Node) -> None:
        check_arity(arity)
        super().__init__(name, arity, expr)
        self._compile_expr(tuple(f"X{i}" for i in range(1, arity + 1)),
                           "IV-function expressions may not use L")


class ScalingFunction(_Compiled):
    """A scaling function G(L, X1): an AST over L and X1, compiled."""

    __slots__ = ("name", "expr")

    def __init__(self, name: str, expr: Node) -> None:
        super().__init__(name, expr)
        self._compile_expr(("L", "X1"),
                           "scaling expressions may only use L and X1")


class OrderIso(_Compiled):
    """A bijective order-preserving unary map: an AST over X1, compiled.

    exact_ok is False when the inverse is irrational on rational inputs
    (then the iso is usable only in float mode).
    """

    __slots__ = ("name", "expr", "exact_ok")

    def __init__(self, name: str, expr: Node, exact_ok: bool = True) -> None:
        super().__init__(name, expr, exact_ok)
        self._compile_expr(("X1",), "order isomorphism expressions may not use L")


def compile_ivfunction(node: Node, arity: int, name: str = "expr") -> IVFunction:
    return IVFunction(name, arity, node)


def compile_scaling(node: Node, name: str = "expr") -> ScalingFunction:
    """Compile an expression over {L, X1} into a scaling function G(L, X1)."""
    return ScalingFunction(name, node)

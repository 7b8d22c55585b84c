"""The expression IR of every ingredient: the AST and the ingredients.

Built-in and user-defined IV-functions, scalings and order isomorphisms are
all ASTs over the nodes below, with one leaf class for a variable X<k>,
which the DSL also spells `proj(k)`; `dsl` parses the `expr:` sources,
and `compiler` writes every generated function: the scalar-endpoint
kernel of one ingredient over one denominator (`compiler.kernel`, kept by
`_Compiled.kernel`), and the fused loop of one law of homogeneity's shape
(`compiler.sweep`), which, with the rest of the swept path, is in that
module too. The kernels serve the sweeps of `homogeneity` and `__call__`
on `Interval`s. An exact call runs on an exact kernel the ingredient
already has, such as a sweep's over the grid's denominator, and passes
each endpoint, an int or a `Fraction`, times that denominator, which
a kernel built only of ring ops, comparisons and int literals evaluates
exactly; only an ingredient with none compiles one over denominator 1. A
float call passes the doubles.

An AST is valid once built: each node checks its op, constant, index and
depth (`gate.MAX_DEPTH`), and each ingredient its variables. `_trace`,
the one walker of the endpoint rule (`neg` swaps the endpoints, every
other op keeps them), sends each endpoint of an AST to a target:
`compiler._ScalarTarget` writes its code, and `_Reads` gives what it reads,
from which come `parities`, which each ingredient keeps from its
construction, and the parities of a swept law's variables
(`compiler._law_parities`). An ingredient compiles its kernel only when
one is asked for, once for each denominator, and keeps it.
`compiler` is imported with the first kernel, so a run that compiles none
never loads it: one whose every law `homogeneity` certifies from the ASTs
alone. A float run traces no exact code. Exact numbers come from
`interval.fraction`, so a float run with no DSL constant loads no
`fractions`, and an exact run loads it only for a number that is not
whole."""

from __future__ import annotations

from collections.abc import Callable
from functools import reduce

from .gate import MAX_ARITY, MAX_DEPTH, MAX_POW_EXPONENT, check_arity
from .interval import Interval, _set, _Value, fraction


class ExprError(ValueError):
    """Syntax, arity or compile error in an expression. An error that the
    parser finds, or that a node it builds raises, carries its 1-based
    source position; one that a node built in code, an ingredient or the
    compiler finds has none, and its message names no position."""

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

    def __init__(self, lo: int | Fraction, hi: int | Fraction) -> None:
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


#: a Var, LVar, Const, Pow or Call
Node = _Node


#: The ops of a `Call`, which `_ScalarTarget.op` compiles; `pow` is a `Pow`.
_OPS = {"min", "max", "mul", "psum", "neg", "mean"}
#: binary ops applied to n arguments by folding left, as functools.reduce does
_FOLDED = {"min", "max", "mul", "psum"}


def parities(node: Node) -> dict[str, set[int]]:
    """For each variable of the AST, "L" or "X<k>", the parities of the
    number of `neg` calls above its occurrences: {0}, {1} or {0, 1}, the
    endpoints of it that the lower endpoint of the AST reads (`_Reads`), 0
    for its lower endpoint and 1 for its upper one."""
    lo, _ = _trace(node, reads := _Reads(), reads)
    return {name: {s for v, s in lo if v == name} for name, _ in lo}


def _trace(node: Node, target, env: dict) -> tuple:
    """Send each endpoint of an AST to `target`, op by op, and return the
    refs of the result's lower and upper endpoint.

    A target is the compiler's `_ScalarTarget`, whose refs are code, or
    `_Reads`, whose refs are what an endpoint reads. `env` holds the refs
    of the two endpoints of each variable, "L" or "X<k>": a parameter's,
    or those of a value traced before, such as another ingredient's
    result, which so feeds this AST's variable with no composed tree
    built. Each endpoint is traced on its own: every op but `neg` applies
    its formula to that endpoint of its arguments, and `neg` to the other
    one, the representability rule of every op. The walk memoizes by node
    and endpoint, and compares no two trees: equal subtrees give equal
    code, which `_ScalarTarget` computes once. The code keeps the
    operation order of the tree, so float results match a direct
    evaluation.
    """
    refs: dict = {}

    def ref(n: Node, side: int) -> tuple:
        key = id(n), side
        if key not in refs:
            if isinstance(n, (Var, LVar)):
                r = env["L" if isinstance(n, LVar) else f"X{n.index:d}"][side]
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


class _Reads(dict):
    """The `_trace` target whose ref is the set of (variable, endpoint)
    pairs that an endpoint reads, and its env: a constant reads none, `pow`
    what its argument reads and an op what its arguments read. A variable
    that the dict does not bind reads its own two endpoints."""

    def __missing__(self, name: str) -> tuple:
        return frozenset({(name, 0)}), frozenset({(name, 1)})

    def const(self, c: Const, side: int) -> frozenset:
        return frozenset()

    def pow(self, arg: frozenset, k: int) -> frozenset:
        return arg

    def op(self, ident: str, args) -> frozenset:
        return frozenset().union(*args)


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
    """`node` with each variable, X<k> or L, replaced by `leaf` of it, in
    one walk of one frame a level."""

    def walk(n: Node) -> Node:
        if isinstance(n, (Var, LVar)):
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
    """F(X1,...,X1): each X<k> replaced by X1, and L kept."""
    return _map_leaves(node, lambda n: n if isinstance(n, LVar) else Var(1))


class _Compiled(_Value):
    """The compiled forms of an ingredient's `expr` over its `params`: slots
    of this base, so the ingredient's equality and hash leave them out.

    `parities` is `expr.parities` of `expr`, traced once, at construction.
    `fns` maps the denominator of each kernel asked for (`kernel`) to its
    (kernel, denominator), traced and compiled on the first request and
    kept after that, so no kernel is compiled twice. Construction traces
    no code.
    """

    __slots__ = ("params", "parities", "fns")

    def _compile_expr(self, params: tuple[str, ...], misuse: str) -> None:
        """Set `params`, `parities` and `fns` if `expr` reads no other
        variable. Else refuse it with `misuse`, or, for an F or phi that
        reads no L, with the arity error of `parse_expr` for its highest
        X<k>."""
        _set(self, "parities", parities(self.expr))
        used = self.parities.keys() - set(params)
        if used:
            raise ExprError(misuse if "L" in used | set(params)
                            else _past_arity(used, len(params)))
        _set(self, "params", params)
        _set(self, "fns", {})

    def __call__(self, *xs: Interval) -> Interval:
        """The value at one Interval per parameter, in the mode of the
        first one's endpoints: the float kernel over the doubles, or an
        exact kernel the ingredient already has, such as a sweep's over the
        grid's denominator, over each endpoint times that denominator. Only
        an ingredient with no exact kernel compiles one, over denominator
        1. An exact kernel uses only ring ops, comparisons and int literals,
        so it gives the exact value on any rational numerators, whole or
        not. An ingredient that is its variable leaf X<k> gives that
        argument, and compiles no kernel."""
        if len(xs) != len(self.params):
            raise TypeError(f"{self.name} expects {len(self.params)} "
                            f"argument(s), got {len(xs)}")
        if isinstance(self.expr, Var):
            return xs[self.params.index(f"X{self.expr.index:d}")]
        if isinstance(xs[0].lo, float):
            fn, _ = self.kernel(None)
            return Interval(*fn(*((x.lo, x.hi) for x in xs)))
        d = next(filter(None, self.fns), 1)
        fn, den = self.kernel(d)
        lo, hi = fn(*((x.lo * d, x.hi * d) for x in xs))
        return Interval(fraction(lo, den), fraction(hi, den))

    def kernel(self, den: int | None = None) -> tuple[Callable, int]:
        """The scalar-endpoint kernel and the denominator of its results
        (`compiler.kernel`), compiled once for each `den`: the denominator
        of every parameter in exact mode, None in float mode."""
        if den not in self.fns:
            from .compiler import kernel

            self.fns[den] = kernel(self.expr, self.params, den)
        return self.fns[den]


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

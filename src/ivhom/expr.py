"""The expression IR of every ingredient: AST, DSL parser and compiler.

Built-in and user-defined IV-functions, scalings and order isomorphisms are
all ASTs over the nodes below, and `_compile` is the one place an AST
becomes a callable.

Grammar:
    expr  := call | var | const
    call  := ident "(" expr { "," expr } ")"
    var   := "L" | "X" digits
    const := "[" number "," number "]"
    ident := "min" | "max" | "mul" | "psum" | "neg" | "mean" | "pow" | "proj"

pow takes (expr, positive-integer-literal); proj takes an integer-literal
argument index. Numbers are decimals or rationals like 1/3.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, Union

from .interval import Interval, complement, join, meet, prob_sum, product


class ExprError(ValueError):
    """Syntax or arity error in a DSL expression, with 1-based position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class LVar:
    pass


@dataclass(frozen=True)
class Const:
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class Pow:
    arg: "Node"
    exponent: int


@dataclass(frozen=True)
class Proj:
    index: int


@dataclass(frozen=True)
class Call:
    ident: str
    args: tuple["Node", ...]


Node = Union[Var, LVar, Const, Pow, Proj, Call]


def _mean(*xs: Interval) -> Interval:
    n = len(xs)
    lo = sum(x.lo for x in xs)
    hi = sum(x.hi for x in xs)
    if isinstance(lo, float) or isinstance(hi, float):
        return Interval(lo / n, hi / n)
    return Interval(Fraction(lo, n), Fraction(hi, n))


def _pow(x: Interval, k: int) -> Interval:
    return reduce(product, [x] * k)


#: The one op table: DSL identifier -> interval operation.
_OPS = {
    "min": meet,
    "max": join,
    "mul": product,
    "psum": prob_sum,
    "neg": complement,
    "mean": _mean,
    "pow": _pow,
}
#: binary ops applied to n arguments by folding left, as functools.reduce does
_FOLDED = {"min", "max", "mul", "psum"}

_IDENTS = {*_OPS, "proj"}
# minimum argument counts; None marks special-cased forms (pow, proj)
_MIN_ARGS = {"min": 2, "max": 2, "mul": 2, "psum": 2, "neg": 1, "mean": 1}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?(?:/\d+)?)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<punct>[()\[\],])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | punct | end
    text: str
    line: int
    column: int


def _show(tok: _Token) -> str:
    return "end of input" if tok.kind == "end" else repr(tok.text)


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExprError(f"unexpected character {src[pos]!r}", line, col)
        text = m.group(0)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, text, line, col))
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ExprError(message, tok.line, tok.column)

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.kind == "end" or tok.text != text:
            self.fail(f"expected {text!r}, found {_show(tok)}", tok)
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected trailing input {tok.text!r}", tok)
        return node

    def expr(self) -> Node:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "[":
            return self.const()
        if tok.kind == "ident":
            if tok.text == "L":
                self.next()
                return LVar()
            m = re.fullmatch(r"X(\d+)", tok.text)
            if m:
                self.next()
                idx = int(m.group(1))
                if idx < 1:
                    self.fail("variable index must be >= 1", tok)
                return Var(idx)
            if tok.text in _IDENTS:
                return self.call()
            self.fail(f"unknown identifier {tok.text!r}", tok)
        self.fail(f"expected expression, found {_show(tok)}", tok)

    def const(self) -> Node:
        self.expect("[")
        lo = self.number()
        self.expect(",")
        hi = self.number()
        self.expect("]")
        return Const(lo, hi)

    def number(self) -> Fraction:
        tok = self.next()
        if tok.kind != "number":
            self.fail(f"expected number, found {_show(tok)}", tok)
        return Fraction(tok.text)

    def integer(self) -> int:
        tok = self.next()
        if tok.kind != "number" or not tok.text.isdigit():
            self.fail("expected integer literal", tok)
        return int(tok.text)

    def call(self) -> Node:
        ident = self.next()
        self.expect("(")
        if ident.text == "proj":
            idx = self.integer()
            self.expect(")")
            if idx < 1:
                self.fail("proj index must be >= 1", ident)
            return Proj(idx)
        if ident.text == "pow":
            base = self.expr()
            self.expect(",")
            k = self.integer()
            self.expect(")")
            if k < 1:
                self.fail("pow exponent must be a positive integer", ident)
            return Pow(base, k)
        args = [self.expr()]
        while self.peek().text == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        if len(args) < _MIN_ARGS[ident.text]:
            self.fail(
                f"{ident.text} needs at least {_MIN_ARGS[ident.text]} argument(s)",
                ident,
            )
        if ident.text == "neg" and len(args) != 1:
            self.fail("neg takes exactly one argument", ident)
        return Call(ident.text, tuple(args))


def _walk(node: Node):
    yield node
    if isinstance(node, Call):
        for arg in node.args:
            yield from _walk(arg)
    elif isinstance(node, Pow):
        yield from _walk(node.arg)


def uses_l(node: Node) -> bool:
    return any(isinstance(n, LVar) for n in _walk(node))


def max_var_index(node: Node) -> int:
    return max((n.index for n in _walk(node) if isinstance(n, (Var, Proj))),
               default=0)


def parse_expr(src: str, arity: int) -> Node:
    """Parse and check variable indices against the declared arity."""
    if arity < 1:
        raise ValueError("arity must be a positive integer")
    node = _Parser(src).parse()
    hi = max_var_index(node)
    if hi > arity:
        raise ExprError(f"variable X{hi} exceeds declared arity {arity}", 1, 1)
    return node


def dual(node: Node) -> Node:
    """The standard-negation dual neg(F(neg(X1),...)), with L -> neg(L)."""

    def negate_leaves(n: Node) -> Node:
        if isinstance(n, (Var, Proj, LVar)):
            return Call("neg", (n,))
        if isinstance(n, Pow):
            return Pow(negate_leaves(n.arg), n.exponent)
        if isinstance(n, Call):
            return Call(n.ident, tuple(map(negate_leaves, n.args)))
        return n

    return Call("neg", (negate_leaves(node),))


def _compile(node: Node, params: str) -> Callable[..., Interval]:
    """Compile an AST once into a flat Python function of `params`.

    Each distinct subtree is computed once, into one local variable, in the
    operation order of the tree, so float results match a direct
    evaluation. The generated source holds only op names from `_OPS`,
    integer indices and the names of constants: no text of the user's
    expression reaches it.
    """
    env: dict = dict(_OPS)
    lines: list[str] = []
    names: dict = {}

    def local(src: str) -> str:
        lines.append(f"    t{len(lines)} = {src}\n")
        return f"t{len(lines) - 1}"

    def ref(n: Node) -> str:
        if isinstance(n, (Var, Proj)):
            return f"X{n.index:d}"
        if isinstance(n, LVar):
            return "L"
        if n not in names:
            if isinstance(n, Const):
                names[n] = f"c{len(env)}"
                env[names[n]] = Interval(n.lo, n.hi)
            elif isinstance(n, Pow):
                names[n] = local(f"pow({ref(n.arg)}, {n.exponent:d})")
            elif n.ident not in _OPS:
                raise ExprError(f"unknown operation {n.ident!r}", 1, 1)
            elif n.ident in _FOLDED:
                acc, *rest = map(ref, n.args)
                for arg in rest:
                    acc = local(f"{n.ident}({acc}, {arg})")
                names[n] = acc
            else:
                names[n] = local(f"{n.ident}({', '.join(map(ref, n.args))})")
        return names[n]

    result = ref(node)
    exec(f"def fn({params}):\n{''.join(lines)}    return {result}\n", env)
    return env["fn"]


def _set_fn(obj, params: str) -> None:
    object.__setattr__(obj, "fn", _compile(obj.expr, params))


@dataclass(frozen=True)
class IVFunction:
    """An n-ary IV-function: an AST over X1..Xn and its compiled form."""

    name: str
    arity: int
    expr: Node = field(repr=False)
    fn: Callable[..., Interval] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be a positive integer")
        _set_fn(self, ", ".join(f"X{i}" for i in range(1, self.arity + 1)))

    def __call__(self, *xs: Interval) -> Interval:
        if len(xs) != self.arity:
            raise TypeError(
                f"{self.name} expects {self.arity} argument(s), got {len(xs)}"
            )
        return self.fn(*xs)


@dataclass(frozen=True)
class ScalingFunction:
    """A scaling function G(L, X1): an AST over L and X1, compiled."""

    name: str
    expr: Node = field(repr=False)
    fn: Callable[[Interval, Interval], Interval] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _set_fn(self, "L, X1")

    def __call__(self, a: Interval, b: Interval) -> Interval:
        return self.fn(a, b)


@dataclass(frozen=True)
class OrderIso:
    """A bijective order-preserving unary map: an AST over X1, compiled.

    exact_ok is False when the inverse is irrational on rational inputs
    (then the iso is usable only in float mode).
    """

    name: str
    expr: Node = field(repr=False)
    exact_ok: bool = True
    fn: Callable[[Interval], Interval] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _set_fn(self, "X1")

    def __call__(self, x: Interval) -> Interval:
        return self.fn(x)


def compile_ivfunction(node: Node, arity: int, name: str = "expr") -> IVFunction:
    if uses_l(node):
        raise ExprError("IV-function expressions may not use L", 1, 1)
    return IVFunction(name, arity, node)


def compile_scaling(node: Node, name: str = "expr") -> ScalingFunction:
    """Compile an expression over {L, X1} into a scaling function G(L, X1)."""
    if max_var_index(node) > 1:
        raise ExprError("scaling expressions may only use L and X1", 1, 1)
    return ScalingFunction(name, node)

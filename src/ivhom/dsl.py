"""The DSL front end: tokenizer and parser of `expr:` sources into `expr`
ASTs. `expr.parse_expr` imports it on its first call, so a run whose
ingredients all come from the registry never compiles it.

Grammar:
    expr  := call | var | const
    call  := ident "(" expr { "," expr } ")"
    var   := "L" | "X" digits
    const := "[" number "," number "]"
    ident := "min" | "max" | "mul" | "psum" | "neg" | "mean" | "pow" | "proj"

pow takes (expr, positive-integer-literal); proj takes an integer-literal
argument index. Numbers are decimals or rationals like 1/3; a zero
denominator is a syntax error. A constant's endpoints are exact, made by
`interval.fraction`, so only a source with a constant that is not whole,
such as `[0,1/2]`, loads `fractions`.
An expression deeper than `gate.MAX_DEPTH` is refused at its first token.
"""

from __future__ import annotations

import re

from .expr import (_OPS, TOO_DEEP, Call, Const, ExprError, LVar, Node, Pow,
                   Proj, Var)
from .gate import MAX_DEPTH, MAX_POW_EXPONENT
from .interval import _Value, fraction

_IDENTS = {*_OPS, "pow", "proj"}
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


class _Token(_Value):
    __slots__ = ("kind", "text", "line", "column")  # kind: number|ident|punct|end


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

    def expr(self, depth: int = 1) -> Node:
        tok = self.peek()
        if depth > MAX_DEPTH:  # the tree would be deeper, so recurse no more
            self.fail(TOO_DEEP, tok)
        if tok.kind == "punct" and tok.text == "[":
            return self.const()
        if tok.kind == "ident":
            if tok.text == "L":
                self.next()
                return LVar()
            m = re.fullmatch(r"X(\d+)", tok.text)
            if m:
                self.next()
                idx = self.convert(int, tok, m.group(1))
                if idx < 1:
                    self.fail("variable index must be >= 1", tok)
                return Var(idx)
            if tok.text in _IDENTS:
                return self.call(depth)
            self.fail(f"unknown identifier {tok.text!r}", tok)
        self.fail(f"expected expression, found {_show(tok)}", tok)

    def const(self) -> Node:
        self.expect("[")
        lo = self.number()
        self.expect(",")
        hi = self.number()
        self.expect("]")
        return Const(lo, hi)

    def number(self) -> int | Fraction:
        tok = self.next()
        if tok.kind != "number":
            self.fail(f"expected number, found {_show(tok)}", tok)
        return self.convert(fraction, tok)

    def integer(self) -> int:
        tok = self.next()
        if tok.kind != "number" or not tok.text.isdigit():
            self.fail("expected integer literal", tok)
        return self.convert(int, tok)

    def convert(self, kind, tok: _Token, text: str | None = None):
        """`kind(text)`, where `text` is by default the token's; `1/0`,
        `1.5/2` or a literal of more digits than Python converts is a
        syntax error at the token."""
        text = tok.text if text is None else text
        try:
            return kind(text)
        except ZeroDivisionError:
            self.fail(f"zero denominator in {text!r}", tok)
        except ValueError:
            self.fail(f"invalid number {text!r}", tok)

    def call(self, depth: int) -> Node:
        ident = self.next()
        self.expect("(")
        if ident.text == "proj":
            idx = self.integer()
            self.expect(")")
            if idx < 1:
                self.fail("proj index must be >= 1", ident)
            return Proj(idx)
        if ident.text == "pow":
            base = self.expr(depth + 1)
            self.expect(",")
            k = self.integer()
            self.expect(")")
            if k < 1:
                self.fail("pow exponent must be a positive integer", ident)
            if k > MAX_POW_EXPONENT:
                self.fail(f"pow exponent {k} exceeds the limit of "
                          f"{MAX_POW_EXPONENT}", ident)
            return Pow(base, k)
        args = [self.expr(depth + 1)]
        while self.peek().text == ",":
            self.next()
            args.append(self.expr(depth + 1))
        self.expect(")")
        if len(args) < _MIN_ARGS[ident.text]:
            self.fail(
                f"{ident.text} needs at least {_MIN_ARGS[ident.text]} argument(s)",
                ident,
            )
        if ident.text == "neg" and len(args) != 1:
            self.fail("neg takes exactly one argument", ident)
        return Call(ident.text, tuple(args))

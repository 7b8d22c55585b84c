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
argument index, and `proj(k)` is another spelling of `Xk`: both build the
AST `Var(k)`. Numbers are decimals or rationals like 1/3; a zero
denominator is a syntax error. A constant's endpoints are exact, made by
`interval.fraction`, so only a source with a constant that is not whole,
such as `[0,1/2]`, loads `fractions`.
An expression deeper than `gate.MAX_DEPTH` is refused at its first token.

The parser only reads. Each node checks its own fields when it is built
(a variable index, a `pow` exponent, `neg`'s argument count), and
the parser gives the node's error the position of the token that built
it; only the minimum argument counts of `_MIN_ARGS`, which the registry
does not share, are the parser's own. Tokens are scanned with `str`
methods, so the DSL imports no `re`.
"""

from __future__ import annotations

from .expr import _OPS, TOO_DEEP, Call, Const, ExprError, LVar, Node, Pow, Var
from .gate import MAX_DEPTH
from .interval import _Value, fraction

_IDENTS = {*_OPS, "pow", "proj"}
# minimum argument counts of the DSL's calls; the registry builds `min`,
# `max`, `mul` and `psum` on one argument too
_MIN_ARGS = {"min": 2, "max": 2, "mul": 2, "psum": 2, "neg": 1, "mean": 1}


class _Token(_Value):
    __slots__ = ("kind", "text", "line", "column")  # kind: number|ident|punct|end


def _show(tok: _Token) -> str:
    return "end of input" if tok.kind == "end" else repr(tok.text)


def _digits(src: str, pos: int) -> int:
    """The end of the run of decimal digits that starts at `pos`."""
    while pos < len(src) and src[pos].isdecimal():
        pos += 1
    return pos


def _tokenize(src: str) -> list[_Token]:
    """The tokens of `src`: a number is digits, then optionally `.` and
    digits, then optionally `/` and digits, where a digit is a character
    for which `isdecimal` is true; an identifier is an ASCII letter or
    `_`, then characters for which `isalnum` is true, or `_`. Characters
    for which `isspace` is true separate tokens."""
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(src):
        ch, end = src[pos], pos + 1
        if ch.isspace():
            kind = None
        elif ch.isdecimal():
            kind, end = "number", _digits(src, pos)
            for mark in "./":  # each part is read only if a digit follows
                if (src[end:end + 1] == mark
                        and (after := _digits(src, end + 1)) > end + 1):
                    end = after
        elif ch == "_" or ch.isascii() and ch.isalpha():
            kind = "ident"
            while end < len(src) and (src[end].isalnum() or src[end] == "_"):
                end += 1
        elif ch in "()[],":
            kind = "punct"
        else:
            raise ExprError(f"unexpected character {ch!r}", line, col)
        if kind:
            tokens.append(_Token(kind, src[pos:end], line, col))
        if ch == "\n":
            line, col = line + 1, 1
        else:
            col += end - pos
        pos = end
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

    def build(self, tok: _Token, node: type, *fields) -> Node:
        """`node(*fields)`; the node checks its fields, and its error is
        placed at `tok`, the token that built it."""
        try:
            return node(*fields)
        except ExprError as error:
            raise ExprError(str(error), tok.line, tok.column) from None

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
            if tok.text[0] == "X" and tok.text[1:].isdecimal():
                self.next()
                return self.build(tok, Var, self.convert(int, tok, tok.text[1:]))
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
            return self.build(ident, Var, idx)
        if ident.text == "pow":
            base = self.expr(depth + 1)
            self.expect(",")
            k = self.integer()
            self.expect(")")
            return self.build(ident, Pow, base, k)
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
        return self.build(ident, Call, ident.text, tuple(args))

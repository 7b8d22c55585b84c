"""The regular-expression tokenizer that `ivhom.dsl` used before it
scanned tokens with `str` methods. Tests compare `dsl._tokenize` with it:
a source it reads must give the same tokens (kind, text, line and column),
and a source it refuses must be refused with the same error at the same
position."""

from __future__ import annotations

import re

from ivhom.dsl import _Token
from ivhom.expr import ExprError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?(?:/\d+)?)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<punct>[()\[\],])
    """,
    re.VERBOSE,
)


def tokenize(src: str) -> list[_Token]:
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

"""Seeded generator of `expr:` IV-functions whose homogeneity verdict is known.

Every expression is a binary tree of `min`, `max` and `mean` calls over the
leaves `X1..Xn` and `proj(k)`. Each of those is homogeneous for any
endpoint-wise scaling G(L, X) that is order-preserving in X, which covers
`P` (`mul(L,X1)`) and `P_NS` (`psum(L,X1)`):

    min(G(l,a), G(l,b))  = G(l, min(a,b))     (G monotone in X)
    mean(G(l,a), G(l,b)) = G(l, mean(a,b))    (G affine in X per endpoint)

and homogeneity is closed under composition, so every generated tree passes
`check` with zero deviation in exact mode. The seed chooses the tree shape,
the order of the operators and the leaves; the operator multiset and the
node count are fixed, so the work per tuple does not depend on the seed.
"""

from __future__ import annotations

import random

#: Operators of one expression, in a seed-chosen order. Each is a binary call.
OPERATORS = ("min", "max", "mean", "min", "max", "mean")


def generate(rng: random.Random, arity: int) -> str:
    """Return one expression over X1..X<arity> with len(OPERATORS) calls."""
    ops = list(OPERATORS)
    rng.shuffle(ops)

    def leaf() -> str:
        k = rng.randint(1, arity)
        return f"X{k}" if rng.random() < 0.5 else f"proj({k})"

    def build(calls: int) -> str:
        if calls == 0:
            return leaf()
        op = ops.pop()
        left = rng.randint(0, calls - 1)
        return f"{op}({build(left)},{build(calls - 1 - left)})"

    return build(len(OPERATORS))

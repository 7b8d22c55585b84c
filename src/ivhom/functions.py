"""The registry of built-in ingredients, each an expression AST, and N_S duals.

An IV-function maps n intervals to one interval; a scaling function is the
binary map used on the left of the homogeneity equation; an order
isomorphism rescales the scaling argument on the right. Their classes, and
the compiler that turns each AST into a callable, live in `expr`.
"""

from __future__ import annotations

import re

from .expr import Call, IVFunction, LVar, OrderIso, Pow, ScalingFunction, Var, dual

_X1 = Var(1)


def dual_ns(f: IVFunction) -> IVFunction:
    """Standard-negation dual: N_S after f after N_S on each argument."""
    return IVFunction(f"dual_ns({f.name})", f.arity, dual(f.expr))


def dual_scaling_ns(g: ScalingFunction) -> ScalingFunction:
    return ScalingFunction(f"dual_ns({g.name})", dual(g.expr))


IDENTITY = OrderIso("identity", _X1)

#: Squaring, mul(X1,X1), as an order isomorphism of I([0,1]). Its inverse
#: takes square roots, which are irrational on most rational endpoints, so
#: it is float-mode only.
SQUARE = OrderIso("square", Call("mul", (_X1, _X1)), exact_ok=False)

P = ScalingFunction("P", Call("mul", (LVar(), _X1)))
P_NS = ScalingFunction("P_NS", Call("psum", (LVar(), _X1)))
PI2 = ScalingFunction("pi2", _X1)

_SCALINGS = {"P": P, "P_NS": P_NS, "pi2": PI2}
_ISOS = {"identity": IDENTITY, "square": SQUARE}
#: n-ary registry functions and the DSL op each applies to X1..Xn
_NARY = {"min": "min", "max": "max", "product": "mul", "mean": "mean"}

_PROJ_RE = re.compile(r"\Aproj_(\d+)\Z")
_POW_RE = re.compile(r"\Apow_(\d+)\Z")

#: Names of the shipped IV-functions (with their default arities).
FUNCTION_NAMES = ("min", "max", "product", "mean", "proj_1", "proj_2", "pow_2")


def _make_function(name: str, arity: int | None) -> IVFunction:
    pm = _PROJ_RE.match(name)
    if pm:
        k = int(pm.group(1))
        if k < 1:
            raise LookupError(f"projection index in {name!r} must be >= 1")
        n = 2 if arity is None else arity
        if k > n:
            raise LookupError(f"{name} needs arity >= {k}, got {n}")
        return IVFunction(name, n, Var(k))
    wm = _POW_RE.match(name)
    if wm:
        k = int(wm.group(1))
        if k < 1:
            raise LookupError(f"exponent in {name!r} must be >= 1")
        n = 1 if arity is None else arity
        if n != 1:
            raise LookupError(f"{name} is unary; got arity {n}")
        return IVFunction(name, 1, Pow(_X1, k))
    if name in _NARY:
        n = 2 if arity is None else arity
        xs = tuple(Var(i) for i in range(1, n + 1))
        return IVFunction(name, n, Call(_NARY[name], xs))
    raise LookupError(_unknown(name))


def _unknown(name: str) -> str:
    known = sorted(
        set(FUNCTION_NAMES) | set(_SCALINGS) | set(_ISOS) | {"proj_<k>", "pow_<k>"}
    )
    return f"unknown registry name {name!r}; available: {', '.join(known)}"


def registry_get(name: str, arity: int | None = None):
    """Look up a built-in by name.

    Returns an IVFunction (arity defaults to 2, except pow_<k> which is
    unary), a ScalingFunction, or an OrderIso.
    """
    if name in _SCALINGS:
        return _SCALINGS[name]
    if name in _ISOS:
        return _ISOS[name]
    return _make_function(name, arity)


def get_function(name: str, arity: int | None = None) -> IVFunction:
    obj = registry_get(name, arity)
    if not isinstance(obj, IVFunction):
        raise LookupError(f"{name!r} is not an IV-function")
    return obj


def get_scaling(name: str) -> ScalingFunction:
    obj = registry_get(name)
    if not isinstance(obj, ScalingFunction):
        raise LookupError(f"{name!r} is not a scaling function")
    return obj


def get_iso(name: str) -> OrderIso:
    obj = registry_get(name)
    if not isinstance(obj, OrderIso):
        raise LookupError(f"{name!r} is not an order isomorphism")
    return obj

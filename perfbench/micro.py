"""Micro-benchmarks of interval ops and F/G/expr calls, in ns per call.

Each case looks up what it calls by name in `ivhom`; a case whose name no
longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import statistics
import timeit
from fractions import Fraction
from functools import partial

NUMBER = 1000
REPEAT = 5


def _factories(mode: str) -> dict:
    """metric name -> factory of a zero-argument callable, for one mode."""
    from ivhom import expr, functions, interval

    num = Fraction if mode == "exact" else float
    iv = interval.Interval
    x = iv(num(1) / 5, num(3) / 5)
    y = iv(num(1) / 3, num(2) / 3)
    z = iv(num(1) / 7, num(6) / 7)
    fn = functions.get_function

    def dsl(src: str, arity: int):
        return expr.compile_ivfunction(expr.parse_expr(src, arity), arity)

    def dsl_scaling(src: str):
        return expr.compile_scaling(expr.parse_expr(src, 1))

    return {
        "interval.ns_per_op.construct": lambda: partial(iv, x.lo, x.hi),
        "interval.ns_per_op.product": lambda: partial(interval.product, x, y),
        "interval.ns_per_op.meet": lambda: partial(interval.meet, x, y),
        "interval.ns_per_op.join": lambda: partial(interval.join, x, y),
        "interval.ns_per_op.prob_sum": lambda: partial(interval.prob_sum, x, y),
        "interval.ns_per_op.complement": lambda: partial(interval.complement, x),
        "interval.ns_per_op.equal": lambda: partial(
            interval.NumericMode(mode).intervals_equal, x, y),
        "functions.ns_per_call.min": lambda: partial(fn("min", 2), x, y),
        "functions.ns_per_call.mean": lambda: partial(fn("mean", 2), x, y),
        "functions.ns_per_call.product": lambda: partial(fn("product", 2), x, y),
        "functions.ns_per_call.P": lambda: partial(
            functions.get_scaling("P"), x, y),
        "functions.ns_per_call.P_NS": lambda: partial(
            functions.get_scaling("P_NS"), x, y),
        "functions.ns_per_call.dual_min": lambda: partial(
            functions.dual_ns(fn("min", 2)), x, y),
        "functions.ns_per_call.square": lambda: partial(
            functions.get_iso("square"), x),
        "expr.ns_per_call.min": lambda: partial(dsl("min(X1,X2)", 2), x, y),
        "expr.ns_per_call.mean3": lambda: partial(
            dsl("mean(X1,X2,X3)", 3), x, y, z),
        "expr.ns_per_call.mul_L": lambda: partial(dsl_scaling("mul(L,X1)"), x, y),
        "expr.ns_per_call.psum_L": lambda: partial(
            dsl_scaling("psum(L,X1)"), x, y),
    }


def run() -> tuple:
    """Return ({metric: ns per call}, [absent metrics]) for both modes."""
    results, absent = {}, []
    for mode in ("exact", "float"):
        try:
            factories = _factories(mode)
        except (ImportError, AttributeError, LookupError, TypeError) as exc:
            absent.append(f"micro.{mode}: {exc!r}")
            continue
        for name, factory in factories.items():
            try:
                call = factory()
                call()
            except (AttributeError, LookupError, TypeError, ValueError) as exc:
                absent.append(f"{name}.{mode}: {exc!r}")
                continue
            times = timeit.repeat(call, number=NUMBER, repeat=REPEAT)
            results[f"{name}.{mode}"] = statistics.median(times) / NUMBER * 1e9
    return results, absent

"""What a run checks before the engine loads: the float tolerance, arity
limits and the budget, and the limits of an expression.

This module imports no other part of `ivhom` and compiles no regular
expression: `name_suffix` reads a registry name such as `pow_2` (and
`functions` reads `proj_<k>` with it), and `as_double` makes an epsilon
past the largest double inf, as `interval` does with any number. So a
command that refuses its request (exit 2 for a bad epsilon or an arity out
of range, exit 3 for a sweep over the budget) loads only this and the
command line; `theorem1` also loads `interval` and the literal reader to
read its `--a` first, and `eval`, which is not gated, loads them to read
its literals. `interval`, `expr`, `functions` and `homogeneity` import
these names from here, and `cli` and `commands` the `UsageError` that
both raise, since `commands` imports nothing from `cli`.
"""

from __future__ import annotations

DEFAULT_BUDGET = 10**7
#: The float-mode tolerance of `--epsilon` and of `NumericMode`.
DEFAULT_EPSILON = 1e-9

#: The largest exponent of a DSL `pow(e,k)` and of a registry `pow_<k>`.
#: An exact kernel writes denominators such as m^k into its source as
#: decimal literals, which Python refuses beyond 4,300 digits; up to this
#: limit an arity-1 `pow` law within the default budget stays below that.
MAX_POW_EXPONENT = 1000
#: The largest arity of an IV-function. `mul` over n arguments has the
#: denominator m^n, as `pow(e,n)` has, so the limit is the same.
MAX_ARITY = MAX_POW_EXPONENT
#: The deepest expression: a leaf is 1 level deep, a call or `pow` one more
#: than its deepest argument. The deepest walk, the parser's, recurses 2
#: frames a level, so this keeps every walk within Python's default limit
#: of 1,000 frames with room for the caller's.
MAX_DEPTH = 400


def name_suffix(name: str, prefix: str) -> str | None:
    """The digits that follow `prefix` in registry name `name`, such as "2"
    in "pow_2", or None unless they are all the rest of `name` and there is
    at least one. `str.isdecimal` accepts what a regular expression's `\\d`
    matches."""
    digits = name[len(prefix):]
    return digits if name.startswith(prefix) and digits.isdecimal() else None


class BudgetExceededError(RuntimeError):
    """The sweep would exceed the evaluation budget; refuse, never sample.

    The sweep covers s^k grid tuples. That count is named as a power, and
    s only when it is at most the budget: in decimal either can run to
    more digits than Python converts."""

    def __init__(self, s: int, k: int, budget: int):
        size = f"{s}^{k}" if s <= budget else f"over {budget}"
        super().__init__(
            f"a sweep of {size} grid tuples needs 2 side-evaluations per "
            f"tuple, more than the budget of {budget}"
        )
        self.budget = budget


class UnsupportedModeError(RuntimeError):
    """An ingredient cannot be evaluated in the requested numeric mode."""


class UsageError(ValueError):
    """A command line or `--config` field that the program refuses (exit
    2), raised by `cli` and by `commands`."""


def as_double(v) -> float:
    """`v` as a float, or inf or -inf past the largest double, as
    `float("1e400")` gives, where `float()` of a large int raises."""
    try:
        return float(v)
    except OverflowError:
        return float("inf") if v > 0 else float("-inf")


def check_epsilon(eps: float) -> None:
    """Refuse a float-mode tolerance that is negative, infinite or NaN."""
    if not 0 <= eps < float("inf"):
        raise ValueError(f"eps must be finite and nonnegative, got {eps!r}")


def check_arity(arity: int) -> None:
    """Refuse an arity outside 1..MAX_ARITY before anything is built."""
    if not 1 <= arity <= MAX_ARITY:
        raise ValueError(f"arity must be from 1 to {MAX_ARITY}, got {arity}")


def resolve_arity(name: str, arity: int | None) -> int:
    """`arity`, checked against `MAX_ARITY`, or when it is None the
    default arity of registry function `name`: 1 for pow_<k>, else 2."""
    n = (1 if name_suffix(name, "pow_") else 2) if arity is None else arity
    check_arity(n)
    return n


def grid_size(m: int) -> int:
    """The number s of grid points at resolution m."""
    return (m + 1) * (m + 2) // 2


def check_budget(*sweeps: tuple[int, int], budget: int) -> None:
    """Refuse unless each sweep's 2 side-evaluations per tuple fit the
    budget. A sweep (s, k), k >= 1, covers s^k tuples; the sweeps are
    checked in the order they would run, and each power is multiplied out
    only until it passes the budget."""
    for s, k in sweeps:
        count = 1
        for _ in range(k):
            count *= s
            if 2 * count > budget:
                raise BudgetExceededError(s, k, budget)


def sweep_sizes(command: str, s: int, n: int) -> tuple[tuple[int, int], ...]:
    """Each sweep a command runs, in the order they run, as the (s, k) of
    its s^k tuples, for s grid points and an F of arity n."""
    return {
        "check": ((s, n + 1),),
        "idempotent": ((s, 1),),
        "theorem1": ((1, 1), (s, 1), (s, n + 1), (s, 1)),
        "prop2": ((s, n + 1), (s, n + 1)),
        "dual": ((s, n),),
    }[command]

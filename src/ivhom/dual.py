"""The `dual` command: the registry functions that equal the
standard-negation dual of F on the grid, and the report that names them.

`commands` imports this module for `dual` alone, so no other command
compiles it. The comparison of two functions (`equal_on_grid`) is a yes/no
scan on the swept path's coordinates (`compiler`) that stops at the first
difference. Each X_i takes its points from its parities in the law F = H,
which one trace of that law gives (`compiler._law_parities`). The report's
JSON layout (`report_json`) loads only for `--output json`.
"""

from __future__ import annotations

import itertools

from .compiler import _coordinates, _den, _law_parities
from .functions import FUNCTION_NAMES, IDENTITY, PI2, IVFunction
from .homogeneity import Grid


def run_dual(f: IVFunction, grid: Grid, fmt: str) -> str:
    """The report, in format `fmt`, of the registry functions of F's arity
    that equal F's standard-negation dual on `grid`."""
    # names that a benchmark's probe replaces are looked up when called
    from .functions import dual_ns, get_function

    # each candidate is compared with the dual on all s^n tuples
    dual = dual_ns(f)
    matches = []
    for name in FUNCTION_NAMES:
        try:
            cand = get_function(name, f.arity)
        except LookupError:
            continue
        if equal_on_grid(dual, cand, grid):
            matches.append(name)
    return emit_dual(f.name, dual.name, matches, grid, fmt)


def equal_on_grid(f: IVFunction, h: IVFunction, grid: Grid) -> bool:
    """Whether F and H (of one arity) agree on all s^n grid tuples, by the
    equality rule of `compiler._sweep_law`, on the kernels of both, over
    the grid's denominator. Each result is compared cross-multiplied by the
    other kernel's denominator: in exact mode that compares the two values,
    and in float mode both denominators are 1, so the doubles compare as
    they are.

    F = H is the law F(pi2(L,X1),...) = pi2(L, H(X1,...)), so each X_i
    sweeps the points that `_coordinates` gives for the parities that one
    trace of that law gives it (`_law_parities`), and the scan stops at the
    first difference.
    """
    coords = _coordinates(grid, _law_parities(f, PI2, IDENTITY, h)[1:])
    (f_fn, df), (h_fn, dh) = f.kernel(_den(grid)), h.kernel(_den(grid))
    tol = grid.mode.tol
    for xs in itertools.product(*(points for points, _, _ in coords)):
        (a, b), (c, d) = f_fn(*xs), h_fn(*xs)
        if abs(a * dh - c * df) > tol or abs(b * dh - d * df) > tol:
            return False
    return True


def _csv_field(text: str) -> str:
    """`text` as one CSV field: quoted, with inner quotes doubled, when it
    holds a comma, quote, CR or LF (RFC 4180)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_dual(function: str, dual: str, matches: list[str], grid: Grid,
              fmt: str) -> str:
    """The report of `dual`: the registry functions, `matches`, that equal
    `dual`, the standard-negation dual of `function`, on `grid`."""
    if fmt == "json":
        from .report_json import _json

        return _json({
            "command": "dual",
            "function": function,
            "dual": dual,
            "equals_registry": matches,
            "resolution": grid.resolution,
            "mode": grid.mode.kind,
        })
    if fmt == "csv":
        return f"dual,{_csv_field(function)},{';'.join(matches)}"
    eq = ", ".join(matches) if matches else "no registry function"
    return f"dual of {function} equals {eq} on the m={grid.resolution} grid"

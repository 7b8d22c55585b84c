"""What a run does once the command line has read and gated it: build F,
G and the grid, run the command, and give the text of its output.

`cli` imports this module only after the budget gate, or for `eval`,
which is not gated, so a refused run and the start-up of the command line
never compile it. It imports nothing of the package at import but `gate`:
each engine name is imported where a command calls it, so that a name
replaced in its own module after import, as a benchmark's probe does, is
the one called. So a run loads only what its command needs: `dual` loads
`ivhom.dual`, theorem1 and prop2 load `ivhom.pipelines` through their
entry points in `homogeneity`, and `report.emit_report` loads the layout
of `--output json` or `text`. Nothing here imports `cli`, which under
`python -m ivhom.cli` runs as `__main__`, so that an import would compile
it a second time; `cli` prints the text and turns the verdict into the
exit code.
"""

from __future__ import annotations

from .gate import UsageError


def _resolve_f(args: dict, n: int):
    from .expr import ExprError, compile_ivfunction, parse_expr
    from .functions import get_function

    if args["f"].startswith("expr:"):
        src = args["f"][len("expr:"):]
        try:
            node = parse_expr(src, n)
        except ExprError as err:  # only the arity check gives no position
            if err.line is not None or args["arity"] is not None:
                raise
            raise UsageError(f"{args['f']} reads more variables than the {n} "
                             "interval literal(s) given") from None
        return compile_ivfunction(node, n, name=src)
    return get_function(args["f"], n)


def _resolve_g(args: dict):
    from .functions import get_scaling

    if args["g"].startswith("expr:"):
        from .dsl import _Parser
        from .expr import compile_scaling

        # parsed with no declared arity: compile_scaling names what G may use
        src = args["g"][len("expr:"):]
        return compile_scaling(_Parser(src).parse(), name=src)
    return get_scaling(args["g"])


def run(args: dict, n: int, mode) -> tuple[str, bool]:
    """The output of the command that `args` holds, for an F of arity `n`
    in numeric `mode`, and whether its verdict passes: always for `dual`
    and `eval`. theorem1's `--a` is the `Interval` read before the gate."""
    command = args["command"]
    if command == "eval":
        from .interval import format_interval, parse_interval

        if len(args["intervals"]) != n:
            raise UsageError(f"{args['f']} expects {n} interval(s), got "
                             f"{len(args['intervals'])}")
        xs = [parse_interval(s, mode) for s in args["intervals"]]
        return format_interval(_resolve_f(args, n)(*xs), mode, "result"), True

    from .functions import get_iso
    from .homogeneity import (check_homogeneity, check_idempotency, make_grid,
                              run_prop2, run_theorem1)

    f = _resolve_f(args, n)
    grid = make_grid(args["resolution"], mode)

    if command == "check":
        report = check_homogeneity(f, _resolve_g(args), get_iso(args["phi"]), grid)
    elif command == "idempotent":
        report = check_idempotency(f, grid)
    elif command == "theorem1":
        report = run_theorem1(f, _resolve_g(args), args["a"], grid)
    elif command == "prop2":
        report = run_prop2(f, grid)
    elif command == "dual":
        from .dual import run_dual

        return run_dual(f, grid, args["output"]), True
    else:  # pragma: no cover
        raise AssertionError(command)

    from .report import emit_report

    return emit_report(report, args["output"]), report.verdict == "pass"

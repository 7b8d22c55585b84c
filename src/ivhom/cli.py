"""Command-line front end.

Exit codes: 0 = verdict pass (or informational success), 1 = verdict fail,
2 = usage/config error, 3 = evaluation budget refused.

A run parses its flags, checks the float epsilon, resolves the arity and
passes the budget gate (`gate`) before it imports `interval` and the engine
(`expr`, `functions`, `homogeneity`, `report`), so a refusal loads only
this module and `gate`. Two commands load `interval` first: `theorem1`
reads its `--a` before the gate, so that a bad literal exits 2 before a
refusal, and `eval` is not gated. This is the only budget gate: the engine
checks no budget of its own.
"""

from __future__ import annotations

import argparse
import sys

from .gate import (DEFAULT_BUDGET, BudgetExceededError, UnsupportedModeError,
                   as_double, check_budget, check_epsilon, grid_size,
                   resolve_arity, sweep_sizes)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_DEFAULTS = {
    "g": "P",
    "phi": "identity",
    "a": "[1,1]",
    "resolution": 4,
    "mode": "exact",
    "epsilon": 1e-9,
    "budget": DEFAULT_BUDGET,
    "workers": 1,
    "output": "json",
}


class UsageError(ValueError):
    pass


#: argparse settings of every flag; --config fields are checked against the
#: same types and choices
_FLAGS = {
    "f": dict(help="IV-function: registry name or expr:<source>"),
    "arity": dict(type=int, help="arity of --f (required for expr: except "
                                 "in eval, which counts its literals)"),
    "g": dict(help="scaling function: registry name or expr:<source>"),
    "phi": dict(help="order isomorphism registry name"),
    "a": dict(help="fixed-point interval literal, e.g. [1,1]"),
    "resolution": dict(type=int, help="grid resolution m"),
    "mode": dict(choices=("exact", "float"), help="numeric mode"),
    "epsilon": dict(type=float, help="float-mode tolerance"),
    "budget": dict(type=int, help="max side-evaluations per sweep"),
    "workers": dict(type=int, help="accepted for compatibility; no effect"),
    "output": dict(choices=("json", "csv", "text"), help="output format"),
    "config": dict(help="JSON file supplying any of the above fields"),
}
_COMMON = ("resolution", "mode", "epsilon", "budget", "workers", "output", "config")
#: subcommand -> (help, the flags it takes before the common ones)
_COMMANDS = {
    "check": ("check the homogeneity equation for F, G, Phi",
              ("f", "arity", "g", "phi")),
    "idempotent": ("check F(X,...,X) = X on the grid", ("f", "arity")),
    "theorem1": ("run the homogeneity-implies-idempotency pipeline",
                 ("f", "arity", "g", "a")),
    "prop2": ("run the duality pipeline for a P-homogeneous F", ("f", "arity")),
    "dual": ("compute the standard-negation dual of F", ("f", "arity")),
    "eval": ("evaluate F at the given interval literals", ("f", "arity")),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every subcommand. When `argv` starts with a subcommand,
    only that one gets its flags: they are all that parsing `argv` reads,
    and the help and errors stay the same."""
    parser = argparse.ArgumentParser(
        prog="ivhom",
        description="Exhaustive grid checks for interval-valued homogeneity laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    for command, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if only not in (None, command):
            continue
        for name in flags + _COMMON:
            p.add_argument(f"--{name}", **_FLAGS[name])
        if command == "eval":
            p.add_argument("intervals", nargs="+",
                           help="interval literals, e.g. [0.2,0.5]")
    return parser


def _check_config_value(key: str, value) -> None:
    kind = _FLAGS[key].get("type", str)
    choices = _FLAGS[key].get("choices")
    if isinstance(value, bool) or not isinstance(
        value, (int, float) if kind is float else kind
    ):
        raise UsageError(
            f"config field {key!r} must be of type {kind.__name__}, got {value!r}"
        )
    if choices and value not in choices:
        raise UsageError(
            f"config field {key!r} must be one of {', '.join(choices)}, got {value!r}"
        )


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    if args.config:
        import json

        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config!r}: {exc}")
        if not isinstance(cfg, dict):
            raise UsageError("config file must hold a JSON object")
        if "command" in cfg and cfg["command"] != args.command:
            raise UsageError(
                f"config command {cfg['command']!r} conflicts with {args.command!r}"
            )
        for key, value in cfg.items():
            if key == "command":
                continue
            if key not in _FLAGS or not hasattr(args, key):
                raise UsageError(f"unknown config field {key!r}")
            _check_config_value(key, value)
            if getattr(args, key) is None:
                setattr(args, key, value)
    for key, value in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)
    return args


def _numeric_mode(args: argparse.Namespace):
    from .interval import NumericMode

    if args.mode == "exact":
        return NumericMode("exact")
    return NumericMode("float", args.epsilon)


def _f_arity(args: argparse.Namespace) -> int:
    """The arity of --f, known and checked before F is parsed or built;
    without --arity, `eval` takes the number of its interval literals."""
    if not args.f:
        raise UsageError("--f is required")
    arity = args.arity
    if arity is None and args.command == "eval":
        arity = len(args.intervals)
    if arity is None and args.f.startswith("expr:"):
        raise UsageError("--arity is required when --f is an expression")
    return resolve_arity(args.f, arity)


def _resolve_f(args: argparse.Namespace, n: int):
    from .expr import ExprError, compile_ivfunction, parse_expr
    from .functions import get_function

    if args.f.startswith("expr:"):
        src = args.f[len("expr:"):]
        try:
            node = parse_expr(src, n)
        except ExprError as err:  # only the arity check gives no position
            if err.line is not None or args.arity is not None:
                raise
            raise UsageError(f"{args.f} reads more variables than the {n} "
                             "interval literal(s) given") from None
        return compile_ivfunction(node, n, name=src)
    return get_function(args.f, n)


def _resolve_g(args: argparse.Namespace):
    from .functions import get_scaling

    if args.g.startswith("expr:"):
        from .dsl import _Parser
        from .expr import compile_scaling

        # parsed with no declared arity: compile_scaling names what G may use
        src = args.g[len("expr:"):]
        return compile_scaling(_Parser(src).parse(), name=src)
    return get_scaling(args.g)


def _run(args: argparse.Namespace, out) -> int:
    # a --config integer past the largest double is inf, and so refused
    args.epsilon = as_double(args.epsilon)
    if args.mode == "float":  # NumericMode's check, before `interval` loads
        check_epsilon(args.epsilon)
    command = args.command
    n = _f_arity(args)

    if command == "eval":
        from .interval import format_interval, parse_interval

        if len(args.intervals) != n:
            raise UsageError(
                f"{args.f} expects {n} interval(s), got {len(args.intervals)}"
            )
        mode = _numeric_mode(args)
        xs = [parse_interval(s, mode) for s in args.intervals]
        _print(format_interval(_resolve_f(args, n)(*xs), mode, "result"), out)
        return EXIT_PASS

    if args.resolution < 1:
        raise UsageError("--resolution must be >= 1")
    if args.budget < 1:
        raise UsageError("--budget must be >= 1")
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    if command == "theorem1":  # a bad --a exits 2 before a refusal
        from .interval import parse_interval

        a = parse_interval(args.a, _numeric_mode(args))
    # refuse before the engine is imported and before F is compiled: what
    # each sweep covers follows from the resolution and the arity alone
    check_budget(*sweep_sizes(command, grid_size(args.resolution), n),
                 budget=args.budget)
    from .functions import get_iso
    from .homogeneity import (check_homogeneity, check_idempotency, make_grid,
                              run_prop2, run_theorem1)

    f = _resolve_f(args, n)
    grid = make_grid(args.resolution, _numeric_mode(args))

    if command == "check":
        report = check_homogeneity(f, _resolve_g(args), get_iso(args.phi), grid)
    elif command == "idempotent":
        report = check_idempotency(f, grid)
    elif command == "theorem1":
        report = run_theorem1(f, _resolve_g(args), a, grid)
    elif command == "prop2":
        report = run_prop2(f, grid)
    elif command == "dual":
        return _run_dual(f, grid, args.output, out)
    else:  # pragma: no cover
        raise AssertionError(command)

    from .report import emit_report

    _print(emit_report(report, args.output), out)
    return EXIT_PASS if report.verdict == "pass" else EXIT_FAIL


def _print(text: str, out, end: str = "\n") -> None:
    """Print `text` to `out` and flush it. A reader that closed the pipe
    ends the output, not the run: what is left of it, and the flush at
    exit, go to the null device, so nothing reaches stderr and the exit
    code stays the verdict's."""
    try:
        print(text, file=out, end=end)
        out.flush()
    except BrokenPipeError:
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())


def _run_dual(f, grid, fmt: str, out) -> int:
    from .functions import FUNCTION_NAMES, dual_ns, get_function
    from .homogeneity import equal_on_grid
    from .report import emit_dual

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
    _print(emit_dual(f.name, dual.name, matches, grid, fmt), out)
    return EXIT_PASS


def main(argv=None) -> int:
    parser = build_parser(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        _print("", sys.stdout, end="")  # flush the help argparse wrote
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        args = _merge_config(args)
        return _run(args, sys.stdout)
    except BudgetExceededError as exc:
        print(f"ivhom: budget refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    # UsageError, IntervalError and expr.ExprError are ValueErrors
    except (UnsupportedModeError, LookupError, ValueError) as exc:
        print(f"ivhom: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:  # pragma: no cover
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Command-line front end.

Exit codes: 0 = verdict pass (or informational success), 1 = verdict fail,
2 = usage/config error, 3 = evaluation budget refused.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .expr import ExprError, compile_ivfunction, compile_scaling, parse_expr
from .functions import (
    FUNCTION_NAMES,
    IVFunction,
    dual_ns,
    get_function,
    get_iso,
    get_scaling,
)
from .homogeneity import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    UnsupportedModeError,
    check_budget,
    check_homogeneity,
    check_idempotency,
    make_grid,
    run_prop2,
    run_theorem1,
)
from .interval import IntervalError, NumericMode, format_interval, parse_interval
from .report import emit_report

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
    "workers": os.cpu_count() or 1,
    "output": "json",
}


class UsageError(ValueError):
    pass


#: argparse settings of every flag; --config fields are checked against the
#: same types and choices
_FLAGS = {
    "f": dict(help="IV-function: registry name or expr:<source>"),
    "arity": dict(type=int, help="arity of --f (required for expr:)"),
    "g": dict(help="scaling function: registry name or expr:<source>"),
    "phi": dict(help="order isomorphism registry name"),
    "a": dict(help="fixed-point interval literal, e.g. [1,1]"),
    "resolution": dict(type=int, help="grid resolution m"),
    "mode": dict(choices=("exact", "float"), help="numeric mode"),
    "epsilon": dict(type=float, help="float-mode tolerance"),
    "budget": dict(type=int, help="max side-evaluations per sweep"),
    "workers": dict(type=int, help="grid sweep parallelism"),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivhom",
        description="Exhaustive grid checks for interval-valued homogeneity laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in flags + _COMMON:
            p.add_argument(f"--{name}", **_FLAGS[name])
        if command == "eval":
            p.add_argument("intervals", nargs="*",
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
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
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


def _numeric_mode(args: argparse.Namespace) -> NumericMode:
    if args.mode == "exact":
        return NumericMode("exact")
    return NumericMode("float", float(args.epsilon))


def _resolve_f(args: argparse.Namespace) -> IVFunction:
    if not args.f:
        raise UsageError("--f is required")
    if args.f.startswith("expr:"):
        if args.arity is None:
            raise UsageError("--arity is required when --f is an expression")
        src = args.f[len("expr:"):]
        ast = parse_expr(src, args.arity)
        return compile_ivfunction(ast, args.arity, name=src)
    return get_function(args.f, args.arity)


def _resolve_g(args: argparse.Namespace):
    if args.g.startswith("expr:"):
        src = args.g[len("expr:"):]
        ast = parse_expr(src, 1)
        return compile_scaling(ast, name=src)
    return get_scaling(args.g)


def _run(args: argparse.Namespace, out) -> int:
    mode = _numeric_mode(args)
    command = args.command

    if command == "eval":
        f = _resolve_f(args)
        xs = [parse_interval(s, mode) for s in args.intervals]
        if len(xs) != f.arity:
            raise UsageError(
                f"{f.name} expects {f.arity} interval(s), got {len(xs)}"
            )
        print(format_interval(f(*xs), mode), file=out)
        return EXIT_PASS

    if args.resolution < 1:
        raise UsageError("--resolution must be >= 1")
    if args.budget < 1:
        raise UsageError("--budget must be >= 1")
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    grid = make_grid(args.resolution, mode)
    f = _resolve_f(args)

    if command == "check":
        report = check_homogeneity(
            f, _resolve_g(args), get_iso(args.phi), grid,
            budget=args.budget, workers=args.workers,
        )
    elif command == "idempotent":
        report = check_idempotency(f, grid, budget=args.budget)
    elif command == "theorem1":
        a = parse_interval(args.a, mode)
        report = run_theorem1(
            f, _resolve_g(args), a, grid, budget=args.budget, workers=args.workers
        )
    elif command == "prop2":
        report = run_prop2(f, grid, budget=args.budget, workers=args.workers)
    elif command == "dual":
        return _run_dual(args, f, grid, out)
    else:  # pragma: no cover
        raise AssertionError(command)

    print(emit_report(report, args.output), file=out)
    return EXIT_PASS if report.verdict == "pass" else EXIT_FAIL


def _run_dual(args: argparse.Namespace, f: IVFunction, grid, out) -> int:
    # each candidate is compared with the dual on all s^n tuples
    check_budget(len(grid) ** f.arity, budget=args.budget)
    dual = dual_ns(f)
    matches = []
    for name in FUNCTION_NAMES:
        try:
            cand = get_function(name, f.arity)
        except LookupError:
            continue
        pairs = itertools.product(grid.points, repeat=f.arity)
        if all(
            grid.mode.intervals_equal(dual(*xs), cand(*xs)) for xs in pairs
        ):
            matches.append(name)
    payload = {
        "command": "dual",
        "function": f.name,
        "dual": dual.name,
        "equals_registry": matches,
        "resolution": grid.resolution,
        "mode": grid.mode.kind,
    }
    if args.output == "json":
        print(json.dumps(payload, indent=2), file=out)
    elif args.output == "csv":
        print(f"dual,{f.name},{';'.join(matches)}", file=out)
    else:
        eq = ", ".join(matches) if matches else "no registry function"
        print(
            f"dual of {f.name} equals {eq} on the m={grid.resolution} grid",
            file=out,
        )
    return EXIT_PASS


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        args = _merge_config(args)
        return _run(args, sys.stdout)
    except BudgetExceededError as exc:
        print(f"ivhom: budget refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        UsageError,
        UnsupportedModeError,
        ExprError,
        IntervalError,
        LookupError,
        ValueError,
    ) as exc:
        print(f"ivhom: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:  # pragma: no cover
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

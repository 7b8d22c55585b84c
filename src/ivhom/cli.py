"""Command-line front end.

Exit codes: 0 = verdict pass (or informational success), 1 = verdict fail,
2 = usage/config error, 3 = evaluation budget refused.

The command line is read by `parse_args`, from the tables `_COMMANDS` and
`_FLAGS`, with no regular expression and without `argparse`, whose import
and first parser cost more than the rest of the start-up that this
package controls. It reads every line that the argparse parser it
replaced read, to the same fields: `--flag value` and `--flag=value`, a
unique prefix of a flag (an exact name wins, so theorem1's `--a` is not
`--arity`), the last of a repeated flag, values that look like negative
numbers (`-1`, `-.5`, but not `-1e-3`), `-h`/`--help`, `--` before
literals, and `eval`'s literals as one contiguous run. Help goes to
stdout (exit 0); any other line it refuses raises `UsageError`, which
`main` reports as one "ivhom: error:" line on stderr (exit 2). The same
table checks the fields of a `--config` file.

A run parses its flags, checks the float epsilon, resolves the arity and
passes the budget gate (`gate`); `_run` ends there, and hands the run to
`commands`, which builds the ingredients and the grid, loads the engine
(`interval`, `expr`, `functions`, `homogeneity`, and the modules of its
command and output format) and gives the output, which `_run` prints. So
a refusal loads only this module and `gate`. Two commands load `interval` first: `theorem1` reads its `--a`
before the gate, so that a bad literal exits 2 before a refusal, and
`eval` is not gated. This is the only budget gate: the engine checks no
budget of its own.

A process ends in `console_main`, at its verdict: it runs the atexit
handlers, flushes stdio and ends with `os._exit`, so the interpreter's
teardown of modules and objects, 1–6 ms of a 50–70 ms run, is skipped.
`main` never exits, since tests and benchmarks call it in process.
"""

from __future__ import annotations

import sys

from .gate import (DEFAULT_BUDGET, DEFAULT_EPSILON, BudgetExceededError,
                   UnsupportedModeError, UsageError, as_double, check_budget,
                   check_epsilon, grid_size, resolve_arity, sweep_sizes)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


#: each flag's type, choices, default and help; the type reads the flag's
#: text, and a --config field must be a JSON value of that type
_FLAGS = {
    "f": (str, None, None, "IV-function: registry name or expr:<source>"),
    "arity": (int, None, None, "arity of --f; expr: needs it, except in eval"),
    "g": (str, None, "P", "scaling function: registry name or expr:<source>"),
    "phi": (str, None, "identity", "order isomorphism registry name"),
    "a": (str, None, "[1,1]", "fixed-point interval literal, e.g. [1,1]"),
    "resolution": (int, None, 4, "grid resolution m"),
    "mode": (str, ("exact", "float"), "exact", "numeric mode"),
    "epsilon": (float, None, DEFAULT_EPSILON, "float-mode tolerance"),
    "budget": (int, None, DEFAULT_BUDGET, "max side-evaluations per sweep"),
    "workers": (int, None, 1, "accepted for compatibility; no effect"),
    "output": (str, ("json", "csv", "text"), "json", "output format"),
    "config": (str, None, None, "JSON file supplying any of the above fields"),
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


def build_parser():
    """The command-line parser, `parse_args`. Its tables are made at
    import, so this builds nothing; it names the parser for callers that
    time the start-up."""
    return parse_args


def _option(word: str, names: tuple) -> tuple | None:
    """What argparse made of the command-line word `word` in a parser of
    the flags `names` and -h/--help: None for a value (a word that does not
    start with "-", "-" itself, a negative number such as -1 or -.5, or a
    word with a space); else the flag's name, "" for an unknown option, and
    the text after its "=" (or after -h), None if none. A flag is named in
    full or by a prefix of its name alone; -h may repeat, as -hh."""
    if word[:1] != "-" or word in ("-", "--"):
        return None
    if word[:2] == "-h":
        return "help", None if word.strip("h") == "-" else word[2:]
    name, eq, value = word.partition("=")
    found = [n for n in (*names, "help") if n == name[2:]] or [
        n for n in (*names, "help") if n.startswith(name[2:])]
    if word[1] == "-" and len(found) > 1:
        raise UsageError(f"ambiguous option {word}: --{', --'.join(found)}")
    if word[1] == "-" and found:
        return found[0], value if eq else None
    # argparse's pattern of a negative number, -\d+$|-\d*\.\d+$
    whole, dot, frac = word[1:].removesuffix("\n").partition(".")
    number = whole.isdecimal() and not dot or frac.isdecimal() and (
        whole.isdecimal() or not whole)
    return None if number or " " in word else ("", None)


def parse_args(argv) -> dict | None:
    """The fields of the command line `argv`: its command, each flag of the
    command (None if not given) and, for `eval`, its literals. A request
    for help prints it and gives None; an invalid line raises `UsageError`.
    Before the command, only -h is a flag."""
    top = [_option(word, ()) for word in argv]
    at = top.index(None) if None in top else len(top)
    for name, value in top[:at]:
        if name == "help":
            return _help(value)
    command = argv[at] if at < len(argv) else None
    if command not in _COMMANDS:
        raise UsageError(f"expected a command, one of {', '.join(_COMMANDS)}"
                         + (f"; got {command!r}" if command else ""))
    names = _COMMANDS[command][1] + _COMMON
    args = {"command": command, **dict.fromkeys(names)}
    words, unknown, runs, i = list(argv[at + 1:]), list(argv[:at]), [], 0
    # every word after the first "--" is a value; the "--" itself is dropped
    end = words.index("--") if "--" in words else len(words)
    kinds = [_option(w, names) for w in words[:end]] + [None] * (len(words) - end)
    while i < len(words):
        name, value = kinds[i] or (None, None)
        i += 1
        if name is None:  # a value, which starts a run up to the next flag
            j = next((j for j in range(i, len(words)) if kinds[j]), len(words))
            runs.append(words[i - 1:min(j, end)] + words[end + 1:j])
            i = j
        elif name == "help":
            return _help(value)
        elif not name:
            unknown.append(words[i - 1])
        elif value is None and (i >= end or kinds[i]):
            raise UsageError(f"--{name} expects a value")
        else:
            if value is None:
                value, i = words[i], i + 1
            args[name] = _value(name, value, f"--{name}")
    if command == "eval":  # the first run, unless it was "--" alone
        if not runs or not runs[0]:
            raise UsageError("the following arguments are required: intervals")
        args["intervals"] = runs.pop(0)
    unknown += [word for run in runs for word in run or ["--"]]
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def _help(joined) -> None:
    """Print the help; text joined to -h or --help (`joined`) is an error."""
    if joined is not None:
        raise UsageError(f"-h/--help takes no value, got {joined!r}")
    rows = [(c, f"{h}: --{' --'.join(flags)}") for c, (h, flags) in _COMMANDS.items()]
    rows += [(f"--{n}", h + (f": {', '.join(c)}" if c else ""))
             for n, (_, c, _, h) in _FLAGS.items()]
    _print("usage: ivhom <command> [--flag value ...] (eval: [--] interval ...)"
           "\ncommon flags: --" + " --".join(_COMMON) + "\n"
           + "\n".join(f"  {a:<14}{b}" for a, b in rows), sys.stdout)


def _value(key: str, value, where: str):
    """Flag `key`'s `value`: the flag's text, which its type reads, when
    `where` is the flag, else a JSON value of its type; either must be one
    of its choices, if it has them."""
    kind, choices = _FLAGS[key][:2]
    try:
        typed = kind(value) if where == f"--{key}" else value
    except ValueError:
        typed = None
    if (isinstance(typed, bool) or choices and typed not in choices
            or not isinstance(typed, (int, float) if kind is float else kind)):
        must = f"one of {', '.join(choices)}" if choices else f"of type {kind.__name__}"
        raise UsageError(f"{where} must be {must}, got {value!r}")
    return typed


def _merge_config(args: dict) -> dict:
    if args["config"]:
        import json

        try:
            with open(args["config"], encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args['config']!r}: {exc}")
        if not isinstance(cfg, dict):
            raise UsageError("config file must hold a JSON object")
        if "command" in cfg and cfg["command"] != args["command"]:
            raise UsageError(f"config command {cfg['command']!r} conflicts "
                             f"with {args['command']!r}")
        for key, value in cfg.items():
            if key == "command":
                continue
            if key not in _FLAGS or key not in args:
                raise UsageError(f"unknown config field {key!r}")
            value = _value(key, value, f"config field {key!r}")
            if args[key] is None:
                args[key] = value
    return {key: _FLAGS[key][2] if value is None and key in _FLAGS else value
            for key, value in args.items()}


def _numeric_mode(args: dict):
    from .interval import EXACT, NumericMode

    return NumericMode("float", args["epsilon"]) if args["mode"] == "float" else EXACT


def _f_arity(args: dict) -> int:
    """The arity of --f, known and checked before F is parsed or built;
    without --arity, `eval` takes the number of its interval literals."""
    if not args["f"]:
        raise UsageError("--f is required")
    arity = args["arity"]
    if arity is None and args["command"] == "eval":
        arity = len(args["intervals"])
    if arity is None and args["f"].startswith("expr:"):
        raise UsageError("--arity is required when --f is an expression")
    return resolve_arity(args["f"], arity)


def _run(args: dict, out) -> int:
    # a --config integer past the largest double is inf, and so refused
    args["epsilon"] = as_double(args["epsilon"])
    if args["mode"] == "float":  # NumericMode's check, before `interval` loads
        check_epsilon(args["epsilon"])
    command = args["command"]
    n = _f_arity(args)
    for key in ("resolution", "budget", "workers"):  # in eval too
        if args[key] < 1:
            raise UsageError(f"--{key} must be >= 1")

    if command == "theorem1":  # a bad --a exits 2 before a refusal
        from .interval import parse_interval

        args["a"] = parse_interval(args["a"], _numeric_mode(args))
    if command != "eval":  # eval is not gated
        # refuse before the engine is imported and before F is compiled:
        # what each sweep covers follows from the resolution and the arity
        check_budget(*sweep_sizes(command, grid_size(args["resolution"]), n),
                     budget=args["budget"])
    from .commands import run

    text, passed = run(args, n, _numeric_mode(args))
    _print(text, out)
    return EXIT_PASS if passed else EXIT_FAIL


def _print(text: str, out, end: str = "\n") -> None:
    """Print `text` and `end` to `out` and flush it. A reader that closed the pipe
    ends the output, not the run: what is left of it, and the flush at
    exit, go to the null device, so nothing reaches stderr and the exit
    code stays the verdict's."""
    try:
        print(text, file=out, end=end)
        out.flush()
    except BrokenPipeError:
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())


def main(argv=None) -> int:
    try:
        args = build_parser()(sys.argv[1:] if argv is None else argv)
        if args is None:  # the help was printed
            return EXIT_PASS
        return _run(_merge_config(args), sys.stdout)
    except BudgetExceededError as exc:
        print(f"ivhom: budget refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    # UsageError, IntervalError and expr.ExprError are ValueErrors
    except (UnsupportedModeError, LookupError, ValueError) as exc:
        print(f"ivhom: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:  # pragma: no cover
    """The process entry point: run `main` and end the process with its
    code. The atexit handlers run and stdout and stderr are flushed, as
    at a normal exit; then `os._exit` ends the process, which skips only
    the interpreter's teardown of modules and the freeing of objects.
    Nothing else is lost: ivhom starts no thread, which exit would wait
    on, and writes no file, whose buffer it would flush. Called in
    process, it ends that process; `main` returns instead. An exception
    that escapes `main` ends the run through the interpreter, with its
    traceback."""
    code = main()
    import atexit
    import os

    # `os._exit` skips the atexit handlers, and `atexit` has no public call
    # that runs them: `_run_exitfuncs` is the one the interpreter makes at
    # exit, and it clears them after, so none runs twice
    atexit._run_exitfuncs()
    _print("", sys.stdout, end="")
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    console_main()

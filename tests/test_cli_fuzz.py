"""A standing fuzz gate of the whole command line: no input may hang the
tool or give a traceback.

Each generated command line runs in process through `cli.main` under a
timer (`signal.setitimer`, which acts on this process alone). A case must
exit 0-3, let no exception escape, write no traceback to stderr and end
within `TIME_LIMIT_S`. Most lines are well formed, so that they reach a
sweep; the rest refuse their request, over the budget or with a usage
error.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from ivhom import cli
from ivhom.gate import MAX_POW_EXPONENT

TIME_LIMIT_S = 5


class TooLate(BaseException):
    """Raised by the timer; a BaseException, so that no handler of the
    program can take it for an error of its own."""


def _too_late(signum, frame):
    raise TooLate(f"a case ran for more than {TIME_LIMIT_S} s")


def run_line(argv: list) -> tuple:
    """Exit code, stdout and stderr of `cli.main(argv)`, run under the
    timer."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _too_late)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


#: constants, some of long decimals and rationals, some outside [0,1]
CONSTANTS = ["[0,1/2]", "[1/3,2/3]", "[0.25,1]", "[1,1]", "[0,0]",
             "[0.1234567890123456789012345,0.9]",
             "[1/" + "7" * 60 + ",1/3]", "[" + "9" * 40 + "/1" + "0" * 40 + ",1]",
             "[2/3,1/3]", "[0,3/2]", "[1/0,1]"]
EXPONENTS = [1, 2, 3, 17, MAX_POW_EXPONENT, MAX_POW_EXPONENT + 1]


def expressions(leaves):
    """Sources over `leaves` with every op of the DSL, `pow` up to and past
    `MAX_POW_EXPONENT` and `proj`."""
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            st.builds("neg({})".format, inner),
            st.builds("{}({})".format,
                      st.sampled_from(["min", "max", "mul", "psum", "mean"]),
                      st.lists(inner, min_size=1, max_size=3).map(",".join)),
            st.builds("pow({},{})".format, inner, st.sampled_from(EXPONENTS)),
        ),
        max_leaves=4)


@st.composite
def f_args(draw, arity):
    """--f: a registry name or an `expr:` source over X1..X<arity>, now and
    then reading one variable more than the arity or none."""
    if draw(st.integers(0, 2)) == 0:
        return mostly(draw, ["min", "max", "product", "mean", "proj_1",
                             "proj_2", "pow_2"], ["pow_1001", "nope"])
    xs = [f"X{i}" for i in range(1, arity + 1)]
    extra = mostly(draw, [[]], [[f"X{arity + 1}"], ["L"], [f"proj({arity})"]])
    return "expr:" + draw(expressions(xs + CONSTANTS[:4] + extra + [
        draw(st.sampled_from(CONSTANTS))]))


@st.composite
def g_args(draw):
    if draw(st.booleans()):
        return mostly(draw, ["P", "P_NS", "pi2"], ["min", "nope"])
    return "expr:" + draw(expressions(["L", "X1", "[1/2,1]", "X2"]))


def mostly(draw, good: list, bad: list, odds: int = 12):
    """One of `good`, or, about once in `odds` draws, one of `bad`."""
    return draw(st.sampled_from(good * odds * len(bad) + bad * len(good)))


def flag(draw, name: str, value: str) -> list:
    """--name value, or --name=value, or a unique prefix of the name."""
    cut = draw(st.sampled_from([len(name)] * 4 + [max(len(name) - 2, 2)]))
    spelled = "--" + name[:cut] if name != "a" else "--a"
    return [f"{spelled}={value}"] if draw(st.booleans()) else [spelled, value]


@st.composite
def command_lines(draw):
    """A command line and the fields of the --config file it names, if
    any."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    arity = draw(st.sampled_from([1, 1, 2, 2, 3]))
    f = draw(f_args(arity))
    argv = [command, *flag(draw, "f", f)]
    if f.startswith("expr:") or draw(st.booleans()):
        argv += flag(draw, "arity", mostly(draw, [str(arity)], ["0", "x"], 10))
    if command in ("check", "theorem1") and draw(st.booleans()):
        argv += flag(draw, "g", draw(g_args()))
    if command == "check" and draw(st.integers(0, 3)) == 0:
        argv += flag(draw, "phi", mostly(draw, ["identity", "square"],
                                         ["nope"]))
    if command == "theorem1" and draw(st.booleans()):
        argv += flag(draw, "a", draw(st.sampled_from(CONSTANTS)))
    resolution = mostly(draw, ["1", "2", "3", "4"],
                        ["0", "-1", "-3", "12", "200", "1" + "0" * 30])
    if command != "eval" or draw(st.integers(0, 5)) == 0:
        argv += flag(draw, "resolution", resolution)
    mode = mostly(draw, ["exact", "float"], ["bad"], 10)
    argv += flag(draw, "mode", mode)
    if mode == "float" and draw(st.booleans()):
        argv += flag(draw, "epsilon", mostly(
            draw, ["0", "1e-300", "5e-324", "0.5", "1e300"],
            ["1e400", "-1", "nan", "inf", "-.5"], 4))
    if draw(st.integers(0, 4)) == 0:
        argv += flag(draw, "budget", mostly(
            draw, ["1", "100", "2000", "1" + "0" * 12], ["-5", "0"]))
    if draw(st.booleans()):
        argv += flag(draw, "output", mostly(draw, ["json", "csv", "text"],
                                            ["xml"]))
    if draw(st.integers(0, 9)) == 0:
        argv += flag(draw, "workers", mostly(draw, ["1", "4"], ["0"]))
    if command == "eval":
        count = mostly(draw, [arity], [arity - 1, arity + 1])
        argv += ["--"] * draw(st.booleans()) + [mostly(
            draw, ["[0,1]", "[1/3,1/2]", "[0.2,0.5]", "[1,1]", "[0,0]",
                   "[1e-400,1]", "[-0,1]", "[0.5e1,1]"],
            ["[2,1]", "[1e400,1]", "[0,1/0]", "[nan,1]", "1"], 8)
            for _ in range(count)]
    config = None
    if draw(st.integers(0, 7)) == 0:
        config = draw(st.dictionaries(
            st.sampled_from(["resolution", "mode", "epsilon", "budget", "g",
                             "output", "command", "nope"]),
            st.one_of(st.integers(-2, 5), st.sampled_from(
                ["exact", "float", "csv", "P", "check", "x"]), st.booleans(),
                st.floats(allow_nan=False)),
            max_size=3))
    return argv, config


@settings(max_examples=700, deadline=None, derandomize=True)
@given(command_lines())
def test_no_command_line_hangs_or_raises(line):
    argv, config = line
    path = None
    if config is not None:
        fd, path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w") as fh:
            json.dump(config, fh)
        argv = [*argv, "--config", path]
    try:
        code, out, err = run_line(argv)
    finally:
        if path:
            os.remove(path)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert (out == "") == (code in (2, 3))

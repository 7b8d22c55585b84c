import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import argparse_oracle
import ivhom
from ivhom import cli
from ivhom.cli import _COMMANDS, _FLAGS, main
from ivhom.gate import MAX_DEPTH


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_python(*args, timeout=60):
    """Run a fresh interpreter that imports this `ivhom`, so that no other
    test's imports count; the timeout only keeps a hang from stalling the
    suite."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(ivhom.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout)


def run_child(*argv, timeout=60):
    """Run the CLI in a child process, so that a traceback would reach its
    stderr."""
    return run_python("-m", "ivhom.cli", *argv, timeout=timeout)


def test_check_min_pass(capsys):
    code, out, _ = run(
        capsys, "check", "--f", "min", "--arity", "2", "--g", "P",
        "--phi", "identity", "--resolution", "4", "--mode", "exact",
    )
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "pass" and d["max_deviation"] == "0/1"


def test_check_product_fail_prints_counterexample(capsys):
    code, out, _ = run(
        capsys, "check", "--f", "product", "--arity", "2", "--g", "P",
        "--resolution", "2", "--mode", "exact",
    )
    assert code == 1
    d = json.loads(out)
    assert d["verdict"] == "fail"
    assert d["counterexample"]["lambda"] == "[0/1,1/2]"


def test_dual_min_equals_max(capsys):
    code, out, _ = run(capsys, "dual", "--f", "min", "--arity", "2",
                       "--resolution", "3")
    assert code == 0
    assert json.loads(out)["equals_registry"] == ["max"]


def test_dual_text_output(capsys):
    code, out, _ = run(capsys, "dual", "--f", "min", "--resolution", "3",
                       "--output", "text")
    assert code == 0 and "max" in out


def test_idempotent_command(capsys):
    code, out, _ = run(capsys, "idempotent", "--f", "mean", "--resolution", "4")
    assert code == 0 and json.loads(out)["law"] == "idempotency"
    code, _, _ = run(capsys, "idempotent", "--f", "product", "--resolution", "2")
    assert code == 1


def test_theorem1_command(capsys):
    code, out, _ = run(
        capsys, "theorem1", "--f", "min", "--g", "P", "--a", "[1,1]",
        "--resolution", "4",
    )
    assert code == 0 and json.loads(out)["status"] == "confirmed"


def test_prop2_command(capsys):
    code, out, _ = run(capsys, "prop2", "--f", "min", "--resolution", "3")
    assert code == 0 and json.loads(out)["status"] == "confirmed"


def test_eval_command(capsys):
    code, out, _ = run(
        capsys, "eval", "--f", "min", "--arity", "2",
        "[0.2,0.5]", "[0.4,0.6]",
    )
    assert code == 0 and out.strip() == "[1/5,1/2]"


def test_eval_wrong_argument_count(capsys):
    code, _, err = run(capsys, "eval", "--f", "min", "--arity", "2",
                       "[0.2,0.5]")
    assert code == 2 and "min expects 2 interval(s), got 1" in err


@pytest.mark.parametrize("argv,want", [
    (("--mode", "float", "--f", "expr:psum([1/3,2/3],X1)", "[0.5,0.5]"),
     "[0.6666666666666666,0.8333333333333333]"),
    (("--f", "expr:min(X1,X2)", "[0.2,0.5]", "[0.1,0.9]"), "[1/10,1/2]"),
    (("--f", "min", "[0.2,0.5]"), "[1/5,1/2]"),
    (("--f", "min", "[0.2,0.5]", "[0.1,0.3]", "[0.3,1]"), "[1/10,3/10]"),
], ids=["expr-float", "expr-exact", "registry-1", "registry-3"])
def test_eval_arity_is_the_literal_count(capsys, argv, want):
    code, out, err = run(capsys, "eval", *argv)
    assert code == 0 and out.strip() == want and err == ""


@pytest.mark.parametrize("argv,message", [
    ((), "expr:min(X1,X2) reads more variables than the 1 interval literal(s) "
         "given"),
    (("--arity", "1"), "variable X2 exceeds declared arity 1"),
], ids=["literal-count", "declared"])
def test_eval_names_where_its_arity_came_from(capsys, argv, message):
    code, out, err = run(capsys, "eval", "--f", "expr:min(X1,X2)", *argv,
                         "[0,1]")
    assert code == 2 and out == "" and message in err


def test_eval_needs_a_literal(capsys):
    code, out, err = run(capsys, "eval", "--f", "min")
    assert code == 2 and out == ""
    assert "the following arguments are required: intervals" in err


@pytest.mark.parametrize("argv,message", [
    *((("check", "--f", f"expr:min(X1,{c})", "--arity", "1", "--mode", mode),
       message)
      for c, message in (("[2/3,1/3]", "inverted endpoints: lo=2/3 > hi=1/3"),
                         ("[0,3/2]", "hi=3/2 outside [0,1]"))
      for mode in ("exact", "float")),
    (("eval", "--f", "min", "[2/3,1/3]", "[0,1]"),
     "inverted endpoints: lo=2/3 > hi=1/3"),
], ids=["inverted-constant-exact", "inverted-constant-float",
        "constant-out-of-range-exact", "constant-out-of-range-float",
        "inverted-literal"])
def test_invalid_interval_names_its_endpoints(capsys, argv, message):
    """Values are checked where they enter: a DSL constant when F is
    compiled, in either mode, and a literal when it is read; a rational
    endpoint reads p/q."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"ivhom: error: {message}\n"


def test_expr_function_and_scaling(capsys):
    code, out, _ = run(
        capsys, "check", "--f", "expr:min(X1,X2)", "--arity", "2",
        "--g", "expr:mul(L,X1)", "--resolution", "2",
    )
    assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_expr_requires_arity(capsys):
    code, _, err = run(capsys, "check", "--f", "expr:min(X1,X2)")
    assert code == 2 and "--arity" in err


def test_unknown_registry_name(capsys):
    code, _, err = run(capsys, "check", "--f", "frobnicate")
    assert code == 2 and "frobnicate" in err


def test_dsl_syntax_error(capsys):
    code, _, err = run(capsys, "check", "--f", "expr:min(X1,", "--arity", "2")
    assert code == 2 and "column 8" in err


def test_budget_refusal_exit_3(capsys):
    code, _, err = run(
        capsys, "check", "--f", "min", "--resolution", "4", "--budget", "10",
    )
    assert code == 3 and "budget" in err


def test_budget_refusal_names_the_power(capsys):
    code, _, err = run(
        capsys, "check", "--f", "min", "--resolution", "2", "--budget", "100",
    )
    assert code == 3 and "a sweep of 6^3 grid tuples" in err


def test_scaling_expression_names_its_variables(capsys):
    code, _, err = run(capsys, "check", "--f", "min", "--g", "expr:mul(L,X2)")
    assert code == 2
    assert "scaling expressions may only use L and X1" in err
    assert "arity" not in err


@pytest.mark.parametrize("src", ["min(X1,X2)", "min(X1,\r\nX2)"])
def test_dual_csv_row_of_an_expression(capsys, src):
    code, out, _ = run(capsys, "dual", "--f", f"expr:{src}", "--arity", "2",
                       "--resolution", "2", "--output", "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [["dual", src, "max"]]


def test_theorem1_reads_a_before_any_work(capsys, monkeypatch):
    from ivhom import cli, homogeneity

    def never(*args, **kwargs):
        raise AssertionError("work was done before --a was read")

    monkeypatch.setattr(homogeneity, "make_grid", never)
    monkeypatch.setattr(cli, "_resolve_f", never)
    code, out, err = run(capsys, "theorem1", "--f", "min", "--a", "[2,1]")
    assert code == 2 and out == "" and "outside [0,1]" in err


def test_square_exact_refused(capsys):
    code, _, err = run(
        capsys, "check", "--f", "pow_2", "--arity", "1", "--g", "P",
        "--phi", "square", "--resolution", "2", "--mode", "exact",
    )
    assert code == 2 and "irrational" in err


def test_usage_error_exit_2(capsys):
    assert run(capsys, "check", "--f", "min", "--resolution", "0")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_exit_code_independent_of_format(capsys):
    for fmt in ("json", "csv", "text"):
        code, _, _ = run(
            capsys, "check", "--f", "product", "--arity", "2",
            "--resolution", "2", "--output", fmt,
        )
        assert code == 1


def test_output_byte_identical_across_workers(capsys):
    outputs = set()
    for w in ("1", "2", "8"):
        _, out, _ = run(
            capsys, "check", "--f", "product", "--arity", "2", "--g", "P",
            "--resolution", "2", "--workers", w,
        )
        outputs.add(out)
    assert len(outputs) == 1


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "command": "check", "f": "min", "arity": 2, "g": "P",
        "resolution": 3, "mode": "exact",
    }))
    code, out, _ = run(capsys, "check", "--config", str(cfg))
    assert code == 0 and json.loads(out)["resolution"] == 3
    # explicit flags take precedence over config fields
    code, out, _ = run(capsys, "check", "--config", str(cfg), "--resolution", "2")
    assert json.loads(out)["resolution"] == 2


def test_config_command_conflict(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "prop2", "f": "min"}))
    code, _, err = run(capsys, "check", "--config", str(cfg))
    assert code == 2 and "conflicts" in err


def test_csv_output(capsys):
    code, out, _ = run(
        capsys, "check", "--f", "min", "--resolution", "2", "--output", "csv",
    )
    assert code == 0 and out.strip() == "def1-homogeneity,pass,0"


@pytest.mark.parametrize("field,value", [
    ("resolution", "4"), ("workers", 2.5), ("mode", "fast"), ("f", 5),
])
def test_config_value_validated_like_flag(tmp_path, capsys, field, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"f": "min", field: value}))
    code, _, err = run(capsys, "check", "--config", str(cfg))
    assert code == 2 and repr(field) in err


@pytest.mark.parametrize("eps", ["inf", "nan"])
def test_non_finite_epsilon_rejected(capsys, eps):
    code, _, err = run(capsys, "check", "--f", "product", "--g", "P",
                       "--mode", "float", "--epsilon", eps)
    assert code == 2 and "eps" in err


@pytest.mark.parametrize("argv,bad,message", [
    (("check", "--f", "min", "--mode", "float", "--arity", "3",
      "--resolution", "30"), ("--epsilon", "nan"),
     "ivhom: error: eps must be finite and nonnegative, got nan\n"),
    (("theorem1", "--f", "min", "--resolution", "80", "--budget", "7000"),
     ("--a", "[2,1]"), "ivhom: error: lo=2 outside [0,1]\n"),
], ids=["epsilon", "theorem1-a"])
def test_usage_error_before_refusal(capsys, argv, bad, message):
    """An over-budget request with a bad epsilon or --a exits 2, not 3: both
    are checked before the budget gate."""
    assert run(capsys, *argv)[0] == 3
    assert run(capsys, *argv, *bad) == (2, "", message)


def test_dual_budget_refusal_exit_3(capsys):
    code, _, err = run(capsys, "dual", "--f", "min", "--arity", "4",
                       "--resolution", "20", "--budget", "10")
    assert code == 3 and "budget" in err


@pytest.mark.parametrize("argv", [
    ("theorem1", "--f", "min", "--g", "P", "--resolution", "80",
     "--budget", "7000"),
    ("prop2", "--f", "min", "--resolution", "40"),
])
def test_pipeline_refused_before_any_check(capsys, monkeypatch, argv):
    from ivhom import homogeneity

    def never(*args, **kwargs):
        raise AssertionError("a check ran before the budget gate")

    for name in ("_check_fixed_point", "check_section_bijective",
                 "check_homogeneity", "check_idempotency"):
        monkeypatch.setattr(homogeneity, name, never)
    code, _, err = run(capsys, *argv)
    assert code == 3 and "budget" in err


@pytest.mark.parametrize("command", ["check", "idempotent", "theorem1", "prop2",
                                     "dual"])
def test_budget_refused_before_grid_is_built(capsys, monkeypatch, command):
    # the command line imports make_grid only after the gate passes, so the
    # patch is made where it is defined
    from ivhom import homogeneity

    def never(*args, **kwargs):
        raise AssertionError("the grid was built before the budget gate")

    monkeypatch.setattr(homogeneity, "make_grid", never)
    code, _, err = run(capsys, command, "--f", "min", "--resolution", "800",
                       "--budget", "10", "--mode", "exact")
    assert code == 3 and "budget" in err


@pytest.mark.parametrize("argv", [
    ("check", "--f", "min", "--arity", "1000", "--resolution", "2",
     "--budget", "10"),
    ("eval", "--f", "min", "--arity", "1000", "[0,1]"),
    ("eval", "--f", "expr:min(X1,X2,X3)", "--arity", "3", "[0,1]"),
], ids=["check", "eval-registry", "eval-dsl"])
def test_refused_before_f_is_built(capsys, monkeypatch, argv):
    from ivhom import cli

    def never(*args, **kwargs):
        raise AssertionError("F was built before the request was checked")

    monkeypatch.setattr(cli, "_resolve_f", never)
    code, out, err = run(capsys, *argv)
    assert code == (2 if argv[0] == "eval" else 3) and out == ""
    assert ("expects" if argv[0] == "eval" else "budget") in err


@pytest.mark.parametrize("argv,message", [
    (("check", "--f", "min", "--arity", "20000", "--resolution", "2",
      "--budget", "10"), "arity must be from 1 to 1000, got 20000"),
    (("eval", "--f", "min", "--arity", "20000", "[0,1]"),
     "arity must be from 1 to 1000, got 20000"),
    (("idempotent", "--f", "min", "--arity", "100000", "--resolution", "1"),
     "arity must be from 1 to 1000, got 100000"),
    (("check", "--f", "proj_999999999", "--arity", "999999999"),
     "arity must be from 1 to 1000, got 999999999"),
], ids=["check", "eval", "idempotent", "proj"])
def test_arity_above_limit_exit_2(argv, message):
    proc = run_child(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert message in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv,message", [
    # 45451^1001 has over 4,300 digits, more than Python prints in decimal
    (("check", "--f", "min", "--arity", "1000", "--resolution", "300"),
     "a sweep of 45451^1001 grid tuples"),
    # and so has s itself at a resolution of 10^2500
    (("idempotent", "--f", "min", "--resolution", "1" + "0" * 2500),
     "a sweep of over 10000000 grid tuples"),
], ids=["power", "grid-size"])
def test_refusal_of_a_huge_sweep_exit_3(argv, message):
    proc = run_child(*argv)
    assert proc.returncode == 3 and proc.stdout == ""
    assert message in proc.stderr


@pytest.mark.parametrize("argv,message", [
    (("check", "--f", "expr:pow(pow(X1,1000),100)", "--arity", "1",
      "--resolution", "3"), "has more than 4300 digits"),
    (("check", "--f", "expr:mul(L,X1)", "--arity", "1"),
     "IV-function expressions may not use L"),
    (("check", "--f", "expr:min(X1,X2)", "--arity", "1"),
     "variable X2 exceeds declared arity 1"),
], ids=["digits", "uses-L", "arity"])
def test_compile_error_names_no_position(argv, message):
    proc = run_child(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert message in proc.stderr and "line 1, column 1" not in proc.stderr


@pytest.mark.parametrize("argv,message", [
    (("eval", "--f", "expr:min(X1,[1/0,1])", "--arity", "1", "[0,1]"),
     "zero denominator in '1/0' (line 1, column 9)"),
    (("check", "--f", "min", "--g", "expr:mul(L,[0/0,1])"),
     "zero denominator in '0/0' (line 1, column 8)"),
], ids=["eval-f", "check-g"])
def test_zero_denominator_in_expression_exit_2(argv, message):
    proc = run_child(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_deeply_nested_expression_exit_2():
    src = "neg(" * 1500 + "X1" + ")" * 1500
    proc = run_child("eval", "--arity", "1", "--f", f"expr:{src}", "[0,1]")
    assert proc.returncode == 2
    assert "expression nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_startup_imports_no_dataclasses():
    proc = run_python("-c", "import sys, ivhom.cli; ivhom.cli.build_parser(); "
                      "print([m for m in ('dataclasses', 'fractions', "
                      "'ivhom.interval', 'argparse', 'gettext', 'locale') "
                      "if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


#: builds the parser, runs the command line on its arguments, if any, and
#: prints which of the engine's modules it imported, and whether it imported
#: argparse, gettext or locale, which no command needs
ENGINE_PROBE = """
import sys, ivhom.cli as cli
cli.build_parser()
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
engine = ("ivhom.interval", "fractions", "decimal", "numbers", "ivhom.dsl",
          "ivhom.expr", "ivhom.functions", "ivhom.homogeneity", "ivhom.report",
          "json", "argparse", "gettext", "locale")
print([m for m in engine if m in sys.modules])
sys.exit(code)
"""
INTERVAL = ["ivhom.interval", "fractions", "decimal", "numbers"]
ENGINE = ["ivhom.expr", "ivhom.functions", "ivhom.homogeneity", "ivhom.report"]


@pytest.mark.parametrize("argv,size,budget,loaded", [
    ((), None, None, []),
    (("prop2", "--f", "min", "--resolution", "40"), "861^3", 10000000, []),
    # theorem1 reads --a before the gate
    (("theorem1", "--f", "min", "--g", "P", "--resolution", "40",
      "--budget", "1800"), "861^3", 1800, INTERVAL),
], ids=["parser", "prop2", "theorem1"])
def test_refusal_loads_no_engine(argv, size, budget, loaded):
    proc = run_python("-c", ENGINE_PROBE, *argv)
    assert proc.stdout.strip() == repr(loaded)
    if argv:
        assert proc.returncode == 3
        assert proc.stderr == (
            f"ivhom: budget refused: a sweep of {size} grid tuples needs 2 "
            f"side-evaluations per tuple, more than the budget of {budget}\n")
    else:
        assert proc.returncode == 0 and proc.stderr == ""


@pytest.mark.parametrize("argv,loaded", [
    (("check", "--f", "min", "--resolution", "2", "--output", "text"),
     INTERVAL + ENGINE),
    (("check", "--f", "min", "--resolution", "2", "--output", "csv"),
     INTERVAL + ENGINE),
    (("check", "--f", "min", "--resolution", "2"),
     INTERVAL + ENGINE + ["json"]),
    # the grid is numerator pairs, and a dual report shows no number
    (("dual", "--f", "min", "--resolution", "2", "--output", "text"),
     ["ivhom.interval"] + ENGINE),
    (("check", "--f", "expr:min(X1,X2)", "--arity", "2", "--resolution", "2",
      "--output", "text"), INTERVAL + ["ivhom.dsl"] + ENGINE),
    (("check", "--f", "min", "--g", "expr:mul(L,X1)", "--resolution", "2",
      "--output", "csv"), INTERVAL + ["ivhom.dsl"] + ENGINE),
    (("eval", "--f", "min", "[0,1]", "[1,1]"), INTERVAL + ENGINE[:2]),
    (("check", "--f", "min", "--resolution", "2", "--mode", "float",
      "--output", "text"), ["ivhom.interval"] + ENGINE),
    (("check", "--f", "product", "--resolution", "2", "--mode", "float",
      "--output", "text"), ["ivhom.interval"] + ENGINE),
    (("check", "--f", "expr:min(X1,X2)", "--arity", "2", "--resolution", "2",
      "--mode", "float", "--output", "text"),
     ["ivhom.interval", "ivhom.dsl"] + ENGINE),
    (("check", "--f", "expr:max(X1,[0,1/2])", "--arity", "1", "--g", "pi2",
      "--resolution", "2", "--mode", "float", "--output", "text"),
     INTERVAL + ["ivhom.dsl"] + ENGINE),
    (("theorem1", "--f", "min", "--resolution", "2", "--mode", "float",
      "--output", "text"), ["ivhom.interval"] + ENGINE),
    (("eval", "--mode", "float", "--f", "min", "[0,1/3]", "[0.5,1e-0]"),
     ["ivhom.interval"] + ENGINE[:2]),
], ids=["text", "csv", "json", "dual-text", "expr-f", "expr-g", "eval",
        "float", "float-fail", "float-expr-f", "float-constant",
        "float-theorem1", "float-eval"])
def test_modules_each_command_loads(argv, loaded):
    """Only `expr:` arguments compile the DSL front end, and only JSON output
    loads `json`. `fractions` loads only for exact values and DSL
    constants: a float run reads its interval literals (theorem1's `--a`,
    eval's arguments) without it, and one with registry or constant-free
    `expr:` ingredients makes no exact number, even for a counterexample."""
    proc = run_python("-c", ENGINE_PROBE, *argv)
    assert proc.returncode in (0, 1) and proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == repr(loaded)


def test_registry_import_compiles_no_kernel():
    """Importing `functions` builds its five ingredients, which compiles no
    kernel."""
    proc = run_python("-c", "import ivhom.expr as e; made = []; "
                      "e._compile = lambda *a: made.append(a); "
                      "import ivhom.functions; print(len(made))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


#: counts the exact and the float traces (`expr._ScalarTarget`s) and the
#: kernels compiled in a fresh process: of a command line, or, with no
#: arguments, of importing `functions` and building ingredients
TRACE_PROBE = """
import sys, ivhom.expr as e
traced, compiled = [], []
class Recording(e._ScalarTarget):
    def __init__(self, exact, **kwargs):
        traced.append(exact)
        super().__init__(exact, **kwargs)
e._ScalarTarget = Recording
compile_ = e._compile
e._compile = lambda *args: compiled.append(args) or compile_(*args)
import ivhom.cli as cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
if not sys.argv[1:]:
    from ivhom import functions as fs
    for name in fs.FUNCTION_NAMES:
        fs.dual_ns(fs.get_function(name))
    fs.dual_scaling_ns(fs.P_NS)
    e.compile_ivfunction(e.parse_expr("psum(X1,[1/3,2/3])", 1), 1)
    e.compile_scaling(e.parse_expr("mul(L,neg(X1))", 1))
print(traced.count(True), traced.count(False), len(compiled))
sys.exit(code)
"""


@pytest.mark.parametrize("argv,counts", [
    ((), "0 0 0"),
    (("check", "--mode", "float", "--f", "min", "--resolution", "2"), "0 4 4"),
    (("check", "--mode", "float", "--f", "product", "--resolution", "2"),
     "0 4 4"),
    (("prop2", "--mode", "float", "--f", "min", "--resolution", "2"), "0 7 7"),
    (("eval", "--mode", "float", "--f", "min", "[0,1]", "[1,1]"), "0 1 1"),
    (("check", "--f", "min", "--resolution", "2"), "4 0 4"),
    (("idempotent", "--mode", "float", "--f", "min", "--resolution", "2"),
     "0 3 3"),
    (("idempotent", "--f", "min", "--resolution", "2"), "3 0 3"),
], ids=["build", "float-check", "float-check-fail", "float-prop2",
        "float-eval", "exact-check", "float-idempotent", "exact-idempotent"])
def test_a_run_traces_only_the_kernels_it_compiles(argv, counts):
    """Building an ingredient traces nothing, so a float run traces no
    exact code, and each kernel a run compiles is traced once: G, phi, F and
    the sweep for each homogeneity check, G (pi2), phi (the identity, whose
    kernel serves H = X1 too) and the sweep for idempotency, and a kernel
    over denominator 1 of F, G or phi for an exact counterexample. A float
    counterexample finds the sweep's kernels kept, and the dual step of
    `prop2` the identity's."""
    proc = run_python("-c", TRACE_PROBE, *argv)
    assert proc.returncode in (0, 1) and proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == counts


#: the kernels that `expr._compile` compiles in a fresh process, each keyed
#: by its ingredient and the `dens` that `_Compiled.kernel` was asked for
#: (a sweep, compiled outside it, has no key); prints those compiled more
#: than once, by name
KEY_PROBE = """
import sys, ivhom.expr as e
kernel, compile_ = e._Compiled.kernel, e._compile
within, kept, compiled = [None], [], []
def keyed(self, dens=None):
    kept.append(self)  # alive to the end, so that no id is reused
    within.append((self.name, id(self), dens))
    try:
        return kernel(self, dens)
    finally:
        within.pop()
def recording(*args):
    if within[-1] is not None:
        compiled.append(within[-1])
    return compile_(*args)
e._Compiled.kernel, e._compile = keyed, recording
import ivhom.cli as cli
code = cli.main(sys.argv[1:])
print(sorted({(name, dens) for name, i, dens in compiled
              if compiled.count((name, i, dens)) > 1}))
sys.exit(code)
"""


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("argv", [
    ("check", "--f", "min"), ("check", "--f", "product"),
    ("theorem1", "--f", "min"), ("theorem1", "--f", "product"),
    ("prop2", "--f", "min"), ("prop2", "--f", "product"),
    ("dual", "--f", "expr:mean(X1,X1)", "--arity", "2"),
    ("dual", "--f", "expr:mul(X1,neg(X2))", "--arity", "2"),
    ("idempotent", "--f", "min"), ("idempotent", "--f", "product"),
    ("eval", "--f", "min", "[0,1/2]", "[1/3,1]"),
], ids=" ".join)
def test_no_run_compiles_a_kernel_twice(argv, mode):
    """Each ingredient keeps the kernel it compiles for a set of
    denominators, so no run of any command, passing or failing, compiles
    the same kernel twice: `theorem1` asks for the identity's kernel over m
    three times, as phi of its homogeneity step and as phi and H of its
    idempotency step, and compiles it once."""
    grid = () if argv[0] == "eval" else ("--resolution", "2")
    proc = run_python("-c", KEY_PROBE, *argv, *grid, "--mode", mode,
                      "--output", "text")
    assert proc.returncode in (0, 1) and proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("command", ["prop2", "dual"])
@pytest.mark.parametrize("depth", [MAX_DEPTH - 2, MAX_DEPTH - 1, MAX_DEPTH])
def test_dual_past_the_depth_limit_exit_2(command, depth):
    """An F within 2 levels of `MAX_DEPTH` parses, but its N_S dual, which
    has a `neg` above F and above each variable, is past the limit. One
    level less is accepted: an odd number of `neg`s over X1 is neg(X1),
    which `prop2` finds not P-homogeneous (exit 1), an even one X1."""
    src = "neg(" * (depth - 1) + "X1" + ")" * (depth - 1)
    proc = run_child(command, "--f", f"expr:{src}", "--arity", "1",
                     "--resolution", "2", "--output", "text")
    assert "Traceback" not in proc.stderr
    if depth == MAX_DEPTH - 2:
        odd = (depth - 1) % 2
        assert proc.returncode == (odd if command == "prop2" else 0)
        assert proc.stderr == ""
        return
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("ivhom: error: expression nested too deeply: more "
                           f"than {MAX_DEPTH} levels\n")


#: the command-line parser of earlier versions, which `cli.parse_args`
#: must match; it is built once and reused, as argparse keeps no state
#: between parses
ORACLE = argparse_oracle.build_parser()


def _outcome(parse, argv):
    """What `parse` makes of `argv`: its fields, each value as its repr so
    that nan equals nan and 0.0 differs from -0.0, or "help" or "error";
    and what it wrote to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            fields = parse(list(argv))
        except SystemExit as exc:  # argparse: 0 after help, 2 for an error
            fields = "error" if exc.code else "help"
        except cli.UsageError:
            fields = "error"
    if fields is None:
        fields = "help"
    if isinstance(fields, dict):
        fields = {key: repr(value) for key, value in fields.items()}
    return fields, out.getvalue()


def assert_parses_like_argparse(argv):
    want, want_out = _outcome(lambda a: vars(ORACLE.parse_args(a)), argv)
    got, got_out = _outcome(cli.parse_args, argv)
    assert got == want
    assert bool(got_out) == bool(want_out) == (want == "help")


@pytest.mark.parametrize("argv", [
    ("-h",), *((command, "-h") for command in _COMMANDS),
    ("check", "--nope"), ("check", "--mode", "bad"),
    ("idempotent", "--output", "xml"), ("eval", "--f", "min", "--budget", "x"),
    ("frobnicate",), (), ("--f", "min", "check"),
    ("check", "--f", "min", "--g", "P_NS", "--mode", "float"),
    ("eval", "--f", "min", "[0,1]", "[1,1]"),
], ids=lambda argv: " ".join(argv) or "no-command")
def test_parser_of_one_subcommand_parses_like_the_full_parser(argv):
    """`cli.parse_args` reads the flags of the named subcommand alone; its
    help, exit code and result are those of the argparse parser of every
    subcommand."""
    assert_parses_like_argparse(argv)


#: a flag: each name in full and by each prefix, --help's too, and options
#: that no command has
FLAGS = [f"--{n[:k]}" for n in (*_FLAGS, "help") for k in range(1, len(n) + 1)]
#: values of each type and of none: numbers, negative numbers (only -1 and
#: -.5 forms, which every supported argparse reads as values; releases
#: differ on -1e-3, -1. and -1_0), choices and not, interval literals and
#: words with a space or "=". No value is "--": Python 3.11's argparse
#: reads --f=-- as f=[], and releases differ there too.
VALUES = ["min", "P", "pi2", "expr:min(X1,X2)", "2", "0", "07", " 3 ", "\u0663",
          "-1", "-12", "-.5", "-0.25", "1.5", "1e-3", "nan", "inf", "x", "",
          "json", "csv", "text", "exact", "float", "bad", "[0,1]", "[1,1]",
          "[0.2,0.5]", "a b", "-x y", "--f x", "--res=2 x", "-", "a=b"]


@st.composite
def command_lines(draw):
    """Words that may ask for help or name an unknown option before the
    command, the command (or none, or an unknown one), then flags: valid
    pairs of the command's own flags, by name or prefix, mixed with any
    flag, value, --flag=value, "--", -h and eval literals. "--" may not
    come before the command, where argparse releases differ: 3.11's takes
    it for the command."""
    before = draw(st.sampled_from([[]] * 12 + [["-h"], ["--he"], ["--x"],
                                                ["-x", "-hh"]]))
    command = draw(st.sampled_from([*_COMMANDS, "frobnicate", None]))
    names = _COMMANDS[command][1] + cli._COMMON if command in _COMMANDS else ()
    typed = {int: ["1", "-3", "2", "0"], float: ["1e-9", "-.5", "0", "nan"]}
    words = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 19))
        if kind < 12 and names:  # a flag of the command with a value
            name = draw(st.sampled_from(names))
            flag = "--" + name[:draw(st.integers(1, len(name)))]
            kind_, choices = _FLAGS[name][:2]
            value = draw(st.sampled_from(
                choices or typed.get(kind_) or ["min", "expr:min(X1,X2)", "[1,1]"]))
            words += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
        elif kind < 15:
            words += draw(st.lists(st.sampled_from(["[0,1]", "[1,1]", "x"]),
                                   min_size=1, max_size=3))
        elif kind == 15:
            words.append(draw(st.sampled_from(["--", "--", "-h", "-hh", "--help",
                                               "--h", "--=x", "--nope", "---"])))
        elif kind < 18:
            words.append(draw(st.sampled_from(FLAGS + VALUES)))
        else:
            words.append(draw(st.sampled_from(FLAGS + ["--"])) + "="
                         + draw(st.sampled_from(VALUES)))
    return [*before, *([command] if command else []), *words]


@settings(max_examples=1200, deadline=None, derandomize=True)
@given(command_lines())
@example(["eval", "[0,1]", "--f", "min", "[1,1]"])
@example(["eval", "--f", "min", "--", "[0,1]", "--", "-h"])
@example(["eval", "--f", "min", "[0,1]", "--"])
@example(["check", "--f", "min", "--"])
@example(["theorem1", "--a", "[1,1]", "--ar", "1", "--a=[0,1]"])
@example(["check", "--res", "2", "--o", "csv", "--epsilon", "-.5"])
@example(["check", "--epsilon", "-1\n", "--resolution=-1"])
@example(["idempotent", "--x", "-h", "--=x"])
@example(["--x", "check", "-h"])
def test_parser_reads_every_line_as_argparse_did(argv):
    """On command lines that mix every command, flags by name and by prefix
    (ambiguous ones too), --flag=value, repeats, negative numbers, -h and
    --help, "--", stray values and eval literals: a line that argparse
    accepts gives the same fields, one it refuses is refused, and one that
    asks for help prints help."""
    assert_parses_like_argparse(argv)


@pytest.mark.parametrize("argv", [
    ("check", "--epsilon", "-1e-3"), ("check", "--f", "-1."),
    ("check", "--budget", "-1_0"),
])
def test_a_number_argparse_did_not_read_is_an_option(capsys, argv):
    """A word that starts with "-" is a value only when it is a negative
    number by the pattern of the argparse of Python 3.10 and 3.11, -1 or
    -.5, on every Python; so --epsilon -1e-3 stays an error."""
    assert run(capsys, *argv) == (2, "", f"ivhom: error: {argv[1]} expects a "
                                         "value\n")


@pytest.mark.parametrize("argv,literal", [
    # Fraction would multiply out 10^999999999, for minutes
    (("eval", "--f", "min", "[1e999999999,1]", "[0,1]"), "1e999999999"),
    (("eval", "--f", "min", "[1e-5000,1]", "[1e-5000,1]"), "1e-5000"),
    (("eval", "--f", "min", "[0," + "1" * 5000 + "/3]", "[0,1]"),
     "1" * 37 + "..."),
    (("theorem1", "--f", "min", "--resolution", "2", "--a",
      "[1e999999999,1]"), "1e999999999"),
], ids=["exponent", "negative-exponent", "digits", "theorem1-a"])
def test_interval_literal_past_the_digit_limit_exit_2(argv, literal):
    proc = run_child(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert (f"cannot parse number {literal!r}: its digits and exponent exceed "
            "the limit of 4300") in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("literal,message", [
    ("[1e400,1]", "lo=inf outside [0,1]"),
    ("[0,-1e400]", "hi=-inf outside [0,1]"),
])
def test_float_overflowing_literal_exit_2(literal, message):
    proc = run_child("eval", "--mode", "float", "--f", "min", literal, "[0,1]")
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"ivhom: error: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("sign,shown", [("", "inf"), ("-", "-inf")])
def test_config_epsilon_past_the_double_range_exit_2(tmp_path, sign, shown):
    """A JSON integer past the largest double is inf, as --epsilon 1e400
    is, and so refused."""
    cfg = tmp_path / "big.json"
    cfg.write_text('{"epsilon": %s1%s}' % (sign, "0" * 400))
    proc = run_child("check", "--f", "min", "--mode", "float", "--config",
                     str(cfg))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("ivhom: error: eps must be finite and nonnegative, "
                           f"got {shown}\n")


def test_config_not_utf8_names_the_file(tmp_path):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(b'{"f": "m\xefn"}')
    proc = run_child("check", "--config", str(cfg))
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"ivhom: error: cannot read config {str(cfg)!r}: 'utf-8' codec" \
        in proc.stderr


@pytest.mark.parametrize("argv", [
    ("eval", "--f", "pow_3000000", "[1/2,1/2]"),
    ("check", "--f", "pow_20000", "--g", "P", "--resolution", "3"),
    ("eval", "--arity", "1", "--f", "expr:pow(X1,1001)", "[1/2,1/2]"),
    ("check", "--arity", "1", "--f", "expr:min(X1,pow(X1,20000))",
     "--resolution", "3"),
], ids=["eval-registry", "check-registry", "eval-dsl", "check-dsl"])
def test_pow_exponent_above_limit_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "exceeds the limit of 1000" in err


@pytest.mark.parametrize("argv,limit", [
    (("eval", "--f", "pow_" + "1" * 5000, "[0,1]"), "MAX_POW_EXPONENT"),
    (("check", "--f", "proj_" + "1" * 5000, "--arity", "2", "--g", "P",
      "--resolution", "2"), "MAX_ARITY"),
], ids=["pow", "proj"])
def test_registry_suffix_of_more_digits_than_python_converts_exit_2(argv, limit):
    proc = run_child(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"exceeds the limit of 1000 ({limit})" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv,role", [
    (("eval", "--f", "product", "[1e-2200,1]", "[1e-2200,1]"),
     "the numerator or denominator of the lower endpoint of the result"),
    (("check", "--f", "expr:pow(pow(X1,1000),100)", "--arity", "1",
      "--resolution", "3", "--output", "csv"),
     "an exact denominator of the compiled expression"),
], ids=["eval-endpoint", "check-denominator"])
def test_exact_value_past_the_digit_limit_exit_2(argv, role):
    """Python writes no int of more than 4300 digits as text; the message
    says which value it was and that float mode has no such limit."""
    proc = run_child(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(
        f"ivhom: error: {role} has more than 4300 digits, Python's limit for "
        "writing an integer as text; use --mode float")
    assert "Traceback" not in proc.stderr
    assert run_child(*argv, "--mode", "float").returncode in (0, 1)


def test_nested_powers_are_refused_before_they_are_computed():
    """Nested powers multiply their exponents: over m=2 the exact denominator
    of this F would have a billion bits. It is refused from its size before
    it is computed, with the digit limit's message; the float run makes no
    exact number and fails at once."""
    argv = ("check", "--f", "expr:pow(pow(pow(X1,1000),1000),1000)",
            "--arity", "1", "--resolution", "2")
    proc = run_child(*argv, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        "ivhom: error: an exact denominator of the compiled expression has "
        "more than 4300 digits, Python's limit for writing an integer as "
        "text; use --mode float\n")
    assert run_child(*argv, "--mode", "float", timeout=10).returncode == 1


def test_pow_exponent_at_limit_runs(capsys):
    code, out, _ = run(capsys, "eval", "--f", "pow_1000", "[1,1]")
    assert code == 0 and out.strip() == "[1/1,1/1]"
    code, out, _ = run(capsys, "check", "--f", "expr:pow(X1,1000)",
                       "--arity", "1", "--g", "P", "--resolution", "3")
    # l^1000 x^1000 against l x^1000: a fail, over denominators of 3^2000
    assert code == 1 and json.loads(out)["verdict"] == "fail"


def _square_of_chain(depth):
    """mul(D,D), `depth` levels deep, with D a chain of `neg`s over X1."""
    d = "neg(" * (depth - 2) + "X1" + ")" * (depth - 2)
    return f"expr:mul({d},{d})"


#: runs the CLI on its arguments below 100 frames of the caller's own
PADDED_PROBE = """
import sys
from ivhom.cli import main
def padded(k):
    return padded(k - 1) if k else main(sys.argv[1:])
sys.exit(padded(100))
"""


@pytest.mark.parametrize("command,depth,code", [
    ("check", MAX_DEPTH, 1), ("eval", MAX_DEPTH, 0),
    ("prop2", MAX_DEPTH - 2, 1), ("dual", MAX_DEPTH - 2, 0),
    ("prop2", MAX_DEPTH, 2), ("dual", MAX_DEPTH, 2),
])
def test_deepest_expression_runs_below_a_padded_stack(command, depth, code):
    """No walk recurses more than the parser's 2 frames a level, so an F at
    `MAX_DEPTH` runs from a stack 100 frames deep, and so does the N_S dual
    of one 2 levels less; the dual of one at the limit is past it. D is an
    even chain, X1, so F is mul(X1,X1), which is not P-homogeneous."""
    tail = ["[0,1/2]"] if command == "eval" else ["--resolution", "2"]
    proc = run_python("-c", PADDED_PROBE, command, "--f",
                      _square_of_chain(depth), "--arity", "1", *tail)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code
    if code == 2:
        assert proc.stderr == ("ivhom: error: expression nested too deeply: "
                               f"more than {MAX_DEPTH} levels\n")
    else:
        assert proc.stderr == "" and proc.stdout


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,code", [
    (("check", "--f", "min", "--resolution", "2"), 0),
    (("check", "--f", "product", "--resolution", "2"), 1),
    (("idempotent", "--f", "min", "--resolution", "3", "--output", "text"), 0),
    (("theorem1", "--f", "min", "--resolution", "2"), 0),
    (("prop2", "--f", "min", "--resolution", "2", "--output", "csv"), 0),
    (("dual", "--f", "min", "--resolution", "2"), 0),
    (("eval", "--f", "min", "[0,1]", "[1,1]"), 0),
    # the help goes to stdout through the same closed-pipe handling as reports
    pytest.param(("-h",), 0, id="help"),
    pytest.param(("check", "-h"), 0, id="check-help"),
], ids=lambda v: v if isinstance(v, int) else v[0])
def test_closed_stdout_ends_the_run_quietly(unbuffered, argv, code):
    """A reader that closed the pipe before the command wrote (here, before
    the command started) gets nothing; the command writes nothing to
    stderr, not even the interpreter's complaint at exit, and exits with its
    verdict's code."""
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
           "PYTHONPATH": str(Path(ivhom.__file__).resolve().parents[1])}
    try:
        proc = subprocess.run([sys.executable, "-m", "ivhom.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")


def test_no_command_compares_two_trees(capsys, monkeypatch):
    """Tracing memoizes by node and endpoint, so no command compares two
    ASTs, even on laws whose subtrees repeat."""
    from ivhom import expr

    calls = []
    eq = expr._Node.__eq__
    monkeypatch.setattr(expr._Node, "__eq__",
                        lambda a, b: calls.append(1) or eq(a, b))
    f = ("--f", "expr:min(max(X1,X1),mean(X2,X2,X1))", "--arity", "2")
    square = ("--f", "expr:mul(X1,X1)", "--arity", "1")
    small = ("--resolution", "2")
    for argv in [
        ("check", *f, "--g", "expr:psum(L,X1)", *small),
        ("check", *square, *small, "--mode", "float"),
        ("idempotent", *f, *small), ("idempotent", *square, *small),
        ("theorem1", *f, "--g", "expr:psum(L,X1)", *small),
        ("theorem1", *square, *small),
        ("prop2", *f, *small), ("prop2", *square, *small),
        ("dual", *f, *small), ("dual", *square, *small, "--mode", "float"),
        ("eval", *f, "[0,1/2]", "[1/3,1]"), ("eval", *square, "[0,1/2]"),
    ]:
        assert main(list(argv)) in (0, 1), argv
    capsys.readouterr()
    assert calls == []

import json

import pytest

from ivhom.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    code, _, err = run(capsys, "eval", "--f", "min", "[0.2,0.5]")
    assert code == 2 and "interval" in err


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

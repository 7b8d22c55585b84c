import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ivhom.interval import Interval, NumericMode, parse_interval
from ivhom.functions import IDENTITY, P, get_function
from ivhom.homogeneity import (
    CheckReport,
    Counterexample,
    check_homogeneity,
    check_idempotency,
    make_grid,
    run_theorem1,
)
from ivhom.report import _json, emit_report, to_csv, to_json, to_text


@pytest.fixture
def pass_report():
    return check_homogeneity(get_function("min", 2), P, IDENTITY, make_grid(2))


@pytest.fixture
def fail_report():
    return check_homogeneity(get_function("product", 2), P, IDENTITY, make_grid(2))


def test_json_schema_keys(pass_report):
    d = json.loads(to_json(pass_report))
    assert set(d) == {
        "law", "verdict", "counterexample", "evaluations",
        "max_deviation", "mode", "resolution",
    }
    assert d["verdict"] == "pass" and d["counterexample"] is None
    assert d["max_deviation"] == "0/1"
    assert d["mode"] == {"kind": "exact"}


def test_json_counterexample_rationals(fail_report):
    d = json.loads(to_json(fail_report))
    c = d["counterexample"]
    assert c["lambda"] == "[0/1,1/2]"
    assert c["xs"] == ["[0/1,1/2]", "[0/1,1/2]"]
    assert c["lhs"] == "[0/1,1/16]" and c["rhs"] == "[0/1,1/8]"


def read_check_json(text):
    """The CheckReport that a single-check JSON report describes."""
    d = json.loads(text)
    exact = d["mode"]["kind"] == "exact"
    mode = NumericMode("exact") if exact else NumericMode(
        "float", float(d["mode"]["epsilon"]))
    parse = lambda s: None if s is None else parse_interval(s, mode)
    c = d["counterexample"]
    cex = None if c is None else Counterexample(
        parse(c["lambda"]), tuple(map(parse, c["xs"])), parse(c["lhs"]),
        parse(c["rhs"]))
    return CheckReport(d["law"], d["verdict"], cex, d["evaluations"],
                       (Fraction if exact else float)(d["max_deviation"]),
                       mode, d["resolution"], d.get("note"))


def test_json_round_trip(pass_report, fail_report):
    for r in (pass_report, fail_report):
        assert read_check_json(to_json(r)) == r


def test_json_round_trip_float_mode():
    grid = make_grid(2, NumericMode("float", 1e-9))
    r = check_homogeneity(get_function("product", 2), P, IDENTITY, grid)
    assert r.counterexample is not None
    assert read_check_json(to_json(r)) == r


def test_csv_rows(pass_report, fail_report):
    assert to_csv(pass_report) == "def1-homogeneity,pass,0"
    assert to_csv(fail_report) == "def1-homogeneity,fail,1/4"


def test_csv_pipeline_one_row_per_check():
    rep = run_theorem1(get_function("min", 2), P, Interval(1, 1), make_grid(2))
    rows = to_csv(rep).splitlines()
    assert rows == [
        "fixed-point,pass,0",
        "section-bijective,pass,0",
        "def1-homogeneity,pass,0",
        "idempotency,pass,0",
    ]


def test_text_fail_block_shows_both_sides(fail_report):
    text = to_text(fail_report)
    assert "F(G(Λ,X1),…)" in text and "G(Φ(Λ),F(X1,…))" in text
    assert "[0/1,1/16]" in text and "[0/1,1/8]" in text


def test_text_idempotency_counterexample():
    r = check_idempotency(get_function("product", 2), make_grid(2))
    text = to_text(r)
    assert "F(X,…,X)" in text and "[0/1,1/4]" in text


def test_pipeline_text_and_json():
    rep = run_theorem1(get_function("min", 2), P, Interval(1, 1), make_grid(2))
    d = json.loads(to_json(rep))
    assert d["pipeline"] == "theorem1" and d["status"] == "confirmed"
    assert [c["label"] for c in d["checks"]] == [
        "fixed-point", "section-bijective", "homogeneity", "idempotency",
    ]
    assert "grid-certified" in to_text(rep)


def test_emit_report_dispatch(pass_report):
    assert emit_report(pass_report, "json") == to_json(pass_report)
    assert emit_report(pass_report, "csv") == to_csv(pass_report)
    assert emit_report(pass_report, "text") == to_text(pass_report)
    with pytest.raises(ValueError):
        emit_report(pass_report, "yaml")


def test_float_numbers_serialized_as_decimal_strings():
    grid = make_grid(2, NumericMode("float", 1e-9))
    r = check_homogeneity(get_function("min", 2), P, IDENTITY, grid)
    d = json.loads(to_json(r))
    assert d["max_deviation"] == "0.0"
    assert d["mode"] == {"kind": "float", "epsilon": "1e-09"}


#: text from all of Unicode, lone surrogates too, with the characters that
#: JSON escapes or that end a plain string drawn more often: controls,
#: quotes, backslashes, DEL, the last ASCII character and astral ones
_TEXT = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\t", "\n", "\x1f", " ", "~", "\x7f",
                     "\x80", "\u2028", "\U0001f600"]),
    st.characters(blacklist_categories=())))
#: report-shaped values: nested dicts with string keys and lists, empty
#: ones too, of strings, ints and None
_REPORT_VALUES = st.recursive(
    st.none() | st.integers() | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=1000, deadline=None)
@given(_REPORT_VALUES)
@example({"function": "mean(X1,\tX1)", "equals_registry": [], "note": None})
@example([[], {}, [{}], {"": [[]]}])
def test_json_writer_matches_json_dumps(value):
    """The report's JSON writer writes what `json.dumps(value, indent=2)`
    writes, byte for byte."""
    assert _json(value) == json.dumps(value, indent=2)

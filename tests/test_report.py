import contextlib
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ivhom.cli import main
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
from ivhom.report import emit_report, to_csv
from ivhom.report_json import _json, to_json
from ivhom.report_text import to_text


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


#: command lines of registry and `expr:` checks and pipelines, passing and
#: failing, each run in both modes at resolutions above the golden file's 2
CROSS_FORMAT = (
    "check --f min --resolution 6",
    "check --f product --resolution 5",
    "check --f mean --g P_NS --resolution 4",
    "check --f max --arity 3 --g pi2 --resolution 3",
    "check --f expr:mul(X1,neg(X2)) --arity 2 --resolution 4",
    "check --f expr:max(neg(X1),[1/3,2/3]) --arity 2 --g expr:mul(L,X1) "
    "--resolution 3",
    "idempotent --f product --resolution 7",
    "idempotent --f expr:mul(X1,neg(X2)) --arity 2 --resolution 5",
    "theorem1 --f min --a [1,1] --resolution 4",
    "theorem1 --f product --a [1/2,1/2] --resolution 4",
    "theorem1 --f mean --g P_NS --a [0,0] --resolution 3",
    "prop2 --f min --resolution 4",
    "prop2 --f product --resolution 3",
    "prop2 --f expr:psum(X1,mul(X2,[1/3,2/3])) --arity 2 --resolution 3",
)
#: float-only command lines: an order isomorphism with an irrational
#: inverse, and an epsilon other than the default
FLOAT_ONLY = (
    "check --f pow_2 --arity 1 --phi square --resolution 5",
    "check --f mean --g P_NS --resolution 4 --epsilon 1e-300",
    "theorem1 --f min --a [0,0] --resolution 3 --epsilon 0.25",
)


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def text_blocks(text):
    """The header fields of a text report, and the label and the fields of
    each check block, each by its key. A line indented within a block
    continues the field above it."""
    lines = text.splitlines()
    head, blocks = {}, [["", []]]
    if lines[0].startswith("pipeline:"):  # a header, then labelled blocks
        head = dict(line.split(":", 1) for line in lines[:3])
        blocks = []
        for line in lines[3:]:
            if line.startswith("["):
                blocks.append([line[1:-1], []])
            else:
                blocks[-1][1].append(line.removeprefix("  "))
    else:
        blocks[0][1] = lines
    checks = []
    for label, block in blocks:
        fields = {}
        for line in block:
            if line.startswith(" "):
                fields[key] += "\n" + line.strip()
            else:
                key, value = line.split(":", 1)
                fields[key] = value.strip()
        checks.append((label, fields))
    return {k: v.strip() for k, v in head.items()}, checks


@pytest.mark.parametrize("argv,mode", [
    *((a, m) for a in CROSS_FORMAT for m in ("exact", "float")),
    *((a, "float") for a in FLOAT_ONLY)])
def test_csv_and_text_lay_out_the_json_fields(argv, mode):
    """Each CSV row and each text block shows the law, verdict, deviation,
    note and counterexample strings of its check's JSON fields, and a
    pipeline's text header its JSON status and verdict."""
    argv = [*argv.split(" "), "--mode", mode]
    runs = [_stdout([*argv, "--output", f]) for f in ("json", "csv", "text")]
    assert len({code for code, _ in runs}) == 1 and runs[0][0] in (0, 1)
    (_, js), (_, csv), (_, text) = runs
    d = json.loads(js)
    checks = d.get("checks", [{"label": "", **d}])
    rows = csv.removesuffix("\n").split("\n")
    head, blocks = text_blocks(text)
    assert len(rows) == len(blocks) == len(checks)
    if "pipeline" in d:
        assert head == {k: d[k] for k in ("pipeline", "status", "verdict")}
    for c, row, (label, t) in zip(checks, rows, blocks):
        dev = c["max_deviation"].removesuffix("/1")
        assert row.split(",") == [c["law"], c["verdict"], dev]
        assert label == c["label"]
        shown = ("exact" if c["mode"]["kind"] == "exact"
                 else f"float, eps={c['mode']['epsilon']}")
        assert t.pop("resolution") == f"m={c['resolution']} ({shown})"
        cex = c["counterexample"]
        sides = None if cex is None else [
            v for v in (cex["lambda"], *cex["xs"], cex["lhs"], cex["rhs"])
            if v is not None]
        text_cex = t.pop("counterexample", None)
        assert sides == (None if text_cex is None
                         else re.findall(r"\[[^]]*\]", text_cex))
        assert t == {"law": c["law"], "verdict": c["verdict"],
                     "evaluations": str(c["evaluations"]),
                     "max deviation": dev,
                     **({"note": c["note"]} if "note" in c else {})}

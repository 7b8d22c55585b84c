"""Report serialization: the fields of each check, and the CSV layout.

`check_to_dict` turns one check into one dict, and is the one place that
writes a check's numbers: decimal strings in float mode and "p/q" strings
in exact mode, so exact verdicts survive serialization without loss. The
three formats are three layouts of those dicts. CSV, here, writes one row
of law, verdict and deviation per check. JSON (`report_json`) writes them
whole, inside a pipeline's own dict for a pipeline, and text
(`report_text`) one block of their fields per check, under a pipeline's
own header. `_checks` gives the checks of a report, a pipeline's or the
one of a single check.

`emit_report` writes the report of a check or pipeline in one format, and
imports the layout module of JSON or text only when it is asked for that
format, so a run compiles the one layout it writes. The report of `dual`
is written by `dual`.
"""

from __future__ import annotations

from .interval import NumericMode, format_interval, format_number
from .homogeneity import CheckReport, Counterexample, PipelineReport

Report = CheckReport | PipelineReport


def _mode_dict(mode: NumericMode) -> dict:
    d = {"kind": mode.kind}
    if not mode.is_exact:
        d["epsilon"] = repr(mode.eps)
    return d


def _cex_dict(cex: Counterexample | None, mode: NumericMode):
    if cex is None:
        return None
    fmt = lambda iv: None if iv is None else format_interval(iv, mode)
    return {
        "lambda": fmt(cex.lam),
        "xs": [format_interval(x, mode) for x in cex.xs],
        "lhs": fmt(cex.lhs),
        "rhs": fmt(cex.rhs),
    }


def check_to_dict(report: CheckReport) -> dict:
    d = {
        "law": report.law,
        "verdict": report.verdict,
        "counterexample": _cex_dict(report.counterexample, report.mode),
        "evaluations": report.evaluations,
        "max_deviation": format_number(report.max_deviation, report.mode,
                                       "maximum deviation"),
        "mode": _mode_dict(report.mode),
        "resolution": report.resolution,
    }
    if report.note is not None:
        d["note"] = report.note
    return d


def _checks(report: Report) -> tuple[tuple[str, CheckReport], ...]:
    """The labelled checks of `report`: a pipeline's, or the one check of a
    single-check report, labelled ""."""
    if isinstance(report, PipelineReport):
        return report.checks
    return (("", report),)


def _dev_str(d: dict) -> str:
    # compact form for csv/text: "0", "1/16", "2.5e-13"
    return d["max_deviation"].removesuffix("/1")


def to_csv(report: Report) -> str:
    rows = (check_to_dict(r) for _, r in _checks(report))
    return "\n".join(f"{d['law']},{d['verdict']},{_dev_str(d)}" for d in rows)


def emit_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        from .report_json import to_json

        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    if fmt == "text":
        from .report_text import to_text

        return to_text(report)
    raise ValueError(f"unknown output format {fmt!r}")

"""Report serialization: JSON, CSV, and human-readable text.

Numbers are decimal strings in float mode and "p/q" strings in exact mode,
so exact verdicts survive serialization without loss. `emit_report`
writes the report of a check or pipeline, `emit_dual` that of `dual`. Only
the JSON writers import `json`.
"""

from __future__ import annotations

from typing import Union

from .interval import Number, NumericMode, format_interval, format_number
from .homogeneity import CheckReport, Counterexample, Grid, PipelineReport

Report = Union[CheckReport, PipelineReport]


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


def pipeline_to_dict(report: PipelineReport) -> dict:
    return {
        "pipeline": report.pipeline,
        "status": report.status,
        "verdict": report.verdict,
        "checks": [
            {"label": label, **check_to_dict(r)} for label, r in report.checks
        ],
        "mode": _mode_dict(report.mode),
        "resolution": report.resolution,
    }


def to_json(report: Report) -> str:
    if isinstance(report, PipelineReport):
        d = pipeline_to_dict(report)
    else:
        d = check_to_dict(report)
    import json

    return json.dumps(d, indent=2)


def _dev_str(dev: Number, mode: NumericMode) -> str:
    # compact form for csv/text: "0", "1/16", "2.5e-13"
    return format_number(dev, mode, "maximum deviation").removesuffix("/1")


def to_csv(report: Report) -> str:
    if isinstance(report, PipelineReport):
        rows = [
            f"{r.law},{r.verdict},{_dev_str(r.max_deviation, r.mode)}"
            for _, r in report.checks
        ]
    else:
        rows = [
            f"{report.law},{report.verdict},"
            f"{_dev_str(report.max_deviation, report.mode)}"
        ]
    return "\n".join(rows)


def _check_text(report: CheckReport) -> str:
    mode = report.mode
    lines = [
        f"law:          {report.law}",
        f"verdict:      {report.verdict}",
        f"resolution:   m={report.resolution} "
        f"({'exact' if mode.is_exact else f'float, eps={mode.eps}'})",
        f"evaluations:  {report.evaluations}",
        f"max deviation: {_dev_str(report.max_deviation, mode)}",
    ]
    if report.note:
        lines.append(f"note:         {report.note}")
    cex = report.counterexample
    if cex is not None:
        fmt = lambda iv: format_interval(iv, mode)
        xs = ",".join(fmt(x) for x in cex.xs)
        if report.law.startswith("def1-homogeneity") and cex.lam is not None:
            lam = fmt(cex.lam)
            lines.append(
                f"counterexample: Lambda={lam} xs=({xs})\n"
                f"  F(G(Λ,X1),…) = {fmt(cex.lhs)} ≠ "
                f"{fmt(cex.rhs)} = G(Φ(Λ),F(X1,…))"
            )
        elif report.law == "idempotency":
            lines.append(
                f"counterexample: X={xs}; F(X,…,X) = {fmt(cex.lhs)} ≠ {xs}"
            )
        else:
            parts = [f"xs=({xs})"] if xs else []
            if cex.lhs is not None:
                parts.append(f"lhs={fmt(cex.lhs)}")
            if cex.rhs is not None:
                parts.append(f"rhs={fmt(cex.rhs)}")
            lines.append("counterexample: " + " ".join(parts))
    return "\n".join(lines)


def to_text(report: Report) -> str:
    if isinstance(report, CheckReport):
        return _check_text(report)
    blocks = [
        f"pipeline: {report.pipeline}",
        f"status:   {report.status}",
        f"verdict:  {report.verdict}",
    ]
    for label, r in report.checks:
        body = "\n".join("  " + line for line in _check_text(r).splitlines())
        blocks.append(f"[{label}]\n{body}")
    return "\n".join(blocks)


def emit_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    if fmt == "text":
        return to_text(report)
    raise ValueError(f"unknown output format {fmt!r}")


def _csv_field(text: str) -> str:
    """`text` as one CSV field: quoted, with inner quotes doubled, when it
    holds a comma, quote, CR or LF (RFC 4180)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_dual(function: str, dual: str, matches: list[str], grid: Grid,
              fmt: str) -> str:
    """The report of `dual`: the registry functions, `matches`, that equal
    `dual`, the standard-negation dual of `function`, on `grid`."""
    if fmt == "json":
        import json

        return json.dumps({
            "command": "dual",
            "function": function,
            "dual": dual,
            "equals_registry": matches,
            "resolution": grid.resolution,
            "mode": grid.mode.kind,
        }, indent=2)
    if fmt == "csv":
        return f"dual,{_csv_field(function)},{';'.join(matches)}"
    eq = ", ".join(matches) if matches else "no registry function"
    return f"dual of {function} equals {eq} on the m={grid.resolution} grid"

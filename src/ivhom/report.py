"""Report serialization: JSON, CSV, and human-readable text.

`check_to_dict` turns one check into one dict, and is the one place that
writes a check's numbers: decimal strings in float mode and "p/q" strings
in exact mode, so exact verdicts survive serialization without loss. The
three formats are three layouts of those dicts. JSON writes them whole,
inside `pipeline_to_dict`'s dict for a pipeline. CSV writes one row of
law, verdict and deviation per check. Text writes one block of their
fields per check, under a pipeline's own header. `_checks` gives the
checks of a report, a pipeline's or the one of a single check.
`emit_report` writes the report of a check or pipeline, `emit_dual` that
of `dual`.
JSON is written by `_json`, in the layout of `json.dumps(value, indent=2)`,
byte for byte. It writes a string of printable ASCII with no quote or
backslash as it is, and leaves every other string to `json.dumps`, so
`json` stays the one escaper but loads only for such a string, as in a
name with a tab or a non-ASCII character.
"""

from __future__ import annotations

from .interval import NumericMode, format_interval, format_number
from .homogeneity import CheckReport, Counterexample, Grid, PipelineReport

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


def pipeline_to_dict(report: PipelineReport) -> dict:
    return {
        "pipeline": report.pipeline,
        "status": report.status,
        "verdict": report.verdict,
        "checks": [{"label": label, **check_to_dict(r)}
                   for label, r in _checks(report)],
        "mode": _mode_dict(report.mode),
        "resolution": report.resolution,
    }


def _json(value, indent: str = "") -> str:
    """`value`, made of dicts with string keys, lists, strings, ints and
    None, as `json.dumps(value, indent=2)` writes it, with `indent` before
    each line but the first."""
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_json(k)}: {_json(v, inner)}" for k, v in value.items()]
    elif isinstance(value, list):
        items = [_json(v, inner) for v in value]
    elif value is None:
        return "null"
    elif value.__class__ is int:
        return repr(value)
    elif value.__class__ is str and value.isascii() and value.isprintable() and (
            '"' not in value and "\\" not in value):
        return f'"{value}"'
    else:
        import json

        return json.dumps(value)
    start, end = "{}" if isinstance(value, dict) else "[]"
    if not items:
        return start + end
    return f"{start}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{end}"


def to_json(report: Report) -> str:
    (label, check), *_ = _checks(report)
    return _json(pipeline_to_dict(report) if label else check_to_dict(check))


def _dev_str(d: dict) -> str:
    # compact form for csv/text: "0", "1/16", "2.5e-13"
    return d["max_deviation"].removesuffix("/1")


def to_csv(report: Report) -> str:
    rows = (check_to_dict(r) for _, r in _checks(report))
    return "\n".join(f"{d['law']},{d['verdict']},{_dev_str(d)}" for d in rows)


def _check_text(d: dict) -> str:
    eps = d["mode"].get("epsilon")
    lines = [
        f"law:          {d['law']}",
        f"verdict:      {d['verdict']}",
        f"resolution:   m={d['resolution']} "
        f"({'exact' if eps is None else f'float, eps={eps}'})",
        f"evaluations:  {d['evaluations']}",
        f"max deviation: {_dev_str(d)}",
    ]
    if d.get("note"):
        lines.append(f"note:         {d['note']}")
    cex = d["counterexample"]
    if cex is not None:
        xs = ",".join(cex["xs"])
        if d["law"].startswith("def1-homogeneity"):
            lines.append(
                f"counterexample: Lambda={cex['lambda']} xs=({xs})\n"
                f"  F(G(Λ,X1),…) = {cex['lhs']} ≠ "
                f"{cex['rhs']} = G(Φ(Λ),F(X1,…))"
            )
        elif d["law"] == "idempotency":
            lines.append(
                f"counterexample: X={xs}; F(X,…,X) = {cex['lhs']} ≠ {xs}"
            )
        else:
            parts = [f"xs=({xs})"] if xs else []
            parts += [f"{k}={cex[k]}" for k in ("lhs", "rhs")
                      if cex[k] is not None]
            lines.append("counterexample: " + " ".join(parts))
    return "\n".join(lines)


def to_text(report: Report) -> str:
    blocks = []
    for label, r in _checks(report):
        text = _check_text(check_to_dict(r))
        if not label:  # the one check of a single-check report
            return text
        body = "\n".join("  " + line for line in text.splitlines())
        blocks.append(f"[{label}]\n{body}")
    return "\n".join([f"pipeline: {report.pipeline}",
                      f"status:   {report.status}",
                      f"verdict:  {report.verdict}", *blocks])


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
        return _json({
            "command": "dual",
            "function": function,
            "dual": dual,
            "equals_registry": matches,
            "resolution": grid.resolution,
            "mode": grid.mode.kind,
        })
    if fmt == "csv":
        return f"dual,{_csv_field(function)},{';'.join(matches)}"
    eq = ", ".join(matches) if matches else "no registry function"
    return f"dual of {function} equals {eq} on the m={grid.resolution} grid"

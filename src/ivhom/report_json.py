"""The JSON layout of a report, which `report.emit_report` loads only for
`--output json`, and `dual` only for its own JSON report.

`to_json` writes a check's dict (`report.check_to_dict`) whole, or, for a
pipeline, `pipeline_to_dict`'s dict, which holds the dict of each check.
JSON is written by `_json`, in the layout of `json.dumps(value, indent=2)`,
byte for byte. It writes a string of printable ASCII with no quote or
backslash as it is, and leaves every other string to `json.dumps`, so
`json` stays the one escaper but loads only for such a string, as in a
name with a tab or a non-ASCII character. The fields come from `report`,
imported where they are read, so the report of `dual`, which writes its
own dict, does not load it.
"""

from __future__ import annotations

from .interval import TYPE_CHECKING

if TYPE_CHECKING:
    from .homogeneity import PipelineReport
    from .report import Report


def pipeline_to_dict(report: PipelineReport) -> dict:
    from .report import _checks, _mode_dict, check_to_dict

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
    from .report import _checks, check_to_dict

    (label, check), *_ = _checks(report)
    return _json(pipeline_to_dict(report) if label else check_to_dict(check))

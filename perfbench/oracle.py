"""Known-answer check of one job's exit code and stdout.

Reads all three report formats without importing `ivhom`, normalises each
to the laws it carries, and compares them with the job's `Expect`. A format
that does not carry a field (CSV has no counterexample and no pipeline
status) is not checked on it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from workloads import Check, Job

_INTERVAL = r"\[[^\[\]]*\]"
_CEX_RE = re.compile(rf"counterexample: Lambda=({_INTERVAL}) xs=\((.*)\)\s*$")
_SIDES_RE = re.compile(rf"= ({_INTERVAL}) ≠ ({_INTERVAL}) =")
_MISSING = object()  # the format does not carry this field


def _interval(text: str) -> tuple:
    lo, hi = text.strip()[1:-1].split(",")
    return Fraction(lo), Fraction(hi)


def _intervals(text: str) -> tuple:
    return tuple(_interval(t) for t in re.findall(_INTERVAL, text))


def _from_json_check(d: dict) -> dict:
    c = d["counterexample"]
    cex = None if c is None else (
        _interval(c["lambda"]) if c["lambda"] else None,
        tuple(_interval(x) for x in c["xs"]),
        _interval(c["lhs"]), _interval(c["rhs"]))
    return {"law": d["law"], "verdict": d["verdict"],
            "dev": Fraction(d["max_deviation"]), "cex": cex}


def _from_text_check(lines: list) -> dict:
    out = {"cex": None}
    for i, line in enumerate(lines):
        key, _, value = line.strip().partition(":")
        value = value.strip()
        if key == "law":
            out["law"] = value
        elif key == "verdict":
            out["verdict"] = value
        elif key == "max deviation":
            out["dev"] = Fraction(value)
        elif key == "counterexample":
            m = _CEX_RE.search(line)
            sides = _SIDES_RE.search(lines[i + 1]) if i + 1 < len(lines) else None
            # only the homogeneity form carries Lambda and both sides
            out["cex"] = _MISSING if m is None or sides is None else (
                _interval(m.group(1)), _intervals(m.group(2)),
                _interval(sides.group(1)), _interval(sides.group(2)))
    return out


def _from_csv_row(row: str) -> dict:
    law, verdict, dev = row.split(",")
    return {"law": law, "verdict": verdict, "dev": Fraction(dev),
            "cex": _MISSING}


def parse_report(text: str, fmt: str) -> dict:
    """Normalise a check or pipeline report to {status, checks: [...]}."""
    text = text.strip()
    if fmt == "json":
        d = json.loads(text)
        if "pipeline" not in d:
            return {"status": None, "checks": [_from_json_check(d)]}
        return {"status": d["status"],
                "checks": [_from_json_check(c) for c in d["checks"]]}
    if fmt == "csv":
        return {"status": _MISSING,
                "checks": [_from_csv_row(r) for r in text.splitlines()]}
    lines = text.splitlines()
    if not lines[0].startswith("pipeline:"):
        return {"status": None, "checks": [_from_text_check(lines)]}
    status = lines[1].partition(":")[2].strip()
    blocks, current = [], None
    for line in lines[3:]:
        if line.startswith("["):
            current = []
            blocks.append(current)
        else:
            current.append(line)
    return {"status": status, "checks": [_from_text_check(b) for b in blocks]}


def parse_dual(text: str, fmt: str) -> list:
    """The registry names a `dual` report says the dual equals."""
    text = text.strip()
    if fmt == "json":
        return json.loads(text)["equals_registry"]
    if fmt == "csv":
        return [n for n in text.split(",", 2)[2].split(";") if n]
    named = re.fullmatch(r"dual of \S+ equals (.*) on the m=\d+ grid", text)
    if named is None or named.group(1) == "no registry function":
        return []
    return named.group(1).split(", ")


def _close(got, want, tol: float) -> bool:
    return abs(Fraction(got) - Fraction(want)) <= Fraction(tol)


def _same_intervals(got: tuple, want: tuple, tol: float) -> bool:
    return len(got) == len(want) and all(
        _close(g[0], w[0], tol) and _close(g[1], w[1], tol)
        for g, w in zip(got, want))


def _compare_check(got: dict, want: Check) -> list:
    errors = []
    for key in ("law", "verdict"):
        if got.get(key) != getattr(want, key):
            errors.append(f"{key} {got.get(key)!r} != {getattr(want, key)!r}")
    if "dev" not in got or not _close(got["dev"], want.dev, want.tol):
        errors.append(f"max_deviation {got.get('dev')} != {want.dev}")
    cex = got["cex"]
    if cex is _MISSING:
        return errors
    if (cex is None) != (want.cex is None):
        errors.append(f"counterexample {cex} != {want.cex}")
    elif cex is not None:
        lam, xs, lhs, rhs = want.cex
        if not (_same_intervals((cex[0], cex[2], cex[3]), (lam, lhs, rhs),
                                want.tol)
                and _same_intervals(cex[1], xs, want.tol)):
            errors.append(f"counterexample {cex} != {want.cex}")
    return errors


def check(job: Job, exit_code: int, stdout: str) -> list:
    """Mismatches between a finished job and its known answer; [] if none."""
    want = job.expect
    if exit_code != want.exit:
        return [f"exit {exit_code} != {want.exit}"]
    if job.refusal:
        return [] if not stdout.strip() else ["refusal printed a report"]
    try:
        if want.matches is not None:
            got = parse_dual(stdout, job.output)
            return [] if tuple(got) == want.matches else [
                f"dual matches {got} != {list(want.matches)}"]
        report = parse_report(stdout, job.output)
    except (ValueError, KeyError, IndexError, AttributeError) as exc:
        return [f"unreadable {job.output} report: {exc!r}"]
    errors = []
    if report["status"] is not _MISSING and report["status"] != want.status:
        errors.append(f"status {report['status']!r} != {want.status!r}")
    if len(report["checks"]) != len(want.checks):
        return errors + [f"{len(report['checks'])} checks != "
                         f"{len(want.checks)}"]
    for got, (label, expected) in zip(report["checks"], want.checks):
        errors += [f"{label or 'check'}: {e}"
                   for e in _compare_check(got, expected)]
    return errors

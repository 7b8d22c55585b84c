"""The human-readable text layout of a report, which `report.emit_report`
loads only for `--output text`.

`to_text` writes one block of a check's fields (`report.check_to_dict`)
per check, under a pipeline's own header.
"""

from __future__ import annotations

from .report import Report, _checks, _dev_str, check_to_dict


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

"""Golden reports: the CLI's exact stdout and exit code for a fixed job list.

The data file was recorded once and is the equivalence oracle for
refactors: a change to how ingredients are represented or evaluated must
leave every report byte-identical. To record it again after a deliberate
change of output, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import json
from pathlib import Path

from ivhom.cli import main

GOLDEN = Path(__file__).parent / "golden" / "reports.json"

REGISTRY = ("min", "max", "product", "mean", "proj_1", "proj_2", "pow_2")
FORMATS = ("json", "csv", "text")
EXPR_FS = ("expr:max(neg(X1),[1/3,2/3])",
           "expr:psum(neg(min(X1,X2)),mul(X2,[1/3,2/3]))")


def _jobs():
    for mode in ("exact", "float"):
        for f in REGISTRY:
            arity = "1" if f == "pow_2" else "2"
            for g in ("P", "P_NS", "pi2"):
                yield ["check", "--f", f, "--arity", arity, "--g", g,
                       "--resolution", "2", "--mode", mode]
        for f in EXPR_FS:
            yield ["check", "--f", f, "--arity", "2", "--g", "P",
                   "--resolution", "2", "--mode", mode]
    for f in ("min", "pow_2"):
        arity = "1" if f == "pow_2" else "2"
        yield ["check", "--f", f, "--arity", arity, "--g", "P",
               "--phi", "square", "--resolution", "2", "--mode", "float"]
    yield ["theorem1", "--f", "min", "--g", "P", "--a", "[1,1]",
           "--resolution", "2"]
    yield ["theorem1", "--f", "mean", "--g", "P_NS", "--a", "[0,0]",
           "--resolution", "2"]
    for f in ("min", "product"):
        yield ["prop2", "--f", f, "--resolution", "2"]
    for f in ("min", "max", "mean", "product"):
        yield ["dual", "--f", f, "--arity", "2", "--resolution", "2"]


def jobs():
    return [argv + ["--output", fmt, "--workers", "1"]
            for argv in _jobs() for fmt in FORMATS]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def test_reports_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == jobs()
    for want in golden:
        assert run(want["argv"]) == want, " ".join(want["argv"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run(a) for a in jobs()], indent=1) + "\n")

"""Self-tests of the benchmark's own code: `python3 -m pytest perfbench`.

They do not run `ivhom`; the oracle is tried on report text written here by
hand.
"""

from __future__ import annotations

import random
from fractions import Fraction

import dslgen
import oracle
import workloads


def _argvs(workload: str, seed: int) -> list:
    return [job.argv for job in workloads.build(workload, seed)]


def test_same_seed_same_argv() -> None:
    for workload in workloads.WORKLOADS:
        assert _argvs(workload, 7) == _argvs(workload, 7)


def test_seeds_differ_but_ask_for_the_same_tuples() -> None:
    for workload in workloads.WORKLOADS:
        a, b = workloads.build(workload, 1), workloads.build(workload, 2)
        assert sorted(j.tuples for j in a) == sorted(j.tuples for j in b)
    assert _argvs("pipelines", 1) != _argvs("pipelines", 2)


def test_generated_expressions_have_fixed_size() -> None:
    for seed in range(20):
        src = dslgen.generate(random.Random(seed), 2)
        calls = sum(src.count(f"{op}(") for op in ("min", "max", "mean"))
        leaves = src.count("X") + src.count("proj(")
        assert calls == len(dslgen.OPERATORS)
        assert leaves == len(dslgen.OPERATORS) + 1
        assert "X3" not in src and "proj(3)" not in src


def test_every_format_appears_in_each_reporting_workload() -> None:
    for workload in ("sweep", "pipelines"):
        formats = {job.output for job in workloads.build(workload, 3)}
        assert formats == set(workloads.FORMATS)


def test_product_counterexample_and_gap() -> None:
    check = workloads._product_fails(6, "exact")
    assert check.dev == Fraction(1, 4)  # k=3: (1/2)(1/2)
    assert workloads._product_fails(5, "exact").dev == Fraction(6, 25)
    lam, xs, lhs, rhs = check.cex
    assert lam == (0, Fraction(1, 6)) and xs == (lam, lam)
    assert lhs == (0, Fraction(1, 1296)) and rhs == (0, Fraction(1, 216))


_PRODUCT_JOB = workloads.check_job("product", "P", 2, "exact",
                                   workloads._product_fails(2, "exact"))

_PRODUCT_TEXT = """law:          def1-homogeneity
verdict:      fail
resolution:   m=2 (exact)
evaluations:  216
max deviation: 1/4
counterexample: Lambda=[0/1,1/2] xs=([0/1,1/2],[0/1,1/2])
  F(G(Λ,X1),…) = [0/1,1/16] ≠ [0/1,1/8] = G(Φ(Λ),F(X1,…))
"""


def _with_output(job: workloads.Job, fmt: str) -> workloads.Job:
    return workloads.Job(job.name, job.argv + ("--output", fmt), job.mode,
                         job.tuples, job.expect)


def test_oracle_reads_text_and_csv() -> None:
    text_job = _with_output(_PRODUCT_JOB, "text")
    assert oracle.check(text_job, 1, _PRODUCT_TEXT) == []
    wrong = _PRODUCT_TEXT.replace("[0/1,1/16]", "[0/1,1/32]")
    assert oracle.check(text_job, 1, wrong)
    assert oracle.check(text_job, 0, _PRODUCT_TEXT)
    csv_job = _with_output(_PRODUCT_JOB, "csv")
    assert oracle.check(csv_job, 1, "def1-homogeneity,fail,1/4\n") == []
    assert oracle.check(csv_job, 1, "def1-homogeneity,fail,1/8\n")


def test_oracle_reads_dual_reports() -> None:
    job = workloads._dual("min", 2, 2, ("max",))
    for fmt, text in (("json", '{"equals_registry": ["max"]}'),
                      ("csv", "dual,min,max"),
                      ("text", "dual of min equals max on the m=2 grid")):
        assert oracle.check(_with_output(job, fmt), 0, text) == []
    assert oracle.check(_with_output(job, "text"), 0,
                        "dual of min equals no registry function on the m=2 grid")


def test_refusal_expects_exit_3_and_no_report() -> None:
    job = workloads.refusal_jobs(random.Random(0))[0]
    assert oracle.check(job, 3, "") == []
    assert oracle.check(job, 0, "")

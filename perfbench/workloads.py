"""The benchmark's workloads: seeded job lists with hand-derived answers.

A job is one `ivhom` command line. Its expected answer is derived by hand
from the algebra of the ingredients, never from the program's output:

* `min`, `max` and `mean` are homogeneous for `P` (interval product) and
  `P_NS` (probabilistic sum), so those checks pass with zero deviation.
  In float mode `min`/`max` stay exact (rounding is monotone); `mean` and
  `P_NS` may round, so only a deviation within the default epsilon is
  expected.
* `product` is not `P`-homogeneous: per endpoint the two sides are
  l^2*x*y and l*x*y, so the largest gap is max_k (k/m)(1-k/m) at x=y=1,
  and the first failing tuple in grid order is L=[0,1/m],
  xs=([0,1/m],[0,1/m]) with sides [0,1/m^4] and [0,1/m^3].
* `min` with the `square` isomorphism compares l*min(x) with l^2*min(x):
  the same gap, the same first failing tuple, sides [0,1/m^2] and [0,1/m^3].
* The `neg`-dual of `product` is the probabilistic sum, and its `P_NS`
  law compares 1-(1-l)^2*(1-x)(1-y) with 1-(1-l)(1-x)(1-y): the same gap at
  x=y=0, first failing at L=[0,1/m], xs=([0,0],[0,0]) with sides
  [0,(2m-1)/m^2] and [0,1/m].
* The `neg`-dual of `min` is `max`, of `mean` is `mean`, of `max` is `min`.

The seed permutes the job order, picks each job's `--output` format and
generates the `expr:` functions of `pipelines`; it never changes the grid
resolutions or arities, so every seed asks for the same number of tuples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import dslgen

#: A job still running after this many seconds is stopped and not answered.
JOB_TIME_LIMIT_S = 4.0

#: The CLI's default float-mode tolerance; no job overrides it.
EPS = 1e-9

FORMATS = ("json", "csv", "text")
WORKLOADS = ("sweep", "pipelines", "refusals")


@dataclass(frozen=True)
class Check:
    """Expected outcome of one law inside a report."""

    law: str
    verdict: str
    dev: Fraction = Fraction(0)
    tol: float = 0.0  # allowed |reported max_deviation - dev|
    cex: Optional[tuple] = None  # (lam, xs, lhs, rhs); None = none expected


@dataclass(frozen=True)
class Expect:
    exit: int
    checks: tuple = ()  # (label, Check); label "" for single-check commands
    status: Optional[str] = None  # pipelines only
    matches: Optional[tuple] = None  # dual only


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    mode: str
    #: grid tuples the command asks for: s^(n+1) per homogeneity sweep, s per
    #: idempotency or bijectivity scan, s^n for a dual; computed from (m, n)
    tuples: int
    expect: Expect

    @property
    def refusal(self) -> bool:
        return self.expect.exit == 3

    @property
    def output(self) -> Optional[str]:
        return self.argv[-1] if "--output" in self.argv else None


def grid_size(m: int) -> int:
    return (m + 1) * (m + 2) // 2


def _gap(m: int) -> Fraction:
    return max(Fraction(k, m) * (1 - Fraction(k, m)) for k in range(m + 1))


def _passes(law: str, mode: str, exact_in_float: bool = True) -> Check:
    """A pass with zero deviation; in float mode within EPS unless the float
    computation is exact as well (`exact_in_float`)."""
    return Check(law, "pass", tol=0.0 if exact_in_float else _tol(mode))


def _tol(mode: str) -> float:
    return 0.0 if mode == "exact" else EPS


def _product_fails(m: int, mode: str) -> Check:
    h = Fraction(1, m)
    cex = ((0, h), ((0, h), (0, h)), (0, h**4), (0, h**3))
    return Check("def1-homogeneity", "fail", _gap(m), _tol(mode), cex)


def _square_fails(m: int, mode: str) -> Check:
    h = Fraction(1, m)
    cex = ((0, h), ((0, h), (0, h)), (0, h**2), (0, h**3))
    return Check("def1-homogeneity", "fail", _gap(m), _tol(mode), cex)


def _psum_dual_fails(m: int, mode: str) -> Check:
    h = Fraction(1, m)
    cex = ((0, h), ((0, 0), (0, 0)), (0, Fraction(2 * m - 1, m * m)), (0, h))
    return Check("def1-homogeneity-dual", "fail", _gap(m), _tol(mode), cex)


def _argv(command: str, f: str, m: int, mode: str, *extra: str) -> tuple:
    return (command, "--f", f, *extra, "--resolution", str(m), "--mode", mode)


def check_job(f: str, g: str, m: int, mode: str, expect: Check, *,
              arity: int = 2, phi: str = "identity", workers: int = 1) -> Job:
    s = grid_size(m)
    argv = _argv("check", f, m, mode, "--arity", str(arity), "--g", g,
                 "--phi", phi, "--workers", str(workers))
    name = f"check:{f}/{g}/{phi}:n{arity}:m{m}:{mode}:w{workers}"
    exit_code = 0 if expect.verdict == "pass" else 1
    return Job(name, argv, mode, s ** (arity + 1),
               Expect(exit_code, (("", expect),)))


def sweep_jobs(rng: random.Random) -> list:
    """Registry `check` jobs: nearly all time is the homogeneity sweep."""
    return [
        # paired by worker count, for the --workers 2 speedup
        check_job("min", "P", 6, "exact", _passes("def1-homogeneity", "exact")),
        check_job("min", "P", 6, "exact", _passes("def1-homogeneity", "exact"),
                  workers=2),
        check_job("product", "P", 5, "exact", _product_fails(5, "exact")),
        check_job("mean", "P_NS", 5, "exact",
                  _passes("def1-homogeneity", "exact")),
        check_job("max", "P", 3, "exact", _passes("def1-homogeneity", "exact"),
                  arity=3),
        check_job("min", "P", 8, "float", _passes("def1-homogeneity", "float")),
        check_job("mean", "P_NS", 4, "float",
                  _passes("def1-homogeneity", "float", exact_in_float=False),
                  arity=3),
        check_job("min", "P", 7, "float", _square_fails(7, "float"),
                  phi="square"),
    ]


def _theorem1(f: str, g: str, a: str, m: int, mode: str,
              exact_in_float: bool) -> Job:
    s = grid_size(m)
    checks = (
        ("fixed-point", _passes("fixed-point", mode)),
        ("section-bijective", Check("section-bijective", "pass")),
        ("homogeneity", _passes("def1-homogeneity", mode, exact_in_float)),
        ("idempotency", _passes("idempotency", mode)),
    )
    argv = _argv("theorem1", f, m, mode, "--g", g, "--a", a, "--workers", "1")
    return Job(f"theorem1:{f}/{g}:m{m}:{mode}", argv, mode,
               1 + s + s**3 + s, Expect(0, checks, status="confirmed"))


def _prop2(f: str, m: int, checks: tuple, status: str) -> Job:
    exit_code = 0 if status == "confirmed" else 1
    argv = _argv("prop2", f, m, "exact", "--workers", "1")
    return Job(f"prop2:{f}:m{m}", argv, "exact", 2 * grid_size(m) ** 3,
               Expect(exit_code, checks, status=status))


def _dual(f: str, arity: int, m: int, matches: tuple) -> Job:
    argv = _argv("dual", f, m, "exact", "--arity", str(arity))
    return Job(f"dual:{f}:n{arity}:m{m}", argv, "exact",
               grid_size(m) ** arity, Expect(0, matches=matches))


def expr_jobs(rng: random.Random) -> list:
    """`check` jobs on generated DSL functions, with DSL and registry G."""
    specs = (("P", 5, "exact"), ("expr:psum(L,X1)", 5, "exact"),
             ("expr:mul(L,X1)", 7, "float"))
    jobs = []
    for g, m, mode in specs:
        src = dslgen.generate(rng, 2)
        jobs.append(check_job(f"expr:{src}", g, m, mode,
                              _passes("def1-homogeneity", mode,
                                      exact_in_float=False)))
    return jobs


def pipeline_jobs(rng: random.Random) -> list:
    """Pipelines, duals and DSL functions: the sweep engine behind `neg`
    wrappers and tree-walking closures."""
    jobs = [
        _theorem1("min", "P", "[1,1]", 5, "exact", True),
        _theorem1("mean", "P_NS", "[0,0]", 7, "float", False),
        _prop2("min", 4, (
            ("base-homogeneity", _passes("def1-homogeneity", "exact")),
            ("dual-homogeneity", _passes("def1-homogeneity-dual", "exact")),
        ), "confirmed"),
        _prop2("product", 5, (
            ("base-homogeneity", _product_fails(5, "exact")),
            ("dual-homogeneity", _psum_dual_fails(5, "exact")),
        ), "not-applicable"),
        _dual("min", 2, 12, ("max",)),
        _dual("mean", 2, 12, ("mean",)),
        _dual("max", 3, 4, ("min",)),
        Job("idempotent:mean:n4:m40",
            _argv("idempotent", "mean", 40, "exact", "--arity", "4"),
            "exact", grid_size(40),
            Expect(0, (("", _passes("idempotency", "exact")),))),
    ]
    return jobs + expr_jobs(rng)


def _refusal(name: str, argv: tuple, mode: str, tuples: int) -> Job:
    return Job(name, argv + ("--mode", mode), mode, tuples, Expect(3))


def refusal_jobs(rng: random.Random) -> list:
    """Over-budget requests, which must end in exit 3 without doing the work.

    Two known defects stay in this list so that they show: `theorem1`
    certifies bijectivity in O(s^2) before the homogeneity gate refuses, and
    `dual` ignores `--budget`, so it runs into the job time limit.
    """
    s20, s30, s40 = (grid_size(m) for m in (20, 30, 40))
    return [
        # the budget admits the s-point bijectivity scan, not the sweep
        _refusal("theorem1:min/P:m40:budget1800",
                 ("theorem1", "--f", "min", "--g", "P", "--resolution", "40",
                  "--budget", "1800"), "exact", 1 + s40 + s40**3 + s40),
        _refusal("dual:min:n4:m20:budget10",
                 ("dual", "--f", "min", "--arity", "4", "--resolution", "20",
                  "--budget", "10"), "exact", s20**4),
        _refusal("check:min/P:n3:m30",
                 ("check", "--f", "min", "--arity", "3", "--g", "P",
                  "--resolution", "30"), "float", s30**4),
        _refusal("prop2:min:m40",
                 ("prop2", "--f", "min", "--resolution", "40"), "float",
                 2 * s40**3),
        _refusal("idempotent:min:m200:budget10000",
                 ("idempotent", "--f", "min", "--resolution", "200",
                  "--budget", "10000"), "float", grid_size(200)),
    ]


_BUILDERS = {"sweep": sweep_jobs, "pipelines": pipeline_jobs,
             "refusals": refusal_jobs}


def build(workload: str, seed: int) -> list:
    """The workload's jobs for this seed, in the order they run.

    Each report-printing job gets an `--output` format; a job whose answer
    includes a counterexample gets JSON or text, which carry it.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng)
    with_cex = [i for i, j in enumerate(jobs)
                if any(c.cex for _, c in j.expect.checks)]
    others = [i for i, j in enumerate(jobs)
              if not j.refusal and i not in with_cex]
    formats = {i: rng.choice(("json", "text")) for i in with_cex}
    cycle = [FORMATS[k % len(FORMATS)] for k in range(len(others))]
    rng.shuffle(cycle)
    formats.update(zip(others, cycle))
    for i, fmt in formats.items():
        job = jobs[i]
        jobs[i] = Job(job.name, job.argv + ("--output", fmt), job.mode,
                      job.tuples, job.expect)
    rng.shuffle(jobs)
    return jobs

"""Benchmark of the `ivhom` command line: time-to-verdict on fixed workloads.

    python3 perfbench/run.py --workload {sweep,pipelines,refusals} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the program is imported from `src/`.
The load is a closed loop: one client runs the workload's jobs one after
another, each as a child `python -m ivhom.cli ...` process, and passes over
the job list repeat while another pass, at the mean pass time so far, still
ends within `--seconds`. Every job's exit code
and report are checked against hand-derived answers (`workloads.py`,
`oracle.py`).

`--trace 0` prints the end-to-end metrics. The machine is shared and its
speed drifts, so the fixed script `reference.py` runs before and after
every child, and each child's times are rescaled to the speed at which that
script takes `reference.NOMINAL_S` ("reference seconds"). Each job's time
is then the median over the passes. A job stopped at the time limit keeps
the limit, which is wall-clock time. The context line keeps the raw seconds.

* setup_s: median time of a child that imports `ivhom.cli` and builds its
  parser; a few such children run after every pass;
* wall_s: the time of one pass over the job list, the sum of the jobs'
  median wall times;
* cpu_s: the same sum of the children's user+sys time, from os.wait4;
* tuples_per_s.exact / .float: grid tuples the jobs of that mode ask for,
  from (m, n), divided by those jobs' wall time. A refused job counts the
  tuples it declined, so on `refusals` this is how fast requests are
  disposed of;
* peak_rss_mb: the largest child ru_maxrss, from os.wait4.

`--trace 1` runs one untraced pass, then the same jobs once in-process under
the hooks of `layertrace.py`, and prints the per-layer metrics. A job still
running after `workloads.JOB_TIME_LIMIT_S` is stopped. One that should have
been refused counts in `cli.unrefused_jobs`; any other counts as failed.

The last line of stdout is the result object; the line before it records
the machine (nproc, Python) and every job's time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PER_PASS = 3
SETUP_SNIPPET = "import ivhom.cli as cli; cli.build_parser()"
TRACE_TIMEOUT_S = 150.0


@dataclass
class Outcome:
    exit: int | None  # None: stopped at the time limit
    stdout: str
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    #: seconds of the reference script around the child, for rescaling
    ref: float = reference.NOMINAL_S

    @property
    def scale(self) -> float:
        # the time limit is wall-clock time, whatever the machine's speed
        return 1.0 if self.exit is None else reference.NOMINAL_S / self.ref


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _drain(stream, sink: list) -> None:
    sink.append(stream.read())


def spawn(argv: list, limit: float, stdin: bytes = b"") -> Outcome:
    """Run one child to its end or to `limit` seconds, with its rusage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    out, err = [], []
    readers = [threading.Thread(target=_drain, args=(proc.stdout, out)),
               threading.Thread(target=_drain, args=(proc.stderr, err))]
    for reader in readers:
        reader.start()
    stopped = threading.Event()

    def stop() -> None:
        stopped.set()
        proc.kill()

    timer = threading.Timer(limit, stop)
    timer.start()
    try:
        try:
            proc.stdin.write(stdin)
            proc.stdin.close()
        except BrokenPipeError:  # the child ended without reading its input
            pass
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    timed_out = stopped.is_set() and proc.returncode == -signal.SIGKILL
    return Outcome(None if timed_out else proc.returncode,
                   out[0].decode(), wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024)


def _reference() -> float:
    argv = [sys.executable, str(Path(__file__).with_name("reference.py"))]
    return spawn(argv, workloads.JOB_TIME_LIMIT_S).wall


def run_children(argvs: list) -> list:
    """Run children one by one, with the reference script around each."""
    outcomes, before = [], _reference()
    for argv in argvs:
        outcome = spawn(argv, workloads.JOB_TIME_LIMIT_S)
        after = _reference()
        outcome.ref = (before + after) / 2
        outcomes.append(outcome)
        before = after
    return outcomes


def run_pass(jobs: list) -> list:
    return run_children([[sys.executable, "-m", "ivhom.cli", *job.argv]
                         for job in jobs])


def measure_setup(count: int) -> list:
    """Children that only import `ivhom.cli` and build its parser."""
    outcomes = run_children([[sys.executable, "-c", SETUP_SNIPPET]] * count)
    if any(o.exit != 0 for o in outcomes):
        raise RuntimeError("cannot import ivhom.cli from src/")
    return outcomes


class Tally:
    """Jobs attempted, failed and answered wrongly, over every pass."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.wrong = self.unrefused = 0
        self.errors: list = []

    def add(self, job: workloads.Job, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.exit is None:
            if job.refusal:
                self.unrefused += 1
            else:
                self.failed += 1
                self.errors.append(f"{job.name}: time limit")
            return
        errors = oracle.check(job, outcome.exit, outcome.stdout)
        if errors:
            self.failed += 1
            self.wrong += 1
            self.errors.append(f"{job.name}: {'; '.join(errors)}")


def end_to_end(jobs: list, passes: list, setups: list) -> dict:
    """Metrics from each job's medians over the passes, in reference seconds."""
    runs = list(zip(*passes))  # runs[i]: job i's outcome in every pass
    wall = [statistics.median(o.wall * o.scale for o in r) for r in runs]
    cpu = [statistics.median(o.cpu * o.scale for o in r) for r in runs]
    rss = [statistics.median(o.rss_mb for o in r) for r in runs]

    def tuples_per_s(mode: str) -> float:
        picked = [i for i, job in enumerate(jobs) if job.mode == mode]
        seconds = sum(wall[i] for i in picked)
        return sum(jobs[i].tuples for i in picked) / seconds if seconds else 0.0

    values = {"setup_s": (statistics.median(o.wall * o.scale for o in setups),
                          "s"),
              "wall_s": (sum(wall), "s"),
              "cpu_s": (sum(cpu), "s"),
              "tuples_per_s.exact": (tuples_per_s("exact"), "1/s"),
              "tuples_per_s.float": (tuples_per_s("float"), "1/s"),
              "peak_rss_mb": (max(rss), "MB")}
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _workers2_speedup(jobs: list, outcomes: list) -> float:
    """--workers 1 wall over --workers 2 wall of the paired job; 0 if none."""
    walls = {j.name: o.wall for j, o in zip(jobs, outcomes)}
    pairs = [(walls[name[:-1] + "1"], wall) for name, wall in walls.items()
             if name.endswith(":w2") and name[:-1] + "1" in walls]
    return sum(w1 for w1, _ in pairs) / sum(w2 for _, w2 in pairs) if pairs else 0.0


def per_layer(jobs: list, tally: Tally) -> tuple:
    outcomes = run_pass(jobs)
    for job, outcome in zip(jobs, outcomes):
        tally.add(job, outcome)
    request = json.dumps({"jobs": [job.argv for job in jobs],
                          "limit": workloads.JOB_TIME_LIMIT_S}).encode()
    traced = spawn([sys.executable, str(Path(__file__).with_name("layertrace.py"))],
                   TRACE_TIMEOUT_S, stdin=request)
    if traced.exit != 0:
        raise RuntimeError(f"traced run ended with {traced.exit}")
    result = json.loads(traced.stdout)
    traced_jobs = [Outcome(r["exit"], r["stdout"], r["wall"])
                   for r in result["jobs"]]
    for job, outcome in zip(jobs, traced_jobs):
        tally.add(job, outcome)
    values = dict(result["metrics"])
    values["trace.overhead"] = (sum(o.wall for o in traced_jobs)
                                / sum(o.wall for o in outcomes))
    values["homogeneity.workers2_speedup"] = _workers2_speedup(jobs, outcomes)
    values["homogeneity.time_to_refusal_s"] = sum(
        o.wall for j, o in zip(jobs, traced_jobs) if j.refusal)
    values["cli.unrefused_jobs"] = sum(
        1 for j, o in zip(jobs, outcomes) if j.refusal and o.exit is None)
    with open(ROOT / "BENCHMARK.json") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())}
    context = {"untraced_pass": [o.wall for o in outcomes],
               "traced_pass": [o.wall for o in traced_jobs],
               "absent_hooks": result["absent"]}
    return metrics, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ivhom" / "cli.py").is_file():
        print(f"run.py: no ivhom package under {SRC}", file=sys.stderr)
        return 2

    jobs = workloads.build(args.workload, args.seed)
    tally = Tally()
    context = {"workload": args.workload, "seed": args.seed,
               "nproc": os.cpu_count(), "python": platform.python_version(),
               "jobs": [{"name": j.name, "mode": j.mode, "tuples": j.tuples}
                        for j in jobs]}
    if args.trace:
        metrics, extra = per_layer(jobs, tally)
        context.update(extra)
    else:
        measure_setup(1)  # fills the bytecode cache
        passes, setups, t0 = [], [], time.perf_counter()
        # another pass only if, at the mean pass time so far, it ends in time
        while not passes or ((time.perf_counter() - t0) * (len(passes) + 1)
                             / len(passes) <= args.seconds):
            passes.append(run_pass(jobs))
            setups += measure_setup(SETUP_PER_PASS)
        for outcomes in passes:
            for job, outcome in zip(jobs, outcomes):
                tally.add(job, outcome)
        metrics = end_to_end(jobs, passes, setups)
        context["raw_wall_s"] = [[o.wall for o in outs] for outs in passes]
        context["raw_setup_s"] = [o.wall for o in setups]
        context["reference_s"] = [[o.ref for o in outs] for outs in passes]
    context["unrefused"] = tally.unrefused
    context["errors"] = tally.errors
    for error in tally.errors:
        print(f"run.py: {error}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Traced in-process run of a workload's jobs, hooked from outside `ivhom`.

Started by `run.py` as `python3 perfbench/layertrace.py`; reads
{"jobs": [argv, ...], "limit": seconds} on stdin and writes one
JSON object on stdout: the per-layer metrics, the micro-benchmarks, the
hook points it could not find, and each job's exit code (null when the time
limit stopped it), stdout and wall time.

Nothing inside `src/` is changed. The hooks wrap, at class level, the
construction of an `Interval` and the calls of `IVFunction` (F),
`ScalingFunction` (G) and `OrderIso` (phi), and put a span around the public
module functions of each layer, both in the defining module and wherever
another `ivhom` module imported the name. A hook point that no longer exists
is listed as absent and the metrics that need it are left out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import itertools
import json
import signal
import sys
import time
from collections import defaultdict

import micro

LAYERS = ("interval", "functions", "expr", "homogeneity", "report", "cli")

#: (module, class, method) wrapped to count calls, and the counter's name
COUNTED = (
    ("interval", "Interval", "__post_init__", "intervals"),
    ("functions", "IVFunction", "__call__", "f_calls"),
    ("functions", "ScalingFunction", "__call__", "g_calls"),
    ("functions", "OrderIso", "__call__", "phi_calls"),
)

#: public module functions that get a span
SPANNED = (
    ("interval", "parse_interval"),
    ("functions", "get_function"),
    ("functions", "get_scaling"),
    ("functions", "get_iso"),
    ("functions", "dual_ns"),
    ("functions", "dual_scaling_ns"),
    ("expr", "parse_expr"),
    ("expr", "compile_ivfunction"),
    ("expr", "compile_scaling"),
    ("homogeneity", "make_grid"),
    ("homogeneity", "check_homogeneity"),
    ("homogeneity", "check_idempotency"),
    ("homogeneity", "check_section_bijective"),
    ("homogeneity", "run_theorem1"),
    ("homogeneity", "run_prop2"),
    ("report", "emit_report"),
    ("cli", "main"),
)


class JobTimeLimit(BaseException):
    """Raised by SIGALRM in a job that outlived the time limit."""


class Tracer:
    """Counters and spans, kept in memory until the run ends."""

    def __init__(self) -> None:
        # itertools.count advances in one C call, so worker threads of a
        # sweep cannot lose an increment
        self._counters = {name: itertools.count() for *_, name in COUNTED}
        self._reads = 0
        self.spans: list = []
        self.stack: list = []
        self.absent: list = []
        self.installed: set = set()

    def counts(self) -> dict:
        values = {k: next(c) - self._reads for k, c in self._counters.items()}
        self._reads += 1
        return values

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"ivhom.{layer}")
            except ImportError as exc:
                self.absent.append(f"{layer}: {exc!r}")
        for layer, cls_name, method, counter in COUNTED:
            cls = getattr(modules.get(layer), cls_name, None)
            if cls is None or not hasattr(cls, method):
                self.absent.append(f"{layer}.{cls_name}.{method}")
                continue
            setattr(cls, method, _counting(getattr(cls, method),
                                           self._counters[counter].__next__))
            self.installed.add(counter)
        for layer, fname in SPANNED:
            original = getattr(modules.get(layer), fname, None)
            if original is None:
                self.absent.append(f"{layer}.{fname}")
                continue
            name = f"{layer}.{fname}"
            wrapper = self._spanned(name, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
            self.installed.add(name)

    def _spanned(self, name: str, fn):
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "children_s": 0.0, "error": None,
                    "parent": self.stack[-1] if self.stack else None,
                    **_describe(name, signature, args, kwargs)}
            span["c0"] = self.counts()
            self.stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, str):
                    span["bytes"] = len(result.encode())
                return result
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["s"] = time.perf_counter() - t0
                span["c1"] = self.counts()
                self.stack.pop()
                if span["parent"] is not None:
                    span["parent"]["children_s"] += span["s"]
                self.spans.append(span)

        return wrapper


def _counting(method, hit):
    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        hit()
        return method(*args, **kwargs)

    return wrapper


def _describe(name: str, signature, args, kwargs) -> dict:
    """Span fields read from the call's arguments."""
    if signature is None:
        return {}
    try:
        bound = signature.bind(*args, **kwargs).arguments
    except TypeError:
        return {}
    if name == "homogeneity.check_homogeneity":
        grid, f = bound.get("grid"), bound.get("f")
        try:
            # tuples from (m, n): s grid points to the power n+1
            return {"tuples": len(grid) ** (f.arity + 1),
                    "mode": grid.mode.kind}
        except (AttributeError, TypeError):
            return {}
    if name == "report.emit_report":
        return {"fmt": bound.get("fmt")}
    return {}


def run_jobs(tracer: Tracer, argvs: list, limit: float) -> list:
    cli = sys.modules["ivhom.cli"]
    armed = [False]

    def on_alarm(signum, frame):
        if armed[0]:
            raise JobTimeLimit()

    signal.signal(signal.SIGALRM, on_alarm)
    records = []
    for argv in argvs:
        tracer.stack = []
        out, err = io.StringIO(), io.StringIO()
        c0 = tracer.counts()
        code = None  # stays None if the time limit stops the job
        t0 = time.perf_counter()
        armed[0] = True
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except JobTimeLimit:
            pass
        finally:
            armed[0] = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
        c1 = tracer.counts()
        records.append({"exit": code, "stdout": out.getvalue(), "wall": wall,
                        "counts": {k: c1[k] - c0[k] for k in c0}})
    return records


def _delta(span: dict, counter: str) -> int:
    return span["c1"][counter] - span["c0"][counter]


def layer_metrics(tracer: Tracer, records: list) -> dict:
    spans = defaultdict(list)
    for span in tracer.spans:
        spans[span["name"]].append(span)
    have = tracer.installed
    metrics = {}

    for key, name in (
        ("homogeneity.make_grid_s", "homogeneity.make_grid"),
        ("homogeneity.check_homogeneity_s", "homogeneity.check_homogeneity"),
        ("homogeneity.section_bijective_s", "homogeneity.check_section_bijective"),
        ("homogeneity.idempotency_s", "homogeneity.check_idempotency"),
        ("homogeneity.pipeline_s.theorem1", "homogeneity.run_theorem1"),
        ("homogeneity.pipeline_s.prop2", "homogeneity.run_prop2"),
        ("expr.parse_s", "expr.parse_expr"),
    ):
        if name in have:
            metrics[key] = sum(s["s"] for s in spans[name])

    sweeps = [s for s in spans["homogeneity.check_homogeneity"]
              if s["error"] is None and "tuples" in s]
    if "homogeneity.check_homogeneity" in have:
        for mode in ("exact", "float"):
            done = [s for s in sweeps if s["mode"] == mode]
            seconds = sum(s["s"] for s in done)
            metrics[f"homogeneity.sweep_tuples_per_s.{mode}"] = (
                sum(s["tuples"] for s in done) / seconds if seconds else 0.0)
        tuples = sum(s["tuples"] for s in sweeps)
        for key, counter in (("interval.constructed_per_tuple", "intervals"),
                             ("functions.f_calls_per_tuple", "f_calls"),
                             ("functions.g_calls_per_tuple", "g_calls"),
                             ("functions.phi_calls_per_tuple", "phi_calls")):
            if counter in have:
                metrics[key] = (sum(_delta(s, counter) for s in sweeps) / tuples
                                if tuples else 0.0)

    if "report.emit_report" in have:
        reports = spans["report.emit_report"]
        for fmt in ("json", "csv", "text"):
            metrics[f"report.emit_s.{fmt}"] = sum(
                s["s"] for s in reports if s.get("fmt") == fmt)
        metrics["report.bytes"] = sum(s.get("bytes", 0) for s in reports)

    if "cli.main" in have:
        metrics["cli.self_s"] = sum(s["s"] - s["children_s"]
                                    for s in spans["cli.main"])

    refused = [r for r in records if r["exit"] == 3]
    for counter in ("f_calls", "g_calls", "intervals"):
        if counter in have:
            metrics[f"homogeneity.work_before_refusal.{counter}"] = sum(
                r["counts"][counter] for r in refused)
    return metrics


def main() -> int:
    request = json.load(sys.stdin)
    micro_metrics, micro_absent = micro.run()
    importlib.import_module("ivhom.cli")
    tracer = Tracer()
    tracer.install()
    records = run_jobs(tracer, request["jobs"], request["limit"])
    metrics = layer_metrics(tracer, records)
    metrics.update(micro_metrics)
    json.dump({"metrics": metrics, "absent": tracer.absent + micro_absent,
               "jobs": [{k: r[k] for k in ("exit", "stdout", "wall")}
                        for r in records]},
              sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

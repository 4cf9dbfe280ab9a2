"""One workload run in a fresh interpreter; started by run.py.

With --setup-only it imports semisic, builds the workload's inputs and
prints the CLOCK_MONOTONIC time it was ready, which run.py turns into one
set-up sample. Otherwise it runs the workload, checks every output outside
the timed region, and prints its measurements as one JSON line.

A workload module gives two lists of ops built from the seed:

* make_long(ctx): long calls (whole searches, large region scans), run once
  each before the timing starts. They are checked and traced like the rest,
  and they set the peak memory, but their times are only printed;
* make_ops(ctx): short calls of at most about 65 ms, run in passes over the
  list until the time is up. Each op's time is the fastest of its runs.

The fastest run is what the steady part of the program costs: on a shared
host, neighbours slow every call by 0 to 60 % for seconds at a time, and
only calls this short reliably meet a quiet moment within a run.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time

_t0 = time.perf_counter()
import semisic  # noqa: E402  (the import is timed)
import semisic.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402

import wl_pipeline  # noqa: E402
import wl_region  # noqa: E402
import wl_search  # noqa: E402
from common import Context, Fail, Mismatch, Tally, digest  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = {"search": wl_search, "region": wl_region, "pipeline": wl_pipeline}
LISTED = 10  # failures and known-failure cases printed by name
MIN_PASSES = 3
TAIL_OPS = 100  # timed ops needed for op_p90_ms to have ten beyond it
TRACE_PASSES = 10  # passes over the timed ops in a traced run


class Runner:
    """Runs ops, times them, and sorts each check verdict into pass, fail or
    known defect. The first output of an op is checked; a later output with
    the same digest gets the same verdict, and one that differs fails."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.tally = Tally()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.work = 0
        self.busy = 0.0
        self._first: dict[int, tuple] = {}

    def once(self, op, traced: bool = False) -> float:
        """Run op once, judge its output and return its time in seconds."""
        if self.tracer:
            self.tracer.op_id = self.attempted
            self.tracer.enabled = traced
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # the check decides whether this was expected
            out = exc
        elapsed = time.perf_counter() - start
        if self.tracer:
            self.tracer.enabled = False
        self.busy += elapsed
        self.attempted += 1
        self.work += op.work
        try:
            key = (op.digest or digest)(out)
        except Exception as exc:  # output too broken to fingerprint
            key = ("digest raised", repr(exc))
        first = self._first.get(id(op))
        if first is None:
            try:
                verdict = op.check(out, self.tally)
            except Exception as exc:  # output too broken for the check to read
                verdict = Fail(f"check raised {exc!r}")
            self._first[id(op)] = (key, verdict)
            self._note(op, verdict)
        elif key != first[0]:
            verdict = Fail("output differs from the op's first run on the same inputs")
        else:
            verdict = first[1]
        if self._is_failure(op, verdict):
            self.failed += 1
            if len(self.failures) < LISTED:
                self.failures.append(f"{op.label}: {verdict}")
        return elapsed

    @staticmethod
    def _is_failure(op, verdict) -> bool:
        return verdict is not None and not (isinstance(verdict, Mismatch) and op.noise > 0.0)

    def _note(self, op, verdict) -> None:
        """Count a distinct op's first verdict into the noisy-input tally."""
        if op.noise > 0.0:
            self.tally["noisy.ops"] += 1
            if isinstance(verdict, Mismatch):
                self.tally["noisy.mismatch"] += 1
                self.tally.cases.append(f"{op.label}: {verdict}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure(wl, ctx: Context, seconds: float) -> dict:
    runner = Runner(None)
    long_ops = wl.make_long(ctx)
    long_s = sum(runner.once(op) for op in long_ops)
    ops = wl.make_ops(ctx)
    fastest = [math.inf] * len(ops)
    passes = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            fastest[i] = min(fastest[i], runner.once(op))
        passes += 1
    metrics = {
        "work_per_s": sum(op.work for op in ops) / sum(fastest),
        "op_p50_ms": 1e3 * statistics.median(fastest),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if len(ops) >= TAIL_OPS:
        metrics["op_p90_ms"] = 1e3 * statistics.quantiles(fastest, n=10, method="inclusive")[8]
    return _result(runner, passes, len(ops), len(long_ops), long_s, metrics)


def trace(wl, ctx: Context, spans_path: str, header: dict) -> dict:
    tracer = Tracer()
    tracer.install()
    runner = Runner(tracer)
    long_ops = wl.make_long(ctx)
    ops = wl.make_ops(ctx)
    passes = 1 if ctx.reduced else TRACE_PASSES
    plain = traced = long_s = 0.0
    traced_ops = 0
    for i, op in enumerate(long_ops + ops * passes):
        # each op runs once plain and once traced, alternating which goes
        # first, so warm-up and drift do not favour either pass
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            busy = runner.once(op, traced=with_trace)
            if with_trace:
                traced += busy
                traced_ops += 1
            else:
                plain += busy
                if i < len(long_ops):
                    long_s += busy
    tracer.write(spans_path, dict(header, numpy=np.__version__))

    metrics = {}
    self_total = 0.0
    for name, row in tracer.summary().items():
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.s"] = row["s"]
        metrics[f"{name}.self_s"] = row["self_s"]
        self_total += row["self_s"]
    iterations = tracer.counters["search.iterations"]
    metrics.update({
        "search.iterations": iterations,
        "search.ms_per_iteration": _ratio(1e3 * metrics["search.run_search.self_s"], iterations),
        "model.verify.calls_per_op": _ratio(metrics["model.verify.calls"], traced_ops),
        "dual.region_grid.points": tracer.counters["dual.region_grid.points"],
        "dual.write_region_csv.bytes": tracer.counters["dual.write_region_csv.bytes"],
        "bloch.probs_to_bloch.rejected": tracer.counters["bloch.probs_to_bloch.rejected"],
        "trace.overhead_frac": traced / plain - 1.0,
        "trace.coverage_frac": self_total / traced,
    })
    return _result(runner, passes, len(ops), len(long_ops), long_s, metrics)


def _result(runner: Runner, passes: int, ops: int, long_ops: int, long_s: float,
            metrics: dict) -> dict:
    tally = runner.tally
    metrics.update({
        "fail_frac": runner.failed / runner.attempted,
        "search.default_tol_solved_frac": _ratio(tally["search.default_tol_solved"],
                                                 tally["search.solvable"]),
        "oracle.noisy_mismatch_frac": _ratio(tally["noisy.mismatch"], tally["noisy.ops"]),
    })
    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "passes": passes,
        "ops": ops,
        "long_ops": long_ops,
        "long_s": long_s,
        "work": runner.work,
        "busy_s": runner.busy,
        "failures": runner.failures,
        "known_failures": len(tally.cases),
        "known_failure_cases": tally.cases[:LISTED],
        "metrics": metrics,
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="trace output path (with --trace 1)")
    parser.add_argument("--header", default="{}", help="JSON record heading the trace file")
    parser.add_argument("--reduced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    ctx = Context(seed=args.seed, workdir=args.workdir, reduced=args.reduced)
    if args.setup_only:
        wl.make_long(ctx)
        wl.make_ops(ctx)
        print(json.dumps({"ready": time.monotonic(), "import_s": IMPORT_S}))
        return 0
    if args.trace:
        result = trace(wl, ctx, args.spans, json.loads(args.header))
    else:
        result = measure(wl, ctx, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around calls into semisic's public functions, recorded from outside.

Tracer.install() replaces each target function at every semisic module
attribute bound to it, so calls between modules (cli -> documents, dual ->
model, search -> model) are caught as well as the benchmark's own. A span is
(id, name, start, end, parent id, op id); spans stay in memory until
write() at the end of the run. While the tracer is disabled a wrapper only
forwards the call.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# Public functions whose spans give the per-layer metrics, as module.function.
TARGETS = (
    "cli.main",
    "documents.load_povm",
    "documents.save_povm",
    "documents.save_dual_frame",
    "model.verify",
    "qubit.family_point",
    "qubit.construct",
    "qubit.canonicalize",
    "dual.dual_basis",
    "dual.region_grid",
    "dual.write_region_csv",
    "dual.probabilities",
    "dual.reconstruct",
    "bloch.bloch_to_probs",
    "bloch.probs_to_bloch",
    "search.run_search",
    "search.gradient_check",
)


def _iterations(args, result, exc):
    return 0 if exc else sum(result.iterations_per_restart)


def _points(args, result, exc):
    return 0 if exc else len(result)


def _rejected(args, result, exc):
    return int(exc is not None)


# name -> (counter, measure(args, result, exc)) for counts taken at the call
COUNTERS = {
    "search.run_search": ("search.iterations", _iterations),
    "dual.region_grid": ("dual.region_grid.points", _points),
    "bloch.probs_to_bloch": ("bloch.probs_to_bloch.rejected", _rejected),
}


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric the traced run reports."""
    units = {}
    for target in TARGETS:
        units.update({f"{target}.calls": "count", f"{target}.s": "s", f"{target}.self_s": "s"})
    units.update({
        "search.iterations": "count",
        "search.ms_per_iteration": "ms",
        "model.verify.calls_per_op": "calls/op",
        "dual.region_grid.points": "count",
        "dual.write_region_csv.bytes": "bytes",
        "bloch.probs_to_bloch.rejected": "count",
        "import.semisic_s": "s",
        "trace.overhead_frac": "frac",
        "trace.coverage_frac": "frac",
        "fail_frac": "frac",
        "search.default_tol_solved_frac": "frac",
        "oracle.noisy_mismatch_frac": "frac",
    })
    return units


def rebind(original, replacement) -> None:
    """Point every semisic module attribute bound to original at replacement."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "semisic" or name.startswith("semisic.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _output_size(target) -> int:
    if isinstance(target, (str, os.PathLike)):
        return os.path.getsize(target)
    return target.tell()


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.op_id = -1
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    def install(self) -> None:
        for target in TARGETS:
            module_name, fn_name = target.split(".")
            original = getattr(sys.modules["semisic." + module_name], fn_name)
            rebind(original, self._wrap(target, original))

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sized = name == "dual.write_region_csv"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(span_id)
            before = args[1].tell() if sized and hasattr(args[1], "tell") else 0
            result, exc = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = [span_id, name, start - self._origin,
                                       end - self._origin, parent, self.op_id]
                if counter:
                    self.counters[counter[0]] += counter[1](args, result, exc)
                if sized and exc is None:
                    self.counters["dual.write_region_csv.bytes"] += _output_size(args[1]) - before

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per target name."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {t: {"calls": 0, "s": 0.0, "self_s": 0.0} for t in TARGETS}
        for span_id, name, start, end, _, _ in self.spans:
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[span_id]
        return out

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

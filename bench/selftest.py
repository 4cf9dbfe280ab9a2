"""Reduced-size self-test of the benchmark.

    python3 bench/selftest.py

Checks that every workload, run through run.py with tiny inputs, prints
exactly the metrics BENCHMARK.json names, with their units, for --trace 0
and --trace 1; that a corrupted program output is counted as failed; and
that run.py refuses to run without the semisic sources. Takes about a
minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.01", "--trace", str(trace), "--reduced"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_emitted(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: clean run not correct: {proc.stdout[-1500:]}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[n for n in want if got.get(n, want[n]) != want[n]]}")
            for name, m in result["metrics"].items():
                value = m["value"]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    problems.append(f"{where}: {name} is not a number: {value!r}")
                elif section == "end_to_end" and not value > 0:
                    problems.append(f"{where}: end-to-end metric {name} = {value!r}")
    return problems


def check_corruption() -> list[str]:
    """Corrupt one output per workload in-process; each must count as failed."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import semisic
    import worker
    from common import Context
    from tracing import rebind

    def drop_last_row(write):
        return lambda samples, path: write(samples[:-1], path)

    def skew(reconstruct):
        return lambda p, frame: reconstruct(p, frame) + 1e-6

    def bad_gradient(run_search):
        return lambda config: dataclasses.replace(run_search(config), gradient_check=1.0)

    cases = (("region", semisic.dual.write_region_csv, drop_last_row),
             ("pipeline", semisic.dual.reconstruct, skew),
             ("search", semisic.search.run_search, bad_gradient))
    problems = []
    for workload, original, corrupt in cases:
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=OUT_DIR)
        replacement = corrupt(original)
        rebind(original, replacement)
        try:
            ctx = Context(seed=7, workdir=workdir, reduced=True)
            result = worker.measure(worker.WORKLOADS[workload], ctx, seconds=0.0)
        finally:
            rebind(replacement, original)
            shutil.rmtree(workdir, ignore_errors=True)
        if result["failed"] < 1:
            problems.append(f"{workload}: corrupted {original.__name__} was not counted as failed")
    return problems


def check_refuses_without_sources(spec: dict) -> list[str]:
    """run.py must exit nonzero, printing no result, beside only its own files."""
    bare = tempfile.mkdtemp(prefix="bare-", dir=OUT_DIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("search", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"run.py without sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = check_emitted(spec) + check_corruption() + check_refuses_without_sources(spec)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

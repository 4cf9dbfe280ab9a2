"""Benchmark for semisic: one workload, seeded, printed as JSON.

    python3 bench/run.py --workload {search,region,pipeline} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from src/. Set-up
is measured in several fresh interpreters (import semisic plus building the
inputs) and reported as their median, setup_s. The workload then runs in one
more fresh interpreter: its long calls once, then passes over its short
timed calls. With --trace 0 the passes go on for about S seconds, each
call's time is the fastest of its runs, and the last line carries the
end-to-end metrics; with --trace 1 every call runs twice, without and with
spans around semisic's public functions, and the last line carries the
per-layer metrics. Spans go to .bench_out/. See bench/README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import per_layer_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("search", "region", "pipeline")
SETUP_RUNS = 9
DEADLINE_S = 170.0
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def git_commit() -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list[str], env: dict, deadline: float) -> str:
    """Run one worker to completion and return its last stdout line."""
    proc = subprocess.run([sys.executable, WORKER, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(common: list[str], env: dict, deadline: float, runs: int):
    """Median seconds from spawning a fresh interpreter until its inputs are
    built, and median import time, over several interpreters."""
    totals, imports = [], []
    for _ in range(runs):
        workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR)
        try:
            start = time.monotonic()
            ready = json.loads(run_child([*common, "--workdir", workdir, "--setup-only"],
                                         env, deadline))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        totals.append(ready["ready"] - start)
        imports.append(ready["import_s"])
    return statistics.median(totals), statistics.median(imports)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="tiny inputs and one short round, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "semisic", "__init__.py")):
        print("error: src/semisic not found; run from a semisic checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    env = child_env()
    record = environment(args)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)] + (["--reduced"] if args.reduced else [])

    setup_s, import_s = measure_setup(common, env, deadline, 2 if args.reduced else SETUP_RUNS)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    spans = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    try:
        result = json.loads(run_child(
            [*common, "--trace", str(args.trace), "--workdir", workdir, "--spans", spans,
             "--header", json.dumps(record)], env, deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["numpy"] = result["numpy"]

    if args.trace:
        raw = dict(result["metrics"], **{"import.semisic_s": import_s})
        units = per_layer_units()
    else:
        raw = dict(result["metrics"], setup_s=setup_s)
        units = END_TO_END
    metrics = {name: {"value": raw[name], "unit": unit} for name, unit in units.items()}

    print("env " + json.dumps(record))
    print(f"{args.workload}: {result['long_ops']} long ops in {result['long_s']:.3f} s, "
          f"{result['ops']} timed ops x {result['passes']} passes, {result['attempted']} runs, "
          f"{result['busy_s']:.3f} s in the program; "
          + (f"op_p90_ms {raw['op_p90_ms']:.4g} over {result['ops']} ops, "
             if "op_p90_ms" in raw else "") +
          f"fail_frac {raw['fail_frac']:.4g}, "
          f"search.default_tol_solved_frac {raw['search.default_tol_solved_frac']:.4g}, "
          f"oracle.noisy_mismatch_frac {raw['oracle.noisy_mismatch_frac']:.4g}")
    for line in result["failures"]:
        print("FAILED " + line)
    if result["known_failures"]:
        print(f"known failures (see bench/README.md): {result['known_failures']}, first "
              f"{len(result['known_failure_cases'])}:")
        for line in result["known_failure_cases"]:
            print("  KNOWN " + line)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

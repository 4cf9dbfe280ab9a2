"""Shared pieces of the workloads: the operation record and its verdicts."""

from __future__ import annotations

import hashlib
import pickle
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


class Fail(str):
    """Check verdict: the program's output is wrong."""


class Mismatch(str):
    """Check verdict: the output differs from the noiseless oracle in a
    semantic way (a rejection, a wrong classification or trace split).

    On an input without added noise this is a failure. On an input with
    noise below tol_cond/10 it is the verify noise-sensitivity defect, which
    the benchmark counts and names separately (see README.md)."""


class Tally(Counter):
    """Counts a workload's checks keep beside pass/fail, plus named cases of
    known failures."""

    def __init__(self) -> None:
        super().__init__()
        self.cases: list[str] = []


@dataclass
class Op:
    """One timed call into the program plus the untimed check of its output.

    run() is timed; its return value, or the exception it raised, goes to
    check(out, tally), which returns None when the output is right. An op is
    run many times with the same inputs: the first output is checked, and
    every later one must have the same digest(out). work is the number of
    work units the op counts for in work_per_s.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Tally], Fail | Mismatch | None]
    work: int = 1
    noise: float = 0.0
    digest: Callable[[Any], Any] | None = None


def digest(out: Any) -> Any:
    """Fingerprint of an op's output, equal for equal outputs."""
    if isinstance(out, BaseException):
        return ("raised", type(out).__name__, str(out))
    try:
        return hashlib.sha1(pickle.dumps(out)).hexdigest()
    except Exception:  # an output pickle cannot take
        return repr(out)


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha1(handle.read()).hexdigest()


@dataclass
class Context:
    """Per-run state shared by the rounds of one workload."""

    seed: int
    workdir: str
    reduced: bool
    state: dict = field(default_factory=dict)


def rng_for(ctx: Context, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=ctx.seed, spawn_key=key))


def child_seed(ctx: Context, *key: int) -> int:
    return int(rng_for(ctx, *key).integers(0, 2**63))


def close(a, b, tol: float) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol)

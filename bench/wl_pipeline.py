"""pipeline workload: a seeded stream of small operations.

Each op takes 0.2-6 ms, so argument parsing, document I/O, verify and the
Bloch maps dominate, not the numerics. A round takes four qubit members (one
of them the SIC, b = 1/12) and the d = 3 Hesse SIC through two paths:

* the CLI, in-process through semisic.cli.main with captured output:
  construct, verify --json, dual, bloch in both directions (including
  out-of-ball and inconsistent inputs that must be rejected), one small
  region scan and one spectrum table; later calls read files earlier ones
  wrote;
* the library, on the member rotated by a random unitary, permuted and given
  Hermitian noise up to tol_cond/10: save_povm, then CLI verify and dual on
  that file, verify, dual_basis with probabilities -> reconstruct, and
  canonicalize.

The timed ops are three such rounds, replayed in order on every pass, and
there are no long ops. Every output is compared with the noiseless
closed-form oracle. Work units are operations.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import semisic

from common import Context, Fail, Mismatch, Op, close, rng_for
from oracle import (
    B_SIC,
    affine_null_vector,
    bloch_state,
    born,
    disguise,
    expected_label,
    hesse_sic,
    qubit_member,
    random_state,
    simplex_points,
    spectrum_rows,
    strict_b,
)

NOISE = (0.0, 1e-14, 1e-13, 1e-12, 1e-11)
QUBITS = 4
# one small scan per round, at a fixed size so that the slowest ops of a
# round cost the same from seed to seed
REGION_RESOLUTION = 12
NUMERIC_GATE = 1e-8

ROUNDS = 3


def cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = semisic.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split()])


def _read_elements(path: str) -> np.ndarray:
    with open(path) as handle:
        doc = json.load(handle)
    return np.array([[[complex(*z) for z in row] for row in e] for e in doc["elements"]])


def _duality_dev(elements: np.ndarray, duals: np.ndarray) -> float:
    products = np.einsum("xij,yji->xy", elements, duals)
    return float(np.max(np.abs(products - np.eye(len(elements)))))


def _exit(want: int):
    def check(res, tally) -> Fail | None:
        if isinstance(res, BaseException):
            return Fail(f"raised {res!r}")
        if res[0] != want:
            return Fail(f"exit {res[0]}, expected {want}: {res[2].strip()}")
        return None
    return check


def _cli_status(res, noise: float) -> Fail | Mismatch | None:
    """Verdict on a CLI call that should succeed; a refusal is a Mismatch."""
    if isinstance(res, BaseException):
        return Fail(f"raised {res!r}")
    if res[0] != 0:
        return Mismatch(f"exit {res[0]} at noise {noise:g}: {res[2].strip()}")
    return None


def _semantic(res, what: str, noise: float) -> Fail | Mismatch:
    if isinstance(res, ValueError):
        return Mismatch(f"{what} at noise {noise:g} raised {type(res).__name__}: {res}")
    return Fail(f"{what} raised {res!r}")


# --- the clean CLI path on a canonical member --------------------------------

def _clean_ops(ctx: Context, rng, slot: str, b: float) -> list[Op]:
    elements = qubit_member(b)
    label, k = expected_label(2, b)
    member = os.path.join(ctx.workdir, f"member-{slot}.json")
    frame = os.path.join(ctx.workdir, f"frame-{slot}.json")
    b_text = "1/12" if b == B_SIC else repr(b)

    def check_construct(res, tally):
        bad = _exit(0)(res, tally)
        if bad:
            return bad
        with open(member) as handle:
            doc = json.load(handle)
        if doc.get("k") != k or not close(doc.get("b"), b, 1e-15):
            return Fail(f"construct wrote k={doc.get('k')}, b={doc.get('b')}")
        if not close(_read_elements(member), elements, 1e-12):
            return Fail("construct does not match the closed-form member")
        return None

    def check_verify(res, tally):
        bad = _exit(0)(res, tally)
        if bad:
            return bad
        report = json.loads(res[1])
        if (report["classification"], report["k"]) != (label, k):
            return Fail(f"verify said {report['classification']} k={report['k']}")
        return None

    def check_dual(res, tally):
        bad = _exit(0)(res, tally)
        if bad:
            return bad
        dev = _duality_dev(elements, _read_elements(frame))
        return Fail(f"dual frame duality deviation {dev:.3e}") if dev > NUMERIC_GATE else None

    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    r_in = direction * 0.95 * rng.random()
    r_out = direction * (1.05 + 0.45 * rng.random())
    q_in = born(elements, bloch_state(r_in))
    q_out = born(elements, bloch_state(r_out))
    q_bad = q_in + 1e-2 * affine_null_vector(b)

    def check_probs(res, tally):
        bad = _exit(0)(res, tally)
        if bad:
            return bad
        return None if close(_floats(res[1]), q_in, 1e-10) else Fail(f"to-probs gave {res[1]!r}")

    def check_bloch(res, tally):
        bad = _exit(0)(res, tally)
        if bad:
            return bad
        return None if close(_floats(res[1]), r_in, 1e-8) else Fail(f"to-bloch gave {res[1]!r}")

    def bloch(flag, values):
        # fixed-point, because argparse takes "-1e-05" for an option (see README.md)
        return ["bloch", "--b", b_text, flag, *["%.17f" % v for v in values]]

    return [
        Op("cli construct", lambda: cli(["construct", "--b", b_text, "--out", member]),
           check_construct),
        Op("cli verify", lambda: cli(["verify", "--in", member, "--json"]), check_verify),
        Op("cli dual", lambda: cli(["dual", "--in", member, "--out", frame]), check_dual),
        Op("cli bloch --to-probs", lambda: cli(bloch("--to-probs", r_in)), check_probs),
        Op("cli bloch --to-bloch", lambda: cli(bloch("--to-bloch", q_in)), check_bloch),
        Op("cli bloch --to-probs outside", lambda: cli(bloch("--to-probs", r_out)), _exit(2)),
        Op("cli bloch --to-bloch outside", lambda: cli(bloch("--to-bloch", q_out)), _exit(1)),
        Op("cli bloch --to-bloch inconsistent", lambda: cli(bloch("--to-bloch", q_bad)),
           _exit(1)),
    ]


def _region_op(ctx: Context, slot: str, resolution: int) -> Op:
    member = os.path.join(ctx.workdir, f"member-{slot}.json")
    out = os.path.join(ctx.workdir, "region.csv")

    def check(res, tally):
        try:
            bad = _exit(0)(res, tally)
            if bad:
                return bad
            with open(out) as handle:
                lines = handle.read().splitlines()
            if lines[0] != "p1,p2,p3,f,feasible":
                return Fail(f"region header {lines[0]!r}")
            if len(lines) - 1 != simplex_points(resolution):
                return Fail(f"region wrote {len(lines) - 1} rows at N={resolution}")
            return None
        finally:
            if os.path.exists(out):
                os.remove(out)

    return Op("cli region", lambda: cli(["region", "--in", member, "--resolution",
                                         str(resolution), "--out", out]), check)


def _spectrum_op(d: int) -> Op:
    def check(res, tally):
        bad = _exit(0)(res, tally)
        if bad:
            return bad
        rows = [line.split()[:4] for line in res[1].splitlines()[1:]]
        want = [[str(v) for v in row] for row in spectrum_rows(d)]
        return None if rows == want else Fail(f"spectrum --d {d} table differs")
    return Op("cli spectrum", lambda: cli(["spectrum", "--d", str(d)]), check)


# --- the library path on a disguised, noisy member ---------------------------

def _noisy_ops(ctx: Context, rng, slot: str, clean: np.ndarray, b: float | None,
               noise: float) -> list[Op]:
    d = clean.shape[1]
    elements = disguise(rng, clean, noise)
    label, k = expected_label(d, b)
    path = os.path.join(ctx.workdir, f"noisy-{slot}.json")
    frame_path = os.path.join(ctx.workdir, f"nframe-{slot}.json")
    rho = random_state(rng, d)
    tol = NUMERIC_GATE + 1e3 * noise

    def povm():
        return semisic.Povm(dim=d, elements=elements)

    def save():
        semisic.save_povm(path, povm())

    def check_save(res, tally):
        if isinstance(res, BaseException):
            return Fail(f"save_povm raised {res!r}")
        return None if close(_read_elements(path), elements, 1e-15) else Fail("saved POVM differs")

    def check_cli_verify(res, tally):
        bad = _cli_status(res, noise)
        if bad:
            return bad
        report = json.loads(res[1])
        got = (report["classification"], report["k"])
        return None if got == (label, k) else Mismatch(f"cli verify at noise {noise:g}: {got}")

    def check_cli_dual(res, tally):
        bad = _cli_status(res, noise)
        if bad:
            return bad
        dev = _duality_dev(elements, _read_elements(frame_path))
        return Fail(f"cli dual duality deviation {dev:.3e}") if dev > tol else None

    def check_verify(report, tally):
        if isinstance(report, BaseException):
            return _semantic(report, "verify", noise)
        got = (report.classification, report.k)
        return None if got == (label, k) else Mismatch(
            f"verify at noise {noise:g}: {got}, violation {report.max_violation:.2e}")

    def dual_roundtrip():
        p = povm()
        report = semisic.verify(p)
        params = semisic.SemiSicParams.from_b(d, report.fitted_b, report.k)
        frame = semisic.dual_basis(p, params)
        return frame, semisic.reconstruct(semisic.probabilities(rho, p), frame)

    def check_roundtrip(res, tally):
        if isinstance(res, BaseException):
            return _semantic(res, "dual_basis", noise)
        frame, rho2 = res
        dev = _duality_dev(elements, frame.duals)
        if dev > tol:
            return Fail(f"dual_basis duality deviation {dev:.3e}")
        return None if close(rho2, rho, tol) else Fail("reconstruct(probabilities(rho)) != rho")

    def check_canonical(res, tally):
        if isinstance(res, BaseException):
            return _semantic(res, "canonicalize", noise)
        u, canonical, b_fit = res
        if abs(b_fit - b) > tol:
            return Fail(f"canonicalize fitted b = {b_fit!r}, expected {b!r}")
        if not close(canonical.elements, clean, tol):
            return Fail("canonical form differs from the closed-form member")
        back = np.einsum("ij,xjk,lk->xil", u, canonical.elements, u.conj())
        dist = np.max(np.abs(back[:, None] - elements[None]), axis=(2, 3))
        if not np.all(np.min(dist, axis=1) <= tol):
            return Fail("u does not map the canonical form back onto the input")
        return None

    ops = [
        Op("save_povm", save, check_save, noise=noise),
        Op("cli verify noisy", lambda: cli(["verify", "--in", path, "--json"]),
           check_cli_verify, noise=noise),
        Op("cli dual noisy", lambda: cli(["dual", "--in", path, "--out", frame_path]),
           check_cli_dual, noise=noise),
        Op("verify", lambda: semisic.verify(povm()), check_verify, noise=noise),
        Op("dual_basis + reconstruct", dual_roundtrip, check_roundtrip, noise=noise),
    ]
    if d == 2:
        ops.append(Op("canonicalize", lambda: semisic.canonicalize(povm()), check_canonical,
                      noise=noise))
    return ops


def _round(ctx: Context, r: int) -> list[Op]:
    rng = rng_for(ctx, r)
    sic_slot = int(rng.integers(QUBITS))
    region_slot = int(rng.integers(QUBITS))
    ops = []
    for slot in range(QUBITS):
        name = f"{r}-{slot}"
        b = B_SIC if slot == sic_slot else strict_b(rng)
        ops += _clean_ops(ctx, rng, name, b)
        if slot == region_slot:
            ops.append(_region_op(ctx, name, REGION_RESOLUTION))
        ops += _noisy_ops(ctx, rng, name, qubit_member(b), b, float(rng.choice(NOISE)))
    ops += _noisy_ops(ctx, rng, f"{r}-hesse", hesse_sic(), None, float(rng.choice(NOISE)))
    ops.append(_spectrum_op(int(rng.integers(3, 7))))
    return ops


def make_long(ctx: Context) -> list[Op]:
    return []


def make_ops(ctx: Context) -> list[Op]:
    return [op for r in range(1 if ctx.reduced else ROUNDS) for op in _round(ctx, r)]

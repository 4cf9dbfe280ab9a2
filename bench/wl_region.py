"""region workload: feasibility-region scans written to CSV.

Each op is the library pipeline a `semisic region` call runs: load_povm ->
verify -> dual_basis -> region_grid -> write_region_csv to a file. Members
are rotated, permuted qubit members, one of them the SIC (b = 1/12), the
others at seeded strict overlaps.

Long scans, run once each before the timing, at resolutions 60 and 140:
about 40k and 480k grid points, so they set the peak memory, which grows
as N^3/6. Timed scans: three members at resolutions 12 to 24, 455 to
2925 points, 4 to 45 ms each. Resolutions are fixed, so every seed does the
same work; the seed picks the overlaps, rotations and order. Work units are
grid points.
"""

from __future__ import annotations

import json
import os

import numpy as np
import semisic

from common import Context, Fail, Op, file_digest, rng_for
from oracle import B_SIC, disguise, dual_frame, qubit_member, simplex_points, strict_b

LONG = (60, 140)
TIMED = (12, 16, 20, 24)
MEMBERS = 3
REDUCED = {"long": (12,), "timed": (6,)}
HEADER = "p1,p2,p3,f,feasible"
PSD_GATE = 1e-10
F_GATE = 1e-9
FEASIBILITY_SLACK = 1e-12


def write_povm_json(path: str, elements: np.ndarray, b: float) -> None:
    """POVM document in the interchange format, written without semisic."""
    doc = {
        "dim": int(elements.shape[1]),
        "elements": [[[[float(z.real), float(z.imag)] for z in row] for row in e]
                     for e in elements],
        "metadata": {"source": "bench"},
        "b": float(b),
    }
    with open(path, "w") as handle:
        json.dump(doc, handle)


def _scan(src: str, out: str, resolution: int):
    def run():
        doc = semisic.load_povm(src)
        report = semisic.verify(doc.povm)
        params = semisic.SemiSicParams.from_b(doc.povm.dim, report.fitted_b, report.k)
        frame = semisic.dual_basis(doc.povm, params)
        samples = semisic.region_grid(frame, resolution)
        semisic.write_region_csv(samples, out)
        return len(samples)
    return run


def expected_lattice(resolution: int) -> np.ndarray:
    n = resolution
    idx = [(i, j, l) for i in range(n + 1) for j in range(n + 1 - i)
           for l in range(n + 1 - i - j)]
    return np.array(idx, dtype=float) / n


def _check_scan(out: str, resolution: int, elements: np.ndarray, remove: bool):
    def check(count, tally) -> Fail | None:
        try:
            return _check_csv(count, out, resolution, elements)
        finally:
            if remove and os.path.exists(out):
                os.remove(out)
    return check


def _check_csv(count, out: str, resolution: int, elements: np.ndarray) -> Fail | None:
    if isinstance(count, BaseException):
        return Fail(f"scan raised {count!r}")
    want = simplex_points(resolution)
    if count != want:
        return Fail(f"region_grid returned {count} points, expected C(N+3,3) = {want}")
    with open(out) as handle:
        header = handle.readline().strip()
    if header != HEADER:
        return Fail(f"CSV header {header!r}")
    table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (want, 5):
        return Fail(f"CSV has shape {table.shape}, expected ({want}, 5)")
    pts, f, feasible = table[:, :3], table[:, 3], table[:, 4]
    if not np.array_equal(pts, expected_lattice(resolution)):
        return Fail("CSV points are not the simplex lattice in scan order")
    probs = np.column_stack([pts, 1.0 - pts.sum(axis=1)])
    rhos = np.tensordot(probs, dual_frame(elements), axes=1)
    det = (rhos[:, 0, 0] * rhos[:, 1, 1] - rhos[:, 0, 1] * rhos[:, 1, 0]).real
    f_dev = np.max(np.abs(f - det)) / max(1.0, float(np.max(np.abs(det))))
    if f_dev > F_GATE:
        return Fail(f"f deviates from det(rho) by {f_dev:.3e} (relative)")
    if not np.array_equal(feasible == 1.0, f >= -FEASIBILITY_SLACK):
        return Fail("feasible column disagrees with f")
    ok = feasible == 1.0
    eigs = np.linalg.eigvalsh(rhos[ok])
    traces = np.einsum("mii->m", rhos[ok]).real
    bad = int(np.sum((eigs[:, 0] < -PSD_GATE) | (np.abs(traces - 1.0) > PSD_GATE)))
    if bad:
        return Fail(f"{bad} feasible points do not reconstruct to a state")
    return None


def _members(ctx: Context, key: int, count: int) -> list[tuple[float, np.ndarray]]:
    """count seeded members (b, elements), one of them the SIC."""
    rng = rng_for(ctx, key)
    sic_slot = int(rng.integers(count))
    members = []
    for i in range(count):
        b = B_SIC if i == sic_slot else strict_b(rng)
        members.append((b, disguise(rng, qubit_member(b), 0.0)))
    return members


def _scan_op(ctx: Context, name: str, b: float, elements: np.ndarray, resolution: int,
             long: bool) -> Op:
    src = os.path.join(ctx.workdir, f"region-{name}.json")
    out = os.path.join(ctx.workdir, f"region-{name}.csv")
    write_povm_json(src, elements, b)
    # a long scan runs once and its CSV is removed after the check; a timed
    # scan rewrites its CSV on every run, and each must match the first
    return Op(f"region N={resolution}", _scan(src, out, resolution),
              _check_scan(out, resolution, elements, remove=long),
              work=simplex_points(resolution),
              digest=None if long else lambda count: (count, file_digest(out)))


def make_long(ctx: Context) -> list[Op]:
    resolutions = REDUCED["long"] if ctx.reduced else LONG
    members = _members(ctx, 0, len(resolutions))
    order = rng_for(ctx, 1).permutation(len(resolutions))
    return [_scan_op(ctx, f"long-{i}", *members[i], resolutions[i], True) for i in order]


def make_ops(ctx: Context) -> list[Op]:
    resolutions = REDUCED["timed"] if ctx.reduced else TIMED
    members = _members(ctx, 2, MEMBERS)
    ops = [_scan_op(ctx, f"{m}-{n}", b, elements, n, False)
           for m, (b, elements) in enumerate(members) for n in resolutions]
    order = rng_for(ctx, 3).permutation(len(ops))
    return [ops[i] for i in order]

"""Dual frames, state reconstruction, and the qubit feasibility region.

A semi-SIC is an operator-space frame, so every density matrix rho is
recovered linearly from its outcome probabilities p_y = Tr[E_y rho] via the
dual frame: rho = sum_y p_y F_y. The d^2 elements of an IC POVM are a basis
of operator space, so the dual is unique, F_y = sum_x (G^-1)_{xy} E_x with
the Gram matrix G_xy = Tr[E_x E_y], and dual_basis forms it by one linear
solve. For a semi-SIC this is the paper's two-block closed form, with
coefficients 1/(a^2 - b) per trace class; the solve never divides by
a^2 - b, which vanishes as a qubit b tends to 1/16, so it stays accurate
there, and its duality check allows for the conditioning of G.

For a qubit, p comes from a state exactly when det(sum_y p_y F_y) >= 0.
region_grid scans that test over a simplex lattice into one numpy record
array, and scans over MAX_REGION_POINTS points raise ValueError (CLI exit 2)
before allocating. write_region_csv formats every float with "%.17g" a
block of rows at a time, each distinct lattice coordinate once and all f by
one % call over the rest of the block's text: the bytes of a per-row format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    LengthMismatch,
    NotAState,
    NotSemiSic,
)
from .linalg import TOL_COND, TOL_NORM, TOL_PSD, as_hermitian
from .model import NOT_SEMI_SIC, Povm, SemiSicParams, _refusal, verify
from .textio import write_text

# Feasibility slack: determinant values above -1e-12 count as reconstructible.
FEASIBILITY_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class DualFrame:
    """Dual elements aligned with the source POVM's ordering.

    source_k records how many source elements sat on the small trace;
    permutation lists source indices in ascending trace order, so the
    small-trace block comes first. Equality and hashing are by identity.
    """

    dim: int
    duals: np.ndarray
    source_k: int
    permutation: tuple[int, ...]

    def __len__(self) -> int:
        return self.duals.shape[0]

    def __getitem__(self, idx: int) -> np.ndarray:
        return self.duals[idx]


def dual_basis(povm: Povm, params: SemiSicParams) -> DualFrame:
    """Dual frame of a verified semi-SIC, by one solve of its Gram system.

    params must agree with a POVM that passes verify() at linalg.TOL_COND:
    the same d, and params.b within TOL_COND of the fitted overlap (else
    NotSemiSic). source_k is the k that verify() measures, not params.k.
    Verifies duality Tr[E_x F_y] = delta_xy before returning, within
    max(1e-10, 1e3 max_violation, 10 eps cond(G)): the last term is the
    solve's rounding, which grows as a qubit b nears 1/16. The verify()
    report and the Gram matrix G with its eigenvalues are the ones the Povm
    keeps, so a POVM the caller has already verified is not measured again.
    """
    report = verify(povm)
    if report.classification == NOT_SEMI_SIC:
        raise NotSemiSic(f"verification failed ({_refusal(report)})")
    d = povm.dim
    if params.d != d:
        raise DimensionMismatch(f"params are for d = {params.d}, POVM has d = {d}")
    if abs(params.b - report.fitted_b) > TOL_COND:
        raise NotSemiSic(f"params have b = {params.b!r}, the POVM fits b = {report.fitted_b!r}")

    # G symmetric, so row y of G^-1 E is F_y = sum_x (G^-1)_{xy} E_x
    elements, (gram, eigs) = povm.elements, povm._gram
    duals = np.linalg.solve(gram, elements.reshape(len(povm), -1)).reshape(elements.shape)

    products = np.einsum("xij,yji->xy", elements, duals)
    products.flat[::len(povm) + 1] -= 1.0
    duality_dev = float(np.abs(products).max())
    rounding = 10.0 * np.finfo(float).eps * float(eigs[-1] / eigs[0])
    if duality_dev > max(1e-10, 1e3 * report.max_violation, rounding):
        raise NotSemiSic(f"dual frame fails duality check (deviation {duality_dev:.3e})")

    return DualFrame(
        dim=d,
        duals=duals,
        source_k=report.k,
        permutation=tuple(np.argsort(povm.traces(), kind="stable").tolist()),
    )


def probabilities(rho, povm: Povm) -> np.ndarray:
    """Outcome probabilities p_y = Tr[E_y rho] of a density matrix."""
    mat = as_hermitian(rho)
    if mat.shape != (povm.dim, povm.dim):
        raise DimensionMismatch(f"state shape {mat.shape} does not match d = {povm.dim}")
    eigs = np.linalg.eigvalsh(mat)
    if eigs[0] < -TOL_PSD:
        raise NotAState(f"state has negative eigenvalue {eigs[0]:.3e}")
    tr = float(mat.trace().real)
    if abs(tr - 1.0) > 1e2 * TOL_NORM:
        raise NotAState(f"state has trace {tr!r}, expected 1")
    p = np.einsum("yij,ji->y", povm.elements, mat).real
    # roundoff can leave tiny negatives on boundary states
    p[(p < 0) & (p > -TOL_PSD)] = 0.0
    if (p < 0).any():
        raise NotAState(f"negative outcome probability {float(p.min()):.3e}")
    return p


def _frame_probs(p, frame: DualFrame) -> np.ndarray:
    """p as a finite float vector of one probability per frame element."""
    probs = np.asarray(p, dtype=float)
    if probs.ndim != 1 or probs.size != len(frame):
        raise LengthMismatch(f"expected {len(frame)} probabilities, got shape {probs.shape}")
    if not np.isfinite(probs).all():
        raise ValueError("probabilities contain non-finite entries")
    return probs


def reconstruct(p, frame: DualFrame) -> np.ndarray:
    """Linear reconstruction sum_y p_y F_y (assumes sum(p) = 1 for unit trace)."""
    probs, duals = _frame_probs(p, frame), frame.duals
    # the one matrix product that np.tensordot(probs, duals, axes=1) forms
    return np.dot(probs[None], duals.reshape(len(duals), -1)).reshape(duals.shape[1:])


def feasibility_poly(p, frame: DualFrame) -> float:
    """det(sum_y p_y F_y): nonnegative iff the reconstruction is a state (d = 2).

    The determinant test characterizes positivity only for qubits, so any
    other dimension is refused.
    """
    if frame.dim != 2:
        raise DimensionMismatch(
            f"the determinant feasibility test is qubit-only, got d = {frame.dim}"
        )
    return float(_determinants(_frame_probs(p, frame), frame))


def _determinants(probs: np.ndarray, frame: DualFrame) -> np.ndarray:
    """det(sum_y p_y F_y) for p = probs, or for each row p of it, for 2x2 Hermitian duals."""
    f00, f11, f01 = frame.duals[:, 0, 0].real, frame.duals[:, 1, 1].real, frame.duals[:, 0, 1]
    return (probs @ f00) * (probs @ f11) - np.abs(probs @ f01) ** 2


# Region scans of more lattice points than this are refused (ValueError, exit
# 2 from the CLI) before anything is allocated. A scan holds 40 bytes per
# point, 400 MB at the cap; resolution 389 is the largest admitted.
MAX_REGION_POINTS = 10_000_000

# Rows per block in the feasibility kernel and in the CSV writer.
_CHUNK = 65_536

_REGION_FIELDS = "p1", "p2", "p3", "f", "feasible"
_REGION_DTYPE = np.dtype({"names": _REGION_FIELDS, "formats": [float] * 4 + [bool]}, align=True)


def region_grid(frame: DualFrame, resolution: int) -> np.recarray:
    """Feasibility over the lattice {i/N} on the probability simplex (d = 2).

    Scans all (p1, p2, p3) with p_i = i/resolution and p1+p2+p3 <= 1, p1
    outermost and p3 innermost; p4 is the slack. Returns a record array with
    float fields p1, p2, p3, f = det(sum_y p_y F_y) and bool field feasible
    (f >= -FEASIBILITY_SLACK): scan.feasible is a column, scan[i].p1 a value.
    A lattice of C(N+3, 3) > MAX_REGION_POINTS points raises ValueError (exit 2).
    """
    if frame.dim != 2:
        raise DimensionMismatch(f"region scan is qubit-only, got d = {frame.dim}")
    if not isinstance(resolution, (int, np.integer)) or resolution < 2:
        raise ValueError(f"resolution must be an integer >= 2, got {resolution!r}")
    n = int(resolution)
    count = (n + 1) * (n + 2) * (n + 3) // 6
    if count > MAX_REGION_POINTS:
        raise ValueError(f"resolution {n} gives {count} points, over the cap {MAX_REGION_POINTS}")

    # (i, j) pairs in scan order, each followed by its run l = 0 .. n - i - j
    span = np.arange(n + 1)
    i, j = np.nonzero(span[:, None] + span <= n)
    runs = n + 1 - i - j
    scan = np.recarray(count, dtype=_REGION_DTYPE)
    scan.p1 = p1 = np.repeat(i, runs) / n
    scan.p2 = p2 = np.repeat(j, runs) / n
    scan.p3 = p3 = (np.arange(count) - np.repeat(np.cumsum(runs) - runs, runs)) / n

    for start in range(0, count, _CHUNK):
        rows = slice(start, start + _CHUNK)
        a, b, c = p1[rows], p2[rows], p3[rows]
        scan["f"][rows] = _determinants(np.column_stack([a, b, c, 1.0 - (a + b + c)]), frame)
    scan.feasible = scan.f >= -FEASIBILITY_SLACK
    return scan


def write_region_csv(scan: np.recarray, path) -> None:
    """Write a region scan as CSV with header p1,p2,p3,f,feasible: every float
    as "%.17g" (17 significant digits), feasible as 1 or 0.

    A block of rows at a time, each distinct p1, p2 and p3 value (a lattice
    value i/N) is formatted once, keyed on its bits so that -0.0 and NaN keep
    their text. Rows join those texts and "%.17g,1\n" or "%.17g,0\n" by
    feasible, so one % call converts only f: the bytes of a per-row format.
    A scan without those fields, float64 and bool as region_grid makes them,
    raises ValueError before the target is opened.
    """
    fields = getattr(scan, "dtype", np.dtype(float)).fields or {}
    if any(name not in fields or fields[name][0] != _REGION_DTYPE[name] for name in _REGION_FIELDS):
        raise ValueError(f"a region scan needs the fields of {_REGION_DTYPE}")
    write_text(path, _region_csv_texts(scan))


def _region_csv_texts(scan: np.recarray):
    """write_region_csv's text: the header, then one string per block of rows."""
    yield ",".join(_REGION_FIELDS) + "\n"
    ends = np.array(["%.17g,0\n", "%.17g,1\n"], dtype=object)
    for start in range(0, len(scan), _CHUNK):
        block = scan[start:start + _CHUNK]
        coords = np.stack([block["p1"], block["p2"], block["p3"]]).view(np.int64)
        bits, where = np.unique(coords, return_inverse=True)
        # "%.17g" text is digits, sign, ".", "e", "inf" or "nan", never a "%"
        text = np.array(["%.17g," % x for x in bits.view(float).tolist()], dtype=object)
        parts = np.empty((len(block), 4), dtype=object)
        parts[:, :3] = text[where.reshape(3, -1).T]
        parts[:, 3] = ends[block["feasible"].astype(np.intp)]
        yield "".join(parts.ravel().tolist()) % tuple(block["f"].tolist())

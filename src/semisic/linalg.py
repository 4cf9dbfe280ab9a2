"""Dense complex linear algebra helpers for small Hermitian operator spaces.

Everything here works on plain numpy arrays; matrices are complex128.
Tolerances are bundled in a frozen dataclass so call sites can tighten or
loosen the whole set at once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class Tolerances:
    """Numerical gates used throughout.

    tol_herm   largest tolerated |A - A^dagger| entry (relative to scale)
    tol_norm   trace deviations of states (its square root: eig_hermitian's phase cutoff)
    tol_psd    most negative eigenvalue still counted as PSD
    tol_rank   relative eigenvalue cutoff when counting rank
    tol_cond   classification gate on the defining-condition violations
    """

    tol_herm: float = 1e-12
    tol_norm: float = 1e-12
    tol_psd: float = 1e-10
    tol_rank: float = 1e-10
    tol_cond: float = 1e-10

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, (int, float)) and value > 0):
                raise ValueError(f"{f.name} must be a positive real, got {value!r}")


DEFAULT_TOL = Tolerances()


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    mat = np.asarray(a, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    if not (np.all(np.isfinite(mat.real)) and np.all(np.isfinite(mat.imag))):
        raise ValueError("matrix has non-finite entries")
    return mat


def as_hermitian(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Coerce to a Hermitian matrix, raising if A deviates from A^dagger."""
    mat = as_matrix(a)
    scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 1.0)
    dev = float(np.max(np.abs(mat - mat.conj().T)))
    if dev > tol.tol_herm * scale:
        raise ValueError(f"matrix is not Hermitian within tolerance (deviation {dev:.3e})")
    return mat


def eig_hermitian(a, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (columns) of a Hermitian matrix.

    Each eigenvector is phase-fixed so its first non-negligible amplitude is
    real and positive, which makes results comparable across runs.
    """
    mat = as_hermitian(a, tol)
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    vecs = vecs.copy()
    cutoff = np.sqrt(tol.tol_norm)
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        idx = np.flatnonzero(np.abs(col) > cutoff)
        pivot = idx[0] if idx.size else int(np.argmax(np.abs(col)))
        phase = col[pivot] / abs(col[pivot])
        vecs[:, j] = col * phase.conjugate()
    return vals, vecs


def pauli_compose(c0: float, cx: float, cy: float, cz: float) -> np.ndarray:
    """c0 I + cx X + cy Y + cz Z as a 2x2 complex matrix."""
    return c0 * np.eye(2, dtype=complex) + cx * PAULI_X + cy * PAULI_Y + cz * PAULI_Z

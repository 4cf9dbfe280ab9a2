"""Dense complex linear algebra helpers and the package's numerical gates.

Matrices are complex128 numpy arrays. The TOL_* gates are constants: only
the classification gate TOL_COND can be changed per call, as verify()'s
tol_cond, which run_search loosens for its hits.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

TOL_HERM = 1e-12  # largest |A - A^dagger| entry, relative to max(1, max |A_ij|)
TOL_NORM = 1e-12  # a state's trace may miss 1 by 100x this; sqrt: eig_hermitian's cutoff
TOL_PSD = 1e-10  # most negative eigenvalue or outcome probability counted as zero
TOL_RANK = 1e-10  # eigenvalue cutoff when counting rank, relative to max(1, max |eig|)
TOL_COND = 1e-10  # classification gate on the defining-condition violations


def as_hermitian(a) -> np.ndarray:
    """Coerce to a finite square complex matrix, raising if A deviates from A^dagger."""
    mat = np.asarray(a, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    if not (np.all(np.isfinite(mat.real)) and np.all(np.isfinite(mat.imag))):
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 1.0)
    dev = float(np.max(np.abs(mat - mat.conj().T)))
    if dev > TOL_HERM * scale:
        raise ValueError(f"matrix is not Hermitian within tolerance (deviation {dev:.3e})")
    return mat


def eig_hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (columns) of a Hermitian matrix.

    Each eigenvector is phase-fixed so its first non-negligible amplitude is
    real and positive, which makes results comparable across runs.
    """
    mat = as_hermitian(a)
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    vecs = vecs.copy()
    cutoff = np.sqrt(TOL_NORM)
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

"""The package's numerical gates and its Hermitian-matrix coercion.

Matrices are complex128 numpy arrays; callers call numpy's eigensolvers
directly. The TOL_* gates are constants; TOL_COND is the one classification
gate, which verify() and run_search's hits share.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

TOL_HERM = 1e-12  # largest |A - A^dagger| entry, relative to max(1, max |A_ij|)
TOL_NORM = 1e-12  # a state's trace may miss 1 by 100x this
TOL_PSD = 1e-10  # most negative eigenvalue or outcome probability counted as zero
TOL_RANK = 1e-10  # eigenvalue cutoff when counting rank, relative to max(1, max |eig|)
TOL_COND = 1e-10  # classification gate on the defining-condition violations


def as_hermitian(a) -> np.ndarray:
    """Coerce to a finite square complex matrix, raising if A deviates from A^dagger.

    Empty (0 x 0) and non-square matrices are refused with DimensionMismatch."""
    mat = np.asarray(a, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise DimensionMismatch(f"expected a non-empty square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(mat).max()))
    dev = float(np.abs(mat - mat.conj().T).max())
    if dev > TOL_HERM * scale:
        raise ValueError(f"matrix is not Hermitian within tolerance (deviation {dev:.3e})")
    return mat

"""Unit tests for the dense linear algebra helpers."""

import numpy as np
import pytest

from semisic.errors import DimensionMismatch
from semisic.linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_hermitian,
    eig_hermitian,
    pauli_compose,
)


def random_hermitian(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (z + z.conj().T)


def test_as_hermitian_accepts_and_rejects():
    as_hermitian(np.eye(3))
    with pytest.raises(ValueError):
        as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        as_hermitian(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_hermitian(np.array([[np.inf, 0.0], [0.0, 0.0]]))


def test_eig_hermitian_reconstructs_and_fixes_phase():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_hermitian(rng, 4)
        vals, vecs = eig_hermitian(a)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.conj().T, a, atol=1e-10)
        assert np.all(np.diff(vals) >= -1e-12)
        for j in range(4):
            col = vecs[:, j]
            pivot = col[np.flatnonzero(np.abs(col) > 1e-6)[0]]
            assert pivot.real > 0.0
            assert abs(pivot.imag) < 1e-12


def test_eig_hermitian_is_repeatable():
    rng = np.random.default_rng(9)
    a = random_hermitian(rng, 3)
    vals1, vecs1 = eig_hermitian(a)
    vals2, vecs2 = eig_hermitian(a.copy())
    assert np.array_equal(vals1, vals2)
    assert np.array_equal(vecs1, vecs2)


def test_pauli_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_hermitian(rng, 2)
        c = [0.5 * float(np.trace(a @ p).real) for p in (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)]
        assert np.allclose(pauli_compose(*c), a, atol=1e-12)

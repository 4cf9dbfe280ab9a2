"""Unit tests for the Hermitian coercion."""

import numpy as np
import pytest

from semisic.errors import DimensionMismatch
from semisic.linalg import as_hermitian


def test_as_hermitian_accepts_and_rejects():
    as_hermitian(np.eye(3))
    with pytest.raises(ValueError):
        as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        as_hermitian(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_hermitian(np.array([[np.inf, 0.0], [0.0, 0.0]]))

"""Unit tests for the Hermitian coercion and the finite-entry checks."""

import numpy as np
import pytest

from semisic.dual import probabilities
from semisic.errors import DimensionMismatch, MalformedPovm
from semisic.linalg import as_hermitian
from semisic.model import Povm
from semisic.qubit import construct
from semisic.search import objective


def test_as_hermitian_accepts_and_rejects():
    as_hermitian(np.eye(3))
    with pytest.raises(ValueError):
        as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        as_hermitian(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch, match="non-empty square"):
        as_hermitian(np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch, match="non-empty square"):
        probabilities(np.zeros((0, 0)), construct(2.0 / 25.0))
    with pytest.raises(ValueError):
        as_hermitian(np.array([[np.inf, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_imaginary_parts_are_refused(bad):
    # the real parts are all finite; only one imaginary part is not
    rows = np.full((4, 2), 0.5, dtype=complex)
    rows[1, 0] = complex(0.5, bad)
    with pytest.raises(ValueError, match="non-finite"):
        objective(rows, 2, 2, b=0.07)
    elements = np.array(construct(2.0 / 25.0).elements)
    elements[0, 0, 0] = complex(elements[0, 0, 0].real, bad)
    with pytest.raises(MalformedPovm, match="non-finite"):
        Povm(dim=2, elements=elements)
    rho = np.eye(2, dtype=complex) / 2
    rho[1, 1] = complex(0.5, bad)
    with pytest.raises(ValueError, match="non-finite"):
        probabilities(rho, construct(2.0 / 25.0))

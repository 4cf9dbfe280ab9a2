"""Unit tests for the state checks and the finite-entry checks."""

import numpy as np
import pytest

from semisic.dual import probabilities
from semisic.errors import DimensionMismatch, MalformedPovm, NotAState
from semisic.model import Povm
from semisic.qubit import construct
from semisic.search import objective


def test_probabilities_accepts_and_rejects_states():
    member = construct(2.0 / 25.0)
    probabilities(np.eye(2) / 2, member)
    with pytest.raises(NotAState, match="not Hermitian"):
        probabilities(np.array([[0.0, 1.0], [0.0, 0.0]]), member)
    with pytest.raises(DimensionMismatch):
        probabilities(np.zeros((2, 3)), member)
    with pytest.raises(DimensionMismatch, match="non-empty square"):
        probabilities(np.zeros((0, 0)), member)
    with pytest.raises(NotAState, match="non-finite"):
        probabilities(np.array([[np.inf, 0.0], [0.0, 0.0]]), member)
    # the Hermitian check is TOL_COND = 1e-10 relative to max(1, max |rho_ij|)
    rho = np.eye(2, dtype=complex) / 2
    rho[0, 1] = 5e-11j
    probabilities(rho, member)
    rho[0, 1] = 2e-10j
    with pytest.raises(NotAState, match="not Hermitian"):
        probabilities(rho, member)


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

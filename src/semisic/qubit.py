"""The complete one-parameter family of qubit semi-SICs.

For d = 2 a strict semi-SIC exists exactly for overlaps b in (1/16, 1/12],
and up to a global unitary it is unique for each b. The canonical member is
built from four kets

    psi_1 = |0>
    psi_2 = r |0> + sqrt(1 - r^2) |1>
    psi_3 = (1/sqrt(3)) |0> - sqrt(2/3) e^{+i theta} |1>
    psi_4 = (1/sqrt(3)) |0> - sqrt(2/3) e^{-i theta} |1>

with the first two weighted by the small trace a- and the last two by a+:

    r     = 2 sqrt(b) / (1 - sqrt(1 - 12 b))
    theta = arccos( sqrt(1 - 8 b - sqrt(1 - 12 b)) / (4 sqrt(b)) )

Both r(b) and theta(b) decrease on the interval; the closed endpoint
b = 1/12 gives r = 1/sqrt(3), theta = pi/3 and collapses the family to the
SIC (all traces 1/2), while b -> 1/16 degenerates (psi_2 -> psi_1, theta ->
pi/2) and is excluded. Note theta therefore spans [pi/3, pi/2), closed at
the SIC end and open at the degenerate one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BOutOfFamilyRange,
    BOutOfRange,
    KOutOfRange,
    NotQubitSemiSic,
)
from .linalg import TOL_COND
from .model import NOT_SEMI_SIC, Povm, SemiSicParams, _refusal, trace_values, verify

B_MIN = 1.0 / 16.0   # open: the family degenerates here
B_MAX = 1.0 / 12.0   # closed: the SIC point


@dataclass(frozen=True)
class QubitFamilyPoint:
    """Family coordinates (b, r, theta) plus the validated parameter bundle."""

    b: float
    r: float
    theta: float
    params: SemiSicParams


def family_point(b: float) -> QubitFamilyPoint:
    """Resolve an overlap b to its family coordinates.

    Raises BOutOfFamilyRange outside (1/16, 1/12 + TOL_COND]. A b in
    (1/12, 1/12 + TOL_COND] is the SIC point b = 1/12, k = 4, by the rule of
    SemiSicParams.from_b; values within one discriminant snap width below
    1/12 also collapse to the SIC endpoint (see model.trace_values).
    """
    b = float(b)
    if not math.isfinite(b) or b <= B_MIN:
        raise BOutOfFamilyRange(
            f"b must exceed 1/16 = {B_MIN!r} for a qubit semi-SIC, got {b!r}"
        )
    if b > B_MAX + TOL_COND:
        raise BOutOfFamilyRange(
            f"b must be at most 1/12 = {B_MAX!r} for a qubit semi-SIC, got {b!r}"
        )
    b = min(b, B_MAX)
    lo, hi = trace_values(2, b)
    s = hi - lo  # sqrt(1 - 12 b), exactly zero at the (snapped) SIC endpoint
    k = 4 if s == 0.0 else 2
    params = SemiSicParams(d=2, b=b, k=k)
    r = 2.0 * math.sqrt(b) / (1.0 - s)
    cos_theta = math.sqrt(max(0.0, 1.0 - 8.0 * b - s)) / (4.0 * math.sqrt(b))
    # np.arccos, not math.acos: numpy's float64 loop need not round as libm does
    theta = float(np.arccos(min(1.0, cos_theta)))
    return QubitFamilyPoint(b=b, r=r, theta=theta, params=params)


def family_kets(point: QubitFamilyPoint) -> np.ndarray:
    """The four canonical kets as rows of a (4, 2) array."""
    r, theta = point.r, point.theta
    w = np.sqrt(2.0 / 3.0) * np.exp(1j * theta)
    return np.array(
        [
            [1.0, 0.0],
            [r, np.sqrt(max(0.0, 1.0 - r * r))],
            [1.0 / np.sqrt(3.0), -w],
            [1.0 / np.sqrt(3.0), -w.conjugate()],
        ],
        dtype=complex,
    )


def construct(b: float) -> Povm:
    """Canonical qubit semi-SIC with overlap b, ordered (a-, a-, a+, a+)."""
    return _member(family_point(b))


def _member(point: QubitFamilyPoint) -> Povm:
    """construct() for an already resolved family point."""
    kets = family_kets(point)
    weights = np.array(
        [point.params.a_minus, point.params.a_minus, point.params.a_plus, point.params.a_plus]
    )
    elements = np.einsum("x,xi,xj->xij", weights, kets, kets.conj())
    return Povm(dim=2, elements=elements)


def _completion_unitary(ket: np.ndarray) -> np.ndarray:
    """Unitary W with W ket = e_0 (first row is ket^dagger)."""
    a, c = ket[0], ket[1]
    return np.array([[a.conjugate(), c.conjugate()], [-c, a]], dtype=complex)


def canonicalize(povm: Povm) -> tuple[np.ndarray, Povm, float]:
    """Rotate and reorder a verified qubit semi-SIC into the family form.

    Returns (u, canonical, b) where canonical is the reordered, rotated
    POVM and u undoes the rotation: u @ canonical[x] @ u^dagger equals the
    input element that canonical slot x came from, to machine precision.
    u is unique only up to a global phase.

    The family is unique up to a unitary and a relabelling, so the form is
    built directly: psi_1 and psi_2 are the first two small-trace elements
    in index order (elements 0 and 1 when verify() finds one trace class),
    W sends psi_1 to |0> with <0|W E_2 W^dagger|1> real and positive, and of
    the other two the one with Im <0|W E W^dagger|1> > 0 is psi_3 (sin theta
    > 0 on [pi/3, pi/2)).
    """
    if not isinstance(povm, Povm) or povm.dim != 2:
        raise NotQubitSemiSic("canonicalization is defined for qubit POVMs only")
    report = verify(povm)
    if report.classification == NOT_SEMI_SIC:
        raise NotQubitSemiSic(f"verification failed ({_refusal(report)})")
    refused = f"fitted overlap {report.fitted_b!r} is outside the family"
    try:
        b = SemiSicParams.from_b(2, report.fitted_b, report.k).b
    except (BOutOfRange, KOutOfRange) as exc:
        raise NotQubitSemiSic(refused) from exc
    if not b > B_MIN:  # from_b admits every b up to 1/12; family_point's open end
        raise NotQubitSemiSic(refused)

    # the small-trace pair as verify() draws it (k is 2 or 4 once from_b admits it)
    i1, i2 = np.flatnonzero(povm.traces() < 0.5) if report.k == 2 else (0, 1)
    _, vecs = np.linalg.eigh(povm[i1])
    w1 = _completion_unitary(vecs[:, -1])
    z = (w1 @ povm[i2] @ w1.conj().T)[0, 1]
    w = np.array([[1.0, 0.0], [0.0, z / abs(z)]]) @ w1
    i3, i4 = [x for x in range(4) if x not in (i1, i2)]
    if (w @ povm[i3] @ w.conj().T)[0, 1].imag <= 0.0:
        i3, i4 = i4, i3
    mapped = np.einsum("ij,xjk,lk->xil", w, povm.elements[[i1, i2, i3, i4]], w.conj())
    return w.conj().T, Povm(dim=2, elements=mapped), b

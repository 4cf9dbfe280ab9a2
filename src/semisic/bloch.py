"""Bloch-ball coordinates for the qubit family's outcome probabilities.

A qubit state rho = (I + r . sigma)/2 hits the four family elements with
probabilities that are affine in the Bloch vector r:

    q_x = (a_x / 2) * (1 + n_x . r)

where a_x is the element's trace and n_x the Bloch vector
(2 Re c0* c1, 2 Im c0* c1, |c0|^2 - |c1|^2) of its family ket
c0 |0> + c1 |1> (qubit.family_kets). In closed form,

    n_1 = (0, 0, 1)
    n_2 = (2 r sqrt(1 - r^2), 0, 2 r^2 - 1)
    n_3 = (-(2 sqrt(2)/3) cos t, -(2 sqrt(2)/3) sin t, -1/3)
    n_4 = n_3 with the sign of the y component flipped

(r, t) = (point.r, point.theta). The inverse map takes the point of the
closed unit ball that best fits the affine system and checks its residual,
so probability vectors only realizable by "states" outside the ball are
rejected too. That point solves a trust-region subproblem: Newton's method
on the secular equation (More & Sorensen, SIAM J. Sci. Stat. Comput. 4, 553
(1983)), started at the least-squares point.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InconsistentProbabilities, NotAState
from .qubit import QubitFamilyPoint, family_kets

_RESIDUAL_GATE = 1e-8  # a ball-fit residual, and a Bloch norm's excess over 1


def _as_bloch(r) -> np.ndarray:
    vec = np.asarray(r, dtype=float)
    if vec.shape != (3,):
        raise DimensionMismatch(f"Bloch vector must have shape (3,), got {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise NotAState("Bloch vector has non-finite entries")
    norm = float(np.linalg.norm(vec))
    if norm > 1.0 + _RESIDUAL_GATE:
        raise NotAState(f"Bloch vector norm {norm!r} exceeds 1")
    return vec


def bloch_to_state(r) -> np.ndarray:
    """Density matrix (I + r . sigma)/2 of a Bloch vector."""
    x, y, z = _as_bloch(r)
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def _directions(point: QubitFamilyPoint) -> tuple[np.ndarray, np.ndarray]:
    """Per-element trace weights a_x/2 and Bloch directions n_x (rows)."""
    c0, c1 = family_kets(point).T
    z = 2.0 * c0.conj() * c1
    dirs = np.array([z.real, z.imag, abs(c0) ** 2 - abs(c1) ** 2]).T
    a = point.params
    weights = 0.5 * np.array([a.a_minus, a.a_minus, a.a_plus, a.a_plus])
    return weights, dirs


def bloch_to_probs(r, point: QubitFamilyPoint) -> np.ndarray:
    """Outcome probabilities of the Bloch vector r under the family POVM."""
    vec = _as_bloch(r)
    weights, dirs = _directions(point)
    return weights * (1.0 + dirs @ vec)


@np.errstate(over="ignore", invalid="ignore")  # huge rhs: overflow, NaN, then rejected
def _ball_residual(m: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """The minimum of ||M r - rhs|| over the closed ball ||r|| <= 1, for any rhs.

    r(lam) = (M^T M + lam I)^-1 M^T rhs, M of full rank. Newton's method on
    the secular equation 1/||r(lam)|| = 1 (More & Sorensen 1983), in the
    eigenbasis of M^T M, rises monotonically from the least-squares point at
    lam = 0 and stops once ||r|| <= 1 (at once if that point is in the ball,
    rhs = 0 included) or the step no longer raises lam. That includes a NaN step,
    which follows once ||r||^2 overflows; the residual is then inf or NaN.
    """
    vals, vecs = np.linalg.eigh(m.T @ m)
    gh = vecs.T @ (m.T @ rhs)
    lam = 0.0
    while True:
        p = gh / (vals + lam)
        norm = float(np.sqrt(p @ p))
        if norm <= 1.0:
            break
        step = (norm - 1.0) * norm * norm / float(p @ (p / (vals + lam)))
        if not lam + step > lam:
            break
        lam += step
    r = vecs @ p
    return r, float(np.linalg.norm(m @ r - rhs))


def probs_to_bloch(q, point: QubitFamilyPoint) -> np.ndarray:
    """Invert bloch_to_probs, rejecting vectors no qubit state can produce.

    Returns the r of the closed unit ball that best fits the 4x3 affine
    system (the least-squares r when that lies in the ball); if its
    residual exceeds _RESIDUAL_GATE or is not finite, or q is not finite,
    raises InconsistentProbabilities.
    """
    probs = np.asarray(q, dtype=float)
    if probs.shape != (4,):
        raise DimensionMismatch(f"expected 4 probabilities, got shape {probs.shape}")
    if not np.all(np.isfinite(probs)):
        raise InconsistentProbabilities("probabilities contain non-finite entries")
    weights, dirs = _directions(point)
    sol, residual = _ball_residual(weights[:, None] * dirs, probs - weights)
    if not residual <= _RESIDUAL_GATE:
        raise InconsistentProbabilities(
            f"no Bloch vector reproduces these probabilities (residual {residual:.3e})"
        )
    return sol

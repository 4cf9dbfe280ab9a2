"""Closed-form reference objects the benchmark checks the program against.

Nothing here imports semisic: the members, duals and spectra below are
computed from the paper's formulas directly, so a check never compares the
program with itself.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

B_MIN = 1.0 / 16.0
B_SIC = 1.0 / 12.0


def qubit_member(b: float) -> np.ndarray:
    """Canonical qubit semi-SIC with overlap b, as a (4, 2, 2) stack.

    Kets |0>, r|0> + sqrt(1-r^2)|1>, (|0> - sqrt(2) e^{+-i theta}|1>)/sqrt(3),
    weighted by the small trace a- (first two) and the large trace a+.
    """
    s = np.sqrt(max(0.0, 1.0 - 12.0 * b))
    a_lo, a_hi = 0.5 * (1.0 - s), 0.5 * (1.0 + s)
    r = 2.0 * np.sqrt(b) / (1.0 - s)
    theta = np.arccos(min(1.0, np.sqrt(max(0.0, 1.0 - 8.0 * b - s)) / (4.0 * np.sqrt(b))))
    w = np.sqrt(2.0 / 3.0) * np.exp(1j * theta)
    kets = np.array(
        [[1.0, 0.0],
         [r, np.sqrt(max(0.0, 1.0 - r * r))],
         [1.0 / np.sqrt(3.0), -w],
         [1.0 / np.sqrt(3.0), -np.conj(w)]],
        dtype=complex,
    )
    weights = np.array([a_lo, a_lo, a_hi, a_hi])
    return np.einsum("x,xi,xj->xij", weights, kets, kets.conj())


def hesse_sic() -> np.ndarray:
    """The d = 3 Hesse SIC: Weyl-Heisenberg orbit of (0, 1, -1)/sqrt(2), over 3."""
    omega = np.exp(2j * np.pi / 3.0)
    shift = np.roll(np.eye(3), 1, axis=0)
    clock = np.diag([1.0, omega, omega**2])
    fiducial = np.array([0.0, 1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    kets = [
        np.linalg.matrix_power(shift, p) @ np.linalg.matrix_power(clock, q) @ fiducial
        for p in range(3) for q in range(3)
    ]
    return np.stack([np.outer(k, k.conj()) / 3.0 for k in kets])


def strict_b(rng: np.random.Generator) -> float:
    """A strict-family overlap kept a tenth of the interval clear of the
    degenerate end b = 1/16, where the dual coefficients diverge, and of the
    SIC end."""
    return B_MIN + (B_SIC - B_MIN) * (0.1 + 0.8 * rng.random())


def expected_label(dim: int, b: float | None) -> tuple[str, int]:
    """(classification, k) that verify must report for a member of overlap b."""
    if dim == 3 or b == B_SIC:
        return "SIC", dim * dim
    return "StrictSemiSIC", 2


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def disguise(rng: np.random.Generator, elements: np.ndarray, noise: float) -> np.ndarray:
    """Rotate by a random unitary, permute, and add Hermitian noise whose
    largest entry per element is `noise`."""
    d = elements.shape[1]
    u = random_unitary(rng, d)
    out = np.einsum("ij,xjk,lk->xil", u, elements, u.conj())[rng.permutation(len(elements))]
    if noise > 0.0:
        z = rng.standard_normal(out.shape) + 1j * rng.standard_normal(out.shape)
        h = 0.5 * (z + z.conj().transpose(0, 2, 1))
        h *= noise / np.max(np.abs(h), axis=(1, 2), keepdims=True)
        out = out + h
    return out


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """A full-rank density matrix drawn from the Ginibre ensemble."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def dual_frame(elements: np.ndarray) -> np.ndarray:
    """Dual basis F_y = sum_x (G^-1)_yx E_x of an informationally complete
    POVM, with Gram matrix G_xy = Tr[E_x E_y]."""
    gram = np.einsum("xij,yji->xy", elements, elements).real
    return np.einsum("yx,xij->yij", np.linalg.inv(gram), elements)


def born(elements: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.einsum("xij,ji->x", elements, rho).real


def bloch_state(r: np.ndarray) -> np.ndarray:
    x, y, z = r
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def affine_null_vector(b: float) -> np.ndarray:
    """Unit vector orthogonal to every probability vector difference the
    canonical member can produce: adding it makes probabilities inconsistent."""
    elements = qubit_member(b)
    paulis = [bloch_state(v) - 0.5 * np.eye(2) for v in np.eye(3)]
    columns = np.array([born(elements, p) for p in paulis]).T
    u, _, _ = np.linalg.svd(columns)
    return u[:, -1]


def spectrum_rows(d: int) -> list[tuple[int, Fraction, Fraction, Fraction]]:
    """(k, b, a-, a+) for every admissible split d^2 - d < k <= d^2."""
    n = d * d
    rows = []
    for k in range(n - d + 1, n + 1):
        b = Fraction((k - d) * (k + d - n), (n - 1) * (n - 2 * k) ** 2)
        root = Fraction(n - 2 * d, 2 * k - n)
        rows.append((k, b, Fraction(1, 2) * (1 - root), Fraction(1, 2) * (1 + root)))
    return rows


def simplex_points(resolution: int) -> int:
    """Lattice points of {i/N} on the probability 3-simplex: C(N+3, 3)."""
    n = resolution
    return (n + 1) * (n + 2) * (n + 3) // 6

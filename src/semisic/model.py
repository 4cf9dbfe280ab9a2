"""POVM container, trace-value arithmetic, and semi-SIC verification.

A semi-SIC here is an informationally complete POVM of d^2 rank-one
elements whose pairwise Hilbert-Schmidt overlaps all equal one constant b.
Dropping the constant-trace requirement of a SIC leaves the element traces
free, but completeness forces them to take at most two values a- <= a+,
the roots of a^2 - a + (d^2 - 1) b = 0. With k elements on the small trace,
counting gives k a- + (d^2 - k) a+ = d, and for d >= 3 the overlap is pinned
to a rational function of (d, k).

verify() tests that quadratic directly, through the residual
|a^2 - a + (d^2 - 1) b| of each trace at the fitted overlap; small-trace
elements are those with a < 1/2. Where (d, k) pins b (every admissible k
for d >= 3, k = d^2 in any d), SemiSicParams.from_b stores the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import BOutOfRange, DimensionMismatch, KOutOfRange, MalformedPovm, NotSemiSic
from .linalg import TOL_COND, TOL_ROUND

# Classification labels used by verify() and the CLI.
SIC = "SIC"
STRICT_SEMI_SIC = "StrictSemiSIC"
NOT_SEMI_SIC = "NotSemiSIC"

# Coarse structural gates, loose by design (README's threshold table): MalformedPovm past them
HERMITIAN_GATE = 1e-8
COMPLETENESS_GATE = 1e-2
PSD_GATE = 1e-4

# verify()'s five deviations (VerificationReport's equi_dev, comp_dev, psd_dev,
# herm_dev and trace_dev) by name; the first largest is the report's worst_condition
CONDITIONS = ("equiangularity", "completeness", "positivity", "hermiticity", "trace")

# admissible_k lists d entries and `semisic spectrum` prints d rows: larger d are refused
MAX_SPECTRUM_D = 10**5


def trace_values(d: int, b: float) -> tuple[float, float]:
    """The two admissible element traces (a-, a+) for overlap b in dimension d.

    Roots of a^2 - a + (d^2 - 1) b = 0; real iff b <= 1/(4(d^2-1)). A discriminant
    within linalg.TOL_ROUND of 0 is 0: the double (SIC) root.
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise DimensionMismatch(f"dimension must be an integer >= 2, got {d!r}")
    b = float(b)
    if not math.isfinite(b) or b <= 0.0:
        raise BOutOfRange(f"overlap b must be positive, got {b!r}")
    disc = 1.0 - 4.0 * b * (d * d - 1)
    if abs(disc) <= TOL_ROUND:
        disc = 0.0
    if disc < 0.0:
        raise BOutOfRange(
            f"b = {b!r} exceeds the maximum 1/(4(d^2-1)) = {1.0 / (4 * (d * d - 1))!r} "
            f"for d = {d} (negative discriminant)"
        )
    root = math.sqrt(disc)
    return (0.5 * (1.0 - root), 0.5 * (1.0 + root))


def b_from_k(d: int, k: int) -> float:
    """Overlap forced by a trace split of k small-trace elements, d >= 3."""
    return float(b_from_k_exact(d, k))


def b_from_k_exact(d: int, k: int) -> Fraction:
    """Exact rational value of b_from_k."""
    _check_dk(d, k)
    n = d * d
    return Fraction((k - d) * (k + d - n), (n - 1) * (n - 2 * k) ** 2)


def trace_values_exact(d: int, k: int) -> tuple[Fraction, Fraction]:
    """Exact (a-, a+) for an admissible (d, k), d >= 3.

    For admissible k the discriminant is the square of (d^2 - 2d)/(2k - d^2),
    so both roots are rational.
    """
    _check_dk(d, k)
    n = d * d
    half = Fraction(1, 2)
    root = Fraction(n - 2 * d, 2 * k - n)
    return (half * (1 - root), half * (1 + root))


def admissible_k(d: int) -> list[int]:
    """All k permitted by the counting bound d^2 - d < k <= d^2 (3 <= d <= MAX_SPECTRUM_D)."""
    if not isinstance(d, (int, np.integer)) or d < 3:
        raise DimensionMismatch(f"trace-split enumeration needs d >= 3, got {d!r}")
    if d > MAX_SPECTRUM_D:
        raise DimensionMismatch(f"trace-split enumeration needs d <= {MAX_SPECTRUM_D}, got {d}")
    n = d * d
    return list(range(n - d + 1, n + 1))


def _check_dk(d: int, k: int) -> None:
    if not isinstance(d, (int, np.integer)) or d < 3:
        raise DimensionMismatch(f"k-parametrized overlap needs d >= 3, got {d!r}")
    n = d * d
    if not isinstance(k, (int, np.integer)) or not (n - d < k <= n):
        raise KOutOfRange(f"k must satisfy {n - d} < k <= {n} for d = {d}, got {k!r}")


@dataclass(frozen=True)
class SemiSicParams:
    """Validated parameter bundle (d, b, k) with its roots (a_minus, a_plus) = trace_values(d, b).

    The counting identity k a- + (d^2 - k) a+ = d must hold within TOL_ROUND;
    for d >= 3 that is equivalent to the admissible-k bound. For d = 2 it
    admits k = 2 (the strict family), and every k at the SIC point b = 1/12,
    so a qubit k must also be 2 or 4 (the strict split or one trace class).
    """

    d: int
    b: float
    k: int
    a_minus: float = field(init=False)
    a_plus: float = field(init=False)

    def __post_init__(self) -> None:
        lo, hi = trace_values(self.d, self.b)
        object.__setattr__(self, "a_minus", lo)
        object.__setattr__(self, "a_plus", hi)
        n = self.d * self.d
        if not isinstance(self.k, (int, np.integer)) or not 0 < self.k <= n:
            raise KOutOfRange(f"k must lie in 1..{n}, got {self.k!r}")
        counted = self.k * self.a_minus + (n - self.k) * self.a_plus
        if abs(counted - self.d) > TOL_ROUND:
            raise KOutOfRange(
                f"counting identity fails: k a- + (d^2-k) a+ = {counted!r} != {self.d}"
            )
        if self.d == 2 and self.k not in (2, 4):
            raise KOutOfRange(f"a qubit k must be 2 or 4, got {self.k!r}")

    @classmethod
    def from_b(cls, d: int, b: float, k: int) -> "SemiSicParams":
        """Bundle for overlap b and split k.

        Where (d, k) pins the overlap (every k for d >= 3, k = d^2 in any d)
        the closed form is stored; b must lie within linalg.TOL_COND of it,
        else KOutOfRange. Otherwise b itself is used (the qubit family),
        except that a qubit b at most TOL_COND above the double root 1/12
        (where a fitted b of a near-SIC member can land) is that root.
        """
        b = float(b)
        if d >= 3:
            pinned = b_from_k(d, k)  # 1/(d^2 (d + 1)) at k = d^2
        elif k == 4 or 1.0 / 12.0 < b <= 1.0 / 12.0 + TOL_COND:
            pinned = 1.0 / 12.0  # the qubit SIC point, the double root 1/(4(d^2 - 1))
        else:
            pinned = None
        if pinned is not None:
            if not abs(b - pinned) <= TOL_COND:
                raise KOutOfRange(
                    f"b = {b!r} does not match the overlap {pinned!r} pinned by "
                    f"(d, k) = ({d}, {k})"
                )
            b = pinned
        # a numpy integer k is stored as an int; any other k is left to __post_init__
        k = int(k) if isinstance(k, np.integer) else k
        return cls(d=int(d), b=b, k=k)


@dataclass(frozen=True, eq=False)
class Povm:
    """Ordered stack of d^2 Hermitian effects summing to the identity.

    elements has shape (d^2, d, d). Construction measures the stack once: the
    Hermitian deviation of the elements as given, then the completeness defect
    and eigenvalues of the symmetrized elements it keeps. Junk (wrong shape,
    non-finite, or past a *_GATE) raises MalformedPovm; verify() classifies the
    same measurements at TOL_COND. Equality and hashing are by identity.
    """

    dim: int
    elements: np.ndarray
    # (herm_dev, comp_dev, eigenvalues of each element), measured once
    _structure: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise MalformedPovm(f"dimension must be an integer >= 2, got {self.dim!r}")
        d = int(self.dim)
        stack = np.asarray(self.elements, dtype=complex)
        if stack.shape != (d * d, d, d):
            raise MalformedPovm(f"expected {d * d} elements of shape ({d}, {d}), "
                                f"got array shape {stack.shape}")
        if not np.isfinite(stack).all():
            raise MalformedPovm("elements contain non-finite entries")
        adjoint = stack.conj().transpose(0, 2, 1)
        herm_dev = float(np.abs(stack - adjoint).max())
        # + 0.0 stores every zero as +0.0, so a reloaded stack keeps every bit
        stack = 0.5 * (stack + adjoint) + 0.0
        total = stack.sum(axis=0)
        total.flat[::d + 1] -= 1.0
        comp_dev = float(np.abs(total).max())
        eigs = np.linalg.eigvalsh(stack)
        if herm_dev > HERMITIAN_GATE:
            raise MalformedPovm(f"elements are not Hermitian (max deviation {herm_dev:.3e})")
        if comp_dev > COMPLETENESS_GATE:
            raise MalformedPovm(f"elements do not sum to the identity (defect {comp_dev:.3e})")
        if eigs[:, 0].min() < -PSD_GATE:
            x = int(eigs[:, 0].argmin())
            raise MalformedPovm(f"element {x} has negative eigenvalue {eigs[x, 0]:.3e}")
        stack.setflags(write=False)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "elements", stack)
        object.__setattr__(self, "_structure", (herm_dev, comp_dev, eigs))

    @classmethod
    def from_vectors(cls, vectors) -> "Povm":
        """Rank-one POVM E_x = |v_x><v_x| from unnormalized vectors (rows)."""
        rows = np.asarray(vectors, dtype=complex)
        if rows.ndim != 2:
            raise MalformedPovm(f"expected a 2-D array of row vectors, got shape {rows.shape}")
        n, d = rows.shape
        if n != d * d:
            raise MalformedPovm(f"expected {d * d} vectors of length {d}, got {n}")
        stack = np.einsum("xi,xj->xij", rows, rows.conj())
        return cls(dim=d, elements=stack)

    def __len__(self) -> int:
        return self.elements.shape[0]

    def __getitem__(self, idx: int) -> np.ndarray:
        return self.elements[idx]

    def traces(self) -> np.ndarray:
        return self.elements.trace(axis1=1, axis2=2).real

    @cached_property
    def _gram(self) -> tuple[np.ndarray, np.ndarray]:
        """The Gram matrix G_xy = Tr[E_x E_y] and its eigenvalues, computed once."""
        gram = np.einsum("xij,yji->xy", self.elements, self.elements).real
        return gram, np.linalg.eigvalsh(gram)

    @cached_property
    def _report(self) -> "VerificationReport":
        """verify()'s report, measured once."""
        return _measure(self)


@dataclass(frozen=True)
class VerificationReport:
    """What verify() measured and the resulting classification, in verify --json's key order."""

    classification: str
    fitted_b: float
    k: int
    max_violation: float
    worst_condition: str  # the condition whose deviation is max_violation, one of CONDITIONS
    equi_dev: float
    comp_dev: float
    psd_dev: float
    herm_dev: float
    trace_dev: float
    is_ic: bool
    all_rank_one: bool
    equiangular: bool
    trace_classes: tuple[tuple[float, int], ...]


def verify(povm: Povm) -> VerificationReport:
    """Measure how far a POVM is from the defining semi-SIC conditions.

    Checks rank-one elements and informational completeness (the elements
    span the full operator space), then takes five deviations: equiangularity
    (overlaps about their mean, fitted_b), completeness, positivity, the
    Hermitian deviation max |E - E^dagger| of the elements as given, and the
    trace residual max_x |a_x^2 - a_x + (d^2 - 1) fitted_b|, which vanishes
    exactly when every trace is a root of the trace quadratic. Elements with
    a < 1/2 sit on the small root; when all traces agree within TOL_COND, or
    a qubit's do not split 2 + 2 (near the double root 1/2 they may spread by
    about sqrt(TOL_COND)), there is one class, the SIC with k = d^2. The report
    keeps each deviation (equi_dev, comp_dev, psd_dev, herm_dev, trace_dev) and
    names the condition of the largest (worst_condition, first of CONDITIONS
    on a tie). That largest is max_violation: at most linalg.TOL_COND, the one gate,
    means SIC (one trace class) or StrictSemiSIC (two), anything more
    NotSemiSIC; the rank and IC cutoffs, relative to max(1, largest |eigenvalue|),
    are TOL_COND too. Only the Gram matrix (kept on the Povm, where dual_basis
    reads it) and the traces are new work: the rest the Povm constructor
    measured. The report is kept.
    """
    if not isinstance(povm, Povm):
        raise MalformedPovm(f"expected a Povm, got {type(povm).__name__}")
    return povm._report


def verified(povm: Povm) -> VerificationReport:
    """verify()'s report of a POVM it accepts, else NotSemiSic naming any failed IC or rank
    test, then the largest violation and the condition it breaks."""
    report = verify(povm)
    if report.classification != NOT_SEMI_SIC:
        return report
    failed = [why for ok, why in ((report.is_ic, "not informationally complete"),
                                  (report.all_rank_one, "not rank one")) if not ok]
    failed.append(f"max violation {report.max_violation:.3e} ({report.worst_condition})")
    raise NotSemiSic(f"input is not a semi-SIC ({', '.join(failed)})")


def _measure(povm: Povm) -> VerificationReport:
    d = povm.dim
    n = d * d
    herm_dev, comp_dev, eig_stack = povm._structure

    gram, gram_eigs = povm._gram
    # the off-diagonal entries in row order; sum() / size is the float64 arithmetic of mean()
    off = gram.ravel()[1:].reshape(n - 1, n + 1)[:, :-1].ravel()
    fitted_b = float(off.sum() / off.size)
    equi_dev = float(np.abs(off - fitted_b).max())

    psd_dev = max(0.0, -float(eig_stack.min()))
    abs_eigs = np.abs(eig_stack)
    scale = abs_eigs.max(axis=1, initial=1.0)
    ranks = (abs_eigs > TOL_COND * scale[:, None]).sum(axis=1)
    all_rank_one = bool((ranks == 1).all())

    ic_scale = max(1.0, float(np.abs(gram_eigs).max()))
    is_ic = bool(gram_eigs.min() > TOL_COND * ic_scale)

    traces = povm.traces()
    trace_dev = float(np.abs(traces * traces - traces + (n - 1) * fitted_b).max())
    small = traces < 0.5
    k = int(np.count_nonzero(small))
    # one trace class: the constant-trace (SIC) convention is k = d^2; a qubit splits 2 + 2
    if k in (0, n) or float(traces.max() - traces.min()) <= TOL_COND or (d == 2 and k != 2):
        k = n
        classes = ((float(traces.sum() / n), n),)
    else:
        lo, hi = traces[small].sum() / k, traces[~small].sum() / (n - k)
        classes = ((float(lo), k), (float(hi), n - k))

    deviations = (equi_dev, comp_dev, psd_dev, herm_dev, trace_dev)
    max_violation = max(deviations)
    equiangular = equi_dev <= TOL_COND

    if is_ic and all_rank_one and max_violation <= TOL_COND:
        classification = SIC if len(classes) == 1 else STRICT_SEMI_SIC
    else:
        classification = NOT_SEMI_SIC

    return VerificationReport(
        classification=classification,
        fitted_b=fitted_b,
        k=k,
        max_violation=max_violation,
        worst_condition=CONDITIONS[deviations.index(max_violation)],
        equi_dev=equi_dev,
        comp_dev=comp_dev,
        psd_dev=psd_dev,
        herm_dev=herm_dev,
        trace_dev=trace_dev,
        is_ic=is_ic,
        all_rank_one=all_rank_one,
        equiangular=equiangular,
        trace_classes=classes,
    )

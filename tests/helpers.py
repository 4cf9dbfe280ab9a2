"""Shared oracles and random-object generators for the test suite."""

import numpy as np

from semisic import model
from semisic.linalg import TOL_COND, TOL_PSD, TOL_RANK
from semisic.model import Povm, SemiSicParams, VerificationReport, verify
from semisic.qubit import QubitFamilyPoint, _completion_unitary, construct
from semisic.search import _ARMIJO, _MAX_HALVINGS, _objective


def wh_sic_vectors(t: float = 0.0) -> np.ndarray:
    """The (9, 3) vectors v_x of a d = 3 SIC E_x = |v_x><v_x|: the shift/clock orbit of
    the fiducial (0, 1, -e^{it}) / sqrt(2), divided by sqrt(3). Every real t gives a SIC;
    t = 0 is the Hesse point."""
    w = np.exp(2j * np.pi / 3.0)
    shift = np.roll(np.eye(3), 1, axis=0)
    clock = np.diag([1.0, w, w * w])
    fid = np.array([0.0, 1.0, -np.exp(1j * t)]) / np.sqrt(2.0)
    kets = [
        np.linalg.matrix_power(shift, j) @ np.linalg.matrix_power(clock, m) @ fid
        for j in range(3)
        for m in range(3)
    ]
    return np.array(kets) / np.sqrt(3.0)


def hesse_sic() -> Povm:
    """d = 3 SIC at the Hesse point of wh_sic_vectors.

    Serves as the independent oracle for everything d = 3: verification,
    dual frames, and the k = 9 search regression.
    """
    return Povm.from_vectors(wh_sic_vectors(0.0))


def perturbed_sic_stack(condition: str, size: float = 4e-9) -> np.ndarray:
    """The Hesse SIC's elements with one defining condition of model.CONDITIONS broken
    by about size and every other deviation smaller (verify's worst_condition)."""
    rows = wh_sic_vectors(0.0)
    if condition == "completeness":  # every element scaled alike: overlaps stay equal
        return Povm.from_vectors(rows * np.sqrt(1.0 + size)).elements
    if condition in ("equiangularity", "trace"):
        # rotate v_0 and v_1 into each other, which keeps E_0 + E_1. With the phase
        # i<v_1|v_0> their norms, so the traces, stay and only overlaps move; with
        # <v_1|v_0> the traces move, and the overlaps by half as much: complete
        # rank-one elements have a_x^2 + sum_{y != x} G_xy = a_x, so traces cannot
        # move on their own
        ip = np.vdot(rows[1], rows[0])
        phase = ip / abs(ip) * (1j if condition == "equiangularity" else 1.0)
        c, s = np.cos(size), np.sin(size)
        rows[:2] = c * rows[0] + s * phase * rows[1], c * rows[1] - s * np.conj(phase) * rows[0]
        return Povm.from_vectors(rows).elements
    stack = np.array(Povm.from_vectors(rows).elements)
    if condition == "hermiticity":  # an anti-Hermitian part, which Povm drops
        stack[0, :2, :2] += 1j * size * np.array([[0.0, 1.0], [1.0, 0.0]])
    elif condition == "positivity":  # size |w><w| moved from E_0 to E_1, w orthogonal to v_0
        w = np.array([1.0, 0.0, 0.0]) - rows[0] * rows[0, 0].conj() / np.vdot(rows[0], rows[0])
        projector = np.outer(w, w.conj()) / np.vdot(w, w).real
        stack[0] -= size * projector
        stack[1] += size * projector
    else:
        raise ValueError(condition)
    return stack


def two_call_vectors(rng: np.random.Generator, d: int) -> np.ndarray:
    """d^2 random vectors of length d scaled to total norm^2 d, real and imaginary parts
    from two draws: the fixed starting points some search tests were written against."""
    rows = rng.standard_normal((d * d, d)) + 1j * rng.standard_normal((d * d, d))
    return rows * np.sqrt(d / np.sum(np.abs(rows) ** 2))


def count_measurements(monkeypatch) -> list:
    """Record the Povm of every measurement that model.verify makes, one entry each."""
    calls = []
    measure = model._measure

    def counted(povm):
        calls.append(povm)
        return measure(povm)

    monkeypatch.setattr(model, "_measure", counted)
    return calls


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    # fix column phases so the distribution is Haar, not QR-biased
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = z @ z.conj().T
    return m / float(np.trace(m).real)


def hermitian_noise(rng: np.random.Generator, shape: tuple, size: float) -> np.ndarray:
    """Random Hermitian matrices (a stack of them) whose largest entry each is size."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h = 0.5 * (z + np.conj(np.swapaxes(z, -1, -2)))
    return size * h / np.max(np.abs(h), axis=(-2, -1), keepdims=True)


def disguised_stack(rng: np.random.Generator, povm: Povm, noise: float) -> np.ndarray:
    """povm's elements conjugated by a Haar unitary, permuted, plus Hermitian noise of the
    given size, as the stack Povm receives (Hermitian only to rounding)."""
    u = haar_unitary(rng, povm.dim)
    stack = np.einsum("ij,xjk,lk->xil", u, povm.elements[rng.permutation(len(povm))], u.conj())
    return stack + hermitian_noise(rng, stack.shape, noise)


def disguise(rng: np.random.Generator, povm: Povm, noise: float) -> Povm:
    """The Povm of disguised_stack."""
    return Povm(dim=povm.dim, elements=disguised_stack(rng, povm, noise))


def block_dual(povm: Povm, params: SemiSicParams) -> np.ndarray:
    """The paper's two-block closed form of a semi-SIC's dual frame.

    Reference for dual.dual_basis. S and T are the sums of the params.k
    small-trace elements and of the rest, m = d^2 - d - 1, and an element of
    trace a (partner trace a', own block sum P, other block sum Q) has

        F_y = E_y / (a^2 - b)  -  P (a'^2 - b) / ((a^2 - b) m)  -  Q / m,

    with a and a' the measured mean traces of the two blocks (an empty block
    takes 1 - a).
    """
    d = povm.dim
    traces = povm.traces()
    order = np.argsort(traces, kind="stable")
    blocks = order[: params.k], order[params.k :]
    a_lo = float(traces[blocks[0]].mean())
    a_hi = float(traces[blocks[1]].mean()) if blocks[1].size else 1.0 - a_lo
    dens = a_lo * a_lo - params.b, a_hi * a_hi - params.b
    sums = [povm.elements[ys].sum(axis=0) for ys in blocks]
    m = float(d * d - d - 1)
    duals = np.empty_like(povm.elements)
    for own, other in ((0, 1), (1, 0)):
        ys = blocks[own]
        duals[ys] = (povm.elements[ys] / dens[own]
                     - sums[own] * (dens[other] / (dens[own] * m)) - sums[other] / m)
    return duals


def reference_structure(elements, d: int) -> tuple:
    """Reference for Povm._structure: (herm_dev, comp_dev, eigenvalues) of a stack of
    d^2 elements by np.max and by subtracting np.eye, which the constructor avoids."""
    stack = np.asarray(elements, dtype=complex)
    adjoint = stack.conj().transpose(0, 2, 1)
    herm_dev = float(np.max(np.abs(stack - adjoint)))
    stack = 0.5 * (stack + adjoint) + 0.0
    comp_dev = float(np.max(np.abs(stack.sum(axis=0) - np.eye(d))))
    return herm_dev, comp_dev, np.linalg.eigvalsh(stack)


def reference_report(elements, d: int) -> VerificationReport:
    """Reference for verify() on Povm(dim=d, elements=elements): the same measurements
    with a boolean off-diagonal mask, ndarray.mean and np.maximum, which model._measure
    replaces by cheaper calls, and the worst condition by np.argmax."""
    n = d * d
    herm_dev, comp_dev, eigs = reference_structure(elements, d)
    stack = np.asarray(elements, dtype=complex)
    stack = 0.5 * (stack + stack.conj().transpose(0, 2, 1)) + 0.0
    gram = np.einsum("xij,yji->xy", stack, stack).real
    gram_eigs = np.linalg.eigvalsh(gram)
    off = gram[~np.eye(n, dtype=bool)]
    fitted_b = float(off.mean())
    equi_dev = float(np.max(np.abs(off - fitted_b)))
    psd_dev = max(0.0, -float(np.min(eigs)))
    scale = np.maximum(1.0, np.max(np.abs(eigs), axis=1))
    all_rank_one = bool(np.all(np.sum(np.abs(eigs) > TOL_RANK * scale[:, None], axis=1) == 1))
    is_ic = bool(np.min(gram_eigs) > TOL_RANK * max(1.0, float(np.max(np.abs(gram_eigs)))))
    traces = stack.trace(axis1=1, axis2=2).real
    trace_dev = float(np.max(np.abs(traces * traces - traces + (n - 1) * fitted_b)))
    small = traces < 0.5
    k = int(np.count_nonzero(small))
    if k in (0, n) or float(np.max(traces) - np.min(traces)) <= TOL_COND or (d == 2 and k != 2):
        k, classes = n, ((float(traces.mean()), n),)
    else:
        classes = ((float(traces[small].mean()), k), (float(traces[~small].mean()), n - k))
    deviations = (equi_dev, comp_dev, psd_dev, herm_dev, trace_dev)
    max_violation = float(np.max(deviations))
    ok = is_ic and all_rank_one and max_violation <= TOL_COND
    label = model.NOT_SEMI_SIC
    if ok:
        label = model.SIC if len(classes) == 1 else model.STRICT_SEMI_SIC
    return VerificationReport(label, fitted_b, k, max_violation,
                              model.CONDITIONS[int(np.argmax(deviations))], *deviations,
                              is_ic, all_rank_one, equi_dev <= TOL_COND, classes)


def reference_dual(povm: Povm) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reference for dual.dual_basis: the duals by one Gram solve and the permutation
    built int by int."""
    gram = np.einsum("xij,yji->xy", povm.elements, povm.elements).real
    flat = povm.elements.reshape(len(povm), -1)
    duals = np.linalg.solve(gram, flat).reshape(povm.elements.shape)
    return duals, tuple(int(x) for x in np.argsort(povm.traces(), kind="stable"))


def reference_probabilities(rho, povm: Povm) -> np.ndarray:
    """Reference for dual.probabilities on a state it accepts."""
    p = np.einsum("yij,ji->y", povm.elements, np.asarray(rho, dtype=complex)).real
    p[(p < 0) & (p > -TOL_PSD)] = 0.0
    return p


def reference_reconstruct(p, duals: np.ndarray) -> np.ndarray:
    """Reference for dual.reconstruct: np.tensordot of p with the duals."""
    return np.tensordot(np.asarray(p, dtype=float), duals, axes=1)


def anchor_search_canonicalize(povm: Povm):
    """Reference for qubit.canonicalize: search the anchor assignments.

    povm must be a verified qubit semi-SIC whose fitted b canonicalize
    admits. Pairs (psi_1, psi_2) are tried in index order over the
    small-trace class (every ordered pair for one trace class), then both
    orders of the other two; the first assignment whose rotated elements
    lie within max(1e-9, 1e3 max_violation) of construct(b) gives
    (u, canonical, b). Returns None when none does.
    """
    report = verify(povm)
    b = SemiSicParams.from_b(2, report.fitted_b, report.k).b
    target = construct(b).elements
    gate = max(1e-9, 1e3 * report.max_violation)
    lows = np.flatnonzero(povm.traces() < 0.5) if len(report.trace_classes) == 2 else range(4)
    for i1, i2 in [(i, j) for i in lows for j in lows if i != j]:
        rest = [x for x in range(4) if x not in (i1, i2)]
        _, vecs = np.linalg.eigh(povm[i1])
        w1 = _completion_unitary(vecs[:, -1])
        z = (w1 @ povm[i2] @ w1.conj().T)[0, 1]
        if abs(z) < 1e-14:
            continue  # psi_2 parallel or orthogonal to psi_1: wrong anchor
        w = np.diag([1.0, z / abs(z)]) @ w1
        for i3, i4 in ((0, 1), (1, 0)):
            order = [i1, i2, rest[i3], rest[i4]]
            mapped = np.einsum("ij,xjk,lk->xil", w, povm.elements[order], w.conj())
            if float(np.max(np.abs(mapped - target))) <= gate:
                return w.conj().T, Povm(dim=2, elements=mapped), b
    return None


def reference_region_csv(scan) -> str:
    """A region scan as CSV, every row formatted on its own.

    Reference for dual.write_region_csv, whose bytes must equal these.
    """
    rows = ["%.17g,%.17g,%.17g,%.17g,%d\n" % row for row in scan.tolist()]
    return "p1,p2,p3,f,feasible\n" + "".join(rows)


def closed_form_directions(point: QubitFamilyPoint) -> tuple[np.ndarray, np.ndarray]:
    """The paper's closed-form Bloch directions of the four family kets.

    Reference for bloch._directions, which takes them from qubit.family_kets.
    Returns the weights a_x/2 and the directions n_x (rows) of the table in
    bloch's module docstring.
    """
    rr, th = point.r, point.theta
    c = 2.0 * np.sqrt(2.0) / 3.0
    dirs = np.array(
        [
            [0.0, 0.0, 1.0],
            [2.0 * rr * np.sqrt(max(0.0, 1.0 - rr * rr)), 0.0, 2.0 * rr * rr - 1.0],
            [-c * np.cos(th), -c * np.sin(th), -1.0 / 3.0],
            [-c * np.cos(th), +c * np.sin(th), -1.0 / 3.0],
        ]
    )
    a = point.params
    weights = 0.5 * np.array([a.a_minus, a.a_minus, a.a_plus, a.a_plus])
    return weights, dirs


def bisection_ball_residual(m: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Reference for bloch._ball_residual: 200 bisection steps on ||r(lam)|| = 1.

    min ||M r - rhs|| over ||r|| <= 1, with r(lam) = (M^T M + lam I)^-1 M^T rhs;
    lam is bracketed by doubling and the bracket's upper end (||r|| <= 1) is
    returned. For a least-squares solution inside the ball the bracket
    shrinks to lam = 2^-200 of its start, which leaves that solution.
    """
    gram = m.T @ m
    g = m.T @ rhs
    vals, vecs = np.linalg.eigh(gram)
    gh = vecs.T @ g

    def norm_at(lam: float) -> float:
        return float(np.linalg.norm(gh / (vals + lam)))

    lo, hi = 0.0, float(np.linalg.norm(g)) + float(vals[-1]) + 1.0
    while norm_at(hi) > 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm_at(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    r = vecs @ (gh / (vals + hi))
    return r, float(np.linalg.norm(m @ r - rhs))


def serial_armijo_steps(rows, direction, f, slope, b, start=0):
    """Reference for search._armijo_steps: one halving per objective call.

    Per stacked restart, the first of the steps 2^-start, 2^-(start+1), ...
    (up to halving _MAX_HALVINGS - 1) along -direction that meets the Armijo
    condition for the given slope, and the objective there; NaN where no
    trial does.
    """
    trial, fc, pending = np.full(len(f), 0.5**start), np.full(len(f), np.nan), np.arange(len(f))
    for _ in range(start, _MAX_HALVINGS):
        values = _objective(rows[pending] - trial[pending, None, None] * direction[pending], b)
        ok = values <= f[pending] - _ARMIJO * trial[pending] * slope[pending]
        fc[pending[ok]] = values[ok]
        pending = pending[~ok]
        if not pending.size:
            break
        trial[pending] *= 0.5
    trial[pending] = np.nan
    return trial, fc


def h0_scale(s, y, gamma0):
    """H0's scale for one restart's history: <s, y> / <y, y> of the newest pair (the last
    slot), or gamma0 when that slot is empty (zero) or the history has no slot."""
    return float(s[-1] @ y[-1] / (y[-1] @ y[-1])) if s[-1:].any() else gamma0


def dense_lbfgs_direction(grad, s, y, gamma0):
    """Reference for search._lbfgs_directions, one restart in real coordinates.

    Builds the inverse Hessian H densely from H0 = h0_scale(s, y, gamma0) I by the
    update H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T with rho = 1 / <s, y> for
    each stored pair, oldest first, skipping empty (zero) slots. Returns H grad.
    """
    n = grad.size
    h = h0_scale(s, y, gamma0) * np.eye(n)
    for si, yi in zip(s, y):
        if not si.any():
            continue
        ri = 1.0 / (si @ yi)
        left = np.eye(n) - ri * np.outer(si, yi)
        h = left @ h @ left.T + ri * np.outer(si, si)
    return h @ grad

"""Numerical search for equiangular rank-one POVMs.

Elements are parametrized as E_x = |v_x><v_x| for d^2 unnormalized vectors,
which bakes in positivity and rank one. The remaining conditions become a
penalized least-squares objective

    f(V) = sum_{x != y} (|<v_x|v_y>|^2 - b)^2  +  w ||sum_x |v_x><v_x| - I||_F^2

minimized by multi-start L-BFGS descent. One generator seeded by the config's
seed draws every start in one call, restart i's from block i. All restarts
advance as one batch, computed per restart, so a restart's result depends
neither on the batch nor on how many restarts run.
Each restart keeps its last m = 5 pairs s = change of the vectors and y = change of
the gradient, with inner products Re<a, b> (the real coordinates of the vectors); a
pair is kept only when Re<s, y> > 0. Its direction r = H grad f comes from the two-loop
recursion with H0 = gamma I, and gamma is kept beside the pairs: gamma0 =
1e-2 / (1 + |grad f|) at the starting gradient, then Re<s, y> / <y, y> of each pair it
stores. The step is the first of 1, 1/2, 1/4, ... along -r that meets the Armijo
condition for the slope Re<grad f, r>. A restart stops as goal at f < residual_goal,
else as cap. Only steps that do not raise f are accepted, so the objective trace is
monotone.

One iteration evaluates f and its gradient at the full step for all live
restarts at once (one Gram each), as most quasi-Newton steps pass there
(Nocedal and Wright, Numerical Optimization, 3.1). Only the restarts that fail try
halvings from 1/2 on, three per stacked call, whose Grams also give the gradient at
the step they take, so no point is evaluated twice. Inner products are batched
(R, 1, n) @ (R, n, 1) matmuls. A restart's pairs are one real (m, 2, 2 d^3) array,
each pair divided by sqrt(Re<s, y>), newest last; an empty slot is zero and adds nothing,
and after it iterations a restart holds at most its newest min(it, m), the slots run.
Every max(1, cap // 200) iterations all restarts' f go into one f-history. A restart that
stores no pair and keeps its vectors and f bitwise is at a fixed point: it would repeat
that iteration until the cap, so it retires there at once as cap, its f standing at every
later trace point. A restart that finds no step (r does not descend,
or no halving passes) keeps its vectors, f and gradient, so it is such a point, and so
is an exactly zero gradient, as its step is zero. Every report carries gradient_check,
a finite-difference check of the gradient at the first five starts, from their own Grams.
Hits, restarts below the residual goal, are finished by _polish, a Levenberg-Marquardt
refinement, lowest f first until one passes verify at TOL_COND, the one gate;
grad f = 2 J^T (dev, delta). At a d = 3 SIC, J has 19 zero singular values (21 at the
Hesse point): 17 of the gauge, the Weyl-Heisenberg family's tangent, and one direction
along which f grows quartically, so the polish converges only linearly at (3, 9) hits.

For d >= 3 the target overlap is pinned by (d, k); for d = 2 it is supplied
(the k = 4 SIC point is the default there); objective, gradient and
SearchConfig admit b by one rule, and w is always 10. Residuals below 1e-12 are
reached for d = 2 and for (d, k) = (3, 9), while (3, 7) and (3, 8) stall; the
README's search notes give the measured values.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidConfig
from .documents import povm_document
from .linalg import TOL_COND
from .model import NOT_SEMI_SIC, Povm, SemiSicParams, b_from_k, verify
from .textio import write_json

STOP_REASONS = ("goal", "cap")
_GOAL, _CAP = range(len(STOP_REASONS))
# Configs are refused (InvalidConfig, CLI exit 2) before anything is allocated when
# max(3 restarts, 32) stacks of (d^2, d^2) would exceed this many complex entries (64 MB);
# d <= 19 is admitted. Under the cap: the full step's (restarts, d^2, d^2) Grams, a ladder's
# (pending, _LADDER = 3, d^2, d^2), the starts' restarts + 2 min(restarts, 5), and each half
# (s, y) of the L-BFGS history (restarts, _MEMORY, 2, 2 d^3): _MEMORY d^3 <= 3 d^4 complex.
# Outside it, the f-history: at most cap // stride + 1 <= 400 rows of restarts floats,
# so <= 3.2 KB per restart.
MAX_SEARCH_ENTRIES = 2**22
_PENALTY_WEIGHT = 10.0  # w of the objective
_INITIAL_STEP = 1e-2  # gradient steps start at this, divided by 1 + |gradient|
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_LADDER = 3  # Armijo trials per stacked call; quasi-Newton steps mostly take the first
_HALVINGS = 0.5 ** np.arange(_MAX_HALVINGS)  # exact, so trials equal repeated halving
_MEMORY = 5  # L-BFGS pairs kept per restart
_TRACE_POINTS = 200
_POLISH_SOLVES = 40  # Levenberg-Marquardt solves that finish a hit
_POLISH_STOP = (TOL_COND / 100.0) ** 2  # f at which the finish stops


@dataclass(frozen=True)
class SearchConfig:
    """Validated search parameters. b is admitted at construction by
    SemiSicParams.from_b (at TOL_COND, and pinned where (d, k) fixes it);
    left out, it is derived from (d, k) when d >= 3 and required for d = 2
    except k = 4, which defaults to the SIC point 1/12. Configs over
    MAX_SEARCH_ENTRIES are refused. A restart stops as goal at f < residual_goal."""

    d: int
    k: int
    b: float | None = None
    restarts: int = 20
    max_iterations: int = 2000
    seed: int = 0
    residual_goal: float = 1e-12

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise InvalidConfig(f"k must be an integer, got {self.k!r}")
        for name, low in (("d", 2), ("restarts", 1), ("max_iterations", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise InvalidConfig(f"{name} must be an integer >= {low}, got {value!r}")
        if self.seed >= 2**64:
            raise InvalidConfig(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        entries = max(3 * self.restarts, 32) * self.d**4
        if entries > MAX_SEARCH_ENTRIES:
            raise InvalidConfig(f"d = {self.d} with {self.restarts} restarts needs {entries} "
                                f"stacked entries, over the cap {MAX_SEARCH_ENTRIES}")
        goal = self.residual_goal
        if not (isinstance(goal, (int, float)) and not isinstance(goal, bool)
                and np.isfinite(goal) and goal > 0):
            raise InvalidConfig(f"residual_goal must be positive and finite, got {goal!r}")
        object.__setattr__(self, "b", _resolve_b(self.d, self.k, self.b))


def _resolve_b(d: int, k: int, b: float | None) -> float:
    """The search's overlap for (d, k, b), by SearchConfig's rule; else InvalidConfig."""
    if b is None and d == 2 and k != 4:
        raise InvalidConfig(f"for d = 2, k = {k} an explicit b is required "
                            "(only k = 4 defaults, to the SIC point 1/12)")
    try:
        target = b if b is not None else 1.0 / 12.0 if d == 2 else b_from_k(d, k)
        return SemiSicParams.from_b(d, target, k).b
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"(d, k, b) = ({d}, {k}, {b!r}) is not admissible: {exc}") from exc


@dataclass(frozen=True)
class SearchReport:
    """Outcome of run_search. best_povm, set only when the goal was met, is the reported hit
    polished: the first in order of f that verifies, else the lowest; best_residual is its f
    (else the descent's best f), objective_trace its descent's, and classification and
    observed_k echo verify() of it. stop_reasons are goal or cap, one per restart;
    gradient_check is gradient_check's error at the first min(restarts, 5) starts."""

    config: SearchConfig
    best_residual: float
    best_povm: Povm | None
    restarts_run: int
    iterations_per_restart: tuple[int, ...]
    stop_reasons: tuple[str, ...]
    objective_trace: tuple[tuple[int, float], ...]
    gradient_check: float
    classification: str | None = None
    observed_k: int | None = None

    def to_dict(self) -> dict:
        povm = self.best_povm
        return {
            "config": asdict(self.config),
            "best_residual": self.best_residual,
            "best_povm": None if povm is None else povm_document(
                povm, b=self.config.b, k=self.observed_k),
            "restarts_run": self.restarts_run,
            "iterations_per_restart": list(self.iterations_per_restart),
            "stop_reasons": list(self.stop_reasons),
            "objective_trace": [[it, f] for it, f in self.objective_trace],
            "gradient_check": self.gradient_check,
            "classification": self.classification,
            "observed_k": self.observed_k,
        }

    def save(self, path) -> None:
        write_json(path, self.to_dict())


def _coerce_vectors(vectors, d: int) -> np.ndarray:
    rows = np.asarray(vectors, dtype=complex)
    if rows.shape != (d * d, d):
        raise ValueError(f"expected {d * d} vectors of length {d}, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValueError("vectors contain non-finite entries")
    return rows


def _sum2(x: np.ndarray) -> np.ndarray:
    """Sum over the last two axes, one stacked matrix at a time."""
    return np.add.reduce(x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],)), axis=-1)


def _parts(rows: np.ndarray, b: float):
    *lead, n, d = rows.shape
    conj, cols = rows.conj(), rows.swapaxes(-1, -2)
    gram = conj @ cols
    dev = np.abs(gram)
    np.square(dev, out=dev)
    dev -= b
    dev.reshape(*lead, n * n)[..., ::n + 1] = 0.0  # the diagonal
    delta = cols @ conj
    delta.reshape(*lead, d * d)[..., ::d + 1] -= 1.0
    return gram, dev, delta


def _value(dev: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """f = sum dev^2 + w sum |delta|^2 of each matrix, from the _parts of a stack."""
    return _sum2(dev * dev) + _PENALTY_WEIGHT * _sum2(np.abs(delta) ** 2)


def _objective(rows: np.ndarray, b: float) -> np.ndarray:
    """Objective of each (d^2, d) matrix of a (..., d^2, d) stack."""
    return _value(*_parts(rows, b)[1:])


def _vjp(rows, gram, u, e, scale=1.0):
    """scale J^T (u, e) for J = d(dev, delta) at a stack, under Re<a, b> and sum u u' +
    w Re<e, e'> (so |(dev, delta)|^2 = f), for real symmetric u with a zero diagonal and
    Hermitian e. scale joins the constants, so a power of two scales every bit exactly."""
    return ((4.0 * scale) * (u * gram.swapaxes(-1, -2)) @ rows
            + (2.0 * scale * _PENALTY_WEIGHT) * rows @ e.conj())


def _jvp(rows, gram, p):
    """J p at a stack: the change of (dev, delta) along p, dev's diagonal zeroed."""
    cols, p_cols = rows.swapaxes(-1, -2), p.swapaxes(-1, -2)
    du = 2.0 * (gram.conj() * (p.conj() @ cols + rows.conj() @ p_cols)).real
    *lead, n, _ = du.shape
    du.reshape(*lead, n * n)[..., ::n + 1] = 0.0
    return du, p_cols @ rows.conj() + cols @ p.conj()


def _value_and_gradient(rows: np.ndarray, b: float):
    """_objective and its gradient 2 J^T (dev, delta) of a stack from one Gram per matrix;
    the gradient's real/imag parts are the real-coordinate partials (tests check them)."""
    gram, dev, delta = _parts(rows, b)
    return _value(dev, delta), _vjp(rows, gram, dev, delta, 2.0)


def objective(vectors, d: int, k: int, b: float | None = None) -> float:
    """Penalized equiangularity objective at the given vectors, with w = 10 and
    b admitted as SearchConfig(d=d, k=k, b=b) admits it (InvalidConfig if not)."""
    return float(_objective(_coerce_vectors(vectors, d), _resolve_b(d, k, b)))


def gradient(vectors, d: int, k: int, b: float | None = None) -> np.ndarray:
    """Gradient of objective() with respect to the stacked vectors."""
    return _value_and_gradient(_coerce_vectors(vectors, d), _resolve_b(d, k, b))[1]


def _armijo_steps(rows, direction, f, slope, b):
    """Halvings along -direction after a failed full step: per restart, the first of the
    steps 1/2, 1/4, ... (up to halving _MAX_HALVINGS - 1) meeting the Armijo condition for
    the slope Re<grad f, direction>, and f, the rows and the gradient there; NaN step and f
    where no trial does, at once where the slope is not positive. The trials go in ladders
    of _LADDER halvings, one _parts call each; one _vjp on its Grams gives the gradients."""
    trial, fc, pending, m = *np.full((2, len(f)), np.nan), (slope > 0).nonzero()[0], 1
    new_rows, grad = np.empty_like(rows), np.empty_like(rows)
    while m < _MAX_HALVINGS and pending.size:
        steps = _HALVINGS[m:m + _LADDER]
        trials = rows[pending, None] - steps[:, None, None] * direction[pending, None]
        gram, dev, delta = _parts(trials, b)
        values = _value(dev, delta)
        ok = values <= f[pending, None] - _ARMIJO * steps * slope[pending, None]
        hit = ok.any(axis=1)
        first, won = (hit.nonzero()[0], ok[hit].argmax(axis=1)), pending[hit]
        trial[won], fc[won], new_rows[won] = steps[first[1]], values[first], trials[first]
        grad[won] = _vjp(new_rows[won], gram[first], dev[first], delta[first], 2.0)
        pending, m = pending[~hit], m + _LADDER
    return trial, fc, new_rows, grad


def _dot(a, b):
    """Per restart, <a, b> of two (R, n) real arrays as one batched (R, 1, n) @ (R, n, 1)."""
    return (a[:, None] @ b[..., None])[:, 0, 0]


def _lbfgs_directions(grad, pairs, gamma):
    """Per restart, H grad by the L-BFGS two-loop recursion, in real coordinates.

    grad is an (R, 2d^3) real view of the gradients, and pairs the
    (R, slots, 2, 2d^3) history of s (index 0) and y (index 1), oldest first,
    each pair divided by sqrt(<s, y>) when stored, so that s y^T / <s, y> = s' y'^T.
    An empty slot is zero, and a stored pair never is (<s, y> > 0 needs s != 0); a zero
    slot adds nothing, so a restart's empty slots may run. _descend_batch passes only
    the newest slots any restart can hold. H0 = gamma I with the per-restart gamma that
    _descend_batch keeps beside the pairs.
    So each slot's alpha and beta is one batched (R, 1, n) @ (R, n, 1) matmul.
    """
    as_rows, as_cols = pairs[:, :, :, None], pairs[..., None]
    q, alpha, slots = grad[..., None].copy(), {}, range(pairs.shape[1])
    for i in reversed(slots):
        alpha[i] = as_rows[:, i, 0] @ q
        q -= alpha[i] * as_cols[:, i, 1]
    r = gamma[:, None, None] * q
    for i in slots:
        r += (alpha[i] - as_rows[:, i, 1] @ r) * as_cols[:, i, 0]
    return r[..., 0]


def _descend_batch(rows, f, grad, b, cfg: SearchConfig):
    """Advance a (R, d^2, d) stack of restarts from f and its gradient there, together;
    restart i's result does not depend on the rest. Returns per restart the final rows and
    objective, the accepted iterations and the stop reason, and the f-history, which _trace
    reads: row m holds every restart's f after m stride iterations, a stopped one's final f.
    gamma, H0's scale, is gamma0 at a restart's start, then Re<s, y> / <y, y> of each pair.

    An iteration evaluates f and its gradient at the full step of every live restart in one
    stacked call; only those that fail Armijo there run the ladder, which returns both at the
    step it takes. One that finds no step keeps its state; one that stores no pair and ends
    with its rows and f unchanged is at a fixed point and retires as cap."""
    cap = cfg.max_iterations
    out_rows, out_f, history = np.empty_like(rows), np.empty_like(f), [f.copy()]
    done, reasons = np.full(len(rows), cap), np.full(len(rows), _CAP)
    stride, live = max(1, cap // _TRACE_POINTS), np.arange(len(rows))
    g = grad.view(float).reshape(len(rows), -1)
    # the last _MEMORY steps s and gradient changes y, oldest first, as flat real vectors
    pairs = np.zeros((len(rows), _MEMORY, 2, g.shape[1]))
    gamma = _INITIAL_STEP / (1.0 + np.sqrt(_dot(g, g)))  # H0's scale, then each new pair's

    for it in range(cap):
        # after it iterations no restart holds more than its newest min(it, _MEMORY) pairs
        direction = _lbfgs_directions(g, pairs[:, _MEMORY - min(it, _MEMORY):], gamma)
        slope = _dot(g, direction)
        step = direction.view(complex).reshape(rows.shape)
        # the full step first, with its gradient: most quasi-Newton steps take it
        new_rows = rows - step
        fc, new_grad = _value_and_gradient(new_rows, b)
        new_g, fixed = new_grad.view(float).reshape(g.shape), None
        passed = (fc <= f - _ARMIJO * slope) & (slope >= 0)
        if not passed.all():
            rest = (~passed).nonzero()[0]
            t, fc[rest], new_rows[rest], new_grad[rest] = _armijo_steps(
                rows[rest], step[rest], f[rest], slope[rest], b)
            if np.isnan(t).any():  # a restart with no step keeps its state: a fixed point below
                failed = rest[np.isnan(t)]
                new_rows[failed], fc[failed], new_g[failed] = rows[failed], f[failed], g[failed]
        pair = np.empty((len(g), 2, g.shape[1]))
        np.subtract(new_rows, rows, out=pair[:, 0].view(complex).reshape(rows.shape))
        np.subtract(new_g, g, out=pair[:, 1])
        sy, yy = (pair @ pair[:, 1, :, None])[:, :, 0].T
        keep = sy > 0.0
        np.divide(sy, yy, out=gamma, where=keep)
        if keep.all():  # every history shifts, and the new pair is scaled straight into it
            pairs[:, :-1] = pairs[:, 1:]
            np.divide(pair, np.sqrt(sy)[:, None, None], out=pairs[:, -1])
        else:  # no pair stored and rows and f unchanged: a fixed point, retired at the cap
            fixed = ~keep & (fc == f) & (new_rows == rows).all(axis=(1, 2))
            pairs[keep, :-1] = pairs[keep, 1:]
            pairs[keep, -1] = pair[keep] / np.sqrt(sy[keep])[:, None, None]
        rows, f, g = new_rows, fc, new_g
        if (it + 1) % stride == 0:
            out_f[live] = f
            history.append(out_f.copy())
        goal = f < cfg.residual_goal
        stop = goal if fixed is None else goal | fixed
        if stop.any():  # a goal stop in iteration it ran it + 1 iterations, a fixed point the cap
            done[live[goal]], reasons[live[goal]] = it + 1, _GOAL
            out_rows[live[stop]], out_f[live[stop]] = rows[stop], f[stop]
            live, rows, f, g, pairs, gamma = (a[~stop] for a in (live, rows, f, g, pairs, gamma))
            if not live.size:
                break
    out_rows[live], out_f[live] = rows, f
    return out_rows, out_f, done, np.array(history), [STOP_REASONS[r] for r in reasons]


def _trace(column, final, n, cap):
    """One restart's objective trace from its column of _descend_batch's f-history, its
    final f and its n iterations: f at every stride point up to n, then at n unless that is
    one. Points past the history's end, where every restart had stopped, take final."""
    n, final, stride = int(n), float(final), max(1, cap // _TRACE_POINTS)
    points = range(0, n + 1, stride)
    values = column[:len(points)].tolist() + [final] * (len(points) - len(column))
    return list(zip(points, values)) + ([(n, final)] if n % stride else [])


def _initial_vectors(rng: np.random.Generator, d: int, count: int) -> np.ndarray:
    """count (d^2, d) stacks from one draw filled in order, each scaled to total norm^2 d."""
    rows = rng.standard_normal((count, d * d, 2 * d)).view(complex)
    return rows * np.sqrt(d / _sum2(np.abs(rows) ** 2))[:, None, None]


def _checked_start(rng: np.random.Generator, d: int, count: int, b: float):
    """count starts V, then a direction D for each of the first min(count, 5), drawn from rng.
    Returns V, f and its gradient there, and gradient_check's error at those first starts
    along D, from one _parts call on V and them at V +- sD; one _vjp on V's slice."""
    points, step = min(count, 5), 1e-6
    rows, direction = _initial_vectors(rng, d, count), _initial_vectors(rng, d, points)
    rows = np.concatenate((rows, rows[:points] + step * direction,
                           rows[:points] - step * direction))
    gram, dev, delta = _parts(rows, b)
    f, rows = _value(dev, delta), rows[:count]
    grad = _vjp(rows, gram[:count], dev[:count], delta[:count], 2.0)
    numeric = (f[count:count + points] - f[count + points:]) / (2.0 * step)
    analytic = _sum2((grad[:points] * direction.conj()).real)
    error = np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric)))
    return rows, f[:count], grad, float(error)


def gradient_check(d: int, b: float, seed: int = 0) -> float:
    """Max relative error of the analytic directional derivative Re<grad f, D> against
    the central difference (f(V + sD) - f(V - sD)) / 2s of the objective (s = 1e-6),
    at five seeded random stacks V, each along its own seeded random direction D: the
    check that run_search makes at its first five starts, here at stacks of its own."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x67726164,)))
    return _checked_start(rng, d, 5, b)[3]


def _polish(rows: np.ndarray, b: float):
    """Levenberg-Marquardt finish of one (d^2, d) matrix (More 1978); returns rows and f.
    Each solve takes s from (J^T J + mu sqrt(f) I) s = -J^T r by conjugate gradients under
    Re<a, b>: at most 2 rows.size steps, stopped once |res|^2 <= 1e-20 |J^T r|^2 (the
    solve's start). mu starts at 1; a step is kept only if f drops, and mu then falls
    tenfold, else rises tenfold. At most _POLISH_SOLVES solves, none once f <= _POLISH_STOP
    or J^T r = 0."""
    f, mu = _objective(rows, b), 1.0
    for _ in range(_POLISH_SOLVES):
        gram, dev, delta = _parts(rows, b)
        res = direction = _vjp(rows, gram, dev, delta, -1.0)
        rr = np.vdot(res, res).real
        if f <= _POLISH_STOP or not rr:
            break
        start, step = rr, np.zeros_like(rows)
        for _ in range(2 * rows.size):
            if rr <= 1e-20 * start:
                break
            a = _vjp(rows, gram, *_jvp(rows, gram, direction)) + mu * np.sqrt(f) * direction
            alpha, last = rr / np.vdot(direction, a).real, rr
            step, res = step + alpha * direction, res - alpha * a
            rr = np.vdot(res, res).real
            direction = res + rr / last * direction
        f_step = _objective(rows + step, b)
        rows, f, mu = (rows + step, f_step, mu / 10.0) if f_step < f else (rows, f, mu * 10.0)
    return rows, float(f)


def run_search(config: SearchConfig) -> SearchReport:
    """Multi-start descent on the penalized objective, then a finish of a hit.

    All restarts run as one batch, and restart i's result depends neither on it nor on how many
    restarts run. Deterministic for a fixed config: restart i starts from block i of one draw
    seeded by config.seed, and the next draw gives the directions of gradient_check's test at
    the first min(restarts, 5) starts, made in the starts' one evaluation. A restart stops as
    goal at f < config.residual_goal, else as cap. The hits are finished by _polish, lowest f
    first (stable order), and classified by verify() until one is not NotSemiSIC; that one is
    reported, or the lowest hit if none is, with its polished f and its descent's trace.
    """
    if not isinstance(config, SearchConfig):
        raise InvalidConfig(f"expected a SearchConfig, got {type(config).__name__}")
    rows, f, grad, check = _checked_start(np.random.default_rng(config.seed), config.d,
                                          config.restarts, config.b)
    rows, f, iterations, history, reasons = _descend_batch(rows, f, grad, config.b, config)
    order = np.argsort(f, kind="stable")
    best, best_f = int(order[0]), float(f[order[0]])
    best_povm = classification = observed_k = None
    for i in order[f[order] < config.residual_goal].tolist():
        polished, polished_f = _polish(rows[i], config.b)
        povm = Povm.from_vectors(polished)
        report = verify(povm)
        if best_povm is None or report.classification != NOT_SEMI_SIC:
            best, best_f, best_povm = i, polished_f, povm
            classification, observed_k = report.classification, report.k
        if classification != NOT_SEMI_SIC:
            break

    return SearchReport(
        config=config,
        best_residual=best_f,
        best_povm=best_povm,
        restarts_run=config.restarts,
        iterations_per_restart=tuple(int(n) for n in iterations),
        stop_reasons=tuple(reasons),
        objective_trace=tuple(_trace(history[:, best], f[best], iterations[best],
                                     config.max_iterations)),
        gradient_check=check,
        classification=classification,
        observed_k=observed_k,
    )

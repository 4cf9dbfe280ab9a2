"""Numerical search for equiangular rank-one POVMs.

Elements are parametrized as E_x = |v_x><v_x| for d^2 unnormalized vectors,
which bakes in positivity and rank one. The remaining conditions become a
penalized least-squares objective

    f(V) = sum_{x != y} (|<v_x|v_y>|^2 - b)^2  +  w ||sum_x |v_x><v_x| - I||_F^2

minimized by multi-start first-order descent. All restarts advance as one
batch, computed per restart, so a restart's result does not depend on the
batch. Along a line the objective is a polynomial of degree 8 in the step
(each |<v_x|v_y>|^2 is a quartic, and f squares it). Each step fits a
quartic model to it from phi(0), phi'(0) and samples at h, 2h, 4h along the
(conjugate) descent direction (in units of h, one fixed 3x3 system) and
steps to the model's minimum, falling back to Armijo halvings along the
gradient; only decreasing steps are ever accepted, so the recorded
objective trace is monotone.

One iteration evaluates, for all live restarts at once: f at the three line
samples (one stacked call), f and the gradient at the model step (one Gram
per restart; the gradient is kept when the step is accepted), and, for the
restarts whose model step does not lower f, Armijo trials in ladders of up
to twelve halvings per stacked call (most fallbacks need 5-7, so one call),
then the gradient at the accepted point.

Every report carries gradient_check: at five seeded random stacks V, each
along its own seeded random direction D, the largest relative error of the
analytic Re<grad f, D> against the central difference
(f(V + sD) - f(V - sD)) / 2s of the objective itself (s = 1e-6), from one
stacked objective call (10 stacks) and one gradient call (5 stacks).

For d >= 3 the target overlap is pinned by (d, k); for d = 2 it is supplied
(the k = 4 SIC point is the default there); objective, gradient and
SearchConfig admit b by one rule, and w is always 10. Residuals comfortably
below 1e-12 are reached for d = 2 and for the d = 3, k = 9 case. k in {7, 8}
stalls (4 restarts x 1500 iterations, seed 0: 1.3426e-3 and 3.6749e-4, just
under a SIC's 72 (1/36 - 5/196)^2 = 3.7022e-4 at the k = 8 overlap),
consistent with no strict example being known for d >= 3.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidConfig
from .documents import povm_document
from .linalg import TOL_COND
from .model import Povm, SemiSicParams, b_from_k, verify
from .textio import write_json

STOP_REASONS = ("goal", "cap", "no_descent", "zero_gradient")
_GOAL, _CAP, _NO_DESCENT, _ZERO_GRADIENT = range(len(STOP_REASONS))
# Configs are refused (InvalidConfig, CLI exit 2) before anything is allocated when
# max(3 restarts, 32) stacks of (d^2, d^2) would exceed this many complex entries (64 MB);
# d <= 19 is admitted. Line samples stack (restarts, 3, d^2, d^2) Grams, an Armijo ladder
# (pending, _ladder_width <= 12, d^2, d^2), and gradient_check 10 for its objective call
# and 5 for its gradients, all under the cap.
MAX_SEARCH_ENTRIES = 2**22
_PENALTY_WEIGHT = 10.0  # w of the objective
_INITIAL_STEP = 1e-2  # first probe step, divided by 1 + |gradient|
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_LADDER = 12  # most Armijo trials per stacked call; fallbacks mostly need 5-7 halvings
_HALVINGS = 0.5 ** np.arange(_MAX_HALVINGS)  # exact, so trials equal repeated halving
_TRACE_POINTS = 200
# In units of the probe step h the line samples sit at s = 1, 2, 4, so the
# quartic model's coefficients of s^2, s^3, s^4 solve one fixed system.
_LINE_S = np.array([1.0, 2.0, 4.0])
_LINE_FIT = np.linalg.inv(_LINE_S[:, None] ** np.arange(2, 5))


@dataclass(frozen=True)
class SearchConfig:
    """Validated search parameters. b is admitted at construction by
    SemiSicParams.from_b (at TOL_COND, and pinned where (d, k) fixes it);
    left out, it is derived from (d, k) when d >= 3 and required for d = 2
    except k = 4, which defaults to the SIC point 1/12. Configs over
    MAX_SEARCH_ENTRIES are refused."""

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
    """Outcome of run_search. best_povm is set only when the goal was met;
    classification and observed_k echo its verification in that case, and
    to_dict writes it as a POVM document (documents.povm_document).
    stop_reasons gives each restart's reason to stop, one of STOP_REASONS."""

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
    dev = np.abs(gram) ** 2 - b
    dev.reshape(*lead, n * n)[..., ::n + 1] = 0.0  # the diagonal
    delta = cols @ conj
    delta.reshape(*lead, d * d)[..., ::d + 1] -= 1.0
    return gram, dev, delta


def _objective(rows: np.ndarray, b: float) -> np.ndarray:
    """Objective of each (d^2, d) matrix of a (..., d^2, d) stack."""
    _, dev, delta = _parts(rows, b)
    return _sum2(dev * dev) + _PENALTY_WEIGHT * _sum2(np.abs(delta) ** 2)


def _value_and_gradient(rows: np.ndarray, b: float):
    """_objective and its gradient of a stack from one Gram per matrix."""
    gram, dev, delta = _parts(rows, b)
    value = _sum2(dev * dev) + _PENALTY_WEIGHT * _sum2(np.abs(delta) ** 2)
    # Wirtinger gradient scaled so real/imag parts match the real-coordinate
    # partial derivatives (checked against finite differences in the tests)
    grad = 8.0 * (dev * gram.swapaxes(-1, -2)) @ rows + 4.0 * _PENALTY_WEIGHT * rows @ delta.conj()
    return value, grad


def objective(vectors, d: int, k: int, b: float | None = None) -> float:
    """Penalized equiangularity objective at the given vectors, with w = 10 and
    b admitted as SearchConfig(d=d, k=k, b=b) admits it (InvalidConfig if not)."""
    return float(_objective(_coerce_vectors(vectors, d), _resolve_b(d, k, b)))


def gradient(vectors, d: int, k: int, b: float | None = None) -> np.ndarray:
    """Gradient of objective() with respect to the stacked vectors."""
    return _value_and_gradient(_coerce_vectors(vectors, d), _resolve_b(d, k, b))[1]


def _model_steps(rows, direction, f0, dphi0, b, h):
    """Per restart, the minimizer of a quartic model of phi(t) = f(rows - t * direction).

    phi is a polynomial of degree 8; the model matches its analytic phi(0)
    and phi'(0) and three samples at h, 2h, 4h, and the step is the best
    positive root of the model's cubic derivative. NaN where there is none
    or the cubic's leading coefficient is zero or non-finite; the caller
    re-evaluates f at the other steps.
    """
    h, f0 = h[:, None], f0[:, None]
    ts = h * _LINE_S
    vals = _objective(rows[:, None] - ts[..., None, None] * direction[:, None], b)
    rhs = vals - f0 - dphi0[:, None] * ts
    # coefficients in units of h (c_k h^k), the inverse applied row by row
    coef = np.add.reduce(rhs[:, None, :] * _LINE_FIT, axis=-1)
    c2, c3, c4 = coef[:, 0:1], coef[:, 1:2], coef[:, 2:3]
    slope = dphi0[:, None] * h
    # companion matrix of the model's derivative x^3 + (3 c3 x^2 + 2 c2 x + slope) / (4 c4)
    companion = np.zeros((len(h), 3, 3))
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    top = companion[:, 0]
    top[:, :2], top[:, 2:] = coef[:, 1::-1] * (3.0, 2.0), slope
    with np.errstate(all="ignore"):
        top /= -4.0 * c4
    unfit = ~np.isfinite(top).all(axis=-1)  # c4 is zero, or the fit overflowed
    if unfit.any():
        companion[unfit] = 0.0  # all roots 0, so t = 0, which is refused below
    s = np.linalg.eigvals(companion)
    t, x = s.real * h, s.real
    model = f0 + x * (slope + x * (c2 + x * (c3 + x * c4)))
    model[(np.abs(s.imag) * h >= 1e-12 * (1.0 + np.abs(t))) | (t <= 0.0)] = np.inf
    pick = np.arange(len(h)), model.argmin(axis=-1)
    return np.where(model[pick] < f0[:, 0], t[pick], np.nan)


def _ladder_width(pending: int, d: int) -> int:
    """Halvings per Armijo call, up to _LADDER; >= 3 under SearchConfig's entry rule."""
    return min(_LADDER, MAX_SEARCH_ENTRIES // (pending * d**4))


def _armijo_steps(rows, grad, f, gnorm2, b, step):
    """Halvings along -grad: per restart, the first of step, step/2, ... (at
    most _MAX_HALVINGS trials) that meets the Armijo condition, and the
    objective there; NaN where no trial does. The trials go in ladders of
    _ladder_width halvings, one stacked objective call per ladder."""
    trial, fc, pending, m = *np.full((2, len(f)), np.nan), np.arange(len(f)), 0
    while m < _MAX_HALVINGS and pending.size:
        width = _ladder_width(pending.size, rows.shape[-1])
        steps = step[pending, None] * _HALVINGS[m:m + width]
        values = _objective(rows[pending, None] - steps[..., None, None] * grad[pending, None], b)
        ok = values <= f[pending, None] - _ARMIJO * steps * gnorm2[pending, None]
        hit = ok.any(axis=1)
        first = hit.nonzero()[0], ok[hit].argmax(axis=1)
        trial[pending[hit]], fc[pending[hit]] = steps[first], values[first]
        pending, m = pending[~hit], m + width
    return trial, fc


def _descend_batch(rows, b, cfg: SearchConfig):
    """Advance a (R, d^2, d) stack of restarts together; restart i's result does not
    depend on the rest. Returns per restart the final rows and objective, the
    accepted iterations, the objective trace and the stop reason."""
    out_rows, out_f = np.empty_like(rows), np.empty(len(rows))
    done, reasons = np.zeros(len(rows), dtype=int), np.empty(len(rows), dtype=int)
    stride = max(1, cfg.max_iterations // _TRACE_POINTS)
    live = np.arange(len(rows))
    f, grad = _value_and_gradient(rows, b)
    gnorm2 = _sum2(np.abs(grad) ** 2)
    direction = grad.copy()
    h = _INITIAL_STEP / (1.0 + np.sqrt(gnorm2))
    traces = [[(0, float(v))] for v in f]

    def retire(stop):
        """Stop codes index STOP_REASONS; -1 keeps a restart live."""
        state, mask = (live, rows, f, grad, direction, gnorm2, h), stop >= 0
        if not mask.any():
            return state
        gone = live[mask]
        out_rows[gone], out_f[gone], reasons[gone] = rows[mask], f[mask], stop[mask]
        return [a[~mask] for a in state]

    for it in range(cfg.max_iterations):
        dphi0 = -_sum2((grad * direction.conj()).real)
        reset = dphi0 >= 0.0  # conjugate direction stopped descending
        if reset.any():
            direction[reset], dphi0[reset] = grad[reset], -gnorm2[reset]
        t = _model_steps(rows, direction, f, dphi0, b, h)
        # the whole live stack, NaN rows where there is no model step; NaN never lowers f
        candidate = rows - t[:, None, None] * direction
        fc, new_grad = _value_and_gradient(candidate, b)
        accepted, stalled = fc < f, np.zeros(live.size, dtype=bool)
        rows = np.where(accepted[:, None, None], candidate, rows)
        f, h = np.where(accepted, fc, f), np.where(accepted, np.maximum(t, 1e-12), h)
        if not accepted.all():
            j = np.flatnonzero(~accepted)
            new_grad[j] = 0.0  # stays zero for stalled restarts, which retire
            t, fc = _armijo_steps(rows[j], grad[j], f[j], gnorm2[j], b, h[j])
            stalled[j] = np.isnan(t)
            t, fc, j = t[~stalled[j]], fc[~stalled[j]], j[~stalled[j]]
            rows[j], f[j], h[j] = rows[j] - t[:, None, None] * grad[j], fc, t
            direction[j] = grad[j]
            new_grad[j] = _value_and_gradient(rows[j], b)[1]
        done[live[~stalled]] = it + 1
        if (it + 1) % stride == 0:
            for i, value in zip(live[~stalled].tolist(), f[~stalled].tolist()):
                traces[i].append((it + 1, value))
        # Polak-Ribiere+ conjugate update (first-order momentum)
        beta = np.maximum(0.0, _sum2((new_grad.conj() * (new_grad - grad)).real) / gnorm2)
        direction = new_grad + beta[:, None, None] * direction
        grad = new_grad
        gnorm2 = _sum2(np.abs(grad) ** 2)
        stop = np.where(stalled, _NO_DESCENT, np.where(
            f < cfg.residual_goal * 1e-3, _GOAL, np.where(gnorm2 == 0.0, _ZERO_GRADIENT, -1)))
        live, rows, f, grad, direction, gnorm2, h = retire(stop)
        if not live.size:
            break
    retire(np.full(live.size, _CAP))
    for i, trace in enumerate(traces):
        if trace[-1][0] != done[i]:
            trace.append((int(done[i]), float(out_f[i])))
    return out_rows, out_f, done, traces, [STOP_REASONS[r] for r in reasons]


def _restart_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _initial_vectors(rng: np.random.Generator, d: int) -> np.ndarray:
    rows = rng.standard_normal((d * d, d)) + 1j * rng.standard_normal((d * d, d))
    return rows * np.sqrt(d / np.sum(np.abs(rows) ** 2))


def gradient_check(d: int, b: float, seed: int = 0) -> float:
    """Max relative error of the analytic directional derivative Re<grad f, D> against
    the central difference (f(V + sD) - f(V - sD)) / 2s of the objective (s = 1e-6),
    at five seeded random stacks V, each along its own seeded random direction D."""
    points, step = 5, 1e-6
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x67726164,)))
    # V and D, each scaled like _initial_vectors: (2, points, d^2, d)
    draws = rng.standard_normal((2, points, d * d, 2 * d)).view(complex)
    base, direction = draws * np.sqrt(d / _sum2(np.abs(draws) ** 2))[..., None, None]
    ends = _objective(base + np.array([step, -step])[:, None, None, None] * direction, b)
    numeric = (ends[0] - ends[1]) / (2.0 * step)
    analytic = _sum2((_value_and_gradient(base, b)[1] * direction.conj()).real)
    return float(np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))))


def run_search(config: SearchConfig) -> SearchReport:
    """Multi-start descent on the penalized objective.

    All restarts run as one batch, and restart i's result does not depend
    on it. Deterministic for a fixed config (restart i draws from a child of
    the seed). The report's best_povm is populated only when the best
    residual beats config.residual_goal; it is then verified with tol_cond
    loosened to max(TOL_COND, 100 sqrt(residual)) and the observed
    classification is echoed.
    """
    if not isinstance(config, SearchConfig):
        raise InvalidConfig(f"expected a SearchConfig, got {type(config).__name__}")
    b = float(config.b)
    rows0 = np.stack([_initial_vectors(_restart_rng(config.seed, i), config.d)
                      for i in range(config.restarts)])
    rows, f, iterations, traces, reasons = _descend_batch(rows0, b, config)
    best = int(np.argmin(f))
    best_f = float(f[best])

    best_povm = classification = observed_k = None
    if best_f < config.residual_goal:
        best_povm = Povm.from_vectors(rows[best])
        report = verify(best_povm, tol_cond=max(TOL_COND, 1e2 * float(np.sqrt(best_f))))
        classification, observed_k = report.classification, report.k

    return SearchReport(
        config=config,
        best_residual=best_f,
        best_povm=best_povm,
        restarts_run=config.restarts,
        iterations_per_restart=tuple(int(n) for n in iterations),
        stop_reasons=tuple(reasons),
        objective_trace=tuple((int(i), float(f)) for i, f in traces[best]),
        gradient_check=gradient_check(config.d, b, seed=config.seed),
        classification=classification,
        observed_k=observed_k,
    )

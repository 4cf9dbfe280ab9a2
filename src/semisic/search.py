"""Numerical search for equiangular rank-one POVMs.

Elements are parametrized as E_x = |v_x><v_x| for d^2 unnormalized vectors,
which bakes in positivity and rank one. The remaining conditions become a
penalized least-squares objective

    f(V) = sum_{x != y} (|<v_x|v_y>|^2 - b)^2  +  w ||sum_x |v_x><v_x| - I||_F^2

minimized by multi-start first-order descent. Along a line the objective is
a polynomial of degree 8 in the step (each |<v_x|v_y>|^2 is a quartic, and
f squares it). The default step policy fits a quartic model to it from
phi(0), phi'(0) and three samples along the (conjugate) descent direction
and steps to the model's minimum; only decreasing steps are ever accepted,
so the recorded objective trace is monotone. A final polar projection of
each restart's endpoint (SVD retraction onto exact completeness) is kept
when it improves the objective.

For d >= 3 the target overlap is pinned by (d, k); for d = 2 it is supplied
(the k = 4 SIC point is the default there). Residuals comfortably below
1e-12 are reached for d = 2 and for the d = 3, k = 9 case; k in {7, 8}
stalls at ~1e-3, consistent with no strict example being known for d >= 3.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionTooSmall, InvalidConfig, KOutOfRange
from .linalg import Tolerances
from .model import Povm, SemiSicParams, b_from_k, verify
from .textio import write_json

STEP_POLICIES = ("exact", "backtracking")
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_TRACE_POINTS = 200


@dataclass(frozen=True)
class SearchConfig:
    """Validated search parameters. b is resolved at construction:
    derived from (d, k) when d >= 3, required for d = 2 (except k = 4,
    which defaults to the SIC point 1/12)."""

    d: int
    k: int
    b: float | None = None
    restarts: int = 20
    max_iterations: int = 2000
    seed: int = 0
    initial_step: float = 1e-2
    step_policy: str = "exact"
    penalty_weight: float = 10.0
    residual_goal: float = 1e-12

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or self.d < 2:
            raise InvalidConfig(f"d must be an integer >= 2, got {self.d!r}")
        if not isinstance(self.k, int):
            raise InvalidConfig(f"k must be an integer, got {self.k!r}")
        if not isinstance(self.restarts, int) or self.restarts < 1:
            raise InvalidConfig(f"restarts must be a positive integer, got {self.restarts!r}")
        if not isinstance(self.max_iterations, int) or self.max_iterations < 1:
            raise InvalidConfig(
                f"max_iterations must be a positive integer, got {self.max_iterations!r}"
            )
        if not isinstance(self.seed, int) or not (0 <= self.seed < 2**64):
            raise InvalidConfig(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (isinstance(self.initial_step, (int, float)) and self.initial_step > 0):
            raise InvalidConfig(f"initial_step must be positive, got {self.initial_step!r}")
        if self.step_policy not in STEP_POLICIES:
            raise InvalidConfig(
                f"step_policy must be one of {STEP_POLICIES}, got {self.step_policy!r}"
            )
        if not (isinstance(self.penalty_weight, (int, float)) and self.penalty_weight > 0):
            raise InvalidConfig(f"penalty_weight must be positive, got {self.penalty_weight!r}")
        if not (isinstance(self.residual_goal, (int, float)) and self.residual_goal > 0):
            raise InvalidConfig(f"residual_goal must be positive, got {self.residual_goal!r}")
        object.__setattr__(self, "b", self._resolve_b())

    def _resolve_b(self) -> float:
        if self.d >= 3:
            try:
                pinned = b_from_k(self.d, self.k)
            except (KOutOfRange, DimensionTooSmall) as exc:
                raise InvalidConfig(str(exc)) from exc
            if self.b is not None and abs(float(self.b) - pinned) > 1e-12:
                raise InvalidConfig(
                    f"b = {self.b!r} conflicts with the value {pinned!r} pinned by "
                    f"(d, k) = ({self.d}, {self.k})"
                )
            return pinned
        if self.k not in (2, 4):
            raise InvalidConfig(f"for d = 2, k must be 2 or 4, got {self.k!r}")
        b = self.b
        if b is None:
            if self.k == 2:
                raise InvalidConfig("for d = 2, k = 2 an explicit b is required")
            b = 1.0 / 12.0
        if not (isinstance(b, (int, float)) and np.isfinite(b)):
            raise InvalidConfig(f"b must be a finite real, got {b!r}")
        try:
            SemiSicParams.from_b(2, float(b), self.k)
        except Exception as exc:
            raise InvalidConfig(f"(b, k) = ({b!r}, {self.k}) is not admissible: {exc}") from exc
        return float(b)


@dataclass(frozen=True)
class SearchReport:
    """Outcome of run_search. best_povm is set only when the goal was met;
    classification and observed_k echo its verification in that case."""

    config: SearchConfig
    best_residual: float
    best_povm: Povm | None
    restarts_run: int
    iterations_per_restart: tuple[int, ...]
    objective_trace: tuple[tuple[int, float], ...]
    gradient_check: float
    classification: str | None = None
    observed_k: int | None = None

    def to_dict(self) -> dict:
        from .documents import matrix_to_pairs

        povm = None
        if self.best_povm is not None:
            povm = {
                "dim": int(self.best_povm.dim),
                "elements": [matrix_to_pairs(e) for e in self.best_povm.elements],
            }
        return {
            "config": asdict(self.config),
            "best_residual": self.best_residual,
            "best_povm": povm,
            "restarts_run": self.restarts_run,
            "iterations_per_restart": list(self.iterations_per_restart),
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
    if not (np.all(np.isfinite(rows.real)) and np.all(np.isfinite(rows.imag))):
        raise ValueError("vectors contain non-finite entries")
    return rows


def _resolve_target_b(d: int, k: int, b) -> float:
    if b is None:
        return b_from_k(d, k)
    return float(b)


def _objective(rows: np.ndarray, b: float, w: float) -> float:
    gram = rows.conj() @ rows.T
    dev = np.abs(gram) ** 2 - b
    np.fill_diagonal(dev, 0.0)
    delta = rows.T @ rows.conj() - np.eye(rows.shape[1])
    return float(np.sum(dev * dev) + w * np.sum(np.abs(delta) ** 2))


def _gradient(rows: np.ndarray, b: float, w: float) -> np.ndarray:
    # Wirtinger gradient scaled so real/imag parts match the real-coordinate
    # partial derivatives (checked against finite differences in the tests)
    gram = rows.conj() @ rows.T
    dev = np.abs(gram) ** 2 - b
    np.fill_diagonal(dev, 0.0)
    delta = rows.T @ rows.conj() - np.eye(rows.shape[1])
    return 8.0 * (dev * gram.T) @ rows + 4.0 * w * rows @ delta.conj()


def objective(vectors, d: int, k: int, b: float | None = None,
              penalty_weight: float = 10.0) -> float:
    """Penalized equiangularity objective at the given vectors.

    Pass b=None to derive the target overlap from (d, k) (d >= 3 only).
    """
    rows = _coerce_vectors(vectors, d)
    return _objective(rows, _resolve_target_b(d, k, b), float(penalty_weight))


def gradient(vectors, d: int, k: int, b: float | None = None,
             penalty_weight: float = 10.0) -> np.ndarray:
    """Gradient of objective() with respect to the stacked vectors."""
    rows = _coerce_vectors(vectors, d)
    return _gradient(rows, _resolve_target_b(d, k, b), float(penalty_weight))


def _line_minimum(rows, direction, f0, dphi0, b, w, h):
    """Minimizer of a quartic model of phi(t) = f(rows - t * direction).

    phi is a polynomial of degree 8; the model matches its analytic phi(0)
    and phi'(0) and three samples at h, 2h, 4h, and the step is the best
    positive root of the model's cubic derivative. Returns None when no
    positive step decreases the model; the caller re-evaluates f there.
    """
    ts = np.array([h, 2.0 * h, 4.0 * h])
    vals = np.array([_objective(rows - t * direction, b, w) for t in ts])
    rhs = vals - f0 - dphi0 * ts
    system = np.column_stack([ts**2, ts**3, ts**4])
    try:
        c2, c3, c4 = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        return None
    roots = np.roots([4.0 * c4, 3.0 * c3, 2.0 * c2, dphi0])
    best_t, best_f = None, f0
    for root in roots:
        if abs(root.imag) < 1e-12 * (1.0 + abs(root.real)) and root.real > 0:
            t = float(root.real)
            f = f0 + dphi0 * t + c2 * t * t + c3 * t**3 + c4 * t**4
            if f < best_f:
                best_t, best_f = t, f
    return best_t


def _backtrack(rows, grad, f, gnorm2, b, w, step):
    trial = step
    for _ in range(_MAX_HALVINGS):
        candidate = rows - trial * grad
        fc = _objective(candidate, b, w)
        if fc <= f - _ARMIJO * trial * gnorm2:
            return candidate, fc, trial
        trial *= 0.5
    return None, f, step


def _descend(rows, b, w, cfg: SearchConfig):
    """One restart: returns (rows, objective, accepted iterations, trace)."""
    f = _objective(rows, b, w)
    grad = _gradient(rows, b, w)
    gnorm2 = float(np.sum(np.abs(grad) ** 2))
    direction = grad.copy()
    h = cfg.initial_step / (1.0 + np.sqrt(gnorm2))
    stop_f = cfg.residual_goal * 1e-3
    stride = max(1, cfg.max_iterations // _TRACE_POINTS)
    trace = [(0, f)]
    done = 0

    for it in range(cfg.max_iterations):
        accepted = False
        if cfg.step_policy == "exact":
            dphi0 = -float(np.sum((grad * direction.conj()).real))
            if dphi0 >= 0.0:  # conjugate direction stopped descending: reset
                direction = grad.copy()
                dphi0 = -gnorm2
            t = _line_minimum(rows, direction, f, dphi0, b, w, h)
            if t is not None:
                candidate = rows - t * direction
                fc = _objective(candidate, b, w)
                if fc < f:
                    rows, f, accepted = candidate, fc, True
                    h = max(t, 1e-12)
        if not accepted:
            candidate, fc, used = _backtrack(rows, grad, f, gnorm2, b, w,
                                             h if cfg.step_policy == "exact"
                                             else min(2.0 * h, 1e3 * cfg.initial_step))
            if candidate is None:
                break
            rows, f, h = candidate, fc, used
            direction = grad.copy()
        done = it + 1
        if done % stride == 0:
            trace.append((done, f))
        if f < stop_f:
            break
        new_grad = _gradient(rows, b, w)
        if cfg.step_policy == "exact":
            # Polak-Ribiere+ conjugate update (first-order momentum)
            beta = max(0.0, float(np.sum((new_grad.conj() * (new_grad - grad)).real)) / gnorm2)
            direction = new_grad + beta * direction
        grad = new_grad
        gnorm2 = float(np.sum(np.abs(grad) ** 2))
        if gnorm2 == 0.0:
            break

    if not trace or trace[-1][0] != done:
        trace.append((done, f))
    return rows, f, done, trace


def _polar_project(rows: np.ndarray) -> np.ndarray:
    """Retract onto exact completeness: nearest co-isometry in Frobenius norm."""
    cols = rows.T
    u, _, vh = np.linalg.svd(cols, full_matrices=False)
    return (u @ vh).T


def _restart_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _initial_vectors(rng: np.random.Generator, d: int) -> np.ndarray:
    n = d * d
    rows = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return rows * np.sqrt(d / np.sum(np.abs(rows) ** 2))


def gradient_check(d: int, b: float, penalty_weight: float = 10.0,
                   seed: int = 0, points: int = 5, step: float = 1e-6) -> float:
    """Max relative error of the analytic gradient against central differences,
    over a few seeded random vector stacks."""
    worst = 0.0
    for p in range(points):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(0x67726164, p))
        )
        rows = _initial_vectors(rng, d)
        analytic = _gradient(rows, b, penalty_weight)
        numeric = np.zeros_like(analytic)
        for x in range(rows.shape[0]):
            for i in range(rows.shape[1]):
                for unit in (1.0, 1.0j):
                    fwd = rows.copy()
                    fwd[x, i] += step * unit
                    bwd = rows.copy()
                    bwd[x, i] -= step * unit
                    diff = (_objective(fwd, b, penalty_weight)
                            - _objective(bwd, b, penalty_weight)) / (2.0 * step)
                    numeric[x, i] += diff * (1.0 if unit == 1.0 else 1.0j)
        scale = max(1.0, float(np.max(np.abs(numeric))))
        worst = max(worst, float(np.max(np.abs(analytic - numeric))) / scale)
    return worst


def run_search(config: SearchConfig) -> SearchReport:
    """Multi-start descent on the penalized objective.

    Deterministic for a fixed config (restart i draws from a child of the
    seed). The report's best_povm is populated only when the best residual
    beats config.residual_goal; it is then verified with tolerances scaled
    to the residual and the observed classification is echoed.
    """
    if not isinstance(config, SearchConfig):
        raise InvalidConfig(f"expected a SearchConfig, got {type(config).__name__}")
    b = float(config.b)
    w = float(config.penalty_weight)

    best_f = np.inf
    best_rows = None
    best_trace: list[tuple[int, float]] = []
    iterations: list[int] = []

    for i in range(config.restarts):
        rows0 = _initial_vectors(_restart_rng(config.seed, i), config.d)
        rows, f, done, trace = _descend(rows0, b, w, config)
        projected = _polar_project(rows)
        f_proj = _objective(projected, b, w)
        if f_proj < f:
            rows, f = projected, f_proj
        iterations.append(done)
        if f < best_f:
            best_f, best_rows, best_trace = f, rows, trace

    check = gradient_check(config.d, b, w, seed=config.seed)

    best_povm = None
    classification = None
    observed_k = None
    if best_f < config.residual_goal:
        best_povm = Povm.from_vectors(best_rows)
        noise = float(np.sqrt(best_f))
        loose = Tolerances(tol_cond=max(1e-10, 1e2 * noise))
        report = verify(best_povm, loose)
        classification = report.classification
        observed_k = report.k

    return SearchReport(
        config=config,
        best_residual=float(best_f),
        best_povm=best_povm,
        restarts_run=config.restarts,
        iterations_per_restart=tuple(iterations),
        objective_trace=tuple((int(i), float(f)) for i, f in best_trace),
        gradient_check=check,
        classification=classification,
        observed_k=observed_k,
    )

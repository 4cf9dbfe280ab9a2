"""Search configuration, objective/gradient contracts, and full runs."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (dense_lbfgs_direction, h0_scale, serial_armijo_steps, two_call_vectors,
                     wh_sic_vectors)
from semisic import search
from semisic.documents import parse_povm_document
from semisic.dual import dual_basis
from semisic.errors import DimensionMismatch, InvalidConfig
from semisic.linalg import TOL_COND
from semisic.model import (NOT_SEMI_SIC, STRICT_SEMI_SIC, SemiSicParams, admissible_k, b_from_k,
                           verify)
from semisic.qubit import family_kets, family_point
from semisic.search import (
    STOP_REASONS,
    SearchConfig,
    gradient,
    gradient_check,
    objective,
    run_search,
)


def family_rows(b):
    point = family_point(b)
    kets = family_kets(point)
    weights = np.array(
        [
            point.params.a_minus,
            point.params.a_minus,
            point.params.a_plus,
            point.params.a_plus,
        ]
    )
    return np.sqrt(weights)[:, None] * kets


def test_config_pins_b_for_d3():
    cfg = SearchConfig(d=3, k=9, restarts=1)
    assert cfg.b == pytest.approx(1.0 / 36.0, abs=1e-18)
    with pytest.raises(InvalidConfig):
        SearchConfig(d=3, k=9, b=0.03)
    with pytest.raises(InvalidConfig):
        SearchConfig(d=3, k=6)


def test_config_qubit_rules():
    assert SearchConfig(d=2, k=4).b == 1.0 / 12.0
    with pytest.raises(InvalidConfig):
        SearchConfig(d=2, k=2)
    with pytest.raises(InvalidConfig):
        SearchConfig(d=2, k=3, b=0.07)
    # any b with real trace roots is a legitimate search target at d = 2
    assert SearchConfig(d=2, k=2, b=0.05).b == 0.05
    with pytest.raises(InvalidConfig):
        SearchConfig(d=2, k=2, b=0.3)


def test_config_admits_b_through_the_params_rule():
    # SemiSicParams.from_b admits b within TOL_COND of the pinned overlap and stores the pin
    assert SearchConfig(d=3, k=9, b=1.0 / 36.0 + 5e-11, restarts=1).b == 1.0 / 36.0
    assert SearchConfig(d=2, k=2, b=1.0 / 12.0 + 5e-11).b == 1.0 / 12.0
    for k in (2, 3):
        with pytest.raises(InvalidConfig, match=f"for d = 2, k = {k} an explicit b is required"):
            SearchConfig(d=2, k=k)
    with pytest.raises(InvalidConfig, match="counting identity fails"):
        SearchConfig(d=2, k=3, b=0.07)
    for b in (1.0 / 36.0 + 1e-9, float("nan")):
        with pytest.raises(InvalidConfig, match="does not match the overlap"):
            SearchConfig(d=3, k=9, b=b)


def test_config_without_b_stores_the_pin_of_from_b():
    for d in range(3, 7):
        for k in admissible_k(d):
            pin = SemiSicParams.from_b(d, b_from_k(d, k), k).b
            assert SearchConfig(d=d, k=k, restarts=1).b == pin == b_from_k(d, k)
    assert SearchConfig(d=2, k=4).b == SemiSicParams.from_b(2, 1.0 / 12.0, 4).b == 1.0 / 12.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"restarts": 0},
        {"max_iterations": 0},
        {"residual_goal": 0.0},
        {"seed": -1},
        {"residual_goal": float("inf")},
        {"residual_goal": float("nan")},
        {"d": 2.0},
        {"k": 4.0},
        {"seed": 2**64},
    ],
)
def test_config_rejects_bad_scalars(kwargs):
    with pytest.raises(InvalidConfig):
        SearchConfig(**{"d": 2, "k": 4, **kwargs})


@pytest.mark.parametrize("name", ["d", "k", "restarts", "max_iterations", "seed", "residual_goal"])
def test_config_refuses_booleans(name):
    with pytest.raises(InvalidConfig, match=f"{name} must be"):
        SearchConfig(**{"d": 2, "k": 4, name: True})


@pytest.mark.parametrize("kwargs", [{"d": 20, "k": 400}, {"d": 2, "k": 4, "restarts": 10**6}])
def test_config_refuses_searches_over_the_entry_cap(kwargs):
    with pytest.raises(InvalidConfig, match="over the cap"):
        SearchConfig(**kwargs)
    # the largest admitted dimension still passes
    assert SearchConfig(d=19, k=361, restarts=10).d == 19


def test_objective_vanishes_on_exact_solution():
    rows = family_rows(2.0 / 25.0)
    assert objective(rows, 2, 2, b=2.0 / 25.0) < 1e-28
    assert np.max(np.abs(gradient(rows, 2, 2, b=2.0 / 25.0))) < 1e-13


def test_objective_derives_b_from_counts():
    rows = wh_sic_vectors()
    assert objective(rows, 3, 9) == objective(rows, 3, 9, b=1.0 / 36.0)
    with pytest.raises(InvalidConfig, match="an explicit b is required"):
        objective(family_rows(0.07), 2, 2)


@pytest.mark.parametrize("d,k,b", [(2, 2, 0.07), (2, 4, None), (3, 9, None), (3, 8, None)])
def test_objective_matches_numpy_formula(d, k, b):
    # sum_{x != y} (|<v_x|v_y>|^2 - b)^2 + 10 ||sum_x |v_x><v_x| - I||_F^2, term by term
    rng = np.random.default_rng(47 + d + k)
    rows = rng.normal(size=(d * d, d)) + 1j * rng.normal(size=(d * d, d))
    target = SearchConfig(d=d, k=k, b=b).b
    expected = 0.0
    for x in range(d * d):
        for y in range(d * d):
            if x != y:
                expected += (abs(np.vdot(rows[x], rows[y])) ** 2 - target) ** 2
    frame = sum(np.outer(v, v.conj()) for v in rows)
    expected += 10.0 * np.linalg.norm(frame - np.eye(d), "fro") ** 2
    assert objective(rows, d, k, b) == pytest.approx(expected, rel=1e-12)


def test_objective_and_gradient_follow_the_config_b_rule():
    rng = np.random.default_rng(5)
    qubit_rows = two_call_vectors(rng, 2)
    value, grad = search._value_and_gradient(qubit_rows, 1.0 / 12.0)
    assert objective(qubit_rows, 2, 4) == value
    assert np.array_equal(gradient(qubit_rows, 2, 4), grad)
    rows = wh_sic_vectors() + 1e-3 * two_call_vectors(rng, 3)
    for fn in (objective, gradient):
        assert np.array_equal(fn(rows, 3, 9, 1.0 / 36.0 + 5e-11), fn(rows, 3, 9))
        with pytest.raises(InvalidConfig, match="does not match the overlap"):
            fn(rows, 3, 9, 1.0 / 36.0 + 1e-9)


def test_objective_validates_vectors():
    with pytest.raises(DimensionMismatch):
        objective(np.zeros((3, 2)), 2, 2, b=0.07)
    bad = np.full((4, 2), np.nan, dtype=complex)
    with pytest.raises(ValueError):
        objective(bad, 2, 2, b=0.07)


def test_gradient_matches_finite_differences():
    assert gradient_check(2, 2.0 / 25.0, seed=3) < 1e-6
    assert gradient_check(3, 1.0 / 36.0, seed=3) < 1e-6


def directional_errors(starts, directions, d, k, b, step=1e-6):
    """gradient_check's relative errors recomputed from the public objective() and
    gradient(), one start V and direction D at a time."""
    errors = []
    for v, u in zip(starts, directions):
        numeric = (objective(v + step * u, d, k, b)
                   - objective(v - step * u, d, k, b)) / (2.0 * step)
        analytic = np.add.reduce((gradient(v, d, k, b) * u.conj()).real.ravel())
        errors.append(abs(analytic - numeric) / max(1.0, abs(numeric)))
    return errors


def descend(stack, cfg):
    """search._descend_batch from the stack's own f and gradient, with each restart's
    objective trace read from its f-history by search._trace in place of the history."""
    rows, f, iterations, history, reasons = search._descend_batch(
        stack, *search._value_and_gradient(stack, cfg.b), cfg.b, cfg)
    traces = [search._trace(history[:, i], f[i], iterations[i], cfg.max_iterations)
              for i in range(len(f))]
    return rows, f, iterations, traces, reasons


def check_points(d, seed):
    """The stacks V and directions D that gradient_check draws for (d, seed), (2, 5, d^2, d)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x67726164,)))
    draws = rng.standard_normal((2, 5, d * d, 2 * d)).view(complex)
    norms2 = np.add.reduce((np.abs(draws) ** 2).reshape(2, 5, -1), axis=-1)
    return draws * np.sqrt(d / norms2)[..., None, None]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gradient_check_is_the_directional_error_of_objective_and_gradient(d):
    # recomputed from the public objective() and gradient(), one point at a time
    k, b = (2, 2.0 / 25.0) if d == 2 else (d * d, 1.0 / (d * d * (d + 1)))
    for seed in (0, 3):
        errors = directional_errors(*check_points(d, seed), d, k, b)
        assert gradient_check(d, b, seed=seed) == max(errors) < 1e-6


@pytest.mark.parametrize("d,k,b,restarts", [(2, 2, 0.07, 3), (3, 9, None, 7), (4, 16, None, 2),
                                            (5, 25, None, 5)])
def test_run_search_checks_the_gradient_in_its_starts_evaluation(monkeypatch, d, k, b, restarts):
    # the starts, then one direction for each of the first min(R, 5), from the seed's
    # generator; the error recomputed from objective() and gradient() at those starts
    cfg = SearchConfig(d=d, k=k, b=b, restarts=restarts, max_iterations=2, seed=4)
    rng = np.random.default_rng(cfg.seed)
    starts = search._initial_vectors(rng, d, restarts)
    directions = search._initial_vectors(rng, d, min(restarts, 5))
    errors = directional_errors(starts, directions, d, k, cfg.b)
    calls = []

    def counting(name, real):
        def call(rows, *args):
            calls.append((name, rows.shape))
            return real(rows, *args)
        return call

    for name in ("_parts", "_vjp"):
        monkeypatch.setattr(search, name, counting(name, getattr(search, name)))
    report = run_search(cfg)
    assert report.gradient_check == max(errors) < 1e-6
    # one Gram per start and per checked start at V + sD and V - sD; the gradient at V alone
    n = d * d
    assert calls[:2] == [("_parts", (restarts + 2 * len(directions), n, d)),
                         ("_vjp", (restarts, n, d))]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 5), seed=st.integers(0, 2**64 - 1))
def test_gradient_check_holds_at_any_seed(d, seed):
    assert gradient_check(d, SearchConfig(d=d, k=d * d).b, seed=seed) < 1e-6


def wrong_vjp(equiangularity, completeness):
    """search._vjp with each of its two terms scaled (it is linear in u and e)."""
    vjp = search._vjp
    return lambda rows, gram, u, e, scale=1.0: vjp(rows, gram, equiangularity * u,
                                                   completeness * e, scale)


@pytest.mark.parametrize("scales", [(1.01, 1.0), (1.0, 0.0)])
def test_gradient_check_catches_a_wrong_gradient(monkeypatch, scales):
    cfg = SearchConfig(d=3, k=9, restarts=2, max_iterations=1)
    assert gradient_check(3, 1.0 / 36.0) < 1e-6 and run_search(cfg).gradient_check < 1e-6
    monkeypatch.setattr(search, "_vjp", wrong_vjp(*scales))
    assert gradient_check(3, 1.0 / 36.0) > 1e-4
    assert run_search(cfg).gradient_check >= 1e-4


def test_gradient_check_is_one_evaluation(monkeypatch):
    calls = []

    def counting(name, real):
        def call(rows, *args):
            calls.append((name, rows.shape))
            return real(rows, *args)
        return call

    for name in ("_parts", "_vjp"):
        monkeypatch.setattr(search, name, counting(name, getattr(search, name)))
    for name in ("_value_and_gradient", "_objective"):
        monkeypatch.setattr(search, name, lambda *args: pytest.fail("evaluation called"))
    assert gradient_check(3, 1.0 / 36.0) < 1e-6
    # one Gram per stack V, V + sD and V - sD at five points; the gradient at V alone
    assert calls == [("_parts", (15, 9, 3)), ("_vjp", (5, 9, 3))]


def test_gradient_check_at_large_d():
    for d in (12, 19):
        assert gradient_check(d, b_from_k(d, d * d)) < 1e-6
    # d = 19 is the largest SearchConfig admits with one restart
    report = run_search(SearchConfig(d=19, k=361, restarts=1, max_iterations=1))
    assert report.gradient_check < 1e-6


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("count", [1, 5])
def test_value_and_gradient_is_objective_and_gradient(d, count):
    rng = np.random.default_rng(d * 10 + count)
    rows = search._initial_vectors(rng, d, count)
    b = 1.0 / (d * d * (d + 1))
    value, grad = search._value_and_gradient(rows, b)
    assert np.array_equal(value, search._objective(rows, b))
    for i in range(count):
        assert value[i] == objective(rows[i], d, d * d)
        assert np.array_equal(grad[i], gradient(rows[i], d, d * d))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_jacobian_products_are_adjoint_and_match_central_differences(d):
    rng = np.random.default_rng(40 + d)
    n, b = d * d, 1.0 / (d * d * (d + 1))
    rows, p = search._initial_vectors(rng, d, 2)
    gram = search._parts(rows, b)[0]
    u = rng.standard_normal((n, n))
    u = u + u.T
    np.fill_diagonal(u, 0.0)
    e = rng.standard_normal((d, 2 * d)).view(complex)
    e = e + e.conj().T
    du, de = search._jvp(rows, gram, p)
    # <J p, (u, e)> under sum u u' + w Re<e, e'> equals Re<p, J^T (u, e)>
    left = np.sum(du * u) + search._PENALTY_WEIGHT * np.vdot(de, e).real
    right = np.vdot(p, search._vjp(rows, gram, u, e)).real
    assert abs(left - right) <= 1e-12 * abs(right)
    h = 1e-6
    (_, dev_up, delta_up), (_, dev_down, delta_down) = (search._parts(rows + s * p, b)
                                                        for s in (h, -h))
    assert np.allclose((dev_up - dev_down) / (2 * h), du, rtol=0.0, atol=1e-8)
    assert np.allclose((delta_up - delta_down) / (2 * h), de, rtol=0.0, atol=1e-8)
    assert np.all(np.diagonal(du) == 0.0)
    # J p of a stack is J p of each matrix, bit for bit
    stack, ps = search._initial_vectors(rng, d, 6).reshape(2, 3, n, d)
    stacked = search._jvp(stack, search._parts(stack, b)[0], ps)
    for i in range(3):
        alone = search._jvp(stack[i], search._parts(stack[i], b)[0], ps[i])
        assert all(np.array_equal(x[i], y) for x, y in zip(stacked, alone))


@pytest.mark.parametrize("t,zeros", [(0.3, 19), (1.1, 19), (0.0, 21)])
def test_d3_sics_are_degenerate_zeros_of_the_objective(t, zeros):
    # J of r = (dev, sqrt(w) delta), one column per real coordinate of the vectors, at
    # exact Weyl-Heisenberg SICs: 17 zero singular values are the gauge (a phase per
    # vector and U(3) without its overall phase), one the family tangent d/dt, and one
    # a direction along which f grows quartically; the Hesse point t = 0 has two more
    rows = wh_sic_vectors(t)
    assert search._objective(rows, 1.0 / 36.0) < 1e-29
    units = np.eye(2 * rows.size).view(complex).reshape(-1, *rows.shape)
    du, de = search._jvp(rows, search._parts(rows, 1.0 / 36.0)[0], units)
    jac = np.hstack([du.reshape(len(units), -1),
                     np.sqrt(search._PENALTY_WEIGHT) * de.reshape(len(units), -1).view(float)])
    values = np.linalg.svd(jac, compute_uv=False)
    assert np.count_nonzero(values < 1e-10) == zeros
    assert np.sort(values)[zeros] > 0.1


def test_polish_stops_at_a_zero_gradient():
    # every vector zero: f = d^2 (d^2 - 1) b^2 + w d, and J^T r = 0, so no solve runs
    rows, b = np.zeros((4, 2), dtype=complex), 0.07
    polished, f = search._polish(rows, b)
    assert np.array_equal(polished, rows)
    assert f == pytest.approx(12 * b * b + 2 * search._PENALTY_WEIGHT, rel=1e-15)


def test_armijo_ladder_equals_serial_halvings(monkeypatch):
    b = 1.0 / 36.0
    point = two_call_vectors(np.random.default_rng(5), 3)
    f0, g0 = search._value_and_gradient(point, b)
    # descent directions, two of them settled only in a second and a third ladder of
    # halvings, then one along the ascent direction +g0 that no halving rescues, and
    # one whose slope is NaN
    scale = np.array([1e-3, 3e-2, 0.1, 0.3, 2.0, 10.0, 1e4, 1e6, -1e3, 1.0])
    rows = np.repeat(point[None], len(scale), axis=0)
    direction = scale[:, None, None] * g0
    f = np.full(len(scale), f0)
    slope = scale * search._sum2(np.abs(g0) ** 2)
    slope[-1] = np.nan
    # a ladder from halving 1, as taken after a failed full step: 1, 2, 3 first
    expected = serial_armijo_steps(rows, direction, f, slope, b, start=1)
    halvings = -np.log2(expected[0])
    assert list(halvings[:8]) == [1, 1, 2, 4, 7, 9, 19, 26] and np.isnan(halvings[8:]).all()
    assert search._LADDER == 3 and [(h - 1) // search._LADDER for h in halvings[3:5]] == [1, 2]
    t, fc, taken, grad = search._armijo_steps(rows, direction, f, slope, b)
    for a, e in zip((t, fc), expected):
        assert np.array_equal(a, e, equal_nan=True)
    # the rows, f and gradient it returns at each step are rows - t direction and
    # _value_and_gradient there, bit for bit
    moved = ~np.isnan(t)
    at = rows[moved] - t[moved, None, None] * direction[moved]
    value, grad_at = search._value_and_gradient(at, b)
    assert np.array_equal(taken[moved], at) and np.array_equal(fc[moved], value)
    assert np.array_equal(grad[moved], grad_at)
    # negative, NaN and zero slopes get NaN at once, with no evaluation
    calls = []
    for name in ("_parts", "_objective", "_vjp"):
        monkeypatch.setattr(search, name, lambda *args: calls.append(args))
    got = search._armijo_steps(rows[:3], direction[:3], f[:3], np.array([-1.0, np.nan, 0.0]), b)
    assert np.isnan(got[:2]).all() and not calls


def test_armijo_ladder_stays_under_the_entry_cap():
    # each d at its largest admitted restart count: every Armijo ladder, and the s and
    # the y half of the L-BFGS history (restarts, _MEMORY, 2, 2 d^3), fit the cap
    for d in range(2, 20):
        restarts = search.MAX_SEARCH_ENTRIES // d**4 // 3
        assert SearchConfig(d=d, k=d * d, restarts=restarts).restarts == restarts
        with pytest.raises(InvalidConfig, match="over the cap"):
            SearchConfig(d=d, k=d * d, restarts=restarts + 1)
        assert search._LADDER * restarts * d**4 <= search.MAX_SEARCH_ENTRIES
        assert restarts * search._MEMORY * d**3 <= search.MAX_SEARCH_ENTRIES


@pytest.mark.parametrize("d", [2, 3, 4])
def test_two_loop_direction_equals_the_dense_update(d):
    rng = np.random.default_rng(40 + d)
    restarts, n = 6, 2 * d**3
    grad = rng.standard_normal((restarts, n))
    pairs = rng.standard_normal((restarts, search._MEMORY, 2, n))
    pairs[:, :, 1] += 2.0 * pairs[:, :, 0]
    sy = np.add.reduce(pairs[:, :, 0] * pairs[:, :, 1], axis=-1)
    assert (sy > 0).all()
    # as _descend_batch stores them: each pair over sqrt(<s, y>), empty slots zero
    stored = pairs / np.sqrt(sy)[:, :, None, None]
    for history in (pairs, stored):
        history[0] = 0.0  # no pair: the direction is gamma0 grad
        history[1, :3] = history[2, :1] = history[3, 2] = 0.0  # empty slots, the newest kept
    gamma0 = rng.uniform(1e-3, 1e-2, restarts)
    # the H0 scale _descend_batch keeps per restart, by the dense reference's rule
    gamma = np.array([h0_scale(pairs[i, :, 0], pairs[i, :, 1], gamma0[i])
                      for i in range(restarts)])
    got = search._lbfgs_directions(grad, stored, gamma)
    for i in range(restarts):
        expected = dense_lbfgs_direction(grad[i], pairs[i, :, 0], pairs[i, :, 1], gamma0[i])
        assert np.linalg.norm(got[i] - expected) <= 1e-12 * np.linalg.norm(expected)
        # alone, over the view of its newest slots from its oldest filled one on, a
        # restart's direction is unchanged
        one, filled = slice(i, i + 1), stored[i, :, 0].any(axis=-1)
        newest = stored[one, filled.argmax() if filled.any() else search._MEMORY:]
        alone = search._lbfgs_directions(grad[one], newest, gamma[one])
        assert np.array_equal(alone[0], got[i])
    assert np.array_equal(got[0], gamma0[0] * grad[0])


@pytest.mark.parametrize("d,k,b", [(3, 9, None), (2, 2, 2.0 / 25.0), (4, 16, None),
                                   (3, 8, None)])
def test_batched_restarts_match_running_alone(d, k, b):
    cfg = SearchConfig(d=d, k=k, b=b, restarts=5, max_iterations=300, seed=2)
    stack = search._initial_vectors(np.random.default_rng(cfg.seed), d, cfg.restarts)
    rows, f, iterations, traces, reasons = descend(stack, cfg)
    for i in range(cfg.restarts):
        alone = descend(stack[i:i + 1], cfg)
        assert alone[1][0] == f[i]
        assert alone[2][0] == iterations[i]
        assert np.array_equal(alone[0][0], rows[i])
        assert (alone[3][0], alone[4][0]) == (traces[i], reasons[i])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_initial_vectors_fill_one_draw_in_order(d):
    for seed in (0, 7):
        few = search._initial_vectors(np.random.default_rng(seed), d, 3)
        many = search._initial_vectors(np.random.default_rng(seed), d, 5)
        assert few.shape == (3, d * d, d) and few.tobytes() == many[:3].tobytes()
        norms2 = np.add.reduce((np.abs(many) ** 2).reshape(5, -1), axis=-1)
        assert np.allclose(norms2, d, rtol=1e-14, atol=0.0)


def test_a_restart_does_not_depend_on_how_many_run():
    # restart i starts from block i of one draw, so the first three restarts of a
    # five-restart run are the three of a three-restart run; goal and cap both occur
    kwargs = dict(d=3, k=9, max_iterations=1000, seed=0)
    few = run_search(SearchConfig(restarts=3, **kwargs))
    many = run_search(SearchConfig(restarts=5, **kwargs))
    assert set(few.stop_reasons) == {"goal", "cap"}
    assert few.stop_reasons == many.stop_reasons[:3]
    assert few.iterations_per_restart == many.iterations_per_restart[:3]


def test_stop_reasons_are_reported_per_restart():
    stalled = run_search(SearchConfig(d=3, k=8, restarts=3, max_iterations=50, seed=5))
    assert stalled.stop_reasons == ("cap",) * 3
    assert stalled.iterations_per_restart == (50,) * 3
    # both restarts retire as fixed points, at iterations 808 and 1147, and count as capped
    fixed = run_search(SearchConfig(d=3, k=8, restarts=2, max_iterations=1200, seed=0))
    assert fixed.stop_reasons == ("cap", "cap") and fixed.iterations_per_restart == (1200, 1200)
    assert [n for n, _ in fixed.objective_trace] == list(range(0, 1201, 6))

    solved = run_search(SearchConfig(d=2, k=2, b=2.0 / 25.0, restarts=4, seed=8))
    assert solved.best_povm is not None
    assert set(solved.stop_reasons) <= set(STOP_REASONS)
    last = solved.objective_trace[-1][0]
    best = [i for i, n in enumerate(solved.iterations_per_restart) if n == last]
    assert len(best) == 1 and solved.stop_reasons[best[0]] == "goal"
    assert solved.to_dict()["stop_reasons"] == list(solved.stop_reasons)


@pytest.mark.parametrize("d,k,restarts,cap,loop_end", [
    (3, 9, 3, 1, None), (3, 9, 3, 3, None), (3, 9, 3, 399, None), (3, 9, 3, 401, None),
    (3, 9, 3, 1999, None), (3, 8, 2, 1200, 1147)])
def test_trace_points_are_the_f_of_each_restart_capped_there(d, k, restarts, cap, loop_end):
    # a restart's trace is f at the stride multiples up to its n iterations, then at n,
    # each the final f of that restart run alone under a cap at that point. The loop ends
    # at the last stop; at (3, 8) both restarts retire as fixed points, at iterations 808
    # and 1147, so the trace points past 1146 lie beyond the f-history's last row
    cfg = SearchConfig(d=d, k=k, restarts=restarts, max_iterations=cap, seed=0)
    stack = search._initial_vectors(np.random.default_rng(cfg.seed), d, restarts)
    f0, grad = search._value_and_gradient(stack, cfg.b)
    _, f, iterations, history, _ = search._descend_batch(stack, f0, grad, cfg.b, cfg)
    stride = max(1, cap // 200)  # 1 up to cap 399; 2 at 401 and 9 at 1999 leave remainders
    assert len(history) == (loop_end or max(iterations)) // stride + 1
    for i, n in enumerate(iterations.tolist()):
        trace = search._trace(history[:, i], f[i], n, cap)
        assert [m for m, _ in trace] == list(range(0, n + 1, stride)) + [n] * (n % stride > 0)
        assert trace[0] == (0, f0[i]) and trace[-1] == (n, f[i])
        later = trace[1:]
        for m, value in later[::max(1, len(later) // 4)] + later[-2:]:
            alone = descend(stack[i:i + 1], dataclasses.replace(cfg, max_iterations=m))
            assert alone[1][0] == value


def test_restarts_at_a_fixed_point_retire_at_the_cap(monkeypatch):
    # restart 0, the best, reaches a state its iterations no longer change at iteration
    # 807; it reports the cap, its iterations and every trace point, unevaluated
    evaluated = []

    def counting(rows, b):
        evaluated.append(rows.shape[:-2])
        return parts(rows, b)

    parts = search._parts  # every evaluation: the start, full steps and ladders
    monkeypatch.setattr(search, "_parts", counting)
    report = run_search(SearchConfig(d=3, k=8, restarts=2, max_iterations=1200, seed=0))
    assert report.stop_reasons == ("cap", "cap")
    assert report.iterations_per_restart == (1200, 1200)
    assert [n for n, _ in report.objective_trace] == list(range(0, 1201, 6))
    assert report.objective_trace[-1][1] == report.best_residual
    # the start (both restarts, and both at +-sD for the gradient check), then one full
    # step per live restart and iteration: restart 0 retires after 808 iterations and
    # restart 1, a fixed point too, after 1147; a ladder holds only live restarts
    full, live = [], None
    for n, *ladder in evaluated:
        if ladder:
            assert n <= live
        else:
            live = n
            full.append(n)
    assert full == [6] + [2] * 808 + [1] * 339


def test_stalled_and_gradient_free_restarts_stop_at_once(monkeypatch):
    # no Armijo halving passes, so a restart with a gradient and no pair finds no step in
    # its first iteration; V = 0 has an exactly zero gradient, so its zero step passes.
    # Both leave rows and f unchanged: fixed points, reported as the cap with full traces.
    # Under the usual Armijo constant, a restart from the same start whose direction is
    # turned uphill once it holds a pair steps once, stores its first pair, finds no step
    # in its second iteration and retires the same way, with its rows and f after the first
    cfg = SearchConfig(d=3, k=9, restarts=2, max_iterations=50)
    start, zero = two_call_vectors(np.random.default_rng(3), 3), np.zeros((9, 3), dtype=complex)
    f0, fz = search._objective(np.stack([start, zero]), cfg.b).tolist()
    once = SearchConfig(d=3, k=9, max_iterations=1)
    stepped, (f1,), *_ = descend(start[None], once)
    assert f1 < f0 and not np.array_equal(stepped[0], start)
    full, held, evaluated = range(cfg.max_iterations + 1), [], []

    def counting(rows, b):
        evaluated.append(len(rows))
        return value_and_gradient(rows, b)

    def uphill(grad, pairs, gamma):
        held.append(pairs[:, -1:, 0].any(axis=(1, 2)).tolist())
        r = lbfgs_directions(grad, pairs, gamma)
        r[held[-1]] *= -1.0
        return r

    value_and_gradient, lbfgs_directions = search._value_and_gradient, search._lbfgs_directions
    monkeypatch.setattr(search, "_value_and_gradient", counting)
    monkeypatch.setattr(search, "_lbfgs_directions", uphill)
    armijo = search._ARMIJO
    cases = [  # Armijo constant, end rows, end f, traces, evaluations, pairs held per call
        (1e200, [start, zero], [f0, fz], [[(n, f0) for n in full], [(n, fz) for n in full]],
         [2, 2], [[False, False]]),  # the start and one full step, then both are retired
        (armijo, [stepped[0], zero], [f1, fz],
         [[(0, f0)] + [(n, f1) for n in full[1:]], [(n, fz) for n in full]],
         [2, 2, 1], [[False, False], [True]]),  # and a second, uphill full step
    ]
    for constant, end_rows, end_f, end_traces, evaluations, pairs_held in cases:
        monkeypatch.setattr(search, "_ARMIJO", constant)
        del evaluated[:], held[:]
        stack = np.stack([start, zero])
        rows, f, iterations, traces, reasons = descend(stack, cfg)
        assert reasons == ["cap", "cap"]
        assert list(iterations) == [cfg.max_iterations] * 2
        assert (evaluated, held) == (evaluations, pairs_held)
        for i in range(2):
            assert np.array_equal(rows[i], end_rows[i]) and f[i] == end_f[i]
            assert traces[i] == end_traces[i]
            alone = descend(stack[i:i + 1], cfg)
            assert np.array_equal(alone[0][0], rows[i]) and alone[1][0] == f[i]
            assert (alone[2][0], alone[3][0], alone[4][0]) == (iterations[i], traces[i],
                                                               reasons[i])


@pytest.mark.parametrize("d,k,b", [(2, 2, 0.07), (3, 9, None), (3, 8, None)])
def test_each_restart_keeps_its_h0_scale(monkeypatch, d, k, b):
    # every direction gets, per restart, gamma0 = 0.01 / (1 + |grad f|) at its starting
    # gradient before it stores a pair, then <s, y> / <y, y> of the newest pair; each
    # restart stores one in its first iteration, so gamma0 is NaN after the first call
    newest = []

    def checked(grad, pairs, gamma):
        for i in range(len(grad)):
            gamma0 = np.nan if newest else 0.01 / (1.0 + np.linalg.norm(grad[i]))
            expected = h0_scale(pairs[i, :, 0], pairs[i, :, 1], gamma0)
            assert gamma[i] == pytest.approx(expected, rel=1e-12, abs=0.0)
        newest.append(pairs[:, -1:, 0].any(axis=(1, 2)))
        return lbfgs_directions(grad, pairs, gamma)

    lbfgs_directions = search._lbfgs_directions
    monkeypatch.setattr(search, "_lbfgs_directions", checked)
    cfg = SearchConfig(d=d, k=k, b=b, restarts=3, max_iterations=200, seed=1)
    stack = search._initial_vectors(np.random.default_rng(cfg.seed), d, cfg.restarts)
    descend(stack, cfg)
    assert not newest[0].any() and all(n.all() for n in newest[1:]) and len(newest) > 10


def test_the_pair_history_is_its_own_empty_slot_mask(monkeypatch):
    # a stored pair is never zero (Re<s, y> > 0 needs s != 0), so a slot is empty exactly
    # when its s is zero; a restart's filled slots are its newest ones; after it iterations
    # every slot older than the newest min(it, _MEMORY), which the two-loop skips, is zero in
    # every live restart; and an all-zero slot, which the two-loop runs for a restart that
    # stored fewer pairs, leaves the direction bit for bit
    counts = []

    def checked(grad, pairs, gamma):
        history = pairs.base  # the whole (restarts, _MEMORY, 2, n) history it is a view of
        assert history.shape == (len(grad), search._MEMORY) + pairs.shape[2:]
        assert pairs.shape[1] == min(len(counts), search._MEMORY)
        assert not history[:, :search._MEMORY - pairs.shape[1]].any()
        filled = history[:, :, 0].any(axis=-1)
        assert np.array_equal(filled, history.any(axis=(2, 3)))
        assert (filled[:, 1:] >= filled[:, :-1]).all()
        counts.append(filled.sum(axis=1).tolist())
        r = lbfgs_directions(grad, pairs, gamma)
        # one more, oldest slot: zero in every restart but an added one that fills it
        padded = np.zeros((len(grad) + 1, pairs.shape[1] + 1) + pairs.shape[2:])
        padded[:-1, 1:], padded[-1, 0] = pairs, 1.0
        wider = lbfgs_directions(np.vstack([grad, grad[:1]]), padded, np.append(gamma, 1.0))
        assert np.array_equal(wider[:-1], r)
        return r

    lbfgs_directions = search._lbfgs_directions
    monkeypatch.setattr(search, "_lbfgs_directions", checked)
    cfg = SearchConfig(d=2, k=2, b=0.07, restarts=3, max_iterations=200, seed=1)
    stack = search._initial_vectors(np.random.default_rng(cfg.seed), cfg.d, cfg.restarts)
    descend(stack, cfg)
    # every step stores its pair, and each stays filled until it is shifted out
    assert len(counts) > 100
    assert counts == [[min(i, search._MEMORY)] * len(c) for i, c in enumerate(counts)]


def test_armijo_ladders_run_only_on_failed_steps(monkeypatch):
    sizes = []

    def counting(rows, *args):
        sizes.append(len(rows))
        return armijo_steps(rows, *args)

    armijo_steps = search._armijo_steps
    monkeypatch.setattr(search, "_armijo_steps", counting)
    run_search(SearchConfig(d=2, k=2, b=0.07, restarts=4, max_iterations=20, seed=13))
    assert sizes and 0 not in sizes


@pytest.mark.parametrize("d,k,b,restarts,cap,seed", [(2, 2, 0.07, 4, 2000, 0),
                                                     (3, 8, None, 3, 300, 5)])
def test_each_iteration_evaluates_each_point_once(monkeypatch, d, k, b, restarts, cap, seed):
    # per iteration, _parts sees every live restart once at its full step, then, in each
    # ladder of _LADDER halvings, the restarts whose step is not yet found; a restart that
    # stopped is never evaluated again
    events = []

    def parts(rows, b):
        events.append(rows.shape[:-2])
        return real_parts(rows, b)

    def directions(grad, pairs, gamma):
        # the newest min(it, _MEMORY) slots, it the iterations run before this one
        assert pairs.shape[1] == min(sum(isinstance(e, str) for e in events), search._MEMORY)
        events.append("iteration")
        return real_directions(grad, pairs, gamma)

    def armijo(*args):
        out = real_armijo(*args)
        events.append(out[0])
        return out

    real_parts, real_directions, real_armijo = (search._parts, search._lbfgs_directions,
                                                search._armijo_steps)
    for name, fn in (("_parts", parts), ("_lbfgs_directions", directions),
                     ("_armijo_steps", armijo)):
        monkeypatch.setattr(search, name, fn)
    cfg = SearchConfig(d=d, k=k, b=b, restarts=restarts, max_iterations=cap, seed=seed)
    stack = search._initial_vectors(np.random.default_rng(cfg.seed), d, restarts)
    _, _, iterations, _, reasons = descend(stack, cfg)
    assert events[0] == (restarts,) and len(set(reasons)) == 1
    marks = [i for i, e in enumerate(events) if isinstance(e, str)] + [len(events)]
    assert len(marks) - 1 == max(iterations)
    groups = []
    for it, (start, end) in enumerate(zip(marks, marks[1:])):
        got = events[start + 1:end]
        assert got[0] == (np.count_nonzero(np.asarray(iterations) > it),)
        expected = got[:1]
        if len(got) > 1:
            steps = got[-1]
            assert np.isfinite(steps).all()  # every ladder here finds its step
            joined = (-np.log2(steps).astype(int) - 1) // search._LADDER + 1
            expected += [(np.count_nonzero(joined > g), search._LADDER)
                         for g in range(joined.max())] + [got[-1]]
            groups += joined.tolist()
        assert got == expected
    assert groups and max(groups) > 1


def test_search_finds_qubit_member():
    cfg = SearchConfig(d=2, k=2, b=2.0 / 25.0, restarts=4, seed=7)
    report = run_search(cfg)
    assert report.best_residual < 1e-12
    assert report.best_povm is not None
    assert report.classification == STRICT_SEMI_SIC
    assert report.observed_k == 2
    assert report.restarts_run == 4
    assert len(report.iterations_per_restart) == 4
    assert report.gradient_check < 1e-6


@pytest.mark.parametrize("d,k,b,restarts,seed", [
    (2, 2, 0.0626, 4, 0), (2, 2, 0.07, 4, 0), (2, 2, 0.08, 4, 0), (2, 4, None, 4, 0),
    # the descent ends this one near the double root 1/2 with traces split 1 + 3
    (2, 4, None, 4, 35),
    # the worst (2, 4) hit over seeds 0-119; 40 polish solves keep it under 1e-11
    (2, 4, None, 4, 33), (3, 9, None, 6, 0), (4, 16, None, 3, 0), (5, 25, None, 2, 0)])
def test_every_search_hit_passes_verify_and_dual(d, k, b, restarts, seed):
    config = SearchConfig(d=d, k=k, b=b, restarts=restarts, seed=seed)
    report = run_search(config)
    assert report.best_povm is not None
    if (d, k, seed) == (2, 4, 35):  # the case of the qubit rule: not split 2 + 2
        assert np.count_nonzero(report.best_povm.traces() < 0.5) != 2
    checked = verify(report.best_povm)
    assert report.classification == checked.classification != NOT_SEMI_SIC
    assert report.observed_k == checked.k and checked.max_violation <= 1e-11
    assert report.best_residual <= report.objective_trace[-1][1] < config.residual_goal
    frame = dual_basis(report.best_povm, SemiSicParams.from_b(d, checked.fitted_b, checked.k))
    assert frame.source_k == checked.k


@pytest.mark.parametrize("d,k,restarts,goal,seed", [
    (3, 9, 6, 1e-6, 0), (3, 9, 6, 1e-4, 0), (2, 4, 4, 1e-4, 0),
    # the lowest-f hit's polish does not verify here; a later hit's does
    (3, 9, 6, 1e-2, 3), (4, 16, 4, 1e-2, 2)],
    ids=["3-9-6-1e-06", "3-9-6-0.0001", "2-4-4-0.0001", "3-9-6-0.01-seed3", "4-16-4-0.01-seed2"])
def test_a_loose_goal_still_gives_a_verified_hit(d, k, restarts, goal, seed):
    # every restart stops at the goal itself, and the polish alone finishes the hits,
    # lowest f first, until one verifies
    config = SearchConfig(d=d, k=k, restarts=restarts, seed=seed, residual_goal=goal)
    report = run_search(config)
    assert report.stop_reasons == ("goal",) * restarts
    checked = verify(report.best_povm)
    assert report.classification == checked.classification != NOT_SEMI_SIC
    assert report.observed_k == checked.k and checked.max_violation < TOL_COND
    frame = dual_basis(report.best_povm, SemiSicParams.from_b(d, checked.fitted_b, checked.k))
    assert frame.source_k == checked.k


def test_search_is_deterministic():
    cfg = SearchConfig(d=2, k=2, b=2.0 / 25.0, restarts=3, seed=11)
    first = run_search(cfg)
    second = run_search(cfg)
    assert first.best_residual == second.best_residual
    assert first.objective_trace == second.objective_trace
    assert first.iterations_per_restart == second.iterations_per_restart


def test_search_trace_is_monotone_when_stalling():
    cfg = SearchConfig(d=3, k=8, restarts=2, max_iterations=400, seed=5)
    report = run_search(cfg)
    values = [f for _, f in report.objective_trace]
    assert report.objective_trace[0][0] == 0
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    # no strict example is reached here, so no POVM is attached
    assert report.best_povm is None
    assert report.classification is None


def test_report_serialization_roundtrip(tmp_path):
    cfg = SearchConfig(d=2, k=4, restarts=2, max_iterations=300, seed=13)
    report = run_search(cfg)
    path = tmp_path / "report.json"
    report.save(path)
    raw = json.loads(path.read_text())
    assert raw == report.to_dict()
    assert raw["config"]["d"] == 2
    assert raw["config"]["k"] == 4
    assert raw["config"]["b"] == 1.0 / 12.0
    assert raw["best_residual"] == report.best_residual
    if report.best_povm is not None:
        assert len(raw["best_povm"]["elements"]) == 4


def test_report_best_povm_is_a_povm_document():
    report = run_search(SearchConfig(d=2, k=2, b=0.07, restarts=2, seed=3))
    assert report.best_povm is not None
    doc = parse_povm_document(report.to_dict()["best_povm"])
    assert np.array_equal(doc.povm.elements, report.best_povm.elements)
    assert (doc.b, doc.k) == (report.config.b, report.observed_k)


def test_run_search_requires_config():
    with pytest.raises(InvalidConfig):
        run_search({"d": 2})

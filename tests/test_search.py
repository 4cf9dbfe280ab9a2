"""Search configuration, objective/gradient contracts, and full runs."""

import json

import numpy as np
import pytest

from helpers import hesse_sic, serial_armijo_steps, serial_central_differences
from semisic import search
from semisic.documents import parse_povm_document
from semisic.errors import InvalidConfig
from semisic.model import STRICT_SEMI_SIC, b_from_k
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


def hesse_rows():
    # rank-one elements: recover vector rows from the top eigenvector
    return np.stack([np.linalg.eigh(e)[1][:, -1] * np.sqrt(np.trace(e).real)
                     for e in hesse_sic().elements])


def test_objective_derives_b_from_counts():
    rows = hesse_rows()
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
    qubit_rows = search._initial_vectors(rng, 2)
    value, grad = search._value_and_gradient(qubit_rows, 1.0 / 12.0)
    assert objective(qubit_rows, 2, 4) == value
    assert np.array_equal(gradient(qubit_rows, 2, 4), grad)
    rows = hesse_rows() + 1e-3 * search._initial_vectors(rng, 3)
    for fn in (objective, gradient):
        assert np.array_equal(fn(rows, 3, 9, 1.0 / 36.0 + 5e-11), fn(rows, 3, 9))
        with pytest.raises(InvalidConfig, match="does not match the overlap"):
            fn(rows, 3, 9, 1.0 / 36.0 + 1e-9)


def test_objective_validates_vectors():
    with pytest.raises(ValueError):
        objective(np.zeros((3, 2)), 2, 2, b=0.07)
    bad = np.full((4, 2), np.nan, dtype=complex)
    with pytest.raises(ValueError):
        objective(bad, 2, 2, b=0.07)


def test_gradient_matches_finite_differences():
    assert gradient_check(2, 2.0 / 25.0, seed=3) < 1e-6
    assert gradient_check(3, 1.0 / 36.0, seed=3) < 1e-6


def check_points(d, seed):
    """The five points gradient_check draws for (d, seed), in turn from one generator."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x67726164,)))
    return np.stack([search._initial_vectors(rng, d) for _ in range(5)])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_closed_form_differences_equal_serial_central_differences(d):
    b = 2.0 / 25.0 if d == 2 else 1.0 / (d * d * (d + 1))
    for seed in (0, 3):
        base = check_points(d, seed)
        closed = search._central_differences(base, b, 1e-2)
        analytic = search._value_and_gradient(base, b)[1]
        for p in range(len(base)):
            serial = serial_central_differences(base[p], b, 1e-2)
            scale = np.abs(serial).max()
            assert np.abs(closed[p] - serial).max() <= 1e-12 * scale
            # a finite difference, not the gradient in another form: O(step^2) apart
            assert np.abs(closed[p] - analytic[p]).max() > 1e-6 * scale
        numeric = search._central_differences(base, b, 1e-6)
        error = np.abs(analytic - numeric).max(axis=(1, 2)) / np.maximum(
            1.0, np.abs(numeric).max(axis=(1, 2)))
        assert gradient_check(d, b, seed=seed) == error.max() < 1e-6


def wrong_value_and_gradient(equiangularity, completeness):
    """search._value_and_gradient with each gradient term scaled."""
    def value_and_gradient(rows, b):
        gram, dev, delta = search._parts(rows, b)
        grad = (equiangularity * 8.0 * (dev * gram.swapaxes(-1, -2)) @ rows
                + completeness * 4.0 * search._PENALTY_WEIGHT * rows @ delta.conj())
        return search._objective(rows, b), grad
    return value_and_gradient


@pytest.mark.parametrize("scales", [(1.01, 1.0), (1.0, 0.0)])
def test_gradient_check_catches_a_wrong_gradient(monkeypatch, scales):
    assert gradient_check(3, 1.0 / 36.0) < 1e-6
    monkeypatch.setattr(search, "_value_and_gradient", wrong_value_and_gradient(*scales))
    assert gradient_check(3, 1.0 / 36.0) > 1e-4


def test_gradient_check_at_large_d():
    assert gradient_check(12, b_from_k(12, 144)) < 1e-6


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("count", [1, 5])
def test_value_and_gradient_is_objective_and_gradient(d, count):
    rng = np.random.default_rng(d * 10 + count)
    rows = np.stack([search._initial_vectors(rng, d) for _ in range(count)])
    b = 1.0 / (d * d * (d + 1))
    value, grad = search._value_and_gradient(rows, b)
    assert np.array_equal(value, search._objective(rows, b))
    for i in range(count):
        assert value[i] == objective(rows[i], d, d * d)
        assert np.array_equal(grad[i], gradient(rows[i], d, d * d))


def test_armijo_ladder_equals_serial_halvings():
    b = 1.0 / 36.0
    point = search._initial_vectors(np.random.default_rng(5), 3)
    f0, g0 = search._value_and_gradient(point, b)
    # descent steps, two of them settled only in a second and a third ladder of halvings,
    # then one along the ascent direction +g0 that no halving rescues
    step = np.array([1e-3, 3e-2, 0.1, 0.3, 10.0, 1e4, 1e6, 1e3])
    rows = np.repeat(point[None], len(step), axis=0)
    grad = np.stack([g0] * 7 + [-g0])
    f = np.full(len(step), f0)
    gnorm2 = np.full(len(step), search._sum2(np.abs(g0) ** 2))
    expected = serial_armijo_steps(rows, grad, f, gnorm2, b, step)
    halvings = np.log2(step / expected[0])
    assert list(halvings[:7]) == [0, 1, 2, 4, 9, 19, 26] and np.isnan(halvings[7])
    assert search._LADDER < halvings[5] < 2 * search._LADDER < halvings[6]
    got = search._armijo_steps(rows, grad, f, gnorm2, b, step)
    for a, e in zip(got, expected):
        assert np.array_equal(a, e, equal_nan=True)


def test_armijo_ladder_stays_under_the_entry_cap():
    # each d at its largest admitted restart count; a ladder narrows as more restarts are
    # pending, so both ends are checked
    for d in range(2, 20):
        restarts = search.MAX_SEARCH_ENTRIES // d**4 // 3
        assert SearchConfig(d=d, k=d * d, restarts=restarts).restarts == restarts
        with pytest.raises(InvalidConfig, match="over the cap"):
            SearchConfig(d=d, k=d * d, restarts=restarts + 1)
        for pending in (1, restarts):
            width = search._ladder_width(pending, d)
            assert 3 <= width <= search._LADDER
            assert pending * width * d**4 <= search.MAX_SEARCH_ENTRIES
    assert search._ladder_width(10, 19) == 3 and search._ladder_width(4, 3) == search._LADDER


@pytest.mark.parametrize("d,k,b", [(3, 9, None), (2, 2, 2.0 / 25.0), (4, 16, None),
                                   (3, 8, None)])
def test_batched_restarts_match_running_alone(d, k, b):
    cfg = SearchConfig(d=d, k=k, b=b, restarts=5, max_iterations=300, seed=2)
    stack = np.stack([search._initial_vectors(search._restart_rng(cfg.seed, i), d)
                      for i in range(cfg.restarts)])
    rows, f, iterations, traces, reasons = search._descend_batch(stack, cfg.b, cfg)
    for i in range(cfg.restarts):
        alone = search._descend_batch(stack[i:i + 1], cfg.b, cfg)
        assert alone[1][0] == f[i]
        assert alone[2][0] == iterations[i]
        assert np.array_equal(alone[0][0], rows[i])
        assert (alone[3][0], alone[4][0]) == (traces[i], reasons[i])


def test_line_fit_without_a_cubic_gives_no_model_step():
    rows = family_rows(0.07)[None]
    f0 = search._objective(rows, 0.07)
    flat = search._model_steps(rows, np.zeros_like(rows), f0, np.zeros(1), 0.07,
                               np.array([1e-3]))
    assert np.isnan(flat).all()


def test_stop_reasons_are_reported_per_restart():
    stalled = run_search(SearchConfig(d=3, k=8, restarts=3, max_iterations=50, seed=5))
    assert stalled.stop_reasons == ("cap",) * 3
    assert stalled.iterations_per_restart == (50,) * 3

    solved = run_search(SearchConfig(d=2, k=2, b=2.0 / 25.0, restarts=4, seed=7))
    assert solved.best_povm is not None
    assert set(solved.stop_reasons) <= set(STOP_REASONS)
    last = solved.objective_trace[-1][0]
    best = [i for i, n in enumerate(solved.iterations_per_restart) if n == last]
    assert len(best) == 1 and solved.stop_reasons[best[0]] == "goal"
    assert solved.to_dict()["stop_reasons"] == list(solved.stop_reasons)


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

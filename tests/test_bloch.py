"""Bloch-vector conversions against the qubit measurement family."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import bisection_ball_residual, closed_form_directions
from semisic.bloch import (
    _RESIDUAL_GATE,
    _ball_residual,
    _directions,
    bloch_to_probs,
    bloch_to_state,
    probs_to_bloch,
)
from semisic.dual import probabilities
from semisic.errors import (
    InconsistentProbabilities,
    LengthMismatch,
    OutsideBlochBall,
)
from semisic.qubit import construct, family_point


def random_ball(rng, n):
    vecs = rng.normal(size=(n, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    radii = rng.random(n) ** (1.0 / 3.0)
    return vecs * radii[:, None]


def test_bloch_to_state_oracles():
    up = bloch_to_state([0.0, 0.0, 1.0])
    assert np.max(np.abs(up - np.diag([1.0, 0.0]))) < 1e-15
    center = bloch_to_state([0.0, 0.0, 0.0])
    assert np.max(np.abs(center - np.eye(2) / 2.0)) < 1e-15


def test_bloch_to_probs_oracles():
    point = family_point(2.0 / 25.0)
    pole = bloch_to_probs([0.0, 0.0, 1.0], point)
    assert np.allclose(pole, [0.4, 0.2, 0.2, 0.2], atol=1e-13)
    center = bloch_to_probs([0.0, 0.0, 0.0], point)
    assert np.allclose(center, [0.2, 0.2, 0.3, 0.3], atol=1e-13)


@pytest.mark.parametrize("b", [0.07, 2.0 / 25.0, 1.0 / 12.0])
def test_bloch_probs_match_born_rule(b):
    rng = np.random.default_rng(23)
    point = family_point(b)
    povm = construct(b)
    for v in random_ball(rng, 20):
        direct = bloch_to_probs(v, point)
        born = probabilities(bloch_to_state(v), povm)
        assert np.max(np.abs(direct - born)) < 1e-12


def test_bloch_roundtrip():
    rng = np.random.default_rng(29)
    point = family_point(2.0 / 25.0)
    for v in random_ball(rng, 100):
        back = probs_to_bloch(bloch_to_probs(v, point), point)
        assert np.max(np.abs(back - v)) < 1e-10


def test_bloch_map_is_affine():
    rng = np.random.default_rng(31)
    point = family_point(0.07)
    v1, v2 = random_ball(rng, 2)
    for lam in (0.0, 0.25, 0.7, 1.0):
        mix = lam * v1 + (1.0 - lam) * v2
        q = bloch_to_probs(mix, point)
        want = lam * bloch_to_probs(v1, point) + (1.0 - lam) * bloch_to_probs(v2, point)
        assert np.max(np.abs(q - want)) < 1e-14
        assert q.sum() == pytest.approx(1.0, abs=1e-14)


def test_bloch_pure_boundary():
    point = family_point(2.0 / 25.0)
    v = np.array([1.0, 0.0, 0.0])
    back = probs_to_bloch(bloch_to_probs(v, point), point)
    assert np.max(np.abs(back - v)) < 1e-10
    assert np.linalg.norm(back) <= 1.0 + 1e-9


def test_bloch_rejections():
    point = family_point(2.0 / 25.0)
    with pytest.raises(OutsideBlochBall):
        bloch_to_probs([0.8, 0.8, 0.8], point)
    with pytest.raises(OutsideBlochBall):
        bloch_to_state([0.0, 0.0, 1.0 + 1e-6])
    with pytest.raises(LengthMismatch):
        bloch_to_probs([0.0, 0.0], point)
    with pytest.raises(LengthMismatch):
        probs_to_bloch([0.25, 0.25, 0.5], point)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            bloch_to_probs([0.0, bad, 0.0], point)
        with pytest.raises(ValueError, match="non-finite"):
            probs_to_bloch([0.4, 0.2, bad, 0.2], point)


def test_probs_to_bloch_rejects_inconsistent_input():
    point = family_point(2.0 / 25.0)
    with pytest.raises(InconsistentProbabilities):
        probs_to_bloch([0.9, 0.05, 0.03, 0.02], point)
    with pytest.raises(InconsistentProbabilities):
        probs_to_bloch([0.5, 0.5, 0.5, 0.5], point)


def test_probs_to_bloch_rejects_probabilities_whose_fit_overflows():
    # from |q| ~ 1e154 on, ||r||^2 of the least-squares point overflows and the Newton
    # step is NaN; from 1e308 on, r itself does
    point = family_point(2.0 / 25.0)
    for value in (1e154, -1e154, 1e200, 1e308, -1e308):
        for slot in range(4):
            probs = np.full(4, 0.25)
            probs[slot] = value
            with pytest.raises(InconsistentProbabilities):
                probs_to_bloch(probs, point)


@pytest.mark.parametrize("b", [0.0626, 0.07, 2.0 / 25.0, 1.0 / 12.0])
def test_probabilities_just_outside_the_ball_are_projected(b):
    # least-squares r of norm 1 + 1e-8 and 1 + 1e-10: the nearest ball point
    # reproduces the probabilities within the residual gate
    point = family_point(b)
    center = bloch_to_probs(np.zeros(3), point)
    for v in random_ball(np.random.default_rng(37), 8):
        v /= np.linalg.norm(v)
        pure = bloch_to_probs(v, point) - center
        for excess in (1e-8, 1e-10):
            r = probs_to_bloch(center + (1.0 + excess) * pure, point)
            assert np.linalg.norm(r) <= 1.0 + 1e-15
            assert np.max(np.abs(r - v)) < 10.0 * excess
        with pytest.raises(InconsistentProbabilities):
            probs_to_bloch(center + 1.05 * pure, point)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(b=st.floats(1.0 / 16.0 + 1e-7, 1.0 / 12.0),
       radius=st.one_of(st.floats(0.0, 1.0),
                        st.floats(-9.0, 6.0).map(lambda e: min(1.0 + 10.0**e, 1e6))),
       polar=st.floats(0.0, np.pi), azimuth=st.floats(0.0, 2.0 * np.pi),
       offset=st.floats(0.0, 2e-8))
@example(b=0.07, radius=0.0, polar=0.0, azimuth=0.0, offset=0.0)  # rhs = 0
def test_newton_ball_step_matches_bisection(b, radius, polar, azimuth, offset):
    # an r inside the ball or of norm 1 + 10^e (up to 1e6), plus an offset off
    # the range of M
    weights, dirs = _directions(family_point(b))
    m = weights[:, None] * dirs
    u = np.array([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
                  np.cos(polar)])
    rhs = m @ (radius * u) + offset * np.linalg.svd(m)[0][:, -1]
    r, res = _ball_residual(m, rhs)
    want, want_res = bisection_ball_residual(m, rhs)
    assert (res > _RESIDUAL_GATE) == (want_res > _RESIDUAL_GATE)
    assert np.max(np.abs(r - want)) <= 1e-12


def test_directions_from_the_kets_match_the_closed_form():
    for b in np.linspace(1.0 / 16.0 + 1e-12, 1.0 / 12.0, 401):
        point = family_point(b)
        weights, dirs = _directions(point)
        want_weights, want_dirs = closed_form_directions(point)
        assert np.array_equal(weights, want_weights)
        assert np.max(np.abs(dirs - want_dirs)) <= 1e-15

"""The qubit family: coordinates, construction, and canonicalization."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import anchor_search_canonicalize, disguise, haar_unitary, hesse_sic
from semisic import qubit
from semisic.errors import BOutOfRange, DimensionMismatch, NotSemiSic
from semisic.model import NOT_SEMI_SIC, SIC, STRICT_SEMI_SIC, Povm, SemiSicParams, verify
from semisic.qubit import (
    B_MAX,
    B_MIN,
    canonicalize,
    construct,
    family_kets,
    family_point,
)

# interior overlaps plus the closed SIC endpoint
FAMILY_GRID = [0.065, 0.07, 2.0 / 25.0, 0.083, 1.0 / 12.0]


def test_family_point_oracle_values():
    point = family_point(2.0 / 25.0)
    assert point.r == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)
    assert np.cos(point.theta) == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)), abs=1e-15)
    assert point.params.k == 2
    assert point.params.a_minus == pytest.approx(0.4, abs=1e-15)
    assert point.params.a_plus == pytest.approx(0.6, abs=1e-15)


def test_family_point_sic_endpoint():
    point = family_point(1.0 / 12.0)
    assert point.r == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-14)
    assert point.theta == pytest.approx(np.pi / 3.0, abs=1e-12)
    assert point.params.k == 4
    assert point.params.a_minus == 0.5


def test_theta_decreases_over_the_interval():
    thetas = [family_point(b).theta for b in (0.0635, 0.07, 0.08, 1.0 / 12.0)]
    assert all(t1 > t2 for t1, t2 in zip(thetas, thetas[1:]))
    assert thetas[-1] == pytest.approx(np.pi / 3.0, abs=1e-12)
    assert all(np.pi / 3.0 <= t < np.pi / 2.0 for t in thetas)


def test_family_range_gates():
    for bad in (0.05, B_MIN, 0.09, 1.0 / 11.0, B_MAX + 2e-10, -1.0, np.nan):
        with pytest.raises(BOutOfRange):
            family_point(bad)
    # the closed endpoint itself is fine, and so is a b at most TOL_COND above it,
    # which is the SIC point by SemiSicParams.from_b's rule
    assert family_point(B_MAX).b == B_MAX
    point = family_point(B_MAX + 5e-11)
    assert (point.b, point.params.k) == (B_MAX, 4)
    assert point.b == SemiSicParams.from_b(2, B_MAX + 5e-11, 4).b


@pytest.mark.parametrize("b", FAMILY_GRID)
def test_family_kets_are_normalized(b):
    kets = family_kets(family_point(b))
    assert kets.shape == (4, 2)
    assert np.allclose(np.linalg.norm(kets, axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize("b", FAMILY_GRID)
def test_construct_is_a_semisic(b):
    povm = construct(b)
    assert np.allclose(povm.elements.sum(axis=0), np.eye(2), atol=1e-14)
    gram = np.einsum("aij,bji->ab", povm.elements, povm.elements).real
    off = gram[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off - b)) < 1e-12
    report = verify(povm)
    assert report.classification == (SIC if b == 1.0 / 12.0 else STRICT_SEMI_SIC)


def test_construct_matches_frozen_member():
    # the b = 2/25 member written out by hand from the closed form
    theta = np.arccos(1.0 / (2.0 * np.sqrt(2.0)))
    w = np.sqrt(2.0) * np.exp(1j * theta)
    e1 = 0.4 * np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    e2 = 0.2 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    e3 = 0.2 * np.array([[1.0, -w.conjugate()], [-w, 2.0]])
    e4 = 0.2 * np.array([[1.0, -w], [-w.conjugate(), 2.0]])
    povm = construct(2.0 / 25.0)
    for got, want in zip(povm.elements, (e1, e2, e3, e4)):
        assert np.max(np.abs(got - want)) < 1e-12
    assert np.allclose(povm.traces(), [0.4, 0.4, 0.6, 0.6], atol=1e-13)


def test_construct_sic_endpoint_traces():
    povm = construct(1.0 / 12.0)
    assert np.allclose(povm.traces(), 0.5, atol=1e-14)


def test_canonicalize_fixed_point():
    povm = construct(2.0 / 25.0)
    u, canon, b = canonicalize(povm)
    assert b == pytest.approx(2.0 / 25.0, abs=1e-14)
    assert np.max(np.abs(canon.elements - povm.elements)) < 1e-9
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("b", FAMILY_GRID)
def test_canonicalize_recovers_conjugated_family(b):
    rng = np.random.default_rng(int(b * 1e6))
    target = construct(b)
    for _ in range(5):
        u0 = haar_unitary(rng, 2)
        perm = rng.permutation(4)
        stack = np.einsum("ij,xjk,lk->xil", u0, target.elements[perm], u0.conj())
        got_u, canon, got_b = canonicalize(Povm(dim=2, elements=stack))
        assert abs(got_b - b) < 1e-6
        assert np.max(np.abs(canon.elements - target.elements)) < 1e-8
        # every canonical slot must map back onto one of the inputs
        mapped = np.einsum("ij,xjk,lk->xil", got_u, canon.elements, got_u.conj())
        for x in range(4):
            dev = np.min(np.max(np.abs(mapped[x][None] - stack), axis=(1, 2)))
            assert dev < 1e-9


def test_canonicalize_recovers_noisy_sic():
    # the SIC pins b = 1/12, so the fitted overlap's noise does not reach b
    rng = np.random.default_rng(23)
    target = construct(1.0 / 12.0)
    for _ in range(5):
        u, canon, b = canonicalize(disguise(rng, target, 1e-12))
        assert b == 1.0 / 12.0
        assert np.max(np.abs(canon.elements - target.elements)) < 1e-9


def test_canonicalize_rejects_non_semisic():
    stack = np.array(construct(0.07).elements, copy=True)
    stack[0, 0, 0] += 1e-3
    with pytest.raises(NotSemiSic):
        canonicalize(Povm(dim=2, elements=stack))


def test_canonicalize_rejects_wrong_dimension():
    with pytest.raises(DimensionMismatch):
        canonicalize(hesse_sic())


@pytest.mark.parametrize("b", [1.0 / 16.0 + 1e-10, 1.0 / 16.0 + 1e-9, *FAMILY_GRID,
                               1.0 / 12.0 - 1e-11])
@pytest.mark.parametrize("noise", [0.0, 1e-12])
def test_canonicalize_b_equals_the_family_point_of_from_b(b, noise):
    # the b once resolved as family_point(from_b(...).b).b, bit for bit, at
    # both ends of (1/16, 1/12] and wherever a noisy fit lands past 1/12
    for seed in range(10):
        povm = disguise(np.random.default_rng(seed), construct(b), noise)
        report = verify(povm)
        assert report.classification != NOT_SEMI_SIC
        want = family_point(SemiSicParams.from_b(2, report.fitted_b, report.k).b).b
        assert canonicalize(povm)[2] == want


@pytest.mark.parametrize("fitted_b", [1.0 / 16.0, np.nextafter(1.0 / 16.0, 0.0), 0.05])
def test_canonicalize_refuses_a_fitted_b_at_or_under_one_sixteenth(monkeypatch, fitted_b):
    # from_b admits every b up to 1/12 at k = 2; the family's open end is canonicalize's rule
    report = dataclasses.replace(verify(construct(0.07)), fitted_b=float(fitted_b))
    monkeypatch.setattr(qubit, "verified", lambda povm: report)
    with pytest.raises(BOutOfRange, match="outside the family"):
        canonicalize(construct(0.07))


def assert_maps_back(povm, u, canon, bound):
    # u canonical[x] u^dagger is the input element that slot x came from
    mapped = np.einsum("ij,xjk,lk->xil", u, canon.elements, u.conj())
    dist = np.max(np.abs(mapped[:, None] - povm.elements[None]), axis=(2, 3))
    assert sorted(np.argmin(dist, axis=1)) == [0, 1, 2, 3]
    assert np.max(np.min(dist, axis=1)) <= bound


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(b=st.one_of(st.just(1.0 / 12.0), st.floats(1.0 / 16.0 + 1e-9, 1.0 / 12.0)),
       seed=st.integers(0, 2**32 - 1), noise=st.floats(0.0, 1e-11))
@example(b=1.0 / 16.0 + 1e-9, seed=0, noise=0.0)
def test_canonicalize_matches_the_anchor_search(b, seed, noise):
    # the direct construction gives the search's first match, bit for bit
    povm = disguise(np.random.default_rng(seed), construct(b), noise)
    if verify(povm).classification == NOT_SEMI_SIC:
        with pytest.raises(NotSemiSic):
            canonicalize(povm)
        return
    u, canon, got_b = canonicalize(povm)
    assert_maps_back(povm, u, canon, 1e-14)
    want = anchor_search_canonicalize(povm)
    if want is not None:
        assert np.array_equal(u, want[0])
        assert np.array_equal(canon.elements, want[1].elements)
        assert got_b == want[2]


@pytest.mark.parametrize("b", [1.0 / 16.0 + 1e-9, 1.0 / 12.0 - 1e-9, 1.0 / 12.0 - 1e-11])
@pytest.mark.parametrize("noise", [1e-13, 1e-12])
def test_canonicalize_accepts_verified_members_near_either_end(b, noise):
    # a match against construct(fitted b) refused most of these: near the ends
    # a small error in the fitted b moves the closed-form member far
    for seed in range(20):
        povm = disguise(np.random.default_rng(seed), construct(b), noise)
        assert verify(povm).classification == STRICT_SEMI_SIC
        u, canon, got_b = canonicalize(povm)
        assert_maps_back(povm, u, canon, 1e-14)
        assert np.max(np.abs(canon.elements - construct(b).elements)) < 1e-6

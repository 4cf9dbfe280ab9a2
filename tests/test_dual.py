"""Dual frames, state reconstruction, and the qubit feasibility region."""

import csv
import io
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (block_dual, count_measurements, disguise, disguised_stack, hesse_sic,
                     random_density, reference_dual, reference_probabilities,
                     reference_reconstruct, reference_region_csv, reference_report,
                     reference_structure, WH_SEEDS, wh_sic)
from semisic import dual
from semisic.bloch import _directions
from semisic.dual import (
    DualFrame,
    dual_basis,
    feasibility_poly,
    probabilities,
    reconstruct,
    region_grid,
    write_region_csv,
)
from semisic.errors import (
    DimensionMismatch,
    NotAState,
    NotSemiSic,
)
from semisic.linalg import TOL_COND, TOL_ROUND
from semisic.model import NOT_SEMI_SIC, Povm, SemiSicParams, b_from_k, verify
from semisic.qubit import construct, family_point

# every finite double, plus signed zeros, NaN, infinities, subnormals and 1e+-300
FIELD_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324,
                     2.2250738585072014e-308, -1e-310, 1e300, -1e300, 1e-300, -1e-300]),
)

def frame_for(b, k=2):
    povm = construct(b)
    params = SemiSicParams.from_b(2, b, k)
    return povm, dual_basis(povm, params)


def d3_frame():
    povm = hesse_sic()
    report = verify(povm)
    params = SemiSicParams.from_b(3, report.fitted_b, report.k)
    return povm, dual_basis(povm, params)


@pytest.mark.parametrize("d, seed", WH_SEEDS)
def test_weyl_heisenberg_sic_dual_frames_reconstruct_a_state(d, seed):
    povm = wh_sic(d, seed)
    report = verify(povm)
    frame = dual_basis(povm, SemiSicParams.from_b(d, report.fitted_b, report.k))
    rho = random_density(np.random.default_rng(d), d)
    assert np.max(np.abs(reconstruct(probabilities(rho, povm), frame) - rho)) <= 1e-12


def test_dual_coefficients_for_the_frozen_member():
    povm, frame = frame_for(2.0 / 25.0)
    e = povm.elements
    eye = np.eye(2)
    block_lo = e[0] + e[1]
    block_hi = e[2] + e[3]
    wants = (
        12.5 * e[0] - 2.5 * block_lo - eye,
        12.5 * e[1] - 2.5 * block_lo - eye,
        (25.0 / 7.0) * e[2] + (5.0 / 7.0) * block_hi - eye,
        (25.0 / 7.0) * e[3] + (5.0 / 7.0) * block_hi - eye,
    )
    for got, want in zip(frame.duals, wants):
        assert np.max(np.abs(got - want)) < 1e-12
    assert frame.dim == 2
    assert frame.source_k == 2
    assert frame.permutation == (0, 1, 2, 3)
    assert len(frame) == 4
    assert np.array_equal(frame[3], frame.duals[3])


def test_duality_matrix_is_identity():
    for b in (0.065, 0.07, 2.0 / 25.0, 1.0 / 12.0):
        k = 4 if b == 1.0 / 12.0 else 2
        povm, frame = frame_for(b, k)
        prod = np.einsum("xij,yji->xy", povm.elements, frame.duals)
        assert np.max(np.abs(prod - np.eye(4))) < 1e-10


def test_dual_block_structure_in_d3():
    povm, frame = d3_frame()
    prod = np.einsum("xij,yji->xy", povm.elements, frame.duals)
    assert np.max(np.abs(prod - np.eye(9))) < 1e-12
    # constant-trace case: the block form collapses to d(d+1) E - I
    assert np.max(np.abs(frame.duals - (12.0 * povm.elements - np.eye(3)))) < 1e-12
    assert frame.source_k == 9


def test_dual_sic_relation_qubit():
    povm, frame = frame_for(1.0 / 12.0, k=4)
    assert np.max(np.abs(frame.duals - (6.0 * povm.elements - np.eye(2)))) < 1e-12
    # an equal-trace split into two blocks must give the same operators
    _, frame2 = frame_for(1.0 / 12.0, k=2)
    assert np.max(np.abs(frame2.duals - frame.duals)) < 1e-12


def test_dual_tracks_element_permutation():
    povm = construct(2.0 / 25.0)
    params = SemiSicParams.from_b(2, 2.0 / 25.0, 2)
    shuffled = Povm(dim=2, elements=povm.elements[[2, 0, 3, 1]])
    frame = dual_basis(shuffled, params)
    assert frame.permutation == (1, 3, 0, 2)
    prod = np.einsum("xij,yji->xy", shuffled.elements, frame.duals)
    assert np.max(np.abs(prod - np.eye(4))) < 1e-10


def test_dual_records_the_measured_k():
    # at the SIC both qubit k pass SemiSicParams; one trace class measures k = 4
    sic = construct(1.0 / 12.0)
    for k in (2, 4):
        assert dual_basis(sic, SemiSicParams.from_b(2, 1.0 / 12.0, k)).source_k == 4
    member = construct(2.0 / 25.0)
    assert dual_basis(member, SemiSicParams.from_b(2, 2.0 / 25.0, 2)).source_k == 2


def test_verify_then_dual_basis_measures_the_povm_once(monkeypatch):
    povm = disguise(np.random.default_rng(3), construct(2.0 / 25.0), 1e-12)
    calls = count_measurements(monkeypatch)
    report = verify(povm)
    frame = dual_basis(povm, SemiSicParams.from_b(2, report.fitted_b, report.k))
    assert frame.source_k == 2 and len(calls) == 1


@pytest.mark.parametrize("make", [lambda: construct(2.0 / 25.0), lambda: construct(1.0 / 12.0),
                                  hesse_sic])
def test_dual_basis_reads_the_gram_that_verify_computed(monkeypatch, make):
    povm = make()
    report = verify(povm)
    elements = povm.elements
    gram = np.einsum("xij,yji->xy", elements, elements).real
    expected = np.linalg.solve(gram, elements.reshape(len(povm), -1)).reshape(elements.shape)
    einsum = np.einsum

    def einsum_without_gram(subscripts, *operands, **kwargs):
        assert not all(op is elements for op in operands), "a second Gram matrix"
        return einsum(subscripts, *operands, **kwargs)

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("a second Gram spectrum")

    monkeypatch.setattr(np, "einsum", einsum_without_gram)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    frame = dual_basis(povm, SemiSicParams.from_b(povm.dim, report.fitted_b, report.k))
    assert np.array_equal(frame.duals, expected)


def test_dual_rejects_mismatched_params():
    povm = construct(2.0 / 25.0)
    with pytest.raises(DimensionMismatch):
        dual_basis(povm, SemiSicParams.from_b(3, b_from_k(3, 9), 9))
    # right dimension, wrong trace split
    with pytest.raises(NotSemiSic):
        dual_basis(povm, SemiSicParams.from_b(2, 1.0 / 12.0, 2))


def test_dual_degenerate_denominator():
    # parameter sets where a-^2 - b vanishes have the wrong b, so the b match refuses them
    # b at the excluded family endpoint 1/16, where a-^2 = b
    with pytest.raises(NotSemiSic):
        dual_basis(construct(2.0 / 25.0), SemiSicParams.from_b(2, 1.0 / 16.0 + 1e-15, 2))
    # b the square of the POVM's measured small trace
    povm = construct(0.065)
    a = float(np.sort(povm.traces())[:2].mean())
    with pytest.raises(NotSemiSic):
        dual_basis(povm, SemiSicParams.from_b(2, a * a, 2))


@pytest.mark.parametrize("gap", [1e-12, 1e-9, 1e-7])
@pytest.mark.parametrize("noise", [0.0, 1e-13, 1e-11])
def test_dual_accepts_disguised_members_near_the_sic(gap, noise):
    # the traces 1/2 -+ sqrt(1 - 12 b)/2 are measured, not recomputed from the fitted b
    for seed in range(5):
        povm = disguise(np.random.default_rng(seed), construct(1.0 / 12.0 - gap), noise)
        report = verify(povm)
        frame = dual_basis(povm, SemiSicParams.from_b(2, report.fitted_b, report.k))
        prod = np.einsum("xij,yji->xy", povm.elements, frame.duals)
        assert np.max(np.abs(prod - np.eye(4))) <= 1e-10 + 1e3 * noise


@pytest.mark.parametrize("gap", [1e-4, 1e-3])
@pytest.mark.parametrize("noise", [0.0, 1e-13, 1e-12, 1e-11])
def test_dual_accepts_disguised_members_near_one_sixteenth(gap, noise):
    # the closed form's coefficients 1/(a-^2 - b) diverge as b -> 1/16; the Gram
    # solve does not divide by them, so no disguised member is refused
    for seed in range(40):
        povm = disguise(np.random.default_rng(seed), construct(1.0 / 16.0 + gap), noise)
        report = verify(povm)
        frame = dual_basis(povm, SemiSicParams.from_b(2, report.fitted_b, report.k))
        prod = np.einsum("xij,yji->xy", povm.elements, frame.duals)
        assert np.max(np.abs(prod - np.eye(4))) <= 1e-10


@pytest.mark.parametrize("gap", [1e-10, 1e-9, 1e-8])
@pytest.mark.parametrize("noise", [0.0, 1e-12])
def test_dual_accepts_ill_conditioned_members_near_one_sixteenth(gap, noise):
    # cond(G) reaches 3e9 here; the duality check allows the solve's rounding, 10 eps cond(G)
    for seed in range(10):
        povm = disguise(np.random.default_rng(seed), construct(1.0 / 16.0 + gap), noise)
        report = verify(povm)
        frame = dual_basis(povm, SemiSicParams.from_b(2, report.fitted_b, report.k))
        assert frame.source_k == 2 and len(frame) == 4


@pytest.mark.parametrize("b, k", [(0.065, 2), (0.07, 2), (2.0 / 25.0, 2), (1.0 / 12.0, 2),
                                  (1.0 / 12.0, 4), (None, 9)])
def test_gram_solve_equals_the_block_formula(b, k):
    # the paper's two-block closed form is the oracle at well-conditioned b,
    # in d = 2 and for the Hesse SIC (b = None), also on rotated and permuted copies
    for seed in range(5):
        clean = hesse_sic() if b is None else construct(b)
        povm = disguise(np.random.default_rng(seed), clean, 0.0) if seed else clean
        report = verify(povm)
        params = SemiSicParams.from_b(povm.dim, report.fitted_b, k)
        frame = dual_basis(povm, params)
        assert np.max(np.abs(frame.duals - block_dual(povm, params))) < 1e-12


def test_dual_refuses_a_solve_that_fails_duality(monkeypatch):
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-6)
    with pytest.raises(NotSemiSic, match="dual frame fails duality check"):
        dual_basis(construct(2.0 / 25.0), SemiSicParams.from_b(2, 2.0 / 25.0, 2))


def test_dual_rejects_broken_povm():
    stack = np.array(construct(2.0 / 25.0).elements, copy=True)
    stack[0, 0, 0] += 1e-3
    with pytest.raises(NotSemiSic):
        dual_basis(Povm(dim=2, elements=stack), SemiSicParams.from_b(2, 2.0 / 25.0, 2))


def test_probabilities_of_known_states():
    povm = construct(2.0 / 25.0)
    mixed = probabilities(np.eye(2) / 2.0, povm)
    assert np.allclose(mixed, [0.2, 0.2, 0.3, 0.3], atol=1e-13)
    ground = probabilities(np.diag([1.0, 0.0]), povm)
    assert ground[0] == pytest.approx(0.4, abs=1e-13)
    assert np.all(ground >= 0.0)
    assert ground.sum() == pytest.approx(1.0, abs=1e-12)


def test_probabilities_reject_non_states():
    povm = construct(2.0 / 25.0)
    with pytest.raises(NotAState):
        probabilities(np.diag([2.0, 0.0]), povm)
    with pytest.raises(NotAState):
        probabilities(np.diag([1.5, -0.5]), povm)
    with pytest.raises(DimensionMismatch):
        probabilities(np.eye(3) / 3.0, povm)
    # shift eps |psi><psi| from element 0, which has psi in its kernel, to element 1:
    # complete, and -eps is inside the PSD gate, so Povm accepts it, but p_0 = -eps
    eps, psi = 1e-6, np.linalg.eigh(povm[0])[1][:, 0]
    shift = eps * np.outer(psi, psi.conj())
    shifted = Povm(dim=2, elements=povm.elements + np.stack([-shift, shift, 0 * shift, 0 * shift]))
    with pytest.raises(NotAState, match="negative outcome probability"):
        probabilities(np.outer(psi, psi.conj()), shifted)


def test_reconstruct_roundtrip_random_states():
    rng = np.random.default_rng(17)
    povm, frame = frame_for(2.0 / 25.0)
    for _ in range(50):
        rho = random_density(rng, 2)
        p = probabilities(rho, povm)
        back = reconstruct(p, frame)
        assert np.max(np.abs(back - rho)) < 1e-12


def test_reconstruct_roundtrip_d3():
    rng = np.random.default_rng(19)
    povm, frame = d3_frame()
    for _ in range(20):
        rho = random_density(rng, 3)
        back = reconstruct(probabilities(rho, povm), frame)
        assert np.max(np.abs(back - rho)) < 1e-12


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(b=st.one_of(st.none(), st.floats(1.0 / 16.0, 1.0 / 12.0, exclude_min=True)),
       noise=st.sampled_from([None, 0.0, 1e-13, TOL_COND / 10]),
       seed=st.integers(0, 2**32 - 1))
def test_povm_verify_and_dual_maps_equal_their_references_bit_for_bit(b, noise, seed):
    # b None is the Hesse SIC, noise None the member as built, else a disguised copy
    rng = np.random.default_rng(seed)
    base = hesse_sic() if b is None else construct(b)
    stack = base.elements if noise is None else disguised_stack(rng, base, noise)
    povm = Povm(dim=base.dim, elements=stack)
    for got, want in zip(povm._structure, reference_structure(stack, base.dim)):
        assert np.array_equal(got, want)
    report = verify(povm)
    assert report == reference_report(stack, base.dim)
    if report.classification == NOT_SEMI_SIC:
        return
    frame = dual_basis(povm, SemiSicParams.from_b(povm.dim, report.fitted_b, report.k))
    duals, permutation = reference_dual(povm)
    assert np.array_equal(frame.duals, duals)
    assert frame.permutation == permutation
    rho = random_density(rng, povm.dim)
    p = probabilities(rho, povm)
    assert np.array_equal(p, reference_probabilities(rho, povm))
    assert np.array_equal(reconstruct(p, frame), reference_reconstruct(p, frame.duals))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_reconstruct_is_the_tensordot_of_p_and_the_duals(d):
    rng = np.random.default_rng(d)
    n = d * d
    for _ in range(20):
        duals = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        p = rng.random(n)
        for view in (duals, duals.transpose(0, 2, 1)):
            frame = DualFrame(dim=d, duals=view, source_k=n, permutation=tuple(range(n)))
            assert np.array_equal(reconstruct(p, frame), reference_reconstruct(p, view))


def test_reconstruct_validates_input():
    _, frame = frame_for(2.0 / 25.0)
    with pytest.raises(DimensionMismatch):
        reconstruct([0.5, 0.5], frame)
    with pytest.raises(ValueError):
        reconstruct([np.nan, 0.0, 0.0, 1.0], frame)


def test_feasibility_poly_reference_points():
    _, frame = frame_for(2.0 / 25.0)
    mixed = feasibility_poly([0.2, 0.2, 0.3, 0.3], frame)
    assert mixed == pytest.approx(0.25, abs=1e-13)
    vertex = feasibility_poly([1.0, 0.0, 0.0, 0.0], frame)
    assert vertex == pytest.approx(-4.0, abs=1e-12)


def test_feasibility_poly_qubit_only():
    _, frame = d3_frame()
    with pytest.raises(DimensionMismatch):
        feasibility_poly([1.0 / 9.0] * 9, frame)


def test_region_grid_lattice_and_flags():
    _, frame = frame_for(2.0 / 25.0)
    samples = region_grid(frame, 4)
    # lattice points of the simplex p1 + p2 + p3 <= 1 at step 1/4
    assert len(samples) == 35
    for s in samples:
        assert s.feasible == (s.f >= -TOL_ROUND)
        direct = feasibility_poly([s.p1, s.p2, s.p3, 1.0 - s.p1 - s.p2 - s.p3], frame)
        assert direct == pytest.approx(s.f, abs=1e-12)


def test_region_grid_validates_input():
    _, frame = frame_for(2.0 / 25.0)
    with pytest.raises(ValueError):
        region_grid(frame, 1)
    with pytest.raises(ValueError):
        region_grid(frame, 2.5)
    _, frame3 = d3_frame()
    with pytest.raises(DimensionMismatch):
        region_grid(frame3, 4)


def test_write_region_csv_roundtrip(tmp_path):
    _, frame = frame_for(2.0 / 25.0)
    samples = region_grid(frame, 3)
    buf = io.StringIO()
    write_region_csv(samples, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["p1", "p2", "p3", "f", "feasible"]
    assert len(rows) == len(samples) + 1
    for row, s in zip(rows[1:], samples):
        assert float(row[0]) == s.p1
        assert float(row[3]) == s.f
        assert row[4] == ("1" if s.feasible else "0")
    # path form writes the identical bytes
    path = tmp_path / "region.csv"
    write_region_csv(samples, path)
    assert path.read_text() == buf.getvalue()


def test_region_grid_is_a_record_array_in_scan_order():
    _, frame = frame_for(2.0 / 25.0)
    for n in (2, 5, 13):
        scan = region_grid(frame, n)
        assert isinstance(scan, np.recarray)
        assert scan.dtype.names == ("p1", "p2", "p3", "f", "feasible")
        assert scan.feasible.dtype == bool
        # the lattice in scan order: p1 outermost, p3 innermost
        want = [(i, j, l) for i in range(n + 1) for j in range(n + 1 - i)
                for l in range(n + 1 - i - j)]
        got = np.column_stack([scan.p1, scan.p2, scan.p3])
        assert np.array_equal(got, np.array(want, dtype=float) / n)
        assert np.array_equal(scan.feasible, scan.f >= -TOL_ROUND)


def test_region_blocks_do_not_change_the_output(monkeypatch):
    # the kernel and the CSV writer work in blocks of rows; blocks of 7 rows
    # must give the same scan and the same bytes as one block
    _, frame = frame_for(1.0 / 12.0, 4)
    whole = region_grid(frame, 12)
    buf = io.StringIO()
    write_region_csv(whole, buf)
    monkeypatch.setattr(dual, "_CHUNK", 7)
    blocked = region_grid(frame, 12)
    assert np.array_equal(blocked, whole)
    small = io.StringIO()
    write_region_csv(blocked, small)
    assert small.getvalue() == buf.getvalue()


@pytest.mark.parametrize("n", [2, 3, 10, 24, 37])
@pytest.mark.parametrize("b", [2.0 / 25.0, 1.0 / 12.0, 0.07, 0.0626])
def test_write_region_csv_matches_the_per_row_format(monkeypatch, b, n):
    # whole, filtered, strided and empty scans, and one holding -0.0 and NaN:
    # formatting each distinct coordinate once per block must keep every byte
    _, frame = frame_for(b, 4 if b == 1.0 / 12.0 else 2)
    scan = region_grid(frame, n)
    edited = scan.copy()
    edited.p1[1] = -0.0
    edited.f[2] = -0.0
    edited.p2[3] = np.nan
    monkeypatch.setattr(dual, "_CHUNK", 7)
    for part in (scan, scan[scan.feasible], scan[::-3], scan[:0], edited):
        buf = io.StringIO()
        write_region_csv(part, buf)
        assert buf.getvalue() == reference_region_csv(part)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(FIELD_VALUES, FIELD_VALUES, FIELD_VALUES, FIELD_VALUES,
                               st.booleans()), max_size=40),
       chunk=st.integers(1, 9))
def test_write_region_csv_matches_the_per_row_format_on_any_fields(rows, chunk):
    # hand-built records: any doubles as coordinates and f, any flags, any block size
    scan = np.array(rows, dtype=dual._REGION_DTYPE)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dual, "_CHUNK", chunk)
        buf = io.StringIO()
        write_region_csv(scan, buf)
    assert buf.getvalue() == reference_region_csv(scan)


@pytest.mark.parametrize("chunk", [7, None])
@pytest.mark.parametrize("n", [2, 13, 40])
def test_region_kernel_equals_determinants_of_the_stacked_points(monkeypatch, n, chunk):
    # the kernel's f, bit for bit, is _determinants of the scan's own lattice
    # points with p4 = 1 - (p1 + p2 + p3) summed as pts.sum(axis=1) sums
    if chunk is not None:
        monkeypatch.setattr(dual, "_CHUNK", chunk)
    povm = disguise(np.random.default_rng(n), construct(0.07), 0.0)
    report = verify(povm)
    frame = dual_basis(povm, SemiSicParams.from_b(2, report.fitted_b, report.k))
    scan = region_grid(frame, n)
    pts = np.column_stack([scan.p1, scan.p2, scan.p3])
    assert len(pts) == comb(n + 3, 3)
    want = dual._determinants(np.column_stack([pts, 1.0 - pts.sum(axis=1)]), frame)
    assert scan.f.tobytes() == want.tobytes()


@pytest.mark.parametrize("b, k", [(2.0 / 25.0, 2), (1.0 / 12.0, 4)])
def test_region_fraction_matches_the_ellipsoid_volume(b, k):
    # (p1, p2, p3) = w + A r is affine in the Bloch vector r, A having rows
    # (a_x/2) n_x, so the feasible set is the image of the unit ball: an
    # ellipsoid of volume (4 pi/3)|det A| in a simplex of volume 1/6
    _, frame = frame_for(b, k)
    weights, dirs = _directions(family_point(b))
    exact = 8.0 * np.pi * abs(np.linalg.det(weights[:3, None] * dirs[:3]))
    n = 100
    scan = region_grid(frame, n)
    measured = scan.feasible.sum() / (n ** 3 / 6.0)
    assert measured == pytest.approx(exact, rel=0.01)


def test_region_grid_refuses_scans_over_the_point_cap(monkeypatch):
    _, frame = frame_for(2.0 / 25.0)
    # the real cap admits resolution 140, C(143, 3) points
    assert len(region_grid(frame, 140)) == 477191
    monkeypatch.setattr(dual, "MAX_REGION_POINTS", 285)
    assert len(region_grid(frame, 9)) == 220
    with pytest.raises(ValueError, match="cap"):
        region_grid(frame, 10)

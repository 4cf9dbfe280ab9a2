"""Acceptance checks for the package, one test per criterion.

Each test prints a single pass/fail line (with capture suspended, so the
lines show up in plain pytest output) and enforces a wall-clock budget
alongside the numerical gates.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from helpers import haar_unitary, hesse_sic, random_density
from semisic import cli
from semisic.documents import load_povm
from semisic.dual import (
    dual_basis,
    feasibility_poly,
    probabilities,
    reconstruct,
    region_grid,
    write_region_csv,
)
from semisic.bloch import bloch_to_probs, bloch_to_state, probs_to_bloch
from semisic.model import (
    Povm,
    SemiSicParams,
    admissible_k,
    b_from_k,
    b_from_k_exact,
    verify,
)
from semisic.qubit import canonicalize, construct, family_point
from semisic.search import SearchConfig, gradient_check, run_search


@contextmanager
def criterion(number, label, budget, cap):
    def emit(line):
        with cap.disabled():
            print(line, flush=True)

    start = time.perf_counter()
    try:
        yield
    except BaseException:
        emit(f"acceptance {number} FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        emit(f"acceptance {number} FAIL: {label} "
             f"(took {elapsed:.2f}s, budget {budget:g}s)")
        raise AssertionError(f"criterion {number} exceeded {budget:g}s: {elapsed:.2f}s")
    emit(f"acceptance {number} PASS ({elapsed:.2f}s): {label}")


def duality_defect(povm, frame):
    prod = np.einsum("xij,yji->xy", povm.elements, frame.duals)
    return float(np.max(np.abs(prod - np.eye(len(povm)))))


def frame_for(b, k):
    povm = construct(b)
    return povm, dual_basis(povm, SemiSicParams.from_b(2, b, k))


def test_criterion_1_canonical_member_construction(tmp_path, capsys):
    with criterion(1, "canonical qubit member at b = 2/25", 1.0, capsys):
        path = tmp_path / "member.json"
        rc = cli.main(["construct", "--b", "2/25", "--out", str(path)])
        capsys.readouterr()
        assert rc == 0
        doc = load_povm(path)

        theta = np.arccos(1.0 / (2.0 * np.sqrt(2.0)))
        w = np.sqrt(2.0) * np.exp(1j * theta)
        wants = np.array(
            [
                0.4 * np.array([[1.0, 0.0], [0.0, 0.0]]),
                0.2 * np.array([[1.0, 1.0], [1.0, 1.0]]),
                0.2 * np.array([[1.0, -np.conj(w)], [-w, 2.0]]),
                0.2 * np.array([[1.0, -w], [-np.conj(w), 2.0]]),
            ]
        )
        assert np.max(np.abs(doc.povm.elements - wants)) < 1e-12
        traces = np.einsum("xii->x", doc.povm.elements).real
        assert np.max(np.abs(traces - [0.4, 0.4, 0.6, 0.6])) < 1e-12
        assert abs(doc.metadata["theta"] - theta) < 1e-12
        assert doc.b == 0.08 and doc.k == 2


def test_criterion_2_dual_frame_identities(capsys):
    with criterion(2, "dual frame closed form and duality at b = 2/25", 1.0, capsys):
        povm, frame = frame_for(2.0 / 25.0, 2)
        e = povm.elements
        eye = np.eye(2)
        lo = e[0] + e[1]
        hi = e[2] + e[3]
        wants = (
            12.5 * e[0] - 2.5 * lo - eye,
            12.5 * e[1] - 2.5 * lo - eye,
            (25.0 / 7.0) * e[2] + (5.0 / 7.0) * hi - eye,
            (25.0 / 7.0) * e[3] + (5.0 / 7.0) * hi - eye,
        )
        for got, want in zip(frame.duals, wants):
            assert np.max(np.abs(got - want)) < 1e-12
        assert duality_defect(povm, frame) < 1e-10


def test_criterion_3_feasibility_quadratic(capsys):
    with criterion(3, "feasibility quadratic matches its closed form", 1.0, capsys):
        _, frame = frame_for(2.0 / 25.0, 2)
        coeff = np.array(
            [
                [-4.0, 9.0 / 4.0, 1.0, 1.0],
                [9.0 / 4.0, -4.0, 1.0, 1.0],
                [1.0, 1.0, -8.0 / 7.0, 9.0 / 14.0],
                [1.0, 1.0, 9.0 / 14.0, -8.0 / 7.0],
            ]
        )
        rng = np.random.default_rng(2024)
        points = rng.dirichlet((1.0, 1.0, 1.0, 1.0), size=1000)
        for p in points:
            assert abs(p @ coeff @ p - feasibility_poly(p, frame)) <= 1e-12
        mixed = feasibility_poly([0.2, 0.2, 0.3, 0.3], frame)
        assert abs(mixed - 0.25) < 1e-13


def test_criterion_4_equal_trace_endpoint(capsys):
    with criterion(4, "b = 1/12 member has equal traces and the flat dual", 1.0, capsys):
        povm, frame = frame_for(1.0 / 12.0, 4)
        traces = np.einsum("xii->x", povm.elements).real
        assert np.max(np.abs(traces - 0.5)) < 1e-12
        overlaps = np.einsum("xij,yji->xy", povm.elements, povm.elements).real
        off = overlaps[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off - 1.0 / 12.0)) < 1e-12
        assert np.max(np.abs(frame.duals - (6.0 * povm.elements - np.eye(2)))) < 1e-12


def test_criterion_5_admissible_trace_splits(capsys):
    with criterion(5, "admissible splits and exact overlaps in d = 3", 1.0, capsys):
        assert list(admissible_k(3)) == [7, 8, 9]
        assert b_from_k_exact(3, 7) == Fraction(1, 50)
        assert b_from_k_exact(3, 8) == Fraction(5, 196)
        assert b_from_k_exact(3, 9) == Fraction(1, 36)
        for k in (7, 8, 9):
            params = SemiSicParams.from_b(3, b_from_k(3, k), k)
            total = k * params.a_minus + (9 - k) * params.a_plus
            assert abs(total - 3.0) < 1e-12
        for d in range(3, 11):
            assert b_from_k_exact(d, d * d) == Fraction(1, d * d * (d + 1))


def test_criterion_6_reconstruction_properties(capsys):
    with criterion(6, "duality, closure, reconstruction, gradients", 10.0, capsys):
        rng = np.random.default_rng(606)

        for b in (0.065, 0.07, 2.0 / 25.0, 1.0 / 12.0):
            k = 4 if b == 1.0 / 12.0 else 2
            povm, frame = frame_for(b, k)
            assert duality_defect(povm, frame) < 1e-10
            assert abs(np.einsum("xii->", povm.elements).real - 2.0) < 1e-12

        sic3 = hesse_sic()
        report = verify(sic3)
        frame3 = dual_basis(sic3, SemiSicParams.from_b(3, report.fitted_b, report.k))
        assert duality_defect(sic3, frame3) < 1e-10
        assert abs(np.einsum("xii->", sic3.elements).real - 3.0) < 1e-12

        povm2, frame2 = frame_for(2.0 / 25.0, 2)
        for _ in range(60):
            rho = random_density(rng, 2)
            back = reconstruct(probabilities(rho, povm2), frame2)
            assert np.max(np.abs(back - rho)) < 1e-10
        for _ in range(40):
            rho = random_density(rng, 3)
            back = reconstruct(probabilities(rho, sic3), frame3)
            assert np.max(np.abs(back - rho)) < 1e-10

        point = family_point(2.0 / 25.0)
        v1 = np.array([0.3, -0.4, 0.5])
        v2 = np.array([-0.1, 0.2, -0.6])
        for lam in (0.0, 0.3, 1.0):
            mix = lam * v1 + (1.0 - lam) * v2
            q = bloch_to_probs(mix, point)
            want = (lam * bloch_to_probs(v1, point)
                    + (1.0 - lam) * bloch_to_probs(v2, point))
            assert np.max(np.abs(q - want)) < 1e-12
            assert np.max(np.abs(probs_to_bloch(q, point) - mix)) < 1e-10
            born = probabilities(bloch_to_state(mix), povm2)
            assert np.max(np.abs(q - born)) < 1e-12

        assert gradient_check(2, 2.0 / 25.0) < 1e-5
        assert gradient_check(3, 1.0 / 36.0) < 1e-5

        for b in (0.07, 2.0 / 25.0, 1.0 / 12.0):
            target = construct(b)
            for trial in range(2):
                u = haar_unitary(rng, 2)
                order = rng.permutation(4)
                rotated = np.einsum(
                    "ab,xbc,dc->xad", u, target.elements[order], u.conj()
                )
                _, _, got_b = canonicalize(Povm(dim=2, elements=rotated))
                assert abs(got_b - b) < 1e-6


def test_criterion_7_search_runs(tmp_path, capsys):
    with criterion(7, "multi-start search outcomes", 120.0, capsys):
        report_a = run_search(SearchConfig(d=2, k=2, b=2.0 / 25.0, restarts=20, seed=0))
        assert report_a.best_residual < 1e-12
        assert report_a.best_povm is not None

        report_b = run_search(
            SearchConfig(d=3, k=9, restarts=50, seed=0, residual_goal=1e-10)
        )
        assert report_b.best_residual < 1e-10
        assert report_b.best_povm is not None

        for k in (7, 8):
            cfg = SearchConfig(d=3, k=k, restarts=4, max_iterations=1500, seed=0)
            first = run_search(cfg)
            second = run_search(cfg)
            assert first.best_residual == second.best_residual
            values = [f for _, f in first.objective_trace]
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
            assert first.gradient_check < 1e-5
            out = tmp_path / f"search_k{k}.json"
            first.save(out)
            assert "best_residual" in json.loads(out.read_text())


def test_criterion_8_region_scans(tmp_path, capsys):
    with criterion(8, "feasibility region scans at resolution 100", 30.0, capsys):
        cases = (
            (2.0 / 25.0, 2, (0.2, 0.2, 0.3)),
            (1.0 / 12.0, 4, (0.25, 0.25, 0.25)),
        )
        for b, k, mixed in cases:
            _, frame = frame_for(b, k)
            samples = region_grid(frame, 100)
            assert len(samples) == 176851

            hit = np.flatnonzero(
                (np.abs(samples.p1 - mixed[0]) < 1e-12)
                & (np.abs(samples.p2 - mixed[1]) < 1e-12)
                & (np.abs(samples.p3 - mixed[2]) < 1e-12)
            )
            assert len(hit) == 1 and samples.feasible[hit[0]]

            ok = samples.feasible
            p1, p2, p3 = samples.p1[ok], samples.p2[ok], samples.p3[ok]
            feas = np.column_stack([p1, p2, p3, 1.0 - p1 - p2 - p3])
            assert len(feas) > 0
            rhos = np.tensordot(feas, frame.duals, axes=([1], [0]))
            traces = np.einsum("mii->m", rhos)
            eigs = np.linalg.eigvalsh(rhos)
            bad = int(np.sum((eigs[:, 0] < -1e-10)
                             | (np.abs(traces - 1.0) > 1e-10)))
            assert bad == 0

            out = tmp_path / f"region_{k}.csv"
            write_region_csv(samples, out)
            with open(out) as handle:
                assert handle.readline().strip() == "p1,p2,p3,f,feasible"

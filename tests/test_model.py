"""Trace arithmetic, the (d, k) overlap spectrum, and POVM verification."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import WH_SEEDS, count_measurements, disguise, hesse_sic, perturbed_sic_stack, wh_sic
from semisic.dual import dual_basis
from semisic.errors import (
    BOutOfRange,
    DimensionMismatch,
    KOutOfRange,
    MalformedPovm,
    NotSemiSic,
)
from semisic.linalg import TOL_COND
from semisic.model import (
    CONDITIONS,
    MAX_SPECTRUM_D,
    NOT_SEMI_SIC,
    SIC,
    STRICT_SEMI_SIC,
    Povm,
    SemiSicParams,
    admissible_k,
    b_from_k,
    b_from_k_exact,
    trace_values,
    trace_values_exact,
    verified,
    verify,
)
from semisic.qubit import construct, family_kets, family_point
from semisic.search import SearchConfig, SearchReport

# Random disguises: a Haar unitary, a permutation, and Hermitian noise whose
# largest entry is at most TOL_COND / 10. b = None stands for the Hesse SIC, an
# int b for wh_sic(b).
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)
NOISE = st.floats(0.0, TOL_COND / 10.0)
MEMBERS = st.one_of(st.just(1.0 / 12.0), st.floats(1.0 / 16.0, 1.0 / 12.0, exclude_min=True),
                    st.just(None), st.sampled_from([4, 5]))
# Members within about 1e-11 of 1/16 fail verify's IC test, so strict
# members for the dual are drawn from 1/16 + 1e-9 up.
DUAL_MEMBERS = st.one_of(st.just(1.0 / 12.0), st.floats(1.0 / 16.0 + 1e-9, 1.0 / 12.0),
                         st.just(None))


def member(b):
    return hesse_sic() if b is None else wh_sic(b) if isinstance(b, int) else construct(b)


def test_trace_values_qubit_oracle():
    lo, hi = trace_values(2, 2.0 / 25.0)
    assert lo == pytest.approx(0.4, abs=1e-15)
    assert hi == pytest.approx(0.6, abs=1e-15)


def test_trace_values_are_python_floats():
    assert all(type(a) is float for a in trace_values(3, 1.0 / 36.0))
    assert "np.float64" not in repr(SemiSicParams.from_b(3, 1.0 / 36.0, 9))
    with pytest.raises(KOutOfRange, match="counting identity") as exc:
        SemiSicParams(d=2, b=0.07, k=3)
    assert "np.float64" not in str(exc.value)


def test_trace_values_snap_at_degenerate_overlap():
    # float(1/12) leaves a discriminant of ~6e-17; without the snap the
    # square root would spread the two traces by ~1e-8
    lo, hi = trace_values(2, 1.0 / 12.0)
    assert lo == 0.5
    assert hi == 0.5


def test_trace_values_rejects_out_of_range():
    with pytest.raises(BOutOfRange):
        trace_values(2, 0.09)
    with pytest.raises(BOutOfRange):
        trace_values(2, 0.0)
    with pytest.raises(BOutOfRange):
        trace_values(2, -0.01)
    with pytest.raises(DimensionMismatch):
        trace_values(1, 0.01)


def test_overlap_spectrum_d3():
    assert admissible_k(3) == [7, 8, 9]
    assert b_from_k_exact(3, 7) == Fraction(1, 50)
    assert b_from_k_exact(3, 8) == Fraction(5, 196)
    assert b_from_k_exact(3, 9) == Fraction(1, 36)
    assert trace_values_exact(3, 7) == (Fraction(1, 5), Fraction(4, 5))
    assert trace_values_exact(3, 8) == (Fraction(2, 7), Fraction(5, 7))
    assert trace_values_exact(3, 9) == (Fraction(1, 3), Fraction(2, 3))


def test_spectrum_rejects_bad_dk():
    with pytest.raises(DimensionMismatch):
        b_from_k(2, 2)
    with pytest.raises(KOutOfRange):
        b_from_k(3, 6)
    with pytest.raises(KOutOfRange):
        b_from_k(3, 10)
    with pytest.raises(DimensionMismatch):
        admissible_k(2)


def test_spectrum_refuses_d_over_its_cap():
    assert len(admissible_k(MAX_SPECTRUM_D)) == MAX_SPECTRUM_D
    with pytest.raises(DimensionMismatch, match="needs d <= "):
        admissible_k(MAX_SPECTRUM_D + 1)


def test_counting_identity_across_dimensions():
    for d in range(3, 8):
        for k in admissible_k(d):
            p = SemiSicParams.from_b(d, b_from_k(d, k), k)
            counted = k * p.a_minus + (d * d - k) * p.a_plus
            assert counted == pytest.approx(d, abs=1e-12)
            assert 0.0 < p.a_minus <= p.a_plus < 1.0


def test_exact_and_float_spectra_agree():
    for d in (3, 4, 5):
        for k in admissible_k(d):
            assert b_from_k(d, k) == pytest.approx(float(b_from_k_exact(d, k)), abs=0.0)
            lo, hi = trace_values(d, b_from_k(d, k))
            lo_e, hi_e = trace_values_exact(d, k)
            assert lo == pytest.approx(float(lo_e), abs=1e-14)
            assert hi == pytest.approx(float(hi_e), abs=1e-14)


def test_params_reject_inconsistent_k():
    with pytest.raises(KOutOfRange):
        SemiSicParams.from_b(2, 2.0 / 25.0, 3)
    with pytest.raises(KOutOfRange):
        SemiSicParams.from_b(2, 2.0 / 25.0, 0)
    with pytest.raises(KOutOfRange):
        SemiSicParams.from_b(2, 2.0 / 25.0, 4)
    # both the strict split and the constant-trace convention hold at 1/12
    assert SemiSicParams.from_b(2, 1.0 / 12.0, 2).k == 2
    assert SemiSicParams.from_b(2, 1.0 / 12.0, 4).k == 4
    # the counting identity holds for every k there, but a qubit k is 2 or 4
    for k in (1, 3):
        with pytest.raises(KOutOfRange):
            SemiSicParams.from_b(2, 1.0 / 12.0, k)


def test_from_b_refuses_a_non_integer_k_as_the_constructor_does():
    for b, k in ((0.07, 2.9), (0.07, 2.0), (1.0 / 12.0, 4.0)):
        with pytest.raises(KOutOfRange, match="k must lie in"):
            SemiSicParams.from_b(2, b, k)
    for k in (np.int64(2), np.int32(2)):
        assert type(SemiSicParams.from_b(2, 0.07, k).k) is int
    assert type(SemiSicParams.from_b(3, 1.0 / 36.0, np.int64(9)).k) is int


def test_params_reject_tampered_roots():
    # the roots are derived from (d, b), never passed
    with pytest.raises(TypeError):
        SemiSicParams(d=2, b=2.0 / 25.0, k=2, a_minus=0.41, a_plus=0.6)
    with pytest.raises(TypeError):
        SemiSicParams(2, 2.0 / 25.0, 2, 0.4, 0.6)
    params = SemiSicParams(d=2, b=2.0 / 25.0, k=2)
    assert (params.a_minus, params.a_plus) == trace_values(2, 2.0 / 25.0)


def test_povm_structural_gates():
    good = construct(2.0 / 25.0)
    with pytest.raises(MalformedPovm):
        Povm(dim=2, elements=good.elements[:3])
    skew = np.array(good.elements, copy=True)
    skew[0] = skew[0] + np.array([[0.0, 1e-3], [0.0, 0.0]])
    with pytest.raises(MalformedPovm, match="not Hermitian"):
        Povm(dim=2, elements=skew)
    short = np.array(good.elements, copy=True)
    short[0] = 0.5 * short[0]
    with pytest.raises(MalformedPovm, match="do not sum to the identity"):
        Povm(dim=2, elements=short)
    with pytest.raises(MalformedPovm):
        Povm(dim=1, elements=np.ones((1, 1, 1)))
    broken = np.array(good.elements, copy=True)
    broken[2, 1, 1] = np.nan
    with pytest.raises(MalformedPovm):
        Povm(dim=2, elements=broken)


def test_povm_rejects_isolated_negative_element():
    # shift weight between two elements, keeping the sum exactly I
    base = construct(2.0 / 25.0)
    bump = 0.02 * np.array([[1.0, 0.0], [0.0, -1.0]])
    stack = np.array(base.elements, copy=True)
    stack[0] += bump
    stack[1] -= bump
    with pytest.raises(MalformedPovm, match="element 0 has negative eigenvalue"):
        Povm(dim=2, elements=stack)
    # elements 0 and 1 both below -PSD_GATE, element 1 further: the message names element 1
    stack = np.array(base.elements, copy=True)
    for x, eps in ((0, 1e-3), (1, 2e-3)):
        psi = np.linalg.eigh(base[x])[1][:, 0]
        shift = eps * np.outer(psi, psi.conj())
        stack[x] -= shift
        stack[2] += shift
    with pytest.raises(MalformedPovm, match="element 1 has negative eigenvalue -2.000e-03"):
        Povm(dim=2, elements=stack)


def test_povm_hermitizes_roundoff_and_freezes():
    noisy = np.array(construct(1.0 / 12.0).elements, copy=True)
    noisy[2, 0, 1] += 1e-12  # below the structural gate
    povm = Povm(dim=2, elements=noisy)
    dev = np.max(np.abs(povm.elements - povm.elements.conj().transpose(0, 2, 1)))
    assert dev == 0.0
    assert not povm.elements.flags.writeable
    assert len(povm) == 4
    assert np.array_equal(povm[1], povm.elements[1])
    assert np.array_equal(np.array(list(povm)), povm.elements)
    assert np.allclose(povm.traces(), [0.5, 0.5, 0.5, 0.5], atol=1e-14)


def test_from_vectors_reproduces_family_elements():
    point = family_point(2.0 / 25.0)
    kets = family_kets(point)
    w = np.sqrt(
        [point.params.a_minus, point.params.a_minus, point.params.a_plus, point.params.a_plus]
    )
    povm = Povm.from_vectors(w[:, None] * kets)
    assert np.allclose(povm.elements, construct(2.0 / 25.0).elements, atol=1e-14)
    with pytest.raises(MalformedPovm):
        Povm.from_vectors(kets[:3])
    with pytest.raises(MalformedPovm, match="2-D array"):
        Povm.from_vectors(kets[0])


def test_povms_frames_and_reports_compare_by_identity():
    povm = construct(0.07)
    copy = Povm(dim=2, elements=povm.elements.copy())
    assert (povm == copy) is False and povm == povm
    assert len({povm, povm}) == 1 and len({povm, copy}) == 2
    frame = dual_basis(povm, SemiSicParams.from_b(2, 0.07, 2))
    assert hash(frame) == hash(frame) and frame == frame
    reports = [SearchReport(config=SearchConfig(d=2, k=2, b=0.07), best_residual=0.0,
                            best_povm=p, restarts_run=1, iterations_per_restart=(1,),
                            stop_reasons=("goal",), objective_trace=((0, 0.0),),
                            gradient_check=0.0) for p in (povm, copy)]
    assert reports[0] != reports[1]


def test_verify_family_member():
    report = verify(construct(2.0 / 25.0))
    assert report.classification == STRICT_SEMI_SIC
    assert report.k == 2
    assert report.fitted_b == pytest.approx(2.0 / 25.0, abs=1e-14)
    assert report.is_ic
    assert report.all_rank_one
    assert report.equiangular
    assert report.max_violation < 1e-12
    (lo, nlo), (hi, nhi) = report.trace_classes
    assert (nlo, nhi) == (2, 2)
    assert lo == pytest.approx(0.4, abs=1e-12)
    assert hi == pytest.approx(0.6, abs=1e-12)


def test_verify_d3_sic_oracle():
    report = verify(hesse_sic())
    assert report.classification == SIC
    assert report.k == 9
    assert report.fitted_b == pytest.approx(1.0 / 36.0, abs=1e-14)
    assert report.max_violation < 1e-12
    assert len(report.trace_classes) == 1
    assert report.trace_classes[0] == (pytest.approx(1.0 / 3.0, abs=1e-14), 9)


@pytest.mark.parametrize("d, seed", WH_SEEDS)
def test_verify_weyl_heisenberg_sic_oracles(d, seed):
    report = verify(wh_sic(d, seed))
    assert (report.classification, report.k) == (SIC, d * d)
    assert abs(report.fitted_b - 1.0 / (d * d * (d + 1))) <= 1e-15


@pytest.mark.parametrize("d, seed", WH_SEEDS)
def test_weyl_heisenberg_sics_keep_class_and_k_under_disguise(d, seed):
    povm = wh_sic(d, seed)
    for seed in range(5):
        report = verify(disguise(np.random.default_rng(seed), povm, 1e-12))
        assert (report.classification, report.k) == (SIC, d * d)


def test_verify_flags_perturbation():
    stack = np.array(construct(2.0 / 25.0).elements, copy=True)
    stack[0, 0, 0] += 1e-3
    report = verify(Povm(dim=2, elements=stack))
    assert report.classification == NOT_SEMI_SIC
    # the reported violation tracks the size of the injected defect
    assert 5e-4 < report.max_violation < 5e-3

    # an anti-Hermitian part delta i(|0><1| + |1><0|) on element 0 counts as 2 delta
    member = construct(0.07)
    for delta, expected in ((3e-9, NOT_SEMI_SIC), (1e-12, STRICT_SEMI_SIC)):
        stack = np.array(member.elements, copy=True)
        stack[0] += delta * 1j * np.array([[0.0, 1.0], [1.0, 0.0]])
        report = verify(Povm(dim=2, elements=stack))
        assert report.classification == expected
        assert report.max_violation == pytest.approx(2.0 * delta, rel=1e-3)


def test_verify_classifies_at_the_given_gate():
    # the b = 0.07 member with its first vector lengthened by 1e-9: trace 0.3 -> 0.3 + 6e-10
    point = family_point(0.07)
    weights = np.array([point.params.a_minus] * 2 + [point.params.a_plus] * 2)
    rows = np.sqrt(weights)[:, None] * family_kets(point)
    rows[0] *= 1.0 + 1e-9
    povm = Povm.from_vectors(rows)
    report = verify(povm)
    assert report.classification == NOT_SEMI_SIC
    assert report.max_violation == pytest.approx(6e-10, rel=0.05)


def test_verify_measures_each_povm_once(monkeypatch):
    # stored elements are exactly Hermitian, so the report of a Povm built from them
    # (herm_dev measures the elements as given) is the report of any equal Povm
    povm = Povm(dim=2, elements=construct(0.07).elements)
    calls = count_measurements(monkeypatch)
    report = verify(povm)
    assert verify(povm) is report and calls == [povm]
    # an equal Povm is a new object, measured anew
    other = Povm(dim=2, elements=povm.elements)
    assert verify(other) == report and verify(other) == report
    assert calls == [povm, other]


@pytest.mark.parametrize("condition", CONDITIONS)
def test_verify_names_the_condition_it_fails(condition):
    povm = Povm(dim=3, elements=perturbed_sic_stack(condition))
    report = verify(povm)
    deviations = dict(zip(CONDITIONS, (report.equi_dev, report.comp_dev, report.psd_dev,
                                       report.herm_dev, report.trace_dev)))
    assert report.classification == NOT_SEMI_SIC and report.is_ic
    assert report.worst_condition == condition
    assert deviations[condition] == report.max_violation > TOL_COND
    assert all(dev < report.max_violation for name, dev in deviations.items() if name != condition)
    with pytest.raises(NotSemiSic) as refusal:
        verified(povm)
    assert str(refusal.value).endswith(f"max violation {report.max_violation:.3e} ({condition}))")
    # unperturbed, the same SIC passes with every deviation at rounding level
    sic = hesse_sic()
    clean = verify(sic)
    assert clean.classification == SIC and clean.max_violation < 1e-15
    assert clean.worst_condition in CONDITIONS
    assert verified(sic) is clean


def test_verify_rejects_full_rank_elements():
    # an equiangular mixture that is IC but not rank one
    base = construct(1.0 / 12.0)
    smeared = 0.9 * base.elements + 0.1 * np.eye(2) / 4.0
    report = verify(Povm(dim=2, elements=smeared))
    assert report.is_ic
    assert not report.all_rank_one
    assert report.classification == NOT_SEMI_SIC


def test_verify_requires_povm_instance():
    with pytest.raises(MalformedPovm):
        verify(np.eye(2))


def test_params_pin_the_overlap_where_d_and_k_fix_it():
    sic = SemiSicParams.from_b(2, 1.0 / 12.0 + 3e-11, 4)
    assert (sic.b, sic.a_minus, sic.a_plus) == (1.0 / 12.0, 0.5, 0.5)
    hesse = SemiSicParams.from_b(3, 1.0 / 36.0 - 5e-11, 9)
    assert hesse.b == 1.0 / 36.0
    assert SemiSicParams.from_b(3, 5.0 / 196.0 + 1e-12, 8).b == b_from_k(3, 8)
    # the strict qubit family is not pinned: b is kept as given
    assert SemiSicParams.from_b(2, 0.07 + 1e-11, 2).b == 0.07 + 1e-11
    with pytest.raises(KOutOfRange):
        SemiSicParams.from_b(3, 1.0 / 36.0 + 1e-9, 9)


@PROPERTY
@given(b=MEMBERS, seed=SEEDS, noise=NOISE)
def test_verify_is_invariant_under_disguise(b, seed, noise):
    clean = member(b)
    want = verify(clean)
    report = verify(disguise(np.random.default_rng(seed), clean, noise))
    assert (report.classification, report.k) == (want.classification, want.k)
    assert report.max_violation <= want.max_violation + 20.0 * noise + 1e-15


@PROPERTY
@given(b=DUAL_MEMBERS, seed=SEEDS, noise=NOISE)
def test_disguised_members_flow_through_dual(b, seed, noise):
    povm = disguise(np.random.default_rng(seed), member(b), noise)
    report = verify(povm)
    frame = dual_basis(povm, SemiSicParams.from_b(povm.dim, report.fitted_b, report.k))
    assert frame.source_k == report.k

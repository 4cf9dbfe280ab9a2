"""The package's public names."""

import inspect

import semisic
from semisic import errors, linalg, model, qubit, search

DELETED = {
    linalg: ("as_ket", "hs_inner", "outer", "is_psd", "rank", "pauli_decompose",
             "Tolerances", "DEFAULT_TOL", "as_matrix", "eig_hermitian", "pauli_compose",
             "PAULI_X", "PAULI_Y", "PAULI_Z"),
    errors: ("NotNormalized", "NonNegligibleImaginaryPart", "ConvergenceFailure",
             "AmbiguousCanonicalization", "DegenerateCoefficients"),
    qubit: ("CANON_TOL",),
    search: ("STEP_POLICIES",),
}


def test_exports_exist_and_deleted_names_stay_gone():
    assert [name for name in semisic.__all__ if not hasattr(semisic, name)] == []
    for module, names in DELETED.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert not hasattr(semisic, name) and name not in semisic.__all__
    assert not hasattr(model.SemiSicParams, "from_k")
    for field in ("step_policy", "initial_step", "penalty_weight"):
        assert field not in search.SearchConfig.__dataclass_fields__


def test_gradient_check_takes_only_d_b_and_seed():
    assert list(inspect.signature(search.gradient_check).parameters) == ["d", "b", "seed"]
    for fn in (search.objective, search.gradient):
        assert list(inspect.signature(fn).parameters) == ["vectors", "d", "k", "b"]

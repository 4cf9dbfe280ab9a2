"""The package's public names and its named thresholds."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import semisic
from semisic import bloch, documents, dual, errors, linalg, model, qubit, search

DELETED = {
    linalg: ("as_ket", "hs_inner", "outer", "is_psd", "rank", "pauli_decompose",
             "Tolerances", "DEFAULT_TOL", "as_matrix", "eig_hermitian", "pauli_compose",
             "PAULI_X", "PAULI_Y", "PAULI_Z", "TOL_HERM", "TOL_NORM", "TOL_PSD", "TOL_RANK",
             "as_hermitian"),
    model: ("DISC_SNAP", "_COUNTING_TOL", "_refusal"),
    dual: ("FEASIBILITY_SLACK",),
    bloch: ("_BALL_SLACK",),
    errors: ("NotNormalized", "NonNegligibleImaginaryPart", "ConvergenceFailure",
             "AmbiguousCanonicalization", "DegenerateCoefficients", "LengthMismatch",
             "DimensionTooSmall", "DimensionTooLarge", "BOutOfFamilyRange", "NotQubitSemiSic",
             "OutsideBlochBall"),
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
    # the document helpers live in semisic.documents only
    for name in ("povm_document", "parse_povm_document", "dual_frame_document"):
        assert hasattr(documents, name)
        assert not hasattr(semisic, name) and name not in semisic.__all__


THRESHOLD = re.compile(r"_?(TOL_\w+|\w+_(GATE|SLACK|SNAP|STOP|TOL))")
README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_named_threshold_is_in_the_readme_table_with_its_value():
    # the rows of README's threshold table: | `module.NAME` | value | judgement | argument |
    rows = re.findall(r"^\| `(\w+)\.(\w+)` +\| ([-+.e\d]+) +\|", README.read_text(), re.M)
    table = {(module, name): float(value) for module, name, value in rows}
    defined = set()
    for path in Path(semisic.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name) and THRESHOLD.fullmatch(target.id):
                    defined.add((path.stem, target.id))
    assert defined == set(table)
    for (module, name), value in table.items():
        assert getattr(getattr(semisic, module), name) == pytest.approx(value, rel=1e-15)


def test_gradient_check_takes_only_d_b_and_seed():
    assert list(inspect.signature(search.gradient_check).parameters) == ["d", "b", "seed"]
    for fn in (search.objective, search.gradient):
        assert list(inspect.signature(fn).parameters) == ["vectors", "d", "k", "b"]

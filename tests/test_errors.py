"""The nine refusal classes: one public call that raises each, and the CLI exit code of each."""

import ast
import io
from pathlib import Path

import numpy as np
import pytest

import semisic
from semisic import cli, documents, errors


def _perturbed_member() -> semisic.Povm:
    stack = np.array(semisic.construct(0.07).elements, copy=True)
    stack[0, 0, 0] += 1e-3
    return semisic.Povm(dim=2, elements=stack)


def _frame() -> semisic.DualFrame:
    return semisic.dual_basis(semisic.construct(0.08), semisic.SemiSicParams.from_b(2, 0.08, 2))


RAISERS = {
    errors.DimensionMismatch: lambda: semisic.admissible_k(2),
    errors.BOutOfRange: lambda: semisic.family_point(0.05),
    errors.KOutOfRange: lambda: semisic.b_from_k(3, 6),
    errors.MalformedPovm: lambda: semisic.Povm(dim=2, elements=np.zeros((3, 2, 2))),
    errors.NotSemiSic: lambda: semisic.canonicalize(_perturbed_member()),
    errors.NotAState: lambda: semisic.bloch_to_state([0.0, 0.0, 2.0]),
    errors.InconsistentProbabilities: lambda: semisic.probs_to_bloch(
        [0.9, 0.05, 0.03, 0.02], semisic.family_point(0.08)),
    errors.InvalidConfig: lambda: semisic.SearchConfig(d=2, k=3),
    errors.DocumentError: lambda: documents.parse_povm_document([]),
}
EXIT_1 = (errors.NotSemiSic, errors.InconsistentProbabilities)

# The refusals that once raised a bare ValueError, by site, and the class each raises now
FORMER_VALUE_ERRORS = {
    "bloch-vector-non-finite": (errors.NotAState, lambda: semisic.bloch_to_probs(
        [0.0, np.nan, 0.0], semisic.family_point(0.08))),
    "state-non-finite": (errors.NotAState, lambda: semisic.probabilities(
        np.array([[np.inf, 0.0], [0.0, 0.0]]), semisic.construct(0.08))),
    "state-not-hermitian": (errors.NotAState, lambda: semisic.probabilities(
        np.array([[0.5, 1e-3], [0.0, 0.5]]), semisic.construct(0.08))),
    "probs-to-bloch-non-finite": (errors.InconsistentProbabilities, lambda: semisic.probs_to_bloch(
        [0.4, 0.2, np.inf, 0.2], semisic.family_point(0.08))),
    "frame-probs-non-finite": (errors.InconsistentProbabilities, lambda: semisic.reconstruct(
        [0.25, np.nan, 0.25, 0.25], _frame())),
    "search-vectors-non-finite": (errors.InvalidConfig, lambda: semisic.objective(
        np.full((4, 2), np.nan), 2, 2, b=0.07)),
    "region-resolution": (errors.InvalidConfig, lambda: semisic.region_grid(_frame(), 1)),
    "region-point-cap": (errors.InvalidConfig, lambda: semisic.region_grid(_frame(), 400)),
    "region-csv-fields": (errors.DimensionMismatch, lambda: semisic.write_region_csv(
        np.zeros(3), io.StringIO())),
}


def test_errors_defines_exactly_the_nine_classes():
    defined = [v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)]
    assert sorted(cls.__name__ for cls in defined) == sorted(cls.__name__ for cls in RAISERS)
    assert all(cls.__bases__ == (ValueError,) for cls in defined)


@pytest.mark.parametrize("cls", RAISERS, ids=lambda cls: cls.__name__)
def test_a_public_call_raises_each_class(cls):
    with pytest.raises(cls) as info:
        RAISERS[cls]()
    assert type(info.value) is cls


@pytest.mark.parametrize("site", FORMER_VALUE_ERRORS)
def test_each_former_bare_value_error_raises_its_class(site):
    cls, call = FORMER_VALUE_ERRORS[site]
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_the_package_raises_no_bare_value_error():
    # every refusal is one of the nine classes, so a caller that catches them sees it
    bare = [f"{path.name}:{node.lineno}"
            for path in sorted(Path(semisic.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise) and _raised_name(node) == "ValueError"]
    assert bare == []


@pytest.mark.parametrize("cls", RAISERS, ids=lambda cls: cls.__name__)
def test_the_cli_exits_1_on_a_semantic_negative_and_2_on_any_other_refusal(cls, capsys,
                                                                           monkeypatch):
    def refuse(d):
        raise cls("refused")

    monkeypatch.setattr(cli.model, "admissible_k", refuse)
    assert cli.main(["spectrum", "--d", "3"]) == (1 if cls in EXIT_1 else 2)
    assert capsys.readouterr() == ("", "error: refused\n")

"""The nine refusal classes: one public call that raises each, and the CLI exit code of each."""

import numpy as np
import pytest

import semisic
from semisic import cli, errors


def _perturbed_member() -> semisic.Povm:
    stack = np.array(semisic.construct(0.07).elements, copy=True)
    stack[0, 0, 0] += 1e-3
    return semisic.Povm(dim=2, elements=stack)


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
    errors.DocumentError: lambda: semisic.parse_povm_document([]),
}
EXIT_1 = (errors.NotSemiSic, errors.InconsistentProbabilities)


def test_errors_defines_exactly_the_nine_classes():
    defined = [v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)]
    assert sorted(cls.__name__ for cls in defined) == sorted(cls.__name__ for cls in RAISERS)
    assert all(cls.__bases__ == (ValueError,) for cls in defined)


@pytest.mark.parametrize("cls", RAISERS, ids=lambda cls: cls.__name__)
def test_a_public_call_raises_each_class(cls):
    with pytest.raises(cls) as info:
        RAISERS[cls]()
    assert type(info.value) is cls


@pytest.mark.parametrize("cls", RAISERS, ids=lambda cls: cls.__name__)
def test_the_cli_exits_1_on_a_semantic_negative_and_2_on_any_other_refusal(cls, capsys,
                                                                           monkeypatch):
    def refuse(d):
        raise cls("refused")

    monkeypatch.setattr(cli.model, "admissible_k", refuse)
    assert cli.main(["spectrum", "--d", "3"]) == (1 if cls in EXIT_1 else 2)
    assert capsys.readouterr() == ("", "error: refused\n")

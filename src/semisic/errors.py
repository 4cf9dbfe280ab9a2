"""One ValueError per kind of refusal. CLI exit 1: NotSemiSic, InconsistentProbabilities; else 2."""


class DimensionMismatch(ValueError):
    """A matrix, vector, list, POVM or scan of the wrong shape, d or fields, or a d out of range."""


class BOutOfRange(ValueError):
    """An overlap b <= 0 or past 1/(4(d^2 - 1)), or a qubit b outside the family's (1/16, 1/12]."""


class KOutOfRange(ValueError):
    """A trace split k the dimension does not admit, or a b off the overlap that (d, k) pins."""


class MalformedPovm(ValueError):
    """An element stack that is structurally not a POVM: its shape, non-finite entries or a gate."""


class NotSemiSic(ValueError):
    """A POVM that verify() refuses, or params or a dual frame that do not fit a semi-SIC."""


class NotAState(ValueError):
    """A density matrix or Bloch vector that is non-finite or is not a state."""


class InconsistentProbabilities(ValueError):
    """Outcome probabilities that no state reproduces, non-finite ones included."""


class InvalidConfig(ValueError):
    """A search config, an objective's (d, k, b, vectors) or a region scan size that is invalid."""


class DocumentError(ValueError):
    """A JSON document that fails to parse or validate."""

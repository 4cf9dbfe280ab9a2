"""Exception hierarchy shared across the package."""


class DimensionMismatch(ValueError):
    """Operands live on Hilbert spaces of different (or wrong) dimensions."""


class BOutOfRange(ValueError):
    """Pairwise overlap b is outside the admissible range for the dimension."""


class KOutOfRange(ValueError):
    """Trace-split count k is outside the admissible range for the dimension."""


class DimensionTooSmall(ValueError):
    """Operation is only defined for dimension three and above."""


class DimensionTooLarge(ValueError):
    """Dimension is above the cap an operation states."""


class MalformedPovm(ValueError):
    """Element list is structurally not a POVM."""


class BOutOfFamilyRange(ValueError):
    """b is outside the qubit family interval (1/16, 1/12]."""


class NotQubitSemiSic(ValueError):
    """POVM is not a verified qubit semi-SIC."""


class NotSemiSic(ValueError):
    """POVM fails semi-SIC verification."""


class NotAState(ValueError):
    """Operator is not a density matrix."""


class LengthMismatch(ValueError):
    """Vector length does not match the frame size."""


class OutsideBlochBall(ValueError):
    """Bloch vector has norm greater than one."""


class InconsistentProbabilities(ValueError):
    """Probability vector is not realizable by any qubit state."""


class InvalidConfig(ValueError):
    """Search configuration violates its constraints."""


class DocumentError(ValueError):
    """Serialized document failed to parse or validate."""

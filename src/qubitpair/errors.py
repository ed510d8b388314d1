"""Exception types raised by the library."""


class QubitPairError(Exception):
    """Base class for all library errors."""


class NotHermitian(QubitPairError):
    """Matrix fails the Hermiticity gate."""


class EntryOverflow(QubitPairError):
    """Matrix entry beyond the range the eigen solve takes without overflow."""


class NotUnitary(QubitPairError):
    """Matrix fails the unitarity gate."""


class NotSpecialUnitary(NotUnitary):
    """Unitary matrix whose determinant is not 1."""


class InvalidDensityMatrix(QubitPairError):
    """State fails a density-matrix invariant; the message names it."""


class NotPositive(InvalidDensityMatrix):
    """Operator has an eigenvalue below the PSD floor."""


class NotXForm(QubitPairError):
    """Density matrix does not have the special four-parameter pattern."""


class NotSymmetricState(QubitPairError):
    """State is not supported on the triplet (exchange-symmetric) subspace."""


class I4Zero(QubitPairError):
    """The squared spin length vanishes; callers must fall back to (I1, I2)."""


class NoRealSpectrum(QubitPairError):
    """(I1, I2) are not realizable by a unit-trace real symmetric matrix."""


class InvalidDicke(QubitPairError):
    """Invalid collective quantum numbers for a Dicke reduced state."""


class InconsistentClassification(QubitPairError):
    """A fired entanglement criterion contradicts a separable PT verdict."""


class StateFileError(QubitPairError):
    """State file cannot be parsed or violates its schema."""

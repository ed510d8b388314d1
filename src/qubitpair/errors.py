"""Exception types raised by the library, and the one rule by which a
gate raises them.

A gate is a ``(refused, error)`` pair: a ``(k,)`` mask of the rows (states,
matrices, parameter sets) it refuses, and a function of the row index that
builds its exception.  ``_raise_first`` refuses a stack by the error its
first refused row raises alone, so a one-row call and a stack raise the
same class and message; every gate of the library, ``qmat``'s included,
is read through it.
"""

import numpy as np


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


def _refused(gates) -> np.ndarray:
    """The ``(k,)`` mask of the rows that any of ``_raise_first``'s gates refuses."""
    return np.logical_or.reduce([mask for mask, _ in gates])


def _raise_first(gates) -> None:
    """Raise the error a stack's first refused row raises alone.

    ``gates`` lists ``(refused, error)`` pairs in the order a single row
    meets them: a ``(k,)`` mask of the rows the gate refuses, and a
    function of the row index that builds the gate's exception.  The row
    is the first that any gate refuses, and the error is that of the first
    gate that refuses it.
    """
    refused = _refused(gates)
    if refused.any():
        j = int(refused.argmax())
        raise next(error(j) for mask, error in gates if mask[j])

"""Two-qubit density matrices and their parametrizations.

Basis convention: computational order |00>, |01>, |10>, |11> with qubit 1
as the left tensor factor.  Pauli convention: standard sigma_x, sigma_y,
sigma_z with sigma_y = [[0, -i], [i, 0]]; this fixes all signs of the
Bloch decomposition

    rho = (1/4) (I (x) I + s . (sigma (x) I) + (I (x) sigma) . r
                 + sum_ij t_ij sigma_i (x) sigma_j).

"Symmetric" throughout the library means supported on the triplet
(exchange-symmetric) subspace; a SWAP-commuting state with singlet
population is reported non-symmetric, because the unit-trace constraint
on T holds only for triplet support.

There is one Pauli decomposition, ``bloch_decompose_stack``: a ``(k, 4,
4)`` stack to ``s``, ``r`` ``(k, 3)`` and ``t`` ``(k, 3, 3)``.  It refuses
a stack by the error of its first bad state, so ``bloch_decompose`` (one
``(4, 4)`` matrix to a ``BlochForm``) is its one-row case.  ``BlochForm``
and the stack share one entry rule, and ``is_symmetric_form`` is
``symmetric_form_stack`` on one row.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import qmat
from .errors import InvalidDensityMatrix, NotPositive, NotXForm
from .tolerances import (
    HERMITICITY, PSD_FLOOR, SYMMETRIC_CONSTRAINTS, SYMMETRY, TRACE, XFORM_PATTERN,
)

# Pauli tensor basis B[m, n] = sigma_m (x) sigma_n with sigma_0 = I, built once.
_SIGMA_0123 = np.array((qmat.IDENTITY_2,) + qmat.PAULIS)
_BASIS = np.einsum("mab,ncd->mnacbd", _SIGMA_0123, _SIGMA_0123).reshape(4, 4, 4, 4)
_BASIS.setflags(write=False)

# Bands local to the Pauli traces: the imaginary residue a trace may carry,
# and the bound on Pauli expectations (necessary, not sufficient, for a state).
_IMAG_RESIDUE = 1e-12
_PAULI_BOUND = 1.0 + 1e-9

SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)
SWAP.setflags(write=False)

#: Singlet vector (|01> - |10>) / sqrt(2); its orthogonal complement is the
#: triplet subspace.
SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
SINGLET.setflags(write=False)

TRIPLET_BASIS = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ],
    dtype=complex,
).T  # columns |00>, (|01>+|10>)/sqrt2, |11>
TRIPLET_BASIS.setflags(write=False)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _raise_first(gates) -> None:
    """Raise the error a stack's first refused row raises alone.

    ``gates`` lists ``(refused, error)`` pairs in the order a single state
    meets them: a ``(k,)`` mask of the rows the gate refuses, and a
    function of the row index that builds the gate's exception.  The row
    is the first that any gate refuses, and the error is that of the first
    gate that refuses it.
    """
    refused = functools.reduce(operator.or_, (mask for mask, _ in gates))
    if refused.any():
        j = int(refused.argmax())
        raise next(error(j) for mask, error in gates if mask[j])


def _entry_gates(entries: np.ndarray) -> list:
    """The entry rule of a Bloch form on the ``(k, 15)`` entries of k forms:
    finite, then within [-1, 1] (``compose`` checks the rest of physicality)."""
    largest = np.abs(entries).max(axis=1)  # NaN or inf if any entry is
    return [
        (~np.isfinite(largest), lambda j: ValueError("BlochForm entries must be finite")),
        (largest > _PAULI_BOUND, lambda j: ValueError("BlochForm components must lie in [-1, 1]")),
    ]


def _as_state(rho: np.ndarray) -> np.ndarray:
    """``rho`` as a complex ``(4, 4)`` array; InvalidDensityMatrix for any other shape."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidDensityMatrix(f"expected shape (4, 4), got {rho.shape}")
    return rho


@dataclass(frozen=True)
class BlochForm:
    """Average spins ``s``, ``r`` and correlation matrix ``t`` of a two-qubit state."""

    s: np.ndarray
    r: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        for name in ("s", "r", "t"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        if self.s.shape != (3,) or self.r.shape != (3,) or self.t.shape != (3, 3):
            raise ValueError("BlochForm needs s, r of shape (3,) and t of shape (3, 3)")
        _raise_first(_entry_gates(np.concatenate((self.s, self.r, self.t.ravel()))[None]))

    def is_symmetric_form(self) -> bool:
        """Exchange constraints r = s, T = T^T, tr T = 1, within SYMMETRIC_CONSTRAINTS."""
        return bool(symmetric_form_stack(self.s[None], self.r[None], self.t[None])[0])


@dataclass(frozen=True)
class XForm:
    """Parameters of the special symmetric pattern.

    The density matrix reads ``[[a, 0, 0, b], [0, c, c, 0], [0, c, c, 0],
    [b*, 0, 0, d]]`` with a + d + 2c = 1; positivity amounts to
    a, c, d >= 0 and a d >= |b|^2.
    """

    a: float
    b: complex
    c: float
    d: float

    def __post_init__(self):
        a, c, d = self.a, self.c, self.d
        if not all(np.isfinite([a, c, d])) or not np.isfinite(complex(self.b)):
            raise ValueError("XForm parameters must be finite")
        if min(a, c, d) < -1e-12:
            raise NotPositive(f"negative diagonal parameter: a={a:.3e} c={c:.3e} d={d:.3e}")
        if abs(a + d + 2.0 * c - 1.0) > TRACE:
            raise InvalidDensityMatrix(
                f"trace constraint a + d + 2c = 1 violated by {a + d + 2 * c - 1:.3e}"
            )
        if a * d < abs(self.b) ** 2 - 1e-10:
            raise NotPositive(
                f"corner block not PSD: a*d = {a * d:.6e} < |b|^2 = {abs(self.b) ** 2:.6e}"
            )

    @classmethod
    def from_abc(cls, a: float, b: complex, c: float) -> "XForm":
        """Build with d fixed by the unit-trace constraint."""
        return cls(a=a, b=b, c=c, d=1.0 - a - 2.0 * c)

    def to_matrix(self) -> np.ndarray:
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = self.a
        rho[0, 3] = self.b
        rho[3, 0] = np.conj(self.b)
        rho[1, 1] = rho[1, 2] = rho[2, 1] = rho[2, 2] = self.c
        rho[3, 3] = self.d
        return rho


def assert_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity; return as complex array.

    The bands are HERMITICITY, TRACE and PSD_FLOOR from ``tolerances``.

    Raises InvalidDensityMatrix (or NotPositive) with the violated
    invariant named in the message.
    """
    rho = _as_state(rho)
    if not np.all(np.isfinite(rho)):
        raise InvalidDensityMatrix("matrix contains non-finite entries")
    defect = qmat.hermiticity_defect(rho)
    if defect > HERMITICITY:
        raise InvalidDensityMatrix(f"not Hermitian: defect {defect:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE:
        raise InvalidDensityMatrix(f"trace invariant violated: trace = {tr.real:.12g}")
    min_eig = float(qmat.hermitian_eigenvalues(rho)[0])
    if min_eig < PSD_FLOOR:
        raise NotPositive(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")
    return rho


def bloch_decompose(rho: np.ndarray) -> BlochForm:
    """Decompose a state into (s, r, T) via Pauli traces: the one-row case
    of :func:`bloch_decompose_stack`, with its gates.

    Use :func:`assert_density_matrix` for the full (PSD) validation.
    """
    s, r, t = bloch_decompose_stack(_as_state(rho)[None])
    return BlochForm(s=s[0], r=r[0], t=t[0])


def _decomposition(rhos: np.ndarray) -> tuple:
    """The Pauli decomposition of a ``(k, 4, 4)`` stack before its gates run.

    Returns ``(s, r, t, defect, gates)``: the Bloch arrays, the
    Hermiticity defect of each state, and the gates that follow the
    Hermiticity gate in ``_raise_first``'s form (trace, imaginary residue,
    entry rule).  Each caller puts its own Hermiticity error first.
    """
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[1:] != (4, 4):
        raise InvalidDensityMatrix(f"expected shape (k, 4, 4), got {rhos.shape}")
    trace = rhos.trace(axis1=1, axis2=2)
    c = np.einsum("...ij,mnji->...mn", rhos, _BASIS).reshape(-1, 16)
    residue = np.abs(c.imag[:, 1:]).max(axis=1)  # c[:, 0] is the trace
    c = c.real
    gates = [
        (np.abs(trace - 1.0) > TRACE, lambda j: InvalidDensityMatrix("trace invariant violated")),
        (residue > _IMAG_RESIDUE, lambda j: InvalidDensityMatrix(
            f"Pauli trace has imaginary residue {residue[j]:.3e}")),
        *_entry_gates(c[:, 1:]),
    ]
    c = c.reshape(-1, 4, 4)
    s, r, t = (np.ascontiguousarray(a) for a in (c[:, 1:, 0], c[:, 0, 1:], c[:, 1:, 1:]))
    return s, r, t, qmat.hermiticity_defect(rhos), gates


def bloch_decompose_stack(rhos: np.ndarray) -> tuple:
    """The Pauli decomposition of a ``(k, 4, 4)`` stack, as arrays.

    Returns ``(s, r, t)`` with ``s`` and ``r`` of shape ``(k, 3)`` and
    ``t`` of shape ``(k, 3, 3)``.  The gates, in the order a single state
    meets them: Hermiticity (HERMITICITY), trace (TRACE), an imaginary
    Pauli trace residue above 1e-12, and ``BlochForm``'s entry rule
    (finite, within [-1, 1]).  For the first row that a gate refuses, the
    first gate refusing it raises: InvalidDensityMatrix, or ValueError
    from the entry rule.
    """
    s, r, t, defect, gates = _decomposition(rhos)
    _raise_first([(defect > HERMITICITY, lambda j: InvalidDensityMatrix(
        f"not Hermitian: defect {defect[j]:.3e}")), *gates])
    return s, r, t


def symmetric_form_stack(s: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The exchange constraints r = s, T = T^T, tr T = 1 of each row of a
    stack, within SYMMETRIC_CONSTRAINTS, as a ``(k,)`` mask."""
    return ((np.abs(r - s).max(axis=1) <= SYMMETRIC_CONSTRAINTS)
            & (np.abs(t - t.swapaxes(1, 2)).max(axis=(1, 2)) <= SYMMETRIC_CONSTRAINTS)
            & (np.abs(t.trace(axis1=1, axis2=2) - 1.0) <= SYMMETRIC_CONSTRAINTS))


def bloch_compose(form: BlochForm) -> np.ndarray:
    """Rebuild the density matrix from (s, r, T); inverse of bloch_decompose.

    Hermitian and unit-trace by construction.  Raises NotPositive when the
    parameters do not describe a physical state (min eigenvalue below the
    PSD floor).
    """
    c = np.block([[np.ones((1, 1)), form.r[None, :]], [form.s[:, None], form.t]])
    rho = 0.25 * np.einsum("mn,mnij->ij", c, _BASIS)
    min_eig = float(qmat.hermitian_eigenvalues(rho)[0])
    if min_eig < PSD_FLOOR:
        raise NotPositive(
            f"Bloch parameters are unphysical: min eigenvalue {min_eig:.3e}"
        )
    return rho


def is_symmetric(rho: np.ndarray) -> bool:
    """True iff the state is supported on the triplet subspace.

    Checks the singlet population and every singlet-triplet coherence
    against SYMMETRY; equivalent to SWAP-invariance plus vanishing singlet
    weight.
    """
    rho = np.asarray(rho, dtype=complex)
    leak = rho @ SINGLET
    population = float(np.real(np.vdot(SINGLET, leak)))
    coherence = float(np.max(np.abs(TRIPLET_BASIS.conj().T @ leak)))
    return population <= SYMMETRY and coherence <= SYMMETRY


def xform_extract(rho: np.ndarray) -> XForm:
    """Read off the special-pattern parameters (a, b, c, d).

    Raises NotXForm with the largest off-pattern magnitude when any entry
    outside the pattern, or the spread within the middle block, exceeds
    XFORM_PATTERN.
    """
    rho = _as_state(rho)
    off = [
        rho[0, 1], rho[0, 2], rho[1, 0], rho[2, 0],
        rho[1, 3], rho[2, 3], rho[3, 1], rho[3, 2],
        rho[1, 1] - rho[1, 2], rho[1, 1] - rho[2, 2], rho[1, 1] - rho[2, 1],
    ]
    worst = float(np.max(np.abs(off)))
    if worst > XFORM_PATTERN:
        raise NotXForm(f"largest off-pattern magnitude {worst:.3e} exceeds tol {XFORM_PATTERN:.1e}")
    return XForm(
        a=float(np.real(rho[0, 0])),
        b=complex(rho[0, 3]),
        c=float(np.real(rho[1, 1])),
        d=float(np.real(rho[3, 3])),
    )


def apply_local_unitary(rho: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Conjugate by U1 (x) U2.

    Takes one state and two 2x2 unitaries, or stacks of them: ``rho``
    ``(..., 4, 4)`` and ``u1``, ``u2`` ``(..., 2, 2)``, the leading axes
    broadcast.  Each matrix of the result equals the one-state result bit
    for bit.  Trace-preserving; the Bloch parameters transform as
    s' = O(U1) s, r' = O(U2) r and T' = O(U1) T O(U2)^T for
    special-unitary factors.
    """
    u1 = qmat.require_unitary(u1, name="u1")
    u2 = qmat.require_unitary(u2, name="u2")
    u = qmat.kron_stack(u1, u2)
    return u @ np.asarray(rho, dtype=complex) @ u.conj().swapaxes(-1, -2)

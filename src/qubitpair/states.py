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
on T holds only for triplet support.  That rule is written once, as a
stack gate on the matrix (``_triplet_gate``): the singlet population and
every singlet-triplet coherence within SYMMETRY.  ``is_symmetric`` is its
one-row mask, ``separability.evidence_stack`` runs it after the
density-matrix and entry rules, and ``invariants.symmetric_six`` runs it
on the matrix of a form.

The density-matrix rule is written once, as a stack rule
(``_state_gates``): Hermiticity within HERMITICITY, then unit trace
within TRACE.  ``assert_density_matrix`` is its one-row case followed by
the PSD stage, ``bloch_compose`` ends in ``assert_density_matrix``, and
the Pauli decomposition and ``separability.evidence_stack`` read the
same gates.  A matrix inside the Hermiticity band is read as its
Hermitian part throughout.

There is one Pauli decomposition, ``bloch_decompose_stack``: a ``(k, 4,
4)`` stack to ``s``, ``r`` ``(k, 3)`` and ``t`` ``(k, 3, 3)``.  It refuses
a stack by the error of its first bad state, so ``bloch_decompose`` (one
``(4, 4)`` matrix to a ``BlochForm``) is its one-row case: it builds the
form from the row the stack has gated, without a copy or a second check.
``BlochForm`` and the stack share one entry rule.  ``XForm``'s rule is
one function on Python floats, which ``_xform_gates`` runs on k
parameter sets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import qmat
from .errors import InvalidDensityMatrix, NotPositive, NotSymmetricState, NotXForm
from .tolerances import HERMITICITY, PSD_FLOOR, STATE_ENTRY, SYMMETRY, TRACE, XFORM_PATTERN

# Pauli tensor basis B[m, n] = sigma_m (x) sigma_n with sigma_0 = I, built once.
_SIGMA_0123 = np.array((qmat.IDENTITY_2,) + qmat.PAULIS)
_BASIS = np.einsum("mab,ncd->mnacbd", _SIGMA_0123, _SIGMA_0123).reshape(4, 4, 4, 4)
_BASIS.setflags(write=False)

# The bound on Pauli expectations (necessary, not sufficient, for a state).
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

# Column 1 minus column 2 of rho is sqrt(2) rho |singlet>; times this matrix
# it gives the components of rho |singlet> along |00>, (|01> + |10>)/sqrt2,
# |11> and the singlet.  Each component is one product, or two exact ones
# (by 1/2), so a row gets the same bits in any stack.
_SINGLET_LEAK = np.array([
    [1.0 / np.sqrt(2.0), 0.0, 0.0, 0.0],
    [0.0, 0.5, 0.0, 0.5],
    [0.0, 0.5, 0.0, -0.5],
    [0.0, 0.0, 1.0 / np.sqrt(2.0), 0.0],
])
_SINGLET_LEAK.setflags(write=False)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _refused(gates) -> np.ndarray:
    """The ``(k,)`` mask of the rows that any of ``_raise_first``'s gates refuses."""
    return np.logical_or.reduce([mask for mask, _ in gates])


def _raise_first(gates) -> None:
    """Raise the error a stack's first refused row raises alone.

    ``gates`` lists ``(refused, error)`` pairs in the order a single state
    meets them: a ``(k,)`` mask of the rows the gate refuses, and a
    function of the row index that builds the gate's exception.  The row
    is the first that any gate refuses, and the error is that of the first
    gate that refuses it.
    """
    refused = _refused(gates)
    if refused.any():
        j = int(refused.argmax())
        raise next(error(j) for mask, error in gates if mask[j])


def _entry_gates(largest: np.ndarray) -> list:
    """The entry rule of a Bloch form on the ``(k,)`` largest absolute entry
    of k forms (NaN or inf if any entry is): finite, then within [-1, 1]
    (``compose`` checks the rest of physicality)."""
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
        entries = np.concatenate((self.s, self.r, self.t.ravel()))
        _raise_first(_entry_gates(np.abs(entries).max(keepdims=True)))

    @classmethod
    def _gated(cls, s: np.ndarray, r: np.ndarray, t: np.ndarray) -> "BlochForm":
        """The form of float arrays of the right shapes that have passed the
        entry rule, without a copy or a second check; they are made read-only."""
        form = object.__new__(cls)
        for name, a in zip(("s", "r", "t"), (s, r, t)):
            a.setflags(write=False)
            object.__setattr__(form, name, a)
        return form


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
        error = _xform_error(self.a, self.b, self.c, self.d)
        if error is not None:
            raise error

    @classmethod
    def from_abc(cls, a: float, b: complex, c: float) -> "XForm":
        """Build with d fixed by the unit-trace constraint."""
        return cls(a=a, b=b, c=c, d=1.0 - a - 2.0 * c)

    def _columns(self) -> tuple:
        """``(a, b, c, d)`` as 1-element arrays: the one-row stack of the
        functions that take ``(k,)`` parameter arrays."""
        return tuple(np.array([v]) for v in (self.a, self.b, self.c, self.d))

    def to_matrix(self) -> np.ndarray:
        return xform_matrices(*self._columns())[0]


def _xform_error(a: float, b: complex, c: float, d: float):
    """The error ``XForm``'s rule raises for one parameter set, or None.

    The checks, in order: finite, diagonal above -1e-12, unit trace within
    TRACE, corner block PSD within 1e-10.  One point is checked on Python
    floats: a stack of 1-element numpy arrays costs about five times as
    much, and every ``XForm`` and every draw of the self-test's X-form
    suite pays it.
    """
    if not all(map(math.isfinite, (a, c, d))) or not cmath.isfinite(b):
        return ValueError("XForm parameters must be finite")
    if min(a, c, d) < -1e-12:
        return NotPositive(f"negative diagonal parameter: a={a:.3e} c={c:.3e} d={d:.3e}")
    excess = a + d + 2.0 * c - 1.0
    if abs(excess) > TRACE:
        return InvalidDensityMatrix(f"trace constraint a + d + 2c = 1 violated by {excess:.3e}")
    if a * d < abs(b) ** 2 - 1e-10:
        return NotPositive(f"corner block not PSD: a*d = {a * d:.6e} < |b|^2 = {abs(b) ** 2:.6e}")
    return None


def _xform_gates(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> list:
    """``XForm``'s rule on k parameter sets (``(k,)`` arrays) in
    ``_raise_first``'s form: one gate, whose error for a refused point is
    the one ``XForm`` raises for it."""
    errors = [_xform_error(*p) for p in zip(a.tolist(), b.tolist(), c.tolist(), d.tolist())]
    return [(np.array([e is not None for e in errors]), errors.__getitem__)]


def xform_matrices(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The ``(k, 4, 4)`` density matrices of k parameter sets, each laid out
    as ``XForm`` shows; the parameters are not checked."""
    rho = np.zeros((len(a), 4, 4), dtype=complex)
    rho[:, 0, 0], rho[:, 0, 3], rho[:, 3, 0], rho[:, 3, 3] = a, b, np.conj(b), d
    rho[:, 1:3, 1:3] = c[:, None, None]
    return rho


def _state_gates(rhos: np.ndarray) -> list:
    """The density-matrix rule on a complex ``(k, 4, 4)`` stack, in
    ``_raise_first``'s form: Hermiticity within HERMITICITY (a non-finite
    matrix has defect inf), then unit trace within TRACE.  Each gate
    raises InvalidDensityMatrix naming its invariant and value.

    The trace gate reads the real part, the trace of the Hermitian part
    (rho + rho^dag) / 2 that the eigen solve and the Pauli decomposition
    read: the imaginary part is the anti-Hermitian part's, at most twice
    the defect the first gate has bounded.
    """
    defect = qmat.hermiticity_defect(rhos)
    trace = rhos.trace(axis1=1, axis2=2).real
    return [
        (defect > HERMITICITY, lambda j: InvalidDensityMatrix(
            f"not Hermitian: defect {defect[j]:.3e}")),
        (np.abs(trace - 1.0) > TRACE, lambda j: InvalidDensityMatrix(
            f"trace invariant violated: trace = {trace[j]:.12g}")),
    ]


def assert_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity; return as complex array.

    The one-row case of the density-matrix rule (``_state_gates``), then
    the PSD stage: an entry whose modulus exceeds STATE_ENTRY, which no
    state that passes the rule reaches, is refused before the eigen
    solve, and so is a minimum eigenvalue below PSD_FLOOR.

    Raises InvalidDensityMatrix (or NotPositive) with the violated
    invariant named in the message.
    """
    rho = _as_state(rho)
    _raise_first(_state_gates(rho[None]))
    largest = float(np.abs(rho).max())
    if largest > STATE_ENTRY:
        raise NotPositive(f"not positive semidefinite: entry modulus {largest:.3e} "
                          f"exceeds {STATE_ENTRY:.12g}")
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
    return BlochForm._gated(s[0], r[0], t[0])


def _decomposition(rhos: np.ndarray) -> tuple:
    """The Pauli decomposition of a ``(k, 4, 4)`` stack before its gates run.

    Returns ``(s, r, t, gates)``: the Bloch arrays and, in
    ``_raise_first``'s form, the density-matrix rule followed by the
    entry rule.  The traces' real parts are kept: they decompose the
    Hermitian part (rho + rho^dag) / 2, whose traces are real.  The
    imaginary parts need no gate of their own, since each is at most
    twice the Hermiticity defect (every sigma_m (x) sigma_n has one
    unit-modulus entry per row).
    """
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[1:] != (4, 4):
        raise InvalidDensityMatrix(f"expected shape (k, 4, 4), got {rhos.shape}")
    c = np.einsum("...ij,mnji->...mn", rhos, _BASIS).real
    largest = np.abs(c.reshape(-1, 16)[:, 1:]).max(axis=1)  # of the 15 traces after c[:, 0, 0]
    s, r, t = (np.ascontiguousarray(a) for a in (c[:, 1:, 0], c[:, 0, 1:], c[:, 1:, 1:]))
    return s, r, t, [*_state_gates(rhos), *_entry_gates(largest)]


def bloch_decompose_stack(rhos: np.ndarray) -> tuple:
    """The Pauli decomposition of a ``(k, 4, 4)`` stack, as arrays.

    Returns ``(s, r, t)`` with ``s`` and ``r`` of shape ``(k, 3)`` and
    ``t`` of shape ``(k, 3, 3)``.  The gates, in the order a single state
    meets them: the density-matrix rule (Hermiticity, then trace), and
    ``BlochForm``'s entry rule (finite, within [-1, 1]).  For the first
    row that a gate refuses, the first gate refusing it raises:
    InvalidDensityMatrix, or ValueError from the entry rule.
    """
    s, r, t, gates = _decomposition(rhos)
    _raise_first(gates)
    return s, r, t


def _form_matrix(form: BlochForm) -> np.ndarray:
    """The ``(4, 4)`` matrix of a Bloch form, Hermitian and unit-trace by
    construction and not checked further."""
    c = np.block([[np.ones((1, 1)), form.r[None, :]], [form.s[:, None], form.t]])
    return 0.25 * np.einsum("mn,mnij->ij", c, _BASIS)


def bloch_compose(form: BlochForm) -> np.ndarray:
    """Rebuild the density matrix from (s, r, T); inverse of bloch_decompose.

    ``_form_matrix`` validated by :func:`assert_density_matrix`, which
    raises NotPositive when the parameters do not describe a physical state.
    """
    return assert_density_matrix(_form_matrix(form))


def _triplet_gate(rhos: np.ndarray) -> tuple:
    """The triplet-support rule on a complex ``(k, 4, 4)`` stack as a gate
    in ``_raise_first``'s form: the singlet population and every
    singlet-triplet coherence within SYMMETRY, which amounts to
    SWAP-invariance plus a vanishing singlet weight.  A NaN fails it.
    The gate raises NotSymmetricState naming the population and the
    largest coherence.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # rows an earlier gate refuses
        components = (rhos[:, :, 1] - rhos[:, :, 2]) @ _SINGLET_LEAK
    population = components[:, 3].real
    coherence = np.abs(components[:, :3]).max(axis=1)
    return ~((population <= SYMMETRY) & (coherence <= SYMMETRY)), lambda j: NotSymmetricState(
        f"state has singlet support: singlet population {population[j]:.3e}, largest "
        f"singlet-triplet coherence {coherence[j]:.3e}, band {SYMMETRY:.1e}; "
        "the criteria require triplet support")


def is_symmetric(rho: np.ndarray) -> bool:
    """True iff the state is supported on the triplet subspace: the
    one-row mask of the triplet-support rule."""
    refused, _ = _triplet_gate(np.asarray(rho, dtype=complex)[None])
    return not refused[0]


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

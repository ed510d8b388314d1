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
one-row mask, ``separability.evidence_stack`` runs it after every other
gate, and ``invariants.symmetric_six`` runs it on the matrix of a form.

The density-matrix rule is written once, as a stack rule
(``_state_gates``): Hermiticity within HERMITICITY, then unit trace
within TRACE.  Positivity is one gate on one band (``_psd_gate``: the
minimum eigenvalue at least PSD_FLOOR).  ``assert_density_matrix`` is
the rule's one-row case, one eigen solve and that gate;
``bloch_compose`` checks ``BlochForm.to_matrix()`` (the form's matrix,
Hermitian by construction) with ``assert_density_matrix``; the Pauli
decomposition reads the same rule, and ``separability.evidence_stack``
the rule, the solve's entry bound and the gate, in the order of
``assert_density_matrix``, on its one solve.  Every other positivity
bound is derived from the floor: the entry rule bounds each Pauli
expectation by PAULI_BOUND, and ``XForm`` compares its pattern's
closed-form minimum eigenvalue with PSD_FLOOR.  A matrix inside the
Hermiticity band is read as its Hermitian part throughout.

There is one Pauli decomposition, ``bloch_decompose_stack``: a ``(k, 4,
4)`` stack to ``s``, ``r`` ``(k, 3)`` and ``t`` ``(k, 3, 3)``.  It refuses
a stack by the error of its first bad state (``errors._raise_first``, the
one refusal rule of every gate, ``qmat``'s included), so
``bloch_decompose`` (one ``(4, 4)`` matrix to a ``BlochForm``) is its
one-row case: it builds the form from the row the stack has gated,
without a copy or a second check.
``BlochForm`` and the stack share one entry rule; the decomposition
itself, without the gates, is ``_pauli_decomposition``.  ``XForm``'s
rule is written once, as arrays (``_xform_gates``, on k parameter sets):
``XForm`` is its one-row case, and ``models.pair_parameters`` and the
self-test read it on whole grids and draws.  Its roots are libm's hypot
(``np.hypot``), the one Python's ``abs`` of a complex number uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmat
from .errors import InvalidDensityMatrix, NotPositive, NotSymmetricState, NotXForm, _raise_first
from .tolerances import HERMITICITY, PAULI_BOUND, PSD_FLOOR, SYMMETRY, TRACE, XFORM_PATTERN

# Pauli tensor basis B[m, n] = sigma_m (x) sigma_n with sigma_0 = I, built once.
_SIGMA_0123 = np.array((qmat.IDENTITY_2,) + qmat.PAULIS)
_BASIS = np.einsum("mab,ncd->mnacbd", _SIGMA_0123, _SIGMA_0123).reshape(4, 4, 4, 4)
_BASIS.setflags(write=False)

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


def _entry_gates(largest: np.ndarray) -> list:
    """The entry rule of a Bloch form on the ``(k,)`` largest absolute entry
    of k forms (NaN or inf if any entry is): finite (ValueError), then
    within PAULI_BOUND, the largest Pauli expectation of a matrix that the
    PSD floor accepts (NotPositive).  ``bloch_compose`` checks the rest of
    positivity."""
    return [
        (~np.isfinite(largest), lambda j: ValueError("BlochForm entries must be finite")),
        (largest > PAULI_BOUND, lambda j: NotPositive(
            f"not positive semidefinite: Pauli expectation {largest[j]:.12g} "
            f"exceeds {PAULI_BOUND:.12g}")),
    ]


def _not_positive(min_eig: float) -> NotPositive:
    """The error of a matrix whose minimum eigenvalue is below PSD_FLOOR."""
    return NotPositive(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")


def _psd_gate(min_eig: np.ndarray) -> tuple:
    """The positivity rule on the ``(k,)`` minimum eigenvalues of k matrices,
    as a gate in ``_raise_first``'s form: each at least PSD_FLOOR."""
    return min_eig < PSD_FLOOR, lambda j: _not_positive(float(min_eig[j]))


def _as_state(rho: np.ndarray) -> np.ndarray:
    """``rho`` as a complex ``(4, 4)`` array; InvalidDensityMatrix for any other shape."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidDensityMatrix(f"expected shape (4, 4), got {rho.shape}")
    return rho


def _as_stack(rhos: np.ndarray) -> np.ndarray:
    """``rhos`` as a complex ``(k, 4, 4)`` stack; InvalidDensityMatrix for any
    other shape."""
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[1:] != (4, 4):
        raise InvalidDensityMatrix(f"expected shape (k, 4, 4), got {rhos.shape}")
    return rhos


def _as_states(rho: np.ndarray) -> np.ndarray:
    """``rho`` as a complex ``(..., 4, 4)`` array, one state or a stack of
    them; InvalidDensityMatrix for any other shape."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise InvalidDensityMatrix(f"expected shape (..., 4, 4), got {rho.shape}")
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

    def to_matrix(self) -> np.ndarray:
        """The ``(4, 4)`` matrix of the form, Hermitian and unit-trace by
        construction and not checked further."""
        c = np.empty((4, 4))
        c[0, 0], c[0, 1:], c[1:, 0], c[1:, 1:] = 1.0, self.r, self.s, self.t
        return 0.25 * np.einsum("mn,mnij->ij", c, _BASIS)

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
    [b*, 0, 0, d]]`` with a + d + 2c = 1.  Its eigenvalues are 0, 2c and
    those of the corner block [[a, b], [b*, d]], so positivity amounts to
    min(2c, ((a + d) - hypot(a - d, 2|b|)) / 2) >= 0, read on PSD_FLOOR.
    Construction checks the parameters with the one-row case of
    ``_xform_gates`` and raises the error of its first refusing gate.
    """

    a: float
    b: complex
    c: float
    d: float

    def __post_init__(self):
        _raise_first(_xform_gates(*self._columns()))

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


def _abs(b: np.ndarray) -> np.ndarray:
    """|b| of a ``(k,)`` array as Python's ``abs`` gives it for each entry,
    libm's hypot of its parts (``np.abs`` of a complex array rounds
    otherwise on about a third of the ``random_xform`` draws)."""
    return np.hypot(b.real, b.imag)


def _xform_gates(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> list:
    """``XForm``'s rule on k parameter sets (``(k,)`` arrays) in
    ``_raise_first``'s form: finite (ValueError), then unit trace within
    TRACE (InvalidDensityMatrix), then the pattern's closed-form minimum
    eigenvalue at least PSD_FLOOR (NotPositive, with the message
    ``assert_density_matrix`` gives).  ``XForm`` is its one-row case.
    """
    # A non-finite parameter, which the first gate refuses, makes the
    # excess or the minimum NaN or infinite.
    with np.errstate(over="ignore", invalid="ignore"):
        total, two_c = a + d, 2.0 * c
        excess = total + two_c - 1.0
        lowest = np.minimum(two_c, 0.5 * (total - np.hypot(a - d, 2.0 * _abs(b))))
        finite = np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & np.isfinite(d)
        return [
            (~finite, lambda j: ValueError("XForm parameters must be finite")),
            (np.abs(excess) > TRACE, lambda j: InvalidDensityMatrix(
                f"trace constraint a + d + 2c = 1 violated by {excess[j]:.3e}")),
            (lowest < PSD_FLOOR, lambda j: _not_positive(float(lowest[j]))),
        ]


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
    one eigen solve and the positivity rule (``_psd_gate``).

    Raises InvalidDensityMatrix (or NotPositive) with the violated
    invariant named in the message, or EntryOverflow from the solve for an
    entry beyond ``qmat.SOLVE_ENTRY``.
    """
    rho = _as_state(rho)
    _raise_first(_state_gates(rho[None]))
    _raise_first([_psd_gate(qmat.hermitian_eigenvalues(rho)[:1])])
    return rho


def bloch_decompose(rho: np.ndarray) -> BlochForm:
    """Decompose a state into (s, r, T) via Pauli traces: the one-row case
    of :func:`bloch_decompose_stack`, with its gates.

    Use :func:`assert_density_matrix` for the full (PSD) validation.
    """
    s, r, t = bloch_decompose_stack(_as_state(rho)[None])
    return BlochForm._gated(s[0], r[0], t[0])


def _pauli_decomposition(rhos: np.ndarray) -> tuple:
    """The Pauli decomposition of a complex ``(k, 4, 4)`` stack without its
    gates: ``(s, r, t)``.

    The traces' real parts are kept: they decompose the Hermitian part
    (rho + rho^dag) / 2, whose traces are real.  The imaginary parts need
    no gate of their own, since each is at most twice the Hermiticity
    defect (every sigma_m (x) sigma_n has one unit-modulus entry per row).
    """
    c = np.einsum("...ij,mnji->...mn", rhos, _BASIS).real
    return tuple(np.ascontiguousarray(a) for a in (c[:, 1:, 0], c[:, 0, 1:], c[:, 1:, 1:]))


def _decomposition(rhos: np.ndarray) -> tuple:
    """The Pauli decomposition of a complex ``(k, 4, 4)`` stack before its
    entry rule runs.

    Returns ``(s, r, t, gates)``: the Bloch arrays of
    :func:`_pauli_decomposition` and, in ``_raise_first``'s form, the entry
    rule on the 15 traces after the identity's.  A trace of a non-finite
    or huge row is NaN or inf without a warning; the caller's earlier
    gates refuse such a row first.
    """
    s, r, t = _pauli_decomposition(rhos)
    largest = np.abs(np.concatenate([s, r, t.reshape(-1, 9)], axis=1)).max(axis=1)
    return s, r, t, _entry_gates(largest)


def bloch_decompose_stack(rhos: np.ndarray) -> tuple:
    """The Pauli decomposition of a ``(k, 4, 4)`` stack, as arrays.

    Returns ``(s, r, t)`` with ``s`` and ``r`` of shape ``(k, 3)`` and
    ``t`` of shape ``(k, 3, 3)``.  The gates, in the order a single state
    meets them: the density-matrix rule (Hermiticity, then trace), and
    ``BlochForm``'s entry rule (finite, within PAULI_BOUND).  For the first
    row that a gate refuses, the first gate refusing it raises:
    InvalidDensityMatrix, or ValueError or NotPositive from the entry rule.
    """
    rhos = _as_stack(rhos)
    s, r, t, entry = _decomposition(rhos)
    _raise_first([*_state_gates(rhos), *entry])
    return s, r, t


def bloch_compose(form: BlochForm) -> np.ndarray:
    """Rebuild the density matrix from (s, r, T); inverse of bloch_decompose.

    ``form.to_matrix()`` validated by :func:`assert_density_matrix`, which
    raises NotPositive when the parameters do not describe a physical state.
    """
    return assert_density_matrix(form.to_matrix())


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
    refused, _ = _triplet_gate(_as_state(rho)[None])
    return not refused[0]


def xform_extract(rho: np.ndarray) -> XForm:
    """Read off the special-pattern parameters (a, b, c, d).

    c is the mean of the middle block's two diagonal entries, so the form
    has the matrix's trace.  Raises NotXForm with the largest off-pattern
    magnitude when any entry outside the pattern, or the spread within the
    middle block, exceeds XFORM_PATTERN.
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
        c=0.5 * (float(np.real(rho[1, 1])) + float(np.real(rho[2, 2]))),
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

    A ``rho`` whose last two axes are not (4, 4) raises
    InvalidDensityMatrix.  Each factor then meets ``qmat.require_unitary``
    before any product: a factor whose last two axes are not (2, 2) raises
    ValueError, one that is not unitary NotUnitary.  The product itself,
    without the gates, is ``_conjugate``.
    """
    rho = _as_states(rho)
    u1 = qmat.require_unitary(u1, name="u1")
    u2 = qmat.require_unitary(u2, name="u2")
    return _conjugate(rho, u1, u2)


def _conjugate(rho: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """The product of :func:`apply_local_unitary` without its gates, for a
    complex ``(..., 4, 4)`` stack and factors that are unitary by
    construction, as the self-test's ``su2_from_normals`` factors are."""
    u = qmat.kron_stack(u1, u2)
    return u @ rho @ u.conj().swapaxes(-1, -2)

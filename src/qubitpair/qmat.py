"""Minimal dense complex linear algebra for two-qubit state analysis.

Everything here is sized for 2x2 .. 4x4 matrices: Pauli basis, Kronecker
products, Hermitian eigenvalues (numpy's LAPACK ``eigvalsh`` behind a
Hermiticity gate and an overflow bound, on one ``(n, n)`` matrix or a
``(..., n, n)`` stack; ``_solve`` is the one solve, which
``hermitian_eigenvalues`` ends in and callers whose own gates have passed
a stack call directly), Haar-random SU(2) and the SU(2) -> SO(3)
covering map, and the power ``float_pow`` that the family closed forms
take entry by entry.  All functions are pure; random sampling takes a
caller-owned ``numpy.random.Generator``.

The gates here are the library's: each is a mask and an error read
through ``errors._raise_first``, so a stack raises the error of its first
refused matrix.  Hermiticity and unitarity share one defect rule
(``_defect``: the largest |entry| of a deviation, NaN or overflow read as
``inf`` without a warning), and ``require_unitary`` and ``su2_to_so3``
both gate on ``unitarity_defect``.  A stack's refusal names its matrix
with the suffix ``in matrix i, j`` (``_in_matrix``), empty for one matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import EntryOverflow, NotHermitian, NotSpecialUnitary, NotUnitary, _raise_first
from .tolerances import HERMITICITY, UNITARITY

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
IDENTITY_2 = np.eye(2, dtype=complex)
# The Paulis stacked as one (3, 2, 2) array, for einsum contractions.
_PAULI_STACK = np.array(PAULIS)

for _m in PAULIS + (IDENTITY_2, _PAULI_STACK):
    _m.setflags(write=False)

#: The largest real or imaginary part of an entry that
#: :func:`hermitian_eigenvalues` takes.  For a matrix that has passed the
#: Hermiticity gate, the Hermitian part (m + m^dag) / 2 overflows exactly
#: when a part of an entry exceeds it.
SOLVE_ENTRY = np.finfo(float).max / 2


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2-D operands; block (i, j) of the result equals a[i, j] * b.

    The 2-D case of :func:`kron_stack`, so the result equals ``np.kron(a,
    b)`` bit for bit without its general-rank set-up.

    Raises
    ------
    ValueError
        If either operand is not 2-D.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"kron takes 2-D operands, got shapes {a.shape} and {b.shape}")
    return kron_stack(a, b)


def kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products of two stacks, matrix by matrix: ``(..., m, n)``
    and ``(..., p, q)`` to ``(..., m p, n q)``, the leading axes broadcast.

    One broadcast product over the axes ``np.kron`` pairs up, so each
    matrix of the result equals ``np.kron`` of its pair bit for bit.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(*product.shape[:-4], m * p, n * q)


def _defect(deviation):
    """Largest |entry| of each matrix that ``deviation()`` computes: a float
    for one ``(n, n)`` matrix, a ``(...)`` array for a stack.

    The one defect rule of the gates.  A NaN (a non-finite entry, or
    inf - inf) would compare False against every band, so each gate would
    let its matrix through: it is ``inf``, as is a deviation beyond the
    float range, and neither warns.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        defect = np.abs(deviation()).max(axis=(-2, -1))
    return np.fmin(defect, np.inf)  # fmin passes over NaN: NaN -> inf, the rest as is


def hermiticity_defect(m: np.ndarray):
    """Largest entrywise deviation of each matrix of ``m``, one ``(n, n)``
    matrix or a ``(..., n, n)`` stack, from its conjugate transpose; ``inf``
    for a non-finite matrix or an overflowing deviation (:func:`_defect`)."""
    m = np.asarray(m)
    return _defect(lambda: m - m.conj().swapaxes(-1, -2))


def unitarity_defect(u: np.ndarray):
    """Largest entrywise deviation of U U^dag from the identity, for one
    ``(n, n)`` matrix (a float) or each matrix of a ``(..., n, n)`` stack;
    ``inf`` for a non-finite matrix or an overflowing product
    (:func:`_defect`)."""
    u = np.asarray(u, dtype=complex)
    return _defect(lambda: u @ u.conj().swapaxes(-1, -2) - np.eye(u.shape[-1]))


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of small Hermitian matrices, sorted ascending.

    Parameters
    ----------
    m : array_like, shape (..., n, n)
        One square Hermitian matrix of size at most 4x4, or a stack of
        them.  After the gates the stack is handed to :func:`_solve`.

    Returns
    -------
    numpy.ndarray, shape (..., n)
        Real eigenvalues of each matrix in ascending order; their sum
        reproduces the trace to well below the advertised 1e-10.

    Raises
    ------
    NotHermitian
        If :func:`hermiticity_defect` exceeds ``tolerances.HERMITICITY``,
        a non-finite matrix included.
    EntryOverflow
        If the real or imaginary part of an entry exceeds
        :data:`SOLVE_ENTRY`, where the Hermitian part overflows; the
        message names the bound.

    A stack is refused by the error its first refused matrix raises alone
    (``errors._raise_first``), with the suffix ``in matrix i, j`` naming it.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] > 4:
        raise ValueError("only sizes up to 4x4 are supported")
    lead = m.shape[:-2]
    flat = m.reshape(-1, *m.shape[-2:])
    defect = hermiticity_defect(flat)
    largest = np.maximum(np.abs(flat.real), np.abs(flat.imag)).max(axis=(-2, -1))
    _raise_first([
        (defect > HERMITICITY, lambda j: NotHermitian(
            f"Hermiticity defect {defect[j]:.3e} exceeds tol {HERMITICITY:.1e}"
            f"{_in_matrix(j, lead)}")),
        (largest > SOLVE_ENTRY, lambda j: EntryOverflow(
            f"entry part {largest[j]:.3e} exceeds the eigen solve's bound "
            f"{SOLVE_ENTRY:.3e}{_in_matrix(j, lead)}")),
    ])
    return _solve(m)


def _in_matrix(j: int, lead: tuple) -> str:
    """The suffix `` in matrix i, j`` that names matrix ``j`` of a flattened
    stack with leading axes ``lead``; empty for one matrix."""
    return f" in matrix {', '.join(str(i) for i in np.unravel_index(j, lead))}" if lead else ""


def _solve(m: np.ndarray) -> np.ndarray:
    """The solve of :func:`hermitian_eigenvalues` without its gates: numpy's
    LAPACK ``eigvalsh`` of the Hermitian part (m + m^dag) / 2 of each matrix
    of a ``(..., n, n)`` stack, n at most 4.  ``eigvalsh`` solves a stack one
    matrix at a time, so each matrix gets the ascending values the 2-D call
    gives it.  For a stack that gates have passed, so that its Hermitian
    part is finite."""
    return np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2)))


def su2_to_so3(u: np.ndarray) -> np.ndarray:
    """Rotation matrix covering a special unitary: O_ij = Tr(sigma_i U sigma_j U^dag) / 2.

    The returned ``O`` is orthogonal with det +1 and satisfies
    ``bloch(U rho U^dag) = O @ bloch(rho)`` for every single-qubit state.
    ``O(U) = O(-U)``, so any special-unitary representative is accepted.

    Raises
    ------
    NotSpecialUnitary
        If ``u`` is not unitary with unit determinant within
        ``tolerances.UNITARITY``.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # refused below if not finite
        det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    _raise_first([
        ((unitarity_defect(u) > UNITARITY).reshape(1),
         lambda j: NotSpecialUnitary("matrix is not unitary")),
        ((abs(det - 1.0) > UNITARITY).reshape(1),
         lambda j: NotSpecialUnitary(f"determinant {det:.12g} != 1")),
    ])
    return 0.5 * np.real(
        np.einsum("iab,bc,jcd,da->ij", _PAULI_STACK, u, _PAULI_STACK, u.conj().T)
    )


def haar_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) element: :func:`su2_from_normals` of one draw of
    four standard normals.  Deterministic for a given generator state."""
    return su2_from_normals(rng.normal(size=4))


def su2_from_normals(v: np.ndarray) -> np.ndarray:
    """Special unitaries from standard normals: ``(..., 4)`` to ``(..., 2, 2)``.

    A standard-normal 4-vector normalized to the unit 3-sphere is Haar
    uniform on SU(2); the map below sends the quaternion (a, b, c, d) to
    ``[[a+ib, c+id], [-c+id, a-ib]]``, whose determinant is exactly
    a^2+b^2+c^2+d^2 = 1.  Each row is normalized as ``np.linalg.norm``
    normalizes one vector, with a dot product: ``norm(v, axis=-1)``
    rounds differently on about one draw in five.
    """
    v = np.asarray(v, dtype=float)
    v = v / np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]
    a, b, c, d = np.moveaxis(v, -1, 0)
    u = np.stack([a + 1j * b, c + 1j * d, -c + 1j * d, a - 1j * b], axis=-1)
    return u.reshape(*v.shape[:-1], 2, 2)


def require_unitary(u: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``u``, one 2x2 matrix or a ``(..., 2, 2)`` stack, as a complex
    array.

    Raises
    ------
    ValueError
        If the last two axes of ``u`` are not (2, 2); the message names
        ``name`` and the shape.
    NotUnitary
        If :func:`unitarity_defect` exceeds ``tolerances.UNITARITY`` for
        any matrix, a non-finite matrix included; a stack's message ends
        in ``in matrix i, j``, as :func:`hermitian_eigenvalues`' does.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (2, 2):
        raise ValueError(f"{name} must be a 2x2 matrix or a stack of them, got shape {u.shape}")
    _raise_first([((unitarity_defect(u) > UNITARITY).reshape(-1), lambda j: NotUnitary(
        f"{name} is not unitary within tol {UNITARITY:.1e}{_in_matrix(j, u.shape[:-2])}"))])
    return u


def float_pow(base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """``base ** exponent`` entry by entry, for arrays of one shape, with
    libm's ``pow`` (Python's float power).

    Not ``np.power``: numpy's SIMD power rounds otherwise than libm on a
    share of integer-exponent powers that depends on the CPU (4,135 of
    200,000 with bases uniform on [-1, 1] and exponents 0 to 999, on an
    AVX-512 Xeon), so the family parameters and the sweep outputs would
    depend on the CPU.
    """
    return np.array(list(map(pow, np.asarray(base).tolist(), np.asarray(exponent).tolist())),
                    dtype=float)

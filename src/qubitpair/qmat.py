"""Minimal dense complex linear algebra for two-qubit state analysis.

Everything here is sized for 2x2 .. 4x4 matrices: Pauli basis, Kronecker
products, Hermitian eigenvalues (numpy's LAPACK ``eigvalsh`` behind a
Hermiticity gate and an overflow bound, on one ``(n, n)`` matrix or a
``(..., n, n)`` stack; ``_solve`` is the solve without them, for stacks
a caller's own gates have passed), Haar-random SU(2) and the SU(2) -> SO(3)
covering map, and the power ``float_pow`` that the family closed forms
take entry by entry.  All functions are pure; random sampling takes a
caller-owned ``numpy.random.Generator``.
"""

from __future__ import annotations

import numpy as np

from .errors import EntryOverflow, NotHermitian, NotSpecialUnitary, NotUnitary
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


def hermiticity_defect(m: np.ndarray):
    """Largest entrywise deviation of each matrix of ``m`` from its conjugate transpose.

    Takes one ``(n, n)`` matrix or a ``(..., n, n)`` stack and returns a
    float or a ``(...)`` array.  A matrix with a non-finite entry has
    defect ``inf``: its deviation would be NaN, which compares False
    against every band, so each Hermiticity gate would let it through.
    A deviation beyond the float range is ``inf`` as well.
    """
    m = np.asarray(m)
    # inf - inf on the diagonal gives NaN, mapped below; an overflow gives inf.
    with np.errstate(invalid="ignore", over="ignore"):
        defect = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return np.fmin(defect, np.inf)  # fmin passes over NaN: NaN -> inf, the rest as is


def _first(refused: np.ndarray, ndim: int) -> tuple:
    """The index of the first matrix a ``(...)`` mask refuses in a stack of
    ``ndim`` axes, and the suffix that names it ("" for one matrix)."""
    first = np.unravel_index(refused.argmax(), refused.shape)
    return first, f" in matrix {', '.join(str(int(i)) for i in first)}" if ndim > 2 else ""


def _not_hermitian(defect, where: str = "") -> NotHermitian:
    """The error of the Hermiticity gate of :func:`hermitian_eigenvalues`."""
    return NotHermitian(f"Hermiticity defect {defect:.3e} exceeds tol {HERMITICITY:.1e}{where}")


def unitarity_defect(u: np.ndarray):
    """Largest entrywise deviation of U U^dag from the identity, for one
    ``(n, n)`` matrix (a float) or each matrix of a ``(..., n, n)`` stack."""
    u = np.asarray(u, dtype=complex)
    return np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(u.shape[-1])).max(axis=(-2, -1))


def is_unitary(u: np.ndarray) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return float(unitarity_defect(u)) <= UNITARITY


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of small Hermitian matrices, sorted ascending.

    Parameters
    ----------
    m : array_like, shape (..., n, n)
        One square Hermitian matrix of size at most 4x4, or a stack of
        them.  After the gate the Hermitian part is handed to numpy's
        LAPACK ``eigvalsh``, which solves a stack one matrix at a time, so
        each matrix gets the values the 2-D call gives it.

    Returns
    -------
    numpy.ndarray, shape (..., n)
        Real eigenvalues of each matrix in ascending order; their sum
        reproduces the trace to well below the advertised 1e-10.

    Raises
    ------
    NotHermitian
        If :func:`hermiticity_defect` exceeds ``tolerances.HERMITICITY``
        for any matrix of the stack, a non-finite matrix included; the
        message names the first such matrix.
    EntryOverflow
        If the real or imaginary part of an entry exceeds
        :data:`SOLVE_ENTRY`, where the Hermitian part overflows; the
        message names the bound and the first such matrix.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] > 4:
        raise ValueError("only sizes up to 4x4 are supported")
    defect = np.asarray(hermiticity_defect(m))
    bad = defect > HERMITICITY
    if bad.any():
        first, where = _first(bad, m.ndim)
        raise _not_hermitian(defect[first], where)
    # An overflowing sum is inf, and inf times the complex 0.5 has a NaN
    # part; both are refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        h = _hermitian_part(m)
    if not np.isfinite(h).all():
        first, where = _first(~np.isfinite(h).all(axis=(-2, -1)), m.ndim)
        largest = max(np.abs(m[first].real).max(), np.abs(m[first].imag).max())
        raise EntryOverflow(f"entry part {largest:.3e} exceeds the eigen solve's bound "
                            f"{SOLVE_ENTRY:.3e}{where}")
    return np.linalg.eigvalsh(h)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2 of each matrix of a ``(..., n, n)`` stack: the matrix
    every solve hands to LAPACK."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _solve(m: np.ndarray) -> np.ndarray:
    """The solve of :func:`hermitian_eigenvalues` without its gates: the
    ascending eigenvalues of the Hermitian part of each matrix of a
    ``(..., n, n)`` stack, n at most 4, equal to that function's bit for
    bit.  For a stack that a caller's own gates have passed, so that its
    Hermitian part is finite."""
    return np.linalg.eigvalsh(_hermitian_part(m))


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
    if not is_unitary(u):
        raise NotSpecialUnitary("matrix is not unitary")
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    if abs(det - 1.0) > UNITARITY:
        raise NotSpecialUnitary(f"determinant {det:.12g} != 1")
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
    """Return ``u``, one square matrix or a ``(..., n, n)`` stack, as a
    complex array; NotUnitary if any matrix fails the gate."""
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2] or not np.all(unitarity_defect(u) <= UNITARITY):
        raise NotUnitary(f"{name} is not unitary within tol {UNITARITY:.1e}")
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

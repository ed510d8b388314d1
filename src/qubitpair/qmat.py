"""Minimal dense complex linear algebra for two-qubit state analysis.

Everything here is sized for 2x2 .. 4x4 matrices: Pauli basis, Kronecker
products, Hermitian eigenvalues (numpy's LAPACK ``eigvalsh`` behind a
Hermiticity gate, on one ``(n, n)`` matrix or a ``(..., n, n)`` stack),
Haar-random SU(2) and the SU(2) -> SO(3) covering map.  All functions are
pure; random sampling takes a caller-owned ``numpy.random.Generator``.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitian, NotSpecialUnitary, NotUnitary
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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2-D operands; block (i, j) of the result equals a[i, j] * b.

    One broadcast product over the axes ``np.kron`` pairs up, so the result
    equals ``np.kron(a, b)`` bit for bit without its general-rank set-up.

    Raises
    ------
    ValueError
        If either operand is not 2-D.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"kron takes 2-D operands, got shapes {a.shape} and {b.shape}")
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of ``m`` from its conjugate transpose."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T)))


def is_unitary(u: np.ndarray) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return float(np.max(np.abs(u @ u.conj().T - np.eye(len(u))))) <= UNITARITY


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
        If ``max |m - m^dag|`` exceeds ``tolerances.HERMITICITY`` for any
        matrix of the stack; the message names the first such matrix.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] > 4:
        raise ValueError("only sizes up to 4x4 are supported")
    m_dag = m.conj().swapaxes(-1, -2)
    defect = np.abs(m - m_dag).max(axis=(-2, -1))
    bad = defect > HERMITICITY
    if bad.any():
        first = np.unravel_index(bad.argmax(), bad.shape)
        where = f" in matrix {', '.join(str(int(i)) for i in first)}" if m.ndim > 2 else ""
        raise NotHermitian(
            f"Hermiticity defect {defect[first]:.3e} exceeds tol {HERMITICITY:.1e}{where}")
    return np.linalg.eigvalsh(0.5 * (m + m_dag))


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
    """Haar-random SU(2) element via a uniform unit quaternion.

    A standard-normal 4-vector normalized to the unit 3-sphere is Haar
    uniform on SU(2); the map below sends the quaternion (a, b, c, d) to
    ``[[a+ib, c+id], [-c+id, a-ib]]``, whose determinant is exactly
    a^2+b^2+c^2+d^2 = 1.  Deterministic for a given generator state.
    """
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v)
    a, b, c, d = v
    return np.array(
        [[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]], dtype=complex
    )


def require_unitary(u: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``u`` as a complex array, raising NotUnitary on gate failure."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise NotUnitary(f"{name} is not unitary within tol {UNITARITY:.1e}")
    return u

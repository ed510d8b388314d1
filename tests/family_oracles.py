"""Exact pair states of the three model families, for checking the closed forms.

Imports numpy and the standard library only: nothing here shares code
with ``qubitpair`` or with the closed forms it is compared against.
Conventions are the library's: |0> is spin up (sigma_z = +1), site 0 is
the leftmost tensor factor, and a pair state is a 4x4 matrix in the basis
|00>, |01>, |10>, |11>.

Oracles that scale to any N:

* ``dicke_pair``: the pair of the collective state |N/2, M>, from
  binomial counts.
* ``oat_pairs``: the pair after exp(-i chi t Sx^2) on all-down, read off
  <Sz>, <Sz^2> and <S+^2> after the evolution in the (N+1)-dimensional
  Dicke subspace; one ``eigh`` per N serves every chi t.
* ``ising_nearest_pair`` and ``ising_ring_average``: the ring
  H = (1/4) sum_i sigma_ix sigma_(i+1)x evolved for time chi t from
  all-down.  Its bonds commute, so an observable on a few sites feels
  only the bonds that touch them: the nearest-neighbour pair is the
  middle pair of a 4-site open chain for every N >= 4, a pair at
  distance 2 is sites (1, 3) of a 5-site chain for N >= 5, and a pair
  further apart is the product of two single-site states, so the ring
  average is exact for N >= 5.  ``ising_end_pair`` is the end pair of an
  open chain, whose first two sites feel the bonds of a 3-site chain for
  every N >= 3.

The 2^N reference (``reference_*``) builds the full state vector and
evolves it by an eigendecomposition of the full Hamiltonian.  It checks
the oracles above at N <= 8, where its dimension is at most 256, and
stands in for the ring's distance classes below N = 5 (``ising_ring``).
``closed_form_tolerance`` is the bound the closed forms are held to.
"""

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SWAP = np.eye(4)[[0, 2, 1, 3]]
REFERENCE_MAX_QUBITS = 8


def closed_form_tolerance(n: int) -> float:
    """Entrywise bound on a closed form's distance from its oracle at N
    qubits: (16 + N) eps.  It grows with N because the OAT oracle's phases
    chi t M^2, with M up to N/2, carry a rounding that grows with N; it
    measured at most 5 eps for N <= 10 and 45 eps at N = 1000 on the tested
    grids, and the Dicke and Ising oracles are within 1 eps."""
    return (16 + n) * np.finfo(float).eps


def dicke_pair(n: int, m: float) -> np.ndarray:
    """The pair of |N/2, M>: among its k = N/2 + M up spins a given pair
    holds two, one or none in C(N-2, k-2), 2 C(N-2, k-1) and C(N-2, k) of
    the C(N, k) equally weighted configurations."""
    k = round(n / 2 + m)
    total = comb(n, k)
    a, c, d = (comb(n - 2, k - ups) / total if k >= ups else 0.0 for ups in (2, 1, 0))
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[3, 3], rho[1:3, 1:3] = a, d, c
    return rho


@lru_cache(maxsize=None)
def _sx_eigenvectors(n: int) -> np.ndarray:
    """The eigenvectors of Sx in the Dicke basis |N/2, M>, M = -N/2 .. N/2,
    in ``eigh``'s ascending order of the eigenvalues -N/2 .. N/2.
    <M+1|S+|M> = sqrt((N/2 - M)(N/2 + M + 1)); the result is shared."""
    k = np.arange(n)
    sx = np.zeros((n + 1, n + 1))
    sx[k + 1, k] = sx[k, k + 1] = np.sqrt((n - k) * (k + 1.0)) / 2.0
    vectors = np.linalg.eigh(sx)[1]
    vectors.setflags(write=False)
    return vectors


def oat_pairs(n: int, chi_ts) -> np.ndarray:
    """The ``(len(chi_ts), 4, 4)`` pairs of exp(-i chi t Sx^2) |down...down>,
    evolved in the Dicke subspace (Kitagawa & Ueda, PRA 47, 5138, 1993;
    Wang & Molmer, EPJ D 18, 385, 2002).

    The evolved state is permutation symmetric with total spin N/2 and
    <S+> = <S+ Sz> = 0 (Sx^2 moves M by 0 or 2), so its pair is the
    triplet-supported X pattern of <sigma_z> = 2 <Sz> / N,
    <sigma_z sigma_z> = (4 <Sz^2> - N) / (N (N-1)),
    <sigma_+ sigma_-> = ((N/2)^2 - <Sz^2>) / (N (N-1)) and
    <sigma_- sigma_-> = conj(<S+^2>) / (N (N-1)) for two distinct qubits.
    """
    v = _sx_eigenvectors(n)
    # -N/2 .. N/2: the diagonal of Sz, and the spectrum of Sx in eigh's
    # order, taken exact rather than from eigh.
    m = np.arange(n + 1) - n / 2.0
    phases = np.exp(-1j * np.asarray(chi_ts, dtype=float)[:, None] * (m * m))
    psi = (phases * v[0]) @ v.T  # all-down is M = -N/2, basis vector 0
    k = np.arange(n - 1)
    raise2 = np.sqrt((n - k) * (k + 1.0) * (n - k - 1.0) * (k + 2.0))
    p = np.abs(psi) ** 2
    sz2, sp2 = p @ (m * m), np.sum(np.conj(psi[:, 2:]) * raise2 * psi[:, :-2], axis=1)
    pairs = n * (n - 1.0)
    z, zz = 2.0 * (p @ m) / n, (4.0 * sz2 - n) / pairs
    rho = np.zeros((len(psi), 4, 4), dtype=complex)
    rho[:, 0, 0], rho[:, 3, 3] = (1.0 + 2.0 * z + zz) / 4.0, (1.0 - 2.0 * z + zz) / 4.0
    rho[:, 1:3, 1:3] = ((n * n / 4.0 - sz2) / pairs)[:, None, None]
    rho[:, 0, 3], rho[:, 3, 0] = np.conj(sp2) / pairs, sp2 / pairs
    return rho


def _chain_state(sites: int, bonds, chi_t: float) -> np.ndarray:
    """All-down |0...0> of ``sites`` qubits after exp(-i chi t (1/4) sum
    sigma_x sigma_x) over ``bonds``, as a tensor of shape (2,) * sites.
    The bonds commute, so each factor cos(chi t/4) - i sin(chi t/4)
    sigma_x sigma_x is applied in turn; sigma_x sigma_x flips two axes."""
    psi = np.zeros((2,) * sites, dtype=complex)
    psi[(0,) * sites] = 1.0
    for i, j in bonds:
        psi = np.cos(chi_t / 4.0) * psi - 1j * np.sin(chi_t / 4.0) * np.flip(psi, (i, j))
    return psi


def reduced_pair(psi: np.ndarray, i: int = 0, j: int = 1) -> np.ndarray:
    """The 4x4 state of sites (i, j) of a pure state held as a (2,) * n tensor."""
    n = psi.ndim
    rest = [k for k in range(n) if k not in (i, j)]
    r = np.transpose(psi, [i, j] + rest).reshape(4, -1)
    return r @ r.conj().T


def _open_chain_pair(sites: int, i: int, j: int, chi_t: float) -> np.ndarray:
    bonds = [(k, k + 1) for k in range(sites - 1)]
    return reduced_pair(_chain_state(sites, bonds, chi_t), i, j)


def ising_nearest_pair(chi_t: float) -> np.ndarray:
    """Sites (0, 1) of the ring, exact for every N >= 4: the bonds that
    touch them are those of a 4-site open chain around its middle pair."""
    return _open_chain_pair(4, 1, 2, chi_t)


def ising_end_pair(chi_t: float) -> np.ndarray:
    """Sites (0, 1) of an open chain of N >= 3 sites: its bonds that touch
    them are those of a 3-site open chain."""
    return _open_chain_pair(3, 0, 1, chi_t)


def _symmetrize(rho: np.ndarray) -> np.ndarray:
    return (rho + SWAP @ rho @ SWAP) / 2.0


def ising_ring_average(n: int, chi_t: float) -> np.ndarray:
    """Every pair's state of the ring, symmetrized under SWAP and averaged
    over the N (N-1) / 2 pairs, exact for N >= 5: N pairs at distance 1,
    N at distance 2, and the rest (none at N = 5) as the product of
    single-site states.  At N = 4 a pair at distance 2 sees one site from
    both sides, and there are only two such pairs."""
    if n < 5:
        raise ValueError(f"the distance classes need N >= 5, got N = {n}")
    nearest = ising_nearest_pair(chi_t)
    single = np.einsum("akbk->ab", nearest.reshape(2, 2, 2, 2))
    pairs = n * (n - 1) // 2
    return (n * _symmetrize(nearest) + n * _symmetrize(_open_chain_pair(5, 1, 3, chi_t))
            + (pairs - 2 * n) * np.kron(single, single)) / pairs


# ---------------------------------------------------------------------------
# The 2^N reference, N <= 8.
# ---------------------------------------------------------------------------

def _site_op(n: int, site: int, op: np.ndarray) -> np.ndarray:
    out = np.eye(1)
    for k in range(n):
        out = np.kron(out, op if k == site else np.eye(2))
    return out


def _reference_evolve(n: int, hamiltonian: np.ndarray, start: int, t: float) -> np.ndarray:
    """Basis state ``start`` of 2^N after exp(-i t H), as a (2,) * n tensor."""
    if n > REFERENCE_MAX_QUBITS:
        raise ValueError(f"the 2^N reference takes N <= {REFERENCE_MAX_QUBITS}, got N = {n}")
    w, v = np.linalg.eigh(hamiltonian)
    return (v @ (np.exp(-1j * w * t) * v[start].conj())).reshape((2,) * n)


def reference_dicke(n: int, m: float) -> np.ndarray:
    """The state vector of |N/2, M>: the uniform superposition of the
    bitstrings with N/2 + M zeros (up spins), as a (2,) * n tensor."""
    ups = round(n / 2 + m)
    psi = np.array([bin(x).count("1") == n - ups for x in range(2 ** n)], dtype=complex)
    return (psi / np.sqrt(comb(n, ups))).reshape((2,) * n)


def reference_oat(n: int, chi_t: float) -> np.ndarray:
    """|1...1> (all down) after exp(-i chi t Sx^2), Sx = (1/2) sum sigma_x."""
    sx = sum(_site_op(n, k, SIGMA_X) for k in range(n)) / 2.0
    return _reference_evolve(n, sx @ sx, 2 ** n - 1, chi_t)


def reference_chain(n: int, chi_t: float, ring: bool = True) -> np.ndarray:
    """|0...0> (all down) after exp(-i chi t H), H = (1/4) sum over the
    bonds (k, k+1) of sigma_x sigma_x, closed into a ring or left open."""
    bonds = [(k, (k + 1) % n) for k in range(n if ring else n - 1)]
    sx = [_site_op(n, k, SIGMA_X) for k in range(n)]
    return _reference_evolve(n, sum(sx[i] @ sx[j] for i, j in bonds) / 4.0, 0, chi_t)


def reference_ring_average(psi: np.ndarray) -> np.ndarray:
    """The mean over all pairs of a reference state's SWAP-symmetrized pair states."""
    pairs = list(combinations(range(psi.ndim), 2))
    return sum(_symmetrize(reduced_pair(psi, i, j)) for i, j in pairs) / len(pairs)


def ising_ring(n: int, chi_t: float) -> tuple:
    """The ring's exact nearest-neighbour pair and ring average at any
    N >= 3: the 2^N reference below N = 5, where the distance classes do
    not yet hold, and the scalable oracles from N = 5 on."""
    if n < 5:
        psi = reference_chain(n, chi_t)
        return reduced_pair(psi), reference_ring_average(psi)
    return ising_nearest_pair(chi_t), ising_ring_average(n, chi_t)

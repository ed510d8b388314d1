"""Closed-form pair states for three multi-qubit families.

Each family yields a two-qubit state in the special four-parameter
pattern, together with analytic expressions for the invariants
(I4, I12, I14):

* ``dicke``: reduced state of any pair of the collective state
  |S = N/2, M>.
* ``oat``:   reduced state of any pair after one-axis twisting,
  exp(-i chi t Sx^2) applied to the all-down product state (spin
  squeezing).
* ``ising``: literature closed form attributed to a nearest-neighbour
  sigma_x sigma_x ring, H = (chi/4) sum_i sigma_ix sigma_(i+1)x, evolved
  from all-down.  It is not the reduced state of any pair of that chain;
  it is assembled from the chain's pair-averaged channels (see
  ``ising_pair``).

A brute-force small-N evolution (`brute_force_pair_oracle`) builds the
full 2^N state and traces down to qubits (1, 2); it exists for tests and
deliberately shares no code with the closed forms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from math import comb

import numpy as np

from . import qmat
from .errors import InvalidDicke, TooLarge
from .states import XForm

FAMILIES = ("dicke", "oat", "ising")

#: Largest qubit count accepted by the brute-force oracle (dimension 64).
ORACLE_MAX_QUBITS = 6


@dataclass(frozen=True)
class ModelSpec:
    """Family plus its parameters; ``m`` is Dicke-only, ``chi_t`` drives oat/ising."""

    family: str
    n: int
    m: float | None = None
    chi_t: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n < 2:
            raise ValueError("need at least two qubits")
        if self.family == "dicke":
            if self.m is None:
                raise ValueError("dicke requires m")
            _validate_dicke(self.n, self.m)
        elif self.chi_t is None:
            raise ValueError(f"{self.family} requires chi_t")


@dataclass(frozen=True)
class FamilyInvariants:
    i4: float
    i12: float
    i14: float


@dataclass(frozen=True)
class DickeInvariants:
    i4: float
    i12: float
    i14: float
    i12_minus_i4sq: float


def _validate_dicke(n: int, m: float) -> None:
    if not np.isfinite(m):  # round() below raises OverflowError on inf, ValueError on NaN
        raise InvalidDicke(f"M must be finite, got M = {m}")
    two_m = 2.0 * m
    if abs(two_m - round(two_m)) > 1e-12:
        raise InvalidDicke(f"2M must be an integer, got M = {m}")
    two_m = int(round(two_m))
    if abs(two_m) > n:
        raise InvalidDicke(f"|M| <= N/2 required, got N = {n}, M = {m}")
    if (n + two_m) % 2 != 0:
        raise InvalidDicke(
            f"M must step from -N/2 in integer increments: N = {n}, M = {m}"
        )


def dicke_pair(n: int, m: float) -> XForm:
    """Reduced pair of the collective eigenstate |N/2, M>.

    a = (N + 2M)(N + 2M - 2) / (4N(N-1)),   b = 0,
    c = (N^2 - 4M^2) / (4N(N-1)),           d = 1 - a - 2c.
    """
    if n < 2:
        raise InvalidDicke("need at least two qubits")
    _validate_dicke(n, m)
    denom = 4.0 * n * (n - 1.0)
    a = (n + 2.0 * m) * (n + 2.0 * m - 2.0) / denom
    c = (n * n - 4.0 * m * m) / denom
    return XForm.from_abc(a=a, b=0.0 + 0.0j, c=c)


def dicke_invariants(n: int, m: float) -> DickeInvariants:
    """Analytic invariants of the Dicke pair.

    I4 = (2M/N)^2, I12 = I4 (4M^2 - N) / (N(N-1)),
    I14 = 8 I4 ((N^2 - 4M^2) / (4N(N-1)))^2 and
    I12 - I4^2 = I4 (4M^2 - N^2) / (N^2 (N-1)); the last expression is
    non-positive, vanishing exactly at M = +/- N/2.
    """
    if n < 2:
        raise InvalidDicke("need at least two qubits")
    _validate_dicke(n, m)
    i4 = (2.0 * m / n) ** 2
    i12 = i4 * (4.0 * m * m - n) / (n * (n - 1.0))
    i14 = 8.0 * i4 * ((n * n - 4.0 * m * m) / (4.0 * n * (n - 1.0))) ** 2
    gap = i4 * (4.0 * m * m - n * n) / (n * n * (n - 1.0))
    return DickeInvariants(i4=i4, i12=i12, i14=i14, i12_minus_i4sq=gap)


def oat_pair(n: int, chi_t: float, paper_literal: bool = False) -> XForm:
    """Reduced pair of the one-axis-twisted state exp(-i chi t Sx^2) |down...down>.

    a    = (3 + cos^(N-2)(2 chi t) - 4 cos^(N-1)(chi t)) / 8
    Re b = -c = -(1 - cos^(N-2)(2 chi t)) / 8
    Im b = (1/2) cos^(N-2)(chi t) sin(chi t)

    The Im b exponent printed in the source literature is N-1, which is
    inconsistent with the family's own I14 expression and with the exact
    two-qubit solution; the default N-2 satisfies both.  Pass
    ``paper_literal=True`` to reproduce the printed variant for
    comparison.  The overall phase of b is a local-unitary gauge; every
    invariant depends on |b| only.  cos^0 is 1 for any argument.
    """
    if n < 2:
        raise ValueError("need at least two qubits")
    cos2 = np.cos(2.0 * chi_t) ** (n - 2)
    cos1 = np.cos(chi_t)
    a = (3.0 + cos2 - 4.0 * cos1 ** (n - 1)) / 8.0
    c = (1.0 - cos2) / 8.0
    exponent = n - 1 if paper_literal else n - 2
    im_b = 0.5 * cos1 ** exponent * np.sin(chi_t)
    return XForm.from_abc(a=a, b=complex(-c, im_b), c=c)


def oat_invariants(n: int, chi_t: float) -> FamilyInvariants:
    """Analytic invariants of the one-axis-twisting pair.

    I4 = cos^(2N-2)(chi t), I12 = (I4/2)(1 + cos^(N-2)(2 chi t)) and
    I14 = -2 I4 cos^(2N-4)(chi t) sin^2(chi t); I14 <= 0 throughout.
    """
    if n < 2:
        raise ValueError("need at least two qubits")
    cos1 = np.cos(chi_t)
    i4 = cos1 ** (2 * (n - 1))
    i12 = 0.5 * i4 * (1.0 + np.cos(2.0 * chi_t) ** (n - 2))
    i14 = -2.0 * i4 * cos1 ** (2 * (n - 2)) * np.sin(chi_t) ** 2
    return FamilyInvariants(i4=float(i4), i12=float(i12), i14=float(i14))


def ising_pair(n: int, chi_t: float) -> XForm:
    """Closed-form pair state attributed to the nearest-neighbour chain.

    a = (4(N-1)(1 + cos^2(chi t / 2)) - sin^2(chi t)) / (8(N-1)),
    b = -sin(chi t)(sin(chi t) + 4i) / (8(N-1)),
    c = sin^2(chi t) / (8(N-1)),  d = 1 - a - 2c.

    Relation to the exact periodic chain (acceptance criterion 8c): at
    every N, a - d = cos^2(chi t / 2) is the exact single-spin moment.
    For N >= 4 the whole matrix is the pattern assembled from the exact
    ring average ``avg`` (every pair's state symmetrized under SWAP,
    averaged over all pairs): c = Re avg[1,2], b = conj(avg[0,3]), the
    same a - d and unit trace; equivalently conj(avg) + w diag(1,-1,-1,1)
    with w the singlet weight of ``avg``.  It is not the reduced state of
    any pair, which carries singlet weight there.  At N = 3 the exact pair
    is itself of this pattern, but b and c differ from it: the (N-1) pair
    counting assumes that a pair's next-nearest neighbours are distinct
    sites, which they are not on a three-site ring.

    N = 2 is accepted but flagged: the pair is then the whole chain and
    the (N-1) normalization is outside its derivation regime.  N = 3 is
    accepted without a warning: unlike N = 2 its parameters are a valid
    state for every chi t, and its gap to the exact ring is pinned by
    criterion 8c and ``TestIsingOracleDiagnostics``.
    """
    if n < 2:
        raise ValueError("need at least two qubits")
    if n == 2:
        warnings.warn(
            "ising_pair with n=2: the closed form assumes a pair embedded in a "
            "longer chain",
            stacklevel=2,
        )
    s = np.sin(chi_t)
    denom = 8.0 * (n - 1.0)
    a = (4.0 * (n - 1.0) * (1.0 + np.cos(chi_t / 2.0) ** 2) - s * s) / denom
    b = -s * (s + 4.0j) / denom
    c = s * s / denom
    return XForm.from_abc(a=float(a), b=complex(b), c=float(c))


def ising_invariants(n: int, chi_t: float) -> FamilyInvariants:
    """Analytic invariants of the chain pair.

    I4 = cos^4(chi t / 2), I12 = I4 (1 - sin^2(chi t) / (2(N-1))) and
    I14 = -2 I4 sin^2(chi t) / (N-1)^2, strictly negative whenever
    sin(chi t) != 0 and cos(chi t / 2) != 0.
    """
    if n < 2:
        raise ValueError("need at least two qubits")
    i4 = np.cos(chi_t / 2.0) ** 4
    s2 = np.sin(chi_t) ** 2
    i12 = i4 * (1.0 - s2 / (2.0 * (n - 1.0)))
    i14 = -2.0 * i4 * s2 / (n - 1.0) ** 2
    return FamilyInvariants(i4=float(i4), i12=float(i12), i14=float(i14))


# ---------------------------------------------------------------------------
# Brute-force oracle (tests only): exact construction in the 2^N space.
# ---------------------------------------------------------------------------

def _op_on(n: int, site: int, op: np.ndarray) -> np.ndarray:
    mats = [qmat.IDENTITY_2] * n
    mats[site] = op
    return reduce(qmat.kron, mats)


def _evolve(hamiltonian: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(hamiltonian)
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0))


def _pair_reduce(rho_full: np.ndarray, n: int) -> np.ndarray:
    """Partial trace onto the first two tensor factors."""
    d_rest = 2 ** (n - 2)
    r = rho_full.reshape(4, d_rest, 4, d_rest)
    return np.einsum("akbk->ab", r)


def _dicke_vector(n: int, m: float) -> np.ndarray:
    """Uniform superposition of bitstrings with N/2 + M zeros (|0> = up)."""
    ups = int(round(n / 2.0 + m))
    vec = np.zeros(2 ** n, dtype=complex)
    for idx in range(2 ** n):
        if idx.bit_count() == n - ups:
            vec[idx] = 1.0
    return vec / np.sqrt(comb(n, ups))


def brute_force_pair_oracle(spec: ModelSpec, boundary: str = "periodic") -> np.ndarray:
    """Exact reduced pair state built in the full 2^N space.

    Independent of the closed forms above: the state vector is assembled
    directly, evolved via an exact eigendecomposition and traced down to
    qubits (1, 2).  The all-down reference state of each family is pinned
    by its t = 0 limit (|1...1> for oat, |0...0> for ising).  For the
    chain, ``boundary`` selects the periodic closure (site N+1 = site 1,
    the default) or the open variant.

    Raises TooLarge above ORACLE_MAX_QUBITS qubits.
    """
    if spec.n > ORACLE_MAX_QUBITS:
        raise TooLarge(f"oracle handles at most {ORACLE_MAX_QUBITS} qubits, got {spec.n}")
    n = spec.n
    if spec.family == "dicke":
        vec = _dicke_vector(n, spec.m)
        return _pair_reduce(np.outer(vec, vec.conj()), n)
    if spec.family == "oat":
        sx_total = sum(_op_on(n, i, qmat.SIGMA_X) for i in range(n)) / 2.0
        hamiltonian = sx_total @ sx_total
        psi0 = np.zeros(2 ** n, dtype=complex)
        psi0[-1] = 1.0  # all down = |1...1>
        psi = _evolve(hamiltonian, psi0, spec.chi_t)
        return _pair_reduce(np.outer(psi, psi.conj()), n)
    if boundary == "periodic":
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif boundary == "open":
        edges = [(i, i + 1) for i in range(n - 1)]
    else:
        raise ValueError(f"boundary must be 'periodic' or 'open', got {boundary!r}")
    hamiltonian = sum(
        _op_on(n, i, qmat.SIGMA_X) @ _op_on(n, j, qmat.SIGMA_X) for i, j in edges
    ) / 4.0
    psi0 = np.zeros(2 ** n, dtype=complex)
    psi0[0] = 1.0  # all down = |0...0>
    psi = _evolve(hamiltonian, psi0, spec.chi_t)
    return _pair_reduce(np.outer(psi, psi.conj()), n)

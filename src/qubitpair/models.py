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

The closed forms are checked against exact oracles that share no code
with them and scale to N = 1000: binomial counts for dicke, the evolution
in the (N+1)-dimensional Dicke subspace for oat, and open chains of three
to five sites for ising.  They live with the tests
(``tests/family_oracles.py``), not in the library.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import qmat
from .errors import InvalidDicke, _raise_first, _refused
from .states import XForm, _xform_gates

FAMILIES = ("dicke", "oat", "ising")


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


def _family_gates(family: str, ns, ms, chi_ts) -> tuple:
    """The family rule of k grid points in ``_raise_first``'s form, with N and
    the family parameter (M, or chi t) as float arrays.

    The rule: N a whole number (finite), N >= 2; then for dicke M finite,
    2M an integer (within 1e-12), |M| <= N/2 and N + 2M even, and for oat
    and ising chi t finite.  A bad N raises InvalidDicke for dicke and
    ValueError otherwise.  ``ns``, ``ms`` and ``chi_ts`` hold the values
    the messages name.
    """
    n = np.array(ns, dtype=float)
    error = InvalidDicke if family == "dicke" else ValueError
    n_gates = [
        (~(np.isfinite(n) & (np.floor(n) == n)),
         lambda j: error(f"N must be a whole number, got N = {ns[j]}")),
        (n < 2, lambda j: error("need at least two qubits")),
    ]
    if family != "dicke":
        chi_t = np.array(chi_ts, dtype=float)
        return [*n_gates, (~np.isfinite(chi_t), lambda j: ValueError(
            f"chi_t must be finite, got chi_t = {chi_ts[j]}"))], n, chi_t
    m = np.array(ms, dtype=float)
    finite = np.isfinite(m)
    with np.errstate(over="ignore", invalid="ignore"):  # 2M of a huge M is inf
        two_m = 2.0 * np.where(finite, m, 0.0)
        whole = np.rint(two_m)
        fraction, odd = np.abs(two_m - whole), (n + whole) % 2.0 != 0.0
    return [
        *n_gates,
        (~finite, lambda j: InvalidDicke(f"M must be finite, got M = {ms[j]}")),
        (fraction > 1e-12, lambda j: InvalidDicke(f"2M must be an integer, got M = {ms[j]}")),
        (np.abs(whole) > n, lambda j: InvalidDicke(
            f"|M| <= N/2 required, got N = {ns[j]}, M = {ms[j]}")),
        (odd, lambda j: InvalidDicke(
            f"M must step from -N/2 in integer increments: N = {ns[j]}, M = {ms[j]}")),
    ], n, m


def _closed_form(family: str, points, paper_literal: bool, stacklevel: int) -> tuple:
    """The family rule of k grid points ``(N, M, chi_t)`` in ``_raise_first``'s
    form, then the XForm parameters ``a, b, c, d`` as ``(k,)`` arrays, by the
    formulas of ``dicke_pair``, ``oat_pair`` and ``ising_pair``.

    A refused point is evaluated at N = 2 and M = chi t = 0 instead, so the
    formulas meet no value numpy warns on.  An Ising grid warns when an
    N = 2 point comes before the first refused one, as a loop over the
    points would; ``stacklevel`` counts from the caller of this function.
    """
    gates, n, x = _family_gates(family, *zip(*points))
    refused = _refused(gates)
    n, x = np.where(refused, 2.0, n), np.where(refused, 0.0, x)
    if family == "dicke":  # x is M
        denom = 4.0 * n * (n - 1.0)
        a = (n + 2.0 * x) * (n + 2.0 * x - 2.0) / denom
        b, c = np.zeros(len(x), dtype=complex), (n * n - 4.0 * x * x) / denom
    elif family == "oat":  # x is chi t
        cos2, cos1 = qmat.float_pow(np.cos(2.0 * x), n - 2.0), np.cos(x)
        a = (3.0 + cos2 - 4.0 * qmat.float_pow(cos1, n - 1.0)) / 8.0
        c = (1.0 - cos2) / 8.0
        b = np.empty(len(x), dtype=complex)
        power = qmat.float_pow(cos1, n - 1.0 if paper_literal else n - 2.0)
        b.real, b.imag = -c, 0.5 * power * np.sin(x)
    else:  # ising, x is chi t
        if (n[:refused.argmax() if refused.any() else len(n)] == 2.0).any():
            warnings.warn("ising_pair with n=2: the closed form assumes a pair embedded in a "
                          "longer chain", stacklevel=stacklevel + 1)
        s, cos_half, denom = np.sin(x), np.cos(x / 2.0), 8.0 * (n - 1.0)
        a = (4.0 * (n - 1.0) * (1.0 + cos_half * cos_half) - s * s) / denom
        b, c = -s * (s + 4.0j) / denom, s * s / denom
    return gates, a, b, c, 1.0 - a - 2.0 * c


def pair_parameters(family: str, points, paper_literal: bool = False) -> tuple:
    """The X-pattern parameters ``(a, b, c, d)`` of k grid points
    ``(N, M, chi_t)`` of ``family``, as ``(k,)`` arrays.

    ``M`` is read by dicke only, ``chi_t`` by oat and ising, and
    ``paper_literal`` by oat only.  Each entry equals the one-point
    ``*_pair`` result bit for bit, and the first point that the family rule
    or ``XForm``'s rule refuses raises the error that point raises alone.
    """
    gates, *abcd = _closed_form(family, points, paper_literal, stacklevel=2)
    _raise_first(gates + _xform_gates(*abcd))
    return tuple(abcd)


def _pair(family: str, n, m, chi_t, paper_literal: bool = False) -> XForm:
    """The one-point case of :func:`pair_parameters`, for the ``*_pair``
    functions (the Ising warning names their caller)."""
    gates, *abcd = _closed_form(family, [(n, m, chi_t)], paper_literal, stacklevel=3)
    _raise_first(gates)
    return XForm(*(v.item() for v in abcd))


def dicke_pair(n: int, m: float) -> XForm:
    """Reduced pair of the collective eigenstate |N/2, M>.

    a = (N + 2M)(N + 2M - 2) / (4N(N-1)),   b = 0,
    c = (N^2 - 4M^2) / (4N(N-1)),           d = 1 - a - 2c.
    """
    return _pair("dicke", n, m, None)


def dicke_invariants(n: int, m: float) -> DickeInvariants:
    """Analytic invariants of the Dicke pair.

    I4 = (2M/N)^2, I12 = I4 (4M^2 - N) / (N(N-1)),
    I14 = 8 I4 ((N^2 - 4M^2) / (4N(N-1)))^2 and
    I12 - I4^2 = I4 (4M^2 - N^2) / (N^2 (N-1)); the last expression is
    non-positive, vanishing exactly at M = +/- N/2.
    """
    _raise_first(_family_gates("dicke", [n], [m], [None])[0])
    ratio, spread = 2.0 * m / n, (n * n - 4.0 * m * m) / (4.0 * n * (n - 1.0))
    i4 = ratio * ratio
    i12 = i4 * (4.0 * m * m - n) / (n * (n - 1.0))
    i14 = 8.0 * i4 * (spread * spread)
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
    invariant depends on |b| only.  cos^0 is 1 for any argument.  A
    non-finite chi t raises ValueError.
    """
    return _pair("oat", n, None, chi_t, paper_literal)


def oat_invariants(n: int, chi_t: float) -> FamilyInvariants:
    """Analytic invariants of the one-axis-twisting pair.

    I4 = cos^(2N-2)(chi t), I12 = (I4/2)(1 + cos^(N-2)(2 chi t)) and
    I14 = -2 I4 cos^(2N-4)(chi t) sin^2(chi t); I14 <= 0 throughout.
    """
    _raise_first(_family_gates("oat", [n], [None], [chi_t])[0])
    cos1, sin1 = np.cos(chi_t), np.sin(chi_t)
    i4 = cos1 ** (2 * (n - 1))
    i12 = 0.5 * i4 * (1.0 + np.cos(2.0 * chi_t) ** (n - 2))
    i14 = -2.0 * i4 * cos1 ** (2 * (n - 2)) * (sin1 * sin1)
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
    criterion 8c and ``TestIsingOracleDiagnostics``.  A non-finite chi t
    raises ValueError.
    """
    return _pair("ising", n, None, chi_t)


def ising_invariants(n: int, chi_t: float) -> FamilyInvariants:
    """Analytic invariants of the chain pair.

    I4 = cos^4(chi t / 2), I12 = I4 (1 - sin^2(chi t) / (2(N-1))) and
    I14 = -2 I4 sin^2(chi t) / (N-1)^2, strictly negative whenever
    sin(chi t) != 0 and cos(chi t / 2) != 0.
    """
    _raise_first(_family_gates("ising", [n], [None], [chi_t])[0])
    i4 = np.cos(chi_t / 2.0) ** 4
    sin1 = np.sin(chi_t)
    s2 = sin1 * sin1
    i12 = i4 * (1.0 - s2 / (2.0 * (n - 1.0)))
    i14 = -2.0 * i4 * s2 / ((n - 1.0) * (n - 1.0))
    return FamilyInvariants(i4=float(i4), i12=float(i12), i14=float(i14))

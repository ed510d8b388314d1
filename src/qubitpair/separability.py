"""Separability analysis of symmetric two-qubit states.

Two routes are kept deliberately independent: the partial-transpose
spectrum (exact ground truth for two qubits) and sign criteria on the
invariants I12, I14 and I12 - I4^2, which are non-negative for every
separable symmetric state with non-vanishing I4.  For states with the
special four-parameter pattern the two routes are provably equivalent,
and this module exposes that equivalence as a checkable predicate.

``evidence`` reads one ``(4, 4)`` state; ``evidence_stack`` reads a
``(k, 4, 4)`` stack with one call per stage and returns the same numbers
as arrays (``EvidenceStack``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmat
from .errors import (
    DegenerateHypothesis,
    I4Zero,
    InconsistentClassification,
    NotSymmetricState,
)
from .invariants import (
    InvariantSet, SymmetricSix, makhlin_stack, symmetric_invariants, xform_invariants,
)
from .states import (
    XForm,
    assert_density_matrix,
    bloch_decompose,
    bloch_decompose_stack,
    is_symmetric,
    symmetric_form_stack,
)
from .tolerances import SIGN_ZERO_BAND

CRITERION_I12 = "I12_negative"
CRITERION_I14 = "I14_negative"
CRITERION_I12_MINUS_I4SQ = "I12_minus_I4sq_negative"
#: Column order of ``EvidenceStack.criteria``.
CRITERIA = (CRITERION_I12, CRITERION_I14, CRITERION_I12_MINUS_I4SQ)

VERDICT_SEPARABLE = "Separable"
VERDICT_ENTANGLED = "Entangled"


@dataclass(frozen=True)
class PptResult:
    min_eig: float
    separable: bool


@dataclass(frozen=True)
class Classification:
    """Verdict with the invariant criteria that fired, the PT evidence and the
    18 invariants the criteria were read from."""

    verdict: str
    criteria_fired: frozenset
    ppt_min_eigenvalue: float
    i4_zero_fallback_used: bool
    invariants: InvariantSet

    @property
    def six(self) -> SymmetricSix:
        """The symmetric six the criteria were read from."""
        return SymmetricSix.from_full(self.invariants)


@dataclass(frozen=True)
class EvidenceStack:
    """:func:`evidence` of each state of a ``(k, 4, 4)`` stack, as arrays.

    Row j holds exactly what ``evidence(rhos[j])`` returns: the 18
    invariants ``(k, 18)`` (column i is I(i+1)), the PT minimum
    eigenvalue ``(k,)``, ``I12 - I4^2`` ``(k,)``, the fired criteria as a
    ``(k, 3)`` mask with columns in ``CRITERIA`` order, and the I4-zero
    fallback ``(k,)``.
    """

    invariants: np.ndarray
    ppt_min_eigenvalue: np.ndarray
    i12_minus_i4sq: np.ndarray
    criteria: np.ndarray
    i4_zero_fallback: np.ndarray

    @property
    def separable(self) -> np.ndarray:
        """The PT verdict per row, as ``ppt_check`` reads it."""
        return self.ppt_min_eigenvalue >= -SIGN_ZERO_BAND


@dataclass(frozen=True)
class SeparableEnsemble:
    """Convex mixture of identical product states: weights and Bloch vectors."""

    weights: np.ndarray
    bloch_vectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        v = np.asarray(self.bloch_vectors, dtype=float)
        if w.ndim != 1 or v.shape != (w.size, 3):
            raise ValueError("need weights (n,) and bloch_vectors (n, 3)")
        if np.any(w < 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("weights must be non-negative and sum to 1")
        norms = np.linalg.norm(v, axis=1)
        if np.any(norms > 1.0 + 1e-12):
            raise ValueError("Bloch vectors must lie in the unit ball")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bloch_vectors", v)

    def to_state(self) -> np.ndarray:
        """Assemble sum_w p_w rho_w (x) rho_w; separable and symmetric by construction.

        All factors rho_w and products rho_w (x) rho_w are built at once; the
        weighted terms are then added from zero in ensemble order.  The
        products must be laid out as ``qmat.kron`` lays out one, axis for
        axis, so the state equals the term-by-term ``qmat.kron`` sum bit
        for bit.
        """
        v = self.bloch_vectors[:, :, None, None]
        singles = 0.5 * (
            qmat.IDENTITY_2
            + v[:, 0] * qmat.SIGMA_X
            + v[:, 1] * qmat.SIGMA_Y
            + v[:, 2] * qmat.SIGMA_Z
        )
        products = (singles[:, :, None, :, None] * singles[:, None, :, None, :]).reshape(-1, 4, 4)
        return sum(self.weights[:, None, None] * products, np.zeros((4, 4), dtype=complex))


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the second qubit's indices: rho[ij, kl] -> rho[il, kj].

    Takes one ``(4, 4)`` matrix or a ``(..., 4, 4)`` stack.
    """
    rho = np.asarray(rho, dtype=complex)
    lead = rho.shape[:-2]
    return rho.reshape(*lead, 2, 2, 2, 2).swapaxes(-3, -1).reshape(*lead, 4, 4)


def ppt_check(rho: np.ndarray) -> PptResult:
    """Positivity of the partial transpose; exact separability test for two qubits.

    The PT counts as positive when its min eigenvalue is >= -SIGN_ZERO_BAND.
    """
    min_eig = float(qmat.hermitian_eigenvalues(partial_transpose(rho))[0])
    return PptResult(min_eig=min_eig, separable=min_eig >= -SIGN_ZERO_BAND)


def xform_pt_eigenvalues(x: XForm) -> np.ndarray:
    """Closed-form PT spectrum of a special-pattern state.

    lambda_{1,2} = ((a + d) -/+ sqrt((a - d)^2 + 4 c^2)) / 2 and
    lambda_{3,4} = c -/+ |b|; only lambda_1 and lambda_3 can go negative.
    Returned in that order; as a multiset it equals the numeric PT
    spectrum.
    """
    root = np.sqrt((x.a - x.d) ** 2 + 4.0 * x.c * x.c)
    ab = abs(x.b)
    return np.array(
        [
            0.5 * ((x.a + x.d) - root),
            0.5 * ((x.a + x.d) + root),
            x.c - ab,
            x.c + ab,
        ]
    )


def invariant_criteria(six: SymmetricSix) -> frozenset:
    """Entanglement witnesses from invariant signs.

    Separable symmetric states with I4 > 0 have I12 >= 0, I14 >= 0 and
    I12 - I4^2 >= 0, so each strict negativity (below -SIGN_ZERO_BAND) is
    a sufficient witness of entanglement.  An empty set makes no claim.

    Raises I4Zero when |I4| <= SIGN_ZERO_BAND; the criteria are then
    uninformative and the caller must rely on the PT spectrum.
    """
    if abs(six.i4) <= SIGN_ZERO_BAND:
        raise I4Zero(f"I4 = {six.i4:.3e} is inside the zero band {SIGN_ZERO_BAND:.1e}")
    fired = set()
    if six.i12 < -SIGN_ZERO_BAND:
        fired.add(CRITERION_I12)
    if six.i14 < -SIGN_ZERO_BAND:
        fired.add(CRITERION_I14)
    if six.i12 - six.i4 ** 2 < -SIGN_ZERO_BAND:
        fired.add(CRITERION_I12_MINUS_I4SQ)
    return frozenset(fired)


def evidence(rho: np.ndarray) -> Classification:
    """PT verdict, fired criteria and invariants of a valid symmetric state.

    The verdict is the PT ground truth.  When I4 is inside the zero band
    no criterion is read and ``i4_zero_fallback_used`` is set.  Nothing is
    validated and a criterion that fires on a PT-positive state is
    returned as is; :func:`classify` adds the gates and that check.
    """
    ppt = ppt_check(rho)
    inv = symmetric_invariants(bloch_decompose(rho))
    fallback = False
    try:
        fired = invariant_criteria(SymmetricSix.from_full(inv))
    except I4Zero:
        fired = frozenset()
        fallback = True
    return Classification(
        verdict=VERDICT_SEPARABLE if ppt.separable else VERDICT_ENTANGLED,
        criteria_fired=fired,
        ppt_min_eigenvalue=ppt.min_eig,
        i4_zero_fallback_used=fallback,
        invariants=inv,
    )


def _criteria_columns(inv: np.ndarray) -> tuple:
    """I4, I12, I14 and I12 - I4^2 of a ``(k, 18)`` invariant array, each
    row rounded as :func:`invariant_criteria` rounds it."""
    i4, i12, i14 = inv[:, 3], inv[:, 11], inv[:, 13]
    # Python's float ** 2 (C pow) and numpy's square differ in the last bit
    # on about 1 value in 1000; the scalar criteria use the former.
    return i4, i12, i14, i12 - np.array([v ** 2 for v in i4.tolist()])


def evidence_stack(rhos: np.ndarray) -> EvidenceStack:
    """:func:`evidence` of a ``(k, 4, 4)`` stack with one PT solve, one
    Pauli decomposition and one invariant contraction for the whole stack.

    Every row equals the scalar result bit for bit.  A row that a gate of
    ``evidence`` refuses (Hermiticity, trace, imaginary Pauli residue,
    ``BlochForm`` bounds, exchange constraints) makes the stack replay
    ``evidence`` row by row, so the error raised is the class and message
    the scalar path raises on the first refused row.
    """
    rhos = np.asarray(rhos, dtype=complex)
    s, r, t, valid = bloch_decompose_stack(rhos)
    if not np.all(valid & symmetric_form_stack(s, r, t)):
        for rho in rhos:
            evidence(rho)  # raises on the first row the scalar gates refuse
    pt_min = qmat.hermitian_eigenvalues(partial_transpose(rhos))[:, 0]
    inv = makhlin_stack(s, r, t)
    i4, i12, i14, gap = _criteria_columns(inv)
    fallback = np.abs(i4) <= SIGN_ZERO_BAND
    fired = np.stack([i12, i14, gap], axis=1) < -SIGN_ZERO_BAND
    return EvidenceStack(
        invariants=inv,
        ppt_min_eigenvalue=pt_min,
        i12_minus_i4sq=gap,
        criteria=fired & ~fallback[:, None],
        i4_zero_fallback=fallback,
    )


def _classify_valid(rho: np.ndarray) -> Classification:
    """:func:`classify` of a state that ``assert_density_matrix`` has
    accepted, such as one ``stateio.read_state_file`` returns."""
    if not is_symmetric(rho):
        raise NotSymmetricState("state has singlet support; classify requires triplet support")
    result = evidence(rho)
    if result.criteria_fired and result.verdict == VERDICT_SEPARABLE:
        raise InconsistentClassification(
            f"criteria {sorted(result.criteria_fired)} fired but PT min eigenvalue is "
            f"{result.ppt_min_eigenvalue:.3e}; state sits inside the tolerance band"
        )
    return result


def classify(rho: np.ndarray) -> Classification:
    """Full verdict for a symmetric state: PT ground truth plus fired criteria.

    Refuses non-symmetric inputs (the invariant criteria are defined only
    on the triplet subspace).  If a criterion fires while the PT spectrum
    is strictly positive beyond the tolerance band, the contradiction is
    surfaced as InconsistentClassification rather than silently resolved.
    """
    return _classify_valid(assert_density_matrix(rho))


def sample_separable_symmetric(
    n_terms: int, rng: np.random.Generator
) -> tuple[np.ndarray, SeparableEnsemble]:
    """Draw a random separable symmetric state as an explicit convex mixture.

    Weights come from a flat simplex (normalized exponentials); Bloch
    vectors are uniform in the unit ball (uniform direction, cube-root
    radius).  The returned state satisfies s = sum_w p_w s_w and
    t_ij = sum_w p_w s_wi s_wj by construction.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    w = rng.exponential(size=n_terms)
    w /= np.sum(w)
    directions = rng.normal(size=(n_terms, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    radii = rng.uniform(size=n_terms) ** (1.0 / 3.0)
    ensemble = SeparableEnsemble(weights=w, bloch_vectors=directions * radii[:, None])
    return ensemble.to_state(), ensemble


def xform_equivalence_check(x: XForm) -> bool:
    """Sign equivalence between the PT spectrum and the invariant criteria.

    For the special pattern, I12 - I4^2 = (a-d)^2 ((1-4c) - (a-d)^2) and
    I14 = 8 (a-d)^2 (c+|b|) lambda_3, so each criterion sign must agree
    with the matching eigenvalue sign.  The strictly positive prefactors
    are divided out before the zero-band comparison so both sides are
    compared on the same scale, against SIGN_ZERO_BAND.

    Raises DegenerateHypothesis when (a-d)^2 is inside that band: both
    invariants then vanish identically and the comparison carries no
    information.  A vanishing c + |b| is harmless (lambda_3 is inside the
    band too).
    """
    ad_sq = (x.a - x.d) ** 2
    if ad_sq <= SIGN_ZERO_BAND:
        raise DegenerateHypothesis(f"(a - d)^2 = {ad_sq:.3e} is inside the zero band")
    six = xform_invariants(x)

    def band_sign(v: float) -> int:
        if v > SIGN_ZERO_BAND:
            return 1
        if v < -SIGN_ZERO_BAND:
            return -1
        return 0

    lhs12 = (six.i12 - six.i4 ** 2) / ad_sq
    rhs12 = (1.0 - 4.0 * x.c) - ad_sq
    ok12 = band_sign(lhs12) == band_sign(rhs12)

    c_plus_b = x.c + abs(x.b)
    if c_plus_b <= SIGN_ZERO_BAND:
        # Both I14 and lambda_3 are confined to the zero band.
        ok14 = True
    else:
        lhs14 = six.i14 / (8.0 * ad_sq * c_plus_b)
        lam3 = x.c - abs(x.b)
        ok14 = band_sign(lhs14) == band_sign(lam3)
    return ok12 and ok14

"""Separability analysis of symmetric two-qubit states.

Two routes are kept deliberately independent: the partial-transpose
spectrum (exact ground truth for two qubits) and sign criteria on the
invariants I12, I14 and I12 - I4^2, which are non-negative for every
separable symmetric state with non-vanishing I4.  For states with the
special four-parameter pattern the two routes are provably equivalent,
and this module exposes that equivalence as a checkable predicate.

``evidence_stack`` reads a ``(k, 4, 4)`` stack with one call per stage
and returns its numbers as arrays (``EvidenceStack``); it refuses a stack
by the error of its first bad state (``errors._raise_first``).
``evidence`` of one ``(4, 4)`` state is its one-row case.  Its gates and
the contraction come before one shared step, the criteria on the ``(k,
18)`` invariants (``_evidence``).  The sweep's X-pattern grids, which
``XForm``'s rule has checked as parameters, take that step without the
gates: ``_xform_evidence`` solves only their partial transposes, as
``evidence_stack`` does bit for bit, and reads the invariants from the
pattern's closed forms, within 8 eps of exact.  ``evidence`` and
``classify`` of an ``XForm`` (an ``xform`` state file, say) take that
route too, so they equal the sweep row of its parameters.  Those of a
``BlochForm`` (a ``bloch`` state file) take the form route: the
invariants of its own (s, r, T), as ``makhlin_all`` gives them, and one
solve of its matrix and partial transpose under the positivity and
triplet gates, with no Pauli decomposition and no density-matrix or
entry gate (``_gated_evidence`` given the form).  Each hypothesis
of the criteria is one gate: triplet support is ``states._triplet_gate``,
which ``evidence_stack`` runs after the density-matrix rule, the entry
rule and the positivity gate ``states._psd_gate`` (read on the same eigen
solve as the partial transpose's spectrum), and a vanishing I4 is
``invariants._i4_zero_gate``, which raises I4Zero in
``invariant_criteria``, ``xform_equivalence_check`` and
``invariants.xform_relation_check`` alike.  The criteria rule is written
once, on columns of I4, I12 and I14: ``evidence_stack``, the self-test's
positivity suite and ``invariant_criteria`` (one row) all read it.
``classify`` is ``evidence`` and one check (``_classification_error``)
for criteria that fire on a PT-separable verdict, so it validates its
input once; the ``invariants`` command reads the same check.  The
special pattern's closed forms take ``(k,)`` parameter arrays as well:
``xform_pt_eigenvalues`` and ``xform_equivalence_check`` are the one-row
cases of ``xform_pt_eigenvalues_stack`` and ``xform_equivalence_stack``,
which the self-test's X-form suite calls once for all of its draws.
``xform_equivalence_stack`` reads I4, I12 and I14 from
``invariants.makhlin_xform_stack``, the closed form the sweep reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import qmat
from .errors import InconsistentClassification, _raise_first, _refused
from .invariants import (
    InvariantSet, SymmetricSix, _i4_zero_gate, makhlin_stack, makhlin_xform_stack,
)
from .states import (
    BlochForm, XForm, _abs, _as_state, _as_states, _decomposition, _psd_gate, _triplet_gate,
    xform_matrices,
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
    """The evidence of each state of a ``(k, 4, 4)`` stack, as arrays.

    Row j holds what ``evidence(rhos[j])`` returns: the 18
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
    """Convex mixture of identical product states: weights and Bloch vectors.

    The weights must be finite, non-negative and sum to 1 within 1e-12,
    and the vectors finite and within the unit ball (1 + 1e-12); a
    violation raises ValueError.
    """

    weights: np.ndarray
    bloch_vectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        v = np.asarray(self.bloch_vectors, dtype=float)
        if w.ndim != 1 or v.shape != (w.size, 3):
            raise ValueError("need weights (n,) and bloch_vectors (n, 3)")
        _raise_first(_ensemble_gates(w[None], v[None]))
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bloch_vectors", v)

    def to_state(self) -> np.ndarray:
        """Assemble sum_w p_w rho_w (x) rho_w; separable and symmetric by
        construction.  The one-ensemble case of :func:`separable_mixtures`."""
        return _mixture_states(self.weights[None], self.bloch_vectors[None])[0]


def _ensemble_gates(weights: np.ndarray, vectors: np.ndarray) -> list:
    """``SeparableEnsemble``'s rule on k ensembles, ``(k, n)`` weights and
    ``(k, n, 3)`` vectors, in ``_raise_first``'s form.  Zero padding
    (zero weights, zero vectors) passes every gate and leaves each sum as
    it is."""
    finite = np.isfinite(weights).all(axis=1) & np.isfinite(vectors).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):  # inf - inf in a refused row's sum
        total = weights.sum(axis=1)
    norms = np.linalg.norm(vectors, axis=2)
    return [
        (~finite, lambda j: ValueError("weights and Bloch vectors must be finite")),
        ((weights < 0.0).any(axis=1) | (np.abs(total - 1.0) > 1e-12),
         lambda j: ValueError("weights must be non-negative and sum to 1")),
        ((norms > 1.0 + 1e-12).any(axis=1),
         lambda j: ValueError("Bloch vectors must lie in the unit ball")),
    ]


def _mixture_states(weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The states of :func:`separable_mixtures`, without its gates.

    All factors rho_w and products rho_w (x) rho_w are built at once, each
    product laid out as ``qmat.kron`` lays out one, and the weighted terms
    are added from zero in ensemble order.  So each state equals the
    term-by-term ``qmat.kron`` sum bit for bit, padding included: a
    zero-weight term is +-0 throughout, and adding +-0 leaves every bit of
    a sum that started from +0 as it is, since such a sum is never -0.
    """
    v = vectors[..., None, None]
    singles = 0.5 * (
        qmat.IDENTITY_2
        + v[..., 0, :, :] * qmat.SIGMA_X
        + v[..., 1, :, :] * qmat.SIGMA_Y
        + v[..., 2, :, :] * qmat.SIGMA_Z
    )
    terms = weights[..., None, None] * qmat.kron_stack(singles, singles)
    return sum(terms.swapaxes(0, 1), np.zeros((len(weights), 4, 4), dtype=complex))


def separable_mixtures(weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The states of k ensembles as one ``(k, 4, 4)`` stack.

    Row j of ``weights`` ``(k, n)`` and ``vectors`` ``(k, n, 3)`` holds one
    ensemble, padded to n terms with zero weights and zero vectors; row j
    of the result equals ``SeparableEnsemble`` of the unpadded terms,
    ``.to_state()``, bit for bit.  The first row that breaks the ensemble
    rule raises its ValueError.
    """
    weights = np.asarray(weights, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    _raise_first(_ensemble_gates(weights, vectors))
    return _mixture_states(weights, vectors)


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the second qubit's indices: rho[ij, kl] -> rho[il, kj].

    Takes one ``(4, 4)`` matrix or a ``(..., 4, 4)`` stack; any other shape
    raises InvalidDensityMatrix.
    """
    rho = _as_states(rho)
    lead = rho.shape[:-2]
    return rho.reshape(*lead, 2, 2, 2, 2).swapaxes(-3, -1).reshape(*lead, 4, 4)


def ppt_check(rho: np.ndarray) -> PptResult:
    """Positivity of the partial transpose; exact separability test for two qubits.

    The PT counts as positive when its min eigenvalue is >= -SIGN_ZERO_BAND.
    """
    min_eig = float(qmat.hermitian_eigenvalues(partial_transpose(rho))[0])
    return PptResult(min_eig=min_eig, separable=min_eig >= -SIGN_ZERO_BAND)


def xform_pt_eigenvalues(x: XForm) -> np.ndarray:
    """Closed-form PT spectrum of a special-pattern state: the one-row case
    of :func:`xform_pt_eigenvalues_stack`.

    lambda_{1,2} = ((a + d) -/+ sqrt((a - d)^2 + 4 c^2)) / 2 and
    lambda_{3,4} = c -/+ |b|; only lambda_1 and lambda_3 can go negative.
    Returned in that order; as a multiset it equals the numeric PT
    spectrum.
    """
    return xform_pt_eigenvalues_stack(*x._columns())[0]


def xform_pt_eigenvalues_stack(
        a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The closed-form PT spectra of k special-pattern states, from their
    ``(k,)`` parameter arrays, as a ``(k, 4)`` array: each row is
    (lambda_1, lambda_2, lambda_3, lambda_4) of :func:`xform_pt_eigenvalues`,
    equal to its one-state value bit for bit.  The parameters are not checked.
    """
    root = np.sqrt((a - d) * (a - d) + 4.0 * c * c)
    ab = _abs(b)
    return np.stack([0.5 * ((a + d) - root), 0.5 * ((a + d) + root), c - ab, c + ab], axis=1)


def invariant_criteria(six: SymmetricSix) -> frozenset:
    """Entanglement witnesses from invariant signs: the one-row case of the
    criteria rule that :func:`evidence_stack` reads.

    Separable symmetric states with I4 > 0 have I12 >= 0, I14 >= 0 and
    I12 - I4^2 >= 0, so each strict negativity (below -SIGN_ZERO_BAND) is
    a sufficient witness of entanglement.  An empty set makes no claim.

    Raises I4Zero when |I4| <= SIGN_ZERO_BAND; the criteria are then
    uninformative and the caller must rely on the PT spectrum.
    """
    columns = np.array([[six.i4], [six.i12], [six.i14]], dtype=float)
    _raise_first([_i4_zero_gate(columns[0])])
    _, fired, _ = _criteria_columns(*columns)
    return frozenset(itertools.compress(CRITERIA, fired[0].tolist()))


def evidence(rho: np.ndarray | XForm | BlochForm) -> Classification:
    """PT verdict, fired criteria and invariants of a valid symmetric state:
    the one-row case of :func:`evidence_stack`, with its gates.  An
    ``XForm`` takes the sweep's route instead, the one-row case of
    ``_xform_evidence``, whose one gate is the form's own rule, run when
    the form was constructed.  A ``BlochForm`` takes the form route: its
    invariants are those of its own (s, r, T), as ``makhlin_all`` gives
    them, and its matrix meets only the positivity and triplet gates.

    The verdict is the PT ground truth.  When I4 is inside the zero band
    no criterion is read and ``i4_zero_fallback_used`` is set.  A
    criterion that fires on a PT-positive state is returned as is;
    :func:`classify` adds that check.
    """
    if isinstance(rho, XForm):
        return _classification(_xform_evidence(*rho._columns()))
    if isinstance(rho, BlochForm):
        return _classification(_gated_evidence(rho.to_matrix()[None], True, rho))
    return _classification(evidence_stack(_as_state(rho)[None]))


def _classification(ev: EvidenceStack) -> Classification:
    """The ``Classification`` of a one-row ``EvidenceStack``."""
    return Classification(
        verdict=VERDICT_SEPARABLE if ev.separable[0] else VERDICT_ENTANGLED,
        criteria_fired=frozenset(itertools.compress(CRITERIA, ev.criteria[0].tolist())),
        ppt_min_eigenvalue=float(ev.ppt_min_eigenvalue[0]),
        i4_zero_fallback_used=bool(ev.i4_zero_fallback[0]),
        invariants=InvariantSet(*ev.invariants[0].tolist()),
    )


def _criteria_columns(i4: np.ndarray, i12: np.ndarray, i14: np.ndarray) -> tuple:
    """The criteria rule on k rows of the ``(k,)`` columns I4, I12 and I14.

    Returns the ``(k, 3)`` criterion values I12, I14 and I12 - I4^2 (columns
    in ``CRITERIA`` order), the ``(k, 3)`` mask of the criteria that fire
    (value below -SIGN_ZERO_BAND) and the ``(k,)`` I4-zero fallback
    (``invariants._i4_zero_gate``), on whose rows no criterion fires.
    """
    # I4^2 as the product i4 * i4, which IEEE arithmetic rounds correctly.
    values = np.stack([i12, i14, i12 - i4 * i4], axis=1)
    fallback, _ = _i4_zero_gate(i4)
    return values, (values < -SIGN_ZERO_BAND) & ~fallback[:, None], fallback


def evidence_stack(rhos: np.ndarray) -> EvidenceStack:
    """PT verdicts, fired criteria and invariants of a ``(k, 4, 4)`` stack of
    valid symmetric states, with one eigen solve (of each state and its
    partial transpose), one Pauli decomposition and one invariant
    contraction for the whole stack.

    The gates, in the order a single state meets them: the gates of
    ``states.bloch_decompose_stack`` (the density-matrix rule, then the
    entry rule), positivity (``states._psd_gate``, NotPositive) and
    triplet support (``states._triplet_gate``, NotSymmetricState).  For
    the first row that a gate refuses, the first gate refusing it raises.
    """
    return _gated_evidence(np.asarray(rhos, dtype=complex), triplet=True)


def _gated_evidence(rhos: np.ndarray, triplet: bool,
                    form: BlochForm | None = None) -> EvidenceStack:
    """:func:`evidence_stack` of a complex stack, with its triplet gate only
    if ``triplet``: the ``invariants`` command reads that gate's mask once,
    with ``is_symmetric``, and evaluates only a row it accepts.

    Given the ``form`` whose matrix (``form.to_matrix()``) is the stack's
    one row, the invariants are ``makhlin_stack`` of the form's own arrays,
    with no Pauli decomposition, and the density-matrix and entry gates do
    not run: the matrix is Hermitian by construction, and the entry rule
    ran when the form was made.  Positivity and triplet support are gated
    as for any stack.
    """
    if form is None:
        s, r, t, gates = _decomposition(rhos)
        # A row that an earlier gate refuses is solved as I/4, so the solve
        # needs no gates of its own: the density-matrix rule bounds the
        # Hermiticity defect of the rest (the PT permutes the entries of
        # rho - rho^dag, so its defect is the state's), and the entry rule
        # bounds every entry far below the solve's overflow bound.
        solved = np.where(_refused(gates)[:, None, None], np.eye(4) / 4.0, rhos)
    else:
        s, r, t, gates, solved = form.s[None], form.r[None], form.t[None], [], rhos
    spectra = qmat._solve(np.stack([solved, partial_transpose(solved)], axis=1))
    support = [_triplet_gate(rhos)] if triplet else []
    _raise_first([*gates, _psd_gate(spectra[:, 0, 0]), *support])
    return _evidence(makhlin_stack(s, r, t), spectra[:, 1, 0])


def _xform_evidence(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> EvidenceStack:
    """:func:`evidence_stack` of the X-pattern states of k parameter sets
    (``(k,)`` arrays), with no gate of its own: the caller has passed every
    row through ``XForm``'s rule.

    That rule is the pattern's form of the density-matrix and positivity
    rules (unit trace within TRACE, the closed-form minimum eigenvalue at
    least PSD_FLOOR), and ``xform_matrices`` builds Hermitian,
    triplet-supported matrices whose entries are the parameters.  So the
    states' own spectra are not solved, only their partial transposes,
    and the invariants are the pattern's closed forms
    (``invariants.makhlin_xform_stack``), with no Pauli decomposition and
    no contraction.  The PT minimum is ``evidence_stack``'s bit for bit;
    the invariants are within 8 eps times their scale of the exact
    invariants of the matrix (``tests/exact_oracle.py``).
    """
    pt_min = qmat.hermitian_eigenvalues(partial_transpose(xform_matrices(a, b, c, d)))[:, 0]
    return _evidence(makhlin_xform_stack(a, b, c, d), pt_min)


def _evidence(inv: np.ndarray, pt_min: np.ndarray) -> EvidenceStack:
    """The ``EvidenceStack`` of k states from their ``(k, 18)`` invariants
    and ``(k,)`` PT minimum eigenvalues: the criteria rule."""
    values, fired, fallback = _criteria_columns(inv[:, 3], inv[:, 11], inv[:, 13])
    return EvidenceStack(
        invariants=inv,
        ppt_min_eigenvalue=pt_min,
        i12_minus_i4sq=values[:, 2],
        criteria=fired,
        i4_zero_fallback=fallback,
    )


def _classification_error(result: Classification) -> InconsistentClassification | None:
    """The InconsistentClassification of a verdict whose fired criteria
    contradict a PT-separable verdict, or None."""
    if result.criteria_fired and result.verdict == VERDICT_SEPARABLE:
        return InconsistentClassification(
            f"criteria {sorted(result.criteria_fired)} fired but PT min eigenvalue is "
            f"{result.ppt_min_eigenvalue:.3e}; state sits inside the tolerance band"
        )
    return None


def classify(rho: np.ndarray | XForm | BlochForm) -> Classification:
    """Full verdict for a symmetric state, a matrix, an ``XForm`` or a
    ``BlochForm``: PT ground truth plus fired criteria.

    Reads the :func:`evidence` of ``rho``, whose gates validate a matrix
    as a state and refuse non-symmetric inputs with NotSymmetricState (the
    invariant criteria are defined only on the triplet subspace).  If a
    criterion fires while the PT verdict is separable (minimum eigenvalue
    >= -SIGN_ZERO_BAND, so a PT minimum inside the zero band counts too),
    the contradiction is surfaced as InconsistentClassification rather
    than silently resolved.
    """
    result = evidence(rho)
    error = _classification_error(result)
    if error is not None:
        raise error
    return result


def sample_separable_symmetric(
    n_terms: int, rng: np.random.Generator
) -> tuple[np.ndarray, SeparableEnsemble]:
    """Draw a random separable symmetric state as an explicit convex mixture.

    Weights come from a flat simplex (normalized exponentials); Bloch
    vectors are uniform in the unit ball (uniform direction, cube-root
    radius).  The returned state satisfies s = sum_w p_w s_w and
    t_ij = sum_w p_w s_wi s_wj by construction.  The ensemble is the one
    row of :func:`_ensemble_draws` for ``[n_terms]``.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    weights, vectors = _ensemble_draws([n_terms], rng)
    ensemble = SeparableEnsemble(weights=weights[0], bloch_vectors=vectors[0])
    return ensemble.to_state(), ensemble


def _ensemble_draws(lengths, rng: np.random.Generator) -> tuple:
    """The ensembles of ``lengths`` (k,) :func:`sample_separable_symmetric`
    draws, unchecked: ``(k, n)`` weights and ``(k, n, 3)`` Bloch vectors,
    each row padded with zeros to n = max(lengths) terms.

    Every term of every ensemble is drawn at once, in this order: the
    exponentials of the weights, the normals and then the uniforms of
    :func:`_ball_points`.  Each row's weights are normalized by their sum.
    """
    lengths = np.asarray(lengths)
    total = lengths.sum()
    exponentials = rng.exponential(size=total)
    normals = rng.normal(size=(total, 3))
    uniforms = rng.uniform(size=total)
    terms = np.arange(lengths.max(initial=0)) < lengths[:, None]
    weights = np.zeros(terms.shape)
    weights[terms] = exponentials
    vectors = np.zeros(terms.shape + (3,))
    vectors[terms] = _ball_points(normals, uniforms)
    return weights / weights.sum(axis=1, keepdims=True), vectors


def _ball_points(normals: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Points uniform in the unit ball: the ``(..., 3)`` normals' directions
    times the cube roots of the ``(...)`` uniforms."""
    directions = normals / np.linalg.norm(normals, axis=-1)[..., None]
    return directions * (uniforms ** (1.0 / 3.0))[..., None]


def xform_equivalence_check(x: XForm) -> bool:
    """Sign equivalence between the PT spectrum and the invariant criteria:
    the one-row case of :func:`xform_equivalence_stack`.

    For the special pattern, I12 - I4^2 = (a-d)^2 ((1-4c) - (a-d)^2) and
    I14 = 8 (a-d)^2 (c+|b|) lambda_3, so each criterion sign must agree
    with the matching eigenvalue sign.  The strictly positive prefactors
    are divided out before the zero-band comparison so both sides are
    compared on the same scale, against SIGN_ZERO_BAND.

    Raises I4Zero when I4 = (a-d)^2 is inside that band
    (``invariants._i4_zero_gate``): both invariants then vanish identically
    and the comparison carries no information.  A vanishing c + |b| is
    harmless (lambda_3 is inside the band too).
    """
    a, b, c, d = x._columns()
    _raise_first([_i4_zero_gate((a - d) * (a - d))])
    return bool(xform_equivalence_stack(a, b, c, d)[0])


def _band_signs_agree(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether u and v fall on the same side of the zero band, or both in it."""
    return (((u > SIGN_ZERO_BAND) == (v > SIGN_ZERO_BAND))
            & ((u < -SIGN_ZERO_BAND) == (v < -SIGN_ZERO_BAND)))


def xform_equivalence_stack(
        a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """:func:`xform_equivalence_check` of k special-pattern states, from their
    ``(k,)`` parameter arrays, as a ``(k,)`` mask.

    I4, I12 and I14 are the columns of :func:`makhlin_xform_stack`, the
    closed forms the sweep prints, so the check holds the sweep's numbers
    to the PT spectrum.  The parameters are not checked.  A row whose
    I4 = (a-d)^2 is inside the zero band, where the one-state check raises
    I4Zero, carries no information; its entry is meaningless.
    """
    i4, i12, i14 = makhlin_xform_stack(a, b, c, d)[:, [3, 11, 13]].T
    ab = _abs(b)
    c_plus_b = c + ab
    with np.errstate(divide="ignore", invalid="ignore"):  # the rows that carry no information
        lhs12 = (i12 - i4 * i4) / i4
        lhs14 = i14 / (8.0 * i4 * c_plus_b)
    ok12 = _band_signs_agree(lhs12, (1.0 - 4.0 * c) - i4)
    # Where c + |b| is inside the band, I14 and lambda_3 both are.
    ok14 = (c_plus_b <= SIGN_ZERO_BAND) | _band_signs_agree(lhs14, c - ab)
    return ok12 & ok14

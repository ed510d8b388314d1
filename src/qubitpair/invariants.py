"""The 18 local-unitary polynomial invariants of a two-qubit state.

The complete set is Makhlin's: polynomials in (s, r, T) unchanged under
independent single-qubit rotations.  Exchange-symmetric states need only
the subset (I1, I2, I4, I10, I12, I14); states with the special
four-parameter pattern admit closed forms for that subset.

Each epsilon triple is a running sum of its 6 nonzero Levi-Civita terms,
and I14 one of its 36 nonzero double-epsilon terms, in the order an
``einsum`` against the (3, 3, 3) tensor adds them; the tests check each
of them against such an einsum.

``makhlin_stack`` is the one contraction: it evaluates ``k`` Bloch forms
at once, from ``s``, ``r`` ``(k, 3)`` and ``t`` ``(k, 3, 3)`` to a
``(k, 18)`` array.  ``makhlin_all`` is its one-form case.  A symmetric
form is one whose matrix passes the triplet-support rule
(``states._triplet_gate``, raising NotSymmetricState):
``separability.evidence_stack`` runs it on a stack of states and
``symmetric_six`` on the matrix of one form.  The I4-zero rule is one gate
too, ``_i4_zero_gate``, raising I4Zero wherever the criteria or the
X-pattern relations would divide by or read a vanishing I4.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import I4Zero, NoRealSpectrum
from .states import BlochForm, XForm, _form_matrix, _raise_first, _triplet_gate
from .tolerances import SIGN_ZERO_BAND, matches

# Levi-Civita tensor eps[i, j, k].
_EPS = np.zeros((3, 3, 3))
_EPS[0, 1, 2] = _EPS[1, 2, 0] = _EPS[2, 0, 1] = 1.0
_EPS[0, 2, 1] = _EPS[2, 1, 0] = _EPS[1, 0, 2] = -1.0
_EPS.setflags(write=False)


@dataclass(frozen=True)
class InvariantSet:
    """All 18 invariants, indexed as in the defining list."""

    i1: float
    i2: float
    i3: float
    i4: float
    i5: float
    i6: float
    i7: float
    i8: float
    i9: float
    i10: float
    i11: float
    i12: float
    i13: float
    i14: float
    i15: float
    i16: float
    i17: float
    i18: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)])


@dataclass(frozen=True)
class SymmetricSix:
    """The subset characterizing exchange-symmetric states."""

    i1: float
    i2: float
    i4: float
    i10: float
    i12: float
    i14: float

    @classmethod
    def from_full(cls, inv: "InvariantSet") -> "SymmetricSix":
        """Plain projection of the full set, without the triplet-support gate.

        Useful for SWAP-invariant states carrying singlet weight (e.g.
        separable mixtures with mixed single-qubit factors), where the
        sign criteria still apply but tr T = 1 does not hold.
        """
        return cls(i1=inv.i1, i2=inv.i2, i4=inv.i4, i10=inv.i10, i12=inv.i12, i14=inv.i14)

    def as_array(self) -> np.ndarray:
        return np.array([self.i1, self.i2, self.i4, self.i10, self.i12, self.i14])


def _det3(t):
    """Cofactor expansion along the first row; ``t[i, j]`` may be a stack of entries."""
    return (
        t[0, 0] * (t[1, 1] * t[2, 2] - t[1, 2] * t[2, 1])
        - t[0, 1] * (t[1, 0] * t[2, 2] - t[1, 2] * t[2, 0])
        + t[0, 2] * (t[1, 0] * t[2, 1] - t[1, 1] * t[2, 0])
    )


# The 36 nonzero terms eps_ijk eps_lmn s_i r_l t_jm t_kn of I14, in the
# (i, j, k, l, m, n) order in which the einsum "ijk,lmn,i,l,jm,kn->" sums
# them: their signs, and indices into s, r and the flattened T.
_EPS_EPS = np.multiply.outer(_EPS, _EPS)
_I14_SIGN = _EPS_EPS[np.nonzero(_EPS_EPS)]
_I14_I, _I14_J, _I14_K, _I14_L, _I14_M, _I14_N = np.nonzero(_EPS_EPS)
_I14_JM, _I14_KN = 3 * _I14_J + _I14_M, 3 * _I14_K + _I14_N

# Slots of the (k, 10, 3) array of vectors the dot products and epsilon
# triples read: s, r, and products of T T^T, T^T T, T and T^T with them.
_S, _R, _TT_S, _TT2_S, _TTR_R, _TTR2_R, _T_R, _TT_T_R, _TR_S, _TTR_TR_S = range(10)
# Invariant number: u . v
_DOTS = {
    4: (_S, _S), 5: (_S, _TT_S), 6: (_S, _TT2_S),
    7: (_R, _R), 8: (_R, _TTR_R), 9: (_R, _TTR2_R),
    12: (_S, _T_R), 13: (_S, _TT_T_R),
}
# Invariant number: eps_ijk u_i v_j w_k
_TRIPLES = {
    10: (_S, _TT_S, _TT2_S), 11: (_R, _TTR_R, _TTR2_R), 15: (_S, _TT_S, _T_R),
    16: (_TR_S, _R, _TTR_R), 17: (_TR_S, _TTR_TR_S, _R), 18: (_S, _T_R, _TT_T_R),
}
_DOT_COLUMNS = np.array(list(_DOTS)) - 1
_DOT_U, _DOT_V = np.array(list(_DOTS.values())).T
_TRIPLE_COLUMNS = np.array(list(_TRIPLES)) - 1
# The einsum "ijk,...i,...j,...k->..." of a triple adds the products
# ((eps_ijk u_i) v_j) w_k in (i, j, k) order to a +0.0.  Its 21 zero terms
# leave such a sum as it is, and the 6 others are never all -0.0 (the sign
# bits of the six products add up to an odd number), so a running sum of
# the 6 from the first one is the same: signs (6,) and indices (6, 6) into
# the flattened (k, 30) vectors.
_EPS_I, _EPS_J, _EPS_K = np.nonzero(_EPS)
_TRIPLE_SIGN = _EPS[_EPS_I, _EPS_J, _EPS_K]
_TRIPLE_U, _TRIPLE_V, _TRIPLE_W = (
    3 * slots[:, None] + axis
    for slots, axis in zip(np.array(list(_TRIPLES.values())).T, (_EPS_I, _EPS_J, _EPS_K)))

def _mv(m, v):
    """Each matrix of a (k, 3, 3) stack times the matching row of a (k, 3) stack."""
    return (m @ v[:, :, None])[:, :, 0]


def makhlin_stack(s: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The 18 invariants of k Bloch forms as a ``(k, 18)`` array.

    ``s`` and ``r`` have shape ``(k, 3)``, ``t`` has shape ``(k, 3, 3)``.
    Column i holds I(i+1).

    The s-side quadratic is T T^T and the r-side quadratic is T^T T,
    matching how the two sides transform (s with O1, r with O2,
    T -> O1 T O2^T); every entry is then invariant under local unitaries
    to relative 1e-9 (absolute floor 1e-12).

    Each row is computed as if alone: numpy sends every matrix and vector
    product of the stack to the kernel the 2-D product of that size uses,
    so a row does not depend on the stack around it, and I14 adds its 36
    terms in the order of the einsum ``"ijk,lmn,i,l,jm,kn->"``.  The 8
    dot products are one batched matmul, and each epsilon triple is a
    running sum of its 6 terms in the order of the einsum ``"ijk,i,j,k->"``
    (+0.0 when every term is a zero, as there).  A contraction reassociated
    to save work (``I14 = 2 s^T cof(T) r``, say) changes the last bit on a
    large share of the model-family states, and with it the 17-digit sweep
    output.
    """
    s, r, t = (np.ascontiguousarray(a, dtype=float) for a in (s, r, t))
    t_t = t.swapaxes(1, 2)
    tt = t @ t_t          # transforms with O1 on both sides
    ttr = t_t @ t         # transforms with O2 on both sides
    v = np.empty((len(s), 10, 3))
    v[:, _S], v[:, _R] = s, r
    v[:, _TT_S] = _mv(tt, s)
    v[:, _TT2_S] = _mv(tt, v[:, _TT_S])
    v[:, _TTR_R] = _mv(ttr, r)
    v[:, _TTR2_R] = _mv(ttr, v[:, _TTR_R])
    v[:, _T_R] = _mv(t, r)
    v[:, _TT_T_R] = _mv(tt, v[:, _T_R])
    v[:, _TR_S] = _mv(t_t, s)
    v[:, _TTR_TR_S] = _mv(ttr, v[:, _TR_S])

    inv = np.empty((len(s), 18))
    inv[:, 0] = _det3(t.transpose(1, 2, 0))
    inv[:, 1] = (t * t).reshape(-1, 9).sum(axis=1)
    inv[:, 2] = (ttr * ttr).reshape(-1, 9).sum(axis=1)
    u_dot, v_dot = (v.take(slots, axis=1) for slots in (_DOT_U, _DOT_V))
    inv[:, _DOT_COLUMNS] = (u_dot[:, :, None, :] @ v_dot[:, :, :, None])[:, :, 0, 0]
    flat = v.reshape(-1, 30)
    triples = (_TRIPLE_SIGN * flat.take(_TRIPLE_U, axis=1) * flat.take(_TRIPLE_V, axis=1)
               * flat.take(_TRIPLE_W, axis=1))
    inv[:, _TRIPLE_COLUMNS] = np.add.accumulate(triples, axis=2)[:, :, -1]
    flat_t = t.reshape(-1, 9)
    terms = (_I14_SIGN * s.take(_I14_I, axis=1) * r.take(_I14_L, axis=1)
             * flat_t.take(_I14_JM, axis=1) * flat_t.take(_I14_KN, axis=1))
    # A running sum term by term, as einsum adds them; a pairwise sum
    # (np.sum) would round differently.
    inv[:, 13] = np.add.accumulate(terms, axis=1)[:, -1]
    return inv


def makhlin_all(form: BlochForm) -> InvariantSet:
    """Evaluate all 18 invariants of a Bloch form: the one-form case of
    :func:`makhlin_stack`."""
    return InvariantSet(*makhlin_stack(form.s[None], form.r[None], form.t[None])[0].tolist())


def _i4_zero_gate(i4: np.ndarray) -> tuple:
    """The I4-zero rule on a ``(k,)`` column of I4 as a gate in
    ``_raise_first``'s form: |I4| <= SIGN_ZERO_BAND, where the sign
    criteria and the X-pattern relations carry no information, raising I4Zero."""
    return np.abs(i4) <= SIGN_ZERO_BAND, lambda j: I4Zero(
        f"I4 = {i4[j]:.3e} is inside the zero band {SIGN_ZERO_BAND:.1e}")


def symmetric_six(form: BlochForm) -> SymmetricSix:
    """Project the full set onto (I1, I2, I4, I10, I12, I14).

    Raises NotSymmetricState unless the form's matrix is supported on the
    triplet subspace: the triplet gate of ``separability.evidence_stack``,
    on one row.  The matrix is not checked for positivity.  The returned
    entries agree with :func:`makhlin_all` exactly.
    """
    _raise_first([_triplet_gate(_form_matrix(form)[None])])
    return SymmetricSix.from_full(makhlin_all(form))


def i10_diagonal_frame(t_eigs, s_diag) -> float:
    """I10 in the frame where T is diagonal.

    With T = diag(t1, t2, t3) and spin components (s1, s2, s3) in that
    frame,

        I10 = (t1^4 (t3^2 - t2^2) + t2^4 (t1^2 - t3^2)
               + t3^4 (t2^2 - t1^2)) s1 s2 s3,

    which fixes the relative signs of the spin components; it vanishes
    whenever a component is zero or the spectrum of T is degenerate.
    """
    t1, t2, t3 = (float(v) for v in t_eigs)
    s1, s2, s3 = (float(v) for v in s_diag)
    bracket = (
        t1 ** 4 * (t3 ** 2 - t2 ** 2)
        + t2 ** 4 * (t1 ** 2 - t3 ** 2)
        + t3 ** 4 * (t2 ** 2 - t1 ** 2)
    )
    return bracket * s1 * s2 * s3


def xform_invariants(x: XForm) -> SymmetricSix:
    """Closed forms of the symmetric subset for the special pattern.

    I1  = (4c^2 - 4|b|^2)(1 - 4c)
    I2  = (2c + 2|b|)^2 + (2c - 2|b|)^2 + (1 - 4c)^2
    I4  = (a - d)^2
    I10 = 0
    I12 = (a - d)^2 (1 - 4c)
    I14 = 8 (a - d)^2 (c^2 - |b|^2)
    """
    ab = abs(x.b)
    c = x.c
    i4, i12, i14 = _xform_criteria_invariants(x.a - x.d, ab, c)
    return SymmetricSix(
        i1=(4.0 * c * c - 4.0 * ab * ab) * (1.0 - 4.0 * c),
        i2=(2.0 * c + 2.0 * ab) ** 2 + (2.0 * c - 2.0 * ab) ** 2 + (1.0 - 4.0 * c) ** 2,
        i4=i4,
        i10=0.0,
        i12=i12,
        i14=i14,
    )


def _xform_criteria_invariants(ad, ab, c) -> tuple:
    """The closed forms of (I4, I12, I14) from a - d, |b| and c, as
    :func:`xform_invariants` gives them: Python floats or ``(k,)`` arrays,
    with the same bits either way (products and differences only)."""
    return ad * ad, ad * ad * (1.0 - 4.0 * c), 8.0 * ad * ad * (c * c - ab * ab)


def xform_relation_check(six: SymmetricSix) -> bool:
    """Verify I1 = I14 I12 / (2 I4^2) and I2 = ((I4-I12)^2 - I4 I14 + I12^2) / I4^2.

    These hold identically on special-pattern states with non-vanishing
    I4, to SIGN_ZERO_BAND under ``tolerances.matches``.  Raises I4Zero
    when |I4| is inside that band; callers then fall back to the (I1, I2)
    pair.
    """
    _raise_first([_i4_zero_gate(np.array([six.i4], dtype=float))])
    i4sq = six.i4 * six.i4
    i1_pred = six.i14 * six.i12 / (2.0 * i4sq)
    i2_pred = ((six.i4 - six.i12) ** 2 - six.i4 * six.i14 + six.i12 ** 2) / i4sq
    return (matches(six.i1, i1_pred, SIGN_ZERO_BAND)
            and matches(six.i2, i2_pred, SIGN_ZERO_BAND))


def t_eigenvalues_from_invariants(i1: float, i2: float) -> np.ndarray:
    """Recover the correlation-matrix spectrum of a symmetric state from (I1, I2).

    For a unit-trace real symmetric T the eigenvalues are the roots of
    lambda^3 - lambda^2 + p lambda - I1 with p = (1 - I2) / 2.  Solved by
    the trigonometric method; returns the triple sorted descending.

    Raises
    ------
    NoRealSpectrum
        If the cubic discriminant is below -1e-10 (no unit-trace real
        symmetric matrix realizes these values), or is not a number: an
        input is not finite, or the discriminant's cube or square
        overflows.
    """
    # As Python floats, an overflowing power raises OverflowError and inf - inf
    # is NaN without a numpy warning; the refusal below reads both as NaN.
    i1, i2 = float(i1), float(i2)
    p = (1.0 - i2) / 2.0
    # Depressed cubic y^3 + P y + Q with lambda = y + 1/3.
    big_p = p - 1.0 / 3.0
    big_q = -2.0 / 27.0 + p / 3.0 - i1
    try:
        disc = -4.0 * big_p ** 3 - 27.0 * big_q ** 2
    except OverflowError:
        disc = np.nan
    if not disc >= -1e-10:
        raise NoRealSpectrum(
            f"cubic discriminant {disc:.3e} is not >= -1e-10; (I1, I2) = ({i1:.6g}, {i2:.6g})"
        )
    if big_p >= 0.0:
        # Discriminant >= 0 forces P <= 0 up to roundoff: triple root.
        roots = np.full(3, 1.0 / 3.0)
        return roots
    m = 2.0 * np.sqrt(-big_p / 3.0)
    arg = 3.0 * big_q / (big_p * m)
    arg = min(1.0, max(-1.0, arg))
    theta = np.arccos(arg) / 3.0
    y = m * np.cos(theta - 2.0 * np.pi * np.arange(3) / 3.0)
    return np.sort(y + 1.0 / 3.0)[::-1]

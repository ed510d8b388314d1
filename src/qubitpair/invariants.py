"""The 18 local-unitary polynomial invariants of a two-qubit state.

The complete set is Makhlin's: polynomials in (s, r, T) unchanged under
independent single-qubit rotations.  Exchange-symmetric states need only
the subset (I1, I2, I4, I10, I12, I14); states with the special
four-parameter pattern admit closed forms for that subset.

Epsilon-tensor contractions are single ``einsum`` calls against the
(3, 3, 3) Levi-Civita tensor; the tests check each of them against an
explicit loop over an independently built epsilon.

``makhlin_all`` evaluates one ``BlochForm``; ``makhlin_stack`` evaluates
``k`` of them at once, from ``s``, ``r`` ``(k, 3)`` and ``t`` ``(k, 3, 3)``
to a ``(k, 18)`` array, bit for bit equal to ``makhlin_all`` row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import I4Zero, NoRealSpectrum, NotSymmetricState
from .states import BlochForm, XForm
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
        """Plain projection of the full set, without the exchange-constraint gate.

        Useful for SWAP-invariant states carrying singlet weight (e.g.
        separable mixtures with mixed single-qubit factors), where the
        sign criteria still apply but tr T = 1 does not hold.
        """
        return cls(i1=inv.i1, i2=inv.i2, i4=inv.i4, i10=inv.i10, i12=inv.i12, i14=inv.i14)

    def as_array(self) -> np.ndarray:
        return np.array([self.i1, self.i2, self.i4, self.i10, self.i12, self.i14])


def _eps_triple(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """eps_ijk u_i v_j w_k."""
    return float(np.einsum("ijk,i,j,k->", _EPS, u, v, w))


def _det3(t):
    """Cofactor expansion along the first row; ``t[i, j]`` may be a stack of entries."""
    return (
        t[0, 0] * (t[1, 1] * t[2, 2] - t[1, 2] * t[2, 1])
        - t[0, 1] * (t[1, 0] * t[2, 2] - t[1, 2] * t[2, 0])
        + t[0, 2] * (t[1, 0] * t[2, 1] - t[1, 1] * t[2, 0])
    )


def makhlin_all(form: BlochForm) -> InvariantSet:
    """Evaluate all 18 invariants of a Bloch form.

    The s-side quadratic is T T^T and the r-side quadratic is T^T T,
    matching how the two sides transform (s with O1, r with O2,
    T -> O1 T O2^T); every entry is then invariant under local unitaries
    to relative 1e-9 (absolute floor 1e-12).
    """
    s, r, t = form.s, form.r, form.t
    tt = t @ t.T          # transforms with O1 on both sides
    ttr = t.T @ t         # transforms with O2 on both sides
    tt_s = tt @ s
    tt2_s = tt @ tt_s
    ttr_r = ttr @ r
    ttr2_r = ttr @ ttr_r
    t_r = t @ r
    tT_s = t.T @ s

    return InvariantSet(
        i1=float(_det3(t)),
        i2=float(np.sum(t * t)),
        i3=float(np.sum(ttr * ttr)),
        i4=float(s @ s),
        i5=float(s @ tt_s),
        i6=float(s @ tt2_s),
        i7=float(r @ r),
        i8=float(r @ ttr_r),
        i9=float(r @ ttr2_r),
        i10=_eps_triple(s, tt_s, tt2_s),
        i11=_eps_triple(r, ttr_r, ttr2_r),
        i12=float(s @ t_r),
        i13=float(s @ (tt @ t_r)),
        i14=float(np.einsum("ijk,lmn,i,l,jm,kn->", _EPS, _EPS, s, r, t, t)),
        i15=_eps_triple(s, tt_s, t_r),
        i16=_eps_triple(tT_s, r, ttr_r),
        i17=_eps_triple(tT_s, ttr @ tT_s, r),
        i18=_eps_triple(s, t_r, tt @ t_r),
    )


# The 36 nonzero terms of eps_ijk eps_lmn: their signs and the index arrays
# i, j, k, l, m, n, in the (i, j, k, l, m, n) order in which makhlin_all's
# einsum sums I14.
_EPS_EPS = np.multiply.outer(_EPS, _EPS)
_I14_INDEX = np.nonzero(_EPS_EPS)
_I14_SIGN = _EPS_EPS[_I14_INDEX]


def _eps_triple_stack(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """eps_ijk u_i v_j w_k for each row of (k, 3) stacks."""
    return np.einsum("ijk,...i,...j,...k->...", _EPS, u, v, w)


def makhlin_stack(s: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The 18 invariants of k Bloch forms as a ``(k, 18)`` array.

    ``s`` and ``r`` have shape ``(k, 3)``, ``t`` has shape ``(k, 3, 3)``.

    Row j equals ``makhlin_all(BlochForm(s[j], r[j], t[j])).as_array()``
    bit for bit, including the sign of zero: every product keeps
    ``makhlin_all``'s operands, association and memory layout, so numpy
    sends each matrix of the stack to the kernel the 2-D call uses, and
    I14 adds its 36 terms in that einsum's order.  A contraction
    reassociated to save work (``I14 = 2 s^T cof(T) r``, say) changes
    the last bit on a large share of the model-family states.
    """
    s, r, t = (np.ascontiguousarray(a, dtype=float) for a in (s, r, t))
    t_t = t.swapaxes(1, 2)

    def mv(m, v):
        return (m @ v[:, :, None])[:, :, 0]

    def dot(u, v):
        return (u[:, None, :] @ v[:, :, None])[:, 0, 0]

    tt = t @ t_t
    ttr = t_t @ t
    tt_s = mv(tt, s)
    tt2_s = mv(tt, tt_s)
    ttr_r = mv(ttr, r)
    ttr2_r = mv(ttr, ttr_r)
    t_r = mv(t, r)
    tT_s = mv(t_t, s)
    tt_t_r = mv(tt, t_r)
    i, j, k, l, m, n = _I14_INDEX
    terms = _I14_SIGN * s[:, i] * r[:, l] * t[:, j, m] * t[:, k, n]
    # A running sum from 0.0, term by term, as einsum adds them; a pairwise
    # sum (np.sum) would round differently.
    i14 = np.add.accumulate(np.hstack([np.zeros((len(s), 1)), terms]), axis=1)[:, -1]
    return np.stack([
        _det3(np.moveaxis(t, 0, -1)),
        (t * t).reshape(-1, 9).sum(axis=1),
        (ttr * ttr).reshape(-1, 9).sum(axis=1),
        dot(s, s),
        dot(s, tt_s),
        dot(s, tt2_s),
        dot(r, r),
        dot(r, ttr_r),
        dot(r, ttr2_r),
        _eps_triple_stack(s, tt_s, tt2_s),
        _eps_triple_stack(r, ttr_r, ttr2_r),
        dot(s, t_r),
        dot(s, tt_t_r),
        i14,
        _eps_triple_stack(s, tt_s, t_r),
        _eps_triple_stack(tT_s, r, ttr_r),
        _eps_triple_stack(tT_s, mv(ttr, tT_s), r),
        _eps_triple_stack(s, t_r, tt_t_r),
    ], axis=1)


def symmetric_invariants(form: BlochForm) -> InvariantSet:
    """All 18 invariants of a form that meets the exchange constraints.

    Raises NotSymmetricState unless r = s, T = T^T and tr T = 1 hold
    within SYMMETRIC_CONSTRAINTS.
    """
    if not form.is_symmetric_form():
        raise NotSymmetricState(
            "Bloch form violates the exchange constraints (r = s, T = T^T, tr T = 1)"
        )
    return makhlin_all(form)


def symmetric_six(form: BlochForm) -> SymmetricSix:
    """Project the full set onto (I1, I2, I4, I10, I12, I14).

    Gated as :func:`symmetric_invariants`; the returned entries agree with
    :func:`makhlin_all` exactly.
    """
    return SymmetricSix.from_full(symmetric_invariants(form))


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
    ad = x.a - x.d
    return SymmetricSix(
        i1=(4.0 * c * c - 4.0 * ab * ab) * (1.0 - 4.0 * c),
        i2=(2.0 * c + 2.0 * ab) ** 2 + (2.0 * c - 2.0 * ab) ** 2 + (1.0 - 4.0 * c) ** 2,
        i4=ad * ad,
        i10=0.0,
        i12=ad * ad * (1.0 - 4.0 * c),
        i14=8.0 * ad * ad * (c * c - ab * ab),
    )


def xform_relation_check(six: SymmetricSix) -> bool:
    """Verify I1 = I14 I12 / (2 I4^2) and I2 = ((I4-I12)^2 - I4 I14 + I12^2) / I4^2.

    These hold identically on special-pattern states with non-vanishing
    I4, to SIGN_ZERO_BAND under ``tolerances.matches``.  Raises I4Zero
    when |I4| is inside that band; callers then fall back to the (I1, I2)
    pair.
    """
    if abs(six.i4) <= SIGN_ZERO_BAND:
        raise I4Zero(f"I4 = {six.i4:.3e} is inside the zero band {SIGN_ZERO_BAND:.1e}")
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
        symmetric matrix realizes these values).
    """
    p = (1.0 - i2) / 2.0
    # Depressed cubic y^3 + P y + Q with lambda = y + 1/3.
    big_p = p - 1.0 / 3.0
    big_q = -2.0 / 27.0 + p / 3.0 - i1
    disc = -4.0 * big_p ** 3 - 27.0 * big_q ** 2
    if disc < -1e-10:
        raise NoRealSpectrum(
            f"cubic discriminant {disc:.3e} < -1e-10; (I1, I2) = ({i1:.6g}, {i2:.6g})"
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

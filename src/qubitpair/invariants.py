"""The 18 local-unitary polynomial invariants of a two-qubit state.

The complete set is Makhlin's: polynomials in (s, r, T) unchanged under
independent single-qubit rotations.  Exchange-symmetric states need only
the subset (I1, I2, I4, I10, I12, I14); states with the special
four-parameter (X) pattern admit closed forms for all 18.

Each epsilon triple eps_ijk u_i v_j w_k is written u . (v x w), I1 = det
T being the triple of the rows of T, and I14 = eps_ijk eps_lmn s_i r_l t_jm t_kn is written 2 s . (cof(T) r), the
rows of the cofactor matrix being cross products of the rows of T.  The
accuracy contract is a distance from the exact value, not a bit pattern:
every entry lies within 12 eps times its scale of the exact invariant of
the float (s, r, T) it is given, the scale being the same polynomial
evaluated on absolute values.  ``tests/exact_oracle.py`` holds the exact
rational values, the reason for the bound and a seeded record of the
worst errors.

``makhlin_stack`` is the one contraction: it evaluates ``k`` Bloch forms
at once, from ``s``, ``r`` ``(k, 3)`` and ``t`` ``(k, 3, 3)`` to a
``(k, 18)`` array.  ``makhlin_all`` is its one-form case.
``makhlin_xform_stack`` gives the same array for k X-pattern matrices
straight from their parameters, as short products of the Bloch entries,
with no Pauli decomposition and no contraction; the sweep reads it.  Its
contract is a distance from the exact invariants of the matrix itself,
within 8 eps times the same polynomial on the absolute matrix entries.
``xform_invariants`` is its one-row symmetric six, and
``separability.xform_equivalence_stack`` reads its I4, I12 and I14
(``_xform_z_columns``, which it computes them with), so
every X-pattern route reads one closed form; the paper's printed
unit-trace forms are its documentation and an exact test.  A symmetric
form is one whose matrix passes the triplet-support rule
(``states._triplet_gate``, raising NotSymmetricState):
``separability.evidence_stack`` runs it on a stack of states and
``symmetric_six`` on the matrix of one form.  The I4-zero rule is one gate
too, ``_i4_zero_gate``, raising I4Zero wherever the criteria or the
X-pattern relations would divide by or read a vanishing I4.  Both gates
raise through ``errors._raise_first``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import I4Zero, NoRealSpectrum, _raise_first
from .states import BlochForm, XForm, _triplet_gate
from .tolerances import REL_SWITCH, SIGN_ZERO_BAND

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


# Slots of the (k, 13, 3) array of vectors the dot and cross products
# read: s, r, products of T T^T, T^T T, T and T^T with them, and the rows
# of T.
(_S, _R, _TT_S, _TT2_S, _TTR_R, _TTR2_R, _T_R, _TT_T_R, _TR_S, _TTR_TR_S,
 _T0, _T1, _T2) = range(13)
# Invariant number: u . v
_DOTS = {
    4: (_S, _S), 5: (_S, _TT_S), 6: (_S, _TT2_S),
    7: (_R, _R), 8: (_R, _TTR_R), 9: (_R, _TTR2_R),
    12: (_S, _T_R), 13: (_S, _TT_T_R),
}
# Invariant number: eps_ijk u_i v_j w_k = u . (v x w); I1 = det T is the
# triple of the rows of T.
_TRIPLES = {
    1: (_T0, _T1, _T2), 10: (_S, _TT_S, _TT2_S), 11: (_R, _TTR_R, _TTR2_R), 15: (_S, _TT_S, _T_R),
    16: (_TR_S, _R, _TTR_R), 17: (_TR_S, _TTR_TR_S, _R), 18: (_S, _T_R, _TT_T_R),
}
_DOT_COLUMNS = np.array(list(_DOTS)) - 1
_DOT_U, _DOT_V = np.array(list(_DOTS.values())).T
_TRIPLE_COLUMNS = np.array(list(_TRIPLES)) - 1
# The triples u . (v x w) computed: the seven above, then the entries
# (cof(T) r)_i = r . (T_(i+1) x T_(i+2)) that I14 = 2 s . (cof(T) r) reads.
_TRIPLE_U, _TRIPLE_V, _TRIPLE_W = np.array(
    list(_TRIPLES.values()) + [(_R, _T1, _T2), (_R, _T2, _T0), (_R, _T0, _T1)]).T
# Component i of a cross product reads components i + 1 and i + 2 (mod 3).
_ROLL = np.array([1, 2, 0, 2, 0, 1])


def _mv(m, v):
    """Each matrix of a (k, 3, 3) stack times the matching row of a (k, 3) stack."""
    return (m @ v[:, :, None])[:, :, 0]


def _cross(v, w):
    """Cross products of 3-vectors along the last axis, entry by entry."""
    v, w = v.take(_ROLL, axis=-1), w.take(_ROLL, axis=-1)
    return v[..., :3] * w[..., 3:] - v[..., 3:] * w[..., :3]


def _dot(u, v):
    """Dot products of 3-vectors along the last axis, summed first to last
    entry by entry; the + 0.0 turns a -0.0 sum (every term -0.0) into +0.0."""
    p = u * v
    return p[..., 0] + p[..., 1] + p[..., 2] + 0.0


def makhlin_stack(s: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The 18 invariants of k Bloch forms as a ``(k, 18)`` array.

    ``s`` and ``r`` have shape ``(k, 3)``, ``t`` has shape ``(k, 3, 3)``.
    Column i holds I(i+1).

    The s-side quadratic is T T^T and the r-side quadratic is T^T T,
    matching how the two sides transform (s with O1, r with O2,
    T -> O1 T O2^T); every entry is then invariant under local unitaries
    to relative 1e-9 (absolute floor 1e-12).

    Accuracy: each entry is within 12 eps times its scale (the polynomial
    on absolute values) of the exact invariant of the given floats, the
    same bound for all 18 (``tests/exact_oracle.py``).  Each row is
    computed as if alone: numpy sends every matrix and vector product of
    the stack to the kernel the 2-D product of that size uses, and the
    epsilon triples and I14 are entrywise products and first-to-last sums,
    so a row does not depend on the stack around it.  A triple or I14 that
    is zero is +0.0.
    """
    s, r, t = (np.ascontiguousarray(a, dtype=float) for a in (s, r, t))
    t_t = t.swapaxes(1, 2)
    tt = t @ t_t          # transforms with O1 on both sides
    ttr = t_t @ t         # transforms with O2 on both sides
    v = np.empty((len(s), 13, 3))
    v[:, _S], v[:, _R], v[:, _T0:] = s, r, t
    v[:, _TT_S] = _mv(tt, s)
    v[:, _TT2_S] = _mv(tt, v[:, _TT_S])
    v[:, _TTR_R] = _mv(ttr, r)
    v[:, _TTR2_R] = _mv(ttr, v[:, _TTR_R])
    v[:, _T_R] = _mv(t, r)
    v[:, _TT_T_R] = _mv(tt, v[:, _T_R])
    v[:, _TR_S] = _mv(t_t, s)
    v[:, _TTR_TR_S] = _mv(ttr, v[:, _TR_S])

    inv = np.empty((len(s), 18))
    inv[:, 1] = (t * t).reshape(-1, 9).sum(axis=1)
    inv[:, 2] = (ttr * ttr).reshape(-1, 9).sum(axis=1)
    u_dot, v_dot = (v.take(slots, axis=1) for slots in (_DOT_U, _DOT_V))
    inv[:, _DOT_COLUMNS] = (u_dot[:, :, None, :] @ v_dot[:, :, :, None])[:, :, 0, 0]
    u_tri, v_tri, w_tri = (v.take(slots, axis=1) for slots in (_TRIPLE_U, _TRIPLE_V, _TRIPLE_W))
    triples = _dot(u_tri, _cross(v_tri, w_tri))
    inv[:, _TRIPLE_COLUMNS] = triples[:, :7]
    inv[:, 13] = 2.0 * _dot(s, triples[:, 7:])
    return inv


def makhlin_xform_stack(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The 18 invariants of k X-pattern matrices, from their ``(k,)``
    parameter arrays, as the ``(k, 18)`` array of :func:`makhlin_stack`.

    The matrix with diagonal (a, c, c, d), rho_12 = c and rho_03 = b has
    s = r = (0, 0, z) with z = a - d and T = M (+) t_zz, with
    M = [[T_xx, T_xy], [T_xy, T_yy]], T_xx = 2c + 2 Re b, T_yy = 2c - 2 Re b,
    T_xy = -2 Im b and t_zz = a + d - 2c.  With D = T_xx T_yy - T_xy T_xy:

        I1 = D t_zz,  I2 = T_xx^2 + T_yy^2 + 2 T_xy^2 + t_zz^2,
        I3 = (T_xx^2 + T_xy^2)^2 + (T_yy^2 + T_xy^2)^2
             + 2 T_xy^2 (T_xx + T_yy)^2 + t_zz^4,
        I4 = I7 = z^2,  I5 = I8 = z^2 t_zz^2,  I6 = I9 = z^2 t_zz^4,
        I12 = z^2 t_zz,  I13 = z^2 t_zz^3,  I14 = 2 z^2 D,

    and I10, I11 and I15-I18 are 0: every vector they read lies along z.
    The Bloch entries are formed from the matrix entries, t_zz not as
    1 - 4c, so these are the invariants of the given floats.  D is
    written T_xx T_yy - T_xy T_xy, not c^2 - |b|^2: on OAT, Re b = -c, so
    T_xx is exactly 0 and D keeps its relative accuracy.  Every square is
    a product.  The parameters are not checked, and every zero is +0.0.

    Accuracy: each entry is within 8 eps times its scale of the exact
    invariant of the matrix (``tests/exact_oracle.py``, the scale being
    the polynomial on the absolute matrix entries).
    """
    (z2, i12, i14), (t_xx, t_yy, t_xy, t_zz, det) = _xform_z_columns(a, b, c, d)
    xx, yy, xy, zz = t_xx * t_xx, t_yy * t_yy, t_xy * t_xy, t_zz * t_zz
    p, q, u = xx + xy, yy + xy, t_xx + t_yy
    inv = np.zeros((len(a), 18))
    inv[:, 0] = det * t_zz
    inv[:, 1] = xx + yy + 2.0 * xy + zz
    inv[:, 2] = p * p + q * q + 2.0 * xy * (u * u) + zz * zz
    inv[:, 3] = inv[:, 6] = z2
    inv[:, 4] = inv[:, 7] = z2 * zz
    inv[:, 5] = inv[:, 8] = z2 * (zz * zz)
    inv[:, 11] = i12
    inv[:, 12] = z2 * (zz * t_zz)
    inv[:, 13] = i14
    inv += 0.0
    return inv


def _xform_z_columns(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> tuple:
    """The columns I4, I12 and I14 of :func:`makhlin_xform_stack`, with its
    ``+ 0.0``, and the Bloch entries (T_xx, T_yy, T_xy, t_zz, D) its other
    columns read; ``separability.xform_equivalence_stack`` reads the three
    columns alone.  z^2 is never -0.0, so the I4 column is z^2 bit for bit
    and the other columns that read z^2 read it."""
    t_xx, t_yy, t_xy = 2.0 * c + 2.0 * b.real, 2.0 * c - 2.0 * b.real, -2.0 * b.imag
    t_zz, z = a + d - 2.0 * c, a - d
    det = t_xx * t_yy - t_xy * t_xy
    z2 = z * z
    return (z2 + 0.0, z2 * t_zz + 0.0, 2.0 * z2 * det + 0.0), (t_xx, t_yy, t_xy, t_zz, det)


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
    _raise_first([_triplet_gate(form.to_matrix()[None])])
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
    """The symmetric subset of a special-pattern state: the six of the
    one-row :func:`makhlin_xform_stack`, the closed forms the sweep reads.

    They are the invariants of the float matrix, within 8 eps of exact
    (``tests/exact_oracle.py``): the ``invariants`` command prints them
    beside the computed set, and they equal the sweep's cells of the same
    parameters bit for bit.  On the unit trace (t_zz = 1 - 4c) they are the
    paper's printed forms,

    I1  = (4c^2 - 4|b|^2)(1 - 4c)
    I2  = (2c + 2|b|)^2 + (2c - 2|b|)^2 + (1 - 4c)^2
    I4  = (a - d)^2
    I10 = 0
    I12 = (a - d)^2 (1 - 4c)
    I14 = 8 (a - d)^2 (c^2 - |b|^2),

    an identity that ``tests/test_invariants.py`` checks on exact
    rationals; evaluated as printed in floats, c^2 - |b|^2 would lose all
    relative accuracy on OAT, where Re b = -c.
    """
    return SymmetricSix.from_full(InvariantSet(*makhlin_xform_stack(*x._columns())[0].tolist()))


def xform_relation_check(six: SymmetricSix) -> bool:
    """Verify I1 = I14 I12 / (2 I4^2) and I2 = ((I4-I12)^2 - I4 I14 + I12^2) / I4^2.

    These hold identically on special-pattern states of unit trace with
    non-vanishing I4.  Each side is compared to SIGN_ZERO_BAND, relative to
    the larger magnitude when that exceeds REL_SWITCH and absolute below.
    Raises I4Zero when |I4| is inside that band; callers then fall back to
    the (I1, I2) pair.
    """
    _raise_first([_i4_zero_gate(np.array([six.i4], dtype=float))])
    i4sq = six.i4 * six.i4
    i1_pred = six.i14 * six.i12 / (2.0 * i4sq)
    gap = six.i4 - six.i12
    i2_pred = (gap * gap - six.i4 * six.i14 + six.i12 * six.i12) / i4sq

    def close(value, reference):
        scale = max(abs(value), abs(reference))
        return abs(value - reference) <= SIGN_ZERO_BAND * (scale if scale > REL_SWITCH else 1.0)

    return close(six.i1, i1_pred) and close(six.i2, i2_pred)


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

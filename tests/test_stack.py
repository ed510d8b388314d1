"""The stacked core: one Pauli decomposition, one contraction, one PT solve.

``evidence_stack`` gates a stack and evaluates it with one eigen solve,
one Pauli decomposition and one invariant contraction.  ``sweep``
evaluates its grid with ``_xform_evidence``: the same criteria without
the gates, one solve of the partial transposes only, since ``XForm``'s
rule has checked the grid, and the invariants from the X pattern's
closed forms, held to the exact rationals of ``exact_oracle``.
The self-test suites evaluate their draws with the same decomposition,
contraction and PT solve.  ``bloch_decompose``, ``makhlin_all`` and
``evidence`` are the one-row cases of ``bloch_decompose_stack``,
``makhlin_stack`` and ``evidence_stack``, so no scalar twin is left to
compare the stack with.  Instead it is pinned to frozen copies of the
scalar code it replaced: ``reference_bloch`` (the decomposition) and
``reference_makhlin`` (the contraction), bit for bit including the sign
of zero, and ``reference_evidence`` built from them.  Its refusals are
pinned to a table of the class and message each gate raised.
"""

import os
import re
import subprocess
import sys
import warnings
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import exact_oracle as eo
from qubitpair import cli, selftest
from qubitpair.errors import (
    I4Zero, InvalidDensityMatrix, NotPositive, NotSymmetricState, StateFileError,
)
from qubitpair.invariants import (
    InvariantSet, SymmetricSix, makhlin_all, makhlin_stack, makhlin_xform_stack, symmetric_six,
)
from qubitpair.models import dicke_pair, ising_pair, oat_pair, pair_parameters
from qubitpair.sampling import (
    hilbert_schmidt_states, random_density_matrix, random_symmetric_density_matrix, random_xform,
)
from qubitpair.separability import (
    CRITERIA,
    SeparableEnsemble,
    _xform_evidence,
    classify,
    evidence,
    evidence_stack,
    invariant_criteria,
    partial_transpose,
    ppt_check,
    sample_separable_symmetric,
    xform_equivalence_check,
    xform_equivalence_stack,
    xform_pt_eigenvalues,
    xform_pt_eigenvalues_stack,
)
from qubitpair.qmat import haar_su2
from qubitpair.states import (
    BlochForm, XForm, apply_local_unitary, assert_density_matrix, bloch_decompose,
    bloch_decompose_stack, is_symmetric, xform_matrices,
)
from qubitpair.stateio import read_state_file, write_state_file
from qubitpair.tolerances import INVARIANCE_ABS, INVARIANCE_REL, PAULI_BOUND, SIGN_ZERO_BAND

STACK_SIZE = 600

_SIGMA_0123 = np.array([
    [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]],
], dtype=complex)
_PAULI_BASIS = np.einsum("mab,ncd->mnacbd", _SIGMA_0123, _SIGMA_0123).reshape(4, 4, 4, 4)

Bloch = namedtuple("Bloch", "s r t")


def reference_bloch(rho):
    """``(s, r, t)`` of one ``(4, 4)`` state: the fifteen Pauli traces as one
    2-D einsum against the basis sigma_m (x) sigma_n, imaginary parts dropped.

    Frozen: the scalar decomposition as it was written before it became the
    one-row case of ``bloch_decompose_stack``, which must reproduce it bit
    for bit, sign of zero included.
    """
    c = np.einsum("ij,mnji->mn", np.asarray(rho, dtype=complex), _PAULI_BASIS).real
    # Copies, as BlochForm held them: a strided view can take another
    # matmul kernel in the contraction.
    return Bloch(s=np.array(c[1:, 0]), r=np.array(c[0, 1:]), t=np.array(c[1:, 1:]))


def reference_makhlin(form):
    """The 18 invariants of one Bloch form, computed with 2-D operands, and
    each epsilon triple u . (v x w) (I1 = det T among them) and I14 = 2 s .
    (cof(T) r) on Python floats, as a ``(18,)`` array.

    Frozen: ``makhlin_stack`` must reproduce it bit for bit, sign of zero
    included, because the sweep and self-test golden files were written
    with it.  The triples and I14 add their terms first to last, then
    +0.0, as the stack does.
    """
    s, r, t = form.s, form.r, form.t

    def cross(v, w):
        (v0, v1, v2), (w0, w1, w2) = np.asarray(v).tolist(), np.asarray(w).tolist()
        return [v1 * w2 - v2 * w1, v2 * w0 - v0 * w2, v0 * w1 - v1 * w0]

    def dot(u, v):
        (u0, u1, u2), (v0, v1, v2) = np.asarray(u).tolist(), np.asarray(v).tolist()
        return u0 * v0 + u1 * v1 + u2 * v2 + 0.0

    def triple(u, v, w):
        return dot(u, cross(v, w))

    # Row i of the cofactor matrix of T is T_(i+1) x T_(i+2).
    cof_r = [triple(r, t[(i + 1) % 3], t[(i + 2) % 3]) for i in range(3)]

    tt = t @ t.T
    ttr = t.T @ t
    tt_s = tt @ s
    tt2_s = tt @ tt_s
    ttr_r = ttr @ r
    ttr2_r = ttr @ ttr_r
    t_r = t @ r
    tT_s = t.T @ s
    return np.array([
        triple(t[0], t[1], t[2]),
        float(np.sum(t * t)),
        float(np.sum(ttr * ttr)),
        float(s @ s),
        float(s @ tt_s),
        float(s @ tt2_s),
        float(r @ r),
        float(r @ ttr_r),
        float(r @ ttr2_r),
        triple(s, tt_s, tt2_s),
        triple(r, ttr_r, ttr2_r),
        float(s @ t_r),
        float(s @ (tt @ t_r)),
        2.0 * dot(s, cof_r),
        triple(s, tt_s, t_r),
        triple(tT_s, r, ttr_r),
        triple(tT_s, ttr @ tT_s, r),
        triple(s, t_r, tt @ t_r),
    ])


def assert_bits_equal(got, want):
    """Equal values and equal sign bits (so -0.0 differs from 0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def dense_states(rng, k):
    return np.array([random_density_matrix(rng) for _ in range(k)])


def separable_symmetric_states(rng, k):
    """Mixtures of pure product states |psi psi>: separable and triplet-supported."""
    states = []
    for _ in range(k):
        n = int(rng.integers(1, 6))
        directions = rng.normal(size=(n, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        weights = rng.exponential(size=n)
        states.append(SeparableEnsemble(weights / weights.sum(), directions).to_state())
    return np.array(states)


def symmetric_states(rng, k):
    """Dense triplet-supported states, mostly entangled."""
    return np.array([random_symmetric_density_matrix(rng) for _ in range(k)])


def family_states():
    """The three family grids, with points on the I4 = 0 and PT = 0 boundaries."""
    pairs = []
    for n in range(2, 41, 3):
        for chi_t in np.linspace(0.0, 2.0 * np.pi, 25):
            pairs.append(oat_pair(n, float(chi_t)))
            pairs.append(oat_pair(n, float(chi_t), paper_literal=True))
            if n >= 3:
                pairs.append(ising_pair(n, float(chi_t)))
    for n in range(2, 31, 2):
        for m in range(-n // 2, n // 2 + 1):
            pairs.append(dicke_pair(n, float(m)))
    return np.array([x.to_matrix() for x in pairs])


def reference_evidence(rho):
    """``(invariants, PT minimum eigenvalue, I12 - I4^2, fired criteria in
    CRITERIA order, I4-zero fallback)`` of one state, as the scalar path
    computed them: the frozen references, a 2-D ``eigvalsh`` of the
    Hermitian part of the partial transpose, and Python floats."""
    inv = reference_makhlin(reference_bloch(rho))
    pt = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    pt_min = float(np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))[0])
    i4, i12, i14 = float(inv[3]), float(inv[11]), float(inv[13])
    gap = i12 - i4 * i4
    fallback = abs(i4) <= SIGN_ZERO_BAND
    fired = [not fallback and v < -SIGN_ZERO_BAND for v in (i12, i14, gap)]
    return inv, pt_min, gap, fired, fallback


def assert_is_reference_evidence(ev, rhos):
    """Each row of the EvidenceStack ``ev`` is ``reference_evidence`` of that
    state, bit for bit; returns the fired criteria and fallbacks."""
    inv, pt_min, gap, fired, fallback = zip(*map(reference_evidence, rhos))
    assert_bits_equal(ev.invariants, inv)
    assert_bits_equal(ev.ppt_min_eigenvalue, pt_min)
    assert_bits_equal(ev.i12_minus_i4sq, gap)
    assert ev.criteria.tolist() == list(fired)
    assert ev.i4_zero_fallback.tolist() == list(fallback)
    assert ev.separable.tolist() == [v >= -SIGN_ZERO_BAND for v in pt_min]
    return fired, fallback


def assert_stack_is_reference_evidence(rhos):
    ev = evidence_stack(rhos)
    fired, fallback = assert_is_reference_evidence(ev, rhos)
    # evidence is the one-row case: each row alone gives the stack's row.
    for j, rho in enumerate(rhos):
        one = evidence(rho)
        assert_bits_equal(one.invariants.as_array(), ev.invariants[j])
        assert_bits_equal(one.ppt_min_eigenvalue, ev.ppt_min_eigenvalue[j])
        assert one.criteria_fired == {name for name, hit in zip(CRITERIA, fired[j]) if hit}
        assert one.i4_zero_fallback_used == fallback[j]
        assert one.verdict == ("Separable" if ev.separable[j] else "Entangled")


def assert_stack_is_reference_bloch(rhos):
    s, r, t = bloch_decompose_stack(rhos)
    want = [reference_bloch(rho) for rho in rhos]
    assert_bits_equal(s, [b.s for b in want])
    assert_bits_equal(r, [b.r for b in want])
    assert_bits_equal(t, [b.t for b in want])
    return s, r, t, want


class TestDecompositionAndInvariants:
    @pytest.mark.parametrize("k", [1, STACK_SIZE])
    def test_dense_states(self, rng, k):
        rhos = dense_states(rng, k)
        s, r, t, want = assert_stack_is_reference_bloch(rhos)
        for rho, b in zip(rhos, want):
            form = bloch_decompose(rho)  # the one-row case
            assert_bits_equal(np.concatenate([form.s, form.r, form.t.ravel()]),
                              np.concatenate([b.s, b.r, b.t.ravel()]))
        assert_bits_equal(makhlin_stack(s, r, t), [reference_makhlin(b) for b in want])

    @pytest.mark.parametrize("states", ["separable", "symmetric", "family"])
    def test_contraction_is_the_reference(self, rng, states):
        rhos = {
            "separable": lambda: separable_symmetric_states(rng, STACK_SIZE),
            "symmetric": lambda: symmetric_states(rng, STACK_SIZE),
            "family": family_states,
        }[states]()
        s, r, t, forms = assert_stack_is_reference_bloch(rhos)
        want = [reference_makhlin(b) for b in forms]
        assert_bits_equal(makhlin_stack(s, r, t), want)
        assert_bits_equal([makhlin_all(bloch_decompose(rho)).as_array() for rho in rhos], want)

    def test_signed_zero_entries(self, rng):
        """States whose zero entries carry either sign, with the X pattern's
        zero Pauli traces."""
        rhos = np.concatenate([family_states()[::7], dense_states(rng, 40)])
        signs = rng.integers(0, 2, size=rhos.shape + (2,)).astype(bool)
        zeros = np.zeros(rhos.shape, dtype=complex)
        zeros.real[signs[..., 0]] = -0.0
        zeros.imag[signs[..., 1]] = -0.0
        rhos[:, [0, 1, 0, 2, 1, 3, 2, 3], [1, 0, 2, 0, 3, 1, 3, 2]] = 0.0  # the X pattern
        rhos = np.where(rhos == 0, zeros, rhos)
        assert np.signbit(rhos.real).any() and np.signbit(rhos.imag).any()
        assert_stack_is_reference_bloch(rhos)

    def test_triples_of_all_zero_operands_are_plus_zero(self, rng):
        """Forms whose entries are all +-0, in every one of the 2^15 sign
        patterns: each epsilon triple and I14 reads only +-0 operands, and
        is +0.0."""
        signs = (np.arange(2 ** 15)[:, None] >> np.arange(15)) & 1
        entries = np.where(signs == 1, -0.0, 0.0)
        s, r, t = entries[:, :3], entries[:, 3:6], entries[:, 6:].reshape(-1, 3, 3)
        inv = makhlin_stack(s, r, t)
        triples = inv[:, [0, 9, 10, 13, 14, 15, 16, 17]]
        assert not np.signbit(triples).any() and not triples.any()
        for j in rng.choice(len(s), 200, replace=False):
            assert_bits_equal(inv[j], reference_makhlin(Bloch(s[j], r[j], t[j])))

    def test_zero_triples_and_i14_are_plus_zero(self, rng):
        """Forms of small integers and signed zeros, on which the triples and
        I14 cancel to exactly zero on many rows, both from terms of either
        sign and from terms that are all -0.0: every zero is +0.0."""
        entries = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=(4000, 15),
                             p=[0.1, 0.1, 0.3, 0.3, 0.1, 0.1])
        s, r, t = entries[:, :3], entries[:, 3:6], entries[:, 6:].reshape(-1, 3, 3)
        inv = makhlin_stack(s, r, t)
        triples = inv[:, [0, 9, 10, 13, 14, 15, 16, 17]]
        zeros = triples == 0.0
        assert zeros.any(axis=0).all() and triples.any(axis=0).all()
        assert not np.signbit(triples[zeros]).any()
        assert_bits_equal(inv[:300], [reference_makhlin(Bloch(*row))
                                      for row in zip(s[:300], r[:300], t[:300])])

    def test_forms_with_signed_zero_entries(self, rng):
        """Dense forms with entries zeroed at random, with either sign."""
        s, r, t = bloch_decompose_stack(dense_states(rng, 400))
        entries = np.concatenate([s, r, t.reshape(-1, 9)], axis=1)
        zeroed = rng.random(entries.shape) < 0.4
        entries[zeroed] = np.where(rng.random(zeroed.sum()) < 0.5, -0.0, 0.0)
        s, r, t = entries[:, :3], entries[:, 3:6], entries[:, 6:].reshape(-1, 3, 3)
        assert_bits_equal(makhlin_stack(s, r, t),
                          [reference_makhlin(Bloch(*row)) for row in zip(s, r, t)])

    def test_each_row_is_computed_as_if_alone(self, rng):
        rhos = dense_states(rng, 50)
        s, r, t = bloch_decompose_stack(rhos)
        whole = makhlin_stack(s, r, t)
        for j in range(len(rhos)):
            assert_bits_equal(makhlin_stack(s[j:j + 1], r[j:j + 1], t[j:j + 1]), whole[j:j + 1])
            assert_bits_equal(np.concatenate(bloch_decompose_stack(rhos[j:j + 1]), axis=None),
                              np.concatenate([s[j], r[j], t[j]], axis=None))
        assert_bits_equal(makhlin_stack(s[::-1], r[::-1], t[::-1]), whole[::-1])

    def test_empty_stack(self):
        assert makhlin_stack(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3, 3))).shape == (0, 18)
        s, r, t = bloch_decompose_stack(np.zeros((0, 4, 4)))
        assert (s.shape, r.shape, t.shape) == ((0, 3), (0, 3), (0, 3, 3))


class TestEvidenceStack:
    @pytest.mark.parametrize("k", [1, STACK_SIZE])
    def test_separable_symmetric_states(self, rng, k):
        assert_stack_is_reference_evidence(separable_symmetric_states(rng, k))

    @pytest.mark.parametrize("k", [1, STACK_SIZE])
    def test_dense_symmetric_states(self, rng, k):
        assert_stack_is_reference_evidence(symmetric_states(rng, k))

    def test_family_grids(self):
        rhos = family_states()
        assert len(rhos) >= STACK_SIZE
        ev = evidence_stack(rhos)
        # The grids reach the fallback, both verdicts and every criterion.
        assert ev.i4_zero_fallback.any() and ev.separable.any() and not ev.separable.all()
        assert ev.criteria.any(axis=0).all()
        assert_stack_is_reference_evidence(rhos)

    def test_i4_is_squared_as_the_scalar_path_squares_it(self, rng):
        """``I12 - I4^2`` squares I4 as the product ``i4 * i4``, which IEEE
        arithmetic rounds correctly; Python's ``float ** 2`` (libm ``pow``)
        differs from it in the last bit on about 1 value in 1000.  Pinned
        on the rows where the two differ."""
        rhos = symmetric_states(rng, 5000)
        ev = evidence_stack(rhos)
        i4, i12 = ev.invariants[:, 3], ev.invariants[:, 11]
        differs = (i12 - np.array([v ** 2 for v in i4.tolist()])) != (i12 - i4 * i4)
        assert differs.any()
        assert_bits_equal(ev.i12_minus_i4sq[differs], (i12 - i4 * i4)[differs])
        assert_stack_is_reference_evidence(rhos[differs])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
        st.floats(0.0, 1.0), st.floats(0.0, 2.0 * np.pi),
    ), min_size=1, max_size=12))
    def test_random_x_states(self, draws):
        rhos = []
        for wa, wd, wc, radius, phase in draws:
            total = wa + wd + wc
            if total == 0.0:
                continue
            a, d, c = wa / total, wd / total, wc / total / 2.0
            b = np.sqrt(a * d) * radius * np.exp(1j * phase)
            rhos.append(XForm(a=a, b=b, c=c, d=1.0 - a - 2.0 * c).to_matrix())
        if rhos:
            assert_stack_is_reference_evidence(np.array(rhos))


def family_grid(family):
    """Grid points of ``family`` that ``XForm``'s rule accepts: OAT and Ising
    from N = 2 (Ising at N = 2 only where its pair is a state), and every
    valid M of the Dicke states to N = 30."""
    if family == "dicke":
        return [(n, two_m / 2.0, None) for n in range(2, 31) for two_m in range(-n, n + 1, 2)]
    points = [(n, None, float(chi_t)) for n in range(2, 41, 3)
              for chi_t in np.linspace(0.0, 2.0 * np.pi, 25)]
    if family == "ising":
        points = [p for p in points if p[0] > 2 or accepts_ising_pair(*p)]
    return points


def accepts_ising_pair(n, m, chi_t):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # N = 2
        try:
            ising_pair(n, chi_t)
        except NotPositive:
            return False
    return True


def assert_is_xform_evidence(ev, abcd):
    """``ev`` is the sweep's evidence of the X-pattern states of the
    parameter arrays ``abcd``: the PT minimum, the criteria, the I4-zero
    fallback and the verdict are those of ``evidence_stack`` of the same
    matrices and of the frozen scalar path, bit for bit; the invariants
    and I12 - I4^2 are the pattern's closed forms, each within
    ``exact_oracle.XFORM_BOUND`` of its exact value."""
    rhos = xform_matrices(*abcd)
    want = evidence_stack(rhos)
    assert_bits_equal(ev.ppt_min_eigenvalue, want.ppt_min_eigenvalue)
    for field in ("criteria", "i4_zero_fallback", "separable"):
        assert np.array_equal(getattr(ev, field), getattr(want, field)), field
    _, pt_min, _, fired, fallback = zip(*map(reference_evidence, rhos))
    assert_bits_equal(ev.ppt_min_eigenvalue, pt_min)
    assert ev.criteria.tolist() == list(fired)
    assert ev.i4_zero_fallback.tolist() == list(fallback)
    assert_bits_equal(ev.invariants, makhlin_xform_stack(*abcd))
    worst = eo.xform_worst_errors(ev.invariants, ev.i12_minus_i4sq, *abcd)
    assert max(worst) <= eo.XFORM_BOUND, dict(zip(eo.XFORM_NAMES, worst))


class TestXformEvidence:
    """The sweep's evaluation, ``_xform_evidence``, without a gate of its
    own: ``evidence_stack`` of the same matrices in every verdict and PT
    bit, and the exact invariants of those matrices within the X bound."""

    @pytest.mark.parametrize("family, paper_literal", [
        ("oat", False), ("oat", True), ("ising", False), ("dicke", False),
    ])
    def test_is_evidence_stack_and_the_reference(self, family, paper_literal):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # ising at N = 2
            abcd = pair_parameters(family, family_grid(family), paper_literal)
        ev = _xform_evidence(*abcd)
        assert_is_xform_evidence(ev, abcd)
        # Every grid reaches the I4-zero fallback and both verdicts.
        assert ev.i4_zero_fallback.any()
        assert ev.separable.any() and not ev.separable.all()

    def test_the_ising_grid_starts_at_n_2(self):
        n_2 = [chi_t for n, _, chi_t in family_grid("ising") if n == 2]
        # The pair is a state near chi t = 0 (mod pi) only.
        assert {0.0, np.pi, 2.0 * np.pi} <= set(n_2) and len(n_2) < 25

    def test_one_row_and_no_rows(self):
        abcd = pair_parameters("dicke", [(4, 1.0, None)])
        one = evidence(xform_matrices(*abcd)[0])
        ev = _xform_evidence(*abcd)
        assert_is_xform_evidence(ev, abcd)
        assert ev.ppt_min_eigenvalue[0].hex() == one.ppt_min_eigenvalue.hex()
        assert {name for name, hit in zip(CRITERIA, ev.criteria[0]) if hit} == one.criteria_fired
        empty = _xform_evidence(*(np.zeros(0, dtype=t) for t in (float, complex, float, float)))
        assert empty.invariants.shape == (0, 18) and empty.ppt_min_eigenvalue.shape == (0,)


def _bad_rows(rng):
    """One state per gate of ``evidence``, each refused by that gate only, and
    ``non_finite_entry``, whose overflowing Pauli trace the decomposition's
    entry rule refuses."""
    clean = separable_symmetric_states(rng, 1)[0]
    non_hermitian = clean.copy()
    non_hermitian[0, 1] += 1e-6
    unbounded = np.diag([2.0, -1.0, 0.0, 0.0]).astype(complex)  # <I (x) sigma_z> = 3
    non_finite = clean.copy()
    non_finite[2, 2] = np.nan
    # Finite, Hermitian and of unit trace, but <I (x) sigma_z> = 3e308 overflows to inf.
    overflow = np.diag([1.5e308, -1.5e308, 1.0, 0.0]).astype(complex)
    return {
        "hermiticity": non_hermitian,
        "trace": clean * 1.001,
        "bloch_bound": unbounded,
        "exchange": dense_states(rng, 1)[0],
        "non_finite": non_finite,
        "non_finite_entry": overflow,
    }


# Class and message of the error each gate's row of ``_bad_rows`` raises.
# The evidence and the decomposition read one density-matrix rule
# (``states._state_gates``), so they raise alike on every row but the
# exchange row, which only the evidence's triplet-support gate refuses.
# A non-finite matrix has Hermiticity defect inf.
EVIDENCE_ERRORS = {
    "hermiticity": (InvalidDensityMatrix, "not Hermitian: defect 1.000e-06"),
    "trace": (InvalidDensityMatrix, "trace invariant violated: trace = 1.001"),
    "bloch_bound": (NotPositive,
                    "not positive semidefinite: Pauli expectation 3 exceeds 1.0000000061"),
    "exchange": (NotSymmetricState,
                 "state has singlet support: singlet population 2.586e-01, largest "
                 "singlet-triplet coherence 1.615e-01, band 1.0e-10; "
                 "the criteria require triplet support"),
    "non_finite": (InvalidDensityMatrix, "not Hermitian: defect inf"),
    "non_finite_entry": (ValueError, "BlochForm entries must be finite"),
}
DECOMPOSITION_ERRORS = {**EVIDENCE_ERRORS, "exchange": None}  # the decomposition has no triplet gate
GATES = list(EVIDENCE_ERRORS)


def raises_exactly(error):
    cls, message = error
    return pytest.raises(cls, match=f"^{re.escape(message)}$")


class TestStackedGates:
    @pytest.mark.parametrize("gate", GATES)
    def test_raises_the_scalar_error_of_the_first_bad_row(self, gate, rng):
        bad = _bad_rows(rng)
        other = "exchange" if gate != "exchange" else "trace"
        assert EVIDENCE_ERRORS[gate] != EVIDENCE_ERRORS[other]
        clean = separable_symmetric_states(rng, 2)
        for rhos in ([clean[0], bad[gate], bad[other]], [clean[0], bad[gate], clean[1]]):
            with raises_exactly(EVIDENCE_ERRORS[gate]):
                evidence_stack(np.array(rhos))
        with raises_exactly(EVIDENCE_ERRORS[gate]):
            evidence(bad[gate])

    def test_each_gate_refuses_its_row_in_the_decomposition(self, rng):
        bad = _bad_rows(rng)
        clean = separable_symmetric_states(rng, 2)
        for gate, error in DECOMPOSITION_ERRORS.items():
            if error is None:  # refused by the triplet gate, not here
                s, r, t = bloch_decompose_stack(np.array([clean[0], bad[gate]]))
                with raises_exactly(EVIDENCE_ERRORS[gate]):
                    symmetric_six(BlochForm(s[1], r[1], t[1]))
                continue
            other = "trace" if gate != "trace" else "bloch_bound"
            for rhos in ([bad[gate]], [clean[0], bad[gate], bad[other]],
                         [bad["exchange"], bad[gate], clean[1]]):
                with raises_exactly(error):
                    bloch_decompose_stack(np.array(rhos))
            with raises_exactly(error):
                bloch_decompose(bad[gate])

    @pytest.mark.parametrize("gate", ["hermiticity", "trace", "non_finite"])
    def test_every_path_raises_the_density_matrix_rules_error(self, gate, rng, tmp_path):
        rho = _bad_rows(rng)[gate]
        for check in (assert_density_matrix, classify, bloch_decompose, evidence):
            with raises_exactly(EVIDENCE_ERRORS[gate]):
                check(rho)
        path = tmp_path / "state.json"
        write_state_file(path, rho)
        _, message = EVIDENCE_ERRORS[gate]
        with raises_exactly((StateFileError, f"invalid state: {message}")):
            read_state_file(path)

    def test_a_state_inside_the_hermiticity_band_is_its_hermitian_part(self, rng):
        clean = separable_symmetric_states(rng, 1)[0]
        residue = clean.copy()  # Hermitian within 8e-11, but I (x) sigma_x gets Im 8e-11
        residue[0, 1] += 4e-11j
        residue[1, 0] += 4e-11j
        assert_density_matrix(residue)
        got, want = bloch_decompose(residue), bloch_decompose(clean)
        for name in ("s", "r", "t"):
            assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-15)
        assert classify(residue).verdict == classify(clean).verdict
        ev = evidence_stack(np.array([clean, residue]))
        assert_allclose(ev.invariants[1], ev.invariants[0], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("entry, error", [
        (np.nan, (ValueError, "BlochForm entries must be finite")),
        (-np.inf, (ValueError, "BlochForm entries must be finite")),
        (1.0 + 7e-9, (NotPositive, "not positive semidefinite: Pauli expectation "
                                   "1.000000007 exceeds 1.0000000061")),
    ])
    def test_blochform_takes_the_stacks_entry_rule(self, entry, error):
        for slot in range(15):
            entries = np.zeros(15)
            entries[slot] = entry
            with raises_exactly(error):
                BlochForm(s=entries[:3], r=entries[3:6], t=entries[6:].reshape(3, 3))
        on_the_bound = np.full(15, PAULI_BOUND)
        BlochForm(s=on_the_bound[:3], r=-on_the_bound[3:6], t=on_the_bound[6:].reshape(3, 3))

    def test_symmetric_six_refuses_the_rows_the_stack_mask_refuses(self, rng):
        rhos = np.concatenate([symmetric_states(rng, 100), dense_states(rng, 100)])
        s, r, t = bloch_decompose_stack(rhos)
        mask = np.array([is_symmetric(rho) for rho in rhos])
        assert mask[:100].all() and not mask[100:].any()
        for rho, row, symmetric in zip(rhos, zip(s, r, t), mask):
            if symmetric:
                assert symmetric_six(BlochForm(*row)) == SymmetricSix.from_full(
                    makhlin_all(BlochForm(*row)))
            else:
                with pytest.raises(NotSymmetricState) as refused:
                    evidence(rho)
                with raises_exactly((NotSymmetricState, str(refused.value))):
                    symmetric_six(BlochForm(*row))

    def test_shape_is_checked(self):
        with pytest.raises(InvalidDensityMatrix, match=r"expected shape \(k, 4, 4\)"):
            evidence_stack(np.eye(4))
        for one_state in (bloch_decompose, evidence):
            with pytest.raises(InvalidDensityMatrix, match=r"expected shape \(4, 4\), got \(1, 4, 4\)"):
                one_state(np.eye(4)[None] / 4)
        # Wrong shapes meet the library's own error, naming the shape, and
        # never numpy's matmul, reshape or index error.
        for rho in (np.eye(3) / 3, np.ones(16) / 4):
            got = re.escape(str(rho.shape))
            with pytest.raises(InvalidDensityMatrix, match=rf"expected shape \(4, 4\), got {got}"):
                is_symmetric(rho)
            for stack_function in (
                partial_transpose, ppt_check,
                lambda r: apply_local_unitary(r, np.eye(2), np.eye(2)),
            ):
                with pytest.raises(InvalidDensityMatrix,
                                   match=rf"expected shape \(\.\.\., 4, 4\), got {got}"):
                    stack_function(rho)


class TestBlochDecomposeForm:
    """``bloch_decompose`` builds its form from the row the stack has gated,
    without running ``BlochForm``'s checks a second time."""

    def test_is_the_public_form_of_the_stack_row_read_only(self, rng):
        for rho in np.concatenate([dense_states(rng, 40), separable_symmetric_states(rng, 40)]):
            form = bloch_decompose(rho)
            s, r, t = bloch_decompose_stack(rho[None])
            public = BlochForm(s=s[0], r=r[0], t=t[0])
            for name in ("s", "r", "t"):
                got, want = getattr(form, name), getattr(public, name)
                assert_bits_equal(got, want)
                assert got.dtype == want.dtype == np.float64
                assert not got.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    got[...] = 0.0
            assert_bits_equal(makhlin_all(form).as_array(), makhlin_all(public).as_array())

    @pytest.mark.parametrize("gate", [g for g, error in DECOMPOSITION_ERRORS.items() if error])
    def test_each_gate_raises_what_the_public_form_raised(self, gate, rng):
        # Before, the decomposition's row went through BlochForm(...) too;
        # the table pins the class and message each gate raised then.
        with raises_exactly(DECOMPOSITION_ERRORS[gate]):
            bloch_decompose(_bad_rows(rng)[gate])


class TestInvariantCriteria:
    """``invariant_criteria`` reads the criteria from a symmetric six as the
    stack reads them from its invariant columns."""

    @pytest.mark.parametrize("states", ["separable", "symmetric", "family"])
    def test_fires_what_the_stack_fires(self, rng, states):
        rhos = {
            "separable": lambda: separable_symmetric_states(rng, STACK_SIZE),
            "symmetric": lambda: symmetric_states(rng, STACK_SIZE),
            "family": family_states,
        }[states]()
        ev = evidence_stack(rhos)
        for inv, fired, fallback in zip(ev.invariants, ev.criteria, ev.i4_zero_fallback):
            six = SymmetricSix.from_full(InvariantSet(*inv.tolist()))
            if fallback:
                with pytest.raises(I4Zero):
                    invariant_criteria(six)
            else:
                assert invariant_criteria(six) == {
                    name for name, hit in zip(CRITERIA, fired) if hit}
        if states == "family":  # the grids reach the fallback and every criterion
            assert ev.i4_zero_fallback.any() and ev.criteria.any(axis=0).all()


def suite_draws(seed, count):
    """The self-test's draws for ``seed``, replayed draw by draw with the
    suites' generator calls in their order on one generator: the invariance
    suite's (rho, rotated rho) pairs, the positivity suite's separable
    states and the X-form suite's forms before its case filter.  The
    positivity and X-form draws are built one by one with the frozen
    per-draw formulas from the blocks their samplers draw at once."""
    rng = np.random.default_rng(seed)
    invariance = invariance_draws(count, rng)
    lengths = rng.integers(1, 7, size=count)
    total = int(lengths.sum())
    exponentials, normals, uniforms = (
        rng.exponential(size=total), rng.normal(size=(total, 3)), rng.uniform(size=total))
    separable = [reference_ensemble(exponentials[end - n:end], normals[end - n:end],
                                    uniforms[end - n:end]).to_state()
                 for n, end in zip(lengths, np.cumsum(lengths))]
    return invariance, separable, xform_draws(count, rng)


def invariance_draws(count, rng):
    pairs = []
    for _ in range(count):
        rho = random_density_matrix(rng)
        u1, u2 = haar_su2(rng), haar_su2(rng)
        pairs.append((rho, apply_local_unitary(rho, u1, u2)))
    return pairs


def reference_ensemble(exponentials, normals, uniforms):
    """Frozen: the ``SeparableEnsemble`` of one ``sample_separable_symmetric``
    draw from its variates, as it was built before the sampler drew as
    arrays: the weights normalized by their sum, and the normals'
    directions times the cube roots of the uniforms."""
    directions = normals / np.linalg.norm(normals, axis=-1)[..., None]
    return SeparableEnsemble(exponentials / np.sum(exponentials),
                             directions * (uniforms ** (1.0 / 3.0))[..., None])


def reference_sample_separable_symmetric(n, rng):
    """Frozen: the ensemble of ``sample_separable_symmetric(n, rng)``, with the
    generator calls it made before it became a row of ``_ensemble_draws``."""
    return reference_ensemble(rng.exponential(size=n), rng.normal(size=(n, 3)),
                              rng.uniform(size=n))


def reference_xform(weights, radius_uniform, phase):
    """Frozen: one special-pattern draw from its three exponentials, its
    radius uniform and its phase, as ``random_xform`` built it draw by draw."""
    w = weights / np.sum(weights)
    a, d, c = float(w[0]), float(w[1]), float(w[2]) / 2.0
    radius = np.sqrt(a * d) * np.sqrt(radius_uniform)
    return XForm(a=a, b=radius * np.exp(1j * phase), c=c, d=d)


def xform_draws(count, rng):
    """The X-form suite's ``count`` draws, each built with the frozen
    per-draw formula from the blocks ``sampling._xform_draws`` draws."""
    weights, radii = rng.exponential(size=(count, 3)), rng.uniform(size=count)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return [reference_xform(*draw) for draw in zip(weights, radii, phases)]


def reference_random_xform(rng):
    """Frozen: ``random_xform`` as it drew before it became the one-row case
    of ``sampling._xform_draws``."""
    return reference_xform(rng.exponential(size=3), rng.uniform(), rng.uniform(0.0, 2.0 * np.pi))


def per_draw_positivity_states(count, rng):
    """Frozen: the positivity suite's draws on the stream it read before its
    sampler drew as arrays, one ``sample_separable_symmetric`` call per
    draw after its term count."""
    states = [reference_sample_separable_symmetric(int(rng.integers(1, 7)), rng).to_state()
              for _ in range(count)]
    return np.array(states).reshape(count, 4, 4)


def per_draw_xform_draws(count, rng):
    """Frozen: the X-form suite's draws on the stream it read before its
    sampler drew as arrays, one ``random_xform`` call per draw."""
    xforms = [reference_random_xform(rng) for _ in range(count)]
    a, c, d = (np.array([getattr(x, name) for x in xforms], dtype=float) for name in "acd")
    return a, np.array([x.b for x in xforms], dtype=complex), c, d


def reference_xform_pt_eigenvalues(x):
    """Frozen: the one-state closed-form PT spectrum before it became the
    one-row case of ``xform_pt_eigenvalues_stack``."""
    ad = x.a - x.d
    root = np.sqrt(ad * ad + 4.0 * x.c * x.c)
    ab = abs(x.b)
    return np.array([0.5 * ((x.a + x.d) - root), 0.5 * ((x.a + x.d) + root), x.c - ab, x.c + ab])


def reference_xform_equivalence_check(x):
    """Frozen: the one-state sign equivalence before it became the one-row
    case of ``xform_equivalence_stack``, with ``xform_invariants``' closed
    forms of I4, I12 and I14 inlined."""
    ad_sq = (x.a - x.d) * (x.a - x.d)
    if ad_sq <= SIGN_ZERO_BAND:
        raise I4Zero(f"I4 = {ad_sq:.3e} is inside the zero band 1.0e-10")
    ab, c, ad = abs(x.b), x.c, x.a - x.d
    i4, i12, i14 = ad * ad, ad * ad * (1.0 - 4.0 * c), 8.0 * ad * ad * (c * c - ab * ab)

    def band_sign(v):
        return 1 if v > SIGN_ZERO_BAND else -1 if v < -SIGN_ZERO_BAND else 0

    ok12 = band_sign((i12 - i4 * i4) / ad_sq) == band_sign((1.0 - 4.0 * c) - ad_sq)
    c_plus_b = c + abs(x.b)
    if c_plus_b <= SIGN_ZERO_BAND:
        return ok12
    return ok12 and band_sign(i14 / (8.0 * ad_sq * c_plus_b)) == band_sign(c - abs(x.b))


def xform_hex(x):
    return tuple(float.hex(v) for v in (x.a, x.b.real, x.b.imag, x.c, x.d))


SUITE_RUNS = [(seed, 20) for seed in range(32)] + [(42, 500)]


def suite_failures(out):
    return dict(re.findall(r"^(\w+) +cases=\d+ +failures=(\d+)", out, re.MULTILINE))


def written_counterexample(tmp_path):
    return read_state_file(tmp_path / selftest.COUNTEREXAMPLE_FILENAME)


def assert_same_matrix(got, want):
    assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


class TestSuiteDraws:
    """The suites draw as arrays: the invariance suite on the stream the
    scalar samplers take draw by draw, the positivity and X-form suites with
    one generator call per kind of variate, of which the public samplers
    are the one-row case."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 50))
    @example(5, 0)
    def test_stacked_draws_are_the_scalar_replay_bit_for_bit(self, seed, count):
        invariance, separable, xforms = suite_draws(seed, count)
        rng = np.random.default_rng(seed)
        pairs = selftest._invariance_states(count, rng)
        states = selftest._positivity_states(count, rng)
        assert pairs.shape == (2 * count, 4, 4) and states.shape == (count, 4, 4)
        for j, (rho, rotated) in enumerate(invariance):
            assert_same_matrix(pairs[2 * j], rho)
            assert_same_matrix(pairs[2 * j + 1], rotated)
        for got, want in zip(states, separable):
            assert_same_matrix(got, want)
        # The X-form suite draws on from where the stacks leave the stream.
        a, b, c, d = selftest._xform_draws(count, rng)
        assert ([tuple(float.hex(float(v)) for v in row) for row in zip(a, b.real, b.imag, c, d)]
                == [xform_hex(x) for x in xforms])

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_the_public_samplers_keep_their_per_call_stream(self, seed):
        rng, frozen = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(500):
            assert xform_hex(random_xform(rng)) == xform_hex(reference_random_xform(frozen))
        for n in [*range(1, 13), 40]:
            rho, ensemble = sample_separable_symmetric(n, rng)
            want = reference_sample_separable_symmetric(n, frozen)
            assert_same_matrix(ensemble.weights, want.weights)
            assert_same_matrix(ensemble.bloch_vectors, want.bloch_vectors)
            assert_same_matrix(rho, want.to_state())
        assert rng.bit_generator.state == frozen.bit_generator.state

    @pytest.mark.parametrize("stream", ["arrays", "per_draw"])
    def test_both_streams_pass_on_1000_seeds(self, stream, tmp_path, monkeypatch):
        # The per-draw stream is the one the suites read before their
        # samplers drew as arrays; both must pass every claim.
        if stream == "per_draw":
            monkeypatch.setattr(selftest, "_positivity_states", per_draw_positivity_states)
            monkeypatch.setattr(selftest, "_xform_draws", per_draw_xform_draws)
        for seed in range(1000):
            report = selftest.run_selftest(seed, 20, out_dir=str(tmp_path))
            assert (report.failures, report.counterexample_path) == (0, None), seed

    @pytest.mark.parametrize("dim", [3, 4])
    def test_ginibre_rows_are_the_one_draw_formula(self, rng, dim):
        # A frozen copy of the one-draw sampler before it took stacks.
        def one_draw(re, im):
            g = re + 1j * im
            rho = g @ g.conj().T
            return rho / np.trace(rho).real

        normals = rng.normal(size=(300, 2, dim, dim))
        got = hilbert_schmidt_states(normals.reshape(30, 10, 2, dim, dim)).reshape(-1, dim, dim)
        for rho, (re, im) in zip(got, normals):
            assert_same_matrix(rho, one_draw(re, im))


class TestInvarianceSuite:
    """The self-test's invariance suite evaluates every draw as one stack."""

    @pytest.mark.parametrize("seed, count", SUITE_RUNS)
    def test_equals_the_scalar_loop_bit_for_bit(self, seed, count, tmp_path):
        # The suite as it ran before the stack: one scalar decomposition and
        # one scalar contraction per state, the deviation folded draw by draw.
        floor = INVARIANCE_ABS / INVARIANCE_REL
        failures, max_dev = 0, 0.0
        for rho, rotated in suite_draws(seed, count)[0]:
            ref = reference_makhlin(reference_bloch(rho))
            rot = reference_makhlin(reference_bloch(rotated))
            dev = float(np.max(np.abs(rot - ref) / np.maximum(np.abs(ref), floor)))
            max_dev = max(max_dev, dev)
            failures += dev > INVARIANCE_REL
        suite = selftest.run_selftest(seed, count, out_dir=str(tmp_path)).suites[0]
        assert (suite.name, suite.cases, suite.failures, float.hex(suite.max_deviation)) == (
            "local_unitary_invariance", count, failures, float.hex(max_dev))

    def test_biased_rotated_rows_fail_with_the_first_draw_as_counterexample(
            self, tmp_path, capsys, monkeypatch):
        seed, count, biased = 3, 20, (4, 9, 17)
        draws = suite_draws(seed, count)[0]
        targets = [reference_bloch(draws[j][1]).s for j in biased]
        real = selftest.invariants_mod.makhlin_stack

        def corrupted(s, r, t):
            inv = real(s, r, t)
            for row, s_row in enumerate(s):
                if any(np.array_equal(s_row, target) for target in targets):
                    inv[row, 11] += 1e-3  # I12 of a rotated state only
            return inv

        monkeypatch.setattr(selftest.invariants_mod, "makhlin_stack", corrupted)
        argv = ["selftest", "--seed", str(seed), "--count", str(count), "--out", str(tmp_path)]
        assert cli.main(argv) == 1
        assert suite_failures(capsys.readouterr().out) == {
            "local_unitary_invariance": str(len(biased)),
            "separable_positivity": "0", "xform_pt_equivalence": "0"}
        assert_same_matrix(written_counterexample(tmp_path), draws[biased[0]][0])

    @pytest.mark.parametrize("j", [0, 7, 19])
    def test_a_refused_draw_raises_the_scalar_error(self, j, tmp_path, monkeypatch):
        seed, count = 5, 20
        bad = suite_draws(seed, count)[0][j][0].copy()
        bad[0, 1] += 1e-6  # no longer Hermitian
        real = selftest.hilbert_schmidt_states

        def states(normals):
            rhos = real(normals)
            rhos[j] = bad
            return rhos

        monkeypatch.setattr(selftest, "hilbert_schmidt_states", states)
        with raises_exactly(DECOMPOSITION_ERRORS["hermiticity"]):
            selftest.run_selftest(seed, count, out_dir=str(tmp_path))


def positivity_loop(states):
    """The positivity suite as it ran draw by draw: (cases, failures, max
    deviation, index of the first failing draw or None)."""
    cases, failures, max_dev, first = 0, 0, 0.0, None
    for j, rho in enumerate(states):
        inv = reference_makhlin(reference_bloch(rho))
        i4, i12, i14 = float(inv[3]), float(inv[11]), float(inv[13])
        if i4 <= selftest._I4_FLOOR:
            continue
        cases += 1
        worst = min(i12, i14, i12 - i4 * i4)
        max_dev = max(max_dev, max(0.0, -worst))
        if worst < -SIGN_ZERO_BAND:
            failures += 1
            first = j if first is None else first
    return cases, failures, max_dev, first


def is_xform_case(x):
    floor = selftest._I4_FLOOR
    return not ((x.a - x.d) * (x.a - x.d) <= floor or x.c + abs(x.b) <= floor)


def xform_loop(xforms):
    """The X-form suite as it ran draw by draw, one ``ppt_check`` per case and
    the frozen one-state closed forms: (cases, failures, max deviation,
    index of the first failing draw or None)."""
    cases, failures, max_dev, first = 0, 0, 0.0, None
    for j, x in enumerate(xforms):
        if not is_xform_case(x):
            continue
        cases += 1
        closed = np.sort(reference_xform_pt_eigenvalues(x))
        dev = abs(float(closed[0]) - ppt_check(x.to_matrix()).min_eig)
        max_dev = max(max_dev, dev)
        if not reference_xform_equivalence_check(x) or dev > SIGN_ZERO_BAND:
            failures += 1
            first = j if first is None else first
    return cases, failures, max_dev, first


def selftest_cli(seed, count, tmp_path, capsys):
    argv = ["selftest", "--seed", str(seed), "--count", str(count), "--out", str(tmp_path)]
    code = cli.main(argv)
    return code, suite_failures(capsys.readouterr().out)


class TestPositivitySuite:
    """The positivity suite decomposes and contracts its draws as one stack,
    and checks once per run that the scalar decomposition of the first draw
    is row 0 of the stack, bit for bit."""

    @pytest.mark.parametrize("seed, count", SUITE_RUNS)
    def test_equals_the_scalar_loop_bit_for_bit(self, seed, count, tmp_path):
        cases, failures, max_dev, _ = positivity_loop(suite_draws(seed, count)[1])
        suite = selftest.run_selftest(seed, count, out_dir=str(tmp_path)).suites[1]
        assert (suite.name, suite.cases, suite.failures, float.hex(suite.max_deviation)) == (
            "separable_positivity", cases, failures, float.hex(max_dev))

    @pytest.mark.parametrize("count", [0, 1, 20])
    def test_the_scalar_decomposition_runs_once_on_the_first_draw(
            self, count, tmp_path, monkeypatch):
        # The one selftest.bloch_decompose call per run is also the site the
        # benchmark's selftest_suites binding test leaves unwrapped.
        seen = []

        def decompose(rho):
            seen.append(rho)
            return bloch_decompose(rho)

        monkeypatch.setattr(selftest, "bloch_decompose", decompose)
        selftest.run_selftest(5, count, out_dir=str(tmp_path))
        assert len(seen) == min(count, 1)
        for rho, drawn in zip(seen, suite_draws(5, count)[1]):
            assert_same_matrix(rho, drawn)

    @staticmethod
    def _plant_scalar_mismatch(monkeypatch, change):
        """Make selftest's scalar decomposition return ``change(s)`` for s."""
        def decompose(rho):
            form = bloch_decompose(rho)
            return BlochForm(change(form.s), form.r, form.t)

        monkeypatch.setattr(selftest, "bloch_decompose", decompose)

    def test_a_scalar_stack_mismatch_fails_the_first_draw(self, tmp_path, monkeypatch):
        seed, count = 5, 20
        clean = selftest.run_selftest(seed, count, out_dir=str(tmp_path / "clean"))
        self._plant_scalar_mismatch(monkeypatch, lambda s: np.nextafter(s, np.inf))
        report = selftest.run_selftest(seed, count, out_dir=str(tmp_path))
        suite = report.suites[1]
        assert (suite.cases, suite.failures, float.hex(suite.max_deviation)) == (
            clean.suites[1].cases, 1, float.hex(clean.suites[1].max_deviation))
        assert report.suites[0] == clean.suites[0] and report.suites[2] == clean.suites[2]
        assert_same_matrix(written_counterexample(tmp_path), suite_draws(seed, count)[1][0])

    def test_a_mismatch_in_the_sign_of_zero_fails_the_first_draw(self, tmp_path, monkeypatch):
        # The maximally mixed state has s = 0, equal to -s in value, not in bits.
        mixed = np.eye(4, dtype=complex) / 4.0
        self._plant_scalar_mismatch(monkeypatch, np.negative)
        suite, states = self._run_with_draws(
            lambda j, rho: mixed if j == 0 else rho, monkeypatch, tmp_path)
        cases, failures, max_dev, _ = positivity_loop(states)
        assert (suite.cases, suite.failures, float.hex(suite.max_deviation)) == (
            cases, failures + 1, float.hex(max_dev))
        assert_same_matrix(written_counterexample(tmp_path), mixed)

    def test_the_first_draw_check_runs_under_python_o(self, tmp_path):
        script = (
            "import sys, numpy as np\n"
            "from qubitpair import selftest\n"
            "from qubitpair.states import BlochForm, bloch_decompose\n"
            "def decompose(rho):\n"
            "    form = bloch_decompose(rho)\n"
            "    return BlochForm(np.nextafter(form.s, np.inf), form.r, form.t)\n"
            "selftest.bloch_decompose = decompose\n"
            "print(selftest.run_selftest(5, 3, out_dir=sys.argv[1]).suites[1].failures)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-O", "-c", script, str(tmp_path)], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == "1\n"

    def test_biased_rows_fail_with_the_first_draw_as_counterexample(
            self, tmp_path, capsys, monkeypatch):
        seed, count, biased = 3, 20, (4, 9, 17)
        states = suite_draws(seed, count)[1]
        targets = [reference_bloch(states[j]).s for j in biased]
        real = selftest.invariants_mod.makhlin_stack

        def corrupted(s, r, t):
            inv = real(s, r, t)
            for row, s_row in enumerate(s):
                if any(np.array_equal(s_row, target) for target in targets):
                    inv[row, 11] = -1e-3  # I12 of a biased separable state only
            return inv

        # The oracle on the same bias: only draws with I4 above the floor count.
        expected = [j for j in biased
                    if reference_makhlin(reference_bloch(states[j]))[3] > selftest._I4_FLOOR]
        assert len(expected) >= 2
        monkeypatch.setattr(selftest.invariants_mod, "makhlin_stack", corrupted)
        code, failures = selftest_cli(seed, count, tmp_path, capsys)
        assert code == 1
        assert failures == {"local_unitary_invariance": "0",
                            "separable_positivity": str(len(expected)),
                            "xform_pt_equivalence": "0"}
        assert_same_matrix(written_counterexample(tmp_path), states[expected[0]])

    @staticmethod
    def _run_with_draws(replace, monkeypatch, tmp_path):
        """Run the suite (seed 5, count 20) with draw j replaced by
        ``replace(j, rho)``; return its result and the states it read."""
        real, states = selftest.separable_mixtures, []

        def mixtures(weights, vectors):
            states.extend(replace(j, rho) for j, rho in enumerate(real(weights, vectors)))
            return np.array(states)

        monkeypatch.setattr(selftest, "separable_mixtures", mixtures)
        return selftest.run_selftest(5, 20, out_dir=str(tmp_path)).suites[1], states

    def test_a_draw_with_i4_below_the_floor_is_no_case(self, tmp_path, monkeypatch):
        mixed = np.eye(4, dtype=complex) / 4.0  # s = 0, so I4 = 0
        suite, states = self._run_with_draws(
            lambda j, rho: mixed if j in (3, 11) else rho, monkeypatch, tmp_path)
        cases, failures, max_dev, _ = positivity_loop(states)
        assert (suite.cases, suite.failures, float.hex(suite.max_deviation)) == (
            18, failures, float.hex(max_dev))
        assert cases == 18

    def test_i4_is_squared_as_the_scalar_path_squares_it(self, tmp_path, monkeypatch):
        # A pure product state, whose I12 - I4^2 is 0.0 with the product
        # i4 * i4 and rounding noise below zero with Python's i4 ** 2.
        vector = [-0.6979062868950129, 0.027880515435373062, 0.5235883441741358]
        product = SeparableEnsemble(np.ones(1), [vector]).to_state()
        inv = reference_makhlin(reference_bloch(product))
        i4, i12 = float(inv[3]), float(inv[11])
        assert i12 - i4 * i4 == 0.0 > i12 - i4 ** 2
        suite, states = self._run_with_draws(
            lambda j, rho: product if j == 6 else rho, monkeypatch, tmp_path)
        cases, failures, max_dev, _ = positivity_loop(states)
        assert (suite.cases, suite.failures, float.hex(suite.max_deviation)) == (
            cases, failures, float.hex(max_dev))

    @pytest.mark.parametrize("j", [0, 7, 19])
    def test_a_refused_draw_raises_the_scalar_error(self, j, tmp_path, monkeypatch):
        seed, count = 5, 20
        bad = suite_draws(seed, count)[1][j].copy()
        bad[0, 1] += 1e-6  # no longer Hermitian
        real = selftest.separable_mixtures

        def mixtures(weights, vectors):
            rhos = real(weights, vectors)
            rhos[j] = bad
            return rhos

        monkeypatch.setattr(selftest, "separable_mixtures", mixtures)
        with raises_exactly(DECOMPOSITION_ERRORS["hermiticity"]):
            selftest.run_selftest(seed, count, out_dir=str(tmp_path))


class TestOnePass:
    """``run_selftest`` evaluates the invariance and positivity draws as one
    stack: one decomposition, one contraction and one SU(2) call per run."""

    @pytest.mark.parametrize("count", [1, 20])
    def test_one_call_of_each_stage(self, count, tmp_path):
        from qubitpair import invariants, qmat, states

        watched = {f.__code__: f.__name__ for f in (
            states.bloch_decompose_stack, states.bloch_decompose, invariants.makhlin_stack,
            qmat.su2_from_normals, qmat.hermitian_eigenvalues)}
        calls = []

        def hook(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                first = frame.f_locals[frame.f_code.co_varnames[0]]
                calls.append((watched[frame.f_code], np.shape(first)))

        sys.setprofile(hook)
        try:
            selftest.run_selftest(5, count, out_dir=str(tmp_path))
        finally:
            sys.setprofile(None)
        # The scalar bloch_decompose is bloch_decompose_stack's one-row case.
        cases = sum(is_xform_case(x) for x in suite_draws(5, count)[2])
        assert sorted(calls) == sorted([
            ("bloch_decompose_stack", (3 * count, 4, 4)), ("makhlin_stack", (3 * count, 3)),
            ("su2_from_normals", (count, 2, 4)), ("bloch_decompose", (4, 4)),
            ("bloch_decompose_stack", (1, 4, 4)), ("hermitian_eigenvalues", (cases, 4, 4))])

    def test_an_invariance_refusal_comes_before_a_positivity_refusal(
            self, tmp_path, monkeypatch):
        # The invariance draw is the last, the positivity draw the first of
        # its suite: the stack raises in draw order, as the suites did alone.
        seed, count = 5, 20
        invariance_bad = suite_draws(seed, count)[0][count - 1][0].copy()
        invariance_bad[0, 1] += 1e-6
        positivity_bad = suite_draws(seed, count)[1][0] * 1.001
        real_states, real_mixtures = selftest.hilbert_schmidt_states, selftest.separable_mixtures

        def states(normals):
            rhos = real_states(normals)
            rhos[count - 1] = invariance_bad
            return rhos

        def mixtures(weights, vectors):
            rhos = real_mixtures(weights, vectors)
            rhos[0] = positivity_bad
            return rhos

        monkeypatch.setattr(selftest, "hilbert_schmidt_states", states)
        monkeypatch.setattr(selftest, "separable_mixtures", mixtures)
        with raises_exactly(EVIDENCE_ERRORS["trace"]):
            bloch_decompose(positivity_bad)
        with raises_exactly(EVIDENCE_ERRORS["hermiticity"]):
            bloch_decompose(invariance_bad)
        with raises_exactly(EVIDENCE_ERRORS["hermiticity"]):
            selftest.run_selftest(seed, count, out_dir=str(tmp_path))


class TestXformSuite:
    """The X-form suite gates its draws once and evaluates them as arrays: one
    PT solve and one call of each stacked closed form."""

    @pytest.mark.parametrize("seed, count", SUITE_RUNS)
    def test_equals_the_scalar_loop_bit_for_bit(self, seed, count, tmp_path):
        cases, failures, max_dev, _ = xform_loop(suite_draws(seed, count)[2])
        suite = selftest.run_selftest(seed, count, out_dir=str(tmp_path)).suites[2]
        assert (suite.name, suite.cases, suite.failures, float.hex(suite.max_deviation)) == (
            "xform_pt_equivalence", cases, failures, float.hex(max_dev))

    def test_equals_the_frozen_loop_on_300_seeds(self):
        for seed in range(300):
            count = (0, 7, 20, 60)[seed % 4]
            rng = np.random.default_rng(seed)
            selftest._invariance_states(count, rng)
            selftest._positivity_states(count, rng)
            state = rng.bit_generator.state
            suite, counterexample = selftest._suite_xform_equivalence(count, rng)
            rng.bit_generator.state = state
            cases, failures, max_dev, first = xform_loop(xform_draws(count, rng))
            assert (suite.cases, suite.failures, float.hex(suite.max_deviation)) == (
                cases, failures, float.hex(max_dev)), seed
            assert first is None and len(counterexample) == 0

    def test_count_zero_is_a_zero_case_suite(self, tmp_path):
        a, b, c, d = selftest._xform_draws(0, np.random.default_rng(5))
        assert [v.shape for v in (a, b, c, d)] == [(0,)] * 4
        assert b.dtype == complex and a.dtype == c.dtype == d.dtype == float
        suite = selftest.run_selftest(5, 0, out_dir=str(tmp_path)).suites[2]
        assert suite == selftest.SuiteResult("xform_pt_equivalence", 0, 0, 0.0)

    @pytest.mark.parametrize("j", [0, 7, 19])
    def test_a_refused_draw_raises_the_xform_error(self, j, tmp_path, monkeypatch):
        real = selftest._xform_draws
        calls = []

        def draws(count, rng):
            calls.append(count)
            a, b, c, d = real(count, rng)
            d[j] += 0.5
            return a, b, c, d

        monkeypatch.setattr(selftest, "_xform_draws", draws)
        with raises_exactly((InvalidDensityMatrix,
                             "trace constraint a + d + 2c = 1 violated by 5.000e-01")):
            selftest.run_selftest(5, 20, out_dir=str(tmp_path))
        assert calls == [20]  # every draw is made, in one call, before the one gate runs

    def test_biased_eigenvalues_fail_with_the_first_draw_as_counterexample(
            self, tmp_path, capsys, monkeypatch):
        seed, count = 3, 20
        xforms = suite_draws(seed, count)[2]
        biased = [j for j, x in enumerate(xforms) if is_xform_case(x)][2::5]
        assert len(biased) >= 2
        targets = [partial_transpose(xforms[j].to_matrix()) for j in biased]
        real = selftest.hermitian_eigenvalues

        def corrupted(m):
            eig = real(m)
            for row, pt in enumerate(m):
                if any(np.array_equal(pt, target) for target in targets):
                    eig[row, 0] += 1e-3  # the PT minimum of a biased case only
            return eig

        monkeypatch.setattr(selftest, "hermitian_eigenvalues", corrupted)
        code, failures = selftest_cli(seed, count, tmp_path, capsys)
        assert code == 1
        assert failures == {"local_unitary_invariance": "0", "separable_positivity": "0",
                            "xform_pt_equivalence": str(len(biased))}
        assert_same_matrix(written_counterexample(tmp_path), xforms[biased[0]].to_matrix())


def closed_form_draws():
    """20,000 ``random_xform`` draws and the edge cases of the closed forms:
    b = 0, |b| = c (lambda_3 = 0), c + |b| = 0 and inside the zero band,
    and a = d (the degenerate (a - d)^2)."""
    rng = np.random.default_rng(2024)
    return [random_xform(rng) for _ in range(20000)] + [
        XForm.from_abc(0.3, 0j, 0.2),
        XForm.from_abc(0.5, 0.1 + 0j, 0.1),
        XForm.from_abc(0.5, 0.1j, 0.1),
        XForm.from_abc(0.6, 0j, 0.0),
        XForm.from_abc(0.6, 2e-11 + 0j, 3e-11),
        XForm.from_abc(0.4, 0.1 + 0.1j, 0.1),
    ]


class TestXformClosedFormStacks:
    """The stacked closed forms equal the frozen one-state ones bit for bit,
    and the public one-state functions are their one-row cases."""

    def test_pt_spectra_are_the_one_state_spectra(self):
        xs = closed_form_draws()
        columns = (np.array([getattr(x, f) for x in xs]) for f in "abcd")
        spectra = xform_pt_eigenvalues_stack(*columns)
        assert spectra.shape == (len(xs), 4)
        for x, row in zip(xs, spectra):
            want = reference_xform_pt_eigenvalues(x)
            assert_bits_equal(row, want)
            assert_bits_equal(xform_pt_eigenvalues(x), want)

    def test_equivalence_is_the_one_state_check(self):
        xs = closed_form_draws()
        columns = [np.array([getattr(x, f) for x in xs]) for f in "abcd"]
        agree = xform_equivalence_stack(*columns)
        degenerate = 0
        for x, got in zip(xs, agree.tolist()):
            try:
                want = reference_xform_equivalence_check(x)
            except I4Zero as exc:
                degenerate += 1
                with raises_exactly((I4Zero, str(exc))):
                    xform_equivalence_check(x)
                continue
            assert got is want is xform_equivalence_check(x)
        assert degenerate >= 1

    def test_the_edge_cases_reach_each_branch(self):
        edges = closed_form_draws()[20000:]
        lam3 = [reference_xform_pt_eigenvalues(x)[2] for x in edges]
        assert lam3[1] == lam3[2] == 0.0  # |b| = c
        assert [x.c + abs(x.b) <= SIGN_ZERO_BAND for x in edges] == [
            False, False, False, True, True, False]

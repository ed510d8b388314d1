import itertools
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qubitpair import qmat
from qubitpair.errors import I4Zero, NoRealSpectrum, NotSymmetricState
from qubitpair.invariants import (
    SymmetricSix,
    i10_diagonal_frame,
    makhlin_all,
    symmetric_six,
    t_eigenvalues_from_invariants,
    xform_invariants,
    xform_relation_check,
)
from qubitpair.models import dicke_pair, ising_pair
from qubitpair.sampling import (
    random_density_matrix,
    random_symmetric_density_matrix,
    random_xform,
)
from qubitpair.states import BlochForm, apply_local_unitary, bloch_decompose
from qubitpair.tolerances import SIGN_ZERO_BAND

REL = 1e-9
ABS = 1e-12


def invariance_deviation(before, after):
    """Relative deviation with absolute floor folded in."""
    a, b = before.as_array(), after.as_array()
    return np.max(np.abs(a - b) / np.maximum(np.abs(a), ABS / REL))


class TestMakhlinAll:
    def test_maximally_mixed_all_zero(self, maximally_mixed):
        inv = makhlin_all(bloch_decompose(maximally_mixed))
        assert_allclose(inv.as_array(), np.zeros(18), atol=1e-15)

    def test_ket00_hand_evaluated(self, ket00):
        # s = r = e_z, T = diag(0, 0, 1): every contraction collapses.
        inv = makhlin_all(bloch_decompose(ket00))
        expected = np.array(
            [0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0], dtype=float
        )
        assert_allclose(inv.as_array(), expected, atol=1e-14)

    def test_bell_symmetric_cross_checked_against_closed_form(self, bell_symmetric):
        # Closed form with a = d = 0, c = 1/2, b = 0 gives I1 = -1, I2 = 3.
        inv = makhlin_all(bloch_decompose(bell_symmetric))
        expected = np.zeros(18)
        expected[0], expected[1], expected[2] = -1.0, 3.0, 3.0
        assert_allclose(inv.as_array(), expected, atol=1e-13)

    def test_local_unitary_invariance(self, rng):
        for _ in range(200):
            rho = random_density_matrix(rng)
            before = makhlin_all(bloch_decompose(rho))
            rotated = apply_local_unitary(rho, qmat.haar_su2(rng), qmat.haar_su2(rng))
            after = makhlin_all(bloch_decompose(rotated))
            assert invariance_deviation(before, after) < REL

    def test_squares_are_nonnegative(self, rng):
        for _ in range(100):
            inv = makhlin_all(bloch_decompose(random_density_matrix(rng)))
            assert inv.i2 >= 0.0
            assert inv.i4 >= 0.0
            assert inv.i7 >= 0.0

    def test_symmetric_reductions(self, rng):
        for _ in range(200):
            inv = makhlin_all(bloch_decompose(random_symmetric_density_matrix(rng)))
            assert abs(inv.i4 - inv.i7) < 1e-10
            assert abs(inv.i5 - inv.i8) < 1e-10
            assert abs(inv.i6 - inv.i9) < 1e-10
            assert abs(inv.i10 - inv.i11) < 1e-10
            assert abs(inv.i15 - inv.i16) < 1e-10
            assert abs(inv.i17 - inv.i18) < 1e-10


def levi_civita():
    """Epsilon built from permutation parity, independent of the library."""
    eps = np.zeros((3, 3, 3))
    for perm in itertools.permutations(range(3)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(3), 2))
        eps[perm] = (-1.0) ** inversions
    return eps


EPS = levi_civita()
INDICES = list(itertools.product(range(3), repeat=3))


def eps_triple_loop(u, v, w):
    return sum(EPS[i, j, k] * u[i] * v[j] * w[k] for i, j, k in INDICES)


def i14_loop(s, r, t):
    return sum(
        EPS[i, j, k] * EPS[l, m, n] * s[i] * r[l] * t[j, m] * t[k, n]
        for i, j, k in INDICES
        for l, m, n in INDICES
    )


def cofactor(t):
    cof = np.empty((3, 3))
    for i, j in itertools.product(range(3), repeat=2):
        minor = np.delete(np.delete(t, i, axis=0), j, axis=1)
        cof[i, j] = (-1) ** (i + j) * (minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0])
    return cof


class TestEpsilonContractions:
    # Entries are at most 1 in magnitude and each loop sums at most 36
    # non-zero float64 products, so reordering the sum moves it by < 1e-13.
    ATOL = 1e-13

    def test_epsilon_parity(self):
        assert EPS[0, 1, 2] == 1.0 and EPS[0, 2, 1] == -1.0
        assert np.count_nonzero(EPS) == 6

    def test_against_explicit_loops(self, rng):
        for _ in range(40):
            form = bloch_decompose(random_density_matrix(rng))
            s, r, t = form.s, form.r, form.t
            tt, ttr = t @ t.T, t.T @ t
            inv = makhlin_all(form)
            expected = {
                "i10": eps_triple_loop(s, tt @ s, tt @ tt @ s),
                "i11": eps_triple_loop(r, ttr @ r, ttr @ ttr @ r),
                "i14": i14_loop(s, r, t),
                "i15": eps_triple_loop(s, tt @ s, t @ r),
                "i16": eps_triple_loop(t.T @ s, r, ttr @ r),
                "i17": eps_triple_loop(t.T @ s, ttr @ t.T @ s, r),
                "i18": eps_triple_loop(s, t @ r, tt @ t @ r),
            }
            for name, value in expected.items():
                assert abs(getattr(inv, name) - value) < self.ATOL, name

    def test_i14_is_twice_cofactor_form(self, rng):
        for _ in range(100):
            form = bloch_decompose(random_density_matrix(rng))
            expected = 2.0 * form.s @ cofactor(form.t) @ form.r
            assert abs(makhlin_all(form).i14 - expected) < self.ATOL


class TestSymmetricSix:
    def test_bell_symmetric(self, bell_symmetric):
        six = symmetric_six(bloch_decompose(bell_symmetric))
        assert_allclose(six.as_array(), [-1.0, 3.0, 0.0, 0.0, 0.0, 0.0], atol=1e-13)

    def test_dicke_4_1(self):
        six = symmetric_six(bloch_decompose(dicke_pair(4, 1).to_matrix()))
        assert abs(six.i4 - 0.25) < 1e-14
        assert abs(six.i12 - 0.0) < 1e-14
        assert abs(six.i14 - 0.125) < 1e-14

    def test_ket00(self, ket00):
        six = symmetric_six(bloch_decompose(ket00))
        assert_allclose(six.as_array(), [0.0, 1.0, 1.0, 0.0, 1.0, 0.0], atol=1e-14)

    def test_matches_full_set(self, rng):
        for _ in range(100):
            form = bloch_decompose(random_symmetric_density_matrix(rng))
            six = symmetric_six(form)
            inv = makhlin_all(form)
            assert_allclose(
                six.as_array(),
                [inv.i1, inv.i2, inv.i4, inv.i10, inv.i12, inv.i14],
                atol=1e-12,
            )

    def test_rejects_non_symmetric(self, rng):
        rho = random_density_matrix(rng)
        with pytest.raises(NotSymmetricState):
            symmetric_six(bloch_decompose(rho))


class TestI10DiagonalFrame:
    def test_zero_spin_component(self):
        assert i10_diagonal_frame([0.6, 0.3, 0.1], [0.0, 0.3, 0.1]) == 0.0

    def test_degenerate_spectrum(self):
        assert abs(i10_diagonal_frame([1.0, 1.0, -1.0], [0.2, 0.3, 0.4])) < 1e-15

    def test_equals_contraction_form(self):
        t_eigs = np.array([0.6, 0.3, 0.1])
        s = np.array([0.2, 0.3, 0.1])
        form = BlochForm(s=s, r=s, t=np.diag(t_eigs))
        assert abs(
            i10_diagonal_frame(t_eigs, s) - makhlin_all(form).i10
        ) < 1e-10

    def test_random_diagonal_frames(self, rng):
        for _ in range(100):
            t_eigs = rng.uniform(-1.0, 1.0, size=3)
            s = rng.uniform(-0.5, 0.5, size=3)
            form = BlochForm(s=s, r=s, t=np.diag(t_eigs))
            assert abs(
                i10_diagonal_frame(t_eigs, s) - makhlin_all(form).i10
            ) < 1e-10


class TestXFormInvariants:
    def test_bell_symmetric(self, bell_symmetric):
        from qubitpair.states import xform_extract

        six = xform_invariants(xform_extract(bell_symmetric))
        assert_allclose(six.as_array(), [-1.0, 3.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_ising_3_halfpi(self):
        six = xform_invariants(ising_pair(3, np.pi / 2))
        assert abs(six.i4 - 0.25) < 1e-12
        assert abs(six.i12 - 0.1875) < 1e-12
        assert abs(six.i14 - (-0.125)) < 1e-12

    def test_product_state(self):
        from qubitpair.states import XForm

        six = xform_invariants(XForm(a=1.0, b=0j, c=0.0, d=0.0))
        assert_allclose(six.as_array(), [0.0, 1.0, 1.0, 0.0, 1.0, 0.0], atol=1e-15)

    def test_closed_form_equals_pipeline(self, rng):
        for _ in range(200):
            x = random_xform(rng)
            closed = xform_invariants(x)
            pipeline = symmetric_six(bloch_decompose(x.to_matrix()))
            assert_allclose(closed.as_array(), pipeline.as_array(), atol=1e-12)


class TestXFormRelationCheck:
    def test_holds_on_random_xforms(self, rng):
        checked = 0
        for _ in range(500):
            six = xform_invariants(random_xform(rng))
            if abs(six.i4) <= 1e-8:
                continue
            checked += 1
            assert xform_relation_check(six)
        assert checked > 400

    def test_dicke_4_1(self):
        six = xform_invariants(dicke_pair(4, 1))
        assert xform_relation_check(six)

    def test_i4_zero_raises(self, bell_symmetric):
        from qubitpair.states import xform_extract

        six = xform_invariants(xform_extract(bell_symmetric))
        with pytest.raises(I4Zero):
            xform_relation_check(six)

    @pytest.mark.parametrize("i4", [
        0.0, -0.0, SIGN_ZERO_BAND, -SIGN_ZERO_BAND, np.nextafter(SIGN_ZERO_BAND, 1.0),
        -np.nextafter(SIGN_ZERO_BAND, 1.0), 0.25, np.nan])
    def test_reads_the_one_i4_zero_rule(self, i4):
        # The relation check, invariant_criteria and the criteria columns the
        # evidence reads refuse the same I4 with the same message.
        from qubitpair.separability import _criteria_columns, invariant_criteria

        six = SymmetricSix(i1=0.0, i2=1.0, i4=float(i4), i10=0.0, i12=0.0, i14=0.0)
        fallback = _criteria_columns(np.array([i4]), np.zeros(1), np.zeros(1))[2][0]
        assert fallback == (abs(i4) <= SIGN_ZERO_BAND)
        for check in (xform_relation_check, invariant_criteria):
            if fallback:
                message = f"I4 = {i4:.3e} is inside the zero band 1.0e-10"
                with pytest.raises(I4Zero, match=f"^{re.escape(message)}$"):
                    check(six)
            else:
                check(six)


class TestTEigenvaluesFromInvariants:
    def test_bell_values(self):
        assert_allclose(
            t_eigenvalues_from_invariants(-1.0, 3.0), [1.0, 1.0, -1.0], atol=1e-9
        )

    def test_rank_one(self):
        assert_allclose(
            t_eigenvalues_from_invariants(0.0, 1.0), [1.0, 0.0, 0.0], atol=1e-9
        )

    def test_matches_direct_spectrum(self, rng):
        for _ in range(200):
            form = bloch_decompose(random_symmetric_density_matrix(rng))
            inv = makhlin_all(form)
            roots = t_eigenvalues_from_invariants(inv.i1, inv.i2)
            direct = np.sort(qmat.hermitian_eigenvalues(form.t))[::-1]
            assert_allclose(roots, direct, atol=1e-9)

    def test_power_sums(self, rng):
        for _ in range(100):
            form = bloch_decompose(random_symmetric_density_matrix(rng))
            inv = makhlin_all(form)
            roots = t_eigenvalues_from_invariants(inv.i1, inv.i2)
            assert abs(np.sum(roots) - 1.0) < 1e-9
            assert abs(np.sum(roots ** 2) - inv.i2) < 1e-9
            assert abs(np.prod(roots) - inv.i1) < 1e-9

    def test_unrealizable_pair_raises(self):
        with pytest.raises(NoRealSpectrum):
            t_eigenvalues_from_invariants(1.0, 0.0)

    @pytest.mark.parametrize("cast", [float, np.float64])
    @pytest.mark.parametrize("i1, i2", [
        (np.nan, 0.5), (0.5, np.nan), (0.0, np.inf), (0.0, -np.inf), (np.inf, 1.0),
        (-np.inf, -np.inf), (1e300, 1e300), (0.0, 1e300)])
    def test_non_finite_or_overflowing_input_raises(self, i1, i2, cast):
        # A NaN once passed the min/max clamp as -1, inf warned, and an
        # overflowing cube raised a bare OverflowError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoRealSpectrum, match=r"^cubic discriminant (nan|-inf) is not >= -1e-10;"):
                t_eigenvalues_from_invariants(cast(i1), cast(i2))

    @pytest.mark.parametrize("cast", [float, np.float64])
    def test_largest_spectra_keep_their_bits(self, cast):
        # -4 P^3 overflows to inf in the multiply, not in the cube: the
        # discriminant is +inf and the spectrum finite, for either float type.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = t_eigenvalues_from_invariants(cast(0.0), cast(8e102))
        assert [float(v).hex() for v in roots] == [
            "0x1.561d276ddfdc0p+170", "0x1.b3c0d880e45b3p+116", "-0x1.561d276ddfdc1p+170"]

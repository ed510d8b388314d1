import numpy as np
import pytest
from numpy.testing import assert_allclose

from qubitpair import qmat
from qubitpair.errors import (
    InvalidDensityMatrix,
    NotPositive,
    NotUnitary,
    NotXForm,
)
from qubitpair.sampling import random_density_matrix, random_symmetric_density_matrix, random_xform
from qubitpair.states import (
    BlochForm,
    XForm,
    apply_local_unitary,
    assert_density_matrix,
    bloch_compose,
    bloch_decompose,
    is_symmetric,
    xform_extract,
)


class TestBlochDecompose:
    def test_product_eigenstate(self, ket00):
        form = bloch_decompose(ket00)
        assert_allclose(form.s, [0, 0, 1], atol=1e-14)
        assert_allclose(form.r, [0, 0, 1], atol=1e-14)
        assert_allclose(form.t, np.diag([0.0, 0.0, 1.0]), atol=1e-14)

    def test_bell_symmetric(self, bell_symmetric):
        # Direct trace evaluation gives s = r = 0 and T = diag(1, 1, -1).
        form = bloch_decompose(bell_symmetric)
        assert_allclose(form.s, np.zeros(3), atol=1e-14)
        assert_allclose(form.r, np.zeros(3), atol=1e-14)
        assert_allclose(form.t, np.diag([1.0, 1.0, -1.0]), atol=1e-14)

    def test_maximally_mixed(self, maximally_mixed):
        form = bloch_decompose(maximally_mixed)
        assert_allclose(form.s, np.zeros(3), atol=1e-15)
        assert_allclose(form.r, np.zeros(3), atol=1e-15)
        assert_allclose(form.t, np.zeros((3, 3)), atol=1e-15)

    def test_roundtrip_random(self, rng):
        for _ in range(100):
            rho = random_density_matrix(rng)
            assert_allclose(bloch_compose(bloch_decompose(rho)), rho, atol=1e-12)

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 0.3
        with pytest.raises(InvalidDensityMatrix):
            bloch_decompose(rho)


class TestBlochCompose:
    def test_zero_form_is_maximally_mixed(self, maximally_mixed):
        form = BlochForm(s=np.zeros(3), r=np.zeros(3), t=np.zeros((3, 3)))
        assert_allclose(bloch_compose(form), maximally_mixed, atol=1e-15)

    def test_inverse_of_decompose(self, ket00):
        form = BlochForm(s=[0, 0, 1], r=[0, 0, 1], t=np.diag([0.0, 0.0, 1.0]))
        assert_allclose(bloch_compose(form), ket00, atol=1e-15)

    def test_unphysical_parameters_rejected(self):
        # T = diag(1, 1, 1) with s = r = 0 has an eigenvalue below zero.
        form = BlochForm(s=np.zeros(3), r=np.zeros(3), t=np.eye(3))
        rho = 0.25 * (np.eye(4) + sum(
            qmat.kron(p, p) for p in qmat.PAULIS
        ))
        assert np.linalg.eigvalsh(rho)[0] < -1e-9  # confirm it is unphysical
        with pytest.raises(NotPositive):
            bloch_compose(form)


class TestIsSymmetric:
    def test_bell_symmetric_true(self, bell_symmetric):
        assert is_symmetric(bell_symmetric)

    def test_singlet_false(self, singlet_state):
        assert not is_symmetric(singlet_state)

    def test_ket01_false(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0
        assert not is_symmetric(rho)

    def test_random_triplet_states(self, rng):
        for _ in range(50):
            assert is_symmetric(random_symmetric_density_matrix(rng))

    def test_swap_commuting_with_singlet_weight_is_not_symmetric(
        self, bell_symmetric, singlet_state
    ):
        # Commutes with SWAP but has singlet population.
        mixed = 0.5 * bell_symmetric + 0.5 * singlet_state
        assert not is_symmetric(mixed)


class TestXFormExtract:
    def test_dicke_pair(self):
        from qubitpair.models import dicke_pair

        x = xform_extract(dicke_pair(4, 1).to_matrix())
        assert_allclose([x.a, x.c, x.d], [0.5, 0.25, 0.0], atol=1e-15)
        assert x.b == 0

    def test_bell_symmetric(self, bell_symmetric):
        x = xform_extract(bell_symmetric)
        assert_allclose([x.a, x.c, x.d], [0.0, 0.5, 0.0], atol=1e-15)

    def test_ket01_not_xform(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0
        with pytest.raises(NotXForm):
            xform_extract(rho)

    def test_roundtrip(self, rng):
        for _ in range(50):
            x = random_xform(rng)
            back = xform_extract(x.to_matrix())
            assert_allclose(
                [back.a, back.c, back.d, back.b.real, back.b.imag],
                [x.a, x.c, x.d, x.b.real, x.b.imag],
                atol=1e-15,
            )

    def test_xform_bloch_structure(self, rng):
        # Every valid pattern gives s = r = (0, 0, a - d) and symmetric T.
        for _ in range(50):
            x = random_xform(rng)
            form = bloch_decompose(x.to_matrix())
            assert_allclose(form.s, [0.0, 0.0, x.a - x.d], atol=1e-13)
            assert_allclose(form.r, form.s, atol=1e-13)
            assert_allclose(form.t, form.t.T, atol=1e-13)
            assert abs(np.trace(form.t) - 1.0) < 1e-12


class TestXFormValidation:
    def test_trace_constraint(self):
        with pytest.raises(InvalidDensityMatrix):
            XForm(a=0.5, b=0j, c=0.5, d=0.5)

    def test_corner_block_psd(self):
        with pytest.raises(NotPositive):
            XForm(a=0.1, b=0.5 + 0j, c=0.25, d=0.4)

    def test_negative_diagonal(self):
        with pytest.raises(NotPositive):
            XForm(a=-0.1, b=0j, c=0.25, d=0.6)


class TestApplyLocalUnitary:
    def test_identity(self, rng):
        rho = random_density_matrix(rng)
        assert_allclose(
            apply_local_unitary(rho, qmat.IDENTITY_2, qmat.IDENTITY_2), rho, atol=1e-15
        )

    def test_bit_flip(self, ket00):
        u = 1j * qmat.SIGMA_X  # special-unitary representative of the flip
        rho = apply_local_unitary(ket00, u, u)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 3] = 1.0
        assert_allclose(rho, expected, atol=1e-15)

    def test_bloch_transformation_law(self, rng):
        for _ in range(50):
            rho = random_density_matrix(rng)
            u1, u2 = qmat.haar_su2(rng), qmat.haar_su2(rng)
            o1, o2 = qmat.su2_to_so3(u1), qmat.su2_to_so3(u2)
            before = bloch_decompose(rho)
            after = bloch_decompose(apply_local_unitary(rho, u1, u2))
            assert_allclose(after.s, o1 @ before.s, atol=1e-10)
            assert_allclose(after.r, o2 @ before.r, atol=1e-10)
            assert_allclose(after.t, o1 @ before.t @ o2.T, atol=1e-10)

    def test_trace_preserved(self, rng):
        rho = random_density_matrix(rng)
        out = apply_local_unitary(rho, qmat.haar_su2(rng), qmat.haar_su2(rng))
        assert abs(np.trace(out) - 1.0) < 1e-12

    def test_symmetric_closed_under_identical_unitaries(self, rng):
        for _ in range(30):
            rho = random_symmetric_density_matrix(rng)
            u = qmat.haar_su2(rng)
            assert is_symmetric(apply_local_unitary(rho, u, u))

    def test_rejects_non_unitary(self, ket00):
        with pytest.raises(NotUnitary):
            apply_local_unitary(ket00, np.ones((2, 2)), qmat.IDENTITY_2)

    def test_stack_is_each_state_conjugated_alone(self, rng):
        rhos = np.array([random_density_matrix(rng) for _ in range(8)])
        u1 = np.array([qmat.haar_su2(rng) for _ in range(8)])
        u2 = np.array([qmat.haar_su2(rng) for _ in range(8)])
        got = apply_local_unitary(rhos, u1, u2)
        assert got.shape == (8, 4, 4)
        for g, rho, a, b in zip(got, rhos, u1, u2):
            assert np.array_equal(g.view(np.uint64), apply_local_unitary(rho, a, b).view(np.uint64))
        # One state under a stack of rotations.
        assert np.array_equal(apply_local_unitary(rhos[0], u1, u2[0])[5],
                              apply_local_unitary(rhos[0], u1[5], u2[0]))

    def test_stack_with_one_non_unitary_factor_is_refused(self, rng):
        u2 = np.array([qmat.haar_su2(rng) for _ in range(4)])
        u2[2] *= 1.01
        with pytest.raises(NotUnitary, match="^u2 "):
            apply_local_unitary(random_density_matrix(rng), qmat.IDENTITY_2, u2)


class TestAssertDensityMatrix:
    def test_accepts_random_states(self, rng):
        assert_density_matrix(random_density_matrix(rng))

    def test_names_trace_violation(self):
        with pytest.raises(InvalidDensityMatrix, match="trace"):
            assert_density_matrix(np.eye(4, dtype=complex) * 0.225)

    def test_names_positivity_violation(self, bell_symmetric, singlet_state):
        rho = 1.2 * bell_symmetric - 0.2 * singlet_state
        with pytest.raises(NotPositive):
            assert_density_matrix(rho)

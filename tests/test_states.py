import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qubitpair import qmat
from qubitpair.errors import (
    EntryOverflow,
    InconsistentClassification,
    InvalidDensityMatrix,
    NotPositive,
    NotSpecialUnitary,
    NotUnitary,
    NotXForm,
)
from qubitpair.separability import classify
from qubitpair.sampling import random_density_matrix, random_symmetric_density_matrix, random_xform
from qubitpair.states import (
    BlochForm,
    XForm,
    _conjugate,
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

    def test_to_matrix_is_the_block_assembly(self, symmetric_forms, rng):
        # The coefficient array c[m, n] of sigma_m (x) sigma_n, assembled with np.block.
        sigmas = (np.eye(2),) + qmat.PAULIS
        basis = np.array([qmat.kron(p, q) for p in sigmas for q in sigmas]).reshape(4, 4, 4, 4)
        forms = symmetric_forms + [bloch_decompose(random_density_matrix(rng)) for _ in range(60)]
        for form in forms:
            c = np.block([[np.ones((1, 1)), form.r[None, :]], [form.s[:, None], form.t]])
            expected = 0.25 * np.einsum("mn,mnij->ij", c, basis)
            assert form.to_matrix().tobytes() == expected.astype(complex).tobytes()

    def test_unphysical_parameters_rejected(self):
        # T = diag(1, 1, 1) with s = r = 0 has an eigenvalue below zero.
        form = BlochForm(s=np.zeros(3), r=np.zeros(3), t=np.eye(3))
        rho = 0.25 * (np.eye(4) + sum(
            qmat.kron(p, p) for p in qmat.PAULIS
        ))
        assert np.linalg.eigvalsh(rho)[0] < -1e-9  # confirm it is unphysical
        with pytest.raises(NotPositive, match=r"^not positive semidefinite: min eigenvalue -5\.000e-01$"):
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

    def test_the_gate_free_product_is_the_gated_one(self, rng):
        # The self-test rotates by su2_from_normals factors through _conjugate.
        rhos = np.array([random_density_matrix(rng) for _ in range(8)])
        u = qmat.su2_from_normals(rng.normal(size=(8, 2, 4)))
        got = _conjugate(rhos, u[:, 0], u[:, 1])
        want = apply_local_unitary(rhos, u[:, 0], u[:, 1])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_stack_with_one_non_unitary_factor_is_refused(self, rng):
        u2 = np.array([qmat.haar_su2(rng) for _ in range(4)])
        u2[2] *= 1.01
        with pytest.raises(NotUnitary, match="^u2 "):
            apply_local_unitary(random_density_matrix(rng), qmat.IDENTITY_2, u2)

    # A 3x3 or 1x1 unitary passes a unitarity test of any size, and a
    # non-square one fails it; each is refused by its shape before any product.
    @pytest.mark.parametrize("factor", [np.eye(3), np.eye(1), np.ones((2, 3))])
    @pytest.mark.parametrize("name", ["u1", "u2"])
    def test_a_factor_that_is_not_2x2_is_refused_by_its_shape(self, ket00, factor, name):
        factors = {"u1": qmat.IDENTITY_2, "u2": qmat.IDENTITY_2, name: factor}
        message = f"{name} must be a 2x2 matrix or a stack of them, got shape {factor.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply_local_unitary(ket00, factors["u1"], factors["u2"])

    # A non-finite or huge entry is refused by the unitarity gate with its
    # own class and message, and without a warning (the test configuration
    # turns a RuntimeWarning into an error).
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1e200, complex(0.0, np.nan)])
    def test_a_non_finite_or_huge_factor_is_refused_without_a_warning(self, ket00, entry):
        u = np.array([[entry, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NotUnitary, match=r"^u1 is not unitary within tol 1\.0e-10$"):
            apply_local_unitary(ket00, u, qmat.IDENTITY_2)
        with pytest.raises(NotUnitary, match=r"^u2 is not unitary within tol 1\.0e-10 in matrix 1$"):
            apply_local_unitary(ket00, qmat.IDENTITY_2, np.array([qmat.IDENTITY_2, u]))
        with pytest.raises(NotSpecialUnitary, match=r"^matrix is not unitary$"):
            qmat.su2_to_so3(u)


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

    def test_entry_bound_refuses_no_state_the_psd_stage_accepts(self):
        # lambda_max = 1 + 3e-9 with the other three eigenvalues on the PSD floor.
        assert_density_matrix(np.diag([1.0 + 3e-9, -1e-9, -1e-9, -1e-9]))

    def test_overflowing_entry_is_refused_before_the_solve(self):
        # Finite, Hermitian and of unit trace; the eigen solve would overflow
        # on it, and its own bound refuses it.  The evidence meets that bound
        # before its entry rule, which would refuse the Pauli trace
        # <I (x) sigma_z> that overflows to inf, so both raise alike.
        rho = np.diag([1.5e308, -1.5e308, 1.0, 0.0])
        for check in (assert_density_matrix, classify):
            with pytest.raises(EntryOverflow, match=(
                    r"^entry part 1\.500e\+308 exceeds the eigen solve's bound 8\.988e\+307$")):
                check(rho)


def perturbed_state(seed: int, symmetric: bool, defect: float) -> np.ndarray:
    """A random state plus an anti-Hermitian perturbation of Hermiticity defect ``defect``."""
    rng = np.random.default_rng(seed)
    rho = (random_symmetric_density_matrix if symmetric else random_density_matrix)(rng)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    anti = g - g.conj().T
    return rho + anti * (defect / qmat.hermiticity_defect(anti))


class TestHermiticityBand:
    """A state inside the Hermiticity band is read as its Hermitian part by
    every path: validated, decomposed and classified without a refusal."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.floats(0.0, 0.9e-10))
    @example(0, True, 0.9e-10)
    @example(1, False, 0.9e-10)
    def test_anti_hermitian_perturbation_is_accepted(self, seed, symmetric, defect):
        rho = perturbed_state(seed, symmetric, defect)
        assert qmat.hermiticity_defect(rho) <= 0.9e-10 + 1e-15
        assert_density_matrix(rho)
        got, want = bloch_decompose(rho), bloch_decompose(0.5 * (rho + rho.conj().T))
        for name in ("s", "r", "t"):
            assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-15)
        if symmetric:
            try:
                classify(rho)
            except InconsistentClassification:  # a criterion firing inside the PT zero band
                pass

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qubitpair import qmat
from qubitpair.errors import NotHermitian, NotSpecialUnitary, NotUnitary


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


class TestKron:
    def test_identity(self):
        assert_allclose(qmat.kron(qmat.IDENTITY_2, qmat.IDENTITY_2), np.eye(4))

    def test_diagonal_paulis(self):
        assert_allclose(
            qmat.kron(qmat.SIGMA_Z, qmat.SIGMA_Z), np.diag([1.0, -1.0, -1.0, 1.0])
        )

    def test_bit_flip_structure(self):
        assert_allclose(qmat.kron(qmat.SIGMA_X, qmat.SIGMA_X), np.eye(4)[::-1])

    def test_bilinear(self, rng):
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        lhs = qmat.kron(2.0 * a + 3.0 * b, c)
        rhs = 2.0 * qmat.kron(a, c) + 3.0 * qmat.kron(b, c)
        assert_allclose(lhs, rhs, atol=1e-12)

    def test_mixed_product(self, rng):
        for _ in range(20):
            a, b, c, d = (
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4)
            )
            lhs = qmat.kron(a, b) @ qmat.kron(c, d)
            rhs = qmat.kron(a @ c, b @ d)
            assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("shape_a, shape_b", [
        ((2, 2), (2, 2)), ((4, 4), (4, 4)), ((2, 4), (4, 2)), ((2, 2), (2, 4)), ((4, 4), (2, 2)),
    ])
    def test_equals_numpy_kron_bit_for_bit(self, rng, shape_a, shape_b):
        def operand(shape):
            m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            zeros = rng.uniform(size=shape) < 0.3  # signed zeros in either part
            m.real[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
            m.imag[~zeros & (rng.uniform(size=shape) < 0.3)] = -0.0
            return m

        for _ in range(200):
            a, b = operand(shape_a), operand(shape_b)
            got, want = qmat.kron(a, b), np.kron(a, b)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_stack_is_the_kron_of_each_pair(self, rng):
        a = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
        b = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
        got = qmat.kron_stack(a, b)
        assert got.shape == (6, 4, 4)
        for g, x, y in zip(got, a, b):
            assert np.array_equal(g.view(np.uint64), qmat.kron(x, y).view(np.uint64))
        # Leading axes broadcast: one matrix against a stack.
        assert np.array_equal(qmat.kron_stack(a[0], b)[3], qmat.kron(a[0], b[3]))

    @pytest.mark.parametrize("a, b", [
        (np.ones(2), np.eye(2)), (np.eye(2), np.ones((2, 2, 2))), (np.array(1.0), np.eye(2)),
    ])
    def test_rejects_operands_that_are_not_2d(self, a, b):
        with pytest.raises(ValueError, match="2-D operands"):
            qmat.kron(a, b)


class TestHermitianEigenvalues:
    def test_diagonal_input(self):
        assert_allclose(
            qmat.hermitian_eigenvalues(np.diag([0.5, 0.0, 0.0, 0.5])),
            [0.0, 0.0, 0.5, 0.5],
            atol=1e-14,
        )

    def test_bell_correlation_matrix(self):
        assert_allclose(
            qmat.hermitian_eigenvalues(np.diag([1.0, 1.0, -1.0])),
            [-1.0, 1.0, 1.0],
            atol=1e-14,
        )

    def test_bell_symmetric_pt_spectrum(self, bell_symmetric):
        from qubitpair.separability import partial_transpose

        # Closed form with a = d = 0, c = 1/2, b = 0: ((a+d) -/+ 1)/2 and c -/+ 0.
        assert_allclose(
            qmat.hermitian_eigenvalues(partial_transpose(bell_symmetric)),
            [-0.5, 0.5, 0.5, 0.5],
            atol=1e-12,
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_numpy_complex(self, rng, n):
        for _ in range(50):
            m = random_hermitian(rng, n)
            assert_allclose(
                qmat.hermitian_eigenvalues(m), np.linalg.eigvalsh(m), atol=1e-11
            )

    def test_matches_numpy_real_symmetric_3x3(self, rng):
        for _ in range(200):
            m = rng.normal(size=(3, 3))
            m = 0.5 * (m + m.T)
            assert_allclose(
                qmat.hermitian_eigenvalues(m), np.linalg.eigvalsh(m), atol=1e-11
            )

    def test_sum_is_trace_product_is_det(self, rng):
        for _ in range(100):
            m = rng.normal(size=(3, 3))
            m = 0.5 * (m + m.T)
            eigs = qmat.hermitian_eigenvalues(m)
            assert abs(np.sum(eigs) - np.trace(m)) < 1e-10
            assert abs(np.prod(eigs) - np.linalg.det(m)) < 1e-10

    def test_sorted_ascending(self, rng):
        m = random_hermitian(rng, 4)
        eigs = qmat.hermitian_eigenvalues(m)
        assert np.all(np.diff(eigs) >= 0)

    def test_not_hermitian_raises(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(NotHermitian):
            qmat.hermitian_eigenvalues(m)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            qmat.hermitian_eigenvalues(np.eye(5))


class TestHermitianEigenvaluesStack:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_each_matrix_gets_the_2d_values(self, rng, n):
        stack = np.array([random_hermitian(rng, n) for _ in range(60)]).reshape(3, 20, n, n)
        got = qmat.hermitian_eigenvalues(stack)
        assert got.shape == (3, 20, n)
        for idx in np.ndindex(3, 20):
            assert np.array_equal(got[idx], qmat.hermitian_eigenvalues(stack[idx]))

    def test_one_matrix_outside_the_band_raises(self, rng):
        stack = np.array([random_hermitian(rng, 4) for _ in range(5)])
        stack[3, 0, 1] += 1e-8
        stack[4, 2, 1] += 1e-6
        with pytest.raises(NotHermitian, match=r"defect 1\.000e-08 exceeds tol .* in matrix 3$"):
            qmat.hermitian_eigenvalues(stack)

    def test_defect_inside_the_band_is_accepted(self, rng):
        stack = np.array([random_hermitian(rng, 4) for _ in range(3)])
        stack[1, 0, 1] += 5e-11
        assert qmat.hermitian_eigenvalues(stack).shape == (3, 4)

    @pytest.mark.parametrize("shape", [(2, 5, 5), (3, 4, 3), (4,), ()])
    def test_shapes_rejected(self, shape):
        with pytest.raises(ValueError):
            qmat.hermitian_eigenvalues(np.zeros(shape))


class TestHermiticityDefect:
    """One defect rule for one matrix, a stack, and every gate that reads it."""

    def test_stack_is_the_per_matrix_defect(self, rng):
        stack = np.array([random_hermitian(rng, 4) for _ in range(12)]).reshape(3, 4, 4, 4)
        stack[1, 2, 0, 3] += 2.5e-7
        got = qmat.hermiticity_defect(stack)
        assert got.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            m = stack[idx]
            assert got[idx] == qmat.hermiticity_defect(m) == np.max(np.abs(m - m.conj().T))
        assert got[1, 2] == pytest.approx(2.5e-7) and np.count_nonzero(got) == 1

    def test_one_matrix_gives_a_float(self):
        assert isinstance(qmat.hermiticity_defect(np.eye(3)), float)

    # inf - inf on the diagonal makes a NaN, which the defect maps to inf
    # without a RuntimeWarning (the test configuration turns one into an error).
    @pytest.mark.parametrize("value, at", [
        (np.nan, (2, 2)), (np.nan, (0, 3)), (np.inf, (1, 1)), (-np.inf, (3, 0)),
        (complex(0.0, np.nan), (1, 2)),
    ])
    def test_non_finite_matrix_has_infinite_defect(self, value, at):
        m = np.eye(4, dtype=complex) / 4.0
        m[at] = value
        assert qmat.hermiticity_defect(m) == np.inf
        stack = np.array([np.eye(4) / 4.0, m, m])
        assert qmat.hermiticity_defect(stack).tolist() == [0.0, np.inf, np.inf]

    def test_nan_on_the_diagonal_raises_not_hermitian(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[2, 2] = np.nan
        with pytest.raises(NotHermitian, match=r"^Hermiticity defect inf exceeds tol 1\.0e-10$"):
            qmat.hermitian_eigenvalues(m)
        with pytest.raises(NotHermitian, match=r"defect inf exceeds tol .* in matrix 1$"):
            qmat.hermitian_eigenvalues(np.array([np.eye(4) / 4.0, m]))


def bloch_vector(rho):
    return np.array([np.real(np.trace(rho @ s)) for s in qmat.PAULIS])


class TestUnitarityGate:
    def test_stack_defect_is_the_per_matrix_defect(self, rng):
        stack = np.array([qmat.haar_su2(rng) for _ in range(5)])
        stack[3, 0, 1] += 1e-3
        defect = qmat.unitarity_defect(stack)
        assert defect.shape == (5,)
        for d, u in zip(defect, stack):
            assert d == qmat.unitarity_defect(u) == np.max(np.abs(u @ u.conj().T - np.eye(2)))
        assert np.flatnonzero(defect > 1e-6).tolist() == [3]

    def test_require_unitary_refuses_a_stack_with_one_bad_matrix(self, rng):
        stack = np.array([qmat.haar_su2(rng) for _ in range(5)])
        assert qmat.require_unitary(stack, name="u1") is stack  # already complex: no copy
        stack[4, 1, 1] = np.nan
        with pytest.raises(NotUnitary, match="^u1 is not unitary"):
            qmat.require_unitary(stack, name="u1")

    def test_is_unitary_takes_one_matrix_only(self):
        assert qmat.is_unitary(qmat.IDENTITY_2)
        assert not qmat.is_unitary(np.array([qmat.IDENTITY_2] * 2))


class TestSu2ToSo3:
    def test_identity(self):
        assert_allclose(qmat.su2_to_so3(qmat.IDENTITY_2), np.eye(3), atol=1e-14)

    def test_z_rotation_on_basis_states(self):
        # U = exp(-i sigma_z pi/4) rotates every Bloch vector by pi/2 about z.
        u = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
        o = qmat.su2_to_so3(u)
        for axis in range(3):
            vec = np.zeros(3)
            vec[axis] = 1.0
            rho = 0.5 * (qmat.IDENTITY_2 + sum(v * s for v, s in zip(vec, qmat.PAULIS)))
            rotated = bloch_vector(u @ rho @ u.conj().T)
            assert_allclose(rotated, o @ vec, atol=1e-12)

    def test_haar_output_is_rotation(self, rng):
        for _ in range(50):
            o = qmat.su2_to_so3(qmat.haar_su2(rng))
            assert_allclose(o @ o.T, np.eye(3), atol=1e-10)
            assert abs(np.linalg.det(o) - 1.0) < 1e-10

    def test_group_homomorphism(self, rng):
        for _ in range(50):
            u, v = qmat.haar_su2(rng), qmat.haar_su2(rng)
            assert_allclose(
                qmat.su2_to_so3(u @ v),
                qmat.su2_to_so3(u) @ qmat.su2_to_so3(v),
                atol=1e-10,
            )

    def test_global_sign_irrelevant(self, rng):
        u = qmat.haar_su2(rng)
        assert_allclose(qmat.su2_to_so3(u), qmat.su2_to_so3(-u), atol=1e-12)

    def test_rejects_non_special(self):
        with pytest.raises(NotSpecialUnitary):
            qmat.su2_to_so3(np.diag([1.0, 1j]))  # unitary, det = i
        with pytest.raises(NotSpecialUnitary):
            qmat.su2_to_so3(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestHaarSu2:
    def test_deterministic_for_seed(self):
        u1 = qmat.haar_su2(np.random.default_rng(7))
        u2 = qmat.haar_su2(np.random.default_rng(7))
        assert np.array_equal(u1, u2)

    def test_special_unitary(self, rng):
        for _ in range(100):
            u = qmat.haar_su2(rng)
            assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
            det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
            assert abs(det - 1.0) < 1e-12

    def test_rows_are_the_one_vector_normalization(self, rng):
        # A frozen copy of the one-draw sampler before it took stacks:
        # np.linalg.norm of one vector is a BLAS dot product.
        def one_draw(v):
            a, b, c, d = v / np.linalg.norm(v)
            return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]], dtype=complex)

        normals = rng.normal(size=(4000, 4))
        got = qmat.su2_from_normals(normals.reshape(40, 100, 4)).reshape(-1, 2, 2)
        for u, v in zip(got, normals):
            assert np.array_equal(u.view(np.uint64), one_draw(v).view(np.uint64))
        assert qmat.su2_from_normals(normals[0]).shape == (2, 2)

    def test_haar_moment(self):
        # E|U_00|^2 = 1/2 for Haar on SU(2).
        rng = np.random.default_rng(123)
        samples = [abs(qmat.haar_su2(rng)[0, 0]) ** 2 for _ in range(10_000)]
        assert abs(np.mean(samples) - 0.5) < 0.02

import numpy as np
import pytest

from tractionlab.algebra import Density, J2, rodrigues, skew2, skew3


def sym(M):
    return 0.5 * (M + M.T)


class TestSkewParam:
    """``skew2`` and ``skew3`` build the skew matrices themselves."""

    def test_matrix_2d(self):
        W = skew2(2.0)
        assert np.array_equal(W, 2.0 * J2)
        assert np.array_equal(W.T, -W)
        assert skew2(1.0) is not J2

    def test_matrix_3d_cross_product(self):
        W = skew3([1.0, -2.0, 0.5])
        x = np.array([0.3, 0.7, -1.1])
        assert np.allclose(W @ x, np.cross([1.0, -2.0, 0.5], x))
        assert np.array_equal(W.T, -W)

    def test_unit_norms(self):
        assert np.sum(skew2(1.0) ** 2) == 2.0
        assert np.sum(skew3([0.0, 0.0, 1.0]) ** 2) == 2.0


class TestSkewSquare:
    """W @ W of the ``skew2``/``skew3`` matrices: -a^2 I and w (x) w - |w|^2 I."""

    def test_2d_unit_is_minus_identity(self):
        W = skew2(1.0)
        assert np.array_equal(W @ W, -np.eye(2))

    def test_3d_axis_e3(self):
        # w (x) w - |w|^2 I expanded by hand
        W = skew3([0, 0, 1])
        assert np.allclose(W @ W, np.diag([-1.0, -1.0, 0.0]))

    def test_2d_zero(self):
        W = skew2(0.0)
        assert np.array_equal(W @ W, np.zeros((2, 2)))

    def test_eigenvalues_nonpositive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            for W in (skew2(rng.standard_normal()), skew3(rng.standard_normal(3))):
                assert np.all(np.linalg.eigvalsh(W @ W) <= 1e-14)

    def test_matches_materialized_square(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = rng.standard_normal(3)
            W = skew3(w)
            assert np.allclose(W @ W, np.outer(w, w) - (w @ w) * np.eye(3), atol=1e-13)


class TestRodrigues:
    def test_identity_at_zero_angle(self):
        assert np.allclose(rodrigues(0.0, skew2(1.0)), np.eye(2))
        assert np.allclose(rodrigues(0.0, skew3([0, 1, 0])), np.eye(3))

    def test_quarter_turn_2d(self):
        # with the fixed J convention the quarter turn is J itself
        R = rodrigues(np.pi / 2.0, skew2(1.0))
        assert np.allclose(R, J2, atol=1e-15)

    def test_third_turn_2d(self):
        # I + (sqrt(3)/2) W + (1/2) W^2 with entries (1/2, +-sqrt(3)/2)
        R = rodrigues(np.pi / 3.0, skew2(1.0))
        s = np.sqrt(3.0) / 2.0
        assert np.allclose(R, [[0.5, s], [-s, 0.5]], atol=1e-15)
        assert np.allclose(R, np.eye(2) + s * J2 + 0.5 * (J2 @ J2), atol=1e-15)

    def test_rejects_non_unit_normalization(self):
        with pytest.raises(ValueError):
            rodrigues(0.3, skew2(0.5))
        with pytest.raises(ValueError):
            rodrigues(0.3, skew3([1.0, 1.0, 0.0]))

    def test_orthogonal_unit_determinant(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            theta = rng.uniform(-2 * np.pi, 2 * np.pi)
            if rng.random() < 0.5:
                w = skew2(1.0 if rng.random() < 0.5 else -1.0)
            else:
                axis = rng.standard_normal(3)
                w = skew3(axis / np.linalg.norm(axis))
            R = rodrigues(theta, w)
            assert np.allclose(R.T @ R, np.eye(len(w)), atol=1e-12)
            assert abs(np.linalg.det(R) - 1.0) <= 1e-12


class TestDensity:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Density(0.0, 1.0)
        with pytest.raises(ValueError):
            Density(1.0, -0.1)

    def test_quadratic_identity_matrix(self):
        assert Density(1.0, 1.0).quadratic(np.eye(2)) == 16.0

    def test_quadratic_zero(self):
        assert Density(2.0, 3.0).quadratic(np.zeros((2, 2))) == 0.0

    def test_quadratic_shear(self):
        # |B|^2 = 1/2, Tr B = 0
        B = sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert Density(1.0, 1.0).quadratic(B) == pytest.approx(2.0, abs=1e-15)

    def test_gradient_identity(self):
        G = Density(1.0, 1.0).quadratic_gradient(np.eye(2))
        assert np.allclose(G, 16.0 * np.eye(2))

    def test_gradient_zero(self):
        assert np.array_equal(Density(1.0, 1.0).quadratic_gradient(np.zeros((2, 2))),
                              np.zeros((2, 2)))

    def test_gradient_shear_no_lambda(self):
        B = sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(Density(1.0, 0.0).quadratic_gradient(B), 8.0 * B)

    def test_quadratic_expansion_exact(self):
        # quadratic(B + H) = quadratic(B) + gradient(B):H + quadratic(H)
        rng = np.random.default_rng(11)
        d = Density(1.3, 0.7)
        for _ in range(50):
            B = sym(rng.standard_normal((2, 2)))
            H = sym(rng.standard_normal((2, 2)))
            lhs = d.quadratic(B + H)
            rhs = d.quadratic(B) + float(np.sum(d.quadratic_gradient(B) * H)) + d.quadratic(H)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_gradient_sym2_matches_matrix_gradient(self):
        # the rescaled kernels' stress and the stiffness's C read one derivative
        rng = np.random.default_rng(15)
        for _ in range(20):
            d = Density(rng.uniform(0.1, 5.0), rng.uniform(0.0, 5.0))
            e00, e01, e11 = rng.standard_normal((3, 5))
            S00, S01, S11 = d.quadratic_gradient_sym2(e00, e01, e11)
            for k in range(5):
                S = d.quadratic_gradient(np.array([[e00[k], e01[k]], [e01[k], e11[k]]]))
                assert np.array_equal(S, [[S00[k], S01[k]], [S01[k], S11[k]]])

    def test_coercivity_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            d = Density(rng.uniform(0.1, 5.0), rng.uniform(0.0, 5.0))
            B = sym(rng.standard_normal((2, 2)))
            assert d.quadratic(B) >= 4.0 * d.mu * float(np.sum(B * B))


class TestSymEigs:
    """The ``np.linalg.eigh`` contract that ``classify_moment_matrix`` and
    ``inner_skew_minimum_3d`` read: ascending eigenvalues and orthonormal
    eigenvector columns, also for near-degenerate 3x3 moment matrices."""

    def test_identity(self):
        vals, Q = np.linalg.eigh(np.eye(2))
        assert np.allclose(vals, [1.0, 1.0])
        assert np.allclose(Q.T @ Q, np.eye(2), atol=1e-14)

    def test_offdiagonal_pair(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        vals, _ = np.linalg.eigh(S)
        assert np.allclose(vals, [-1.0, 1.0])

    def test_diagonal_3x3_sorted(self):
        vals, _ = np.linalg.eigh(np.diag([1.0, 1.0, -3.0]))
        assert np.allclose(vals, [-3.0, 1.0, 1.0])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_residual_random(self, dim):
        rng = np.random.default_rng(15)
        for _ in range(200):
            S = sym(rng.standard_normal((dim, dim)))
            vals, Q = np.linalg.eigh(S)
            norm = np.linalg.norm(S) + 1e-300
            assert np.all(np.diff(vals) >= -1e-14 * norm)
            assert np.allclose(Q.T @ Q, np.eye(dim), atol=1e-12)
            for i in range(dim):
                res = np.linalg.norm(S @ Q[:, i] - vals[i] * Q[:, i])
                assert res <= 1e-12 * norm

    def test_residual_near_degenerate(self):
        rng = np.random.default_rng(16)
        for gap in (0.0, 1e-14, 1e-10, 1e-6):
            base = np.diag([1.0, 1.0 + gap, -2.0])
            axis = rng.standard_normal(3)
            R = rodrigues(0.7, skew3(axis / np.linalg.norm(axis)))
            S = sym(R @ base @ R.T)
            vals, Q = np.linalg.eigh(S)
            norm = np.linalg.norm(S)
            for i in range(3):
                assert np.linalg.norm(S @ Q[:, i] - vals[i] * Q[:, i]) <= 1e-12 * norm

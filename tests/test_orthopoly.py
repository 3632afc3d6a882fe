import math

import numpy as np
import pytest

from jmnl.orthopoly import (
    _polynomial_family,
    _recursion_coefficients,
    gauss_laguerre_rule,
    jacobi_matrix,
    laguerre_orthonormal_sequence,
    linearization_table,
)

from oracles import (
    gauss_laguerre_scipy,
    laguerre_series,
    linearization_identity_residual,
    orthonormal_scipy,
    orthonormal_series,
    triple_product_integral,
)


def laguerre_orthonormal(n: int, nu: float, z: float) -> float:
    """Lt_n(z), the last value of the recurrence."""
    return float(laguerre_orthonormal_sequence(n, nu, z)[n])


class TestLnGamma:
    def test_gamma_one(self):
        assert math.lgamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_half(self):
        assert math.lgamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)

    def test_product_recursion_from_half(self):
        # Gamma(7.5) = 6.5 * 5.5 * ... * 0.5 * Gamma(0.5)
        expected = math.log(math.sqrt(math.pi))
        for factor in (0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5):
            expected += math.log(factor)
        assert math.lgamma(7.5) == pytest.approx(expected, rel=1e-12)


class TestLaguerre:
    # Lt_n = A_n L_n^nu against the exact rational series of L_n^nu
    def test_degree_zero(self):
        assert laguerre_orthonormal(0, 0.7, 3.1) == orthonormal_series(0, 0.7, 3.1)

    def test_degree_one(self):
        nu, z = 1.3, 0.4
        assert laguerre_orthonormal(1, nu, z) == pytest.approx(orthonormal_series(1, nu, z), rel=1e-15)

    def test_against_series(self):
        assert laguerre_orthonormal(5, 0.5, 2.0) == pytest.approx(orthonormal_series(5, 0.5, 2.0), rel=1e-12)

    @pytest.mark.parametrize("n,nu,z", [(8, 0.0, 5.0), (12, 2.5, 11.0), (7, -0.5, 0.3)])
    def test_series_sweep(self, n, nu, z):
        assert laguerre_orthonormal(n, nu, z) == pytest.approx(orthonormal_series(n, nu, z), rel=1e-10)

    def test_nu_domain(self):
        with pytest.raises(ValueError):
            laguerre_orthonormal(3, -1.0, 1.0)

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError, match="at least one value"):
            laguerre_orthonormal_sequence(-1, 0.5, 1.0)

    @pytest.mark.parametrize("z", [2.0, np.array(2.0), np.array([0.5, 2.0, 40.0])])
    def test_shape_follows_z(self, z):
        values = laguerre_orthonormal_sequence(6, 1.5, z)
        assert values.shape == (7,) + np.shape(z)
        assert values.dtype == float


class TestOrthonormal:
    def test_degree_zero_value(self):
        nu = 1.7
        assert laguerre_orthonormal(0, nu, 9.9) == pytest.approx(
            1.0 / math.sqrt(math.gamma(nu + 1)), rel=1e-14
        )

    def test_nu_zero_origin(self):
        # A_n = 1 and L_n^0(0) = 1 for every degree
        for n in range(9):
            assert laguerre_orthonormal(n, 0.0, 0.0) == pytest.approx(1.0, rel=1e-13)
            assert laguerre_series(n, 0.0, 0.0) == pytest.approx(1.0, rel=1e-13)

    def test_normalization_object(self):
        expected = math.sqrt(math.gamma(5) / math.gamma(4 + 0.5 + 1))
        assert laguerre_orthonormal(4, 0.5, 2.0) == pytest.approx(
            expected * laguerre_series(4, 0.5, 2.0), rel=1e-12
        )

    def test_self_inner_product(self):
        nodes, weights = gauss_laguerre_scipy(40, 1.5)
        vals = laguerre_orthonormal_sequence(10, 1.5, nodes)
        for n in range(11):
            assert float(np.sum(weights * vals[n] ** 2)) == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 1.5, 7.0])
    def test_orthonormality_grid(self, nu):
        nodes, weights = gauss_laguerre_scipy(40, nu)
        vals = laguerre_orthonormal_sequence(12, nu, nodes)
        gram = (vals * weights) @ vals.T
        assert np.abs(gram - np.eye(13)).max() < 1e-10


class TestGaussRule:
    def test_single_point(self):
        nodes, weights = gauss_laguerre_rule(1, 0.0)
        assert nodes[0] == pytest.approx(1.0, rel=1e-14)
        assert weights[0] == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 2.5, 7.0])
    def test_zeroth_moment(self, nu):
        _, weights = gauss_laguerre_rule(24, nu)
        assert float(weights.sum()) == pytest.approx(math.gamma(nu + 1), rel=1e-13)

    def test_orthogonality_integral(self):
        nodes, weights = gauss_laguerre_rule(16, 0.5)
        vals = laguerre_orthonormal_sequence(3, 0.5, nodes)
        assert abs(float(np.sum(weights * vals[2] * vals[3]))) < 1e-12

    @pytest.mark.parametrize("count,nu", [(5, 0.0), (12, 1.5), (20, -0.5)])
    def test_matches_reference_roots(self, count, nu):
        nodes, weights = gauss_laguerre_rule(count, nu)
        ref_nodes, ref_weights = gauss_laguerre_scipy(count, nu)
        assert np.allclose(nodes, ref_nodes, rtol=1e-12, atol=1e-12)
        assert np.allclose(weights, ref_weights, rtol=1e-10, atol=1e-14)

    def test_rejects_empty_rule(self):
        with pytest.raises(ValueError, match="count must be positive"):
            gauss_laguerre_rule(0, 0.5)

    def test_polynomial_exactness(self):
        # degree 2*count-1 monomial integrates to Gamma(nu + degree + 1)/Gamma(nu+1) * Gamma(nu+1)
        nu, count = 1.0, 6
        nodes, weights = gauss_laguerre_rule(count, nu)
        degree = 2 * count - 1
        assert float(np.sum(weights * nodes**degree)) == pytest.approx(
            math.gamma(nu + degree + 1), rel=1e-12
        )


class TestJacobiMatrix:
    def test_entries_nu_zero(self):
        jac = jacobi_matrix(0.0, 4)
        assert jac[0, 0] == 1.0
        assert jac[0, 1] == jac[1, 0] == -1.0
        assert jac[2, 2] == 5.0
        assert jac[1, 2] == jac[2, 1] == -2.0
        assert np.count_nonzero(jac) == 4 + 2 * 3

    def test_symmetry(self):
        dense = jacobi_matrix(2.5, 7)
        assert np.array_equal(dense, dense.T)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 3.0])
    def test_positive_definite(self, nu):
        dense = jacobi_matrix(nu, 12)
        assert np.linalg.eigvalsh(dense)[0] > 0

    @pytest.mark.parametrize("nu,z", [(0.0, 1.7), (1.5, 4.2), (-0.3, 0.8)])
    def test_multiplication_recursion(self, nu, z):
        # rows untouched by truncation must satisfy z Lt = J Lt exactly
        size = 20
        dense = jacobi_matrix(nu, size)
        vals = laguerre_orthonormal_sequence(size - 1, nu, z)
        action = dense @ vals
        residual = np.abs(action[: size - 1] - z * vals[: size - 1]).max()
        assert residual / max(1.0, np.abs(vals).max()) < 1e-10

    def test_immutable(self):
        jac = jacobi_matrix(0.0, 3)
        with pytest.raises(ValueError):
            jac[0, 0] = 99.0


class TestMatrixPolynomial:
    def test_degree_zero_is_scaled_identity(self):
        nu = 1.2
        block = _polynomial_family(1, nu, 8)[0]
        assert np.allclose(block, np.eye(8) / math.sqrt(math.gamma(nu + 1)), atol=1e-15)

    def test_degree_one_corner(self):
        assert _polynomial_family(2, 0.0, 8)[1][0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_bandwidth_exact(self):
        block = _polynomial_family(4, 0.5, 14)[3]
        rows, cols = np.indices(block.shape)
        outside = np.abs(rows - cols) > 3
        assert np.all(block[outside] == 0.0)
        band_edge = np.abs(rows - cols) == 3
        assert np.any(block[band_edge] != 0.0)

    def test_bands_exact_without_masks(self):
        # J is tridiagonal, so each term of an entry of J Lt_i(J) beyond band i + 1 has a zero
        # factor: Lt_i(J) is exactly zero beyond band i, and the table's Gram beyond band 2i
        rng = np.random.default_rng(30)
        nus = [-1.0 + 1e-12, -0.5, 305.0, 313.0, *rng.uniform(-0.99, 313.0, 60).tolist()]
        subnormal = False
        for nu in nus:
            terms, dim = int(rng.integers(1, 17)), int(rng.integers(1, 40))
            family = _polynomial_family(terms, nu, dim + 2 * terms + 4)
            entries, _ = linearization_table(terms, dim, nu)
            distance = np.abs(np.subtract.outer(np.arange(family[0].shape[0]), np.arange(family[0].shape[0])))
            for i, poly in enumerate(family):
                assert not poly[distance > i].any(), (nu, i)
                assert not entries[i][distance[:dim, :dim] > 2 * i].any(), (nu, i)
            subnormal |= 0.0 < family[0][0, 0] < np.finfo(float).tiny
        assert subnormal

    def test_recursion_reads_the_jacobi_matrix(self):
        # one formula: alpha_n on J's diagonal, |beta_n| off it and |beta_{n-1}| the previous
        # |beta_n|, with |beta_{-1}| = 1, bit for bit at nu that are not half-integers
        rng = np.random.default_rng(30)
        for nu in rng.uniform(-0.99, 313.0, 400).tolist():
            count = int(rng.integers(2, 71))
            assert nu % 0.5 != 0.0
            dense = jacobi_matrix(nu, count)
            alpha, below, above = (np.array(column) for column in zip(*_recursion_coefficients(nu, count)))
            off = -np.diag(dense, 1)
            assert alpha.tobytes() == np.diag(dense)[:-1].tobytes()
            assert above.tobytes() == off.tobytes()
            assert below.tobytes() == np.concatenate([[1.0], off[:-1]]).tobytes()

    def test_matches_scalar_polynomial_on_spectrum(self):
        # eigen-decomposing J and applying the scalar polynomial must agree
        # on the exact leading block
        nu, degree, size = 1.0, 2, 12
        block = _polynomial_family(degree + 1, nu, size)[degree]
        dense = jacobi_matrix(nu, size)
        theta, vectors = np.linalg.eigh(dense)
        scalar = orthonormal_scipy(degree, nu, theta)
        rebuilt = (vectors * scalar) @ vectors.T
        lead = size - degree
        assert np.allclose(block[:lead, :lead], rebuilt[:lead, :lead], atol=1e-10)


class TestLinearizationTable:
    def test_degree_zero_block(self):
        nu = 2.0
        entries, _ = linearization_table(3, 6, nu)
        assert np.allclose(entries[0], np.eye(6) / math.gamma(nu + 1), atol=1e-14)

    def test_degree_zero_block_nu_zero_exact(self):
        entries, _ = linearization_table(2, 5, 0.0)
        assert np.array_equal(entries[0], np.eye(5))

    def test_entry_against_quadrature(self):
        entries, _ = linearization_table(3, 12, 1.5)
        expected = triple_product_integral(2, 4, 7, 1.5)
        assert entries[2, 4, 7] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("nu", [0.0, 1.0, 2.5])
    def test_symmetry_exact(self, nu):
        entries, _ = linearization_table(4, 9, nu)
        for i in range(4):
            assert np.array_equal(entries[i], entries[i].T)

    def test_band_zero_exact(self):
        entries, _ = linearization_table(4, 12, 0.5)
        rows, cols = np.indices((12, 12))
        for i in range(4):
            assert np.all(entries[i][np.abs(rows - cols) > 2 * i] == 0.0)

    def test_upper_degree_cutoff(self):
        # coefficients vanish for m > n + 2i
        entries, _ = linearization_table(3, 12, 1.0)
        for i in range(3):
            for n in range(12):
                for m in range(n + 2 * i + 1, 12):
                    assert entries[i, n, m] == 0.0

    def test_truncation_independence(self):
        default, _ = linearization_table(4, 8, 1.5)
        # the table's entries from a family on a larger internal truncation
        inflated = np.array(
            [poly[:, :8].T @ poly[:, :8] for poly in _polynomial_family(4, 1.5, 8 + 2 * 4 + 12)]
        )
        assert np.abs(default - inflated).max() <= 1e-14 * max(1.0, np.abs(default).max())

    def test_factor_gram_matches_sum(self):
        entries, factor = linearization_table(3, 7, 0.5)
        gram = factor.T @ factor
        assert np.allclose(gram, entries.sum(axis=0), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("nu", [-1.0, math.inf, math.nan])
    def test_rejects_nu_outside_domain(self, nu):
        with pytest.raises(ValueError, match="nu > -1 and be finite"):
            linearization_table(2, 4, nu)

    @pytest.mark.parametrize("terms, dim", [(0, 4), (2, 0)], ids=["no-terms", "no-dim"])
    def test_rejects_empty_table(self, terms, dim):
        with pytest.raises(ValueError, match="terms and dim must be positive"):
            linearization_table(terms, dim, 0.5)

    def test_read_only(self):
        for array in linearization_table(2, 4, 0.5):
            with pytest.raises(ValueError):
                array[0, 0] = 99.0


class TestLinearizationIdentity:
    def test_degree_zero_residual(self):
        residual, size, bound = linearization_identity_residual(0, 5, 1.0, 3.0)
        assert residual <= bound
        assert residual < 1e-14 * size

    def test_sample_point(self):
        residual, _, bound = linearization_identity_residual(3, 5, 1.5, 2.7)
        assert residual <= bound

    @pytest.mark.parametrize("nu", [0.0, 1.0, 2.5])
    def test_sweep(self, nu):
        zs = np.linspace(0.0, 30.0, 10)
        for i in range(4):
            for n in range(0, 8, 3):
                for z in zs:
                    residual, _, bound = linearization_identity_residual(i, n, nu, float(z))
                    assert residual <= bound, (i, n, z)

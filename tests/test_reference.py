import math

import mpmath
import numpy as np
import pytest

from jmnl.orthopoly import jacobi_matrix, laguerre_orthonormal_sequence
from jmnl.reference import (
    BasisParams,
    RecurrenceOverflowError,
    _kummer,
    _momentum,
    _sine_prefactor,
    _stacked_kummer,
    basis_function,
    cosine_coefficients,
    h0_matrix,
    sine_coefficients,
)

from oracles import (
    bessel_j_series,
    free_hamiltonian_residual,
    kummer_series,
    radial_overlap,
    regular_solution_residual,
    regular_wave,
    seed_residuals,
)


class TestParams:
    def test_nu_basis(self):
        assert BasisParams(lam=2.0, ell=3).nu_basis == 3.5

    def test_rejects_bad_lam(self):
        with pytest.raises(ValueError):
            BasisParams(lam=0.0, ell=0)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_rejects_non_finite_lam(self, lam):
        with pytest.raises(ValueError, match="positive and finite"):
            BasisParams(lam=lam, ell=0)

    @pytest.mark.parametrize("lam", [1e300, 1.35e154, 5e-309, 5e-324])
    def test_rejects_scale_beyond_its_square_or_reciprocal(self, lam):
        # H0 scales as lam^2 and the momentum as 1/lam
        with pytest.raises(ValueError, match="lam must have a finite square and reciprocal"):
            BasisParams(lam=lam, ell=0)

    @pytest.mark.parametrize("lam", [1.34e154, 5.6e-309])
    def test_accepts_scale_at_the_edges(self, lam):
        assert BasisParams(lam=lam, ell=0).lam == lam

    def test_rejects_bad_ell(self):
        with pytest.raises(ValueError):
            BasisParams(lam=1.0, ell=-1)

    def test_kinematics_consistency(self):
        # mu = k / lam with the wavenumber k = sqrt(2E), so E = lam^2 mu^2 / 2
        basis = BasisParams(lam=5.0, ell=1)
        mu = _momentum(3.0, basis)
        assert mu * basis.lam == pytest.approx(math.sqrt(6.0), rel=1e-15)
        assert 0.5 * basis.lam**2 * mu**2 == pytest.approx(3.0, rel=1e-14)

    @pytest.mark.parametrize("energy", [0.0, -1.0, math.nan])
    def test_momentum_rejects_non_positive_energy(self, energy):
        with pytest.raises(ValueError, match="energy must be positive"):
            _momentum(energy, BasisParams(lam=5.0, ell=1))


class TestH0:
    def test_diagonal_sample(self):
        basis = BasisParams(lam=5.0, ell=1)
        assert h0_matrix(basis, 1)[0, 0] == pytest.approx(31.25, rel=1e-15)

    def test_tridiagonality(self):
        basis = BasisParams(lam=1.0, ell=0)
        dense = h0_matrix(basis, 6)
        assert dense[0, 2] == 0.0
        assert dense[5, 2] == 0.0
        assert np.array_equal(dense, np.triu(np.tril(dense, 1), -1))

    def test_symmetry(self):
        basis = BasisParams(lam=2.0, ell=2)
        dense = h0_matrix(basis, 9)
        assert dense[3, 4] == dense[4, 3]
        assert np.array_equal(dense, dense.T)

    def test_couplings_closed_form(self):
        # b_n = (lam^2/2) sqrt((n+1)(n + ell + 3/2)), and a leading block does not depend on the size
        basis = BasisParams(lam=2.0, ell=2)
        dense = h0_matrix(basis, 9)
        for n in range(8):
            assert dense[n, n + 1] == 0.5 * basis.lam**2 * math.sqrt((n + 1) * (n + basis.ell + 1.5))
        assert np.array_equal(h0_matrix(basis, 5), dense[:5, :5])

    @pytest.mark.parametrize("lam", [0.3, 1.0, 5.0, 1e100])
    def test_scaled_jacobi_matrix_bit_for_bit(self, lam):
        # H0 = (lam^2/2) |J| with J the orthonormal Laguerre Jacobi matrix at nu = ell + 1/2
        for ell in range(0, 30, 7):
            basis = BasisParams(lam=lam, ell=ell)
            for size in (1, 2, 21, 49):
                expected = 0.5 * lam**2 * np.abs(jacobi_matrix(ell + 0.5, size))
                assert h0_matrix(basis, size).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("size", [0, -3])
    def test_size_below_one_raises(self, size):
        with pytest.raises(ValueError, match="size must be positive"):
            h0_matrix(BasisParams(lam=5.0, ell=1), size)

    def test_sine_solves_free_problem(self):
        basis = BasisParams(lam=1.5, ell=1)
        energy = 0.8
        s = sine_coefficients(energy, basis, 24)
        assert free_hamiltonian_residual(s, energy, basis.lam, basis.ell) < 1e-10


class TestSineCoefficients:
    def test_closed_form_seed(self):
        # ell=0, lam=1, mu=1 (E = 1/2): s_0 = 2 e^{-1/2} / sqrt(Gamma(3/2))
        basis = BasisParams(lam=1.0, ell=0)
        s = sine_coefficients(0.5, basis, 4)
        expected = 2.0 * math.exp(-0.5) / math.sqrt(math.gamma(1.5))
        assert s[0] == pytest.approx(expected, rel=1e-13)
        assert s[0] == pytest.approx(1.288575, abs=5e-6)

    @pytest.mark.parametrize("ell", [0, 1, 4, 29])
    @pytest.mark.parametrize("energy", [0.05, 0.6, 5.9, 42.5])
    def test_signed_laguerre_values_bit_for_bit(self, ell, energy):
        # s_n = (-1)^n (2/sqrt(lam)) mu^{ell+1} e^{-mu^2/2} Lt_n(mu^2), nu = ell + 1/2: the sign flips are exact
        basis = BasisParams(lam=1.7, ell=ell)
        mu = _momentum(energy, basis)
        for count in (1, 2, 21, 49):
            values = laguerre_orthonormal_sequence(count - 1, basis.nu_basis, mu**2)
            signs = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
            expected = signs * (_sine_prefactor(mu, basis) * values)
            assert sine_coefficients(energy, basis, count).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("function", [sine_coefficients, cosine_coefficients])
    def test_count_below_one_raises(self, function):
        with pytest.raises(ValueError, match="at least one value"):
            function(0.5, BasisParams(lam=1.0, ell=0), 0)

    def test_coefficients_read_only(self):
        basis = BasisParams(lam=1.0, ell=0)
        for values in (sine_coefficients(0.5, basis, 4), cosine_coefficients(0.5, basis, 4)):
            with pytest.raises(ValueError):
                values[0] = 1.0

    def test_prefactor_overflow_is_named(self):
        # mu = 1e100 at ell = 3: Python's mu**4 raises its errno error, which the named one chains
        with pytest.raises(RecurrenceOverflowError, match="sine coefficients overflowed for mu=1e[+]100: a power") as caught:
            sine_coefficients(5e199, BasisParams(lam=1.0, ell=3), 21)
        assert type(caught.value.__cause__) is OverflowError

    def test_threshold_limit(self):
        basis = BasisParams(lam=1.0, ell=1)
        s = sine_coefficients(1e-12, basis, 10)
        assert np.abs(s).max() < 1e-10

    @pytest.mark.parametrize("ell", [0, 1, 2])
    @pytest.mark.parametrize("energy", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_recursion_residual(self, ell, energy):
        basis = BasisParams(lam=1.0, ell=ell)
        s = sine_coefficients(energy, basis, 22)
        assert free_hamiltonian_residual(s, energy, basis.lam, basis.ell) < 1e-8
        res_seed, _ = seed_residuals(s, s, energy, basis.lam, ell)
        assert res_seed < 1e-10


class TestCosineCoefficients:
    def test_seed_matches_series_oracle(self):
        basis = BasisParams(lam=2.0, ell=1)
        energy = 1.3
        mu = _momentum(energy, basis)
        nu = basis.nu_basis
        z = mu**2
        expected = (
            2.0
            / math.sqrt(basis.lam)
            * math.gamma(nu)
            / math.pi
            * mu ** (-basis.ell)
            * math.exp(-z / 2)
            / math.sqrt(math.gamma(nu + 1))
            * kummer_series(-nu, 1 - nu, z)
        )
        assert cosine_coefficients(energy, basis, 1)[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("ell", [0, 1, 2])
    @pytest.mark.parametrize("energy", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_recursion_and_seed_residuals(self, ell, energy):
        basis = BasisParams(lam=1.0, ell=ell)
        c = cosine_coefficients(energy, basis, 22)
        s = sine_coefficients(energy, basis, 22)
        assert free_hamiltonian_residual(c, energy, basis.lam, basis.ell) < 1e-8
        _, res_seed = seed_residuals(s, c, energy, basis.lam, ell)
        assert res_seed < 1e-10

    @pytest.mark.parametrize("energy", [0.3, 1.1, 4.0])
    def test_independence_from_sine(self, energy):
        basis = BasisParams(lam=1.0, ell=1)
        s = sine_coefficients(energy, basis, 3)
        c = cosine_coefficients(energy, basis, 3)
        assert abs(s[0] * c[1] - s[1] * c[0]) > 1e-12

    def test_overflow_guard(self):
        # the seed carries e^{mu^2/2}; far outside the physical window it
        # overflows and the guard must turn that into a diagnostic error
        basis = BasisParams(lam=1.0, ell=0)
        with pytest.raises(RecurrenceOverflowError):
            cosine_coefficients(2.0e6, basis, 10)

    @pytest.mark.parametrize("count", [1, 2])
    def test_non_finite_seed_raises(self, count):
        # M(-nu, 1-nu, mu^2) overflows at mu^2 = 800, so c_0 is not finite
        with pytest.raises(RecurrenceOverflowError, match="cosine seed overflowed"):
            cosine_coefficients(400.0, BasisParams(lam=1.0, ell=0), count)

    def test_gamma_overflow_names_its_factor(self):
        # from ell = 171 the drive's Gamma(ell + 3/2) overflows at any momentum, here mu = 0.49,
        # where mu^-ell = 9.1e123 is finite
        basis = BasisParams(lam=5.0, ell=400)
        with pytest.raises(RecurrenceOverflowError) as caught:
            cosine_coefficients(3.0, basis, 21)
        assert str(caught.value) == (
            "cosine seed overflowed for mu=0.49; Gamma(ell + 3/2) in its drive is beyond the double range "
            "at ell=400 (from ell = 171), at any momentum"
        )
        assert math.isfinite(_momentum(3.0, basis) ** -400)

    def test_squared_momentum_overflow_is_named(self):
        # mu = 1.4e160: Python's mu**2 raises; the cosine reports its seed, not errno text
        with pytest.raises(RecurrenceOverflowError, match="cosine seed overflowed for mu=1.41e[+]160") as caught:
            cosine_coefficients(1e300, BasisParams(lam=1e-10, ell=1), 5)
        assert type(caught.value.__cause__) is OverflowError

    def test_resums_to_irregular_wave(self):
        # the tapered resummation of c_n phi_n approaches the cosine-like
        # radial wave -sqrt(2kr) Y_{l+1/2}(kr); pins scale and sign of c
        from scipy.special import yv

        basis = BasisParams(lam=1.0, ell=0)
        energy = 0.5
        k = math.sqrt(2 * energy)
        count = 400
        c = cosine_coefficients(energy, basis, count)
        n = np.arange(count)
        half = count // 2
        taper = np.where(n < half, 1.0, np.cos(0.5 * math.pi * (n - half) / (count - half)) ** 2)
        for r in (4.0, 6.0):
            phi = np.array([basis_function(m, r, basis) for m in range(count)])
            total = float(np.dot(c * taper, phi))
            expected = -math.sqrt(2 * k * r) * yv(basis.ell + 0.5, k * r)
            assert total == pytest.approx(expected, rel=2e-3)


#: the positive zero of M(-nu, 1-nu, z) for ell = 0, 1, 2, where its relative error has no bound
KUMMER_ZEROS = {0: 0.8540326565981970, 1: 1.8436509001332536, 2: 2.8401478578895488}
#: k and log k! of the series' terms up to k = 2047
SERIES_K = np.arange(2048)
LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in SERIES_K.tolist()])


def kummer_bound(ell: int, z: float) -> float:
    """Rounding bound on the float series M(-nu, 1-nu, z) = sum_k t_k, t_k = nu/(nu-k) z^k/k!.

    Term k is the product of k factors, each with 3 roundings (the cached
    ratio, its product with z, the running product), so it carries at most
    3k u |t_k| with u = eps/2; the compensated sum adds one rounding of M and
    a dropped tail below a few u |M|.  With m terms (the exact terms' count
    up to the first k > z below u times their partial sum, plus 4 for the
    float stop) that is at most (4m + 8) u sum_{k<=m} |t_k|.
    """
    nu = ell + 0.5
    u = 0.5 * np.finfo(float).eps
    terms = nu / (nu - SERIES_K) * np.exp(SERIES_K * math.log(z) - LOG_FACTORIALS)
    partial = np.cumsum(terms)
    small = (SERIES_K[1:] > z) & (np.abs(terms[1:]) <= u * np.abs(partial[:-1]))
    m = int(np.argmax(small)) + 1 + 4
    return (4 * m + 8) * u * float(np.abs(terms[: m + 1]).sum())


class TestKummerSeries:
    # 751 z in [0.02, 713], where the series is finite, and the zeros
    SERIES_Z = sorted(np.geomspace(0.02, 713.0, 751).tolist() + list(KUMMER_ZEROS.values()))

    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    def test_within_rounding_bound_of_mpmath(self, ell):
        nu = mpmath.mpf(ell) + mpmath.mpf(1) / 2
        worst = 0.0
        with mpmath.workdps(40):
            for z in self.SERIES_Z:
                error = abs(_kummer(ell, z) - mpmath.hyp1f1(-nu, 1 - nu, z))
                worst = max(worst, float(error) / kummer_bound(ell, z))
        assert worst <= 1.0

    @pytest.mark.parametrize("ell", sorted(KUMMER_ZEROS))
    def test_zero_is_an_absolute_not_relative_match(self, ell):
        z = KUMMER_ZEROS[ell]
        nu = mpmath.mpf(ell) + mpmath.mpf(1) / 2
        with mpmath.workdps(40):
            exact = mpmath.hyp1f1(-nu, 1 - nu, z)
        # M changes sign within an ulp or so of the float nearest the zero
        assert abs(exact) < 1e-14 and abs(_kummer(ell, z) - exact) <= kummer_bound(ell, z)

    def test_overflow_point_is_where_m_leaves_the_double_range(self):
        # nan from the overflowing sum; M itself exceeds the double range from about z = 715-717
        for ell in range(4):
            nu = mpmath.mpf(ell) + mpmath.mpf(1) / 2
            z = 717.5
            assert math.isnan(_kummer(ell, z)) and abs(mpmath.hyp1f1(-nu, 1 - nu, z)) > np.finfo(float).max
            assert math.isfinite(_kummer(ell, 715.0))

    @pytest.mark.parametrize("ell", [0, 1, 2, 5])
    def test_stacked_equals_float_series(self, ell):
        # the same bits per element, through the overflow point near z = 714-717 and past the drive's range
        rng = np.random.default_rng(ell)
        z = np.concatenate(
            [rng.uniform(0.0, 714.0, 1500), rng.uniform(713.0, 718.0, 200), [0.0, 1e-300, 1400.0], list(KUMMER_ZEROS.values())]
        )
        stacked = _stacked_kummer(ell, z)
        expected = np.array([_kummer(ell, value) for value in z.tolist()])
        assert (np.isnan(stacked) == np.isnan(expected)).all()
        finite = ~np.isnan(expected)
        assert stacked[finite].view(np.int64).tolist() == expected[finite].view(np.int64).tolist()
        assert not finite.all() and finite[:1500].all()

    def test_stacked_on_no_energies(self):
        assert _stacked_kummer(1, np.empty(0)).shape == (0,)


class TestBasisFunction:
    def test_vanishes_at_origin(self):
        basis = BasisParams(lam=1.0, ell=1)
        assert abs(basis_function(0, 1e-8, basis)) < 1e-14

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            basis_function(0, 0.0, BasisParams(lam=1.0, ell=0))

    @pytest.mark.parametrize("lam", [1.0, 2.5])
    def test_orthonormality(self, lam):
        basis = BasisParams(lam=lam, ell=1)
        for n in range(0, 7, 2):
            for m in range(n, 7, 2):
                overlap = radial_overlap(
                    lambda r: basis_function(n, r, basis),
                    lambda r: basis_function(m, r, basis),
                    upper=40.0 / lam,
                )
                assert overlap == pytest.approx(1.0 if n == m else 0.0, abs=1e-8)

    def test_ground_state_peak(self):
        basis = BasisParams(lam=1.0, ell=0)
        grid = np.linspace(0.05, 8.0, 400)
        values = np.array([basis_function(0, r, basis) for r in grid])
        peak = int(np.argmax(values))
        assert 0 < peak < len(grid) - 1
        assert values[peak] > 0


class TestBessel:
    # the exact wave of the regular-solution tests; E = 1/2 gives k = 1, so x = k r = r
    @pytest.mark.parametrize("ell", [0, 1, 2, 3, 4])
    def test_regular_wave_matches_series(self, ell):
        # the power series is itself reliable only up to moderate argument
        basis = BasisParams(lam=1.0, ell=ell)
        for x in np.linspace(0.05, 8.0, 18):
            assert regular_wave(0.5, float(x), basis) == pytest.approx(
                2.0 / math.sqrt(math.pi) * x * bessel_j_series(ell, float(x)), rel=1e-12, abs=1e-14
            )

    @pytest.mark.parametrize("ell", [0, 1, 2, 3, 4])
    def test_regular_wave_matches_bessel_jv(self, ell):
        # sqrt(2 x) J_{ell+1/2}(x), the form demo 02 uses, equals (2/sqrt(pi)) x j_ell(x)
        from scipy.special import jv

        basis = BasisParams(lam=1.0, ell=ell)
        for x in np.linspace(8.0, 25.0, 12):
            assert regular_wave(0.5, float(x), basis) == pytest.approx(
                math.sqrt(2.0 * x) * float(jv(ell + 0.5, x)), rel=1e-11, abs=1e-14
            )

    def test_regular_wave_l0(self):
        basis = BasisParams(lam=1.0, ell=0)
        energy, r = 0.5, 2.0
        k = math.sqrt(2 * energy)
        assert regular_wave(energy, r, basis) == pytest.approx(
            2.0 / math.sqrt(math.pi) * math.sin(k * r), rel=1e-13
        )


class TestRegularSolution:
    @pytest.mark.parametrize("ell", [0, 1])
    @pytest.mark.parametrize("energy", [0.5, 2.0])
    def test_acceptance_points(self, ell, energy):
        basis = BasisParams(lam=1.0, ell=ell)
        assert regular_solution_residual(energy, 2.0, 80, basis) < 1e-4

    def test_residual_decreases_with_count(self):
        basis = BasisParams(lam=1.0, ell=0)
        r20 = regular_solution_residual(0.5, 2.0, 20, basis)
        r80 = regular_solution_residual(0.5, 2.0, 80, basis)
        assert r80 < r20

    def test_other_scale(self):
        # lam != 1 exercises the normalization conventions end to end
        basis = BasisParams(lam=2.0, ell=1)
        assert regular_solution_residual(1.0, 1.5, 100, basis) < 1e-4

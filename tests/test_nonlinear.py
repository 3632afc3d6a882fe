import dataclasses
import math

import numpy as np
import pytest

from jmnl.nonlinear import (
    WEIGHT_CHOICES,
    LambdaMatrix,
    ModelConfig,
    PositivityCertificateError,
    _lambda_core,
    _wave_stack,
    _weights,
    lambda_matrix,
    omega_transform,
    wave_operator,
    weight,
)
from jmnl.orthopoly import linearization_table
from jmnl.reference import BasisParams, _momentum, h0_matrix, sine_coefficients
from jmnl.scattering import ScanRequest, run_scan, s_matrix, validate

from conftest import largest_scale
from oracles import ansatz_coefficients


def make_config(**overrides):
    params = dict(
        basis=BasisParams(lam=5.0, ell=1),
        g=2.0,
        nu=1.0,
        size=20,
        terms=8,
        weight_choice="resonance",
    )
    params.update(overrides)
    return ModelConfig(**params)


class TestConfig:
    def test_rejects_nu_at_boundary(self):
        with pytest.raises(ValueError):
            make_config(nu=-1.0)

    @pytest.mark.parametrize("nu", [math.inf, math.nan])
    def test_rejects_nu_not_finite(self, nu):
        with pytest.raises(ValueError, match="nu > -1 and be finite"):
            make_config(nu=nu)

    def test_rejects_terms_above_size(self):
        with pytest.raises(ValueError):
            make_config(size=4, terms=5)

    def test_block_size_bound_is_numpy_indexing(self):
        # max(K, 64) N^2 float64 entries: the (K, N, N) table and the (64, N, N) wave stack
        entries = np.iinfo(np.intp).max // 8
        largest = math.isqrt(entries // 64)
        assert make_config(size=largest).size == largest
        with pytest.raises(ValueError, match="the largest float64 array numpy can index"):
            make_config(size=largest + 1)
        # K = N above 64: N^3 entries, 2^60 at N = 2^20, one more than a 64-bit numpy indexes
        assert make_config(size=2**20 - 1, terms=2**20 - 1).terms == 2**20 - 1
        with pytest.raises(ValueError, match="max\\(K, 64\\) x N\\^2"):
            make_config(size=2**20, terms=2**20)

    @pytest.mark.parametrize(
        "size, terms, name",
        [(20.5, 8, "matrix size N"), (20, 8.0, "term count K"), (True, 1, "matrix size N"), (20, True, "term count K")],
    )
    def test_rejects_size_and_terms_that_are_not_integers(self, size, terms, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            make_config(size=size, terms=terms)

    def test_numpy_integers_are_stored_as_int(self):
        config = make_config(size=np.int64(20), terms=np.int32(8))
        assert (type(config.size), type(config.terms)) == (int, int)
        assert (config.size, config.terms) == (20, 8)

    def test_rejects_unknown_weight(self):
        with pytest.raises(ValueError):
            make_config(weight_choice="gauss")

    def test_rejects_a_name_outside_the_choices(self):
        # "fig1", once an alias of "resonance", is a name like any other
        with pytest.raises(ValueError) as caught:
            make_config(weight_choice="fig1")
        assert str(caught.value) == f"weight_choice must be one of {WEIGHT_CHOICES} (got 'fig1')"

    @pytest.mark.parametrize("size, ell", [(2, 0), (20, 1), (48, 5)])
    def test_largest_scale_keeps_the_free_block_finite(self, size, ell):
        # at the largest accepted lam, the (N + 1) block of H0 and the absolute row sums of its
        # leading N x N block are finite, with no warning; the next double is rejected by name
        largest = largest_scale(size, ell)
        block = h0_matrix(BasisParams(lam=largest, ell=ell), size + 1)
        with np.errstate(all="raise"):
            assert np.isfinite(block).all() and np.isfinite(np.abs(block[:-1, :-1]).sum(axis=1)).all()
        with pytest.raises(ValueError, match="scale parameter lam must keep H0's row sums finite"):
            make_config(basis=BasisParams(lam=float(np.nextafter(largest, math.inf)), ell=ell), size=size, terms=2)

    def test_zero_coupling_allowed(self):
        assert make_config(g=0.0).g == 0.0


class TestWeight:
    def test_resonance_threshold(self):
        config = make_config(basis=BasisParams(lam=1.0, ell=0), nu=1.0)
        assert weight(1e-10, config) < 1e-9

    def test_resonance_at_unit_momentum(self):
        # lam = 1, E = 1/2 gives mu = 1
        config = make_config(basis=BasisParams(lam=1.0, ell=0), nu=1.0)
        assert weight(0.5, config) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_sine_choice(self):
        config = make_config(basis=BasisParams(lam=1.0, ell=0), weight_choice="sine")
        assert weight(0.5, config) == pytest.approx(2.0 * math.exp(-0.5), rel=1e-14)


def weight_alone(mu, config):
    """The weight's float operations at one mu, or the OverflowError of a weight that is not finite."""
    try:
        if config.weight_choice == "resonance":
            value = mu ** (2.0 * config.nu) * math.exp(-mu**2)
        else:
            value = 2.0 * mu ** (config.basis.ell + 1) * math.exp(-mu**2 / 2.0)
    except ArithmeticError:
        # Python's power or exp raised: the same error as a value that is not finite
        value = math.inf
    return value if math.isfinite(value) else OverflowError(f"weight is not finite at mu={mu:.3g}")


class TestWeights:
    @pytest.mark.parametrize(
        "config",
        [make_config(), make_config(weight_choice="sine"), make_config(nu=-0.5)],
        ids=["resonance", "sine", "nu<0"],
    )
    def test_one_pass_equals_each_mu_alone(self, config):
        # a power or exp that raises, a nan from inf * 0 and an underflow to 0 among finite weights
        mus = [0.3, 2e160, 1.5, math.inf, 0.0, 40.0, 1.5e154]
        values, errors = _weights(mus, config)
        assert len(values) == len(errors) == len(mus)
        for mu, value, error in zip(mus, values, errors):
            expected = weight_alone(mu, config)
            if isinstance(expected, ArithmeticError):
                assert (type(error), str(error)) == (type(expected), str(expected)) and math.isnan(value), mu
            else:
                assert error is None and value.hex() == expected.hex(), mu
        assert {type(error) for error in errors} > {type(None)}
        # a power or exp that raised is chained, never reported as Python's errno text
        assert any(isinstance(error.__cause__, OverflowError) for error in errors if error is not None)


class TestAnsatz:
    def test_matches_alternating_sine(self):
        # nu = ell + 1/2 with the sine weight reproduces (-1)^n s_n at lam = 1
        basis = BasisParams(lam=1.0, ell=1)
        config = make_config(basis=basis, nu=basis.nu_basis, weight_choice="sine")
        energy = 0.9
        f = ansatz_coefficients(energy, config, 12)
        s = sine_coefficients(energy, basis, 12)
        signs = (-1.0) ** np.arange(12)
        assert np.allclose(f, signs * s, rtol=1e-12, atol=1e-15)

    def test_leading_coefficient(self):
        config = make_config(nu=2.0)
        energy = 1.7
        f = ansatz_coefficients(energy, config, 3)
        assert f[0] == pytest.approx(
            weight(energy, config) / math.sqrt(math.gamma(3.0)), rel=1e-13
        )

    @pytest.mark.parametrize("nu", [-0.5, 1.0, 7.0])
    def test_finite_over_range(self, nu):
        config = make_config(nu=nu)
        for energy in (0.1, 1.0, 10.0):
            values = ansatz_coefficients(energy, config, 41)
            assert np.all(np.isfinite(values))


class TestLambdaMatrix:
    def test_single_term_block(self):
        nu = 1.5
        lam = lambda_matrix(make_config(nu=nu, terms=1, size=6))
        assert np.allclose(lam.entries, np.eye(6) / math.gamma(nu + 1), atol=1e-14)

    def test_single_term_nu_zero(self):
        lam = lambda_matrix(make_config(nu=0.0, terms=1, size=5))
        assert np.array_equal(lam.entries, np.eye(5))

    @pytest.mark.parametrize("nu", [1.0, 2.0, 4.0, 7.0])
    def test_certificate_positive_scan_family(self, nu):
        lam = lambda_matrix(make_config(nu=nu))
        assert lam.min_eigenvalue > 0

    def test_certificate_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            nu = float(rng.uniform(-0.999, 8.0))
            terms = int(rng.integers(1, 11))
            size = int(rng.integers(max(2, terms), 25))
            lam = lambda_matrix(make_config(nu=nu, terms=terms, size=size))
            assert lam.min_eigenvalue > 0
            # each table slice is exactly symmetric, so their sum needs no symmetrisation
            assert np.array_equal(lam.entries, lam.entries.T)

    def test_underflow_to_zero_is_named(self):
        # 1/sqrt(Gamma(401)) underflows: every entry of the factor, hence Lambda, is zero
        with pytest.raises(PositivityCertificateError, match="underflowed to zero at nu=400.0"):
            lambda_matrix(make_config(nu=400.0))

    def test_one_svd_per_fresh_config(self, monkeypatch):
        calls = count_svd(monkeypatch)
        _lambda_core.cache_clear()
        validate(make_config(nu=1.25, size=12, terms=4))
        assert len(calls) == 1

    def test_factor_reproduces_entries(self):
        # the factor kept is the N x N triangular R of the stacked F = Q R: R^T R = F^T F = Lambda
        lam = lambda_matrix(make_config(nu=2.5, terms=4, size=9))
        assert lam.factor.shape == (9, 9)
        assert np.array_equal(np.triu(lam.factor), lam.factor)
        assert np.allclose(lam.factor.T @ lam.factor, lam.entries, rtol=1e-12, atol=1e-12)

    def test_entry_holds_square_arrays_only(self):
        # Lambda, R and V^T (N x N), the singular values and the row sums (N): no K(N + 2K + 4) x N factor
        size = 48
        lam = _lambda_core(1.0, 8, size)
        arrays = [getattr(lam, field.name) for field in dataclasses.fields(lam)]
        arrays = [array for array in arrays if isinstance(array, np.ndarray)]
        assert lam.size == size
        assert all(array.base is None for array in arrays)
        assert sum(array.nbytes for array in arrays) <= (3 * size**2 + 2 * size) * 8

    @pytest.mark.parametrize("nu", [176.0, 250.0, 300.0, 312.0])
    def test_singular_values_of_a_tiny_factor(self, nu):
        # F is subnormal near nu = 312: the exactly scaled QR keeps sigma within the certificate's floor
        lam = lambda_matrix(make_config(nu=nu))
        _, stacked = linearization_table(8, 20, nu)
        expected = np.linalg.svd(stacked, compute_uv=False)
        assert expected[-1] > 0
        assert np.abs(lam.singular - expected).max() <= 16 * np.finfo(float).eps * expected[0]

    @pytest.mark.parametrize(
        "nu, terms, size", [(1.0, 8, 20), (7.0, 8, 20), (0.0, 8, 48), (1.3941544542304376, 8, 48), (2.5, 4, 9)]
    )
    def test_row_sums_from_factor(self, nu, terms, size):
        # |F|^T |F| 1 bounds Lambda's absolute row sums; the Gram products of the Laguerre family
        # do not cancel, so the two agree to rounding
        lam = lambda_matrix(make_config(nu=nu, terms=terms, size=size))
        assert not lam.row_sums.flags.writeable
        assert np.allclose(lam.row_sums, np.abs(lam.entries).sum(axis=1), rtol=1e-13, atol=0.0)

    def test_shared_instance_is_cached(self):
        a = lambda_matrix(make_config())
        b = lambda_matrix(make_config(g=0.0))
        assert a is b


PAPER_NUS = tuple(float(nu) for nu in range(1, 8))
PAPER_BASIS = BasisParams(lam=5.0, ell=1)


def lambda_traffic(action, monkeypatch):
    """Lambda cache hits, Lambda builds and SVD calls while ``action()`` runs."""
    calls = count_svd(monkeypatch)
    before = _lambda_core.cache_info()
    action()
    after = _lambda_core.cache_info()
    monkeypatch.undo()
    return after.hits - before.hits, after.misses - before.misses, len(calls)


class TestLambdaCache:
    """The cache serves repeated nu and gives a fresh config one short-lived entry."""

    def test_repeated_paper_scan_builds_nothing(self, monkeypatch):
        request = ScanRequest(
            basis=PAPER_BASIS, g=2.0, size=20, terms=8, weight_choice="resonance",
            nu_list=PAPER_NUS, e_min=0.5, e_max=6.0, steps=551,
        )
        run_scan(request)
        # one lookup per config: the kernel hands its Lambda to the sandwich
        assert lambda_traffic(lambda: run_scan(request), monkeypatch) == (7, 0, 0)

    def test_fresh_validates_hold_at_most_16_entries(self, monkeypatch):
        rng = np.random.default_rng(2117)
        pairs = ((16, 4), (20, 8), (24, 10), (32, 8), (40, 8), (48, 8))
        for index in range(40):
            size, terms = pairs[index % len(pairs)]
            config = make_config(nu=float(rng.uniform(0.0, 8.0)), size=size, terms=terms)
            # three lookups back to back: one build, then two hits
            assert lambda_traffic(lambda: validate(config), monkeypatch) == (2, 1, 1)
            assert _lambda_core.cache_info().currsize <= 16

    def test_point_queries_on_the_paper_nu_build_nothing(self, monkeypatch):
        configs = [make_config(nu=nu) for nu in PAPER_NUS]
        for config in configs:
            lambda_matrix(config)

        def queries():
            for energy in (0.7, 2.9, 5.3):
                for config in configs:
                    s_matrix(energy, config)

        # one lookup per query
        assert lambda_traffic(queries, monkeypatch) == (21, 0, 0)


def hand_built(factor):
    # a LambdaMatrix with the fields _lambda_core derives from its factor
    _, singular, v_t = np.linalg.svd(factor, full_matrices=False)
    return LambdaMatrix(
        entries=factor.T @ factor,
        terms=1,
        min_eigenvalue=float(singular[-1] ** 2),
        factor=factor,
        singular=singular,
        v_t=v_t,
        row_sums=np.abs(factor).T @ np.abs(factor).sum(axis=1),
    )


def count_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestOmegaTransform:
    def test_identity_input(self):
        lam = hand_built(np.eye(4))
        transform = omega_transform(lam)
        assert np.abs(transform.omega @ transform.omega.T - np.eye(4)).max() < 1e-12

    def test_diagonal_input(self):
        lam = hand_built(np.diag([2.0, 1.0]))
        assert np.array_equal(lam.entries, np.diag([4.0, 1.0]))
        transform = omega_transform(lam)
        assert np.abs(transform.omega @ lam.entries @ transform.omega.T - np.eye(2)).max() < 1e-12

    def test_reads_the_build_svd(self, monkeypatch):
        lam = lambda_matrix(make_config(nu=2.0))
        calls = count_svd(monkeypatch)
        transform = omega_transform(lam)
        assert calls == []
        assert np.array_equal(transform.omega, (1.0 / np.sqrt(lam.singular**2))[:, None] * lam.v_t)

    def test_wellconditioned_config_meets_strict_identity(self):
        lam = lambda_matrix(make_config(nu=1.5, terms=4, size=10))
        transform = omega_transform(lam)
        assert transform.residual < 1e-10

    def test_mismatched_singular_vectors_fail_the_identity(self):
        # V^T's rows reversed against the singular values: omega Lambda omega^T is far from I, yet finite
        lam = lambda_matrix(make_config(nu=1.5, terms=4, size=10))
        with pytest.raises(np.linalg.LinAlgError, match=r"^whitening failed: residual .* above tolerance"):
            omega_transform(dataclasses.replace(lam, v_t=lam.v_t[::-1]))

    def test_scan_config_meets_floorwise_identity(self):
        # condition ~1e16: the identity holds to the double-precision floor
        lam = lambda_matrix(make_config(nu=2.0))
        transform = omega_transform(lam)
        assert transform.residual <= max(1e-10, transform.floor)

    def test_q_matches_certificate(self):
        lam = lambda_matrix(make_config(nu=1.0, terms=3, size=8))
        transform = omega_transform(lam)
        # omega's rows are the unit eigenvectors scaled by 1 / singular: the largest norm is 1 / sqrt(lambda_min)
        rows = np.linalg.norm(transform.omega, axis=1)
        assert rows.max() == pytest.approx(1.0 / math.sqrt(lam.min_eigenvalue), rel=1e-8)


class TestWaveOperator:
    def test_zero_coupling_reduces_to_free_block(self):
        config = make_config(g=0.0)
        energy = 1.3
        expected = h0_matrix(config.basis, config.size) - energy * np.eye(config.size)
        assert np.array_equal(wave_operator(energy, config), expected)

    @pytest.mark.parametrize("nu, g, lam", [(1.0, 2.0, 5.0), (3.7, -2.0, 5.0), (0.5, 1e3, 1.0), (7.0, 1e-3, 2.5)])
    def test_equals_the_closed_form(self, nu, g, lam):
        # H0 + c Lambda - E I written out, bit for bit
        config = make_config(nu=nu, g=g, basis=BasisParams(lam=lam, ell=1))
        h0, entries = h0_matrix(config.basis, config.size), lambda_matrix(config).entries
        for energy in (0.6, 2.2, 5.9):
            w = weight(energy, config)
            expected = h0 + (config.g * w * w) * entries - energy * np.eye(config.size)
            assert np.array_equal(wave_operator(energy, config), expected), energy

    def test_member_of_the_kernel_stack(self):
        # each energy's operator is bit for bit its member of the stack the scan kernel builds
        config = make_config(nu=2.0)
        energies = np.linspace(0.6, 5.9, 8)
        w = np.array(_weights([_momentum(energy, config.basis) for energy in energies], config)[0])
        h0 = h0_matrix(config.basis, config.size)
        stack = _wave_stack(h0, config.g * w * w, lambda_matrix(config).entries, energies[:, None])
        for energy, member in zip(energies.tolist(), stack):
            assert np.array_equal(wave_operator(energy, config), member), energy

    def test_exact_symmetry(self):
        matrix = wave_operator(2.2, make_config())
        assert np.array_equal(matrix, matrix.T)

    def test_energy_dependence_factorizes(self):
        config = make_config(nu=3.0)
        e1, e2 = 1.1, 4.3
        lam = lambda_matrix(config)
        w1, w2 = weight(e1, config), weight(e2, config)
        lhs = wave_operator(e1, config) - wave_operator(e2, config)
        rhs = config.g * (w1**2 - w2**2) * lam.entries - (e1 - e2) * np.eye(config.size)
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() / scale < 1e-13

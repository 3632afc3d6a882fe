import cmath
import math
from collections import Counter

import mpmath
import numpy as np
import pytest
import scipy.linalg

from jmnl import reference, scattering
from jmnl.nonlinear import ModelConfig, _diagonal, _lambda_core, _wave_stack, _weights, lambda_matrix, wave_operator, weight
from jmnl.reference import (
    BasisParams,
    RecurrenceOverflowError,
    _cosine_sequence,
    _STACKED_FROM,
    _free_tails,
    _momentum,
    _sine_sequence,
    _stacked_tails,
    h0_matrix,
)
from jmnl.scattering import (
    _BLOCK,
    _DEGENERATE,
    _MARGIN,
    _NOT_FINITE,
    _OK,
    _REASONS,
    _RESIDUAL,
    _SINGULAR,
    _STATUSES,
    _TAILS,
    _WEIGHT,
    POLE_MARGIN,
    DegenerateEnergyError,
    PoleError,
    ScatterPoint,
    _block_corners,
    _checked_solve,
    _cleared_blocks,
    _floor,
    _free_block,
    _gamma,
    _green_routes,
    _margin,
    _pivot_corners,
    _scatter,
    _uncertified,
    green_corner_determinant,
    green_corner_spectral,
    s_matrix,
    validate,
)

from conftest import count_calls
from oracles import (
    ORACLE_STATUS,
    checked_corner,
    hamiltonian,
    kernel_corner,
    reason_error,
    route_tolerance,
    s_matrix_point,
    s_matrix_tr_form,
    validate_point,
)


def make_config(**overrides):
    params = dict(
        basis=BasisParams(lam=5.0, ell=1),
        g=2.0,
        nu=7.0,
        size=20,
        terms=8,
        weight_choice="resonance",
    )
    params.update(overrides)
    return ModelConfig(**params)


def random_symmetric(rng, size=5):
    a = rng.standard_normal((size, size))
    return a + a.T


class TestScatterPoint:
    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            ScatterPoint(energy=1.0, s_value=1.5 + 0.0j, delta=0.0, amplitude=0.5)


class TestGreenDirect:
    def test_diagonal_example(self):
        assert checked_corner(np.diag([2.0, 4.0])) == 0.25

    def test_residual_on_scan_config(self):
        # the checked solve accepts LAPACK's solution for e_N, whose residual is below 1e-9, and returns its corner
        matrix = wave_operator(1.0, make_config())
        unit = np.zeros((20, 1))
        unit[-1] = 1.0
        solution = np.linalg.solve(matrix, unit)
        (corner,), (code,), _ = _checked_solve(matrix[None])
        assert code == _OK
        residual = np.abs(matrix @ solution - unit).max()
        assert residual < 1e-9
        assert corner == solution[-1, 0]
        assert checked_corner(matrix, energy=1.0) == corner

    def test_singular_raises_pole(self):
        with pytest.raises(PoleError):
            checked_corner(np.diag([1.0, 0.0]), energy=3.5)

    def test_pole_error_carries_energy(self):
        try:
            checked_corner(np.zeros((2, 2)), energy=2.25)
        except PoleError as err:
            assert err.energy == 2.25
        else:
            pytest.fail("expected PoleError")

    @pytest.mark.parametrize(
        "member, reason, message",
        [
            (np.diag([1.0, 0.0]), _SINGULAR, "wave operator is singular: Singular matrix"),
            (np.diag([np.inf, 1.0]), _RESIDUAL, "solve residual nan exceeds tolerance"),
        ],
        ids=["singular", "residual"],
    )
    def test_failure_marks_only_its_row(self, member, reason, message):
        # LAPACK fails a whole stack at one singular member; an infinite
        # entry leaves a nan residual, which fails its one test
        stack = np.array([np.diag([2.0, 4.0]), member, np.diag([4.0, 8.0])])
        with np.errstate(invalid="ignore"):
            corners, reasons, values = _checked_solve(stack)
            alone = _checked_solve(member[None])
            with pytest.raises(PoleError) as raised:
                checked_corner(member, energy=2.0)
        assert reasons.tolist() == [_OK, reason, _OK]
        assert corners[[0, 2]].tolist() == [0.25, 0.125] and math.isnan(corners[1])
        assert math.isnan(values[0]) and math.isnan(values[2])
        # the failing member's corner, code and value are the ones it has alone
        assert [column[1:2].tobytes() for column in (corners, reasons, values)] == [column.tobytes() for column in alone]
        assert raised.value.energy == 2.0 and str(raised.value).startswith(message)


class TestFreeBlock:
    def test_one_h0_matrix_call_per_miss(self, monkeypatch):
        _free_block.cache_clear()
        calls = count_calls(monkeypatch, scattering, ("h0_matrix",))
        basis = BasisParams(lam=3.7, ell=2)
        first = _free_block(basis, 13)
        assert _free_block(basis, 13) is first
        assert calls == {"h0_matrix": 1}

    def test_block_couplings_and_row_sums(self):
        # H0 and b_0 .. b_{N-1} from one (N + 1) block: b_{N-1} couples the block to the free tail
        basis = BasisParams(lam=5.0, ell=1)
        h0, couplings, sums = _free_block(basis, 20)
        assert np.array_equal(h0, h0_matrix(basis, 20))
        assert np.array_equal(couplings, np.diag(h0_matrix(basis, 21), 1))
        assert couplings[-1] == 0.5 * basis.lam**2 * math.sqrt(20 * (19 + basis.ell + 1.5))
        assert np.array_equal(sums, np.abs(h0).sum(axis=1))
        assert h0.flags.c_contiguous
        assert not any(array.flags.writeable for array in (h0, couplings, sums))


class TestSolveFloor:
    def test_no_overflow_where_row_sums_overflow(self):
        # entries near the top of the double range: their row sums overflow, the floor does not
        rng = np.random.default_rng(3)
        a = rng.uniform(0.5, 1.0, (2, 4, 4)) * 1e308
        x = rng.uniform(-1.0, 1.0, (2, 4, 1)) * 1e-300
        scale = 2.0**-64  # exact, so the scaled sums round as the unscaled ones would
        expected = 16 * np.finfo(float).eps * np.abs(a * scale).sum(-1).max(-1) * np.abs(x).sum(-1).max(-1) / scale
        floor = _floor(a, x)
        assert np.isfinite(floor).all()
        np.testing.assert_allclose(floor, expected, rtol=1e-14)

    def test_floor_beyond_double_range_is_inf(self):
        a = np.array([[[1e300, 0.0], [0.0, 1.0]]])
        x = np.array([[[1e300], [1.0]]])
        assert _floor(a, x).tolist() == [np.inf]

    def test_infinite_floor_accepts_nothing(self, monkeypatch):
        # g = 1e308, nu = 5, E = 0.61: each solve is planted to leave a residual near 1e-7, on
        # any BLAS kernel; the floor (1.5e-5) accepts it, as an infinite one would, but an
        # infinite one must not
        matrix = wave_operator(0.61, make_config(g=1e308, nu=5.0))[None]
        solve = np.linalg.solve
        # the solution of a right-hand side 1e-7 off in every entry
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b + 1e-7))
        solves = count_calls(monkeypatch, np.linalg, ("solve",))
        _, (code,), _ = _checked_solve(matrix)
        assert code == _OK and solves == {"solve": 1}
        monkeypatch.setattr(scattering, "_floor", lambda a, x: np.full(len(a), np.inf))
        _, (code,), (value,) = _checked_solve(matrix)
        assert code == _RESIDUAL and str(reason_error(code, 0.61, value)).startswith("solve residual")
        assert solves == {"solve": 1 + 1}


class TestGreenCornerRoutes:
    def test_single_mode_case(self):
        h = np.array([[2.0]])
        assert green_corner_spectral(h, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert green_corner_determinant(h, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_spectral_matches_direct_inverse(self):
        rng = np.random.default_rng(7)
        h = random_symmetric(rng, size=5)
        for e_hat in (-3.0, 0.4, 9.5):
            direct = np.linalg.inv(h - e_hat * np.eye(5))[-1, -1]
            assert green_corner_spectral(h, e_hat) == pytest.approx(direct, rel=1e-8)

    def test_determinant_matches_spectral(self):
        rng = np.random.default_rng(8)
        h = random_symmetric(rng, size=5)
        for e_hat in rng.uniform(-5.0, 12.0, size=10):
            spectral = green_corner_spectral(h, float(e_hat))
            determinant = green_corner_determinant(h, float(e_hat))
            assert (type(spectral), type(determinant)) == (float, float)
            assert determinant == pytest.approx(spectral, rel=1e-8)

    def test_unit_weight_reduces_to_char_poly_ratio(self):
        rng = np.random.default_rng(9)
        h = random_symmetric(rng, size=6)
        e_hat = 0.37
        expected = np.linalg.det(h[:-1, :-1] - e_hat * np.eye(5)) / np.linalg.det(
            h - e_hat * np.eye(6)
        )
        assert green_corner_determinant(h, e_hat) == pytest.approx(expected, rel=1e-9)

    def test_resolvent_decay(self):
        rng = np.random.default_rng(10)
        h = random_symmetric(rng, size=4)
        assert abs(green_corner_spectral(h, 1e9)) < 1e-6
        assert abs(green_corner_spectral(h, -1e9)) < 1e-6

    def test_margin_is_elementwise(self):
        # delta(E) = POLE_MARGIN max(1, |E|), of one energy or of each entry of an array
        energies = [0.25, 1.0, 3.5, 1e300]
        expected = [POLE_MARGIN * max(1.0, abs(energy)) for energy in energies]
        assert _margin(np.array(energies)).tolist() == expected
        assert [_margin(energy) for energy in energies] == expected

    def test_pole_margin(self):
        h = np.diag([1.0, 2.0])
        with pytest.raises(PoleError):
            green_corner_spectral(h, 2.0 + 1e-9)
        with pytest.raises(PoleError):
            green_corner_determinant(h, 1.0)

    @pytest.mark.parametrize("route", [green_corner_spectral, green_corner_determinant])
    @pytest.mark.parametrize(
        "h",
        [np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones((2, 3)), np.ones(3)],
        ids=["asymmetric", "non-square", "vector"],
    )
    def test_rejects_asymmetric_or_non_square(self, route, h):
        with pytest.raises(ValueError):
            route(h, 0.5)

    @pytest.mark.parametrize("route", [green_corner_spectral, green_corner_determinant])
    @pytest.mark.parametrize(
        "h, e_hat, message",
        [
            (np.eye(2), math.nan, "energy must be finite"),
            (np.diag([np.inf, 1.0]), 0.5, "matrix must be finite"),
            (np.eye(2), math.inf, "energy must be finite"),
        ],
        ids=["nan-energy", "inf-entry", "inf-energy"],
    )
    def test_rejects_non_finite_input(self, route, h, e_hat, message):
        with pytest.raises(ValueError, match=message):
            route(h, e_hat)

    def test_denominator_sign_changes_bracket_eigenvalues(self):
        # the characteristic product flips sign exactly once across each
        # eigenvalue
        rng = np.random.default_rng(12)
        eigenvalues = np.linalg.eigvalsh(random_symmetric(rng, size=5))
        probes = np.sort(
            np.concatenate(
                [eigenvalues - 1e-4, eigenvalues + 1e-4]
            )
        )
        products = [float(np.prod(eigenvalues - e)) for e in probes]
        flips = sum(
            1 for left, right in zip(products, products[1:]) if np.sign(left) != np.sign(right)
        )
        assert flips == len(eigenvalues)


class TestSMatrix:
    def test_zero_coupling_gives_unit_s(self):
        config = make_config(g=0.0)
        for energy in (0.5, 1.7, 3.3, 5.9):
            point = s_matrix(energy, config)
            assert abs(point.s_value - 1.0) < 1e-8
            assert abs(point.delta) < 1e-8

    def test_unitarity(self):
        config = make_config()
        for energy in np.linspace(0.5, 6.0, 23):
            point = s_matrix(float(energy), config)
            assert abs(abs(point.s_value) - 1.0) < 1e-10

    def test_amplitude_consistency(self):
        point = s_matrix(2.4, make_config())
        assert point.amplitude == pytest.approx(abs(1 - point.s_value), rel=1e-15)

    def test_delta_in_principal_range(self):
        point = s_matrix(1.9, make_config())
        assert -math.pi / 2 < point.delta <= math.pi / 2

    def test_pole_error_at_free_eigenvalue(self):
        # with g = 0 the wave operator is singular exactly at the spectrum
        # of the truncated free Hamiltonian
        config = make_config(g=0.0)
        eigenvalue = float(np.linalg.eigvalsh(h0_matrix(config.basis, config.size))[0])
        with pytest.raises(PoleError):
            s_matrix(eigenvalue, config)

    @pytest.mark.parametrize("lam", [1e-300, 1e-160])
    def test_weight_overflow_is_named(self, lam):
        # mu = sqrt(2E) / lam is huge and Python's mu**power raises: S reports the weight's own
        # error, chained from Python's, and never Python's errno text
        config = make_config(basis=BasisParams(lam=lam, ell=1))
        with pytest.raises(OverflowError) as caught:
            s_matrix(3.0, config)
        assert str(caught.value) == f"weight is not finite at mu={_momentum(3.0, config.basis):.3g}"
        assert type(caught.value.__cause__) is OverflowError
        assert str(caught.value.__cause__) != str(caught.value)

    def test_sine_overflow_is_named(self):
        # mu = 1e100: the weight mu e^{-mu^2} is 0, but the sine prefactor's mu^4 is beyond the
        # double range; S reports the tails' named error, chained from Python's errno error
        config = ModelConfig(BasisParams(1.0, 3), 2.0, 0.5, 20, 8)
        with pytest.raises(RecurrenceOverflowError, match="sine coefficients overflowed for mu=1e[+]100: a power") as caught:
            s_matrix(5e199, config)
        assert type(caught.value.__cause__) is OverflowError

    def test_numpy_scalar_fields_give_the_python_float_s(self, clear_free_caches):
        # under NEP 50 a float32 scale ran the free problem in single precision (S off by ~2e-7)
        # and float32 g and nu moved S by ~4e-15; each config is evaluated from cold caches, since
        # a numpy field hashes equal to the Python one
        def point(lam, ell, g, nu):
            clear_free_caches()
            _free_block.cache_clear()
            _lambda_core.cache_clear()
            return s_matrix(2.5, ModelConfig(BasisParams(lam, ell), g, nu, 20, 8))

        expected = point(5.0, 1, 2.0, 3.0)
        for kind in (np.float32, np.float64, np.int64):
            got = point(kind(5), np.int64(1), kind(2), kind(3))
            assert np.array([got.s_value]).tobytes() == np.array([expected.s_value]).tobytes(), kind
            assert (got.delta, got.amplitude) == (expected.delta, expected.amplitude)

    def test_two_forms_agree(self):
        rng = np.random.default_rng(20260811)
        checked = 0
        while checked < 50:
            nu = float(rng.uniform(-0.9, 7.0))
            energy = float(rng.uniform(0.6, 5.9))
            config = make_config(nu=nu)
            try:
                first = s_matrix(energy, config)
                second = s_matrix_tr_form(energy, config)
            except (PoleError, DegenerateEnergyError):
                continue
            assert abs(first.s_value - second.s_value) < 1e-10
            checked += 1

    def test_tr_form_zero_coupling(self):
        config = make_config(g=0.0)
        assert abs(s_matrix_tr_form(2.8, config).s_value - 1.0) < 1e-8

    def test_background_factor_unit_modulus(self):
        from jmnl.reference import cosine_coefficients, sine_coefficients

        config = make_config()
        energy = 3.1
        s = sine_coefficients(energy, config.basis, config.size + 1)
        c = cosine_coefficients(energy, config.basis, config.size + 1)
        last = config.size - 1
        t_last = (c[last] - 1j * s[last]) / (c[last] + 1j * s[last])
        assert abs(abs(t_last) - 1.0) < 1e-12

    def test_phase_continuity_off_resonance(self):
        # adjacent 0.01-spaced points move delta (mod pi) by less than 0.2
        config = make_config(nu=4.0)
        grid = np.arange(2.5, 3.5, 0.01)
        deltas = np.array([s_matrix(float(e), config).delta for e in grid])
        steps = np.diff(deltas)
        steps = (steps + math.pi / 2) % math.pi - math.pi / 2
        assert np.abs(steps).max() < 0.2


def oracle_outcome(energy, config):
    """The per-point oracle's ScatterPoint, or the ArithmeticError it raises."""
    try:
        return s_matrix_point(energy, config)
    except ArithmeticError as exc:
        return exc


def kernel_outcomes(energies, configs):
    """Per config, the kernel's ScatterPoint at each energy, or the ArithmeticError that s_matrix
    would raise for its reason code, built through the reason table."""
    outcomes = []
    for config, (s, delta, amplitude, reasons, values, _) in zip(configs, _scatter(energies, configs)):
        assert len(s) == len(delta) == len(amplitude) == len(reasons) == len(values) == len(energies)
        assert reasons.dtype == np.int8
        column = []
        rows = zip(energies, s.tolist(), delta.tolist(), amplitude.tolist(), reasons.tolist(), values.tolist())
        for energy, s_value, d, a, code, value in rows:
            if code == _OK:
                column.append(ScatterPoint(energy, s_value, d, a))
            else:
                # a row that is not ok carries no values
                assert math.isnan(s_value.real) and math.isnan(s_value.imag) and math.isnan(d) and math.isnan(a)
                column.append(reason_error(code, energy, value, config))
        outcomes.append(column)
    return outcomes


def float_tails(energy, basis, count):
    """c_n - i s_n at n = count-2, count-1 from the float sequences, or their error."""
    mu = _momentum(energy, basis)
    try:
        s = _sine_sequence(mu, basis, count)
        c = _cosine_sequence(mu, basis, count)
    except ArithmeticError as exc:
        return exc
    return [c[-2] - 1j * s[-2], c[-1] - 1j * s[-1]]


def same_outcome(first, second):
    if isinstance(first, ArithmeticError) or isinstance(second, ArithmeticError):
        return (type(first), str(first), getattr(first, "energy", None)) == (
            type(second),
            str(second),
            getattr(second, "energy", None),
        )
    return first == second


# lambda = 1 puts the grid above the truncated basis: degenerate, overflow and ok rows mix
OVERFLOW_BASIS = BasisParams(lam=1.0, ell=1)
# with g = 0 the wave operator is singular on these
FREE_EIGENVALUES = [float(x) for x in np.linalg.eigvalsh(h0_matrix(BasisParams(lam=5.0, ell=1), 20))]
FREE_EIGENVALUE = FREE_EIGENVALUES[3]
# lambda = 1, nu = 1: the lowest eigenvalue of M(E) lies 3.2e-7 from zero here, inside the
# pole margin (found among the floats next to where that eigenvalue changes sign); the
# Cholesky guard certifies M - delta I, since the gap lies within rounding of the margin
POLE_ENERGY = 1.3829290143012876
# lambda = 1 with g = 0: the wave operator is singular here, a pole for both guards
OVERFLOW_BASIS_POLE = float(np.linalg.eigvalsh(h0_matrix(OVERFLOW_BASIS, 20))[0])
# lambda = 1, nu = 1 with g = 0 and g = 2, above the free block's spectrum (top eigenvalue 34.65),
# where the tails have no digits left: S's denominator rounds to exactly 0 at the first, and the
# cosine recursion outgrows its guard at the second (found on a 0.0025 grid over E = 40-90)
DEGENERATE_ENERGY = 42.48
UNSTABLE_ENERGY = 77.0


TAIL_GRIDS = {
    "paper": (BasisParams(lam=5.0, ell=1), np.linspace(0.5, 6.0, 551).tolist()),
    "mixed-errors": (
        OVERFLOW_BASIS,
        np.linspace(40.0, 90.0, 2 * _BLOCK + 2).tolist() + [DEGENERATE_ENERGY, UNSTABLE_ENERGY, 710.0],
    ),
    "overflow": (BasisParams(lam=5.0, ell=1), [0.5, 1e300, 8.5e307, 1.7e308, 3.25]),
    "huge": (OVERFLOW_BASIS, [4e14, 30.0, 5e14]),
    "ell-0": (BasisParams(lam=2.0, ell=0), np.linspace(0.1, 1500.0, 97).tolist()),
    "ell-3": (BasisParams(lam=3.0, ell=3), np.linspace(0.1, 5000.0, 97).tolist()),
}


class TestFreeTails:
    @pytest.mark.parametrize("name", TAIL_GRIDS)
    def test_array_tails_equal_float_sequences(self, name):
        # the stacked mask fails exactly where the float sequences raise, and the terms are bit
        # for bit theirs where both pass
        basis, grid = TAIL_GRIDS[name]
        terms, failed = _stacked_tails([_momentum(e, basis) for e in grid], basis, 21)
        assert terms.shape == (len(grid), 2) and failed.shape == (len(grid),) and failed.dtype == bool
        for energy, row, fails in zip(grid, terms, failed.tolist()):
            expected = float_tails(energy, basis, 21)
            assert fails == isinstance(expected, ArithmeticError), energy
            if fails:
                assert all(cmath.isnan(term) for term in row.tolist())
            else:
                assert row.view(np.int64).tolist() == np.array(expected).view(np.int64).tolist(), energy

    def test_grids_reach_every_tail_error(self):
        messages = [
            str(outcome)
            for basis, grid in TAIL_GRIDS.values()
            for outcome in (float_tails(energy, basis, 21) for energy in grid)
            if isinstance(outcome, ArithmeticError)
        ]
        for start in ("sine coefficients overflowed", "cosine seed overflowed", "cosine recursion unstable"):
            assert any(message.startswith(start) for message in messages), start

    @pytest.mark.parametrize(
        "count, kind", [(1, float), (_STACKED_FROM - 1, float), (_STACKED_FROM, np.ndarray)]
    )
    def test_recursion_operands(self, monkeypatch, clear_free_caches, count, kind):
        # few energies run orthopoly's recursion in Python floats, more in arrays, through one body
        clear_free_caches()
        operands = []
        recursion = reference._recursion

        def recorded(first, *args):
            operands.append(type(first))
            return recursion(first, *args)

        monkeypatch.setattr(reference, "_recursion", recorded)
        basis = BasisParams(lam=5.0, ell=1)
        _free_tails([_momentum(2.5, basis)] * count, basis, 21)
        assert set(operands) == {kind}


class TestScanKernel:
    @pytest.mark.parametrize("nu", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    def test_bitwise_equal_to_point_oracle(self, nu):
        config = make_config(nu=nu)
        grid = [float(e) for e in np.linspace(0.5, 6.0, 100)]
        for energy, point in zip(grid, kernel_outcomes(grid, [config])[0]):
            expected = s_matrix_point(energy, config)
            assert point.s_value == expected.s_value
            assert point.delta == expected.delta
            assert point.amplitude == expected.amplitude
            assert point.energy == energy

    def test_errors_match_point_oracle_across_blocks(self):
        config = make_config(basis=OVERFLOW_BASIS, nu=1.0)
        grid = [float(e) for e in np.linspace(40.0, 90.0, 2 * _BLOCK + 2)]
        outcomes = kernel_outcomes(grid, [config])[0]
        kinds = {type(outcome) for outcome in outcomes}
        assert {ScatterPoint, DegenerateEnergyError, RecurrenceOverflowError} <= kinds
        for energy, outcome in zip(grid, outcomes):
            assert same_outcome(outcome, oracle_outcome(energy, config)), energy

    def test_every_status_in_one_block(self):
        # S is assembled as arrays over the solved members; degenerate and tail-error members sit among them.
        # DEGENERATE_ENERGY lies above part of the spectrum, so its member takes eigvalsh, as the oracle does.
        # With g = 0 the coupling changes no wave operator above E = 10 (it is below rounding there)
        config = make_config(basis=OVERFLOW_BASIS, nu=1.0, g=0.0)
        grid = [10.0, DEGENERATE_ENERGY, OVERFLOW_BASIS_POLE, 50.0, 55.0, UNSTABLE_ENERGY, 30.0, 710.0]
        outcomes = kernel_outcomes(grid, [config])[0]
        assert [type(outcome) for outcome in outcomes] == [
            ScatterPoint,
            DegenerateEnergyError,
            PoleError,
            DegenerateEnergyError,
            ScatterPoint,
            RecurrenceOverflowError,
            ScatterPoint,
            RecurrenceOverflowError,
        ]
        for energy, outcome in zip(grid, outcomes):
            assert same_outcome(outcome, oracle_outcome(energy, config)), energy

    def test_coupling_overflow_marks_its_member(self, linalg_calls):
        # g omega^2 Lambda: inf entries at E = 3.25, and inf * 0 = nan at E = 87.5 where g omega^2 is inf
        config = make_config(g=1e308)
        outcomes = kernel_outcomes([0.5, 3.25, 87.5], [config])[0]
        # the pole guard, then the pivot corner of E = 0.5
        assert linalg_calls == {"cholesky": 1 + 1, "eigvalsh": 1}
        assert isinstance(outcomes[0], ScatterPoint)
        assert same_outcome(outcomes[0], kernel_outcomes([0.5], [config])[0][0])
        for energy, outcome in zip([3.25, 87.5], outcomes[1:]):
            assert type(outcome) is OverflowError
            assert str(outcome) == f"wave operator is not finite at E={energy}"

    def test_no_energies(self):
        columns = _scatter([], [make_config()])
        assert [column.shape for column in columns[0]] == [(0,)] * 6

    def test_tail_error_before_solve_error(self, monkeypatch):
        # as for the point oracle, a member whose tails fail reports that, and is never solved
        solved = []

        def failing_solve(matrix):
            solved.append(len(matrix))
            corners, reasons, values = _checked_solve(matrix)
            return np.full_like(corners, np.nan), np.full_like(reasons, _SINGULAR), values

        monkeypatch.setattr(scattering, "_checked_solve", failing_solve)
        config = make_config(basis=OVERFLOW_BASIS, nu=1.0)
        outcomes = kernel_outcomes([30.0, 710.0], [config])[0]
        # E = 30 lies above part of the spectrum, so it takes the solve; the seed overflows at E = 710
        assert solved == [1]
        assert (type(outcomes[0]), str(outcomes[0])) == (PoleError, "wave operator is singular: Singular matrix")
        assert type(outcomes[1]) is RecurrenceOverflowError
        assert str(outcomes[1]).startswith("cosine seed overflowed")
        assert same_outcome(outcomes[1], oracle_outcome(710.0, config))

    def test_failed_energies_never_reach_lapack(self, monkeypatch):
        # every matrix that Cholesky, eigvalsh or solve sees is a block's lower operator or the
        # wave operator M_j (or M_j - delta_j I) of an energy whose weight and tails are fine
        basis, grid = TAIL_GRIDS["mixed-errors"]
        config = make_config(basis=basis, nu=1.0)
        failed = failed_energies(grid, config)
        assert 0 < len(failed) < len(grid)
        couplings, _ = block_couplings(grid, config)
        h0, _, _ = _free_block(config.basis, config.size)
        with np.errstate(over="ignore", invalid="ignore"):
            members = _wave_stack(h0, couplings, lambda_matrix(config).entries, np.array(grid)[:, None])
        shifted = members.copy()
        _diagonal(shifted)[...] -= _margin(np.array(grid))[:, None]
        energy_of = {matrix.tobytes(): j for stack in (members, shifted) for j, matrix in enumerate(stack)}
        seen = {name: set() for name in ("cholesky", "eigvalsh", "solve")}
        for name in seen:

            def recorded(a, *args, name=name, original=getattr(np.linalg, name)):
                seen[name].update(energy_of.get(matrix.tobytes()) for matrix in np.reshape(a, (-1,) + a.shape[-2:]))
                return original(a, *args)

            monkeypatch.setattr(np.linalg, name, recorded)
        outcomes = kernel_outcomes(grid, [config])[0]
        for name, energies in seen.items():
            assert not energies & failed, name
            # the guard, the spectrum and the solve all run on this grid
            assert energies - {None}, name
        for j, outcome in enumerate(outcomes):
            assert same_outcome(outcome, oracle_outcome(grid[j], config)), grid[j]

    def test_blocks_hold_only_live_energies(self, monkeypatch):
        # lambda = 1 above the free spectrum: energies with weight or tail errors interleave live ones,
        # and the blocks are the live energies, in order, 64 at a time
        config = make_config(basis=OVERFLOW_BASIS, nu=1.0)
        grid = np.linspace(40.0, 90.0, 551).tolist()
        failed = failed_energies(grid, config)
        live = [energy for j, energy in enumerate(grid) if j not in failed]
        assert min(failed) < max(set(range(len(grid))) - failed)
        blocks, block_corners = [], scattering._block_corners

        def recorded(energies, *args):
            blocks.append(list(energies))
            return block_corners(energies, *args)

        monkeypatch.setattr(scattering, "_block_corners", recorded)
        _scatter(grid, [config])
        assert [energy for block in blocks for energy in block] == live
        assert [len(block) for block in blocks[:-1]] == [_BLOCK] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= _BLOCK

    def test_live_blocks_on_mixed_grid_lapack_counts(self, lapack_sizes):
        # 7 nu x 551 E at lambda = 1, E 40-90: the sandwiches, guards and pivot corners factor 6,244
        # matrices in 3,178 calls, and the 3,073 members that Cholesky cannot certify take 49
        # stacked eigvalsh and 49 stacked solves
        configs = [make_config(basis=OVERFLOW_BASIS, nu=float(nu)) for nu in range(1, 8)]
        columns = _scatter(np.linspace(40.0, 90.0, 551).tolist(), configs)
        reasons = Counter(code for *_, column, _, _ in columns for code in column.tolist())
        assert reasons == {_OK: 2709, _TAILS: 784, _DEGENERATE: 364}
        counts = {name: (len(sizes), sum(sizes)) for name, sizes in lapack_sizes.items()}
        assert counts == {"cholesky": (3178, 6244), "eigvalsh": (49, 3073), "solve": (49, 3073)}

    @pytest.mark.parametrize(
        "config, energy, kind",
        [
            (make_config(g=0.0), FREE_EIGENVALUE, PoleError),
            (make_config(basis=OVERFLOW_BASIS, nu=1.0), 710.0, RecurrenceOverflowError),
            (make_config(basis=OVERFLOW_BASIS, nu=1.0), UNSTABLE_ENERGY, RecurrenceOverflowError),
            (make_config(basis=OVERFLOW_BASIS, nu=1.0), DEGENERATE_ENERGY, DegenerateEnergyError),
            (make_config(basis=BasisParams(lam=1e-160, ell=1)), 2.0, OverflowError),
            (make_config(nu=1.0), 1e300, RecurrenceOverflowError),
            (make_config(nu=1.0), 1.7e308, OverflowError),
        ],
        ids=[
            "pole",
            "seed-overflow",
            "recursion-overflow",
            "degenerate",
            "weight-overflow",
            "sine-overflow",
            "weight-not-finite",
        ],
    )
    def test_s_matrix_raises_like_point_oracle(self, config, energy, kind):
        expected = oracle_outcome(energy, config)
        assert type(expected) is kind
        with pytest.raises(kind) as caught:
            s_matrix(energy, config)
        assert same_outcome(caught.value, expected)

    @pytest.mark.parametrize(
        "code, config, energy",
        [
            (_WEIGHT, make_config(basis=BasisParams(lam=1e-160, ell=1)), 2.0),
            (_TAILS, make_config(basis=OVERFLOW_BASIS, nu=1.0), 710.0),
            (_NOT_FINITE, make_config(g=1e308), 3.25),
            (_MARGIN, make_config(g=0.0), FREE_EIGENVALUE),
            (_SINGULAR, None, 2.0),
            (_RESIDUAL, None, 2.0),
            (_DEGENERATE, make_config(basis=OVERFLOW_BASIS, nu=1.0, g=0.0), DEGENERATE_ENERGY),
        ],
        ids=["weight", "tails", "not-finite", "margin", "singular", "residual", "degenerate"],
    )
    def test_reason_table_rows(self, code, config, energy):
        # every reason but ok has a row: the status run_scan reports for its code is the status of
        # the error s_matrix raises for it, of the table's class; the kernel gives the code itself
        # where a natural input reaches it (a singular solve or a residual above its bound needs a
        # planted matrix)
        error = reason_error(code, energy, 1e-3, config)
        status, kind, _ = _REASONS[code]
        assert isinstance(error, kind) and ORACLE_STATUS[type(error)] == status == _STATUSES[code]
        if config is not None:
            ((_, _, _, (reason,), _, _),) = _scatter([energy], [config])
            assert reason == code

    @pytest.mark.parametrize("length", [1, 37, 64, 65, 200])
    @pytest.mark.parametrize(
        "config, low, high",
        [
            (make_config(nu=3.0), 0.5, 6.0),
            (make_config(basis=OVERFLOW_BASIS, nu=1.0), 40.0, 90.0),
            (make_config(basis=OVERFLOW_BASIS, nu=1.0), POLE_ENERGY, 90.0),
        ],
        ids=["paper", "mixed-errors", "near-margin"],
    )
    def test_result_independent_of_position(self, config, low, high, length):
        # an unsorted list drawn with repetition from a 37-point pool, seeded by its length
        pool = np.linspace(low, high, 37)
        energies = [float(e) for e in np.random.default_rng(length).choice(pool, size=length)]
        alone = {energy: kernel_outcomes([energy], [config])[0][0] for energy in set(energies)}
        for energy, outcome in zip(energies, kernel_outcomes(energies, [config])[0]):
            assert same_outcome(outcome, alone[energy])

    @pytest.mark.parametrize(
        "basis, low, high, steps",
        [(BasisParams(lam=5.0, ell=1), 0.5, 6.0, 551), (OVERFLOW_BASIS, 40.0, 90.0, 2 * _BLOCK + 2)],
        ids=["paper", "mixed-errors"],
    )
    def test_grid_equals_one_config_at_a_time(self, basis, low, high, steps):
        # the configs share the free tails of each energy, errors included
        configs = [make_config(basis=basis, nu=nu) for nu in (3.0, 1.0, 3.0)]
        grid = [float(e) for e in np.linspace(low, high, steps)]
        for config, outcomes in zip(configs, kernel_outcomes(grid, configs)):
            alone = kernel_outcomes(grid, [config])[0]
            assert len(outcomes) == len(grid)
            for energy, outcome, expected in zip(grid, outcomes, alone):
                assert same_outcome(outcome, expected), (config.nu, energy)

    def test_margin_boundary_from_below(self, linalg_calls):
        # g = 0: M = H0 - E, whose smallest eigenvalue is lambda_0 - E just below lambda_0
        config = make_config(g=0.0)
        lowest = FREE_EIGENVALUES[0]
        delta = POLE_MARGIN * max(1.0, lowest)
        inside, outside = lowest - 0.5 * delta, lowest - 2.0 * delta
        clear = [float(e) for e in np.linspace(0.5, lowest - 0.5, 8)]
        certified = kernel_outcomes(clear + [outside], [config])[0]
        # the block's Loewner sandwich clears it; then the pivot corners, one stacked Cholesky
        assert linalg_calls == {"cholesky": 1 + 1}
        grid = clear + [inside, outside]
        outcomes = kernel_outcomes(grid, [config])[0]
        # the sandwich and then the stacked factorisation of M - delta I fail, then each of the
        # 10 members is factored alone; the 9 certified take their corners from one stacked Cholesky of M
        assert linalg_calls == {"cholesky": (1 + 1) + (1 + 1 + 10 + 1), "eigvalsh": 1}
        assert isinstance(outcomes[-2], PoleError)
        assert isinstance(outcomes[-1], ScatterPoint)
        assert certified == outcomes[:-2] + outcomes[-1:]
        for energy, outcome in zip(grid, outcomes):
            assert same_outcome(outcome, oracle_outcome(energy, config)), energy

    def test_only_uncertified_members_take_spectrum(self, monkeypatch):
        # the stacked factorisation fails on one member; the others are certified alone
        config = make_config(g=0.0)
        lowest = FREE_EIGENVALUES[0]
        inside = lowest - 0.5 * POLE_MARGIN * max(1.0, lowest)
        grid = [float(e) for e in np.linspace(0.5, lowest - 0.5, 8)] + [inside]
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(stack):
            sizes.append(len(stack))
            return eigvalsh(stack)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        outcomes = kernel_outcomes(grid, [config])[0]
        assert sizes == [1]
        assert [type(outcome) for outcome in outcomes] == [ScatterPoint] * 8 + [PoleError]

    @pytest.mark.parametrize(
        "config, low, high, pivots",
        [(make_config(g=0.0), 0.5, 6.0, 1), (make_config(basis=OVERFLOW_BASIS, nu=1.0), 40.0, 90.0, 0)],
        ids=["free", "mixed-errors"],
    )
    def test_clear_indefinite_block_takes_spectrum(self, linalg_calls, config, low, high, pivots):
        # E above part of the spectrum: neither the sandwich nor the Cholesky can certify, yet no
        # energy is a pole; the members below the free spectrum (free only) take one stacked Cholesky of M.
        # Only the live members, those whose weight and tails are fine, are factored, each alone
        grid = [float(e) for e in np.linspace(low, high, _BLOCK)]
        live = _BLOCK - len(failed_energies(grid, config))
        outcomes = kernel_outcomes(grid, [config])[0]
        assert linalg_calls == {"cholesky": 1 + 1 + live + pivots, "eigvalsh": 1}
        assert not any(isinstance(outcome, PoleError) for outcome in outcomes)
        assert any(isinstance(outcome, ScatterPoint) for outcome in outcomes)
        for energy, outcome in zip(grid, outcomes):
            assert same_outcome(outcome, oracle_outcome(energy, config)), energy

    def test_row_independent_of_block_near_margin(self):
        config = make_config(basis=OVERFLOW_BASIS, nu=1.0)
        (alone,), = kernel_outcomes([POLE_ENERGY], [config])
        assert isinstance(alone, ScatterPoint)
        (paired, _), = kernel_outcomes([POLE_ENERGY, 50.0], [config])
        if isinstance(paired, ArithmeticError):
            raise paired
        assert paired == alone

    @pytest.mark.parametrize(
        "entry, value", [((2, 2), np.inf), ((2, 2), np.nan), ((2, 1), np.nan)], ids=["inf", "nan", "nan-off"]
    )
    def test_non_finite_member_not_certified(self, entry, value):
        # LAPACK's Cholesky can return without error on nan or inf entries
        stack = np.stack([4.0 * np.eye(3)] * 2)
        stack[(1,) + entry] = stack[(1,) + entry[::-1]] = value
        margins = np.full((2, 1), POLE_MARGIN)
        assert _uncertified(stack[:1], margins[:1]) == []
        assert _uncertified(stack, margins) == [1]


PAPER_GRID = np.linspace(0.5, 6.0, 551).tolist()


class TestLoewnerSandwich:
    def test_planted_pole_fails_its_block(self, linalg_calls):
        # g = 0: a block of 64 energies below the lowest free eigenvalue clears; with one of them
        # moved within the pole margin, the block's sandwich fails and each member takes its own guard
        config = make_config(g=0.0)
        lowest = FREE_EIGENVALUES[0]
        delta = POLE_MARGIN * max(1.0, lowest)
        clear = np.linspace(0.5, lowest - 2.0 * delta, _BLOCK).tolist()
        grid = clear[:20] + [lowest - 0.5 * delta] + clear[21:]
        assert cleared_blocks(clear, config) == [True] and cleared_blocks(grid, config) == [False]
        linalg_calls.clear()
        outcomes = kernel_outcomes(grid, [config])[0]
        # the sandwich, the stacked factorisation of M - delta I, each member alone, then the
        # pivot corners of the 63 certified
        assert linalg_calls == {"cholesky": 1 + 1 + _BLOCK + 1, "eigvalsh": 1}
        assert [m for m, outcome in enumerate(outcomes) if not isinstance(outcome, ScatterPoint)] == [20]
        for energy, outcome in zip(grid, outcomes):
            assert same_outcome(outcome, oracle_outcome(energy, config)), energy
            assert same_outcome(outcome, kernel_outcomes([energy], [config])[0][0]), energy

    @pytest.mark.parametrize("g", [3e292, 1e300, 1e308, -1e300])
    def test_coupling_overflow_reads_overflow(self, g):
        # where max|c| rho_j is not finite no block clears, so a member whose c_i Lambda
        # overflows reports overflow, never a pole; every row is the per-energy oracle's
        configs = [make_config(g=g, nu=float(nu)) for nu in range(1, 8)]
        for config, outcomes in zip(configs, kernel_outcomes(PAPER_GRID, configs)):
            assert not any(isinstance(outcome, PoleError) for outcome in outcomes), config.nu
            for energy, outcome in zip(PAPER_GRID, outcomes):
                assert same_outcome(outcome, oracle_outcome(energy, config)), (config.nu, energy)

    @pytest.mark.parametrize("nu", [1.0, 7.0])
    def test_lower_operator_below_every_member(self, monkeypatch, nu):
        # fl(M_i) - delta_i I - fl(A) >= 0 for every member of every paper block: r covers the
        # rounding of fl(M_i), fl(A) and the stored Lambda.  The check scales that difference to
        # a unit diagonal, a congruence that keeps its inertia, so that eigvalsh's normwise
        # rounding (||Lambda|| ~ 1e17 at nu = 1) does not swamp its small eigenvalues
        config = make_config(nu=nu)
        stacks = recorded_stacks(monkeypatch, "_factors")
        kernel_outcomes(PAPER_GRID, [config])
        lower = stacks[0]
        assert lower.shape == (9, config.size, config.size)
        h0, _, _ = _free_block(config.basis, config.size)
        for b, start in enumerate(range(0, len(PAPER_GRID), _BLOCK)):
            energies = np.array(PAPER_GRID[start : start + _BLOCK])
            couplings = [config.g * w * w for w in (weight(energy, config) for energy in energies)]
            members = _wave_stack(h0, couplings, lambda_matrix(config).entries, energies[:, None])
            difference = members - lower[b]
            _diagonal(difference)[...] -= POLE_MARGIN * np.maximum(1.0, energies)[:, None]
            scale = 1.0 / np.sqrt(_diagonal(difference))
            scaled = scale[:, :, None] * difference * scale[:, None, :]
            assert np.linalg.eigvalsh(scaled).min() >= 0.0, b

    def test_block_of_one_takes_its_own_guard(self, linalg_calls):
        # a single energy, or a block with one live member, is its own sandwich: no extra factorisation
        config = make_config(nu=3.0)
        s_matrix(3.0, config)
        assert linalg_calls == {"cholesky": 1 + 1}
        (coupling,), _ = block_couplings([3.0], config)
        energies = np.array([3.0, 3.1])
        assert sandwich(energies, np.array([coupling, coupling]), config) == [True]
        linalg_calls.clear()
        assert sandwich(energies[:1], np.array([coupling]), config) == [False]
        assert linalg_calls == {}


def block_couplings(grid, config):
    """The couplings g w^2 of the grid's energies, nan where the weight fails, and those failures."""
    w, errors = _weights([_momentum(energy, config.basis) for energy in grid], config)
    return config.g * np.array(w) * np.array(w), errors


def failed_energies(grid, config):
    """Indices of the energies whose weight or free tails fail: the kernel builds no wave operator for them."""
    _, tails_failed = _free_tails([_momentum(energy, config.basis) for energy in grid], config.basis, config.size + 1)
    _, weight_errors = block_couplings(grid, config)
    return {j for j, (error, fails) in enumerate(zip(weight_errors, tails_failed.tolist())) if error or fails}


def sandwich(energies, couplings, config):
    """Per block, whether the Loewner sandwich of these live energies and their couplings clears it."""
    h0, _, h0_sums = _free_block(config.basis, config.size)
    return _cleared_blocks(energies, couplings, h0, h0_sums, lambda_matrix(config))


def cleared_blocks(grid, config):
    """Per block of the grid, whose energies are all live, whether its Loewner sandwich clears it."""
    return sandwich(np.array(grid), block_couplings(grid, config)[0], config)


def recorded_stacks(monkeypatch, name):
    """Stacks passed to scattering.<name> while the test runs."""
    stacks, original = [], getattr(scattering, name)

    def recorded(stack, *args):
        stacks.append(stack.copy())
        return original(stack, *args)

    monkeypatch.setattr(scattering, name, recorded)
    return stacks


def recorded_sizes(monkeypatch, name):
    """Stack sizes passed to scattering.<name> while the test runs."""
    sizes, original = [], getattr(scattering, name)

    def recorded(stack, *args):
        sizes.append(len(stack))
        return original(stack, *args)

    monkeypatch.setattr(scattering, name, recorded)
    return sizes


def block_corners(grid, config):
    """The kernel's corners, reason codes and values over one block of live energies, its Loewner sandwich first."""
    assert not failed_energies(grid, config)
    (cleared,) = cleared_blocks(grid, config)
    h0, _, _ = _free_block(config.basis, config.size)
    couplings, _ = block_couplings(grid, config)
    return _block_corners(grid, couplings, h0, lambda_matrix(config).entries, cleared)


def exact_last_column(matrix) -> list:
    """Last column of the inverse of a float matrix, in 60-digit arithmetic."""
    with mpmath.workdps(60):
        return mpmath.lu_solve(mpmath.matrix(matrix.tolist()), mpmath.matrix([0] * (len(matrix) - 1) + [1]))


def backward_error_bound(exact, left, right, perturbed, gamma) -> float:
    """gamma |g|^T |left| |right| |g'|: how far a corner may sit from the exact corner g[-1]
    when it is exactly that of M + dM, |dM| <= gamma |left| |right|, and g' is the last
    column of (M + dM)^-1 (the corner moves by -g^T dM g')."""
    size = np.abs(np.array([float(v) for v in exact]))
    moved = np.abs(np.array([float(v) for v in perturbed]))
    return gamma * float(size @ (np.abs(left) @ np.abs(right)) @ moved)


class TestPivotCorner:
    @pytest.mark.parametrize("nu", [1.0, 7.0])
    def test_pivot_and_solve_against_mpmath(self, nu):
        # Both corners are exact for a perturbed M + dM: the pivot with |dM| <= gamma_{N+1} |L| |L^T|
        # (Higham, Thm 10.3), the solve with |dM| <= gamma_{3N} |P L| |U| (Thm 9.4).  So each
        # misses the exact corner by at most gamma |g|^T |factors| |g'|, a bound of order
        # kappa(M) N eps relative, checked against a 60-digit inverse of the same float matrix.
        config = make_config(nu=nu)
        grid = np.linspace(0.5, 6.0, 551).tolist()[::110]
        stack = np.stack([wave_operator(energy, config) for energy in grid])
        size = config.size
        pivots, failed = _pivot_corners(stack)
        assert failed == []
        for energy, matrix, pivot in zip(grid, stack, pivots.tolist()):
            exact = exact_last_column(matrix)
            factor = np.linalg.cholesky(matrix)
            with mpmath.workdps(60):
                # the last column of (L L^T)^-1 is L^-T e_N / L[N-1, N-1]
                unit = mpmath.matrix([0] * (size - 1) + [1]) / factor[-1, -1]
                perturbed = mpmath.lu_solve(mpmath.matrix(factor.T.tolist()), unit)
                pivot_error = float(abs(pivot - exact[size - 1]))
            # and 1 / L[N-1, N-1]^2 rounds twice
            bound = backward_error_bound(exact, factor, factor.T, perturbed, _gamma(size + 1))
            assert pivot_error <= bound + _gamma(2) * pivot, energy

            (corner,), (code,), _ = _checked_solve(matrix[None])
            solution = np.linalg.solve(matrix, np.eye(size)[:, -1:])[:, 0]
            # the checked solve returns LAPACK's solution
            assert code == _OK and corner == solution[-1]
            permutation, lower, upper = scipy.linalg.lu(matrix)
            with mpmath.workdps(60):
                solve_error = float(abs(corner - exact[size - 1]))
            bound = backward_error_bound(exact, permutation @ lower, upper, solution, _gamma(3 * size))
            assert solve_error <= bound, energy

    @pytest.mark.parametrize(
        "entry, value",
        [((2, 2), np.inf), ((2, 2), np.nan), ((2, 1), np.nan), ((2, 2), -4.0)],
        ids=["inf", "nan", "nan-off", "indefinite"],
    )
    def test_bad_member_fails_alone(self, entry, value):
        # LAPACK lets nan and inf through, and stops the whole stack at an indefinite member
        stack = np.stack([np.diag([2.0, 2.0, 4.0])] * 3)
        stack[(1,) + entry] = stack[(1,) + entry[::-1]] = value
        # inf * 0 in the check is nan, as under the kernel's errstate
        with np.errstate(invalid="ignore"):
            corners, failed = _pivot_corners(stack)
        assert failed == [1]
        assert corners[[0, 2]].tolist() == [0.25, 0.25] and math.isnan(corners[1])

    def test_failed_check_takes_checked_solve(self, monkeypatch):
        config = make_config(nu=3.0)
        grid = np.linspace(0.5, 6.0, 10).tolist()
        clean, _, _ = block_corners(grid, config)
        cholesky, calls = np.linalg.cholesky, []

        def planted(stack):
            # the first call factors the block's lower operator, the second M for the corners:
            # spoil the last row of member 4
            calls.append(len(stack))
            factor = cholesky(stack)
            if len(calls) == 2:
                factor[4, -1] *= 1.0 + 1e-6
            return factor

        monkeypatch.setattr(np.linalg, "cholesky", planted)
        solves = recorded_sizes(monkeypatch, "_checked_solve")
        corners, reasons, _ = block_corners(grid, config)
        assert calls == [1, 10] and solves == [1] and reasons.tolist() == [_OK] * 10
        assert corners[4] == checked_corner(wave_operator(grid[4], config), grid[4])
        others = [m for m in range(10) if m != 4]
        assert corners[others].tolist() == clean[others].tolist()

    def test_clear_indefinite_members_skip_pivot(self, monkeypatch):
        # g = 0: M = H0 - E is certified below the lowest free eigenvalue and cleared only by
        # eigvalsh above it; those members take the checked solve, never the Cholesky of M
        config = make_config(g=0.0)
        grid = np.linspace(0.5, 6.0, _BLOCK).tolist()
        below = sum(energy < FREE_EIGENVALUES[0] for energy in grid)
        assert 0 < below < _BLOCK
        pivots = recorded_sizes(monkeypatch, "_pivot_corners")
        solves = recorded_sizes(monkeypatch, "_checked_solve")
        corners, reasons, _ = block_corners(grid, config)
        assert pivots == [below] and solves == [_BLOCK - below]
        assert reasons.tolist() == [_OK] * _BLOCK and np.isfinite(corners).all()


LAMBDA_ONE = BasisParams(lam=1.0, ell=1)
# the paper configs, one seeded nu per (N, K) pair of the benchmark's validate-sweep with
# its seed-27 draw, lambda = 1 energy lists with pole, overflow and degenerate skips, and a
# scale whose sine coefficients underflow
VALIDATE_CASES = (
    [(make_config(nu=float(nu)), None) for nu in range(1, 8)]
    + [
        (make_config(nu=float(nu), size=size, terms=terms), None)
        for nu, (size, terms) in zip(
            np.random.default_rng(15).uniform(0.0, 8.0, 6),
            ((16, 4), (20, 8), (24, 10), (32, 8), (40, 8), (48, 8)),
        )
    ]
    + [
        (make_config(nu=1.3941544542304376, size=48), None),
        (make_config(basis=LAMBDA_ONE, nu=1.0), [20.0, 30.0, 40.0, 42.5, 50.0, 60.0, 1e300]),
        # the Casoratian's first 4 energies mix sequences that raise (1e300, 710) with checked ones
        (make_config(basis=LAMBDA_ONE, nu=2.0), [1e300, 20.0, 710.0, 30.0, 40.0]),
        (make_config(basis=BasisParams(lam=1e130, ell=1), nu=1.0), None),
        (
            make_config(basis=LAMBDA_ONE, g=0.0, nu=1.0),
            [*np.linalg.eigvalsh(h0_matrix(LAMBDA_ONE, 20))[[1, 3]].tolist(), 2.0, 9.0, 42.5, 1e300],
        ),
    ]
)


def point_routes(energy, config):
    """The kernel's corner alone, the two public routes on H and the three-route tolerance
    at one energy, or the first error in the order spectral, determinant."""
    h = hamiltonian(energy, config)
    try:
        routes = (
            kernel_corner(energy, config),
            green_corner_spectral(h, energy),
            green_corner_determinant(h, energy),
        )
    except PoleError as exc:
        return type(exc)
    return (*routes, route_tolerance(h, energy))


@pytest.mark.parametrize(
    "config, energies",
    VALIDATE_CASES,
    ids=[f"lam{c.basis.lam:g}-g{c.g:g}-nu{c.nu:.6g}-N{c.size}-K{c.terms}" for c, _ in VALIDATE_CASES],
)
class TestStackedValidate:
    def test_report_equals_per_energy_oracle(self, config, energies):
        report = validate(config, energies)
        expected = validate_point(config, energies)
        assert [(c.name, c.passed, c.detail) for c in report.checks] == [
            (c.name, c.passed, c.detail) for c in expected.checks
        ]

    def test_stacked_routes_equal_public_routes(self, config, energies):
        energies = np.linspace(0.6, 5.9, 8).tolist() if energies is None else energies
        ((_, _, _, reasons, _, corners),) = _scatter(energies, [config])
        live = (reasons == _OK).nonzero()[0].tolist()
        at = [energies[j] for j in live]
        routes = _green_routes(config, at)
        assert [route.shape for route in routes] == [(len(at),)] * 4
        for energy, *values, code in zip(at, corners[live].tolist(), *(route.tolist() for route in routes)):
            expected = point_routes(energy, config)
            assert (tuple(values) if code == _OK else _REASONS[code][1]) == expected, energy

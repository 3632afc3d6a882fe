import math

import numpy as np
import pytest

from jmnl import scattering
from jmnl.nonlinear import ModelConfig, wave_operator
from jmnl.reference import BasisParams, RecurrenceOverflowError, h0_matrix
from jmnl.scattering import (
    _BLOCK,
    POLE_MARGIN,
    DegenerateEnergyError,
    Pencil,
    PoleError,
    ScatterPoint,
    _checked_solve,
    _clear_of_poles,
    _scatter,
    generalized_eigen,
    green_corner_determinant,
    green_corner_direct,
    green_corner_spectral,
    green_direct,
    s_matrix,
)

from oracles import s_matrix_point, s_matrix_tr_form


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


def random_pencil(rng, size=5):
    a = rng.standard_normal((size, size))
    a = a + a.T
    chol = rng.standard_normal((size, size)) + size * np.eye(size)
    b = chol @ chol.T
    b = 0.5 * (b + b.T)
    return Pencil(a=a, b=b, label="random test pencil")


class TestPencil:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Pencil(a=np.array([[1.0, 2.0], [0.0, 1.0]]), b=np.eye(2))

    def test_rejects_indefinite_b(self):
        with pytest.raises(ValueError):
            Pencil(a=np.eye(2), b=np.diag([1.0, -1.0]))

    def test_label_kept(self):
        p = Pencil(a=np.eye(2), b=np.eye(2), label="free block")
        assert p.label == "free block"


class TestScatterPoint:
    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            ScatterPoint(energy=1.0, s_value=1.5 + 0.0j, delta=0.0, amplitude=0.5)


class TestGreenDirect:
    def test_diagonal_example(self):
        inverse = green_direct(np.diag([2.0, 4.0]))
        assert np.allclose(inverse, np.diag([0.5, 0.25]), atol=1e-15)

    def test_residual_on_scan_config(self):
        matrix = wave_operator(1.0, make_config())
        inverse = green_direct(matrix, energy=1.0)
        residual = np.abs(matrix @ inverse - np.eye(20)).max()
        assert residual < 1e-9

    @pytest.mark.parametrize("route", [green_direct, green_corner_direct])
    def test_singular_raises_pole(self, route):
        with pytest.raises(PoleError):
            route(np.diag([1.0, 0.0]), energy=3.5)

    @pytest.mark.parametrize("route", [green_direct, green_corner_direct])
    def test_pole_error_carries_energy(self, route):
        try:
            route(np.zeros((2, 2)), energy=2.25)
        except PoleError as err:
            assert err.energy == 2.25
        else:
            pytest.fail("expected PoleError")

    @pytest.mark.parametrize(
        "member, message",
        [
            (np.diag([1.0, 0.0]), "wave operator is singular"),
            (np.diag([np.inf, 1.0]), "solve residual nan exceeds tolerance"),
        ],
        ids=["singular", "residual"],
    )
    def test_failure_marks_only_its_row(self, member, message):
        # LAPACK fails a whole stack at one singular member; an infinite
        # entry leaves a nan residual that refinement cannot lower
        stack = np.array([np.diag([2.0, 4.0]), member, np.diag([4.0, 8.0])])
        unit = np.zeros((3, 2, 1))
        unit[:, -1] = 1.0
        with np.errstate(invalid="ignore"):
            solution, errors = _checked_solve(stack, unit, [1.0, 2.0, 3.0])
            with pytest.raises(PoleError) as alone:
                green_corner_direct(member, energy=2.0)
        assert errors[0] is None and errors[2] is None
        assert solution[[0, 2], -1, 0].tolist() == [0.25, 0.125]
        assert isinstance(errors[1], PoleError) and errors[1].energy == 2.0
        assert str(errors[1]).startswith(message)
        assert str(errors[1]) == str(alone.value)


class TestGeneralizedEigen:
    def test_identity_weight(self):
        p = Pencil(a=np.diag([1.0, 2.0]), b=np.eye(2))
        eigenvalues, gamma = generalized_eigen(p)
        assert np.allclose(eigenvalues, [1.0, 2.0], atol=1e-14)
        assert np.allclose(np.abs(gamma), np.eye(2), atol=1e-12)

    def test_random_pencil_residual(self):
        rng = np.random.default_rng(5)
        p = random_pencil(rng, size=6)
        eigenvalues, gamma = generalized_eigen(p)
        residual = np.abs(p.a @ gamma - p.b @ gamma @ np.diag(eigenvalues)).max()
        assert residual < 1e-9

    def test_b_orthonormal_columns(self):
        rng = np.random.default_rng(6)
        p = random_pencil(rng, size=6)
        _, gamma = generalized_eigen(p)
        assert np.abs(gamma.T @ p.b @ gamma - np.eye(6)).max() < 1e-10


class TestGreenCornerRoutes:
    def test_single_mode_case(self):
        p = Pencil(a=np.array([[2.0]]), b=np.array([[1.0]]))
        assert green_corner_spectral(p, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert green_corner_determinant(p, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_spectral_matches_direct_inverse(self):
        rng = np.random.default_rng(7)
        p = random_pencil(rng, size=5)
        for e_hat in (-3.0, 0.4, 9.5):
            direct = np.linalg.inv(p.a - e_hat * p.b)[-1, -1]
            assert green_corner_spectral(p, e_hat) == pytest.approx(direct, rel=1e-8)

    def test_determinant_matches_spectral(self):
        rng = np.random.default_rng(8)
        p = random_pencil(rng, size=5)
        for e_hat in rng.uniform(-5.0, 12.0, size=10):
            spectral = green_corner_spectral(p, float(e_hat))
            determinant = green_corner_determinant(p, float(e_hat))
            assert determinant == pytest.approx(spectral, rel=1e-8)

    def test_unit_weight_reduces_to_char_poly_ratio(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        p = Pencil(a=a, b=np.eye(6))
        e_hat = 0.37
        expected = np.linalg.det(a[:-1, :-1] - e_hat * np.eye(5)) / np.linalg.det(
            a - e_hat * np.eye(6)
        )
        assert green_corner_determinant(p, e_hat) == pytest.approx(expected, rel=1e-9)

    def test_resolvent_decay(self):
        rng = np.random.default_rng(10)
        p = random_pencil(rng, size=4)
        assert abs(green_corner_spectral(p, 1e9)) < 1e-6
        assert abs(green_corner_spectral(p, -1e9)) < 1e-6

    def test_pole_margin(self):
        p = Pencil(a=np.diag([1.0, 2.0]), b=np.eye(2))
        with pytest.raises(PoleError):
            green_corner_spectral(p, 2.0 + 1e-9)
        with pytest.raises(PoleError):
            green_corner_determinant(p, 1.0)

    def test_denominator_sign_changes_bracket_eigenvalues(self):
        # the characteristic product flips sign exactly once across each
        # pencil eigenvalue
        rng = np.random.default_rng(12)
        p = random_pencil(rng, size=5)
        eigenvalues, _ = generalized_eigen(p)
        probes = np.sort(
            np.concatenate(
                [eigenvalues - 1e-4, eigenvalues + 1e-4]
            )
        )
        xi = np.linalg.eigvalsh(p.b)
        products = [float(np.prod(xi * (eigenvalues - e))) for e in probes]
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
        s = sine_coefficients(energy, config.basis, config.size + 1).values
        c = cosine_coefficients(energy, config.basis, config.size + 1).values
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
# pole margin (found among the floats next to where that eigenvalue changes sign)
POLE_ENERGY = 1.3829290143012876


class TestScanKernel:
    @pytest.mark.parametrize("nu", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    def test_bitwise_equal_to_point_oracle(self, nu):
        config = make_config(nu=nu)
        grid = [float(e) for e in np.linspace(0.5, 6.0, 100)]
        for energy, point in zip(grid, _scatter(grid, [config])[0]):
            expected = s_matrix_point(energy, config)
            assert point.s_value == expected.s_value
            assert point.delta == expected.delta
            assert point.amplitude == expected.amplitude
            assert point.energy == energy

    def test_errors_match_point_oracle_across_blocks(self):
        config = make_config(basis=OVERFLOW_BASIS, nu=1.0)
        grid = [float(e) for e in np.linspace(40.0, 90.0, 2 * _BLOCK + 2)]
        outcomes = _scatter(grid, [config])[0]
        kinds = {type(outcome) for outcome in outcomes}
        assert {ScatterPoint, DegenerateEnergyError, RecurrenceOverflowError} <= kinds
        for energy, outcome in zip(grid, outcomes):
            assert same_outcome(outcome, oracle_outcome(energy, config)), energy

    def test_every_status_in_one_block(self):
        # S is assembled as arrays over the solved members; degenerate and tail-error members sit among them.
        # E = 42.5 lies above part of the spectrum, so the block takes eigvalsh, as the oracle does
        config = make_config(basis=OVERFLOW_BASIS, nu=1.0)
        grid = [10.0, 42.50583527842615, POLE_ENERGY, 50.0, 55.0, 77.17805935311771, 30.0, 710.0]
        outcomes = _scatter(grid, [config])[0]
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
        outcomes = _scatter([0.5, 3.25, 87.5], [config])[0]
        assert linalg_calls == {"cholesky": 1, "eigvalsh": 1}
        assert isinstance(outcomes[0], ScatterPoint)
        assert same_outcome(outcomes[0], _scatter([0.5], [config])[0][0])
        for energy, outcome in zip([3.25, 87.5], outcomes[1:]):
            assert type(outcome) is OverflowError
            assert str(outcome) == f"wave operator is not finite at E={energy}"

    def test_solve_error_before_tail_error(self, monkeypatch):
        # as for the point oracle, a member whose solve fails reports that, not its tail error
        def failing_solve(matrix, rhs, energies):
            solution, _ = _checked_solve(matrix, rhs, energies)
            return solution, [PoleError("forced", energy=energy) for energy in energies]

        monkeypatch.setattr(scattering, "_checked_solve", failing_solve)
        outcomes = _scatter([30.0, 710.0], [make_config(basis=OVERFLOW_BASIS, nu=1.0)])[0]
        assert [(type(outcome), str(outcome)) for outcome in outcomes] == [(PoleError, "forced")] * 2

    @pytest.mark.parametrize(
        "config, energy, kind",
        [
            (make_config(g=0.0), FREE_EIGENVALUE, PoleError),
            (make_config(basis=OVERFLOW_BASIS, nu=1.0), 710.0, RecurrenceOverflowError),
            (make_config(basis=OVERFLOW_BASIS, nu=1.0), 77.17805935311771, RecurrenceOverflowError),
            (make_config(basis=OVERFLOW_BASIS, nu=1.0), 42.50583527842615, DegenerateEnergyError),
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

    @pytest.mark.parametrize("length", [1, 37, 64, 65, 200])
    @pytest.mark.parametrize(
        "config, low, high",
        [(make_config(nu=3.0), 0.5, 6.0), (make_config(basis=OVERFLOW_BASIS, nu=1.0), 40.0, 90.0)],
        ids=["paper", "mixed-errors"],
    )
    def test_result_independent_of_position(self, config, low, high, length):
        # an unsorted list drawn with repetition from a 37-point pool, seeded by its length
        pool = np.linspace(low, high, 37)
        energies = [float(e) for e in np.random.default_rng(length).choice(pool, size=length)]
        alone = {energy: _scatter([energy], [config])[0][0] for energy in set(energies)}
        for energy, outcome in zip(energies, _scatter(energies, [config])[0]):
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
        for config, outcomes in zip(configs, _scatter(grid, configs)):
            alone = _scatter(grid, [config])[0]
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
        certified = _scatter(clear + [outside], [config])[0]
        assert linalg_calls == {"cholesky": 1}
        grid = clear + [inside, outside]
        outcomes = _scatter(grid, [config])[0]
        assert linalg_calls == {"cholesky": 2, "eigvalsh": 1}
        assert isinstance(outcomes[-2], PoleError)
        assert isinstance(outcomes[-1], ScatterPoint)
        assert certified == outcomes[:-2] + outcomes[-1:]
        for energy, outcome in zip(grid, outcomes):
            assert same_outcome(outcome, oracle_outcome(energy, config)), energy

    @pytest.mark.parametrize(
        "config, low, high",
        [(make_config(g=0.0), 0.5, 6.0), (make_config(basis=OVERFLOW_BASIS, nu=1.0), 40.0, 90.0)],
        ids=["free", "mixed-errors"],
    )
    def test_clear_indefinite_block_takes_spectrum(self, linalg_calls, config, low, high):
        # E above part of the spectrum: the Cholesky cannot certify, yet no energy is a pole
        grid = [float(e) for e in np.linspace(low, high, _BLOCK)]
        outcomes = _scatter(grid, [config])[0]
        assert linalg_calls == {"cholesky": 1, "eigvalsh": 1}
        assert not any(isinstance(outcome, PoleError) for outcome in outcomes)
        assert any(isinstance(outcome, ScatterPoint) for outcome in outcomes)
        for energy, outcome in zip(grid, outcomes):
            assert same_outcome(outcome, oracle_outcome(energy, config)), energy

    @pytest.mark.parametrize(
        "entry, value", [((2, 2), np.inf), ((2, 2), np.nan), ((2, 1), np.nan)], ids=["inf", "nan", "nan-off"]
    )
    def test_non_finite_member_not_certified(self, entry, value):
        # LAPACK's Cholesky can return without error on nan or inf entries
        stack = np.stack([4.0 * np.eye(3)] * 2)
        stack[(1,) + entry] = stack[(1,) + entry[::-1]] = value
        energies = np.ones((2, 1))
        assert _clear_of_poles(stack[:1], energies[:1], POLE_MARGIN)
        assert not _clear_of_poles(stack, energies, POLE_MARGIN)

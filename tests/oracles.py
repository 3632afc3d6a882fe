"""Independent reference computations used to pin expected values.

Everything here deliberately avoids the code paths under test: polynomial
values come from explicit series or from scipy's own evaluators, quadrature
nodes from scipy's Gauss-Laguerre roots, radial integrals from adaptive
quadrature, the exact free waves from scipy's Bessel functions.  The identity
residuals in the middle (product linearization, the regular free wave) and
the ansatz coefficients combine the package's own pieces; the tests and the
acceptance gate need them, the scan does not.  The per-point scattering
routes at the end evaluate one energy at a time through the public per-point
functions and numpy's Cholesky factorisation; the batched scan kernel is
compared with them, and the stacked ``validate`` with the per-energy
``validate_point``, which takes each energy's corner from the kernel alone.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, roots_genlaguerre, spherical_jn

from jmnl.nonlinear import ModelConfig, lambda_matrix, omega_transform, wave_operator, weight
from jmnl.orthopoly import laguerre_orthonormal_sequence, linearization_table
from jmnl.reference import BasisParams, Kinematics, cosine_coefficients, h0_element, h0_matrix, sine_coefficients
from jmnl.scattering import (
    _CASORATIAN_LIMIT,
    _EPS,
    POLE_MARGIN,
    DegenerateEnergyError,
    PoleError,
    ScatterPoint,
    ValidationReport,
    _lambda_bound,
    _scatter,
    _status,
    green_corner_determinant,
    green_corner_direct,
    green_corner_spectral,
    status_summary,
)


def laguerre_series(n: int, nu: float, z: float) -> float:
    """L_n^nu(z) from the explicit finite sum, in exact rational arithmetic."""
    nu_f = Fraction(nu)
    z_f = Fraction(z)
    total = Fraction(0)
    for k in range(n + 1):
        binom = Fraction(1)
        for j in range(k + 1, n + 1):
            binom *= nu_f + j
        binom /= math.factorial(n - k)
        total += binom * (-z_f) ** k / math.factorial(k)
    return float(total)


def orthonormal_series(n: int, nu: float, z: float) -> float:
    a_n = math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(n + nu + 1)))
    return a_n * laguerre_series(n, nu, z)


def orthonormal_scipy(n: int, nu: float, z) -> np.ndarray:
    """Orthonormal Laguerre values through scipy's independent evaluator."""
    a_n = math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(n + nu + 1)))
    return a_n * eval_genlaguerre(n, nu, z)


def gauss_laguerre_scipy(count: int, nu: float):
    """Reference Gauss rule for weight z^nu e^{-z} from scipy roots."""
    nodes, weights = roots_genlaguerre(count, nu)
    return nodes, weights


def triple_product_integral(i: int, n: int, m: int, nu: float) -> float:
    """Weighted integral of Lt_i^2 Lt_n Lt_m by exact Gauss quadrature."""
    degree = 2 * i + n + m
    nodes, weights = gauss_laguerre_scipy(degree + 6, nu)
    vals_i = orthonormal_scipy(i, nu, nodes)
    vals_n = orthonormal_scipy(n, nu, nodes)
    vals_m = orthonormal_scipy(m, nu, nodes)
    return float(np.sum(weights * vals_i**2 * vals_n * vals_m))


def bessel_j_series(ell: int, x: float) -> float:
    """Spherical Bessel j_ell from the defining power series."""
    double_fact = 1.0
    for odd in range(1, 2 * ell + 2, 2):
        double_fact *= odd
    total = 0.0
    term = 1.0 / double_fact
    k = 0
    while True:
        total += term
        k += 1
        term *= -0.5 * x * x / (k * (2 * ell + 2 * k + 1))
        if abs(term) < 1e-20 * max(1.0, abs(total)) or k > 80:
            break
    return x**ell * total


def kummer_series(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric M(a, b, z) by direct series summation."""
    term = 1.0
    total = 1.0
    for k in range(400):
        term *= (a + k) / (b + k) * z / (k + 1)
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return total


def linearization_identity_residual(i: int, n: int, nu: float, z: float) -> float:
    """Relative mismatch of the product expansion at a single point.

    Compares Lt_i(z)^2 Lt_n(z) against the tabulated expansion
    sum_m entries[i, n, m] Lt_m(z), m <= n + 2i, normalized by max(1, |lhs|).
    Meaningful for z in the well-conditioned evaluation range (roughly
    z <= 50 at degrees <= 40).
    """
    entries, _ = linearization_table(i + 1, n + 2 * i + 1, nu)
    values = laguerre_orthonormal_sequence(n + 2 * i, nu, z)
    lhs = values[i] ** 2 * values[n]
    rhs = float(entries[i, n, : n + 2 * i + 1] @ values)
    return abs(lhs - rhs) / max(1.0, abs(lhs))


def ansatz_coefficients(energy: float, config: ModelConfig, count: int) -> np.ndarray:
    """Weighted orthonormal-Laguerre ansatz f_n(E) = omega(E) Lt_n(mu^2), n < count."""
    mu = Kinematics.from_energy(energy, config.basis).mu
    return weight(energy, config) * laguerre_orthonormal_sequence(count - 1, config.nu, mu**2)


def regular_wave(energy: float, r: float, basis: BasisParams) -> float:
    """Exact regular free solution sqrt(2 k r) J_{ell+1/2}(k r) = (2/sqrt(pi)) x j_ell(x), x = k r."""
    x = math.sqrt(2.0 * energy) * r
    return (2.0 / math.sqrt(math.pi)) * x * float(spherical_jn(basis.ell, x))


def regular_solution_residual(energy: float, r: float, count: int, basis: BasisParams) -> float:
    """Relative mismatch between the resummed basis expansion and the exact wave.

    The raw truncated expansion sum_{n<count} s_n phi_n(r) is only
    conditionally convergent: its partial sums oscillate around the limit at
    the 1e-2 level regardless of count.  A smooth taper (unit weight on the
    first half, cosine-squared roll-off on the second) recovers the summed
    limit; with count = 80 the residual is a few 1e-6 in the window
    lam*r in [0.5, 5].
    """
    s = sine_coefficients(energy, basis, count)
    z = (basis.lam * r) ** 2
    lt = laguerre_orthonormal_sequence(count - 1, basis.nu_basis, z)
    phi = math.sqrt(2.0 * basis.lam) * (basis.lam * r) ** (basis.ell + 1) * math.exp(-z / 2.0) * lt
    n = np.arange(count)
    half = count // 2
    taper = np.where(n < half, 1.0, np.cos(0.5 * math.pi * (n - half) / max(1, count - half)) ** 2)
    exact = regular_wave(energy, r, basis)
    return abs(float(np.dot(s * taper, phi)) - exact) / abs(exact)


def radial_overlap(f, g, upper: float = 60.0) -> float:
    """Adaptive-quadrature inner product of two radial functions on (0, inf)."""
    value, _ = quad(lambda r: f(r) * g(r), 0.0, upper, limit=400)
    return value


def free_hamiltonian_residual(values: np.ndarray, energy: float, lam: float, ell: int) -> float:
    """Worst interior residual of the tridiagonal free-problem recursion.

    Checks E P_n = a_n P_n + b_{n-1} P_{n-1} + b_n P_{n+1} with the
    oscillator-basis coefficients, normalized by the largest entry.
    """
    scale = 0.5 * lam**2
    worst = 0.0
    big = float(np.max(np.abs(values)))
    for n in range(1, len(values) - 1):
        lhs = energy * values[n]
        rhs = (
            scale * (2 * n + ell + 1.5) * values[n]
            + scale * math.sqrt(n * (n + ell + 0.5)) * values[n - 1]
            + scale * math.sqrt((n + 1) * (n + ell + 1.5)) * values[n + 1]
        )
        worst = max(worst, abs(lhs - rhs) / big)
    return worst


def seed_residuals(s: np.ndarray, c: np.ndarray, energy: float, lam: float, ell: int):
    """Residuals of the two n = 0 seed relations, scaled by the seed size."""
    mu2 = 2.0 * energy / lam**2
    drive = (
        -(2.0 / math.pi)
        * math.sqrt(math.gamma(ell + 1.5) / lam)
        * (math.sqrt(mu2)) ** (-ell)
        * math.exp(mu2 / 2.0)
    )
    res_s = mu2 * s[0] - (ell + 1.5) * s[0] - math.sqrt(ell + 1.5) * s[1]
    res_c = mu2 * c[0] - (ell + 1.5) * c[0] - math.sqrt(ell + 1.5) * c[1] - drive
    scale_s = max(abs(s[0]), abs(s[1]), 1e-300)
    scale_c = max(abs(c[0]), abs(c[1]), abs(drive), 1e-300)
    return abs(res_s) / scale_s, abs(res_c) / scale_c


def _kinematic_tail(energy: float, config: ModelConfig):
    """s_n, c_n at indices N-1 and N, plus the tail coupling b_{N-1}."""
    count = config.size + 1
    s = sine_coefficients(energy, config.basis, count)
    c = cosine_coefficients(energy, config.basis, count)
    b_tail = h0_element(config.size - 1, config.size, config.basis)
    return s, c, b_tail


def _pivot_corner(matrix: np.ndarray, margin: float) -> float | None:
    """1 / L[N-1, N-1]^2 from the Cholesky factor of the matrix, or None when a
    Cholesky factorisation cannot certify matrix - margin I positive definite."""
    try:
        shifted = np.linalg.cholesky(matrix - margin * np.eye(len(matrix)))
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(shifted).all():
        return None
    return float(1.0 / np.linalg.cholesky(matrix)[-1, -1] ** 2)


def _corner_and_tail(energy: float, config: ModelConfig):
    # a coupling g omega^2 Lambda beyond the double range leaves inf or nan entries
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = wave_operator(energy, config)
    if not np.isfinite(matrix).all():
        raise OverflowError(f"wave operator is not finite at E={energy}")
    eigenvalues = np.linalg.eigvalsh(matrix) + energy
    gap = float(np.min(np.abs(eigenvalues - energy)))
    if gap <= POLE_MARGIN * max(1.0, abs(energy)):
        raise PoleError(
            f"energy {energy} within pole margin of spectral point (gap {gap:.3e})",
            energy=energy,
        )
    corner = _pivot_corner(matrix, POLE_MARGIN * max(1.0, abs(energy)))
    if corner is None:
        corner = green_corner_direct(matrix, energy)
    s, c, b_tail = _kinematic_tail(energy, config)
    return corner, s, c, b_tail


def s_matrix_point(energy: float, config: ModelConfig) -> ScatterPoint:
    """Scattering matrix at one energy, one call per layer."""
    corner, s, c, b_tail = _corner_and_tail(energy, config)
    last = config.size - 1
    numerator = c[last] - 1j * s[last] + b_tail * corner * (c[last + 1] - 1j * s[last + 1])
    denominator = c[last] + 1j * s[last] + b_tail * corner * (c[last + 1] + 1j * s[last + 1])
    if abs(denominator) < 1e-300:
        raise DegenerateEnergyError(f"scattering denominator vanished at E={energy}")
    s_value = numerator / denominator
    return ScatterPoint(
        energy=energy,
        s_value=complex(s_value),
        delta=float(np.angle(s_value) / 2.0),
        amplitude=float(abs(1.0 - s_value)),
    )


def s_matrix_tr_form(energy: float, config: ModelConfig) -> ScatterPoint:
    """Same scattering matrix through the reflection-ratio form.

    Writes S = T_{N-1} (1 + G_c J R^-) / (1 + G_c J R^+) with
    T_n = (c_n - i s_n)/(c_n + i s_n), R^± the ratio of consecutive
    (c ± i s), and J the off-diagonal free-Hamiltonian coupling.  Must agree
    with the scattering matrix to full precision.
    """
    corner, s, c, b_tail = _corner_and_tail(energy, config)
    last = config.size - 1
    t_last = (c[last] - 1j * s[last]) / (c[last] + 1j * s[last])
    r_minus = (c[last + 1] - 1j * s[last + 1]) / (c[last] - 1j * s[last])
    r_plus = (c[last + 1] + 1j * s[last + 1]) / (c[last] + 1j * s[last])
    denominator = 1.0 + corner * b_tail * r_plus
    if abs(denominator) < 1e-300:
        raise DegenerateEnergyError(f"scattering denominator vanished at E={energy}")
    s_value = t_last * (1.0 + corner * b_tail * r_minus) / denominator
    return ScatterPoint(
        energy=energy,
        s_value=complex(s_value),
        delta=float(np.angle(s_value) / 2.0),
        amplitude=float(abs(1.0 - s_value)),
    )


def _casoratian_point(energy: float, config: ModelConfig) -> tuple[float, float]:
    """Relative Casoratian defect over n < N and its rounding bound, b_n one h0_element each."""
    basis, count = config.basis, config.size + 1
    sine = sine_coefficients(energy, basis, count)
    cosine = cosine_coefficients(energy, basis, count)
    b = np.array([h0_element(n, n + 1, basis) for n in range(config.size)])
    wronskian = 2.0 * math.sqrt(2.0 * energy) / math.pi
    first, second = b * sine[:-1] * cosine[1:], b * sine[1:] * cosine[:-1]
    defect = float(np.max(np.abs(first - second - wronskian))) / wronskian
    scale = float(np.max(np.abs(first) + np.abs(second))) / wronskian
    return defect, 5.0 * count * _EPS * scale


def kernel_corner(energy: float, config: ModelConfig):
    """The scan kernel's corner at one energy alone, or the ArithmeticError that stops S there."""
    ((_, _, _, (error,), (corner,)),) = _scatter([energy], [config])
    return corner if error is None else error


def hamiltonian(energy: float, config: ModelConfig) -> np.ndarray:
    """H = H0 + g omega^2 Lambda at one energy, built as the stacked routes build it."""
    w = weight(energy, config)
    return h0_matrix(config.basis, config.size) + (config.g * w * w) * lambda_matrix(config).entries


def validate_point(config: ModelConfig, energies=None) -> ValidationReport:
    """The validate report with the Green's routes run one energy at a time.

    Each energy gets its own kernel call for the corner S uses; an energy S
    accepts gets its own H and one call of each public route, and an error
    skips it in the order kernel, spectral, determinant.
    """
    report = ValidationReport()
    if energies is None:
        energies = np.linspace(0.6, 5.9, 8)
    lam = lambda_matrix(config)
    report.add("lambda-positive", *_lambda_bound(lam, config.nu))
    try:
        transform = omega_transform(lam)
        report.add(
            "omega-identity",
            True,
            f"residual {transform.residual:.3e} (double-precision floor {transform.floor:.3e})",
        )
    except np.linalg.LinAlgError as exc:
        report.add("omega-identity", False, str(exc))

    worst_route = 0.0
    skipped = []
    for energy in energies:
        corner = kernel_corner(energy, config)
        if isinstance(corner, ArithmeticError):
            skipped.append(_status(corner))
            continue
        try:
            h = hamiltonian(energy, config)
            spectral = green_corner_spectral(h, energy)
            det_route = green_corner_determinant(h, energy)
        except ArithmeticError as exc:
            skipped.append(_status(exc))
            continue
        eigenvalues = np.linalg.eigvalsh(h)
        gap = float(np.min(np.abs(eigenvalues - energy)))
        radius = float(np.max(np.abs(eigenvalues)))
        tol = max(1e-8, 1024.0 * _EPS * radius / gap)
        spread = max(abs(corner - spectral), abs(corner - det_route), abs(spectral - det_route))
        worst_route = max(worst_route, spread / abs(corner) / tol)
    checked = len(energies) - len(skipped)
    report.add(
        "green-three-route",
        checked > 0 and worst_route <= 1.0,
        f"worst spread {worst_route:.3f} of the conditioning-aware tolerance "
        f"({checked} checked, {status_summary(skipped, 'skipped')})",
    )

    worst_defect = 0.0
    worst_ratio = 0.0
    skipped = []
    for energy in energies[:4]:
        try:
            defect, bound = _casoratian_point(energy, config)
        except ArithmeticError as exc:
            skipped.append(_status(exc))
            continue
        worst_defect = max(worst_defect, defect)
        worst_ratio = max(worst_ratio, defect / bound)
    checked = len(energies[:4]) - len(skipped)
    report.add(
        "casoratian",
        checked > 0 and worst_ratio <= 1.0 and worst_defect <= _CASORATIAN_LIMIT,
        f"worst relative defect {worst_defect:.3e} (limit {_CASORATIAN_LIMIT:.0e}), "
        f"{worst_ratio:.3f} of the rounding bound ({checked} checked, {status_summary(skipped, 'skipped')})",
    )
    return report

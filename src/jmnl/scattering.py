"""Finite Green's function routes and the elastic scattering matrix.

The truncated wave operator M(E) = H0 + W(E) - E is a real symmetric N x N
matrix; its inverse G(E) is the finite Green's function.  Only the corner
entry G[N-1, N-1] enters the scattering matrix

    S(E) = [c_{N-1} - i s_{N-1} + b_{N-1} G_c (c_N - i s_N)]
         / [c_{N-1} + i s_{N-1} + b_{N-1} G_c (c_N + i s_N)],

a ratio of complex conjugates, so |S| = 1 identically and the phase shift is
delta = arg(S)/2.  Three independent routes to the corner value are provided
(direct solve, spectral sum over a symmetric-definite pencil, and a
determinant ratio needing eigenvalues only); they must agree, which is the
main internal consistency oracle of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .nonlinear import ModelConfig, wave_operator
from .reference import cosine_coefficients, h0_element, sine_coefficients

__all__ = [
    "Pencil",
    "ScatterPoint",
    "PoleError",
    "DegenerateEnergyError",
    "POLE_MARGIN",
    "green_direct",
    "generalized_eigen",
    "green_corner_direct",
    "green_corner_spectral",
    "green_corner_determinant",
    "s_matrix",
    "s_matrix_tr_form",
]

_EPS = float(np.finfo(float).eps)

#: relative distance to the nearest spectral point below which an energy is
#: treated as sitting on a pole of the finite Green's function
POLE_MARGIN = 1e-6


class PoleError(ArithmeticError):
    """Requested energy sits on (or too close to) a Green's function pole."""

    def __init__(self, message: str, energy: float | None = None):
        super().__init__(message)
        self.energy = energy


class DegenerateEnergyError(ArithmeticError):
    """The scattering-matrix denominator vanished."""


@dataclass(frozen=True)
class Pencil:
    """Symmetric-definite matrix pair (a, b) with a provenance label."""

    a: np.ndarray
    b: np.ndarray
    label: str = ""

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("pencil matrices must be square and of equal shape")
        if not np.array_equal(a, a.T) or not np.array_equal(b, b.T):
            raise ValueError("pencil matrices must be exactly symmetric")
        try:
            np.linalg.cholesky(b)
        except np.linalg.LinAlgError as exc:
            raise ValueError("pencil right-hand matrix must be positive definite") from exc
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        a.setflags(write=False)
        b.setflags(write=False)

    @property
    def size(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class ScatterPoint:
    """Elastic scattering data at one energy."""

    energy: float
    s_value: complex
    delta: float
    amplitude: float

    def __post_init__(self):
        if abs(abs(self.s_value) - 1.0) > 1e-10:
            raise ValueError(
                f"unitarity violated at E={self.energy}: |S|={abs(self.s_value)!r}"
            )


def _checked_solve(matrix: np.ndarray, rhs: np.ndarray, energy: float | None) -> np.ndarray:
    """Solve matrix @ x = rhs with up to two refinement steps.

    Raises :class:`PoleError` when the matrix is singular or the max-norm
    residual stays above max(1e-9, 16 eps ||M|| ||x||): double precision
    cannot push it below ~eps ||M|| ||x||, and 1e-9 applies whenever that
    is representable.
    """
    try:
        solution = np.linalg.solve(matrix, rhs)
        for refinement in range(3):
            defect = rhs - matrix @ solution
            residual = float(np.abs(defect).max())
            if residual <= 1e-9 or residual <= (
                16.0 * _EPS * np.linalg.norm(matrix, np.inf) * np.linalg.norm(solution, np.inf)
            ):
                return solution
            if refinement < 2:
                solution = solution + np.linalg.solve(matrix, defect)
    except np.linalg.LinAlgError as exc:
        raise PoleError(f"wave operator is singular: {exc}", energy=energy) from exc
    raise PoleError(
        f"solve residual {residual:.3e} exceeds tolerance; "
        "energy is too close to a spectral point",
        energy=energy,
    )


def green_direct(wave_op: np.ndarray, energy: float | None = None) -> np.ndarray:
    """Invert the wave operator, with refinement and a residual guarantee.

    Raises :class:`PoleError` when the matrix is singular or the residual
    cannot be brought under max(1e-9, double-precision floor).
    """
    matrix = np.asarray(wave_op, dtype=float)
    return _checked_solve(matrix, np.eye(matrix.shape[0]), energy)


def generalized_eigen(pencil: Pencil):
    """Eigenpairs of a x = eps b x with b-orthonormal eigenvectors.

    Eigenvalues ascend; columns of the eigenvector matrix satisfy
    Gamma.T @ b @ Gamma = identity.
    """
    eigenvalues, eigenvectors = eigh(pencil.a, pencil.b)
    return eigenvalues, eigenvectors


def _guard_pole(eigenvalues: np.ndarray, e_hat: float, margin: float) -> None:
    gap = float(np.min(np.abs(eigenvalues - e_hat)))
    if gap <= margin * max(1.0, abs(e_hat)):
        raise PoleError(
            f"energy {e_hat} within pole margin of spectral point "
            f"(gap {gap:.3e})",
            energy=e_hat,
        )


def green_corner_direct(wave_op: np.ndarray, energy: float | None = None) -> float:
    """Corner Green's value from one checked solve for the last column.

    Same residual policy as :func:`green_direct`.
    """
    matrix = np.asarray(wave_op, dtype=float)
    unit = np.zeros(matrix.shape[0])
    unit[-1] = 1.0
    return float(_checked_solve(matrix, unit, energy)[-1])


def green_corner_spectral(pencil: Pencil, e_hat: float, pole_margin: float = POLE_MARGIN) -> float:
    """Corner Green's value from the spectral sum over pencil eigenpairs."""
    eigenvalues, gamma = generalized_eigen(pencil)
    _guard_pole(eigenvalues, e_hat, pole_margin)
    tau = np.einsum("im,ij,jm->m", gamma, pencil.b, gamma)
    corner = gamma[-1, :]
    return float(np.sum(corner**2 / (tau * (eigenvalues - e_hat))))


def green_corner_determinant(pencil: Pencil, e_hat: float, pole_margin: float = POLE_MARGIN) -> float:
    """Corner Green's value from eigenvalues only (no eigenvectors).

    Uses the ratio of characteristic products of the pencil and of its
    top-left (N-1) x (N-1) restriction, together with the eigenvalues of the
    right-hand matrices.  The factors are paired in interlaced order so all
    intermediate products stay of moderate size.
    """
    eigenvalues = eigh(pencil.a, pencil.b, eigvals_only=True)
    _guard_pole(eigenvalues, e_hat, pole_margin)
    trimmed = eigh(pencil.a[:-1, :-1], pencil.b[:-1, :-1], eigvals_only=True)
    xi = np.linalg.eigvalsh(pencil.b)
    xi_trimmed = np.linalg.eigvalsh(pencil.b[:-1, :-1])
    value = 1.0
    for m in range(pencil.size - 1):
        value *= (xi_trimmed[m] * (trimmed[m] - e_hat)) / (xi[m] * (eigenvalues[m] - e_hat))
    value /= xi[-1] * (eigenvalues[-1] - e_hat)
    return float(value)


def _kinematic_tail(energy: float, config: ModelConfig):
    """s_n, c_n at indices N-1 and N, plus the tail coupling b_{N-1}."""
    count = config.size + 1
    s = sine_coefficients(energy, config.basis, count).values
    c = cosine_coefficients(energy, config.basis, count).values
    b_tail = h0_element(config.size - 1, config.size, config.basis)
    return s, c, b_tail


def _corner_and_tail(energy: float, config: ModelConfig, pole_margin: float):
    matrix = wave_operator(energy, config)
    _guard_pole(np.linalg.eigvalsh(matrix) + energy, energy, pole_margin)
    corner = green_corner_direct(matrix, energy)
    s, c, b_tail = _kinematic_tail(energy, config)
    return corner, s, c, b_tail


def s_matrix(energy: float, config: ModelConfig, pole_margin: float = POLE_MARGIN) -> ScatterPoint:
    """Scattering matrix value e^{2 i delta} at one energy."""
    corner, s, c, b_tail = _corner_and_tail(energy, config, pole_margin)
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


def s_matrix_tr_form(energy: float, config: ModelConfig, pole_margin: float = POLE_MARGIN) -> ScatterPoint:
    """Same scattering matrix through the reflection-ratio form.

    Writes S = T_{N-1} (1 + G_c J R^-) / (1 + G_c J R^+) with
    T_n = (c_n - i s_n)/(c_n + i s_n), R^± the ratio of consecutive
    (c ± i s), and J the off-diagonal free-Hamiltonian coupling.  Must agree
    with :func:`s_matrix` to full precision.
    """
    corner, s, c, b_tail = _corner_and_tail(energy, config, pole_margin)
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

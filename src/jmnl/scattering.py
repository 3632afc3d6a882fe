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

S over a (nu, E) grid comes from one kernel that evaluates the free tails once
per energy (see :func:`_scatter`); :func:`s_matrix` is a batch of one.  Its
pole guard is one stacked Cholesky factorisation of M - delta I per block of
energies; the spectrum is computed only for a block that factorisation cannot
certify.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh

from .nonlinear import ModelConfig, _weight, lambda_matrix
from .reference import (
    BasisParams,
    Kinematics,
    _cosine_sequence,
    _sine_sequence,
    h0_element,
    h0_matrix,
)

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
]

_EPS = float(np.finfo(float).eps)

#: relative distance to the nearest spectral point below which an energy is
#: treated as sitting on a pole of the finite Green's function
POLE_MARGIN = 1e-6

#: energies per stacked block of the scan kernel; bounds its (B, N, N) arrays
_BLOCK = 64


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


def _norm_inf(stack: np.ndarray) -> np.ndarray:
    # max-norm (largest absolute row sum) of each member of a (B, N, K) stack
    return np.abs(stack).sum(axis=-1).max(axis=-1)


def _checked_solve(matrix: np.ndarray, rhs: np.ndarray, energies) -> tuple[np.ndarray, list]:
    """Solve matrix[i] @ x = rhs[i] for a (B, N, N) stack, with up to two refinement steps.

    Returns the (B, N, K) solutions and, for each member, ``None`` or the
    :class:`PoleError` that rejects it: the matrix is singular, or the
    max-norm residual stays above max(1e-9, 16 eps ||M|| ||x||).  Double
    precision cannot push it below ~eps ||M|| ||x||, and 1e-9 applies
    whenever that is representable.  A failure marks only its own member.
    """
    try:
        solution = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        if len(matrix) > 1:
            # LAPACK stops the whole stack at one singular member: settle each alone
            parts = [
                _checked_solve(matrix[i : i + 1], rhs[i : i + 1], energies[i : i + 1])
                for i in range(len(matrix))
            ]
            return np.concatenate([x for x, _ in parts]), [e for _, (e,) in parts]
        error = PoleError(f"wave operator is singular: {exc}", energy=energies[0])
        error.__cause__ = exc
        return np.full(rhs.shape, np.nan), [error]
    errors = [None] * len(matrix)
    rows = np.arange(len(matrix))
    a, b, x = matrix, rhs, solution
    for refinement in range(3):
        defect = b - a @ x
        residual = np.abs(defect).max(axis=(1, 2))
        failed = ~(residual <= 1e-9)
        if failed.any():
            failed &= ~(residual <= 16.0 * _EPS * _norm_inf(a) * _norm_inf(x))
        if not failed.any():
            return solution, errors
        rows, a, b, x, defect, residual = (
            v[failed] for v in (rows, a, b, x, defect, residual)
        )
        if refinement < 2:
            x = x + np.linalg.solve(a, defect)
            solution[rows] = x
    for row, value in zip(rows, residual):
        errors[row] = PoleError(
            f"solve residual {value:.3e} exceeds tolerance; "
            "energy is too close to a spectral point",
            energy=energies[row],
        )
    return solution, errors


def green_direct(wave_op: np.ndarray, energy: float | None = None) -> np.ndarray:
    """Invert the wave operator, with refinement and a residual guarantee.

    Raises :class:`PoleError` when the matrix is singular or the residual
    cannot be brought under max(1e-9, double-precision floor).
    """
    matrix = np.asarray(wave_op, dtype=float)
    solution, (error,) = _checked_solve(matrix[None], np.eye(matrix.shape[0])[None], [energy])
    if error is not None:
        raise error
    return solution[0]


def generalized_eigen(pencil: Pencil):
    """Eigenpairs of a x = eps b x with b-orthonormal eigenvectors.

    Eigenvalues ascend; columns of the eigenvector matrix satisfy
    Gamma.T @ b @ Gamma = identity.
    """
    eigenvalues, eigenvectors = eigh(pencil.a, pencil.b)
    return eigenvalues, eigenvectors


def _pole_error(gap: float, e_hat: float, margin: float) -> PoleError | None:
    if gap <= margin * max(1.0, abs(e_hat)):
        return PoleError(
            f"energy {e_hat} within pole margin of spectral point "
            f"(gap {gap:.3e})",
            energy=e_hat,
        )
    return None


def _guard_pole(eigenvalues: np.ndarray, e_hat: float, margin: float) -> None:
    error = _pole_error(float(np.min(np.abs(eigenvalues - e_hat))), e_hat, margin)
    if error is not None:
        raise error


def _last_units(count: int, size: int) -> np.ndarray:
    # (count, size, 1) stack of the last unit column
    unit = np.zeros((count, size, 1))
    unit[:, -1] = 1.0
    return unit


@lru_cache(maxsize=64)
def _free_block(basis: BasisParams, size: int) -> tuple[np.ndarray, float]:
    """Free Hamiltonian block and its tail coupling b_{N-1}, shared by every energy.

    Cached so that a batch of one (:func:`s_matrix`) does not rebuild it.
    """
    h0 = h0_matrix(basis, size)
    h0.setflags(write=False)
    return h0, h0_element(size - 1, size, basis)


def green_corner_direct(wave_op: np.ndarray, energy: float | None = None) -> float:
    """Corner Green's value from one checked solve for the last column.

    Same residual policy as :func:`green_direct`.
    """
    matrix = np.asarray(wave_op, dtype=float)
    solution, (error,) = _checked_solve(matrix[None], _last_units(1, matrix.shape[0]), [energy])
    if error is not None:
        raise error
    return float(solution[0, -1, 0])


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


def _scatter(energies, configs, pole_margin: float = POLE_MARGIN) -> list[list]:
    """S of each config at each energy, or the ArithmeticError that stops it there.

    The scan kernel; ``result[k][j]`` is ``configs[k]`` at ``energies[j]``.
    The configs must share basis and size: the free side (kinematics, tail
    terms c_n -/+ i s_n at n = N-1, N) is evaluated once per energy, and a
    tail error surfaces after weight, pole guard and solve, as for the energy
    alone.  Per config, each block of up to ``_BLOCK`` energies is one
    (B, N, N) wave-operator stack with one pole guard and one checked solve.

    The pole guard is one stacked Cholesky of M_i - delta_i I, with
    delta_i = pole_margin * max(1, |E_i|).  If it succeeds with a finite
    factor, every member has all its eigenvalues above delta_i and the block
    is clear.  Otherwise (a member on a pole, or with E above part of its
    spectrum) the block takes the eigvalsh gap and :func:`_pole_error`, which
    alone give the gap the PoleError reports.  The Cholesky succeeds only if
    M - delta I is numerically positive definite, the same floating-point
    evidence eigvalsh gives about the smallest eigenvalue, so the two can
    disagree only where the gap lies within rounding of delta.

    Per-energy scalars use the per-energy formulas, so every value is bit for
    bit what the energy gives alone.  Errors that are no ArithmeticError (a
    non-positive energy, a failed eigensolver) propagate.
    """
    basis, size = configs[0].basis, configs[0].size
    kins = [Kinematics.from_energy(energy, basis) for energy in energies]
    tails = [_free_tails(kin, basis, size + 1) for kin in kins]
    results = [[] for _ in configs]
    for start in range(0, len(energies), _BLOCK):
        block = slice(start, start + _BLOCK)
        for outcomes, config in zip(results, configs):
            outcomes += _scatter_block(energies[block], kins[block], tails[block], config, pole_margin)
    return results


def _free_tails(kin: Kinematics, basis: BasisParams, count: int):
    """c_{N-1} - i s_{N-1}, c_N - i s_N and their conjugates, or the error that stops them."""
    try:
        s0, s1 = _sine_sequence(kin, basis, count)[-2:]
        # numpy scalars: numpy complex division rounds unlike Python's
        c0, c1 = map(np.float64, _cosine_sequence(kin, basis, count)[-2:])
    except ArithmeticError as exc:
        return exc
    return c0 - 1j * s0, c1 - 1j * s1, c0 + 1j * s0, c1 + 1j * s1


def _clear_of_poles(stack: np.ndarray, e: np.ndarray, margin: float) -> bool:
    """Whether one stacked Cholesky certifies every member M_i - delta_i I positive definite.

    delta_i = margin * max(1, |E_i|) is the margin of :func:`_pole_error`, so
    a certified member has every eigenvalue of M_i above it and no pole flag.
    """
    shifted = stack.copy()
    diagonal = np.arange(stack.shape[-1])
    shifted[:, diagonal, diagonal] -= margin * np.maximum(1.0, np.abs(e))
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    # LAPACK lets nan and inf through without an error; they reach the factor
    return bool(np.isfinite(factor).all())


def _scatter_block(block, kins, tails, config: ModelConfig, pole_margin: float) -> list:
    h0, b_tail = _free_block(config.basis, config.size)
    out: list = [None] * len(block)
    live, couplings = [], []
    for i, kin in enumerate(kins):
        try:
            w = _weight(kin.mu, config)
        except ArithmeticError as exc:
            out[i] = exc
            continue
        live.append(i)
        couplings.append(config.g * w * w)
    if not live:
        return out
    e = np.array([block[i] for i in live])[:, None]
    stack = h0 + np.multiply.outer(couplings, lambda_matrix(config).entries)
    diagonal = np.arange(config.size)
    stack[:, diagonal, diagonal] -= e
    if not _clear_of_poles(stack, e, pole_margin):
        gaps = np.abs(np.linalg.eigvalsh(stack) + e - e).min(axis=1)
        for i, gap in zip(live, gaps.tolist()):
            out[i] = _pole_error(gap, block[i], pole_margin)
    clear = [j for j, i in enumerate(live) if out[i] is None]
    if not clear:
        return out
    live = [live[j] for j in clear]
    solution, errors = _checked_solve(
        stack[clear], _last_units(len(live), config.size), [block[i] for i in live]
    )
    for i, corner, error in zip(live, solution[:, -1, 0].tolist(), errors):
        out[i] = error or _assemble(block[i], tails[i], corner, b_tail)
    return out


def _assemble(energy: float, tails, corner: float, b_tail: float):
    """S from the corner Green's value and the free tail terms at indices N-1, N."""
    if isinstance(tails, ArithmeticError):
        return tails
    lower, upper, lower_bar, upper_bar = tails
    numerator = lower + b_tail * corner * upper
    denominator = lower_bar + b_tail * corner * upper_bar
    if abs(denominator) < 1e-300:
        return DegenerateEnergyError(f"scattering denominator vanished at E={energy}")
    s_value = numerator / denominator
    return ScatterPoint(
        energy=energy,
        s_value=complex(s_value),
        delta=float(np.angle(s_value) / 2.0),
        amplitude=float(abs(1.0 - s_value)),
    )


def s_matrix(energy: float, config: ModelConfig, pole_margin: float = POLE_MARGIN) -> ScatterPoint:
    """Scattering matrix value e^{2 i delta} at one energy.

    A batch of one through the scan kernel; raises the error that stops S
    at this energy (:class:`PoleError`, :class:`RecurrenceOverflowError`,
    :class:`DegenerateEnergyError`, ...).
    """
    ((point,),) = _scatter([energy], [config], pole_margin)
    if isinstance(point, ArithmeticError):
        raise point
    return point

"""Finite Green's function routes and the elastic scattering matrix.

The truncated wave operator M(E) = H0 + W(E) - E is a real symmetric N x N
matrix; its inverse G(E) is the finite Green's function.  Only the corner
entry G[N-1, N-1] enters the scattering matrix

    S(E) = [c_{N-1} - i s_{N-1} + b_{N-1} G_c (c_N - i s_N)]
         / [c_{N-1} + i s_{N-1} + b_{N-1} G_c (c_N + i s_N)],

a ratio of complex conjugates, so |S| = 1 identically and the phase shift is
delta = arg(S)/2.  Three independent routes to the corner value are provided
(direct solve, spectral sum over the eigenpairs of the symmetric operator,
and a determinant ratio needing eigenvalues only); they must agree, which is
the main internal consistency oracle of the package.

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
    "ScatterPoint",
    "PoleError",
    "DegenerateEnergyError",
    "POLE_MARGIN",
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

#: tail terms of an energy whose tails raised; the error is reported instead
_NAN_TERMS = (complex(np.nan, np.nan),) * 2


class PoleError(ArithmeticError):
    """Requested energy sits on (or too close to) a Green's function pole."""

    def __init__(self, message: str, energy: float | None = None):
        super().__init__(message)
        self.energy = energy


class DegenerateEnergyError(ArithmeticError):
    """The scattering-matrix denominator vanished."""


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
        if not failed.any():
            return solution, errors
        # the double-precision floor, only for the members above 1e-9
        above = np.flatnonzero(failed)
        failed[above] = ~(residual[above] <= 16.0 * _EPS * _norm_inf(a[above]) * _norm_inf(x[above]))
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


def _pole_error(gap: float, e_hat: float) -> PoleError | None:
    if gap <= POLE_MARGIN * max(1.0, abs(e_hat)):
        return PoleError(
            f"energy {e_hat} within pole margin of spectral point "
            f"(gap {gap:.3e})",
            energy=e_hat,
        )
    return None


def _guard_pole(eigenvalues: np.ndarray, e_hat: float) -> None:
    error = _pole_error(float(np.min(np.abs(eigenvalues - e_hat))), e_hat)
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

    Raises :class:`PoleError` when the matrix is singular or the residual
    cannot be brought under max(1e-9, double-precision floor).
    """
    matrix = np.asarray(wave_op, dtype=float)
    solution, (error,) = _checked_solve(matrix[None], _last_units(1, matrix.shape[0]), [energy])
    if error is not None:
        raise error
    return float(solution[0, -1, 0])


def _symmetric(h: np.ndarray) -> np.ndarray:
    """h as a float array; a matrix that is not square and exactly symmetric is rejected."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(h, h.T):
        raise ValueError("matrix must be exactly symmetric")
    return h


def green_corner_spectral(h: np.ndarray, e_hat: float) -> float:
    """Corner of (h - E)^-1 from the spectral sum over the orthonormal eigenpairs of h."""
    eigenvalues, vectors = np.linalg.eigh(_symmetric(h))
    _guard_pole(eigenvalues, e_hat)
    return float(np.sum(vectors[-1] ** 2 / (eigenvalues - e_hat)))


def green_corner_determinant(h: np.ndarray, e_hat: float) -> float:
    """Corner of (h - E)^-1 from eigenvalues only (no eigenvectors).

    The ratio of the characteristic products of the top-left (N-1) x (N-1)
    block of h and of h itself.  The factors are paired in interlaced order
    so all intermediate products stay of moderate size.
    """
    h = _symmetric(h)
    eigenvalues = np.linalg.eigvalsh(h)
    _guard_pole(eigenvalues, e_hat)
    trimmed = np.linalg.eigvalsh(h[:-1, :-1])
    value = 1.0
    for m in range(len(trimmed)):
        value *= (trimmed[m] - e_hat) / (eigenvalues[m] - e_hat)
    return float(value / (eigenvalues[-1] - e_hat))


def _scatter(energies, configs) -> list[list]:
    """S of each config at each energy, or the ArithmeticError that stops it there.

    The scan kernel; ``result[k][j]`` is ``configs[k]`` at ``energies[j]``.
    The configs must share basis and size: the free side (kinematics, tail
    terms c_n - i s_n at n = N-1, N) is evaluated once per energy, and a
    tail error surfaces after weight, pole guard and solve, as for the energy
    alone.  Per config, each block of up to ``_BLOCK`` energies is one
    (B, N, N) wave-operator stack with one pole guard and one checked solve.

    The pole guard is one stacked Cholesky of M_i - delta_i I, with
    delta_i = POLE_MARGIN * max(1, |E_i|).  If it succeeds with a finite
    factor, every member has all its eigenvalues above delta_i and the block
    is clear.  Otherwise (a member on a pole, or with E above part of its
    spectrum) a member whose wave operator is not finite (the coupling
    overflowed) is an OverflowError, and the rest take the eigvalsh gap and
    :func:`_pole_error`, which alone give the gap the PoleError reports.  The
    Cholesky succeeds only if M - delta I is numerically positive definite,
    the same floating-point evidence eigvalsh gives about the smallest
    eigenvalue, so the two can disagree only where the gap lies within
    rounding of delta.

    The weight and the tail terms are computed per energy, and S for the
    solved members of a block as arrays: numerator l + w u with
    w = b_{N-1} G_c, denominator its exact conjugate, and one np.angle.  Each
    array operation rounds as its numpy scalar form, and |1 - S| is Python's
    (libm) complex abs, so every value is bit for bit what the energy gives
    alone.  Errors that are no ArithmeticError (a non-positive energy, a
    failed eigensolver) propagate.
    """
    basis, size = configs[0].basis, configs[0].size
    kins = [Kinematics.from_energy(energy, basis) for energy in energies]
    tails = [_free_tails(kin, basis, size + 1) for kin in kins]
    terms = np.array([_NAN_TERMS if isinstance(t, ArithmeticError) else t for t in tails], dtype=complex)
    results = [[] for _ in configs]
    for start in range(0, len(energies), _BLOCK):
        block = slice(start, start + _BLOCK)
        for outcomes, config in zip(results, configs):
            outcomes += _scatter_block(energies[block], kins[block], tails[block], terms[block], config)
    return results


def _free_tails(kin: Kinematics, basis: BasisParams, count: int):
    """c_{N-1} - i s_{N-1} and c_N - i s_N, or the error that stops them."""
    try:
        s0, s1 = _sine_sequence(kin, basis, count)[-2:]
        c0, c1 = _cosine_sequence(kin, basis, count)[-2:]
    except ArithmeticError as exc:
        return exc
    return c0 - 1j * s0, c1 - 1j * s1


def _diagonal(stack: np.ndarray) -> np.ndarray:
    # writable (B, N) view of the diagonals of a contiguous (B, N, N) stack
    return stack.reshape(len(stack), -1)[:, :: stack.shape[-1] + 1]


def _clear_of_poles(stack: np.ndarray, e: np.ndarray) -> bool:
    """Whether one stacked Cholesky certifies every member M_i - delta_i I positive definite.

    delta_i = POLE_MARGIN * max(1, |E_i|) is the margin of :func:`_pole_error`, so
    a certified member has every eigenvalue of M_i above it and no pole flag.
    """
    shifted = stack.copy()
    _diagonal(shifted)[...] -= POLE_MARGIN * np.maximum(1.0, np.abs(e))
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    # LAPACK lets nan and inf through without an error; they reach the factor
    return bool(np.isfinite(factor).all())


def _scatter_block(block, kins, tails, terms, config: ModelConfig) -> list:
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
    with np.errstate(over="ignore", invalid="ignore"):
        # an overflowing coupling leaves inf or nan entries: the pole guard reports them
        stack = h0 + np.multiply.outer(couplings, lambda_matrix(config).entries)
    _diagonal(stack)[...] -= e
    if not _clear_of_poles(stack, e):
        finite = np.isfinite(stack).all(axis=(1, 2))
        shifts = e[finite]
        gaps = iter(np.abs(np.linalg.eigvalsh(stack[finite]) + shifts - shifts).min(axis=1).tolist())
        for i, ok in zip(live, finite.tolist()):
            if ok:
                out[i] = _pole_error(next(gaps), block[i])
            else:
                out[i] = OverflowError(f"wave operator is not finite at E={block[i]}")
    clear = [j for j, i in enumerate(live) if out[i] is None]
    if not clear:
        return out
    if len(clear) < len(live):
        stack, live = stack[clear], [live[j] for j in clear]
    solution, errors = _checked_solve(
        stack, _last_units(len(live), config.size), [block[i] for i in live]
    )
    lower, upper = terms[live].T
    numerators = lower + (b_tail * solution[:, -1, 0]) * upper
    denominators = numerators.conj()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # nan tail terms or a vanishing denominator: that member's S is not used
        s_values = numerators / denominators
    deltas = np.angle(s_values) / 2.0
    for i, error, den, s, delta in zip(
        live, errors, denominators.tolist(), s_values.tolist(), deltas.tolist()
    ):
        if error is None and isinstance(tails[i], ArithmeticError):
            error = tails[i]
        elif error is None and abs(den) < 1e-300:
            error = DegenerateEnergyError(f"scattering denominator vanished at E={block[i]}")
        out[i] = error or ScatterPoint(energy=block[i], s_value=s, delta=delta, amplitude=abs(1.0 - s))
    return out


def s_matrix(energy: float, config: ModelConfig) -> ScatterPoint:
    """Scattering matrix value e^{2 i delta} at one energy.

    A batch of one through the scan kernel; raises the error that stops S
    at this energy (:class:`PoleError`, :class:`RecurrenceOverflowError`,
    :class:`DegenerateEnergyError`, ...).
    """
    ((point,),) = _scatter([energy], [config])
    if isinstance(point, ArithmeticError):
        raise point
    return point

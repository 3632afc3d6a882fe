"""Finite Green's function routes and the elastic scattering matrix.

The truncated wave operator M(E) = H0 + W(E) - E is a real symmetric N x N
matrix; its inverse G(E) is the finite Green's function.  Only the corner
entry G[N-1, N-1] enters the scattering matrix

    S(E) = [c_{N-1} - i s_{N-1} + b_{N-1} G_c (c_N - i s_N)]
         / [c_{N-1} + i s_{N-1} + b_{N-1} G_c (c_N + i s_N)],

a ratio of complex conjugates, so |S| = 1 identically and the phase shift is
delta = arg(S)/2.  Three routes to the corner value must agree, which is the
main internal consistency oracle of the package: the scan kernel's own corner
(the one S uses), a spectral sum over the eigenpairs of the symmetric
operator, and a determinant ratio needing eigenvalues only.

S over a (nu, E) grid comes from one kernel that evaluates the free tails once
per energy (see :func:`_scatter`) and returns columns; :func:`s_matrix` is a
batch of one.  Its pole guard works per block of energies: since Lambda is
positive semi-definite, one Cholesky factorisation of a lower operator
H0 + c_min Lambda - (E_max + delta_max) I, less a derived rounding slack,
certifies every member of the block (a Loewner sandwich).  A block it cannot
clear, or a block of one, takes one stacked Cholesky factorisation of
M - delta I, and the spectrum is computed only for a member that this
factorisation cannot certify.  A certified member takes its corner from the last pivot of
its one unshifted Cholesky factorisation, checked against the last row of M;
the rest take a checked solve.

The paper's pipeline runs here too: :func:`run_scan` evaluates a scan over its
(nu, E) grid into columns with a status per row, :func:`format_csv` writes
them as CSV, and :func:`validate` runs the consistency checks at one config.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .nonlinear import ModelConfig, _lambda_row_sums, _weights, lambda_matrix, omega_transform
from .reference import (
    BasisParams,
    Kinematics,
    RecurrenceOverflowError,
    _free_tails,
    cosine_coefficients,
    h0_element,
    h0_matrix,
    sine_coefficients,
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
    "ScanRequest",
    "ScanColumns",
    "run_scan",
    "status_summary",
    "CSV_HEADER",
    "format_csv",
    "CheckResult",
    "ValidationReport",
    "validate",
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
class ScatterPoint:
    """Elastic scattering data at one energy."""

    energy: float
    s_value: complex
    delta: float
    amplitude: float

    def __post_init__(self):
        _require_unitary(self.energy, self.s_value)


def _require_unitary(energy: float, s_value: complex) -> None:
    if abs(abs(s_value) - 1.0) > 1e-10:
        raise ValueError(f"unitarity violated at E={energy}: |S|={abs(s_value)!r}")


def _floor(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """16 eps ||a_i|| ||x_i|| in max-norms (largest absolute row sum), per member.

    Each member is divided by its largest entry before its row sums are taken,
    so only a floor beyond the double range is inf; the caller rejects it.
    """
    floor = 16.0 * _EPS
    scales = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for stack in (a, x):
            size = np.abs(stack)
            scale = size.max(axis=(1, 2))
            size /= scale[:, None, None]
            floor = floor * size.sum(axis=-1).max(axis=-1)
            scales.append(scale)
        # at most 16 eps N K so far: only the last product can overflow
        return floor * scales[0] * scales[1]


def _checked_solve(matrix: np.ndarray, rhs: np.ndarray, energies) -> tuple[np.ndarray, list]:
    """Solve matrix[i] @ x = rhs[i] for a (B, N, N) stack, with up to two refinement steps.

    Returns the (B, N, K) solutions and, for each member, ``None`` or the
    :class:`PoleError` that rejects it: the matrix is singular, or the
    max-norm residual stays above max(1e-9, 16 eps ||M|| ||x||).  Double
    precision cannot push it below ~eps ||M|| ||x||, and 1e-9 applies
    whenever that is representable; a floor that is not finite accepts
    nothing.  A failure marks only its own member.
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
        size = np.abs(defect)
        if size.max() <= 1e-9:
            return solution, errors
        residual = size.max(axis=(1, 2))
        # within 1e-9, or within the double-precision floor where that is finite
        floor = _floor(a, x)
        failed = ~((residual <= 1e-9) | ((residual <= floor) & np.isfinite(floor)))
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


def _gamma(n: int) -> float:
    # gamma_n = n u / (1 - n u), u = eps / 2: Higham's bound for n rounded operations
    return n * 0.5 * _EPS / (1.0 - n * 0.5 * _EPS)


def _margin(e_hat: float) -> float:
    return POLE_MARGIN * max(1.0, abs(e_hat))


def _pole_error(gap: float, e_hat: float) -> PoleError | None:
    if gap <= _margin(e_hat):
        return PoleError(
            f"energy {e_hat} within pole margin of spectral point "
            f"(gap {gap:.3e})",
            energy=e_hat,
        )
    return None


def _pole_errors(eigenvalues: np.ndarray, energies: np.ndarray) -> tuple[np.ndarray, list]:
    # eigenvalues - E_i of each member, and per member None or the PoleError of its gap
    shifted = eigenvalues - energies[:, None]
    gaps = np.abs(shifted).min(axis=1).tolist()
    return shifted, [_pole_error(gap, energy) for gap, energy in zip(gaps, energies.tolist())]


@lru_cache(maxsize=256)
def _last_units(count: int, size: int) -> np.ndarray:
    # read-only (count, size, 1) stack of the last unit column
    unit = np.zeros((count, size, 1))
    unit[:, -1] = 1.0
    unit.setflags(write=False)
    return unit


@lru_cache(maxsize=64)
def _free_block(basis: BasisParams, size: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Free Hamiltonian block, its tail coupling b_{N-1} and its absolute row sums, shared by every energy.

    Cached so that a batch of one (:func:`s_matrix`) does not rebuild it.
    """
    h0 = h0_matrix(basis, size)
    h0.setflags(write=False)
    sums = np.abs(h0).sum(axis=1)
    sums.setflags(write=False)
    return h0, h0_element(size - 1, size, basis), sums


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
    """Corner of (h - E)^-1 from the spectral sum over the orthonormal eigenpairs of h.

    A batch of one through :func:`_spectral_corners`.
    """
    (value,), (error,) = _spectral_corners(_symmetric(h)[None], np.array([e_hat]))
    if error is not None:
        raise error
    return value


def green_corner_determinant(h: np.ndarray, e_hat: float) -> float:
    """Corner of (h - E)^-1 from eigenvalues only (no eigenvectors).

    A batch of one through :func:`_determinant_corners`.
    """
    h = _symmetric(h)[None]
    (value,), (error,) = _determinant_corners(h, np.array([e_hat]), np.linalg.eigvalsh(h))
    if error is not None:
        raise error
    return value


def _spectral_corners(h: np.ndarray, energies: np.ndarray) -> tuple[list, list]:
    """Corner of each (h_i - E_i)^-1 of a (B, N, N) symmetric stack from the spectral sum.

    One stacked eigh; returns the corners and, per member, ``None`` or the
    :class:`PoleError` of its gap (its corner is then meaningless).
    """
    eigenvalues, vectors = np.linalg.eigh(h)
    shifted, errors = _pole_errors(eigenvalues, energies)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = np.sum(vectors[:, -1] ** 2 / shifted, axis=1)
    return values.tolist(), errors


def _determinant_corners(h: np.ndarray, energies: np.ndarray, eigenvalues: np.ndarray) -> tuple[list, list]:
    """Corner of each (h_i - E_i)^-1 of a (B, N, N) symmetric stack from eigenvalues only.

    ``eigenvalues`` are the ascending eigenvalues of each h_i; the corner is
    the ratio of the characteristic products of the top-left (N-1) x (N-1)
    block (one stacked eigvalsh) and of h_i itself.  The factors are paired
    in interlaced order and multiplied in that order, so every intermediate
    product stays of moderate size.  Returns the corners and, per member,
    ``None`` or the :class:`PoleError` of its gap.
    """
    shifted, errors = _pole_errors(eigenvalues, energies)
    trimmed = np.linalg.eigvalsh(h[:, :-1, :-1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = (trimmed - energies[:, None]) / shifted[:, :-1]
        # a running product multiplies each member's factors in index order
        product = np.cumprod(ratios, axis=1)[:, -1] if ratios.shape[1] else np.ones(len(h))
        values = product / shifted[:, -1]
    return values.tolist(), errors


def _scatter(energies, configs) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, list, np.ndarray]]:
    """S of each config at each energy, as columns.

    The scan kernel; ``result[k]`` is ``(s, delta, amplitude, errors,
    corner)`` of ``configs[k]``: arrays over ``energies`` (``corner`` is the
    G_c that S used, which :func:`validate` checks), and a list with, per
    energy, ``None`` or the ArithmeticError that stops S there (its values
    are then nan).  The configs must share basis and size: the free
    side (kinematics, tail terms c_n - i s_n at n = N-1, N) is evaluated once
    per energy, and a tail error surfaces after weight, pole guard and solve,
    as for the energy alone.  Per config, the weights and couplings of all
    energies are one pass each, and each block of up to ``_BLOCK`` energies
    is one (B, N, N) wave-operator stack whose certified members take their
    corners from one stacked Cholesky factorisation of M
    (:func:`_pivot_corners`); a member cleared only by eigvalsh, or whose
    factor fails the pivot check, takes the checked solve.

    The pole guard of a block is first its Loewner sandwich
    (:func:`_cleared_blocks`): one Cholesky factorisation of a lower operator
    A with M_i - delta_i I >= A for every member, delta_i = POLE_MARGIN *
    max(1, |E_i|).  If it succeeds, every member has all its eigenvalues
    above delta_i and is clear.  Otherwise, and for a block of one, the guard
    is one stacked Cholesky of M_i - delta_i I; LAPACK stops the whole stack
    at the first member that is not positive definite, and then each member
    is factored alone, so a row does not depend on its block.  A member that
    Cholesky cannot certify (on a pole, or with E above part of its
    spectrum) is an OverflowError if its wave operator is not finite (the
    coupling overflowed); the rest take the eigvalsh gap and
    :func:`_pole_error`, which alone give the gap the PoleError reports.  A
    Cholesky factorisation succeeds only if its matrix is numerically
    positive definite, the same floating-point evidence eigvalsh gives about
    the smallest eigenvalue, so the guards can disagree only where a gap lies
    within rounding of delta.

    S is assembled per config as arrays: numerator l + w u with
    w = b_{N-1} G_c, denominator its exact conjugate, and one np.angle.  Each
    array operation rounds as its numpy scalar form, and |1 - S| is Python's
    (libm) complex abs, so every value is bit for bit what the energy gives
    alone.  |S| = 1 is one array test per config; a value that fails it
    raises :class:`ScatterPoint`'s ValueError.  Errors that are no
    ArithmeticError (a non-positive energy, a failed eigensolver) propagate.
    """
    basis, size = configs[0].basis, configs[0].size
    h0, b_tail, _ = _free_block(basis, size)
    kins = [Kinematics.from_energy(energy, basis) for energy in energies]
    mus = [kin.mu for kin in kins]
    terms, tail_errors = _free_tails(kins, basis, size + 1)
    tail_failed = [j for j, error in enumerate(tail_errors) if error is not None]
    columns = []
    # a failing member leaves inf or nan in its own entries (an overflowing coupling,
    # nan tail terms, a vanishing denominator); its error is reported instead
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for config in configs:
            entries = lambda_matrix(config).entries
            weights, errors = _weights(mus, config)
            w = np.array(weights)
            couplings = config.g * w * w
            cleared = [False]
            if len(energies) > 1:
                cleared = _cleared_blocks(np.asarray(energies, dtype=float), couplings, config)
            corner = np.empty(len(energies))
            for b, start in enumerate(range(0, len(energies), _BLOCK)):
                block = slice(start, start + _BLOCK)
                corner[block], errors[block] = _block_corners(
                    energies[block], couplings[block], errors[block], h0, entries, cleared[b]
                )
            for j in tail_failed:
                if errors[j] is None:
                    errors[j] = tail_errors[j]
            s, delta, amplitude, errors = _assemble(energies, terms, b_tail * corner, errors)
            corner[[j for j, error in enumerate(errors) if error is not None]] = np.nan
            columns.append((s, delta, amplitude, errors, corner))
    return columns


def _cleared_blocks(energies: np.ndarray, couplings: np.ndarray, config: ModelConfig) -> list[bool]:
    """Per block of up to ``_BLOCK`` energies, whether its Loewner sandwich clears every member of poles.

    ``couplings`` holds c_i = g w_i^2 of each energy, nan where the weight
    failed.  Lambda >= 0, so every live member of a block has M_i - delta_i I
    >= H0 + c_min Lambda - (E_max + delta_max) I with c_min the smallest
    live coupling and E_max the largest energy of the block (energies are
    positive, so E_max is also max|E|).  The block's lower operator is that
    matrix minus diag(r), and one stacked Cholesky factorisation of all of
    them answers for every block; a finite factor clears the block.

    r bounds, by Gershgorin's theorem, the rounding that separates the float
    matrices from the exact sandwich, row by row.  With u = eps/2, C = max|c_i|,
    s = fl(E_max + delta_max), rho_j from :func:`_lambda_row_sums` and
    eta_j = sum_k |H0_jk|, each of these moves row j by at most:

    - the stored Lambda, sums of rounded Gram products of the K blocks of
      its factor (2K - 1 products each, two symmetrisations, K - 1 sums):
      gamma_{3K} rho_j, times c_i - c_min <= 2C;
    - fl(M_i), three roundings (c_i Lambda, + H0, - E_i on the diagonal):
      gamma_3 (C rho_j + eta_j + s);
    - fl(A), four (the diagonal shift s + r_j rounds before it is subtracted):
      gamma_4 (C rho_j + eta_j + s + r_j);
    - s itself, rounded once: u s / (1 - u).

    To first order in u that is eps ((3K + 3.5) C rho_j + 3.5 eta_j + 4 s)
    plus 2 eps r_j, so r_j = (3K + 4) eps (C rho_j + eta_j + s) suffices; four
    more eps cover the O(N eps) relative rounding of the sums and of r.
    Hence r_j = (3K + 8) eps (C rho_j + eta_j + s).  A block clears only if
    every r_j is finite: where C rho_j overflows, a member's c_i Lambda may
    too, and that member must report overflow, not a pole.  A block of one
    live member is its own sandwich and is left to the per-member guard.
    """
    h0, _, h0_sums = _free_block(config.basis, config.size)
    lambda_sums = _lambda_row_sums(config.nu, config.terms, config.size)
    starts = np.arange(0, len(couplings), _BLOCK)
    # fmin and fmax pass over the nan of a failed weight
    live = np.add.reduceat(~np.isnan(couplings), starts, dtype=np.intp)
    low = np.fmin.reduceat(couplings, starts)
    size = np.fmax.reduceat(np.abs(couplings), starts)
    top = np.maximum.reduceat(energies, starts)
    shift = top + POLE_MARGIN * np.maximum(1.0, top)
    slack = (3 * config.terms + 8) * _EPS * (np.multiply.outer(size, lambda_sums) + h0_sums + shift[:, None])
    diagonal = shift[:, None] + slack
    candidates = ((live > 1) & np.isfinite(diagonal).all(axis=1)).nonzero()[0]
    cleared = np.zeros(len(starts), dtype=bool)
    if len(candidates):
        lower = _wave_stack(h0, low[candidates], lambda_matrix(config).entries, diagonal[candidates])
        cleared[candidates] = np.isfinite(_factors(lower)).all(axis=(1, 2))
    return cleared.tolist()


def _diagonal(stack: np.ndarray) -> np.ndarray:
    # writable (B, N) view of the diagonals of a contiguous (B, N, N) stack
    return stack.reshape(len(stack), -1)[:, :: stack.shape[-1] + 1]


def _factors(stack: np.ndarray) -> np.ndarray:
    """Cholesky factors of a (B, N, N) stack, nan for a member that is not numerically positive definite.

    LAPACK stops the whole stack at its first such member; then each member
    is factored alone, so a member's factor does not depend on its block.
    LAPACK lets nan and inf through without an error; they reach the factor.
    """
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        if len(stack) == 1:
            return np.full(stack.shape, np.nan)
        return np.concatenate([_factors(stack[i : i + 1]) for i in range(len(stack))])


def _uncertified(stack: np.ndarray, margins: np.ndarray) -> list[int]:
    """Members i for which a Cholesky factorisation cannot certify M_i - delta_i I positive definite.

    ``margins`` holds delta_i, the (B, 1) margins of :func:`_pole_error`, so a
    certified member has every eigenvalue of M_i above it and no pole flag.
    """
    shifted = stack.copy()
    _diagonal(shifted)[...] -= margins
    finite = np.isfinite(_factors(shifted))
    if finite.all():
        return []
    return (~finite.all(axis=(1, 2))).nonzero()[0].tolist()


def _pivot_corners(stack: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Corner G_c = 1 / L[N-1, N-1]^2 of each member's inverse from its Cholesky factor M = L L^T.

    The last pivot is the Schur complement of the leading block, so its
    inverse square is the corner.  Returns the corners and the members whose
    factor fails the check (their corner is nan): the factorisation fails or
    is not finite, or the last row of L L^T, (L @ L[N-1])^T, misses the last
    row of M by more than gamma_{N+1} |L| |L[N-1]| (Higham, Accuracy and
    Stability, Thm 10.3).  The check reads only what the corner uses; a false
    alarm costs a checked solve.
    """
    factor = _factors(stack)
    corner = 1.0 / factor[:, -1, -1] ** 2
    defect = np.abs(stack[:, -1] - (factor @ factor[:, -1, :, None])[..., 0])
    # the factor is done with: its buffer takes |L|
    size = np.abs(factor, out=factor)
    bound = _gamma(stack.shape[-1] + 1) * (size @ size[:, -1, :, None])[..., 0]
    # an entry of L that is not finite makes the bound of its row inf or nan (inf * 0 is nan)
    passed = (defect <= bound).all(axis=1) & np.isfinite(bound).all(axis=1)
    if passed.all():
        return corner, []
    corner[~passed] = np.nan
    return corner, (~passed).nonzero()[0].tolist()


def _wave_stack(h0: np.ndarray, couplings, entries: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Operators H0 + c_i Lambda - diag(shifts_i) as a (B, N, N) stack; ``shifts`` is (B, 1), (B, N) or a scalar."""
    stack = np.multiply.outer(couplings, entries)
    stack += h0
    _diagonal(stack)[...] -= shifts
    return stack


def _block_corners(block, couplings: np.ndarray, errors: list, h0: np.ndarray, entries: np.ndarray, cleared: bool):
    """Corner G_c at each energy of one block, nan where a weight, pole guard or solve fails.

    ``couplings`` holds c_i = g w_i^2 and ``errors``, per energy, ``None`` or
    the failure of its weight.  Returns the corners and ``errors`` with the
    pole guard's and the solve's failures added.  ``cleared`` says that the
    block's Loewner sandwich cleared every member (:func:`_cleared_blocks`);
    otherwise the members take the per-member Cholesky guard.  A certified
    member takes its corner from its last Cholesky pivot
    (:func:`_pivot_corners`); a member cleared only by eigvalsh, or whose
    factor fails the pivot check, takes the checked solve.
    """
    corner = np.full(len(block), np.nan)
    live = [i for i, error in enumerate(errors) if error is None]
    if not live:
        return corner, errors
    at = [block[i] for i in live]
    e = np.array(at)[:, None]
    # an overflowing coupling leaves inf or nan entries: the pole guard reports them
    stack = _wave_stack(h0, couplings if len(live) == len(block) else couplings[live], entries, e)
    doubtful = [] if cleared else _uncertified(stack, POLE_MARGIN * np.maximum(1.0, np.abs(e)))
    certified, solve = list(range(len(live))), []
    if doubtful:
        finite = np.isfinite(stack[doubtful]).all(axis=(1, 2)).tolist()
        spectral = [m for m, ok in zip(doubtful, finite) if ok]
        shifts = e[spectral]
        gaps = np.abs(np.linalg.eigvalsh(stack[spectral]) + shifts - shifts).min(axis=1).tolist()
        for m, gap in zip(spectral, gaps):
            errors[live[m]] = _pole_error(gap, at[m])
        for m, ok in zip(doubtful, finite):
            if not ok:
                errors[live[m]] = OverflowError(f"wave operator is not finite at E={at[m]}")
        solve = [m for m in doubtful if errors[live[m]] is None]
        certified = sorted(set(certified) - set(doubtful))
    if certified:
        pivots, failed = _pivot_corners(stack[certified] if doubtful else stack)
        corner[[live[m] for m in certified]] = pivots
        solve += [certified[k] for k in failed]
    if solve:
        solution, solve_errors = _checked_solve(stack[solve], _last_units(len(solve), len(h0)), [at[m] for m in solve])
        for m, value, error in zip(solve, solution[:, -1, 0].tolist(), solve_errors):
            if error is None:
                corner[live[m]] = value
            else:
                errors[live[m]] = error
    return corner, errors


def _assemble(energies, terms: np.ndarray, w: np.ndarray, errors: list):
    """S, delta and |1 - S| from the tail terms and w = b_{N-1} G_c; flags a vanishing denominator."""
    lower, upper = terms[:, 0], terms[:, 1]
    numerators = lower + w * upper
    s = numerators / numerators.conj()
    # a vanishing denominator (|denominator| = |numerator|) or |S| off 1: numpy's abs
    # may differ from Python's in the last bit, so the masks take a superset
    doubtful = (np.abs(numerators) < 2e-300) | (np.abs(np.abs(s) - 1.0) > 0.5e-10)
    for j in doubtful.nonzero()[0].tolist():
        if errors[j] is None and abs(complex(numerators[j])) < 1e-300:
            errors[j] = DegenerateEnergyError(f"scattering denominator vanished at E={energies[j]}")
            s[j] = complex(np.nan, np.nan)
        elif errors[j] is None:
            _require_unitary(energies[j], complex(s[j]))
    # only where S is used: Python's complex abs of a nan can raise on a stale errno
    amplitude = [abs(1.0 - value) if error is None else np.nan for value, error in zip(s.tolist(), errors)]
    return s, np.angle(s) / 2.0, np.array(amplitude), errors


def s_matrix(energy: float, config: ModelConfig) -> ScatterPoint:
    """Scattering matrix value e^{2 i delta} at one energy.

    A batch of one through the scan kernel; raises the error that stops S
    at this energy (:class:`PoleError`, :class:`RecurrenceOverflowError`,
    :class:`DegenerateEnergyError`, ...).
    """
    ((s, delta, amplitude, (error,), _),) = _scatter([energy], [config])
    if error is not None:
        raise error
    return ScatterPoint(energy, s.tolist()[0], delta.tolist()[0], amplitude.tolist()[0])


@dataclass(frozen=True)
class ScanRequest:
    """One scan: a model template, the nu list, and the energy grid."""

    basis: BasisParams
    g: float
    size: int
    terms: int
    weight_choice: str
    nu_list: tuple[float, ...]
    e_min: float
    e_max: float
    steps: int
    output_path: str | None = None

    def __post_init__(self):
        if not (0 < self.e_min < self.e_max < math.inf):
            raise ValueError("need 0 < e_min < e_max, both finite")
        if self.steps < 2:
            raise ValueError("steps must be at least 2")
        if not self.nu_list:
            raise ValueError("at least one nu value is required")

    def config_for(self, nu: float) -> ModelConfig:
        return ModelConfig(
            basis=self.basis,
            g=self.g,
            nu=nu,
            size=self.size,
            terms=self.terms,
            weight_choice=self.weight_choice,
        )

    def energy_grid(self) -> np.ndarray:
        return np.linspace(self.e_min, self.e_max, self.steps)


@dataclass(frozen=True, eq=False)
class ScanColumns:
    """A scan's rows as columns, in (nu, E) order.

    ``s_value``, ``delta`` and ``amplitude`` are nan where ``status`` is not
    ``ok``.
    """

    nu: np.ndarray
    energy: np.ndarray
    s_value: np.ndarray
    delta: np.ndarray
    amplitude: np.ndarray
    status: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.status)


def _status(error: ArithmeticError) -> str:
    """Row status for an error that stops S at one energy; re-raises any other."""
    if isinstance(error, PoleError):
        return "pole"
    if isinstance(error, (RecurrenceOverflowError, OverflowError)):
        return "overflow"
    if isinstance(error, DegenerateEnergyError):
        return "degenerate"
    raise error


def run_scan(request: ScanRequest) -> ScanColumns:
    """Evaluate the scattering matrix over the requested (nu, E) grid.

    Rows come back in (nu, E) order, also for an unsorted or repeated nu
    list: rows with equal nu and E keep the order of the nu list, then of the
    grid.  Points where S cannot be evaluated carry the reason as their
    status (``pole``, ``overflow`` or ``degenerate``) instead of values.
    """
    grid = request.energy_grid()
    energies = grid.tolist()
    configs = [request.config_for(nu) for nu in request.nu_list]
    s_value, delta, amplitude, errors, _ = zip(*_scatter(energies, configs))
    status = [["ok" if error is None else _status(error) for error in row] for row in errors]
    k, j = _row_order(request.nu_list, grid)
    return ScanColumns(
        nu=np.array(request.nu_list)[k],
        energy=grid[j],
        s_value=np.array(s_value)[k, j],
        delta=np.array(delta)[k, j],
        amplitude=np.array(amplitude)[k, j],
        status=tuple(np.array(status, dtype=object)[k, j].tolist()),
    )


def _row_order(nu_list, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(config, energy) indices of the rows in the order of a stable sort by (nu, E).

    The config-major rows sorted stably by nu, then E: equal nu values (0.0
    and -0.0 among them) keep the order of the nu list at each energy, and
    equal energies the order of the grid.
    """
    size = len(grid)
    return np.divmod(np.lexsort((np.tile(grid, len(nu_list)), np.repeat(nu_list, size))), size)


def status_summary(statuses, suffix: str) -> str:
    """``K STATUS-suffix`` for each status other than ``ok``, or ``0 pole-suffix``."""
    counts = Counter(status for status in statuses if status != "ok")
    summary = ", ".join(f"{n} {status}-{suffix}" for status, n in sorted(counts.items()))
    return summary or f"0 pole-{suffix}"


CSV_HEADER = "nu,E,re_S,im_S,delta,amplitude,status"


def format_csv(columns: ScanColumns) -> str:
    """Deterministic CSV text (17 significant digits, fixed column order).

    Each distinct nu and energy is formatted once (keyed by its bits, so
    -0.0 and 0.0 stay apart); a row that is not ``ok`` has empty values.
    """
    nu, energy = _formatted(columns.nu), _formatted(columns.energy)
    s_value = columns.s_value
    lines = [
        "%s%s%.17g,%.17g,%.17g,%.17g,ok" % row
        for row in zip(
            nu,
            energy,
            s_value.real.tolist(),
            s_value.imag.tolist(),
            columns.delta.tolist(),
            columns.amplitude.tolist(),
        )
    ]
    if columns.status.count("ok") < len(lines):
        for i, status in enumerate(columns.status):
            if status != "ok":
                lines[i] = f"{nu[i]}{energy[i]},,,,{status}"
    return "\n".join([CSV_HEADER, *lines]) + "\n"


def _formatted(values: np.ndarray) -> list[str]:
    # "%.17g," of each value, formatted once per distinct bit pattern
    bits = np.asarray(values, dtype=float).view(np.int64).tolist()
    distinct = list(dict.fromkeys(bits))
    text = ["%.17g," % value for value in np.array(distinct, dtype=np.int64).view(float).tolist()]
    return list(map(dict(zip(distinct, text)).__getitem__, bits))


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(CheckResult(name, passed, detail))


def _lambda_bound(lam, nu: float) -> tuple[bool, str]:
    """Whether lambda_min Gamma(nu+1) >= (1 - slack)^2, and the detail line.

    Lambda's i = 0 term is I / Gamma(nu+1), so lambda_min >= 1/Gamma(nu+1); the
    certificate's sqrt(lambda_min) is off by at most 16 eps ||factor||_F, which
    times sqrt(Gamma(nu+1)) is `slack` (capped at 1).  Gamma(nu+1) overflows for
    large nu, so it enters through lgamma; the product is at most
    Gamma(nu+1) Lambda[0, 0] = terms.
    """
    if not lam.min_eigenvalue > 0:
        return False, f"min eigenvalue {lam.min_eigenvalue:.6e}"
    half_log_gamma = 0.5 * math.lgamma(nu + 1.0)
    slack = math.exp(min(0.0, math.log(16.0 * _EPS * float(np.linalg.norm(lam.factor))) + half_log_gamma))
    scaled = math.exp(math.log(lam.min_eigenvalue) + 2.0 * half_log_gamma)
    return scaled >= (1.0 - slack) ** 2, (
        f"min eigenvalue {lam.min_eigenvalue:.6e}, "
        f"times Gamma(nu+1) {scaled:.6g} (bound (1 - {slack:.1e})^2)"
    )


def _three_route_tolerance(eigenvalues: np.ndarray, energies: np.ndarray) -> np.ndarray:
    # per member: route agreement saturates at eps * (spectral radius / gap); strongly
    # graded coupling matrices (condition up to ~1e17) push it above 1e-8
    gap = np.abs(eigenvalues - energies[:, None]).min(axis=1)
    radius = np.abs(eigenvalues).max(axis=1)
    return np.maximum(1e-8, 1024.0 * _EPS * radius / gap)


def _green_routes(config: ModelConfig, energies: list, corners: list) -> tuple[tuple[list, list, list], np.ndarray, list]:
    """The kernel's, spectral and determinant corners at each energy; each other route is one stacked call.

    ``corners`` are the scan kernel's corners at ``energies``, the ones S
    used (pivot or checked solve).  The couplings are one pass of
    :func:`_weights`, and H_i = H0 + c_i Lambda one (B, N, N) stack from the
    kernel's builder: eigh of H (:func:`green_corner_spectral`) and eigvalsh
    of H and of its trimmed blocks (:func:`green_corner_determinant`) are bit
    for bit the public routes at each energy alone.  The spectrum of H from
    eigvalsh, never eigh's, also serves the tolerance, so the routes stay
    independent.

    Returns the three routes' corners, the (B, N) eigenvalues of H, and per
    energy ``None`` or its first error in the order spectral guard,
    determinant guard.
    """
    h0, _, _ = _free_block(config.basis, config.size)
    e = np.array(energies)
    weights, _ = _weights([Kinematics.from_energy(energy, config.basis).mu for energy in energies], config)
    w = np.array(weights)
    hamiltonian = _wave_stack(h0, config.g * w * w, lambda_matrix(config).entries, 0.0)
    eigenvalues = np.linalg.eigvalsh(hamiltonian)
    spectral, spectral_errors = _spectral_corners(hamiltonian, e)
    determinant, determinant_errors = _determinant_corners(hamiltonian, e, eigenvalues)
    errors = [a or b for a, b in zip(spectral_errors, determinant_errors)]
    return (corners, spectral, determinant), eigenvalues, errors


#: largest relative Casoratian defect validate accepts: above the free spectrum the
#: recursion's growth alone, within its rounding bound, makes it 0.14 (lambda = 1, N = 20, E = 40)
_CASORATIAN_LIMIT = 1e-8


def _casoratian(energy: float, basis: BasisParams, b: np.ndarray) -> tuple[float, float]:
    """Relative defect of b_n (s_n c_{n+1} - s_{n+1} c_n) = 2k/pi over n < N, and its bound.

    ``b`` holds the free couplings b_0 .. b_{N-1}.  Two solutions of one
    three-term recursion have a Casoratian constant in n; the seed relation's
    drive fixes it at 2k/pi, k = sqrt(2E).  A wrong seed or drive shifts it by
    its own relative error, while rounding, kept once made, adds up over the
    N + 1 values of about five operations each: the bound is
    5 (N + 1) eps max_n b_n (|s_n c_{n+1}| + |s_{n+1} c_n|) / (2k/pi).
    """
    count = len(b) + 1
    sine = sine_coefficients(energy, basis, count)
    cosine = cosine_coefficients(energy, basis, count)
    wronskian = 2.0 * math.sqrt(2.0 * energy) / math.pi
    first, second = b * sine[:-1] * cosine[1:], b * sine[1:] * cosine[:-1]
    defect = float(np.max(np.abs(first - second - wronskian))) / wronskian
    scale = float(np.max(np.abs(first) + np.abs(second))) / wronskian
    return defect, 5.0 * count * _EPS * scale


def validate(config: ModelConfig, energies: np.ndarray | None = None) -> ValidationReport:
    """Run the internal consistency suites at one configuration.

    An energy where S or the free sequences cannot be evaluated is skipped and
    counted by its row status; a check that could check no energy fails.  The
    corners S used are checked against two other Green's routes, each run
    once on the stack of the energies S accepted (:func:`_green_routes`).
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
    # S first, in one kernel call: its pole guard skips an energy on a spectral point
    ((_, _, _, errors, corners),) = _scatter(energies, [config])
    skipped = [_status(error) for error in errors if error is not None]
    live = [j for j, error in enumerate(errors) if error is None]
    if live:
        at = [energies[j] for j in live]
        routes, eigenvalues, route_errors = _green_routes(config, at, corners[live].tolist())
        skipped += [_status(error) for error in route_errors if error is not None]
        agreed = [m for m, error in enumerate(route_errors) if error is None]
        tolerances = _three_route_tolerance(eigenvalues[agreed], np.array(at)[agreed]).tolist()
        for m, tol in zip(agreed, tolerances):
            kernel, spectral, det_route = (route[m] for route in routes)
            spread = max(abs(kernel - spectral), abs(kernel - det_route), abs(spectral - det_route))
            worst_route = max(worst_route, spread / abs(kernel) / tol)
    checked = len(energies) - len(skipped)
    report.add(
        "green-three-route",
        checked > 0 and worst_route <= 1.0,
        f"worst spread {worst_route:.3f} of the conditioning-aware tolerance "
        f"({checked} checked, {status_summary(skipped, 'skipped')})",
    )

    h0, b_tail, _ = _free_block(config.basis, config.size)
    b = np.append(np.diag(h0, 1), b_tail)
    worst_defect = 0.0
    worst_ratio = 0.0
    skipped = []
    for energy in energies[:4]:
        try:
            defect, bound = _casoratian(energy, config.basis, b)
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

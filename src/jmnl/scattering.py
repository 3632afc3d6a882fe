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
batch of one.  Why S stops at an energy is an int8 code into one reason table
(``_REASONS``), and an error is built only where it is raised (:func:`_raise`).
An energy whose weight or free tails fail has that reason before any wave
operator is built; the rest are live, and the pole guard works per block of up
to 64 live energies: since Lambda is positive semi-definite, one Cholesky
factorisation of a lower operator H0 + c_min Lambda - (E_max + delta_max) I,
less a derived rounding slack, certifies every member of the block (a Loewner
sandwich).  A block it cannot clear, or a block of one, takes one stacked
Cholesky factorisation of M - delta I, and the spectrum is computed only for a
member that this factorisation cannot certify.  A certified member takes its
corner from the last pivot of its one unshifted Cholesky factorisation,
checked against the last row of M; the rest take a checked solve.

The paper's pipeline runs here too: :func:`run_scan` evaluates a scan over its
(nu, E) grid into columns with a status per row, :func:`format_csv` writes
them as CSV, and :func:`validate` runs the consistency checks at one config.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal
from functools import lru_cache

import numpy as np

from .nonlinear import (
    _BLOCK, ModelConfig, _diagonal, _integer, _wave_stack, _weights, lambda_matrix, omega_transform, weight
)
from .reference import (
    BasisParams, RecurrenceOverflowError, _cosine_sequence, _free_tails, _momentum, _real, _sine_sequence,
    cosine_coefficients, h0_matrix, sine_coefficients,
)

__all__ = [
    "ScatterPoint",
    "PoleError",
    "DegenerateEnergyError",
    "POLE_MARGIN",
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
_TINY = float(np.finfo(float).tiny)

#: relative distance to the nearest spectral point below which an energy is
#: treated as sitting on a pole of the finite Green's function
POLE_MARGIN = 1e-6

#: most rows a scan holds: numpy indexes at most intp.max bytes in one array, and
#: the widest column of a scan, S, takes 16 bytes (complex128) per row
_MAX_ROWS = np.iinfo(np.intp).max // np.dtype(np.complex128).itemsize


class PoleError(ArithmeticError):
    """Requested energy sits on (or too close to) a Green's function pole."""

    def __init__(self, message: str, energy: float | None = None):
        super().__init__(message)
        self.energy = energy


class DegenerateEnergyError(ArithmeticError):
    """The scattering-matrix denominator vanished."""


#: why S stops at an energy, per reason code in first-error order: row status, error class and
#: message, which prints the energy and the row's value; a weight or tail error is raised by its
#: stage function (see _raise), with its own message
_REASONS = (
    ("ok", None, None),
    ("overflow", OverflowError, None),
    ("overflow", RecurrenceOverflowError, None),
    ("overflow", OverflowError, "wave operator is not finite at E={energy}"),
    ("pole", PoleError, "energy {energy} within pole margin of spectral point (gap {value:.3e})"),
    ("pole", PoleError, "wave operator is singular: Singular matrix"),
    ("pole", PoleError, "solve residual {value:.3e} exceeds tolerance; energy is too close to a spectral point"),
    ("degenerate", DegenerateEnergyError, "scattering denominator vanished at E={energy}"),
)
_OK, _WEIGHT, _TAILS, _NOT_FINITE, _MARGIN, _SINGULAR, _RESIDUAL, _DEGENERATE = range(len(_REASONS))
_STATUSES = np.array([status for status, _, _ in _REASONS], dtype=object)


def _raise(code: int, energy, value: float = math.nan, config: ModelConfig | None = None):
    """Raise the error of reason ``code`` at one energy; ``value`` is the gap or residual it prints.

    A weight or tail reason re-raises through its public stage function
    (:func:`weight`, then :func:`sine_coefficients` and
    :func:`cosine_coefficients`), which runs the kernel's float operations:
    the same class, text and chained cause.
    """
    if code == _WEIGHT:
        weight(energy, config)
    elif code == _TAILS:
        sine_coefficients(energy, config.basis, config.size + 1)
        cosine_coefficients(energy, config.basis, config.size + 1)
    elif code == _MARGIN:
        energy = np.asarray(energy).item()  # the pole guard reads E back from a numpy array
    _, kind, message = _REASONS[code]
    text = message.format(energy=energy, value=value)
    raise PoleError(text, energy=energy) if kind is PoleError else kind(text)


@dataclass(frozen=True)
class ScatterPoint:
    """Elastic scattering data at one energy."""

    energy: float
    s_value: complex
    delta: float
    amplitude: float

    def __post_init__(self):
        if abs(abs(self.s_value) - 1.0) > 1e-10:
            raise ValueError(f"unitarity violated at E={self.energy}: |S|={abs(self.s_value)!r}")


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


def _checked_solve(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corner G_c of each matrix[i]^-1 of a (B, N, N) stack: a solve for e_N, with up to two refinement steps.

    Returns the (B,) corners, the last entries of the solutions x_i of
    matrix[i] @ x_i = e_N, and per member its reason code and residual: the
    matrix is singular, or the max-norm residual stays above max(1e-9,
    16 eps ||M|| ||x||).  Double precision cannot push it below
    ~eps ||M|| ||x||, and 1e-9 applies whenever that is representable; a
    floor that is not finite accepts nothing.  A failure marks only its own
    member, whose corner is nan.
    """
    unit = np.zeros(matrix.shape[:-1] + (1,))
    unit[:, -1] = 1.0
    try:
        solution = np.linalg.solve(matrix, unit)
    except np.linalg.LinAlgError:
        if len(matrix) > 1:
            # numpy solves every member, fills a singular one with nan and then raises for the
            # whole stack, returning none of it: settle each member alone
            parts = [_checked_solve(matrix[i : i + 1]) for i in range(len(matrix))]
            return tuple(np.concatenate(column) for column in zip(*parts))
        return np.full(1, np.nan), np.full(1, _SINGULAR, dtype=np.int8), np.full(1, np.nan)
    reason, value = np.zeros(len(matrix), dtype=np.int8), np.full(len(matrix), np.nan)
    rows, a, b, x = np.arange(len(matrix)), matrix, unit, solution
    for refinement in range(3):
        defect = b - a @ x
        residual = np.abs(defect).max(axis=(1, 2))
        # within 1e-9, or within the double-precision floor where that is finite
        failed = ~(residual <= 1e-9)
        if failed.any():
            floor = _floor(a, x)
            failed &= ~((residual <= floor) & np.isfinite(floor))
        if not failed.any():
            break
        rows, a, b, x, defect, residual = (v[failed] for v in (rows, a, b, x, defect, residual))
        if refinement < 2:
            x = x + np.linalg.solve(a, defect)
            solution[rows] = x
    else:
        reason[rows], value[rows] = _RESIDUAL, residual
        solution[rows] = np.nan
    return solution[:, -1, 0], reason, value


def _gamma(n: int) -> float:
    # gamma_n = n u / (1 - n u), u = eps / 2: Higham's bound for n rounded operations
    return n * 0.5 * _EPS / (1.0 - n * 0.5 * _EPS)


def _margin(energies):
    # the pole margin delta(E) = POLE_MARGIN max(1, |E|) of an energy, or elementwise of an array
    return POLE_MARGIN * np.maximum(1.0, np.abs(energies))


def _pole_reasons(eigenvalues: np.ndarray, energies: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # eigenvalues - E_i of each member, its reason code (a gap within its margin is a pole) and its gap
    shifted = eigenvalues - energies[:, None]
    gaps = np.abs(shifted).min(axis=1)
    return shifted, np.where(gaps <= _margin(energies), _MARGIN, _OK).astype(np.int8), gaps


@lru_cache(maxsize=64)
def _free_block(basis: BasisParams, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Free Hamiltonian block H0, its couplings b_0 .. b_{N-1} and its absolute row sums, shared by every energy.

    H0 and the couplings, b_{N-1} among them, come from one (N + 1) x (N + 1)
    block; all three are read-only.  Cached so that a batch of one
    (:func:`s_matrix`) does not rebuild them.
    """
    full = h0_matrix(basis, size + 1)
    h0 = np.ascontiguousarray(full[:-1, :-1])
    couplings = np.diag(full, 1).copy()
    sums = np.abs(h0).sum(axis=1)
    for array in (h0, couplings, sums):
        array.setflags(write=False)
    return h0, couplings, sums


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
    (value,), (code,), (gap,) = _spectral_corners(_symmetric(h)[None], np.array([e_hat]))
    if code:
        _raise(code, e_hat, gap)
    return value


def green_corner_determinant(h: np.ndarray, e_hat: float) -> float:
    """Corner of (h - E)^-1 from eigenvalues only (no eigenvectors).

    A batch of one through :func:`_determinant_corners`.
    """
    h = _symmetric(h)[None]
    (value,), (code,), (gap,) = _determinant_corners(h, np.array([e_hat]), np.linalg.eigvalsh(h))
    if code:
        _raise(code, e_hat, gap)
    return value


def _spectral_corners(h: np.ndarray, energies: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """Corner of each (h_i - E_i)^-1 of a (B, N, N) symmetric stack from the spectral sum.

    One stacked eigh; returns the corners and, per member, the reason code
    and gap of :func:`_pole_reasons` (a pole's corner is meaningless).
    """
    eigenvalues, vectors = np.linalg.eigh(h)
    shifted, reasons, gaps = _pole_reasons(eigenvalues, energies)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = np.sum(vectors[:, -1] ** 2 / shifted, axis=1)
    return values.tolist(), reasons, gaps


def _determinant_corners(
    h: np.ndarray, energies: np.ndarray, eigenvalues: np.ndarray
) -> tuple[list, np.ndarray, np.ndarray]:
    """Corner of each (h_i - E_i)^-1 of a (B, N, N) symmetric stack from eigenvalues only.

    ``eigenvalues`` are the ascending eigenvalues of each h_i; the corner is
    the ratio of the characteristic products of the top-left (N-1) x (N-1)
    block (one stacked eigvalsh) and of h_i itself.  The factors are paired
    in interlaced order and multiplied in that order, so every intermediate
    product stays of moderate size.  Returns the corners and, per member,
    the reason code and gap of :func:`_pole_reasons`.
    """
    shifted, reasons, gaps = _pole_reasons(eigenvalues, energies)
    trimmed = np.linalg.eigvalsh(h[:, :-1, :-1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = (trimmed - energies[:, None]) / shifted[:, :-1]
        # a running product multiplies each member's factors in index order
        product = np.cumprod(ratios, axis=1)[:, -1] if ratios.shape[1] else np.ones(len(h))
        values = product / shifted[:, -1]
    return values.tolist(), reasons, gaps


def _scatter(energies, configs) -> list[tuple[np.ndarray, ...]]:
    """S of each config at each energy, as columns.

    The scan kernel; ``result[k]`` is ``(s, delta, amplitude, reason, value,
    corner)`` of ``configs[k]``, arrays over ``energies``: ``reason`` is the
    int8 ``_REASONS`` code of the first reason that stops S there (0 where S
    is ok; elsewhere the other columns are nan), ``value`` the gap or residual
    that its message prints, and ``corner`` the G_c that S used, which
    :func:`validate` checks.  The configs share basis and size: the free side
    (momentum, tails c_n - i s_n at n = N-1, N) is evaluated once per energy.

    Each energy's reason comes from one order, which the codes follow:
    weight, free tails, wave operator, pole guard, solve, S.  Per config, the
    weights of all energies are one pass, and the weight and tail masks
    decide once which energies are live: only a live energy gets a wave
    operator, so one with such a reason is never factored or solved.  The
    live energies, in order, form blocks of up to ``_BLOCK``; the Loewner
    sandwiches (:func:`_cleared_blocks`) and the blocks
    (:func:`_block_corners`) see only live members, and each block's corners,
    codes and values go back to its energies once.  Each block is one (B, N, N)
    wave-operator stack, whose certified members take their corners from one
    stacked Cholesky factorisation of M (:func:`_pivot_corners`); a member
    cleared only by eigvalsh, or whose factor fails the pivot check, takes
    the checked solve (:func:`_checked_solve`).

    The pole guard of a block is first its Loewner sandwich: one Cholesky
    factorisation of a lower operator A with M_i - delta_i I >= A for every
    member, delta_i = POLE_MARGIN * max(1, |E_i|).  If it succeeds,
    every member has all its eigenvalues above delta_i and is clear.
    Otherwise, and for a block of one, the guard is one stacked Cholesky of
    M_i - delta_i I; numpy factors every member but raises for the whole stack
    if one is not positive definite, returning none of the factors, and then
    each member is factored alone, so a row does not depend on its block.  A
    member that Cholesky cannot certify (on a pole, or with E above part of
    its spectrum) reads overflow if its wave operator is not finite (the
    coupling overflowed); the rest take the
    eigvalsh gap and :func:`_pole_reasons`, which alone give the gap that a
    pole reports.  A Cholesky factorisation succeeds only if its matrix
    is numerically positive definite, the same floating-point evidence
    eigvalsh gives about the smallest eigenvalue, so the guards can disagree
    only where a gap lies within rounding of delta.

    S is assembled per config as arrays: numerator l + w u with
    w = b_{N-1} G_c, denominator its exact conjugate, and one np.angle.  Each
    array operation rounds as its numpy scalar form, and |1 - S| is Python's
    (libm) complex abs, so every value is bit for bit what the energy gives
    alone.  |S| = 1 is one array test per config; a value that fails it
    raises :class:`ScatterPoint`'s ValueError.  Errors outside the reason
    table (a non-positive energy, a failed eigensolver) propagate.
    """
    basis, size = configs[0].basis, configs[0].size
    h0, b, h0_sums = _free_block(basis, size)
    mus = [_momentum(energy, basis) for energy in energies]
    terms, tails_failed = _free_tails(mus, basis, size + 1)
    columns = []
    # a failing member leaves inf or nan in its own entries (an overflowing coupling,
    # nan tail terms, a vanishing denominator); its reason is reported instead
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for config in configs:
            lam = lambda_matrix(config)
            weights, weight_errors = _weights(mus, config)
            reason = np.zeros(len(energies), dtype=np.int8)
            reason[tails_failed] = _TAILS
            if any(weight_errors):
                reason[[error is not None for error in weight_errors]] = _WEIGHT
            # only a live energy, one whose weight and tails are fine, gets a wave operator
            live = np.logical_not(reason).nonzero()[0]
            at = [energies[j] for j in live.tolist()]
            w = np.array([weights[j] for j in live.tolist()])
            couplings = config.g * w * w
            cleared = [False]
            if len(live) > 1:
                cleared = _cleared_blocks(np.asarray(at, dtype=float), couplings, h0, h0_sums, lam)
            slices = [slice(start, start + _BLOCK) for start in range(0, len(live), _BLOCK)]
            blocks = [_block_corners(at[s], couplings[s], h0, lam.entries, c) for s, c in zip(slices, cleared)]
            if len(blocks) == 1 and len(live) == len(energies):
                # every energy is live, in one block (as in a batch of one): the block's columns are the config's
                corner, reason, value = blocks[0]
            else:
                corner, value = np.full((2, len(energies)), np.nan)
                for block, outcome in zip(slices, blocks):
                    corner[live[block]], reason[live[block]], value[live[block]] = outcome
            s, delta, amplitude = _assemble(energies, terms, b[-1], corner, reason)
            columns.append((s, delta, amplitude, reason, value, corner))
    return columns


def _cleared_blocks(energies: np.ndarray, couplings: np.ndarray, h0: np.ndarray, h0_sums: np.ndarray, lam) -> list[bool]:
    """Per block of up to ``_BLOCK`` live energies, whether its Loewner sandwich clears every member of poles.

    ``couplings`` holds c_i = g w_i^2 of each energy, ``h0_sums`` H0's
    absolute row sums and ``lam`` the config's :class:`LambdaMatrix`.
    Lambda >= 0, so every member of a block has M_i - delta_i I >= H0 + c_min
    Lambda - (E_max + delta_max) I with c_min the smallest coupling and E_max
    the largest energy of the block (energies are positive, so E_max is also
    max|E|).  The block's lower operator is that matrix minus diag(r), and
    one stacked Cholesky factorisation of all of them answers for every
    block; a finite factor clears the block.

    r bounds, by Gershgorin's theorem, the rounding that separates the float
    matrices from the exact sandwich, row by row.  With u = eps/2, C = max|c_i|
    over the block, s = fl(E_max + delta_max), rho_j the row sum
    |F|^T |F| 1 that Lambda carries (``LambdaMatrix.row_sums``) and eta_j =
    sum_k |H0_jk|, each of these moves row j by at most:

    - the stored Lambda, sums of rounded Gram products of the K blocks of
      its factor (2K - 1 products each, one symmetrisation, K - 1 sums):
      within gamma_{3K} rho_j, times c_i - c_min <= 2C;
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
    member is its own sandwich and is left to the per-member guard.
    """
    starts = np.arange(0, len(energies), _BLOCK)
    low = np.minimum.reduceat(couplings, starts)
    size = np.maximum.reduceat(np.abs(couplings), starts)
    top = np.maximum.reduceat(energies, starts)
    shift = top + _margin(top)
    slack = (3 * lam.terms + 8) * _EPS * (np.multiply.outer(size, lam.row_sums) + h0_sums + shift[:, None])
    diagonal = shift[:, None] + slack
    candidates = ((starts + 1 < len(energies)) & np.isfinite(diagonal).all(axis=1)).nonzero()[0]
    cleared = np.zeros(len(starts), dtype=bool)
    if len(candidates):
        lower = _wave_stack(h0, low[candidates], lam.entries, diagonal[candidates])
        cleared[candidates] = np.isfinite(_factors(lower)).all(axis=(1, 2))
    return cleared.tolist()


def _factors(stack: np.ndarray) -> np.ndarray:
    """Cholesky factors of a (B, N, N) stack, nan for a member that is not numerically positive definite.

    numpy's batched Cholesky factors every member and fills a failed one with
    nan, but then raises for the whole stack and returns none of it; so each
    member is factored alone, and a member's factor does not depend on its
    block.  LAPACK lets nan and inf through without an error; they reach the
    factor.
    """
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        if len(stack) == 1:
            return np.full(stack.shape, np.nan)
        return np.concatenate([_factors(stack[i : i + 1]) for i in range(len(stack))])


def _uncertified(stack: np.ndarray, margins: np.ndarray) -> list[int]:
    """Members i for which a Cholesky factorisation cannot certify M_i - delta_i I positive definite.

    ``margins`` holds delta_i, the (B, 1) margins of :func:`_margin`, so a
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


def _block_corners(energies, couplings: np.ndarray, h0: np.ndarray, entries: np.ndarray, cleared: bool):
    """Corner G_c, reason code and value at each energy of one block of live energies.

    ``couplings`` holds c_i = g w_i^2 of each energy; a member whose guard
    or solve fails has a nan corner.  ``cleared`` says that the block's
    Loewner sandwich cleared every member (:func:`_cleared_blocks`);
    otherwise the members take the per-member Cholesky guard.  A certified
    member takes its corner from its last Cholesky pivot
    (:func:`_pivot_corners`); a member cleared only by eigvalsh, or whose
    factor fails the pivot check, takes the checked solve.
    """
    e = np.array(energies)[:, None]
    # an overflowing coupling leaves inf or nan entries: the pole guard reports them
    stack = _wave_stack(h0, couplings, entries, e)
    reason, value = np.zeros(len(e), dtype=np.int8), np.full(len(e), np.nan)
    doubtful = [] if cleared else _uncertified(stack, _margin(e))
    if not doubtful:
        corner, solve = _pivot_corners(stack)
    else:
        corner = np.full(len(e), np.nan)
        finite = np.isfinite(stack[doubtful]).all(axis=(1, 2))
        spectral = np.array(doubtful)[finite]
        reason[doubtful] = np.where(finite, _OK, _NOT_FINITE)
        eigenvalues = np.linalg.eigvalsh(stack[spectral]) + e[spectral]
        _, reason[spectral], value[spectral] = _pole_reasons(eigenvalues, e[spectral, 0])
        solve = [m for m in doubtful if reason[m] == _OK]
        certified = sorted(set(range(len(e))) - set(doubtful))
        if certified:
            corner[certified], failed = _pivot_corners(stack[certified])
            solve += [certified[k] for k in failed]
    if solve:
        corner[solve], reason[solve], value[solve] = _checked_solve(stack[solve])
    return corner, reason, value


def _assemble(energies, terms: np.ndarray, b_tail: float, corner: np.ndarray, reason: np.ndarray):
    """S, delta and |1 - S| from the tails and w = b_{N-1} G_c; a vanishing denominator sets its reason, nan corner."""
    lower, upper = terms[:, 0], terms[:, 1]
    numerators = lower + b_tail * corner * upper
    s = numerators / numerators.conj()
    # a vanishing denominator (|denominator| = |numerator|) or |S| off 1: numpy's abs
    # may differ from Python's in the last bit, so the masks take a superset
    doubtful = (np.abs(numerators) < 2e-300) | (np.abs(np.abs(s) - 1.0) > 0.5e-10)
    for j in doubtful.nonzero()[0].tolist():
        if reason[j] == _OK and abs(complex(numerators[j])) < 1e-300:
            reason[j], corner[j], s[j] = _DEGENERATE, np.nan, complex(np.nan, np.nan)
        elif reason[j] == _OK:
            ScatterPoint(energies[j], complex(s[j]), math.nan, math.nan)  # raises where |S| is off 1
    # only where S is used: Python's complex abs of a nan can raise on a stale errno
    amplitude = [np.nan if code else abs(1.0 - value) for value, code in zip(s.tolist(), reason.tolist())]
    return s, np.angle(s) / 2.0, np.array(amplitude)


def s_matrix(energy: float, config: ModelConfig) -> ScatterPoint:
    """Scattering matrix value e^{2 i delta} at one energy.

    A batch of one through the scan kernel; raises the first error that
    stops S at this energy, in the order weight, free tails, pole guard,
    solve, S (:class:`OverflowError`, :class:`RecurrenceOverflowError`,
    :class:`PoleError`, :class:`DegenerateEnergyError`, ...).
    """
    ((s, delta, amplitude, reason, value, _),) = _scatter([energy], [config])
    if reason[0]:
        _raise(reason[0], energy, value[0], config)
    return ScatterPoint(energy, s.tolist()[0], delta.tolist()[0], amplitude.tolist()[0])


@dataclass(frozen=True)
class ScanRequest:
    """One scan: a model template, the nu list, and the energy grid.

    ``configs`` holds each nu's :class:`ModelConfig`, built once at
    construction after the grid checks, so a bad model field raises here.
    """

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
    configs: tuple[ModelConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "steps", _integer(self.steps, "steps"))
        e_min, e_max = _real(self.e_min, "e_min"), _real(self.e_max, "e_max")
        if not (0 < e_min < e_max < math.inf):
            raise ValueError("need 0 < e_min < e_max, both finite")
        object.__setattr__(self, "e_min", e_min)
        object.__setattr__(self, "e_max", e_max)
        if self.steps < 2:
            raise ValueError("steps must be at least 2")
        if not self.nu_list:
            raise ValueError("at least one nu value is required")
        if self.steps * len(self.nu_list) > _MAX_ROWS:
            raise ValueError(
                f"steps x nu values must be at most {_MAX_ROWS} rows, the largest complex column numpy can index"
            )
        configs = tuple(
            ModelConfig(self.basis, self.g, nu, self.size, self.terms, self.weight_choice) for nu in self.nu_list
        )
        object.__setattr__(self, "configs", configs)

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


def run_scan(request: ScanRequest) -> ScanColumns:
    """Evaluate the scattering matrix over the requested (nu, E) grid.

    Rows come back in (nu, E) order, also for an unsorted or repeated nu
    list: rows with equal nu and E keep the order of the nu list, then of the
    grid.  Points where S cannot be evaluated carry the reason as their
    status (``pole``, ``overflow`` or ``degenerate``) instead of values.
    """
    grid = request.energy_grid()
    s_value, delta, amplitude, reason, _, _ = zip(*_scatter(grid.tolist(), request.configs))
    k, j = _row_order(request.nu_list, grid)
    return ScanColumns(
        nu=np.array(request.nu_list)[k],
        energy=grid[j],
        s_value=np.array(s_value)[k, j],
        delta=np.array(delta)[k, j],
        amplitude=np.array(amplitude)[k, j],
        status=tuple(_STATUSES[np.array(reason)[k, j]].tolist()),
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
    certificate's sqrt(lambda_min), the factor's smallest singular value, is
    off by at most 16 eps ||factor||_F, which times sqrt(Gamma(nu+1)) is
    `slack` (capped at 1).  For large nu Gamma(nu+1) overflows and
    lambda_min underflows, so both enter as logarithms, lambda_min as twice
    the log of the singular value; the product is at most
    Gamma(nu+1) Lambda[0, 0] = terms.
    """
    sigma = float(lam.singular[-1])  # positive: the build certified it above its noise floor
    half_log_gamma = 0.5 * math.lgamma(nu + 1.0)
    # ||factor||_F from the singular values, in logs: neither their squares nor the bound may underflow
    log_error = math.log(16.0 * _EPS) + math.log(math.hypot(*lam.singular.tolist()))
    slack = math.exp(min(0.0, log_error + half_log_gamma))
    scaled = math.exp(2.0 * math.log(sigma) + 2.0 * half_log_gamma)
    # below the normal range the stored square has lost digits or is 0: print the exact one
    shown = lam.min_eigenvalue if lam.min_eigenvalue >= np.finfo(float).tiny else Decimal(sigma) ** 2
    return scaled >= (1.0 - slack) ** 2, (
        f"min eigenvalue {shown:.6e}, "
        f"times Gamma(nu+1) {scaled:.6g} (bound (1 - {slack:.1e})^2)"
    )


def _three_route_tolerance(eigenvalues: np.ndarray, energies: np.ndarray) -> np.ndarray:
    # per member: route agreement saturates at eps * (spectral radius / gap); strongly
    # graded coupling matrices (condition up to ~1e17) push it above 1e-8
    gap = np.abs(eigenvalues - energies[:, None]).min(axis=1)
    radius = np.abs(eigenvalues).max(axis=1)
    return np.maximum(1e-8, 1024.0 * _EPS * radius / gap)


def _green_routes(config: ModelConfig, energies: list) -> tuple[list, list, np.ndarray, np.ndarray]:
    """The spectral and determinant corners at each energy, each route one stacked call.

    The couplings are one pass of :func:`_weights`, and H_i = H0 + c_i Lambda
    one (B, N, N) stack from the kernel's builder: eigh of H
    (:func:`green_corner_spectral`) and eigvalsh of H and of its trimmed
    blocks (:func:`green_corner_determinant`) are bit for bit the public
    routes at each energy alone.  The spectrum of H from eigvalsh, never
    eigh's, also serves the tolerance, so the routes stay independent.

    Returns the two routes' corners, the (B, N) eigenvalues of H, and per
    energy the reason code of its first pole in the order spectral guard,
    determinant guard.
    """
    h0, _, _ = _free_block(config.basis, config.size)
    e = np.array(energies)
    weights, _ = _weights([_momentum(energy, config.basis) for energy in energies], config)
    w = np.array(weights)
    hamiltonian = _wave_stack(h0, config.g * w * w, lambda_matrix(config).entries, 0.0)
    eigenvalues = np.linalg.eigvalsh(hamiltonian)
    spectral, spectral_reasons, _ = _spectral_corners(hamiltonian, e)
    determinant, determinant_reasons, _ = _determinant_corners(hamiltonian, e, eigenvalues)
    reasons = np.where(spectral_reasons != _OK, spectral_reasons, determinant_reasons)
    return spectral, determinant, eigenvalues, reasons


#: largest relative Casoratian defect validate accepts: above the free spectrum the
#: recursion's growth alone, within its rounding bound, makes it 0.14 (lambda = 1, N = 20, E = 40)
_CASORATIAN_LIMIT = 1e-8


def _casoratians(energies, basis: BasisParams, b: np.ndarray) -> tuple[list, list, int, int]:
    """Relative defect of b_n (s_n c_{n+1} - s_{n+1} c_n) = 2k/pi over n < N at each energy, and its share of the bound.

    ``b`` holds the free couplings b_0 .. b_{N-1}.  Two solutions of one
    three-term recursion have a Casoratian constant in n; the seed relation's
    drive fixes it at 2k/pi, k = sqrt(2E).  A wrong seed or drive shifts it by
    its own relative error, while rounding, kept once made, adds up over the
    N + 1 values of about five operations each: the bound is
    5 (N + 1) eps max_n b_n (|s_n c_{n+1}| + |s_{n+1} c_n|) / (2k/pi).

    The sequences are the cached ones the kernel's tails read at the same
    energies, and the defects of all energies are one stacked pass whose
    every element rounds as at that energy alone.  Returns the defects of the
    energies checked and each as a share of its bound, the count of energies
    whose sequences raise (the tails' error) and the count skipped because a
    sine coefficient is below the normal range (ell = 1, E < 6: from
    lam ~ 1e124), which keeps fewer bits than the bound counts.
    """
    count = len(b) + 1
    kept, sines, cosines = [], [], []
    for energy in energies:
        mu = _momentum(energy, basis)
        try:
            sine, cosine = _sine_sequence(mu, basis, count), _cosine_sequence(mu, basis, count)
        except RecurrenceOverflowError:
            continue
        kept.append(energy)
        sines.append(sine)
        cosines.append(cosine)
    sine, cosine = np.array(sines).reshape(-1, count), np.array(cosines).reshape(-1, count)
    normal = ~(np.abs(sine).min(axis=1) < _TINY)
    sine, cosine = sine[normal], cosine[normal]
    wronskian = 2.0 * np.sqrt(2.0 * np.array(kept, dtype=float)[normal]) / math.pi
    first, second = b * sine[:, :-1] * cosine[:, 1:], b * sine[:, 1:] * cosine[:, :-1]
    defect = np.abs(first - second - wronskian[:, None]).max(axis=1) / wronskian
    scale = (np.abs(first) + np.abs(second)).max(axis=1) / wronskian
    ratio = defect / (5.0 * count * _EPS * scale)
    return defect.tolist(), ratio.tolist(), len(energies) - len(kept), len(kept) - len(wronskian)


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
    ((_, _, _, reasons, _, corners),) = _scatter(energies, [config])
    skipped = _STATUSES[reasons[reasons != _OK]].tolist()
    live = (reasons == _OK).nonzero()[0].tolist()
    if live:
        at = [energies[j] for j in live]
        spectral, determinant, eigenvalues, route_reasons = _green_routes(config, at)
        # the kernel's corners, the ones S used (pivot or checked solve), against the two other routes
        routes = (corners[live].tolist(), spectral, determinant)
        skipped += _STATUSES[route_reasons[route_reasons != _OK]].tolist()
        agreed = (route_reasons == _OK).nonzero()[0].tolist()
        tolerances = _three_route_tolerance(eigenvalues[agreed], np.array(at)[agreed]).tolist()
        for m, tol in zip(agreed, tolerances):
            kernel, spectral_route, det_route = (route[m] for route in routes)
            spread = max(abs(kernel - spectral_route), abs(kernel - det_route), abs(spectral_route - det_route))
            worst_route = max(worst_route, spread / abs(kernel) / tol)
    checked = len(energies) - len(skipped)
    report.add(
        "green-three-route",
        checked > 0 and worst_route <= 1.0,
        f"worst spread {worst_route:.3f} of the conditioning-aware tolerance "
        f"({checked} checked, {status_summary(skipped, 'skipped')})",
    )

    _, b, _ = _free_block(config.basis, config.size)
    defects, ratios, raised, underflowed = _casoratians(energies[:4], config.basis, b)
    skipped = [_STATUSES[_TAILS]] * raised
    worst_defect, worst_ratio = max([0.0, *defects]), max([0.0, *ratios])
    checked = len(defects)
    underflow = f", {underflowed} underflow-failed: sine coefficients below the normal range" if underflowed else ""
    report.add(
        "casoratian",
        checked > 0 and not underflowed and worst_ratio <= 1.0 and worst_defect <= _CASORATIAN_LIMIT,
        f"worst relative defect {worst_defect:.3e} (limit {_CASORATIAN_LIMIT:.0e}), "
        f"{worst_ratio:.3f} of the rounding bound ({checked} checked, {status_summary(skipped, 'skipped')}{underflow})",
    )
    return report

"""Nonlinear interaction block: weight, coupling matrix, normalizer.

The nonlinear interaction acts on the expansion coefficients as a rank-dense
N x N block  W(E) = g * omega(E)^2 * Lambda, where Lambda sums the
product-linearization tables of the ansatz polynomials:

    Lambda = sum_{i<K} Lt_i(J)^2  restricted to the leading N x N block,

the compression of multiplication by the degree-2(K-1) polynomial
sum_{i<K} Lt_i(x)^2 (14 at K = 8): a confining term, not a short-range one.

Lambda is a sum of squares of symmetric matrices, hence positive definite for
any nu > -1.  Its entries are extremely graded (the high-index corner grows
factorially, reaching ~1e17 at nu = 1, K = 8, N = 20), so the positivity
certificate and the whitening transform both read one SVD of a factor of
Lambda, taken when Lambda is built, rather than an eigendecomposition of the
assembled entries, which is the only way to resolve the small end of the
spectrum in double precision.

The build stacks the K(N + 2K + 4) x N factor F (Lambda = F^T F), takes the
N x N triangular R of F = Q R (so Lambda = R^T R) and the SVD of R: Chan's
R-SVD (ACM TOMS 8(1), 1982), which gives F's singular values and right
singular vectors without forming F's left ones.  LAPACK's SVD of a tall F
runs the same QR first, so the two agree bit for bit.  F is scaled by an
exact power of two before its QR: from nu ~ 300 its entries are subnormal,
where an unscaled QR rounds coarsely (sigma off by 6 % at nu = 312) while
LAPACK's SVD scales such a matrix itself.  Only R is kept.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .orthopoly import linearization_table
from .reference import BasisParams, _momentum, _real, h0_matrix

__all__ = [
    "WEIGHT_CHOICES",
    "ModelConfig",
    "LambdaMatrix",
    "OmegaTransform",
    "PositivityCertificateError",
    "weight",
    "lambda_matrix",
    "omega_transform",
    "wave_operator",
]

WEIGHT_CHOICES = ("resonance", "sine")

_EPS = float(np.finfo(float).eps)

#: energies per stacked block of the scan kernel; bounds its (B, N, N) wave stacks
_BLOCK = 64

#: most float64 entries numpy indexes in one array (intp.max bytes)
_MAX_ENTRIES = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


class PositivityCertificateError(RuntimeError):
    """The coupling matrix failed its positive-definiteness certificate.

    Lambda is positive definite for nu > -1, but double precision cannot
    always show it: from nu ~ 313.16 the factor's scale 1/sqrt(Gamma(nu+1))
    underflows and Lambda is zero, and a factor graded beyond the floor
    16 eps sigma_max (nu = 1, N = 40, K = 12) hides lambda_min >= 1/Gamma(nu+1).
    """


@dataclass(frozen=True)
class ModelConfig:
    """All physical and computational parameters of the scattering model."""

    basis: BasisParams
    g: float
    nu: float
    size: int
    terms: int
    weight_choice: str = "resonance"

    def __post_init__(self):
        for field, name in (("size", "matrix size N"), ("terms", "term count K")):
            object.__setattr__(self, field, _integer(getattr(self, field), name))
        nu = _real(self.nu, "ansatz parameter nu")
        if not -1 < nu < math.inf:
            raise ValueError("ansatz parameter must satisfy nu > -1 and be finite")
        if self.size < 2:
            raise ValueError("matrix size must be at least 2")
        if not 1 <= self.terms <= self.size:
            raise ValueError("need 1 <= terms <= size")
        # the largest arrays of a config: the (K, N, N) linearization table and the (64, N, N) wave stack
        if max(self.terms, _BLOCK) * self.size**2 > _MAX_ENTRIES:
            raise ValueError(
                f"max(K, {_BLOCK}) x N^2 must be at most {_MAX_ENTRIES} entries, "
                "the largest float64 array numpy can index"
            )
        # the largest entry of H0's (N + 1) block is (lam^2/2)(2N + ell + 3/2), at n = N; a row
        # holds at most three entries, so each computed absolute row sum stays below 4 times it
        if not math.isfinite(4.0 * (0.5 * self.basis.lam**2 * (2 * self.size + float(self.basis.ell) + 1.5))):
            raise ValueError(
                f"scale parameter lam must keep H0's row sums finite at N = {self.size} and ell = {self.basis.ell}: "
                f"4 (lam^2/2)(2N + ell + 3/2) overflows (got {self.basis.lam!r})"
            )
        if self.weight_choice not in WEIGHT_CHOICES:
            raise ValueError(
                f"weight_choice must be one of {WEIGHT_CHOICES} (got {self.weight_choice!r})"
            )
        g = _real(self.g, "coupling g")
        if not math.isfinite(g):
            raise ValueError("coupling g must be finite")
        # Python floats, as BasisParams stores its fields: a numpy scalar would set the precision of S
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "g", g)


def _integer(value, name: str) -> int:
    # operator.index takes Python and numpy integers, and no float, however integral
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not a bool (got {value!r})")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer (got {value!r})") from None


def weight(energy: float, config: ModelConfig) -> float:
    """Energy-dependent weight of the ansatz coefficients; OverflowError where it is not finite."""
    (value,), (error,) = _weights([_momentum(energy, config.basis)], config)
    if error is not None:
        raise error
    return value


def _weights(mus, config: ModelConfig) -> tuple[list, list]:
    """The weight at each mu in one pass of Python float operations.

    Returns the values and, per mu, ``None`` or the OverflowError that
    stops the weight there (its value is then nan): the weight is not
    finite, or Python's float power or exp raised, which it then chains.
    Every value is bit for bit the weight of that mu alone.
    """
    cause = None
    try:
        if config.weight_choice == "resonance":
            power = 2.0 * config.nu
            values = [mu**power * math.exp(-mu**2) for mu in mus]
        else:
            power = config.basis.ell + 1
            values = [2.0 * mu**power * math.exp(-mu**2 / 2.0) for mu in mus]
    except ArithmeticError as exc:
        if len(mus) > 1:
            # Python's float power and exp raise where the result overflows: settle each mu alone
            parts = [_weights([mu], config) for mu in mus]
            return [value for (value,), _ in parts], [error for _, (error,) in parts]
        # a weight beyond the double range, as below, chained from Python's error
        values, cause = [math.inf], exc
    errors = [None] * len(values)
    if all(map(math.isfinite, values)):
        return values, errors
    for j, value in enumerate(values):
        if not math.isfinite(value):
            # mu = inf once 2E overflows, and inf * e^{-inf} is nan
            errors[j] = OverflowError(f"weight is not finite at mu={mus[j]:.3g}")
            errors[j].__cause__ = cause
            values[j] = math.nan
    return values, errors


@dataclass(frozen=True)
class LambdaMatrix:
    """Lambda = R^T R with its certificate, its triangular factor R and R's SVD.

    `factor` is the N x N upper-triangular R of the stacked factor F = Q R;
    `singular` and `v_t` are R's singular values and right singular vectors,
    which are F's; `row_sums`, |F|^T |F| 1, bounds Lambda's absolute row sums
    and the rounding of its stored entries row by row.  `min_eigenvalue` is
    singular[-1]**2, which underflows to 0 from nu ~ 177 while `singular`
    still certifies Lambda: read the singular value where that matters.
    """

    entries: np.ndarray
    terms: int
    min_eigenvalue: float
    factor: np.ndarray
    singular: np.ndarray
    v_t: np.ndarray
    row_sums: np.ndarray

    def __post_init__(self):
        for array in (self.entries, self.factor, self.singular, self.v_t, self.row_sums):
            array.setflags(write=False)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@lru_cache(maxsize=16)
def _lambda_core(nu: float, terms: int, size: int) -> LambdaMatrix:
    table, stacked = linearization_table(terms, size, nu)
    entries = table.sum(axis=0)
    magnitude = np.abs(stacked)
    row_sums = magnitude.T @ magnitude.sum(axis=1)
    # the exact scale 2^-exponent takes the largest entry into [1/2, 1): the QR of a
    # subnormal F (nu near 312) then does not round in the subnormal range
    exponent = math.frexp(float(magnitude.max()))[1]
    scaled_r = np.linalg.qr(np.ldexp(stacked, -exponent), mode="r")
    _, singular, v_t = np.linalg.svd(scaled_r)
    singular, factor = np.ldexp(singular, exponent), np.ldexp(scaled_r, exponent)
    if not singular[0] > 0:
        raise PositivityCertificateError(f"Lambda underflowed to zero at nu={nu}: 1/Gamma(nu+1) is below the double range")
    min_eig = float(singular[-1] ** 2)
    # noise floor of the factored certificate; the analytic lower bound
    # 1/Gamma(nu+1) sits above it unless the factor is strongly graded
    floor = 16.0 * _EPS * float(singular[0])
    if not singular[-1] > floor:
        raise PositivityCertificateError(
            f"min eigenvalue {min_eig:.3e} indistinguishable from zero "
            f"(floor {float(floor**2):.3e}) for nu={nu}, terms={terms}, size={size}"
        )
    return LambdaMatrix(entries, terms, min_eig, factor, singular, v_t, row_sums)


def lambda_matrix(config: ModelConfig) -> LambdaMatrix:
    """Assemble the coupling matrix for a model configuration.

    Results are cached per (nu, terms, size); the returned object is
    immutable.  The cache keeps the 16 most recently used entries, sized by
    its traffic: within one call every reader looks its Lambda up back to
    back (`validate` 3 times, a scan once per config), and across calls
    only a repeated scan or point-query loop reuses an entry, over its
    distinct nu (7 on the paper grid).  A fresh config is built once and
    never read again.  An entry holds N x N and length-N arrays only (Lambda,
    R, V^T, the singular values and the row sums; 6.25-54.8 KiB at the
    benchmark's sweep sizes): the stacked factor F is dropped once R is
    taken.  A repeated loop over more than 16 distinct (nu, terms, size)
    rebuilds Lambda on every pass.
    """
    return _lambda_core(config.nu, config.terms, config.size)


@dataclass(frozen=True)
class OmegaTransform:
    """Whitening transform with Omega @ Lambda @ Omega.T = identity.

    omega = Q @ u.T, with u the orthonormal eigenvectors of the coupling
    matrix (``LambdaMatrix.v_t.T``) and Q the inverse square roots of its
    eigenvalues (``1 / LambdaMatrix.singular``).  `residual` is the measured
    max-norm defect of the identity and `floor` the double-precision
    evaluation limit of that product; for well-conditioned matrices the
    residual is below 1e-10, for strongly graded ones it can only be
    certified down to the floor.
    """

    omega: np.ndarray
    residual: float
    floor: float

    def __post_init__(self):
        self.omega.setflags(write=False)


def omega_transform(lam: LambdaMatrix) -> OmegaTransform:
    """Build the transform that maps the coupling matrix to the identity from Lambda's own SVD."""
    entries = lam.entries
    sigma = lam.singular**2
    # sigma underflows to 0 from nu ~ 177: q is then inf and the check below rejects it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = 1.0 / np.sqrt(sigma)
        omega = q[:, None] * lam.v_t
        defect = omega @ entries @ omega.T - np.eye(entries.shape[0])
        residual = float(np.abs(defect).max())
        abs_product = np.abs(omega) @ np.abs(entries) @ np.abs(omega.T)
        floor = 16.0 * _EPS * float(abs_product.max())
    if not (math.isfinite(residual) and math.isfinite(floor)):
        raise np.linalg.LinAlgError(
            f"whitening failed: residual {residual:.3e} or its floor {floor:.3e} is not finite"
        )
    if residual > max(1e-10, floor):
        raise np.linalg.LinAlgError(
            f"whitening failed: residual {residual:.3e} above tolerance "
            f"max(1e-10, {floor:.3e})"
        )
    return OmegaTransform(omega=omega, residual=residual, floor=floor)


def wave_operator(energy: float, config: ModelConfig) -> np.ndarray:
    """N x N wave-operator matrix H0 + g omega^2 Lambda - E; a batch of one through :func:`_wave_stack`."""
    w = weight(energy, config)
    h0 = h0_matrix(config.basis, config.size)
    return _wave_stack(h0, [config.g * w * w], lambda_matrix(config).entries, energy)[0]


def _wave_stack(h0: np.ndarray, couplings, entries: np.ndarray, shifts) -> np.ndarray:
    """Operators H0 + c_i Lambda - diag(shifts_i) as a (B, N, N) stack; ``shifts`` is (B, 1), (B, N) or a scalar."""
    stack = np.multiply.outer(couplings, entries)
    stack += h0
    _diagonal(stack)[...] -= shifts
    return stack


def _diagonal(stack: np.ndarray) -> np.ndarray:
    # writable (B, N) view of the diagonals of a contiguous (B, N, N) stack
    return stack.reshape(len(stack), -1)[:, :: stack.shape[-1] + 1]

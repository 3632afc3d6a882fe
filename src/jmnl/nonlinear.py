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
certificate and the whitening transform are computed from the stacked factor
rather than from an eigendecomposition of the assembled entries, which is the
only way to resolve the small end of the spectrum in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .orthopoly import linearization_table
from .reference import BasisParams, Kinematics, h0_matrix

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
_WEIGHT_ALIASES = {"fig1": "resonance"}

_EPS = float(np.finfo(float).eps)


class PositivityCertificateError(RuntimeError):
    """The coupling matrix failed its positive-definiteness certificate.

    For nu > -1 this cannot happen mathematically; seeing it signals an
    implementation bug, not a legitimate parameter regime.
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
        object.__setattr__(
            self, "weight_choice", _WEIGHT_ALIASES.get(self.weight_choice, self.weight_choice)
        )
        if not self.nu > -1:
            raise ValueError("ansatz parameter must satisfy nu > -1")
        if self.size < 2:
            raise ValueError("matrix size must be at least 2")
        if not 1 <= self.terms <= self.size:
            raise ValueError("need 1 <= terms <= size")
        if self.weight_choice not in WEIGHT_CHOICES:
            raise ValueError(
                f"weight_choice must be one of {WEIGHT_CHOICES} (got {self.weight_choice!r})"
            )
        if not math.isfinite(self.g):
            raise ValueError("coupling g must be finite")


def weight(energy: float, config: ModelConfig) -> float:
    """Energy-dependent weight of the ansatz coefficients; OverflowError where it is not finite."""
    (value,), (error,) = _weights([Kinematics.from_energy(energy, config.basis).mu], config)
    if error is not None:
        raise error
    return value


def _weights(mus, config: ModelConfig) -> tuple[list, list]:
    """The weight at each mu in one pass of Python float operations.

    Returns the values and, per mu, ``None`` or the ArithmeticError that
    stops the weight there (its value is then nan).  Every value is bit for
    bit the weight of that mu alone.
    """
    try:
        if config.weight_choice == "resonance":
            power = 2.0 * config.nu
            values = [mu**power * math.exp(-mu**2) for mu in mus]
        else:
            power = config.basis.ell + 1
            values = [2.0 * mu**power * math.exp(-mu**2 / 2.0) for mu in mus]
    except ArithmeticError as exc:
        if len(mus) == 1:
            return [math.nan], [exc]
        # Python's float power and exp raise where the result overflows: settle each mu alone
        parts = [_weights([mu], config) for mu in mus]
        return [value for (value,), _ in parts], [error for _, (error,) in parts]
    errors = [None] * len(values)
    if all(map(math.isfinite, values)):
        return values, errors
    for j, value in enumerate(values):
        if not math.isfinite(value):
            # mu = inf once 2E overflows, and inf * e^{-inf} is nan
            errors[j] = OverflowError(f"weight is not finite at mu={mus[j]:.3g}")
            values[j] = math.nan
    return values, errors


@dataclass(frozen=True)
class LambdaMatrix:
    """Coupling matrix with its positivity certificate and stacked factor."""

    entries: np.ndarray
    nu: float
    terms: int
    min_eigenvalue: float
    factor: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)
        self.factor.setflags(write=False)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@lru_cache(maxsize=64)
def _lambda_core(nu: float, terms: int, size: int) -> LambdaMatrix:
    table, factor = linearization_table(terms, size, nu)
    entries = table.sum(axis=0)
    entries = 0.5 * (entries + entries.T)
    singular = np.linalg.svd(factor, compute_uv=False)
    min_eig = float(singular[-1] ** 2)
    # noise floor of the factored certificate; the analytic lower bound
    # 1/Gamma(nu+1) sits far above it for every admissible nu
    floor = 16.0 * _EPS * float(singular[0])
    if not singular[-1] > floor:
        raise PositivityCertificateError(
            f"min eigenvalue {min_eig:.3e} indistinguishable from zero "
            f"(floor {float(floor**2):.3e}) for nu={nu}, terms={terms}, size={size}"
        )
    return LambdaMatrix(
        entries=entries, nu=nu, terms=terms, min_eigenvalue=min_eig, factor=factor
    )


@lru_cache(maxsize=64)
def _lambda_row_sums(nu: float, terms: int, size: int) -> np.ndarray:
    """|F|^T |F| 1 for the stacked factor F of Lambda = F^T F, read-only.

    Each entry bounds the absolute row sum of Lambda, and the rounding of its
    stored entries row by row (they are Gram products of F); for the
    Laguerre family, whose Gram products do not cancel, it equals the
    absolute row sum.  Cached like the matrix itself.
    """
    factor = np.abs(_lambda_core(nu, terms, size).factor)
    sums = factor.T @ factor.sum(axis=1)
    sums.setflags(write=False)
    return sums


def lambda_matrix(config: ModelConfig) -> LambdaMatrix:
    """Assemble the coupling matrix for a model configuration.

    Results are cached per (nu, terms, size); the returned object is
    immutable.
    """
    return _lambda_core(config.nu, config.terms, config.size)


@dataclass(frozen=True)
class OmegaTransform:
    """Whitening transform with Omega @ Lambda @ Omega.T = identity.

    `u` holds orthonormal eigenvectors of the coupling matrix, `q` the
    inverse square roots of its eigenvalues (the diagonal of Q), and
    omega = Q @ u.T.  `residual` is the measured max-norm defect of the
    identity and `floor` the double-precision evaluation limit of that
    product; for well-conditioned matrices the residual is below 1e-10,
    for strongly graded ones it can only be certified down to the floor.
    """

    omega: np.ndarray
    u: np.ndarray
    q: np.ndarray
    residual: float
    floor: float

    def __post_init__(self):
        self.omega.setflags(write=False)
        self.u.setflags(write=False)
        self.q.setflags(write=False)


def omega_transform(lam: LambdaMatrix) -> OmegaTransform:
    """Build the transform that maps the coupling matrix to the identity."""
    entries = lam.entries
    _, singular, v_t = np.linalg.svd(lam.factor, full_matrices=False)
    u = v_t.T
    sigma = singular**2
    q = 1.0 / np.sqrt(sigma)
    omega = q[:, None] * u.T
    defect = omega @ entries @ omega.T - np.eye(entries.shape[0])
    residual = float(np.abs(defect).max())
    abs_product = np.abs(omega) @ np.abs(entries) @ np.abs(omega.T)
    floor = 16.0 * _EPS * float(abs_product.max())
    if residual > max(1e-10, floor):
        raise np.linalg.LinAlgError(
            f"whitening failed: residual {residual:.3e} above tolerance "
            f"max(1e-10, {floor:.3e})"
        )
    return OmegaTransform(omega=omega, u=u, q=q, residual=residual, floor=floor)


def wave_operator(energy: float, config: ModelConfig) -> np.ndarray:
    """N x N wave-operator matrix H0 + g omega^2 Lambda - E."""
    h0 = h0_matrix(config.basis, config.size)
    w = weight(energy, config)
    lam = lambda_matrix(config)
    return h0 + (config.g * w * w) * lam.entries - energy * np.eye(config.size)

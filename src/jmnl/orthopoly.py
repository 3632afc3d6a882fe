"""Orthonormal generalized Laguerre polynomials and product linearization.

Everything here lives on the half line with weight z^nu * exp(-z), nu > -1.
The orthonormal polynomials Lt_n satisfy the symmetric three-term recurrence

    z Lt_n(z) = alpha_n Lt_n(z) + beta_n Lt_{n+1}(z) + beta_{n-1} Lt_{n-1}(z),

with alpha_n = 2n + nu + 1 and beta_n = -sqrt((n+1)(n+nu+1)).  Collecting the
recurrence coefficients into a tridiagonal Jacobi matrix J turns multiplication
by z into a matrix operator.  The workhorses:

* :func:`laguerre_orthonormal_sequence`, the values Lt_0(z) .. Lt_n(z) by the
  recurrence, whose one loop (:func:`_recursion`) also runs the free sequences;
* :func:`linearization_table`, the coefficients expanding Lt_i(z)^2 * Lt_n(z)
  over the family: entries of Lt_i(J)^2, a banded matrix polynomial evaluated
  exactly by the same recurrence, with the stacked factor whose Gram matrix
  is the coupling matrix;
* :func:`gauss_laguerre_rule`, Gauss quadrature from the spectral
  decomposition of a truncated J (Golub-Welsch).

The Jacobi matrix and the table come back read-only and every function is
pure, so results are safe to share across threads.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "laguerre_orthonormal_sequence",
    "gauss_laguerre_rule",
    "jacobi_matrix",
    "linearization_table",
]


def _check_nu(nu: float) -> None:
    if not -1 < nu < math.inf:
        raise ValueError(f"weight parameter must satisfy nu > -1 and be finite, got {nu!r}")


def _normalization(nu: float) -> float:
    # Lt_0 = 1 / sqrt(Gamma(nu+1)) evaluated in log space to avoid overflow
    return math.exp(-0.5 * math.lgamma(nu + 1.0))


def _coefficients(nu: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    # alpha_n = 2n + nu + 1 and |beta_n| = sqrt((n+1)(n+nu+1)) for n < count: the recurrence's one formula
    n = np.arange(count, dtype=float)
    return 2.0 * n + nu + 1.0, np.sqrt((n + 1.0) * (n + nu + 1.0))


@lru_cache(maxsize=64)
def _recursion_coefficients(nu: float, count: int) -> tuple[tuple[float, float, float], ...]:
    """(alpha_n, |beta_{n-1}|, |beta_n|) for n < count - 1, with |beta_{-1}| = 1 weighing P_{-1}.

    Filled by :func:`_recursion`, for the orthonormal values and the free
    sine and cosine sequences, and by :func:`_polynomial_family`, once per
    Lambda build.
    """
    if count < 1:
        raise ValueError(f"a sequence needs at least one value (asked for {count})")
    alpha, beta = (values.tolist() for values in _coefficients(nu, count - 1))
    return tuple(zip(alpha, [1.0, *beta[:-1]], beta))


def _recursion(first, z, nu: float, count: int, drive=0.0) -> list:
    """P_0 .. P_{count-1} of the recurrence that (-1)^n Lt_n(z) obeys, from P_0 = ``first``.

    P_{n+1} = ((z - alpha_n) P_n - |beta_{n-1}| P_{n-1}) / |beta_n|, the free
    Hamiltonian's positive couplings, with P_{-1} = ``drive`` weighed by 1:
    the free cosine sequence passes its seed and the drive of its n = 0
    relation.  In Python floats or elementwise in arrays (z and the drive
    broadcast against ``first``), which round alike.
    """
    values = [first]
    first, second = drive, first
    for diagonal, below, above in _recursion_coefficients(nu, count):
        first, second = second, ((z - diagonal) * second - below * first) / above
        values.append(second)
    return values


def laguerre_orthonormal_sequence(nmax: int, nu: float, z):
    """Orthonormal Laguerre values Lt_0(z) .. Lt_nmax(z).

    `z` may be a scalar or a 1-D array; the result has shape (nmax+1,) or
    (nmax+1, len(z)).  Uses the symmetric recurrence, which is stable upward
    and free of the factorial overflow of the unnormalized polynomials.
    """
    _check_nu(nu)
    z = np.asarray(z, dtype=float)
    out = np.array(_recursion(np.full(z.shape, _normalization(nu)), z, nu, nmax + 1))
    out[1::2] *= -1.0  # Lt_n = (-1)^n P_n, exactly
    return out


def jacobi_matrix(nu: float, size: int) -> np.ndarray:
    """Truncated Jacobi matrix of the orthonormal Laguerre family, read-only.

    Diagonal 2n + nu + 1 and off-diagonal -sqrt((n+1)(n+nu+1)), stored exactly
    as defined; the matrix is symmetric and, for nu > -1, positive definite.
    """
    _check_nu(nu)
    if size < 1:
        raise ValueError("size must be positive")
    alpha, beta = _coefficients(nu, size)
    dense = np.diag(alpha) - np.diag(beta[:-1], 1) - np.diag(beta[:-1], -1)
    dense.setflags(write=False)
    return dense


def gauss_laguerre_rule(count: int, nu: float):
    """Gauss rule for the weight z^nu e^{-z} on (0, inf) via Golub-Welsch.

    Exact for polynomial integrands up to degree 2*count - 1.  Nodes are the
    eigenvalues of the truncated Jacobi matrix; weights come from the first
    components of the normalized eigenvectors scaled by the zeroth moment
    Gamma(nu+1).
    """
    _check_nu(nu)
    if count < 1:
        raise ValueError("count must be positive")
    nodes, vectors = np.linalg.eigh(jacobi_matrix(nu, count))
    weights = math.exp(math.lgamma(nu + 1.0)) * vectors[0] ** 2
    return nodes, weights


def _polynomial_family(count: int, nu: float, size: int) -> list[np.ndarray]:
    """Matrices Lt_0(J) .. Lt_{count-1}(J) on a size-truncated J.

    The loop of :func:`_recursion` on whole matrices, from Lt_{-1} = 0
    weighed by 1, with J's own signs:
    Lt_{n+1}(J) = ((J - alpha_n I) Lt_n(J) + |beta_{n-1}| Lt_{n-1}(J)) / -|beta_n|.
    The degree-i matrix has bandwidth i, and its entries beyond the band are
    exact zeros, so no mask is needed: J is tridiagonal and Lt_n(J) has band
    n, so every product summed into an entry of (J - alpha_n I) Lt_n(J)
    beyond band n + 1 has a zero factor, and Lt_{n-1}(J) is zero there too.
    Entries (n, m) with max(n, m) + i < size are exact to rounding.
    """
    dense = jacobi_matrix(nu, size)
    identity = np.eye(size)
    family = [_normalization(nu) * identity]
    first, second = 0.0, family[0]
    for diagonal, below, above in _recursion_coefficients(nu, count):
        first, second = second, ((dense - diagonal * identity) @ second + below * first) / -above
        family.append(second)
    return family


def linearization_table(terms: int, dim: int, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients expanding Lt_i^2 Lt_n over the family, for i < terms, n,m < dim.

    Returns read-only ``(entries, factor)``.  entries[i, n, m] equals the
    weighted integral of Lt_i^2 Lt_n Lt_m and is exactly symmetric in (n, m),
    exactly zero for |n - m| > 2i.  `factor` stacks the column-restricted
    matrices Lt_i(J)[:, :dim]; its Gram matrix reproduces the i-summed table,
    which gives positive-definiteness certificates that survive the extreme
    grading of the entries.

    The internal truncation dim + 2*terms + 4 is large enough that every
    retained entry is exact to rounding; enlarging it further changes nothing
    beyond ~1e-15 relative.
    """
    _check_nu(nu)
    if terms < 1 or dim < 1:
        raise ValueError("terms and dim must be positive")
    family = _polynomial_family(terms, nu, dim + 2 * terms + 4)
    blocks = [poly[:, :dim] for poly in family]
    grams = np.array([block.T @ block for block in blocks])
    entries = 0.5 * (grams + grams.transpose(0, 2, 1))
    factor = np.vstack(blocks)
    entries.setflags(write=False)
    factor.setflags(write=False)
    return entries, factor

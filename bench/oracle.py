"""High-precision oracle for the coupling matrix and the scattering matrix.

Nothing here imports ``jmnl``.  The coupling matrix is rebuilt from its
definition as a sum of triple-product integrals,

    Lambda[n, m] = sum_{i<K} int_0^inf Lt_i(z)^2 Lt_n(z) Lt_m(z) z^nu e^-z dz,

evaluated exactly (the integrand is a polynomial of degree 2(N+K-2)) by an
(N+K-1)-node Gauss rule for the weight z^nu e^-z, with polynomial values from
mpmath's hypergeometric Laguerre evaluator rather than from a recurrence.
S(E) follows the formulas of the ``jmnl.reference`` and ``jmnl.scattering``
module docstrings, in 40-digit arithmetic:

    M(E) = H0 + g omega(E)^2 Lambda - E,   G_c = M^-1[N-1, N-1],
    S(E) = [c_{N-1} - i s_{N-1} + b_{N-1} G_c (c_N - i s_N)]
         / [c_{N-1} + i s_{N-1} + b_{N-1} G_c (c_N + i s_N)].
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

DIGITS = 40


@dataclass(frozen=True)
class Model:
    """The physical parameters the oracle needs (mirrors a jmnl ModelConfig)."""

    lam: float
    ell: int
    g: float
    nu: float
    size: int
    terms: int


def _ctx():
    ctx = mpmath.mp.clone()
    ctx.dps = DIGITS
    return ctx


def _orthonormal_laguerre(ctx, n, nu, z):
    # Lt_n = sqrt(n! / Gamma(n+nu+1)) L_n^nu(z)
    norm = ctx.sqrt(ctx.factorial(n) / ctx.gamma(n + nu + 1))
    return norm * ctx.laguerre(n, nu, z)


def lambda_oracle(nu: float, size: int, terms: int) -> list[list]:
    """Coupling matrix Lambda (size x size) as nested lists of mpf."""
    ctx = _ctx()
    nu_mp = ctx.mpf(nu)
    nodes, weights = ctx.gauss_quadrature(size + terms - 1, "glaguerre", alpha=nu_mp)
    columns = []
    for x, w in zip(nodes, weights):
        values = [_orthonormal_laguerre(ctx, n, nu_mp, x) for n in range(size)]
        p = ctx.fsum(values[i] ** 2 for i in range(terms))
        scale = ctx.sqrt(w * p)
        columns.append([scale * v for v in values])
    return [
        [ctx.fsum(col[n] * col[m] for col in columns) for m in range(size)]
        for n in range(size)
    ]


def _coefficients(ctx, energy, model: Model):
    """Sine and cosine coefficients s_0..s_N, c_0..c_N at one energy."""
    lam = ctx.mpf(model.lam)
    ell = model.ell
    nu_b = ctx.mpf(ell) + ctx.mpf(1) / 2
    mu = ctx.sqrt(2 * energy) / lam
    z = mu**2
    count = model.size + 1
    pref = (2 / ctx.sqrt(lam)) * mu ** (ell + 1) * ctx.exp(-z / 2)
    s = [(-1) ** n * pref * _orthonormal_laguerre(ctx, n, nu_b, z) for n in range(count)]
    c = [ctx.zero] * count
    c[0] = (
        (2 / ctx.sqrt(lam))
        * (ctx.gamma(nu_b) / ctx.pi)
        * mu ** (-ell)
        * ctx.exp(-z / 2)
        / ctx.sqrt(ctx.gamma(nu_b + 1))
        * ctx.hyp1f1(-nu_b, 1 - nu_b, z)
    )
    drive = -(2 / ctx.pi) * ctx.sqrt(ctx.gamma(ell + ctx.mpf(3) / 2) / lam) * mu ** (-ell) * ctx.exp(z / 2)
    c[1] = ((z - (ell + ctx.mpf(3) / 2)) * c[0] - drive) / ctx.sqrt(ell + ctx.mpf(3) / 2)
    for n in range(1, count - 1):
        c[n + 1] = (
            (z - (2 * n + ell + ctx.mpf(3) / 2)) * c[n] - ctx.sqrt(n * (n + ell + ctx.mpf(1) / 2)) * c[n - 1]
        ) / ctx.sqrt((n + 1) * (n + ell + ctx.mpf(3) / 2))
    return s, c, mu


def s_oracle(energy: float, model: Model, lam_matrix: list[list]) -> complex:
    """S(E) for the resonance weight mu^(2 nu) e^(-mu^2), rounded to complex."""
    ctx = _ctx()
    e = ctx.mpf(energy)
    size = model.size
    s, c, mu = _coefficients(ctx, e, model)
    omega = mu ** (2 * ctx.mpf(model.nu)) * ctx.exp(-(mu**2))
    coupling = ctx.mpf(model.g) * omega**2
    half = ctx.mpf(model.lam) ** 2 / 2
    ell = model.ell
    matrix = ctx.matrix([[coupling * entry for entry in row] for row in lam_matrix])
    for n in range(size):
        matrix[n, n] += half * (2 * n + ell + ctx.mpf(3) / 2) - e
        if n + 1 < size:
            off = half * ctx.sqrt((n + 1) * (n + ell + ctx.mpf(3) / 2))
            matrix[n, n + 1] += off
            matrix[n + 1, n] += off
    unit = ctx.matrix(size, 1)
    unit[size - 1] = 1
    corner = ctx.lu_solve(matrix, unit)[size - 1]
    b_tail = half * ctx.sqrt(size * (size + ell + ctx.mpf(1) / 2))
    last = size - 1
    j = ctx.mpc(0, 1)
    num = c[last] - j * s[last] + b_tail * corner * (c[last + 1] - j * s[last + 1])
    den = c[last] + j * s[last] + b_tail * corner * (c[last + 1] + j * s[last + 1])
    return complex(num / den)

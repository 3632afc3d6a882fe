#!/usr/bin/env python3
"""Reference (free) problem: tridiagonal Hamiltonian and its two solutions.

Shows that the closed-form sine-like coefficients and the seeded cosine-like
coefficients satisfy the three-term recursion, and that their tapered
resummation reproduces the exact regular and irregular radial waves.
"""

import math

import numpy as np
from scipy.special import jv, yv

from jmnl import BasisParams, basis_function, cosine_coefficients, h0_matrix, sine_coefficients

basis = BasisParams(lam=1.0, ell=1)
energy = 0.8
k = math.sqrt(2 * energy)


def resummed(coefficients: np.ndarray, r: float) -> float:
    """sum_n coefficients[n] phi_n(r) with unit weight on the first half, cos^2 roll-off on the second."""
    count = len(coefficients)
    n = np.arange(count)
    half = count // 2
    taper = np.where(n < half, 1.0, np.cos(0.5 * math.pi * (n - half) / (count - half)) ** 2)
    phi = np.array([basis_function(m, r, basis) for m in range(count)])
    return float(np.dot(coefficients * taper, phi))


print("== tridiagonal free Hamiltonian (ell=1, lam=1)")
h0 = h0_matrix(basis, 2)
print("   a_0 =", h0[0, 0], "  b_0 =", h0[0, 1])

s = sine_coefficients(energy, basis, 12)
c = cosine_coefficients(energy, basis, 12)
print("\n== leading coefficients at E =", energy)
print("   s_0..s_3:", np.array2string(s[:4], precision=6))
print("   c_0..c_3:", np.array2string(c[:4], precision=6))
print("   independence s_0 c_1 - s_1 c_0 =", f"{s[0] * c[1] - s[1] * c[0]:+.6f}")

print("\n== regular wave: tapered resummation vs sqrt(2kr) J_{l+1/2}(kr)")
r = 2.0
exact = math.sqrt(2 * k * r) * jv(basis.ell + 0.5, k * r)
print(f"   psi_reg(E={energy}, r={r}) = {exact:+.8f}")
for count in (20, 40, 80):
    res = abs(resummed(sine_coefficients(energy, basis, count), r) - exact) / abs(exact)
    print(f"   count={count:3d}: relative residual {res:.2e}")

print("\n== irregular wave: resummed cosine series vs -sqrt(2kr) Y_{l+1/2}(kr)")
c_long = cosine_coefficients(energy, basis, 400)
for r in (4.0, 6.0, 8.0):
    exact = -math.sqrt(2 * k * r) * yv(basis.ell + 0.5, k * r)
    print(f"   r={r}: resummed {resummed(c_long, r):+.6f}   exact {exact:+.6f}")

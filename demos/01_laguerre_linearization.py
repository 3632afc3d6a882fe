#!/usr/bin/env python3
"""Walk through the orthonormal Laguerre toolkit.

Covers: normalized polynomial evaluation, Gauss quadrature built from the
Jacobi matrix, and the product-linearization table that expands
Lt_i(z)^2 * Lt_n(z) back over the family.
"""

import numpy as np

from jmnl import gauss_laguerre_rule, jacobi_matrix, linearization_table
from jmnl.orthopoly import laguerre_orthonormal_sequence

nu = 1.5

print("== orthonormal Laguerre family, weight z^nu e^-z with nu =", nu)
values = laguerre_orthonormal_sequence(4, nu, 2.0)
for n in (0, 1, 4):
    print(f"   Lt_{n}(2.0) = {values[n]:+.12f}")

print("\n== Gauss rule from the Jacobi matrix (Golub-Welsch)")
nodes, weights = gauss_laguerre_rule(12, nu)
print(f"   12-point rule, zeroth moment  = {weights.sum():.12f}  (Gamma(nu+1))")
vals = laguerre_orthonormal_sequence(5, nu, nodes)
gram = (vals * weights) @ vals.T
print(f"   orthonormality defect on degrees <= 5: {np.abs(gram - np.eye(6)).max():.2e}")

print("\n== Jacobi matrix: tridiagonal, symmetric, positive definite")
jac = jacobi_matrix(nu, 8)
print("   diagonal      :", np.array2string(np.diag(jac), precision=3))
print("   off-diagonal  :", np.array2string(np.diag(jac, 1), precision=3))
print("   min eigenvalue:", f"{np.linalg.eigvalsh(jac)[0]:.6f}")

print("\n== product linearization: Lt_i^2 Lt_n = sum_m D[i,n,m] Lt_m")
# i < 4 and n + 2i <= 5 + 6: every m the identity below needs
entries, _ = linearization_table(4, 12, nu)
print("   D[2, 4, :9] =", np.array2string(entries[2, 4, :9], precision=5))
print("   band check: entries vanish exactly for |n-m| > 2i ->",
      bool(np.all(entries[2][np.abs(np.subtract.outer(range(12), range(12))) > 4] == 0)))
i, n = 3, 5
for point in (0.7, 5.0, 19.0):
    lt = laguerre_orthonormal_sequence(11, nu, point)
    lhs = lt[i] ** 2 * lt[n]
    res = abs(lhs - entries[i, n] @ lt) / max(1.0, abs(lhs))
    print(f"   pointwise identity residual of Lt_{i}^2 Lt_{n} at z={point:<5}: {res:.2e}")

"""Measure how far jmnl sits from the mpmath oracle, to justify the tolerances.

    python3 bench/agreement.py

Prints, for each (nu, N, K), the worst entrywise Lambda deviation relative
to sqrt(Lambda[n,n] Lambda[m,m]) and the worst |S - S_oracle| over six
energies.  workloads.LAMBDA_TOL and workloads.S_TOL are set well above the
worst values printed here.  Takes about 10 s.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from jmnl import nonlinear, scattering  # noqa: E402

CASES = ((1.0, 20, 8), (4.0, 20, 8), (7.0, 20, 8), (0.37, 16, 4), (5.5, 24, 10),
         (2.2, 32, 8), (0.01, 40, 8), (7.9, 48, 8))
ENERGIES = (0.5, 1.3, 2.77, 3.6, 4.9, 6.0)


def main() -> None:
    worst_lambda = worst_s = 0.0
    for nu, size, terms in CASES:
        config = workloads.model_config(nu, size, terms)
        exact = oracle.lambda_oracle(nu, size, terms)
        ref = np.array([[float(x) for x in row] for row in exact])
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        d_lambda = float(np.max(np.abs(nonlinear.lambda_matrix(config).entries - ref) / scale))
        model = oracle.Model(lam=5.0, ell=1, g=2.0, nu=nu, size=size, terms=terms)
        d_s = max(
            abs(scattering.s_matrix(e, config).s_value - oracle.s_oracle(e, model, exact))
            for e in ENERGIES
        )
        worst_lambda, worst_s = max(worst_lambda, d_lambda), max(worst_s, d_s)
        print(f"nu={nu:<5} N={size:<3} K={terms:<3} Lambda {d_lambda:.2e}  S {d_s:.2e}")
    print(f"worst: Lambda {worst_lambda:.2e} (tolerance {workloads.LAMBDA_TOL:.0e}), "
          f"S {worst_s:.2e} (tolerance {workloads.S_TOL:.0e})")


if __name__ == "__main__":
    main()

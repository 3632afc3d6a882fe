"""The three benchmark workloads and the checks on their outputs.

Each workload generates its inputs from the seed in ``__init__``;
``warm_up()`` runs the one untimed warm-up operation.  Operations come in
whole rounds: ``inputs(round_index)`` lists a round's inputs, ``call(x)`` is
the timed call into the program, ``check(x, out)`` verifies one output, and
``final_check()`` runs the slower oracle comparisons after the timed window.
``kind(x)`` names the class of input whose operation times are alike.
A failed check raises ``CheckError``.

Calls go through module attributes at call time (``scattering.s_matrix``,
``cli.main``, ``cli.validate``) so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

from jmnl import cli, nonlinear, scattering
from jmnl.nonlinear import ModelConfig
from jmnl.reference import BasisParams

EPS = float(np.finfo(float).eps)
# |S| is a ratio of complex conjugates: it is 1 to a few rounding errors
UNITARITY_TOL = 16 * EPS
# delta and |1 - S| are one library call each on S; allow a few ulps
DERIVED_TOL = 4 * EPS
# measured worst |S - S_oracle| is 7e-14 over 48 points (nu 0.01..7.9, N 16..48)
S_TOL = 1e-12
# measured worst |dLambda[n,m]| / sqrt(Lambda[n,n] Lambda[m,m]) is 3.2e-15
LAMBDA_TOL = 1e-13

PAPER = dict(lam=5.0, ell=1, g=2.0)
PAPER_NUS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
PAPER_SIZE, PAPER_TERMS = 20, 8
E_MIN, E_MAX, STEPS = 0.5, 6.0, 551
# (N, K) pairs on which the positivity certificate holds for every nu in [0, 8)
SWEEP_PAIRS = ((16, 4), (20, 8), (24, 10), (32, 8), (40, 8), (48, 8))
SWEEP_NU = (0.0, 8.0)
POOL = 1024
ORACLE_SAMPLES = 6

PAPER_CONFIG = f"""\
ell = {PAPER['ell']}
g = {PAPER['g']}
lambda = {PAPER['lam']}
nu_list = {', '.join(f'{nu:g}' for nu in PAPER_NUS)}
N = {PAPER_SIZE}
K = {PAPER_TERMS}
weight = resonance
e_min = {E_MIN}
e_max = {E_MAX}
steps = {STEPS}
"""


class CheckError(AssertionError):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def model_config(nu: float, size: int = PAPER_SIZE, terms: int = PAPER_TERMS) -> ModelConfig:
    return ModelConfig(
        basis=BasisParams(lam=PAPER["lam"], ell=PAPER["ell"]),
        g=PAPER["g"],
        nu=nu,
        size=size,
        terms=terms,
    )


def check_s(energy: float, s_value: complex, delta: float, amplitude: float) -> None:
    """Unitarity, delta = arg(S)/2 and amplitude = |1 - S| for one point."""
    require(abs(abs(s_value) - 1.0) <= UNITARITY_TOL, f"|S| = {abs(s_value)!r} at E={energy}")
    expected_delta = math.atan2(s_value.imag, s_value.real) / 2.0
    require(
        abs(delta - expected_delta) <= DERIVED_TOL,
        f"delta {delta!r} != arg(S)/2 = {expected_delta!r} at E={energy}",
    )
    require(
        abs(amplitude - abs(1.0 - s_value)) <= DERIVED_TOL,
        f"amplitude {amplitude!r} != |1 - S| at E={energy}",
    )


def check_lambda(entries: np.ndarray, nu: float, size: int, terms: int):
    """Compare a coupling matrix with the oracle; return the oracle matrix."""
    import oracle  # mpmath is imported on first use, outside setup_s
    exact = oracle.lambda_oracle(nu, size, terms)
    ref = np.array([[float(x) for x in row] for row in exact])
    require(entries.shape == ref.shape, f"Lambda shape {entries.shape} != {ref.shape}")
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
    worst = float(np.max(np.abs(entries - ref) / scale))
    require(worst <= LAMBDA_TOL, f"Lambda off the oracle by {worst:.3e} (nu={nu}, N={size}, K={terms})")
    return exact


def check_against_oracle(points, lambdas) -> None:
    """points: (config, energy, s_value); lambdas: config -> Lambda entries."""
    import oracle
    exact = {}
    for config, entries in lambdas.items():
        exact[config] = check_lambda(entries, config.nu, config.size, config.terms)
    for config, energy, s_value in points:
        model = oracle.Model(
            lam=config.basis.lam,
            ell=config.basis.ell,
            g=config.g,
            nu=config.nu,
            size=config.size,
            terms=config.terms,
        )
        expected = oracle.s_oracle(energy, model, exact[config])
        miss = abs(s_value - expected)
        require(miss <= S_TOL, f"S off the oracle by {miss:.3e} at nu={config.nu}, E={energy}")


def check_scan_csv(text: str, rng: np.random.Generator):
    """Full check of the paper scan's CSV; returns oracle sample points."""
    lines = text.split("\n")
    require(lines[-1] == "", "CSV does not end with a newline")
    require(lines[0] == cli.CSV_HEADER, f"CSV header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:-1]]
    grid = np.linspace(E_MIN, E_MAX, STEPS)
    require(len(rows) == len(PAPER_NUS) * STEPS, f"{len(rows)} CSV rows, expected {len(PAPER_NUS) * STEPS}")
    points = []
    for index, row in enumerate(rows):
        nu, energy = PAPER_NUS[index // STEPS], float(grid[index % STEPS])
        require(len(row) == 7 and row[6] == "ok", f"row {index + 1} is {row!r}")
        require(
            float(row[0]) == nu and float(row[1]) == energy,
            f"row {index + 1} is at (nu, E) = ({row[0]}, {row[1]}), expected ({nu!r}, {energy!r})",
        )
        s_value = complex(float(row[2]), float(row[3]))
        check_s(energy, s_value, float(row[4]), float(row[5]))
        points.append((nu, energy, s_value))
    sample = rng.choice(len(points), size=ORACLE_SAMPLES, replace=False)
    return [points[i] for i in sorted(sample)]


class PaperScan:
    """`jmnl scan` through cli.main on the paper's config, CSV to a file.

    Every scan writes a new file, removed after its check: rewriting one file
    in place would time the file system (ext4 flushes a truncated and
    rewritten file on close, ~70 ms).
    """

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "paper_scan.cfg")
        with open(self.config_path, "w", encoding="utf-8") as handle:
            handle.write(PAPER_CONFIG)
        self.reference = None
        self.sample = []

    def warm_up(self) -> None:
        path = os.path.join(self.workdir, "scan-warm-up.csv")
        data = self.check(path, self.call(path))
        self.sample = check_scan_csv(data.decode(), self.rng)
        self.reference = data

    def inputs(self, round_index: int):
        return [os.path.join(self.workdir, f"scan-{round_index}.csv")]

    def kind(self, x):
        return None

    def call(self, csv_path):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = cli.main(["scan", "--config", self.config_path, "--out", csv_path])
        return code, sink.getvalue()

    def check(self, csv_path, out):
        code, message = out
        rows = len(PAPER_NUS) * STEPS
        require(code == 0, f"jmnl scan exited with {code}")
        require(
            message == f"wrote {rows} rows to {csv_path} (0 pole-flagged)\n",
            f"jmnl scan said {message!r}",
        )
        with open(csv_path, "rb") as handle:
            data = handle.read()
        os.unlink(csv_path)
        if self.reference is not None:
            require(data == self.reference, "CSV bytes differ from the run's first scan")
        return data

    def final_check(self) -> None:
        configs = {nu: model_config(nu) for nu, _, _ in self.sample}
        check_against_oracle(
            [(configs[nu], energy, s_value) for nu, energy, s_value in self.sample],
            {config: nonlinear.lambda_matrix(config).entries for config in configs.values()},
        )


class PointQueries:
    """One scattering.s_matrix(E, config) call at a seeded (nu, E), Lambda warm."""

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.configs = {nu: model_config(nu) for nu in PAPER_NUS}
        nus = rng.integers(1, len(PAPER_NUS) + 1, size=POOL).astype(float)
        energies = rng.uniform(E_MIN, E_MAX, size=POOL)
        self.pool = [(i, self.configs[nu], float(e)) for i, (nu, e) in enumerate(zip(nus, energies))]
        self.first = [None] * POOL
        self.sample = sorted(rng.choice(POOL, size=ORACLE_SAMPLES, replace=False))

    def warm_up(self) -> None:
        for config in self.configs.values():
            nonlinear.lambda_matrix(config)
        warm = self.pool[0]
        self.check(warm, self.call(warm))

    def inputs(self, round_index: int):
        return self.pool

    def kind(self, x):
        return None

    def call(self, x):
        _, config, energy = x
        return scattering.s_matrix(energy, config)

    def check(self, x, point):
        index, _, energy = x
        require(point.energy == energy, f"point at E={point.energy}, asked for {energy}")
        seen = self.first[index]
        if seen is None:
            check_s(energy, point.s_value, point.delta, point.amplitude)
            self.first[index] = point
        else:
            require(point == seen, f"S at pool entry {index} changed between rounds")

    def final_check(self) -> None:
        points = [(self.pool[i][1], self.pool[i][2], self.first[i].s_value) for i in self.sample]
        check_against_oracle(
            points, {config: nonlinear.lambda_matrix(config).entries for config, _, _ in points}
        )


class ValidateSweep:
    """One cli.validate(config) call on a fresh config: Lambda is never cached."""

    # validate's own default grid; one of its energies is checked against the oracle
    energy = float(np.linspace(0.6, 5.9, 8)[3])

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.sample = set(int(i) for i in self.rng.choice(len(SWEEP_PAIRS), size=2, replace=False))
        self.kept = []
        self.count = -1  # the warm-up operation is not sampled

    def warm_up(self) -> None:
        warm = self.inputs(-1)[0]
        self.check(warm, self.call(warm))

    def inputs(self, round_index: int):
        return [
            model_config(float(self.rng.uniform(*SWEEP_NU)), size, terms)
            for size, terms in SWEEP_PAIRS
        ]

    def kind(self, config):
        return config.size, config.terms

    def call(self, config):
        return cli.validate(config)

    def check(self, config, report):
        index, self.count = self.count, self.count + 1
        failed = [f"{c.name}: {c.detail}" for c in report.checks if not c.passed]
        require(report.passed, f"validate failed at nu={config.nu}, N={config.size}: {failed}")
        lam = nonlinear.lambda_matrix(config)
        check_lambda_bound(lam, config.nu)
        if index in self.sample:
            point = scattering.s_matrix(self.energy, config)
            self.kept.append((config, lam.entries, point.s_value))

    def final_check(self) -> None:
        check_against_oracle(
            [(config, self.energy, s_value) for config, _, s_value in self.kept],
            {config: entries for config, entries, _ in self.kept},
        )


def check_lambda_bound(lam, nu: float) -> None:
    """lambda_min >= 1/Gamma(nu+1), the Lt_0(J)^T Lt_0(J) term of the sum.

    The certificate's singular value carries an absolute error of order
    eps * sigma_max, bounded here by 16 eps times the factor's Frobenius norm.
    """
    gamma = math.gamma(nu + 1.0)
    slack = 16 * EPS * float(np.linalg.norm(lam.factor)) * math.sqrt(gamma)
    value = lam.min_eigenvalue * gamma
    require(
        value >= (1.0 - slack) ** 2,
        f"lambda_min * Gamma(nu+1) = {value:.6g} below 1 (nu={nu}, N={lam.size})",
    )


WORKLOADS = {
    "paper-scan": PaperScan,
    "point-queries": PointQueries,
    "validate-sweep": ValidateSweep,
}

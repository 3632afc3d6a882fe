"""Command line front end: resonance scans to CSV and config self-checks.

Two subcommands:

* ``jmnl scan --config FILE [--out FILE]`` runs an energy scan for every
  requested ansatz parameter and writes one CSV row per (nu, E) pair.
* ``jmnl validate --config FILE`` runs the internal consistency suites
  (coupling-matrix positivity, whitening identity, three-route Green's
  agreement, unitarity, recursion residuals) at the configured parameters.

Config files are flat ``key = value`` text with ``#`` comments.  Keys:
ell, g, lambda, nu (or nu_list), N, K, weight, e_min, e_max, steps, out.

Exit codes: 0 success, 1 validation or check failure, 2 usage error,
3 numerical failure (an uncaught numerical error, or a scan in which no row
is ``ok``).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .nonlinear import ModelConfig, PositivityCertificateError, lambda_matrix, omega_transform, wave_operator
from .reference import BasisParams, RecurrenceOverflowError, cosine_coefficients, sine_coefficients
from .scattering import (
    DegenerateEnergyError,
    PoleError,
    _scatter,
    green_corner_determinant,
    green_corner_direct,
    green_corner_spectral,
)

__all__ = [
    "ScanRequest",
    "ScanColumns",
    "ConfigError",
    "load_scan_request",
    "run_scan",
    "format_csv",
    "validate",
    "main",
]

CSV_HEADER = "nu,E,re_S,im_S,delta,amplitude,status"

_EPS = float(np.finfo(float).eps)


class ConfigError(ValueError):
    """Config file rejected; message carries the offending line."""


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


_KEYS = {
    "ell",
    "g",
    "lambda",
    "nu",
    "nu_list",
    "N",
    "K",
    "weight",
    "e_min",
    "e_max",
    "steps",
    "out",
}
_REQUIRED = {"ell", "g", "lambda", "N", "K", "e_min", "e_max", "steps"}


def _parse_pairs(text: str):
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        pairs[key] = (value, lineno)
    return pairs


def _convert(pairs, key, caster, kind):
    value, lineno = pairs[key]
    try:
        return caster(value)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {key} must be {kind} (got {value!r})") from exc


def load_scan_request(path: str, output_override: str | None = None) -> ScanRequest:
    """Parse and validate a scan config file."""
    with open(path, "r", encoding="utf-8") as handle:
        pairs = _parse_pairs(handle.read())
    missing = sorted(_REQUIRED - pairs.keys())
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    if "nu" not in pairs and "nu_list" not in pairs:
        raise ConfigError("one of 'nu' or 'nu_list' is required")
    if "nu" in pairs and "nu_list" in pairs:
        raise ConfigError("give only one of 'nu' and 'nu_list'")

    ell = _convert(pairs, "ell", int, "an integer")
    lam = _convert(pairs, "lambda", float, "a number")
    g = _convert(pairs, "g", float, "a number")
    size = _convert(pairs, "N", int, "an integer")
    terms = _convert(pairs, "K", int, "an integer")
    e_min = _convert(pairs, "e_min", float, "a number")
    e_max = _convert(pairs, "e_max", float, "a number")
    steps = _convert(pairs, "steps", int, "an integer")
    if "nu" in pairs:
        nu_values = (_convert(pairs, "nu", float, "a number"),)
    else:
        raw, lineno = pairs["nu_list"]
        try:
            nu_values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: nu_list must be comma-separated numbers") from exc
        if not nu_values:
            raise ConfigError(f"line {lineno}: nu_list is empty")
    weight_choice = pairs["weight"][0] if "weight" in pairs else "resonance"
    out = output_override if output_override is not None else (
        pairs["out"][0] if "out" in pairs else None
    )

    try:
        basis = BasisParams(lam=lam, ell=ell)
        request = ScanRequest(
            basis=basis,
            g=g,
            size=size,
            terms=terms,
            weight_choice=weight_choice,
            nu_list=nu_values,
            e_min=e_min,
            e_max=e_max,
            steps=steps,
            output_path=out,
        )
        for nu in nu_values:
            request.config_for(nu)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return request


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
    s_value, delta, amplitude, errors = zip(*_scatter(energies, configs))
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

    Distinct nu values ascend.  Within one, the grid is walked in ascending
    order; at each run of equal energies, the configs with that nu follow
    the nu list, each over the run's grid positions in order.
    """
    order = np.argsort(grid, kind="stable")
    starts = np.flatnonzero(np.r_[True, grid[order][1:] != grid[order][:-1]])
    sizes = np.diff(np.r_[starts, len(grid)])
    k_parts, j_parts = [], []
    for nu in sorted(set(nu_list)):
        same = np.array([k for k, value in enumerate(nu_list) if value == nu])
        # rows of one run: len(same) configs x run size positions, config-major
        run_rows = len(same) * sizes
        run = np.repeat(np.arange(len(sizes)), run_rows)
        offset = np.arange(run_rows.sum()) - np.repeat(np.cumsum(run_rows) - run_rows, run_rows)
        k_parts.append(same[offset // sizes[run]])
        j_parts.append(order[starts[run] + offset % sizes[run]])
    return np.concatenate(k_parts), np.concatenate(j_parts)


def _status_summary(statuses, suffix: str) -> str:
    counts = Counter(status for status in statuses if status != "ok")
    summary = ", ".join(f"{n} {status}-{suffix}" for status, n in sorted(counts.items()))
    return summary or f"0 pole-{suffix}"


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


def _three_route_tolerance(eigenvalues: np.ndarray, energy: float) -> float:
    # route agreement saturates at eps * (spectral radius / gap); strongly
    # graded coupling matrices (condition up to ~1e17) push it above 1e-8
    gap = float(np.min(np.abs(eigenvalues - energy)))
    radius = float(np.max(np.abs(eigenvalues)))
    return max(1e-8, 1024.0 * _EPS * radius / gap)


def validate(config: ModelConfig, energies: np.ndarray | None = None) -> ValidationReport:
    """Run the internal consistency suites at one configuration."""
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
    worst_unit = 0.0
    skipped = []
    # S first, in one kernel call: its pole guard skips an energy on a spectral point
    ((s_values, _, _, errors),) = _scatter(energies, [config])
    for energy, s_value, error in zip(energies, s_values.tolist(), errors):
        if error is not None:
            skipped.append(_status(error))
            continue
        try:
            matrix = wave_operator(energy, config)
            hamiltonian = matrix + energy * np.eye(config.size)
            tol = _three_route_tolerance(np.linalg.eigvalsh(hamiltonian), energy)
            direct = green_corner_direct(matrix, energy)
            spectral = green_corner_spectral(hamiltonian, energy)
            det_route = green_corner_determinant(hamiltonian, energy)
        except ArithmeticError as exc:
            skipped.append(_status(exc))
            continue
        scale = abs(direct)
        spread = max(abs(direct - spectral), abs(direct - det_route), abs(spectral - det_route))
        worst_route = max(worst_route, spread / scale / tol)
        worst_unit = max(worst_unit, abs(abs(s_value) - 1.0))
    checked = len(energies) - len(skipped)
    report.add(
        "green-three-route",
        checked > 0 and worst_route <= 1.0,
        f"worst spread {worst_route:.3f} of the conditioning-aware tolerance "
        f"({checked} checked, {_status_summary(skipped, 'skipped')})",
    )
    report.add("unitarity", worst_unit < 1e-10, f"worst ||S|-1| = {worst_unit:.3e}")

    worst_sine = 0.0
    worst_cosine = 0.0
    skipped = []
    for energy in energies[:4]:
        try:
            sine = _recursion_residual(energy, config, "sine")
            cosine = _recursion_residual(energy, config, "cosine")
        except ArithmeticError as exc:
            skipped.append(_status(exc))
            continue
        worst_sine = max(worst_sine, sine)
        worst_cosine = max(worst_cosine, cosine)
    checked = len(energies[:4]) - len(skipped)
    report.add(
        "recursion-residual",
        checked > 0 and worst_sine < 1e-8 and worst_cosine < 1e-8,
        f"sine {worst_sine:.3e}, cosine {worst_cosine:.3e} "
        f"({checked} checked, {_status_summary(skipped, 'skipped')})",
    )
    return report


def _recursion_residual(energy: float, config: ModelConfig, kind: str) -> float:
    basis = config.basis
    count = config.size + 1
    coefficients = sine_coefficients if kind == "sine" else cosine_coefficients
    values = coefficients(energy, basis, count)
    mu2 = 2.0 * energy / basis.lam**2
    ell = basis.ell
    scale = float(np.max(np.abs(values)))
    worst = 0.0
    for n in range(1, count - 1):
        lhs = mu2 * values[n]
        rhs = (
            (2 * n + ell + 1.5) * values[n]
            + math.sqrt(n * (n + ell + 0.5)) * values[n - 1]
            + math.sqrt((n + 1) * (n + ell + 1.5)) * values[n + 1]
        )
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def _cmd_scan(args) -> int:
    try:
        request = load_scan_request(args.config, output_override=args.out)
        columns = run_scan(request)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    flagged = _status_summary(columns.status, "flagged")
    if "ok" not in columns.status:
        print(f"numerical failure: no grid point is ok ({flagged})", file=sys.stderr)
        return 3
    text = format_csv(columns)
    if request.output_path:
        try:
            with open(request.output_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {len(columns)} rows to {request.output_path} ({flagged})")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate(args) -> int:
    try:
        request = load_scan_request(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    energies = np.linspace(request.e_min, request.e_max, min(request.steps, 8))
    failures = 0
    for nu in request.nu_list:
        report = validate(request.config_for(nu), energies)
        for check in report.checks:
            mark = "ok " if check.passed else "FAIL"
            print(f"[{mark}] nu={nu:g} {check.name}: {check.detail}")
            failures += not check.passed
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="jmnl",
        description="Nonlinear short-range scattering scans in a tridiagonal basis",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="run an energy scan and emit CSV")
    scan.add_argument("--config", required=True, help="path to a key = value config file")
    scan.add_argument("--out", default=None, help="output CSV path (default: config 'out' or stdout)")
    scan.set_defaults(func=_cmd_scan)

    check = sub.add_parser("validate", help="run internal consistency checks")
    check.add_argument("--config", required=True, help="path to a key = value config file")
    check.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, np.linalg.LinAlgError, PositivityCertificateError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

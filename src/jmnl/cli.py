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
    Pencil,
    PoleError,
    _scatter,
    green_corner_determinant,
    green_corner_direct,
    green_corner_spectral,
)

__all__ = [
    "ScanRequest",
    "ScanRow",
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
        if not (0 < self.e_min < self.e_max):
            raise ValueError("need 0 < e_min < e_max")
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


@dataclass(frozen=True)
class ScanRow:
    nu: float
    energy: float
    s_value: complex | None
    delta: float | None
    amplitude: float | None
    status: str


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


def run_scan(request: ScanRequest) -> list[ScanRow]:
    """Evaluate the scattering matrix over the requested (nu, E) grid.

    Rows come back sorted by (nu, E), also for an unsorted or repeated nu
    list.  Points where S cannot be evaluated carry the reason as their
    status (``pole``, ``overflow`` or ``degenerate``) instead of values.
    """
    grid = [float(energy) for energy in request.energy_grid()]
    configs = [request.config_for(nu) for nu in request.nu_list]
    rows = []
    for nu, points in zip(request.nu_list, _scatter(grid, configs)):
        for energy, point in zip(grid, points):
            if isinstance(point, ArithmeticError):
                rows.append(ScanRow(nu, energy, None, None, None, _status(point)))
            else:
                rows.append(ScanRow(nu, energy, point.s_value, point.delta, point.amplitude, "ok"))
    return sorted(rows, key=lambda row: (row.nu, row.energy))


def _status_summary(statuses, suffix: str) -> str:
    counts = Counter(status for status in statuses if status != "ok")
    summary = ", ".join(f"{n} {status}-{suffix}" for status, n in sorted(counts.items()))
    return summary or f"0 pole-{suffix}"


def format_csv(rows: list[ScanRow]) -> str:
    """Deterministic CSV text (17 significant digits, fixed column order)."""
    lines = [CSV_HEADER]
    for row in rows:
        if row.status == "ok":
            s_value = row.s_value
            lines.append(
                "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,ok"
                % (row.nu, row.energy, s_value.real, s_value.imag, row.delta, row.amplitude)
            )
        else:
            lines.append("%.17g,%.17g,,,,,%s" % (row.nu, row.energy, row.status))
    return "\n".join(lines) + "\n"


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
    report.add(
        "lambda-positive",
        lam.min_eigenvalue > 0,
        f"min eigenvalue {lam.min_eigenvalue:.6e}",
    )

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
    for energy, point in zip(energies, *_scatter(energies, [config])):
        if isinstance(point, ArithmeticError):
            skipped.append(_status(point))
            continue
        try:
            matrix = wave_operator(energy, config)
            hamiltonian = matrix + energy * np.eye(config.size)
            tol = _three_route_tolerance(np.linalg.eigvalsh(hamiltonian), energy)
            pencil = Pencil(a=hamiltonian, b=np.eye(config.size), label="wave operator")
            direct = green_corner_direct(matrix, energy)
            spectral = green_corner_spectral(pencil, energy)
            det_route = green_corner_determinant(pencil, energy)
        except ArithmeticError as exc:
            skipped.append(_status(exc))
            continue
        scale = abs(direct)
        spread = max(abs(direct - spectral), abs(direct - det_route), abs(spectral - det_route))
        worst_route = max(worst_route, spread / scale / tol)
        worst_unit = max(worst_unit, abs(abs(point.s_value) - 1.0))
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
    if kind == "sine":
        values = sine_coefficients(energy, basis, count).values
    else:
        values = cosine_coefficients(energy, basis, count).values
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
        rows = run_scan(request)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    flagged = _status_summary((row.status for row in rows), "flagged")
    if all(row.status != "ok" for row in rows):
        print(f"numerical failure: no grid point is ok ({flagged})", file=sys.stderr)
        return 3
    text = format_csv(rows)
    if request.output_path:
        try:
            with open(request.output_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {len(rows)} rows to {request.output_path} ({flagged})")
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

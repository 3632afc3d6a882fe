"""Command line front end: parses arguments and config files, and runs the library.

Two subcommands:

* ``jmnl scan --config FILE [--out FILE]`` runs :func:`jmnl.scattering.run_scan`
  for every requested ansatz parameter and writes one CSV row per (nu, E)
  pair with :func:`jmnl.scattering.format_csv`.
* ``jmnl validate --config FILE`` runs :func:`jmnl.scattering.validate`
  (coupling-matrix bound, whitening identity, the scan kernel's own Green's
  corner against two other routes, the free sequences' Casoratian) at the
  configured parameters.

Config files are flat ``key = value`` text with ``#`` comments.  Keys:
ell, g, lambda, nu (or nu_list), N, K, weight, e_min, e_max, steps, out.

Exit codes: 0 success, 1 validation or check failure, a config error or an
i/o error, 2 usage error, 3 numerical failure (an uncaught numerical error,
or a scan in which no row is ``ok``).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .nonlinear import PositivityCertificateError
from .reference import BasisParams
from .scattering import CSV_HEADER, ScanRequest, format_csv, run_scan, status_summary, validate

__all__ = [
    "ConfigError",
    "load_scan_request",
    "main",
    # the library's scan and checks, as the command line runs them
    "CSV_HEADER",
    "run_scan",
    "format_csv",
    "validate",
]


class ConfigError(ValueError):
    """Config file rejected; message carries the offending line."""


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


def _cmd_scan(args) -> int:
    request = load_scan_request(args.config, output_override=args.out)
    columns = run_scan(request)
    flagged = status_summary(columns.status, "flagged")
    if "ok" not in columns.status:
        print(f"numerical failure: no grid point is ok ({flagged})", file=sys.stderr)
        return 3
    text = format_csv(columns)
    if request.output_path:
        with open(request.output_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        print(f"wrote {len(columns)} rows to {request.output_path} ({flagged})")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate(args) -> int:
    request = load_scan_request(args.config)
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
        description="Nonlinear scattering scans in a tridiagonal basis",
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
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout pipe fails here rather than in the exit flush
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # what stdout still buffers cannot reach the reader: drop it, or the exit flush fails again
            sys.stdout = open(os.devnull, "w")
        return 1
    except (ArithmeticError, np.linalg.LinAlgError, PositivityCertificateError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

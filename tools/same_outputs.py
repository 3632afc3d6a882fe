"""SHA-256 digests of the outputs of the jmnl on ``sys.path``.

A change that is meant to keep every output bit for bit is checked by
running this script on the tree before and on the tree after it, and
comparing the two listings line by line:

    PYTHONPATH=src python tools/same_outputs.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python tools/same_outputs.py > before.txt
    diff before.txt after.txt

The digests compare only the two trees on one machine with one BLAS
kernel.  numpy's OpenBLAS picks its kernels by CPU, or by the
``OPENBLAS_CORETYPE`` environment variable, and another kernel rounds the
products differently: most scan rows and many digests change, with no
status or check verdict moving.  So both listings must come from the same
machine, numpy and ``OPENBLAS_CORETYPE``.  The first line names them,
``blas OPENBLAS_CORETYPE=<value or unset> <BLAS name> <BLAS version>``, so a
diff across kernels shows as such.

Then one line per digest, ``name count sha256``:

* ``scan:<grid>``: the CSV bytes of each of 15 scan grids (the paper grid,
  extreme couplings, ``lambda = 1`` above and across the free spectrum, an
  unsorted repeated nu list, the sine weight, ``N = 48``, ``ell = 0`` and a
  wide energy range), parsed from config text as ``jmnl scan`` parses it; a
  grid that raises digests its error's type and message instead;
* ``validate:<group>``: the text of each ``validate`` report of a seeded
  corpus: the 7 paper nu, 350 draws of nu in [0, 8) for each of the six
  ``(N, K)`` pairs of the benchmark's validate sweep, and ``lambda = 1``
  configs with g from 0 to +-1e300 on two energy lists;
* ``messages``: the type, text and cause type of the error ``s_matrix``
  raises at every reason a natural input reaches: an energy that is not
  positive, a weight or a wave operator that is not finite, a pole, a
  vanishing denominator, or free sequences beyond their range (a singular
  solve or a residual above its bound needs a planted matrix);
* ``free``: the bytes of each call of a seeded corpus of the free problem's
  functions, ``jacobi_matrix``, ``laguerre_orthonormal_sequence`` (scalar and
  array z), ``h0_matrix``, ``sine_coefficients``, ``cosine_coefficients`` and
  ``basis_function``, or the error text of a call that raises;
* ``lambda``: the bytes of both arrays of ``linearization_table`` and of the
  ``entries``, ``factor``, ``singular``, ``v_t`` and ``row_sums`` of
  ``lambda_matrix``, or the text of its certificate's error, at each distinct
  ``(nu, K, N)`` of the validate corpus and at a seeded draw of nu in
  (-1, 313), K 1-16 and N up to 64, which reaches subnormal factors and
  failed certificates.

It reads only public names, so one copy of this script digests any tree.
The full corpus takes about 15 s.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

import numpy as np

from jmnl import orthopoly, reference
from jmnl.cli import load_scan_request
from jmnl.nonlinear import ModelConfig, lambda_matrix
from jmnl.reference import BasisParams, h0_matrix
from jmnl.scattering import format_csv, run_scan, s_matrix, validate

PAPER_SCAN = {
    "ell": "1",
    "g": "2",
    "lambda": "5",
    "nu_list": "1, 2, 3, 4, 5, 6, 7",
    "N": "20",
    "K": "8",
    "weight": "resonance",
    "e_min": "0.5",
    "e_max": "6.0",
    "steps": "551",
}

#: each grid's keys that differ from the paper scan
GRIDS = {
    "paper": {},
    "g=0": {"g": "0"},
    "g=-2": {"g": "-2"},
    "g=2e-3": {"g": "2e-3"},
    "g=3e292": {"g": "3e292"},
    "g=1e300": {"g": "1e300"},
    "g=1e308": {"g": "1e308"},
    "g=-1e300": {"g": "-1e300"},
    "lambda=1,E=40-90": {"lambda": "1", "e_min": "40", "e_max": "90"},
    "lambda=1,g=0,E=0.5-90": {"lambda": "1", "g": "0", "e_max": "90"},
    "nu_list=3,1,3": {"nu_list": "3, 1, 3"},
    "weight=sine": {"weight": "sine"},
    "N=48": {"nu_list": "1.3941544542304376", "N": "48"},
    "ell=0": {"ell": "0"},
    "e_max=1e6": {"e_max": "1e6"},
}

PAPER_BASIS = BasisParams(lam=5.0, ell=1)
LAMBDA_ONE = BasisParams(lam=1.0, ell=1)
SWEEP_PAIRS = ((16, 4), (20, 8), (24, 10), (32, 8), (40, 8), (48, 8))
SWEEP_DRAWS = 350
#: below, across and above the free spectrum at lambda = 1, with an energy whose sequences overflow
LAMBDA_ONE_ENERGIES = (20.0, 30.0, 40.0, 42.5, 50.0, 60.0, 1e300)
COUPLINGS = (0.0, *(sign * g for g in (1e-3, 2.0, 1e3, 1e30, 1e100, 1e300) for sign in (1.0, -1.0)))
#: (basis, g, nu, energy) of s_matrix calls, most of which raise: not positive, a weight
#: and a wave operator that are not finite, on a free eigenvalue (g = 0), a vanishing
#: denominator, overflowing free sequences
MESSAGE_POINTS = (
    [(PAPER_BASIS, 2.0, 1.0, energy) for energy in (0.0, -1.0)]
    + [(BasisParams(lam=1e-300, ell=1), 2.0, 1.0, 3.0), (PAPER_BASIS, 1e308, 1.0, 3.0)]
    + [(LAMBDA_ONE, 0.0, 1.0, energy) for energy in np.linalg.eigvalsh(h0_matrix(LAMBDA_ONE, 20))[:4].tolist()]
    + [(LAMBDA_ONE, 2.0, 1.0, energy) for energy in (*LAMBDA_ONE_ENERGIES, 350.0, 360.0, 1e15, 1e17)]
)

#: scales and energies of the free corpus: mu^2 from about 1e-201 to 2e9, so sine
#: coefficients underflow and the sine, the cosine seed and the cosine recursion overflow
FREE_SCALES = (1e-3, 0.37, 1.0, 5.0, 1e100)
FREE_ENERGIES = (0.05, 0.5, 2.0, 42.5, 350.0, 1e3)
FREE_DRAWS = 400
LAMBDA_DRAWS = 400
#: module of each public free-problem function the ``free`` line digests
FREE_MODULES = {
    "jacobi_matrix": orthopoly,
    "laguerre_orthonormal_sequence": orthopoly,
    "h0_matrix": reference,
    "sine_coefficients": reference,
    "cosine_coefficients": reference,
    "basis_function": reference,
}


def scan_text(changes: dict[str, str]) -> str:
    """Config text of the paper scan with ``changes`` applied."""
    return "".join(f"{key} = {value}\n" for key, value in {**PAPER_SCAN, **changes}.items())


def scan_output(text: str) -> bytes:
    """CSV bytes of one scan config, or its error's type and message."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "scan.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        try:
            return format_csv(run_scan(load_scan_request(path))).encode()
        except Exception as exc:  # noqa: BLE001 - the error is the output
            return f"{type(exc).__name__}: {exc}".encode()


def validate_corpus() -> list[tuple[str, ModelConfig, tuple | None]]:
    """(group, config, energies) of every validate report digested; ``None`` is validate's default grid."""
    corpus = [("paper", ModelConfig(PAPER_BASIS, 2.0, float(nu), 20, 8), None) for nu in range(1, 8)]
    for seed, (size, terms) in enumerate(SWEEP_PAIRS):
        for nu in np.random.default_rng(seed).uniform(0.0, 8.0, SWEEP_DRAWS).tolist():
            corpus.append((f"sweep-N{size}-K{terms}", ModelConfig(PAPER_BASIS, 2.0, nu, size, terms), None))
    nus = np.random.default_rng(len(SWEEP_PAIRS)).uniform(0.0, 8.0, len(COUPLINGS)).tolist()
    for g, nu in zip(COUPLINGS, nus):
        for energies in (None, LAMBDA_ONE_ENERGIES):
            corpus.append(("lambda1-g", ModelConfig(LAMBDA_ONE, g, nu, 20, 8), energies))
    return corpus


def report_text(config: ModelConfig, energies) -> str:
    """Every check of one validate report, one line each, or the error it raised."""
    try:
        report = validate(config, None if energies is None else np.array(energies))
    except Exception as exc:  # noqa: BLE001 - the error is the output
        return f"{type(exc).__name__}: {exc}\n"
    return "".join(f"{c.name} {c.passed} {c.detail}\n" for c in report.checks)


def message_text(basis: BasisParams, g: float, nu: float, energy: float) -> str:
    """The outcome of one s_matrix call: its error's type and message, and its cause's type if any, or its values."""
    try:
        point = s_matrix(energy, ModelConfig(basis, g, nu, 20, 8))
    except Exception as exc:  # noqa: BLE001 - the error is the output
        cause = "" if exc.__cause__ is None else f" (caused by {type(exc.__cause__).__name__})"
        return f"{type(exc).__name__}: {exc}{cause}\n"
    return f"{point.s_value!r} {point.delta!r} {point.amplitude!r}\n"


def free_calls() -> list[tuple[str, tuple]]:
    """(public name, arguments) of each free-problem call digested: nu in (-1, 40.5), ell < 30, sizes 1-49."""
    rng = np.random.default_rng(len(SWEEP_PAIRS) + 1)
    calls = []
    for _ in range(FREE_DRAWS):
        nu, size = float(rng.uniform(-0.99, 40.5)), int(rng.integers(1, 50))
        basis = BasisParams(lam=float(rng.choice(FREE_SCALES)), ell=int(rng.integers(0, 30)))
        energy, z = float(rng.choice(FREE_ENERGIES)), rng.uniform(0.0, 60.0, 3)
        calls += [
            ("jacobi_matrix", (nu, size)),
            ("laguerre_orthonormal_sequence", (size - 1, nu, float(z[0]))),
            ("laguerre_orthonormal_sequence", (size - 1, nu, z)),
            ("h0_matrix", (basis, size)),
            ("sine_coefficients", (energy, basis, size)),
            ("cosine_coefficients", (energy, basis, size)),
            ("basis_function", (size - 1, float(rng.uniform(0.05, 6.0)) / basis.lam, basis)),
        ]
    return calls


def free_output(name: str, args: tuple) -> bytes:
    """The float64 bytes of one free-problem call, or its error's type and message."""
    try:
        value = getattr(FREE_MODULES[name], name)(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the output
        return f"{type(exc).__name__}: {exc}".encode()
    return np.asarray(value, dtype=float).tobytes()


def lambda_cases() -> list[tuple[float, int, int]]:
    """(nu, K, N) of each Lambda build digested: the validate corpus's distinct ones, then a seeded draw."""
    cases = dict.fromkeys((config.nu, config.terms, config.size) for _, config, _ in validate_corpus())
    rng = np.random.default_rng(len(SWEEP_PAIRS) + 2)
    for _ in range(LAMBDA_DRAWS):
        nu, terms = float(rng.uniform(-0.99, 313.0)), int(rng.integers(1, 17))
        cases[nu, terms, int(rng.integers(max(2, terms), 65))] = None
    return list(cases)


def lambda_output(nu: float, terms: int, size: int) -> bytes:
    """The float64 bytes of one linearization table and its Lambda build, or the build's error text."""
    table = b"".join(array.tobytes() for array in orthopoly.linearization_table(terms, size, nu))
    try:
        lam = lambda_matrix(ModelConfig(PAPER_BASIS, 2.0, nu, size, terms))
    except Exception as exc:  # noqa: BLE001 - the error is the output
        return table + f"{type(exc).__name__}: {exc}".encode()
    arrays = (lam.entries, lam.factor, lam.singular, lam.v_t, lam.row_sums)
    return table + b"".join(array.tobytes() for array in arrays)


def _line(name: str, parts: list[bytes]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return f"{name} {len(parts)} {digest.hexdigest()}"


def digests(
    grids: dict | None = None,
    corpus: list | None = None,
    points: list | None = None,
    free: list | None = None,
    lambdas: list | None = None,
) -> list[str]:
    """The digest lines of the given grids, validate corpus, message points, free calls and Lambda builds (default: all)."""
    grids = GRIDS if grids is None else grids
    corpus = validate_corpus() if corpus is None else corpus
    points = MESSAGE_POINTS if points is None else points
    free = free_calls() if free is None else free
    lambdas = lambda_cases() if lambdas is None else lambdas
    lines = [_line(f"scan:{name}", [scan_output(scan_text(changes))]) for name, changes in grids.items()]
    groups: dict[str, list[bytes]] = {}
    for group, config, energies in corpus:
        groups.setdefault(group, []).append(report_text(config, energies).encode())
    lines += [_line(f"validate:{group}", parts) for group, parts in groups.items()]
    lines.append(_line("messages", [message_text(*point).encode() for point in points]))
    lines.append(_line("free", [free_output(*call) for call in free]))
    lines.append(_line("lambda", [lambda_output(*case) for case in lambdas]))
    return lines


def header() -> str:
    """The BLAS the digests depend on: OPENBLAS_CORETYPE and numpy's BLAS name and version."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"blas OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE', 'unset')} {blas['name']} {blas['version']}"


def main() -> int:
    print(header())
    for line in digests():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

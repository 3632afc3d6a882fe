import ast
import cmath
import dataclasses
import math
import warnings
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import jmnl
from jmnl import cli, reference, scattering
from jmnl.cli import ConfigError, load_scan_request, main
from jmnl.nonlinear import ModelConfig, lambda_matrix
from jmnl.reference import BasisParams, RecurrenceOverflowError, h0_matrix
from jmnl.scattering import (
    DegenerateEnergyError,
    PoleError,
    ScanColumns,
    ScanRequest,
    format_csv,
    run_scan,
    validate,
)

from conftest import count_calls
from oracles import s_matrix_point

ORACLE_STATUS = {
    PoleError: "pole",
    RecurrenceOverflowError: "overflow",
    OverflowError: "overflow",
    DegenerateEnergyError: "degenerate",
}
# with g = 0 the rows on these free eigenvalues are poles
FREE_EIGS = np.linalg.eigvalsh(h0_matrix(BasisParams(lam=5.0, ell=1), 20))

GOOD_CONFIG = """\
# compact scan for tests
ell = 1
g = 2.0
lambda = 5.0
nu_list = 1, 3
N = 12
K = 4
e_min = 0.5
e_max = 4.0
steps = 8
"""

# every energy overflows the cosine seed
OVERFLOW_CONFIG = """\
ell = 1
g = 2.0
lambda = 1
nu = 1
N = 20
K = 8
e_min = 700
e_max = 720
steps = 3
"""

# e^{-mu^2/2} underflows while the Laguerre values overflow above the first energy
SINE_OVERFLOW_CONFIG = """\
ell = 1
g = 2.0
lambda = 5
nu = 1
N = 20
K = 8
e_min = 0.5
e_max = 1e300
steps = 3
"""

# above the first energy 2E overflows, so the weight is inf * e^{-inf}
WEIGHT_OVERFLOW_CONFIG = SINE_OVERFLOW_CONFIG.replace("1e300", "1.7e308")

# the paper's scan: 7 nu x 551 E
PAPER_REQUEST = ScanRequest(
    basis=BasisParams(lam=5.0, ell=1),
    g=2.0,
    size=20,
    terms=8,
    weight_choice="resonance",
    nu_list=tuple(float(nu) for nu in range(1, 8)),
    e_min=0.5,
    e_max=6.0,
    steps=551,
)

# g omega^2 Lambda overflows above the first energy
COUPLING_OVERFLOW_CONFIG = """\
ell = 1
g = 1e308
lambda = 5
nu = 7
N = 20
K = 8
e_min = 0.5
e_max = 6
steps = 3
"""

# g = 0 and both grid points on eigenvalues of the free block: every row is a pole
POLE_EIGS = np.linalg.eigvalsh(h0_matrix(BasisParams(lam=5.0, ell=1), 12))
POLE_CONFIG = f"""\
ell = 1
g = 0
lambda = 5.0
nu = 1
N = 12
K = 4
e_min = {float(POLE_EIGS[0])!r}
e_max = {float(POLE_EIGS[1])!r}
steps = 2
"""


# 7 steps between two floats 2 ulps apart: the grid repeats energies
REPEATED_GRID_REQUEST = dataclasses.replace(
    PAPER_REQUEST, nu_list=(3.0, 1.0, 3.0), e_min=1.0, e_max=1.0000000000000004, steps=7
)

# the drive of the cosine seed overflows (mu^2 ~ 1420) long before these energies;
# hyp1f1 takes seconds at such arguments
HUGE_ENERGY_CONFIG = """\
ell = 1
g = 2.0
lambda = 1
nu = 1
N = 20
K = 8
e_min = 4e14
e_max = 5e14
steps = 2
"""


def bits(values):
    """Bit-exact, hashable form of a row of floats and complex numbers (nan and -0.0 included)."""
    return tuple(
        (value.real.hex(), value.imag.hex()) if isinstance(value, complex) else float(value).hex()
        for value in values
    )


def stable_sorted_rows(request):
    """The rows as the per-row scan built them: config-major, then a stable sort by (nu, E)."""
    grid = request.energy_grid().tolist()
    configs = [request.config_for(nu) for nu in request.nu_list]
    rows = []
    for nu, (s, delta, amplitude, errors, _) in zip(request.nu_list, scattering._scatter(grid, configs)):
        statuses = ["ok" if error is None else ORACLE_STATUS[type(error)] for error in errors]
        rows += zip([nu] * len(grid), grid, s.tolist(), delta.tolist(), amplitude.tolist(), statuses)
    return sorted(rows, key=lambda row: (row[0], row[1]))


def per_row_csv(rows):
    """CSV text formatted one row at a time from (nu, E, point or error) rows."""
    lines = ["nu,E,re_S,im_S,delta,amplitude,status"]
    for nu, energy, point in rows:
        if isinstance(point, ArithmeticError):
            lines.append("%.17g,%.17g,,,,,%s" % (nu, energy, ORACLE_STATUS[type(point)]))
        else:
            s_value = point.s_value
            lines.append(
                "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,ok"
                % (nu, energy, s_value.real, s_value.imag, point.delta, point.amplitude)
            )
    return "\n".join(lines) + "\n"


def write_config(tmp_path, text, name="scan.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def assert_ok_then_overflow(config, capsys):
    assert list(run_scan(load_scan_request(config)).status) == [
        "ok",
        "overflow",
        "overflow",
    ]
    assert main(["scan", "--config", config]) == 0
    captured = capsys.readouterr()
    assert [line.rsplit(",", 1)[1] for line in captured.out.splitlines()[1:]] == [
        "ok",
        "overflow",
        "overflow",
    ]
    assert captured.err == ""


class TestArchitecture:
    def test_cli_imports_no_kernel_internals(self):
        # the scan's statuses and the kernel's results are read only in jmnl.scattering
        tree = ast.parse(Path(cli.__file__).read_text())
        imported = [
            alias.name.rsplit(".", 1)[-1]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        assert [name for name in imported if name.startswith("_") and not name.endswith("__")] == []
        assert {"PoleError", "DegenerateEnergyError", "RecurrenceOverflowError"}.isdisjoint(imported)

    @pytest.mark.parametrize("name", ["run_scan", "format_csv", "validate", "CSV_HEADER"])
    def test_cli_names_are_the_library_objects(self, name):
        assert getattr(cli, name) is getattr(scattering, name)


class TestConfigParsing:
    def test_good_config(self, tmp_path):
        request = load_scan_request(write_config(tmp_path, GOOD_CONFIG))
        assert request.nu_list == (1.0, 3.0)
        assert request.steps == 8
        assert request.basis.ell == 1

    def test_rejects_nu_below_domain(self, tmp_path):
        text = GOOD_CONFIG.replace("nu_list = 1, 3", "nu = -1.5")
        with pytest.raises(ConfigError, match="nu > -1"):
            load_scan_request(write_config(tmp_path, text))

    def test_rejects_terms_above_size(self, tmp_path):
        text = GOOD_CONFIG.replace("K = 4", "K = 30")
        with pytest.raises(ConfigError, match="terms <= size"):
            load_scan_request(write_config(tmp_path, text))

    def test_unknown_key_reports_line(self, tmp_path):
        text = GOOD_CONFIG + "bogus = 3\n"
        with pytest.raises(ConfigError, match=r"line 11: unknown key 'bogus'"):
            load_scan_request(write_config(tmp_path, text))

    def test_duplicate_key_reports_line(self, tmp_path):
        text = GOOD_CONFIG + "g = 1\n"
        with pytest.raises(ConfigError, match="duplicate key 'g'"):
            load_scan_request(write_config(tmp_path, text))

    def test_bad_number_reports_line(self, tmp_path):
        text = GOOD_CONFIG.replace("g = 2.0", "g = two")
        with pytest.raises(ConfigError, match="line 3: g must be a number"):
            load_scan_request(write_config(tmp_path, text))

    def test_missing_keys_listed(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required keys"):
            load_scan_request(write_config(tmp_path, "ell = 1\n"))

    def test_requires_some_nu(self, tmp_path):
        text = GOOD_CONFIG.replace("nu_list = 1, 3\n", "")
        with pytest.raises(ConfigError, match="'nu' or 'nu_list'"):
            load_scan_request(write_config(tmp_path, text))

    def test_grid_ordering_enforced(self, tmp_path):
        text = GOOD_CONFIG.replace("e_max = 4.0", "e_max = 0.2")
        with pytest.raises(ConfigError, match="e_min < e_max"):
            load_scan_request(write_config(tmp_path, text))


class TestRunScan:
    def test_rows_sorted_and_unitary(self, tmp_path):
        request = load_scan_request(write_config(tmp_path, GOOD_CONFIG))
        columns = run_scan(request)
        assert len(columns) == 16
        keys = list(zip(columns.nu.tolist(), columns.energy.tolist()))
        assert keys == sorted(keys)
        for s_value, status in zip(columns.s_value.tolist(), columns.status):
            if status == "ok":
                assert abs(abs(s_value) - 1.0) < 1e-10

    def test_zero_coupling_amplitudes(self, tmp_path):
        request = load_scan_request(write_config(tmp_path, GOOD_CONFIG.replace("g = 2.0", "g = 0")))
        columns = run_scan(request)
        assert all(status == "ok" for status in columns.status)
        assert max(columns.amplitude) < 1e-8

    def test_pole_rows_flagged(self):
        basis = BasisParams(lam=5.0, ell=1)
        eigenvalue = float(np.linalg.eigvalsh(h0_matrix(basis, 12))[0])
        request = ScanRequest(
            basis=basis,
            g=0.0,
            size=12,
            terms=4,
            weight_choice="resonance",
            nu_list=(1.0,),
            e_min=eigenvalue - 0.1,
            e_max=eigenvalue + 0.1,
            steps=3,
        )
        columns = run_scan(request)
        assert list(columns.status) == ["ok", "pole", "ok"]
        assert cmath.isnan(columns.s_value[1])

    @pytest.mark.parametrize(
        "basis, g, bounds",
        [
            (BasisParams(lam=5.0, ell=1), 0.0, (float(FREE_EIGS[0]), float(FREE_EIGS[3]))),
            (BasisParams(lam=1.0, ell=1), 2.0, (60.0, 90.0)),  # crosses the overflow onset
        ],
        ids=["pole", "overflow"],
    )
    def test_row_statuses_match_point_oracle(self, basis, g, bounds):
        request = ScanRequest(
            basis=basis,
            g=g,
            size=20,
            terms=8,
            weight_choice="resonance",
            nu_list=(1.0,),
            e_min=bounds[0],
            e_max=bounds[1],
            steps=130,
        )
        columns = run_scan(request)
        config = request.config_for(1.0)
        statuses = set()
        for energy, s_value, delta, amplitude, status in zip(
            columns.energy.tolist(),
            columns.s_value.tolist(),
            columns.delta.tolist(),
            columns.amplitude.tolist(),
            columns.status,
        ):
            try:
                point = s_matrix_point(energy, config)
            except ArithmeticError as exc:
                assert status == ORACLE_STATUS[type(exc)]
                assert cmath.isnan(s_value) and math.isnan(delta) and math.isnan(amplitude)
            else:
                assert status == "ok"
                assert (s_value, delta, amplitude) == (
                    point.s_value,
                    point.delta,
                    point.amplitude,
                )
            statuses.add(status)
        assert len(statuses) > 1

    def test_free_tails_once_per_energy(self, monkeypatch):
        # 7 nu x 551 E share the sine and cosine tails of each energy: one stacked
        # recursion over the grid, and no energy takes the float sequences
        tails = count_calls(monkeypatch, scattering, ("_free_tails",))
        sequences = count_calls(monkeypatch, reference, ("_sine_sequence", "_cosine_sequence"))
        assert len(run_scan(PAPER_REQUEST)) == 7 * 551
        assert tails == {"_free_tails": 1}
        assert sequences == {}

    def test_pole_guard_one_cholesky_per_block(self, monkeypatch, linalg_calls):
        # every paper wave operator is positive definite and every block's Loewner sandwich
        # clears it: per nu one stacked Cholesky of the 9 lower operators, no spectrum, and
        # per block one Cholesky of M whose pivots give the corners, so no LU solve runs
        solves = count_calls(monkeypatch, np.linalg, ("solve",))
        assert len(run_scan(PAPER_REQUEST)) == 7 * 551
        assert linalg_calls == {"cholesky": 7 + 63}
        assert solves == {}

    def test_one_factorisation_per_member(self, factored):
        # the 63 lower operators and the 3,857 wave operators M, each factored once;
        # no member's M - delta I is factored (that was 2 x 3,857 = 7,714 matrices)
        assert len(run_scan(PAPER_REQUEST)) == 7 * 551
        assert sum(factored) == 63 + 7 * 551

    def test_s_assembled_once_per_config(self, angle_calls):
        # the S values of each of the 7 nu in one set of array operations
        assert len(run_scan(PAPER_REQUEST)) == 7 * 551
        assert angle_calls == {"angle": 7}

    @pytest.mark.parametrize(
        "request_",
        [
            dataclasses.replace(PAPER_REQUEST, nu_list=(3.0, 1.0, 3.0)),
            dataclasses.replace(PAPER_REQUEST, nu_list=(0.0, -0.0, 0.0)),
            REPEATED_GRID_REQUEST,
        ],
        ids=["nu-3-1-3", "nu-signed-zeros", "repeated-energies"],
    )
    def test_column_order_is_the_stable_sort(self, request_):
        # repeated nu interleave per energy, and repeated energies per config, as a stable sort leaves them
        columns = run_scan(request_)
        rows = zip(
            columns.nu.tolist(),
            columns.energy.tolist(),
            columns.s_value.tolist(),
            columns.delta.tolist(),
            columns.amplitude.tolist(),
            columns.status,
        )
        assert [bits(row[:5]) + row[5:] for row in rows] == [
            bits(row[:5]) + row[5:] for row in stable_sorted_rows(request_)
        ]

    @pytest.mark.parametrize("seed", range(8))
    def test_row_order_is_a_stable_sort(self, seed):
        # unsorted grids with repeats, and nu lists with repeats and a signed zero
        rng = np.random.default_rng(seed)
        nu_list = tuple(rng.choice([3.0, 1.0, 0.0, -0.0, 2.5], size=rng.integers(1, 7)).tolist())
        grid = rng.choice([1.0, 2.0, 2.0000000000000004, 0.5], size=rng.integers(1, 13))
        k, j = scattering._row_order(nu_list, grid)
        pairs = [(a, b) for a in range(len(nu_list)) for b in range(len(grid))]
        assert list(zip(k.tolist(), j.tolist())) == sorted(pairs, key=lambda p: (nu_list[p[0]], grid[p[1]]))

    def test_paper_csv_equals_point_oracle(self):
        # all 3,857 rows, bit for bit, against one oracle point and one format per row
        rows = [
            (nu, energy, s_matrix_point(energy, PAPER_REQUEST.config_for(nu)))
            for nu in PAPER_REQUEST.nu_list
            for energy in PAPER_REQUEST.energy_grid().tolist()
        ]
        assert format_csv(run_scan(PAPER_REQUEST)) == per_row_csv(rows)

    def test_huge_energies_never_reach_hyp1f1(self, tmp_path, capsys, monkeypatch):
        original = reference.hyp1f1

        def bounded(a, b, z):
            assert np.all(np.asarray(z) <= 1e4), "hyp1f1 called at a huge argument"
            return original(a, b, z)

        monkeypatch.setattr(reference, "hyp1f1", bounded)
        config = write_config(tmp_path, HUGE_ENERGY_CONFIG)
        assert list(run_scan(load_scan_request(config)).status) == ["overflow"] * 2
        assert main(["scan", "--config", config]) == 3
        assert capsys.readouterr().err == "numerical failure: no grid point is ok (2 overflow-flagged)\n"

    def test_coupling_overflow_on_paper_grid_warns_nothing(self):
        # g = 1e308: some wave operators have finite entries whose row sums overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            columns = run_scan(dataclasses.replace(PAPER_REQUEST, g=1e308))
        assert len(columns) == 7 * 551
        assert columns.status.count("overflow") == 3588
        assert columns.status.count("ok") == 7 * 551 - 3588

    def test_byte_identical_reruns(self, tmp_path):
        request = load_scan_request(write_config(tmp_path, GOOD_CONFIG))
        first = format_csv(run_scan(request))
        second = format_csv(run_scan(request))
        third = format_csv(run_scan(request))
        assert first == second == third


class TestCsvFormat:
    def test_header_and_columns(self, tmp_path):
        request = load_scan_request(write_config(tmp_path, GOOD_CONFIG))
        text = format_csv(run_scan(request))
        lines = text.strip().split("\n")
        assert lines[0] == "nu,E,re_S,im_S,delta,amplitude,status"
        assert len(lines) == 17
        sample = lines[1].split(",")
        assert len(sample) == 7
        assert sample[-1] == "ok"

    def test_seventeen_significant_digits(self, tmp_path):
        request = load_scan_request(write_config(tmp_path, GOOD_CONFIG))
        columns = run_scan(request)
        text = format_csv(columns)
        value = text.strip().split("\n")[1].split(",")[2]
        assert float(value) == columns.s_value[0].real

    def test_row_bytes(self):
        nan = math.nan
        rows = ScanColumns(
            nu=np.array([1.0, 7.0, 0.1]),
            energy=np.array([0.1, 1.7976931348623157e308, -0.0]),
            s_value=np.array([complex(-0.0, 5e-324), complex(nan, nan), complex(nan, nan)]),
            delta=np.array([1.7976931348623157e308, nan, nan]),
            amplitude=np.array([0.1, nan, nan]),
            status=("ok", "overflow", "pole"),
        )
        assert format_csv(rows).splitlines() == [
            "nu,E,re_S,im_S,delta,amplitude,status",
            "1,0.10000000000000001,-0,4.9406564584124654e-324,1.7976931348623157e+308,"
            "0.10000000000000001,ok",
            "7,1.7976931348623157e+308,,,,,overflow",
            "0.10000000000000001,-0,,,,,pole",
        ]


class TestValidate:
    def test_small_config_passes(self):
        config = ModelConfig(
            basis=BasisParams(lam=5.0, ell=1), g=2.0, nu=3.0, size=12, terms=4
        )
        report = validate(config, energies=np.linspace(0.6, 3.9, 5))
        assert report.passed, [c for c in report.checks if not c.passed]

    def test_routes_run_on_numpy_linear_algebra(self, monkeypatch, factored):
        # the kernel's corners are the first route, so validate solves nothing; the other two
        # run once each on the stack of the 8 energies: one eigh (spectral route) and two
        # eigvalsh (the spectrum of H, shared by the tolerance and the determinant route, and
        # its trimmed blocks); the two cholesky are the kernel's pole guard (the block's
        # Loewner sandwich) and pivot corners (the 8 M)
        linalg = count_calls(monkeypatch, np.linalg, ("cholesky", "eigh", "eigvalsh", "solve"))
        generalized = count_calls(monkeypatch, scipy.linalg, ("eigh",))
        report = validate(PAPER_REQUEST.config_for(1.0))
        assert report.passed
        assert linalg == {"cholesky": 2, "eigh": 1, "eigvalsh": 2}
        assert factored == [1, 8]
        assert not generalized

    @pytest.mark.parametrize("nu", [4.0, 7.0])
    def test_planted_pivot_corner_fails(self, monkeypatch, nu):
        # the corner S uses is the route the other two check: 1.5x it in the kernel's
        # pivot corners and green-three-route fails
        config = PAPER_REQUEST.config_for(nu)
        assert validate(config).passed
        pivot_corners = scattering._pivot_corners

        def planted(stack):
            corners, failed = pivot_corners(stack)
            return 1.5 * corners, failed

        monkeypatch.setattr(scattering, "_pivot_corners", planted)
        report = validate(config)
        assert [c.name for c in report.checks if not c.passed] == ["green-three-route"]

    def test_planted_solve_corner_fails(self, monkeypatch):
        # g = 0: M is indefinite at the 4 default energies above the lowest free eigenvalue,
        # so the kernel takes its checked solve there; 1.5x in that solve alone fails the check
        config = dataclasses.replace(PAPER_REQUEST.config_for(1.0), g=0.0)
        assert validate(config).passed
        checked_solve, block_corners, solved = scattering._checked_solve, scattering._block_corners, []

        def planted_solve(matrix, rhs, energies):
            solved.extend(energies)
            solution, errors = checked_solve(matrix, rhs, energies)
            return 1.5 * solution, errors

        def kernel_blocks(*args):
            with monkeypatch.context() as patch:
                patch.setattr(scattering, "_checked_solve", planted_solve)
                return block_corners(*args)

        monkeypatch.setattr(scattering, "_block_corners", kernel_blocks)
        report = validate(config)
        assert len(solved) == 4
        assert [c.name for c in report.checks if not c.passed] == ["green-three-route"]

    def test_lambda_bound_fails_on_halved_eigenvalue(self, monkeypatch):
        # one term: Lambda = I / Gamma(nu+1), so lambda_min Gamma(nu+1) = 1 sits on the bound
        config = ModelConfig(basis=BasisParams(lam=5.0, ell=1), g=2.0, nu=3.0, size=12, terms=1)
        energies = np.linspace(0.6, 3.9, 3)
        assert validate(config, energies).passed
        lam = lambda_matrix(config)
        planted = dataclasses.replace(lam, min_eigenvalue=0.5 * lam.min_eigenvalue)
        monkeypatch.setattr(scattering, "lambda_matrix", lambda _: planted)
        report = validate(config, energies)
        assert [c.name for c in report.checks if not c.passed] == ["lambda-positive"]

    def test_lambda_bound_where_gamma_overflows(self):
        # Gamma(172.5) is above the double range; the bound is checked in logs
        config = ModelConfig(basis=BasisParams(lam=5.0, ell=1), g=2.0, nu=171.5, size=4, terms=1)
        with pytest.raises(OverflowError):
            math.gamma(config.nu + 1.0)
        check = validate(config, np.linspace(0.6, 3.9, 3)).checks[0]
        assert check.name == "lambda-positive" and check.passed, check.detail

    def test_check_names(self):
        config = ModelConfig(
            basis=BasisParams(lam=5.0, ell=1), g=0.5, nu=1.0, size=10, terms=3
        )
        report = validate(config, energies=np.linspace(0.8, 3.0, 3))
        assert [c.name for c in report.checks] == [
            "lambda-positive",
            "omega-identity",
            "green-three-route",
            "casoratian",
        ]

    def test_casoratian_fails_on_planted_drive(self, monkeypatch):
        # a drive off by 1e-8 shifts the Casoratian by 1e-8; the recurrence itself still holds
        config = ModelConfig(basis=BasisParams(lam=5.0, ell=1), g=2.0, nu=3.0, size=12, terms=4)
        energies = np.linspace(0.6, 3.9, 5)
        assert validate(config, energies).passed
        drive = reference._seed_drive
        monkeypatch.setattr(reference, "_seed_drive", lambda kin, basis: drive(kin, basis) * (1.0 + 1e-8))
        report = validate(config, energies)
        assert [c.name for c in report.checks if not c.passed] == ["casoratian"]
        assert "worst relative defect 1.0" in report.checks[-1].detail

    def test_casoratian_fails_above_the_free_spectrum(self):
        # largest eigenvalue of the free block 34.6: the recursion's growth leaves the tails no digits
        config = ModelConfig(basis=BasisParams(lam=1.0, ell=1), g=2.0, nu=1.0, size=20, terms=8)
        check = validate(config, np.array([20.0, 40.0])).checks[-1]
        # rounding explains the defect (a small share of its bound); the limit rejects it
        assert check.name == "casoratian" and not check.passed
        assert check.detail.startswith("worst relative defect 1.415e-01 (limit 1e-08), 0.0"), check.detail
        assert validate(config, np.array([20.0, 30.0])).checks[-1].passed


class TestMainEntry:
    def test_scan_writes_file(self, tmp_path, capsys):
        config = write_config(tmp_path, GOOD_CONFIG)
        out = str(tmp_path / "rows.csv")
        assert main(["scan", "--config", config, "--out", out]) == 0
        with open(out) as handle:
            text = handle.read()
        assert text.startswith("nu,E,")
        assert "wrote 16 rows" in capsys.readouterr().out

    def test_scan_stdout_default(self, tmp_path, capsys):
        config = write_config(tmp_path, GOOD_CONFIG)
        assert main(["scan", "--config", config]) == 0
        assert capsys.readouterr().out.startswith("nu,E,")

    def test_bad_config_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path, GOOD_CONFIG.replace("nu_list = 1, 3", "nu = -2"))
        assert main(["scan", "--config", config]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["scan", "--config", "/nonexistent.cfg"]) == 1
        assert "i/o error" in capsys.readouterr().err

    def test_validate_missing_file_exit_code(self, capsys):
        assert main(["validate", "--config", "/nonexistent.cfg"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("i/o error: ") and captured.out == ""

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        # the output path is a directory
        config = write_config(tmp_path, GOOD_CONFIG)
        assert main(["scan", "--config", config, "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("i/o error: ") and captured.out == ""

    def test_broken_stdout_exit_code(self, tmp_path, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        config = write_config(tmp_path, GOOD_CONFIG)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["scan", "--config", config]) == 1
        assert capsys.readouterr().err == "i/o error: [Errno 32] Broken pipe\n"
        # the rest of the output goes nowhere, so the exit flush has nothing left to fail on
        assert sys.stdout.name == os.devnull
        sys.stdout.close()

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_validate_command(self, tmp_path, capsys):
        config = write_config(tmp_path, GOOD_CONFIG)
        assert main(["validate", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "lambda-positive" in out and "FAIL" not in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_console_help(self):
        # the child finds jmnl where this process did, also without PYTHONPATH set
        src = os.path.dirname(os.path.dirname(jmnl.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "jmnl.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "scan" in proc.stdout and "validate" in proc.stdout

    def test_pole_saturated_scan_exit_code(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path, POLE_CONFIG)
        assert main(["scan", "--config", config]) == 3
        assert "pole-flagged" in capsys.readouterr().err

    def test_overflow_rows_flagged_and_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path, OVERFLOW_CONFIG)
        assert list(run_scan(load_scan_request(config)).status) == ["overflow"] * 3
        assert main(["scan", "--config", config]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: no grid point is ok (3 overflow-flagged)" in err

    def test_sine_overflow_rows_flagged(self, tmp_path, capsys):
        assert_ok_then_overflow(write_config(tmp_path, SINE_OVERFLOW_CONFIG), capsys)

    def test_weight_overflow_rows_flagged(self, tmp_path, capsys):
        # a non-finite weight marks only its own row, not the whole block
        assert_ok_then_overflow(write_config(tmp_path, WEIGHT_OVERFLOW_CONFIG), capsys)

    def test_coupling_overflow_rows_flagged(self, tmp_path, capsys):
        # an overflowing wave operator marks only its own row; the block takes no spectrum of it
        assert_ok_then_overflow(write_config(tmp_path, COUPLING_OVERFLOW_CONFIG), capsys)

    def test_validate_counts_overflow_as_overflow(self, tmp_path, capsys):
        config = write_config(tmp_path, OVERFLOW_CONFIG)
        assert main(["validate", "--config", config]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] nu=1 green-three-route: worst spread 0.000 of the conditioning-aware " \
            "tolerance (0 checked, 3 overflow-skipped)" in out
        assert "[FAIL] nu=1 casoratian: worst relative defect 0.000e+00 (limit 1e-08), 0.000 of the " \
            "rounding bound (0 checked, 3 overflow-skipped)" in out
        assert "pole-skipped" not in out

    def test_validate_skips_energies_on_poles(self, tmp_path, capsys):
        config = write_config(tmp_path, POLE_CONFIG)
        assert main(["validate", "--config", config]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] nu=1 green-three-route: worst spread 0.000 of the conditioning-aware " \
            "tolerance (0 checked, 2 pole-skipped)" in out
        assert "[ok ] nu=1 casoratian: " in out and "(2 checked, 0 pole-skipped)" in out

    @pytest.mark.parametrize("command", ["scan", "validate"])
    @pytest.mark.parametrize(
        "line, bad_line, message",
        [
            ("e_max = 4.0", "e_max = inf", "need 0 < e_min < e_max, both finite"),
            ("e_max = 4.0", "e_max = nan", "need 0 < e_min < e_max, both finite"),
            ("e_min = 0.5", "e_min = nan", "need 0 < e_min < e_max, both finite"),
            ("lambda = 5.0", "lambda = inf", "scale parameter lam must be positive and finite"),
            ("lambda = 5.0", "lambda = nan", "scale parameter lam must be positive and finite"),
        ],
        ids=["e_max-inf", "e_max-nan", "e_min-nan", "lambda-inf", "lambda-nan"],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, command, line, bad_line, message):
        config = write_config(tmp_path, GOOD_CONFIG.replace(line, bad_line))
        assert main([command, "--config", config]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["scan", "validate"])
    def test_certificate_failure_is_numerical_error(self, tmp_path, capsys, command):
        # the positivity certificate rejects this coupling matrix today
        text = GOOD_CONFIG.replace("nu_list = 1, 3", "nu = 1").replace("N = 12", "N = 40")
        config = write_config(tmp_path, text.replace("K = 4", "K = 12"))
        assert main([command, "--config", config]) == 3
        assert capsys.readouterr().err.startswith("numerical error: ")

import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import jmnl
from jmnl import reference, scattering
from jmnl.cli import (
    ConfigError,
    ScanRequest,
    ScanRow,
    format_csv,
    load_scan_request,
    main,
    run_scan,
    validate,
)
from jmnl.nonlinear import ModelConfig
from jmnl.reference import BasisParams, RecurrenceOverflowError, h0_matrix
from jmnl.scattering import DegenerateEnergyError, PoleError

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


def write_config(tmp_path, text, name="scan.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def assert_ok_then_overflow(config, capsys):
    assert [row.status for row in run_scan(load_scan_request(config))] == [
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
        rows = run_scan(request)
        assert len(rows) == 16
        keys = [(row.nu, row.energy) for row in rows]
        assert keys == sorted(keys)
        for row in rows:
            if row.status == "ok":
                assert abs(abs(row.s_value) - 1.0) < 1e-10

    def test_zero_coupling_amplitudes(self, tmp_path):
        request = load_scan_request(write_config(tmp_path, GOOD_CONFIG.replace("g = 2.0", "g = 0")))
        rows = run_scan(request)
        assert all(row.status == "ok" for row in rows)
        assert max(row.amplitude for row in rows) < 1e-8

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
        rows = run_scan(request)
        assert [row.status for row in rows] == ["ok", "pole", "ok"]
        assert rows[1].s_value is None

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
        rows = run_scan(request)
        config = request.config_for(1.0)
        statuses = set()
        for row in rows:
            try:
                point = s_matrix_point(row.energy, config)
            except ArithmeticError as exc:
                assert row.status == ORACLE_STATUS[type(exc)]
                assert row.s_value is None
            else:
                assert row.status == "ok"
                assert (row.s_value, row.delta, row.amplitude) == (
                    point.s_value,
                    point.delta,
                    point.amplitude,
                )
            statuses.add(row.status)
        assert len(statuses) > 1

    def test_free_tails_once_per_energy(self, monkeypatch):
        # 7 nu x 551 E share the sine and cosine tails of each energy
        calls = Counter()
        for name in ("_sine_sequence", "_cosine_sequence"):
            original = getattr(reference, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            for module in (reference, scattering):
                monkeypatch.setattr(module, name, counted)
        assert len(run_scan(PAPER_REQUEST)) == 7 * 551
        assert calls == {"_sine_sequence": 551, "_cosine_sequence": 551}

    def test_pole_guard_one_cholesky_per_block(self, linalg_calls):
        # every paper wave operator is positive definite: 7 nu x 9 blocks certified, no spectrum
        assert len(run_scan(PAPER_REQUEST)) == 7 * 551
        assert linalg_calls == {"cholesky": 63}

    def test_s_assembled_once_per_block(self, angle_calls):
        # 7 nu x 9 blocks, the S values of each block in one set of array operations
        assert len(run_scan(PAPER_REQUEST)) == 7 * 551
        assert angle_calls == {"angle": 63}

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
        row = run_scan(request)[0]
        text = format_csv([row])
        value = text.strip().split("\n")[1].split(",")[2]
        assert float(value) == row.s_value.real

    def test_row_bytes(self):
        rows = [
            ScanRow(1.0, 0.1, complex(-0.0, 5e-324), 1.7976931348623157e308, 0.1, "ok"),
            ScanRow(7.0, 1.7976931348623157e308, None, None, None, "overflow"),
            ScanRow(0.1, -0.0, None, None, None, "pole"),
        ]
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

    def test_check_names(self):
        config = ModelConfig(
            basis=BasisParams(lam=5.0, ell=1), g=0.5, nu=1.0, size=10, terms=3
        )
        report = validate(config, energies=np.linspace(0.8, 3.0, 3))
        assert [c.name for c in report.checks] == [
            "lambda-positive",
            "omega-identity",
            "green-three-route",
            "unitarity",
            "recursion-residual",
        ]


class TestMainEntry:
    def test_scan_writes_file(self, tmp_path, capsys):
        config = write_config(tmp_path, GOOD_CONFIG)
        out = str(tmp_path / "rows.csv")
        assert main(["scan", "--config", config, "--out", out]) == 0
        text = open(out).read()
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
        assert [row.status for row in run_scan(load_scan_request(config))] == ["overflow"] * 3
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
        assert "[FAIL] nu=1 recursion-residual: sine 0.000e+00, cosine 0.000e+00 " \
            "(0 checked, 3 overflow-skipped)" in out
        assert "pole-skipped" not in out

    def test_validate_skips_energies_on_poles(self, tmp_path, capsys):
        config = write_config(tmp_path, POLE_CONFIG)
        assert main(["validate", "--config", config]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] nu=1 green-three-route: worst spread 0.000 of the conditioning-aware " \
            "tolerance (0 checked, 2 pole-skipped)" in out
        assert "recursion-residual" in out

    @pytest.mark.parametrize("command", ["scan", "validate"])
    def test_certificate_failure_is_numerical_error(self, tmp_path, capsys, command):
        # the positivity certificate rejects this coupling matrix today
        text = GOOD_CONFIG.replace("nu_list = 1, 3", "nu = 1").replace("N = 12", "N = 40")
        config = write_config(tmp_path, text.replace("K = 4", "K = 12"))
        assert main([command, "--config", config]) == 3
        assert capsys.readouterr().err.startswith("numerical error: ")

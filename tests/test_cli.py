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
from jmnl.reference import BasisParams, h0_matrix
from jmnl.scattering import (
    _MAX_ROWS,
    ScanColumns,
    ScanRequest,
    format_csv,
    run_scan,
    validate,
)

from conftest import count_calls, largest_scale
from oracles import ORACLE_STATUS, reason_error, s_matrix_point

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

# the sine coefficients, ~ lam^{-5/2} at these energies, are normal doubles up to lam ~ 1e123
LARGE_SCALE_CONFIG = """\
ell = 1
g = 2.0
lambda = 1e120
nu = 1
N = 20
K = 8
e_min = 0.5
e_max = 6.0
steps = 8
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

# the paper's scan as a config file
PAPER_CONFIG = """\
ell = 1
g = 2
lambda = 5
nu_list = 1, 2, 3, 4, 5, 6, 7
N = 20
K = 8
weight = resonance
e_min = 0.5
e_max = 6.0
steps = 551
"""

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
# the Kummer series' time grows with its argument
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
    rows = []
    for config, (s, delta, amplitude, reasons, values, _) in zip(
        request.configs, scattering._scatter(grid, request.configs)
    ):
        statuses = [
            ORACLE_STATUS[type(reason_error(code, energy, value, config))] if code else "ok"
            for energy, code, value in zip(grid, reasons.tolist(), values.tolist())
        ]
        rows += zip([config.nu] * len(grid), grid, s.tolist(), delta.tolist(), amplitude.tolist(), statuses)
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


def child_env():
    """Environment of a child interpreter that finds jmnl where this process did, also without PYTHONPATH set."""
    src = os.path.dirname(os.path.dirname(jmnl.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


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

    def test_first_bad_value_in_conversion_order(self, tmp_path):
        # ell converts before steps, as the keys are converted in one fixed order
        text = GOOD_CONFIG.replace("ell = 1", "ell = one").replace("steps = 8", "steps = eight")
        with pytest.raises(ConfigError, match=r"^line 2: ell must be an integer \(got 'one'\)$"):
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

    def test_grid_size_bound(self):
        # the most rows numpy can index as one complex128 column are accepted, one more is not
        assert _MAX_ROWS * 16 <= np.iinfo(np.intp).max < (_MAX_ROWS + 1) * 16
        fields = dict(basis=BasisParams(lam=5.0, ell=1), g=2.0, size=12, terms=4, weight_choice="resonance")
        ScanRequest(nu_list=(1.0,), e_min=0.5, e_max=4.0, steps=_MAX_ROWS, **fields)
        for nu_list, steps in (((1.0,), _MAX_ROWS + 1), ((1.0, 2.0), _MAX_ROWS // 2 + 1)):
            with pytest.raises(ValueError, match="steps x nu values must be at most"):
                ScanRequest(nu_list=nu_list, e_min=0.5, e_max=4.0, steps=steps, **fields)

    @pytest.mark.parametrize("steps", [3.0, 2.5, True], ids=["3.0", "2.5", "True"])
    def test_steps_must_be_an_integer(self, steps):
        with pytest.raises(ValueError, match=r"^steps must be an integer"):
            dataclasses.replace(PAPER_REQUEST, steps=steps)

    def test_numpy_integer_steps(self):
        request = dataclasses.replace(PAPER_REQUEST, steps=np.int64(551))
        assert type(request.steps) is int
        assert format_csv(run_scan(request)) == format_csv(run_scan(PAPER_REQUEST))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"g": math.nan}, "coupling g must be finite"),
            ({"g": math.inf}, "coupling g must be finite"),
            ({"nu_list": (-2.0,)}, "ansatz parameter must satisfy nu > -1"),
            ({"size": 1}, "matrix size must be at least 2"),
            ({"terms": 30}, "need 1 <= terms <= size"),
            ({"weight_choice": "x"}, "weight_choice must be one of"),
            # the config parser never gives an empty nu list: "nu_list = ," is its own error
            ({"nu_list": ()}, "at least one nu value is required"),
        ],
        ids=["g=nan", "g=inf", "nu=-2", "N=1", "K=30", "weight=x", "nu_list=()"],
    )
    def test_bad_model_field_rejected_at_construction(self, change, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            dataclasses.replace(PAPER_REQUEST, **change)

    def test_configs_built_once_per_nu(self):
        request = dataclasses.replace(PAPER_REQUEST, nu_list=(3.0, 1.0, 3.0))
        assert request.configs == tuple(
            ModelConfig(request.basis, 2.0, nu, 20, 8, "resonance") for nu in (3.0, 1.0, 3.0)
        )
        # the grid's errors come first, as the command line reports them
        with pytest.raises(ValueError, match="need 0 < e_min < e_max"):
            dataclasses.replace(PAPER_REQUEST, e_max=0.1, g=math.nan)


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
        (config,) = request.configs
        # one nu: the rows are in grid order, as the kernel's reason column
        ((_, _, _, reasons, values, _),) = scattering._scatter(request.energy_grid().tolist(), [config])
        statuses = set()
        for energy, s_value, delta, amplitude, status, code, value in zip(
            columns.energy.tolist(),
            columns.s_value.tolist(),
            columns.delta.tolist(),
            columns.amplitude.tolist(),
            columns.status,
            reasons.tolist(),
            values.tolist(),
        ):
            try:
                point = s_matrix_point(energy, config)
            except ArithmeticError as exc:
                assert status == ORACLE_STATUS[type(exc)]
                error = reason_error(code, energy, value, config)
                assert (type(error), str(error), getattr(error, "energy", None)) == (
                    type(exc),
                    str(exc),
                    getattr(exc, "energy", None),
                ), energy
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

    def test_failed_tails_take_no_float_sequences(self, monkeypatch):
        # e_max = 1e6: the tails fail on 3,843 of 3,857 rows, and the stacked recursion's mask
        # alone reports them; no energy runs the float sequences to raise its error
        sequences = count_calls(monkeypatch, reference, ("_sine_sequence", "_cosine_sequence"))
        columns = run_scan(dataclasses.replace(PAPER_REQUEST, e_max=1e6))
        assert columns.status.count("overflow") == 3843
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
            (config.nu, energy, s_matrix_point(energy, config))
            for config in PAPER_REQUEST.configs
            for energy in PAPER_REQUEST.energy_grid().tolist()
        ]
        assert format_csv(run_scan(PAPER_REQUEST)) == per_row_csv(rows)

    def test_huge_energies_never_reach_the_series(self, tmp_path, capsys, monkeypatch):
        # 2 energies run the float series, 16 the stacked one
        for name in ("_kummer", "_stacked_kummer"):
            original = getattr(reference, name)

            def bounded(ell, z, original=original):
                assert np.all(np.asarray(z) <= 1e4), "Kummer series summed at a huge argument"
                return original(ell, z)

            monkeypatch.setattr(reference, name, bounded)
        stacked = write_config(tmp_path, HUGE_ENERGY_CONFIG.replace("steps = 2", "steps = 16"), "stacked.cfg")
        assert list(run_scan(load_scan_request(stacked)).status) == ["overflow"] * 16
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
        report = validate(PAPER_REQUEST.configs[0])
        assert report.passed
        assert linalg == {"cholesky": 2, "eigh": 1, "eigvalsh": 2}
        assert factored == [1, 8]
        assert not generalized

    @pytest.mark.parametrize("nu", [4.0, 7.0])
    def test_planted_pivot_corner_fails(self, monkeypatch, nu):
        # the corner S uses is the route the other two check: 1.5x it in the kernel's
        # pivot corners and green-three-route fails
        config = PAPER_REQUEST.configs[PAPER_REQUEST.nu_list.index(nu)]
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
        config = dataclasses.replace(PAPER_REQUEST.configs[0], g=0.0)
        assert validate(config).passed
        checked_solve, block_corners, solved = scattering._checked_solve, scattering._block_corners, []

        def planted_solve(matrix):
            solved.extend(matrix)
            corners, reasons, values = checked_solve(matrix)
            return 1.5 * corners, reasons, values

        def kernel_blocks(*args):
            with monkeypatch.context() as patch:
                patch.setattr(scattering, "_checked_solve", planted_solve)
                return block_corners(*args)

        monkeypatch.setattr(scattering, "_block_corners", kernel_blocks)
        report = validate(config)
        assert len(solved) == 4
        assert [c.name for c in report.checks if not c.passed] == ["green-three-route"]

    def test_nan_route_fails(self, monkeypatch):
        # a route that returns nan fails green-three-route instead of being passed over
        config = PAPER_REQUEST.configs[PAPER_REQUEST.nu_list.index(3.0)]
        determinant_corners = scattering._determinant_corners

        def planted(*args):
            corners, reasons, gaps = determinant_corners(*args)
            return np.full_like(corners, np.nan), reasons, gaps

        monkeypatch.setattr(scattering, "_determinant_corners", planted)
        report = validate(config)
        assert [c.name for c in report.checks if not c.passed] == ["green-three-route"]
        assert report.checks[2].detail.startswith("worst spread nan"), report.checks[2].detail

    def test_nan_casoratian_fails(self, monkeypatch):
        # a nan defect and ratio at one energy fail the casoratian check instead of being passed over
        config = PAPER_REQUEST.configs[PAPER_REQUEST.nu_list.index(3.0)]
        casoratians = scattering._casoratians

        def planted(*args):
            defects, ratios, raised, underflowed = casoratians(*args)
            defects[1] = ratios[1] = math.nan
            return defects, ratios, raised, underflowed

        monkeypatch.setattr(scattering, "_casoratians", planted)
        report = validate(config)
        assert [c.name for c in report.checks if not c.passed] == ["casoratian"]
        assert report.checks[3].detail.startswith("worst relative defect nan"), report.checks[3].detail

    def test_lambda_bound_fails_on_halved_eigenvalue(self, monkeypatch):
        # one term: Lambda = I / Gamma(nu+1), so lambda_min Gamma(nu+1) = 1 sits on the bound
        config = ModelConfig(basis=BasisParams(lam=5.0, ell=1), g=2.0, nu=3.0, size=12, terms=1)
        energies = np.linspace(0.6, 3.9, 3)
        assert validate(config, energies).passed
        lam = lambda_matrix(config)
        # the bound reads the certificate's singular value; the whitening keeps the true one
        singular = lam.singular.copy()
        singular[-1] *= math.sqrt(0.5)
        planted = dataclasses.replace(lam, min_eigenvalue=0.5 * lam.min_eigenvalue, singular=singular)
        transform = scattering.omega_transform(lam)
        monkeypatch.setattr(scattering, "lambda_matrix", lambda _: planted)
        monkeypatch.setattr(scattering, "omega_transform", lambda _: transform)
        report = validate(config, energies)
        assert [c.name for c in report.checks if not c.passed] == ["lambda-positive"]

    def test_lambda_bound_where_gamma_overflows(self):
        # Gamma(172.5) is above the double range; the bound is checked in logs
        config = ModelConfig(basis=BasisParams(lam=5.0, ell=1), g=2.0, nu=171.5, size=4, terms=1)
        with pytest.raises(OverflowError):
            math.gamma(config.nu + 1.0)
        check = validate(config, np.linspace(0.6, 3.9, 3)).checks[0]
        assert check.name == "lambda-positive" and check.passed, check.detail

    @pytest.mark.parametrize("nu", [200.0, 310.0])
    def test_large_nu_certifies_lambda_and_names_whitening_overflow(self, nu):
        # lambda_min = sigma_min^2 underflows to 0 from nu ~ 177 while sigma_min still certifies
        # Lambda; the whitening's 1/sqrt(sigma^2) is then inf and its residual nan
        config = ModelConfig(basis=BasisParams(lam=5.0, ell=1), g=2.0, nu=nu, size=20, terms=8)
        assert lambda_matrix(config).min_eigenvalue == 0.0
        positive, identity = validate(config).checks[:2]
        assert positive.name == "lambda-positive" and positive.passed, positive.detail
        assert not positive.detail.startswith("min eigenvalue 0.0")
        assert identity.name == "omega-identity" and not identity.passed
        assert identity.detail == "whitening failed: residual nan or its floor nan is not finite"

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

    def test_casoratian_fails_on_planted_drive(self, monkeypatch, clear_free_caches):
        # a drive off by 1e-8 shifts the Casoratian by 1e-8; the recurrence itself still holds
        config = ModelConfig(basis=BasisParams(lam=5.0, ell=1), g=2.0, nu=3.0, size=12, terms=4)
        energies = np.linspace(0.6, 3.9, 5)
        assert validate(config, energies).passed
        clear_free_caches()
        drive = reference._seed_drive
        monkeypatch.setattr(reference, "_seed_drive", lambda mu, basis: drive(mu, basis) * (1.0 + 1e-8))
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

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("steps = 8\n", "steps = 8\nbogus\n", "line 11: expected 'key = value', got 'bogus'"),
            ("g = 2.0", "g =", "line 3: empty value for 'g'"),
            ("steps = 8\n", "steps = 8\nnu = 2\n", "give only one of 'nu' and 'nu_list'"),
            ("nu_list = 1, 3", "nu_list = 1, x", "line 5: nu_list must be comma-separated numbers"),
            ("nu_list = 1, 3", "nu_list = ,", "line 5: nu_list is empty"),
            ("steps = 8", "steps = 1", "steps must be at least 2"),
        ],
        ids=["no-equals", "empty-value", "nu-and-nu_list", "nu_list-not-numbers", "nu_list-empty", "steps=1"],
    )
    def test_config_error_is_one_stderr_line(self, tmp_path, capsys, old, new, message):
        config = write_config(tmp_path, GOOD_CONFIG.replace(old, new))
        assert main(["scan", "--config", config]) == 1
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    def test_infinite_nu_is_a_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, GOOD_CONFIG.replace("nu_list = 1, 3", "nu_list = 1, inf"))
        assert main(["scan", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and "be finite" in captured.err
        assert captured.out == ""

    def test_scale_beyond_the_double_range_is_a_config_error(self, tmp_path, capsys):
        # lambda^2 overflows: named as a config error, not Python's errno text from h0_matrix
        config = write_config(tmp_path, GOOD_CONFIG.replace("lambda = 5.0", "lambda = 1e300"))
        assert main(["scan", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: scale parameter lam must have a finite square and reciprocal (got 1e+300)\n"
        assert captured.out == ""

    def test_scale_that_overflows_the_free_block_is_a_config_error(self, tmp_path, capsys):
        # lambda^2 is finite, but H0's entries (lambda^2/2)(2n + ell + 3/2) and their row sums at N = 12 are not
        config = write_config(tmp_path, GOOD_CONFIG.replace("lambda = 5.0", "lambda = 1e154"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["scan", "--config", config]) == 1
        assert caught == []
        captured = capsys.readouterr()
        assert captured.err == (
            "config error: scale parameter lam must keep H0's row sums finite at N = 12 and ell = 1: "
            "4 (lam^2/2)(2N + ell + 3/2) overflows (got 1e+154)\n"
        )
        assert captured.out == ""

    def test_largest_accepted_scale_scans_without_warning(self, tmp_path, capsys):
        largest = largest_scale(12, 1)
        config = write_config(tmp_path, GOOD_CONFIG.replace("lambda = 5.0", f"lambda = {largest!r}"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["scan", "--config", config]) == 0
        assert caught == []
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("nu,E,")
        following = float(np.nextafter(largest, math.inf))
        config = write_config(tmp_path, GOOD_CONFIG.replace("lambda = 5.0", f"lambda = {following!r}"))
        assert main(["scan", "--config", config]) == 1
        assert capsys.readouterr().err.startswith("config error: scale parameter lam must keep H0's row sums finite")

    def test_weight_outside_the_choices_is_a_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, GOOD_CONFIG + "weight = fig1\n")
        assert main(["scan", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: weight_choice must be one of ('resonance', 'sine') (got 'fig1')\n"
        assert captured.out == ""

    def test_underflowing_lambda_is_a_numerical_error(self, tmp_path, capsys):
        config = write_config(tmp_path, GOOD_CONFIG.replace("nu_list = 1, 3", "nu = 400"))
        assert main(["scan", "--config", config]) == 3
        assert "numerical error: Lambda underflowed to zero" in capsys.readouterr().err

    def test_validate_at_large_nu_fails_only_the_whitening(self, tmp_path, capsys):
        config = write_config(
            tmp_path, GOOD_CONFIG.replace("nu_list = 1, 3", "nu_list = 200, 310").replace("N = 12\nK = 4", "N = 20\nK = 8")
        )
        assert main(["validate", "--config", config]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("[FAIL]")] == [
            f"[FAIL] nu={nu} omega-identity: whitening failed: residual nan or its floor nan is not finite"
            for nu in (200, 310)
        ]
        assert sum(line.startswith("[ok ]") and "lambda-positive" in line for line in lines) == 2

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
        proc = subprocess.run([sys.executable, "-m", "jmnl.cli", "--help"], capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert "scan" in proc.stdout and "validate" in proc.stdout

    def test_runs_without_scipy(self, tmp_path):
        # the test process imports scipy, so a child blocks it before any import
        config = write_config(tmp_path, PAPER_CONFIG)
        script = "\n".join(
            [
                "import os, sys",
                "sys.modules['scipy'] = None",
                "import jmnl.cli",
                "def loaded():",
                "    return sorted(n for n, m in sys.modules.items() if n.split('.')[0] == 'scipy' and m is not None)",
                "assert not loaded(), loaded()",
                f"assert jmnl.cli.main(['scan', '--config', {config!r}, '--out', os.devnull]) == 0",
                f"assert jmnl.cli.main(['validate', '--config', {config!r}]) == 0",
                "assert not loaded(), loaded()",
            ]
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert "FAIL" not in proc.stdout and proc.stdout.count("[ok ]") == 7 * 4

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

    @pytest.mark.parametrize("scale", [1e130, largest_scale(20, 1)], ids=["1e130", "largest"])
    def test_validate_fails_casoratian_on_underflowing_sines(self, tmp_path, capsys, scale):
        # s_n ~ lam^{-5/2} is 0 here: the Casoratian's rounding bound is 0 and no longer divides the defect
        config = write_config(tmp_path, LARGE_SCALE_CONFIG.replace("lambda = 1e120", f"lambda = {scale!r}"))
        assert main(["validate", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "[FAIL] nu=1 casoratian: worst relative defect 0.000e+00 (limit 1e-08), 0.000 of the rounding bound " \
            "(0 checked, 0 pole-skipped, 4 underflow-failed: sine coefficients below the normal range)\n" in captured.out
        assert captured.out.count("[FAIL]") == 1

    def test_validate_passes_casoratian_while_sines_are_normal(self, tmp_path, capsys):
        config = write_config(tmp_path, LARGE_SCALE_CONFIG)
        assert main(["validate", "--config", config]) == 0
        assert "[ok ] nu=1 casoratian: worst relative defect 1.459e-14 (limit 1e-08), 0.023 of the rounding bound " \
            "(4 checked, 0 pole-skipped)\n" in capsys.readouterr().out

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
    @pytest.mark.parametrize("padding", [0, 10_000], ids=["first-line", "past-read-chunk"])
    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys, command, padding):
        # a Latin-1 e-acute; the offset counts bytes of the file, also past the first read chunk
        prefix = "#" * padding + "\n" + GOOD_CONFIG.replace("nu_list = 1, 3", "nu_list = 1, 3 # caf")
        path = tmp_path / "latin1.cfg"
        path.write_bytes(prefix.encode() + b"\xe9\n")
        assert main([command, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: {path} is not UTF-8 text: byte 0xe9 at offset {len(prefix)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["scan", "validate"])
    @pytest.mark.parametrize("steps", [2**60, 2**63], ids=["2**60", "2**63"])
    def test_grid_beyond_numpy_indexing_is_a_config_error(self, tmp_path, capsys, monkeypatch, command, steps):
        # rejected while the config is read: neither command reaches the library, so nothing is allocated
        for name in ("run_scan", "validate"):
            monkeypatch.setattr(cli, name, lambda *args: pytest.fail("reached the library"))
        config = write_config(tmp_path, GOOD_CONFIG.replace("steps = 8", f"steps = {steps}"))
        assert main([command, "--config", config]) == 1
        assert capsys.readouterr().err == (
            f"config error: steps x nu values must be at most {_MAX_ROWS} rows, "
            "the largest complex column numpy can index\n"
        )

    @pytest.mark.parametrize("command", ["scan", "validate"])
    @pytest.mark.parametrize("size", [2**60, 2**32], ids=["2**60", "2**32"])
    def test_block_beyond_numpy_indexing_is_a_config_error(self, tmp_path, capsys, monkeypatch, command, size):
        # max(K, 64) N^2 float64 entries: rejected while the config is read, before anything is allocated
        for name in ("run_scan", "validate"):
            monkeypatch.setattr(cli, name, lambda *args: pytest.fail("reached the library"))
        config = write_config(tmp_path, GOOD_CONFIG.replace("N = 12", f"N = {size}"))
        assert main([command, "--config", config]) == 1
        assert capsys.readouterr().err == (
            f"config error: max(K, 64) x N^2 must be at most {np.iinfo(np.intp).max // 8} entries, "
            "the largest float64 array numpy can index\n"
        )

    @pytest.mark.parametrize(
        "error, line",
        [
            (MemoryError("Unable to allocate 72.8 TiB for an array with shape (10000000000000,)"),
             "out of memory: Unable to allocate 72.8 TiB for an array with shape (10000000000000,)\n"),
            (MemoryError(), "out of memory: an allocation failed\n"),
        ],
        ids=["numpy", "bare"],
    )
    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch, error, line):
        def exhausted(request):
            raise error

        monkeypatch.setattr(cli, "run_scan", exhausted)
        assert main(["scan", "--config", write_config(tmp_path, GOOD_CONFIG)]) == 4
        captured = capsys.readouterr()
        assert captured.err == line and captured.out == ""

    @pytest.mark.parametrize("command", ["scan", "validate"])
    def test_certificate_failure_is_numerical_error(self, tmp_path, capsys, command):
        # the positivity certificate rejects this coupling matrix today
        text = GOOD_CONFIG.replace("nu_list = 1, 3", "nu = 1").replace("N = 12", "N = 40")
        config = write_config(tmp_path, text.replace("K = 4", "K = 12"))
        assert main([command, "--config", config]) == 3
        assert capsys.readouterr().err.startswith("numerical error: ")

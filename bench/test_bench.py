"""The benchmark's own test: each workload runs and passes its checks, and the
checks reject a wrong answer.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from jmnl import cli, nonlinear, scattering  # noqa: E402
from worker import Run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    command = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_passes_its_checks(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("point-queries", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def run_rounds(workload, rounds: int = 1) -> Run:
    """Warm up, run whole rounds with their checks, then the final check."""
    run = Run(workload)
    run.checked(workload.warm_up)
    for round_index in range(rounds):
        for x in workload.inputs(round_index):
            run.checked(workload.check, x, workload.call(x))
    run.checked(workload.final_check)
    return run


def test_unperturbed_point_queries_pass(tmp_path):
    assert run_rounds(workloads.PointQueries(3, str(tmp_path))).errors == []


def test_conjugated_s_is_rejected_by_the_oracle(tmp_path, monkeypatch):
    original = scattering.s_matrix

    def conjugated(energy, config):
        point = original(energy, config)
        # consistent delta, so only the oracle comparison can see it
        return replace(point, s_value=point.s_value.conjugate(), delta=-point.delta)

    monkeypatch.setattr(scattering, "s_matrix", conjugated)
    errors = run_rounds(workloads.PointQueries(3, str(tmp_path))).errors
    assert errors and all("off the oracle" in e for e in errors)


def test_conjugated_s_fails_the_phase_check():
    point = scattering.s_matrix(2.5, workloads.model_config(3.0))
    with pytest.raises(workloads.CheckError, match="arg"):
        workloads.check_s(point.energy, point.s_value.conjugate(), point.delta, point.amplitude)


def test_scaled_lambda_entry_is_rejected(tmp_path, monkeypatch):
    original = nonlinear.lambda_matrix

    def scaled(config):
        lam = original(config)
        entries = lam.entries.copy()
        entries[-1, -1] *= 1 + 1e-6
        return replace(lam, entries=entries)

    monkeypatch.setattr(nonlinear, "lambda_matrix", scaled)
    errors = run_rounds(workloads.ValidateSweep(3, str(tmp_path))).errors
    assert len(errors) == 1 and "Lambda off the oracle" in errors[0]


def test_lambda_below_the_structural_bound_is_rejected():
    lam = nonlinear.lambda_matrix(workloads.model_config(2.0))
    low = replace(lam, min_eigenvalue=0.9 / 2.0)
    with pytest.raises(workloads.CheckError, match="below 1"):
        workloads.check_lambda_bound(low, 2.0)


def test_dropped_csv_row_is_rejected(tmp_path, monkeypatch):
    original = cli.format_csv

    def dropped(rows):
        text = original(rows)
        return text[: text.rindex("\n", 0, -1) + 1]

    monkeypatch.setattr(cli, "format_csv", dropped)
    workload = workloads.PaperScan(3, str(tmp_path))
    with pytest.raises(workloads.CheckError, match="3856 CSV rows"):
        workload.warm_up()


def test_self_times_add_up_and_counts_repeat(tmp_path):
    workload = workloads.PaperScan(3, str(tmp_path))
    workload.warm_up()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        summaries = []
        for round_index in range(2):
            (path,) = workload.inputs(round_index)
            out, spans = tracer.operation(lambda: workload.call(path))
            workload.check(path, out)
            summaries.append(tracing.summarize(spans))
    finally:
        tracer.uninstall()
    assert not hasattr(cli.main, "__wrapped__")
    for summary in summaries:
        total = summary["untraced_us"] + sum(
            summary[f"{name}.self_us"] for name in tracing.SPAN_NAMES
        )
        assert total == pytest.approx(summary["op_us"], rel=1e-9)
        assert summary["scattering.s_matrix.calls"] == 7 * 551
    counts = [{k: v for k, v in s.items() if k.endswith(".calls")} for s in summaries]
    assert counts[0] == counts[1]


def test_self_time_excludes_children_on_one_thread():
    # op [0, 100] > a [10, 60] > b [20, 30]; c [70, 90]
    spans = [
        (1, 0, 1, "a", 10, 60),
        (2, 1, 1, "b", 20, 30),
        (3, 0, 1, "c", 70, 90),
        (0, -1, 1, "op", 0, 100),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 30.0, 1: 40.0, 2: 10.0, 3: 20.0}


def test_concurrent_spans_share_time():
    # two worker spans of one scan span overlap on [20, 30]
    spans = [
        (1, 0, 1, "scan", 0, 50),
        (2, 1, 2, "w", 10, 30),
        (3, 1, 3, "w", 20, 40),
        (0, -1, 1, "op", 0, 50),
    ]
    own = tracing.self_times(spans)
    assert own[2] == own[3] == 15.0
    assert own[1] == 20.0 and own[0] == 0.0
    assert sum(own.values()) == 50.0

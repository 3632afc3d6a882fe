"""Shape of the committed benchmark trajectory files BENCH_*.json.

Each file records one change measured against its parent with the harness
in bench/: per workload and side, the median of every end-to-end metric
that BENCHMARK.json declares, and the source line counts of both commits.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def declared():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    metrics = [metric["name"] for metric in benchmark["end_to_end"]]
    return workloads, metrics


def test_trajectory_exists():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_covers_declared_benchmark(path):
    record = json.loads(path.read_text())
    workloads, metrics = declared()
    assert set(workloads) <= set(record["workloads"])
    for workload in workloads:
        for side in SIDES:
            figures = record["workloads"][workload][side]
            for metric in metrics:
                assert isinstance(figures[metric]["median"], (int, float)), (workload, side, metric)
    for side in SIDES:
        lines = dict(record["src_lines"][side])
        total = lines.pop("total")
        assert total > 0 and total == sum(lines.values()), side

"""Benchmark of jmnl: one command for every workload, metric and check.

    python3 bench/run.py --workload paper-scan --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports ``jmnl`` from its
``src/``.  Each workload runs in fresh interpreters started by this script
(``bench/worker.py``): a few set-up-only starts, whose median with the
measuring start gives ``setup_s``, then one start that measures for
``--seconds``.  With ``--trace 1`` the measuring start also traces the
program's layers and reports per-layer figures instead.  The last line of
standard output is the result as JSON; the line before it gives reference
figures (operation count, p99) that are not compared between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_STARTS = 4
SETUP_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 120
# the keys of workloads.WORKLOADS, which this process does not import
WORKLOAD_NAMES = ("paper-scan", "point-queries", "validate-sweep")


def one_cpu() -> None:
    """Run the worker on one CPU, from before it loads numpy.

    Threads that hand work to each other across the two vCPUs of a shared VM
    wait for the other vCPU to be scheduled, so their cost follows the
    neighbours' load: the scan pool's median moved between 0.44 and 0.63 s,
    and validate's (OpenBLAS threads at N >= 32) between 7.0 and 8.8 ms, from
    one run to the next.  On one CPU the pool keeps its two threads and
    OpenBLAS starts one.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def start_worker(args, workdir: str, *, setup_only: bool, timeout: float) -> dict:
    command = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    if setup_only:
        command.append("--setup-only")
    started = time.monotonic()
    command += ["--started", repr(started)]
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout, preexec_fn=one_cpu
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "jmnl" / "__init__.py").is_file():
        print(f"error: no jmnl source tree at {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
            setups = []
            if not args.trace:
                for _ in range(SETUP_STARTS):
                    probe = start_worker(args, workdir, setup_only=True, timeout=SETUP_TIMEOUT_S)
                    setups.append(probe["setup_s"])
            result = start_worker(
                args, workdir, setup_only=False, timeout=args.seconds + MEASURE_TIMEOUT_S
            )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    figures = result["figures"]
    if not args.trace:
        setups.append(figures["setup_s"][0])
        figures["setup_s"] = (statistics.median(setups), "s")
    print("reference: " + json.dumps(result["reference"]))
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

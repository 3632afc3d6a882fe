"""One workload in a fresh interpreter: set up, measure, check, print JSON.

run.py starts this script; it is not meant to be run by hand.  ``--started``
is the parent's ``time.monotonic()`` just before the start, so ``setup_s``
covers interpreter start, importing ``jmnl`` and ``jmnl.cli``, generating the
inputs and one warm-up operation.  The last line of standard output is a
JSON object with the figures of this process.
"""

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import jmnl.cli  # noqa: E402,F401  (counted in setup_s, like every import here)

import tracing  # noqa: E402
import workloads  # noqa: E402


class Sample:
    """Operation times of one kind of input, in memory that does not grow.

    Past ``CAPACITY`` operations it keeps a uniform random sample of them
    (reservoir sampling, seeded), so a faster program, which fits more
    operations into a run, does not raise ``peak_rss_mb`` through this list.
    """

    CAPACITY = 1 << 16

    def __init__(self, seed: int):
        self.times_ns = np.full(self.CAPACITY, 0, dtype=np.int64)  # resident now
        self.seen = 0
        self.rng = random.Random(seed)

    def add(self, elapsed_ns: int) -> None:
        if self.seen < self.CAPACITY:
            self.times_ns[self.seen] = elapsed_ns
        else:
            slot = self.rng.randrange(self.seen + 1)
            if slot < self.CAPACITY:
                self.times_ns[slot] = elapsed_ns
        self.seen += 1

    def kept(self) -> np.ndarray:
        return self.times_ns[: min(self.seen, self.CAPACITY)]


class Run:
    """Timing, failures and check results of one measured window."""

    def __init__(self, workload, seed: int = 0):
        self.workload = workload
        self.seed = seed
        self.times_ns: dict[object, Sample] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def checked(self, check, *args):
        try:
            return check(*args)
        except workloads.CheckError as exc:
            if not self.errors:
                print(f"check failed: {exc}", file=sys.stderr)
            self.errors.append(str(exc))
            return None

    def measure(self, seconds: float, operation, on_result=None) -> None:
        """Whole rounds of ``operation(x)`` until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        round_index = 0
        while True:
            for x in self.workload.inputs(round_index):
                self.attempted += 1
                start = time.perf_counter_ns()
                try:
                    out = operation(x)
                except Exception:  # the program failed this operation
                    if not self.failed:
                        traceback.print_exc(file=sys.stderr)
                    self.failed += 1
                    continue
                elapsed = time.perf_counter_ns() - start
                kind = self.workload.kind(x)
                if kind not in self.times_ns:
                    self.times_ns[kind] = Sample(self.seed)
                self.times_ns[kind].add(elapsed)
                if on_result is not None:
                    out = on_result(round_index, x, out)
                self.checked(self.workload.check, x, out)
            round_index += 1
            if time.perf_counter() >= deadline:
                return

    def p50_ns(self) -> float:
        """Median operation time, averaged over the workload's kinds of input.

        A pooled median over kinds that take very different times (validate
        at N = 16 and at N = 48) falls in a gap between them and jumps from
        run to run; the median of each kind does not.
        """
        return statistics.fmean(float(np.median(t.kept())) for t in self.times_ns.values())


def traced_figures(run: Run, seconds: float, workload_name: str) -> dict:
    """Half the window untraced, half traced; per-layer figures."""
    run.measure(seconds / 2, run.workload.call)
    untraced_p50 = run.p50_ns()
    run.times_ns = {}
    tracer = tracing.Tracer()
    summaries: dict[object, list[dict]] = {}
    s_matrix_us: dict[object, list[float]] = {}
    first_round = []

    def record(round_index, x, result):
        out, spans = result
        kind = run.workload.kind(x)
        summaries.setdefault(kind, []).append(tracing.summarize(spans))
        s_matrix_us.setdefault(kind, []).extend(
            (end - start) / 1e3 for _, _, _, name, start, end in spans if name == "scattering.s_matrix"
        )
        if round_index == 0:
            first_round.append(spans)
        return out

    tracer.install()
    try:
        run.measure(
            seconds / 2,
            lambda x: tracer.operation(lambda: run.workload.call(x)),
            on_result=record,
        )
    finally:
        tracer.uninstall()
    traced_p50 = run.p50_ns()

    spans_path = ROOT / ".bench_out" / f"spans-{workload_name}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as handle:
        for op_index, spans in enumerate(first_round):
            for span in spans:
                handle.write(json.dumps([op_index, *span]) + "\n")

    # like op_p50: the median within each kind of input, averaged over kinds
    def per_kind(key, median=statistics.median):
        return statistics.fmean(median(s[key] for s in group) for group in summaries.values())

    def calls(name):
        return per_kind(f"{name}.calls", statistics.median_low)

    figures = {}
    for name in tracing.SPAN_NAMES:
        figures[f"{name}.calls"] = (calls(name), "count")
        figures[f"{name}.self_us"] = (per_kind(f"{name}.self_us"), "us")
    points = calls("scattering.s_matrix")
    builds = calls("nonlinear.lambda_matrix")
    figures["nonlinear.lambda_matrix.builds_per_call"] = (
        calls("orthopoly.linearization_table") / builds if builds else 0.0,
        "ratio",
    )
    figures["reference.h0_matrix.calls_per_point"] = (
        calls("reference.h0_matrix") / points if points else 0.0,
        "ratio",
    )
    linalg = sum(calls(f"linalg.{fn}") for fn in tracing.LINALG)
    figures["linalg.calls_per_point"] = (linalg / points if points else 0.0, "ratio")
    figures["scattering.s_matrix.call_p50_us"] = (
        statistics.fmean(statistics.median(t) for t in s_matrix_us.values()) if points else 0.0,
        "us",
    )
    figures["cli.run_scan.overlap"] = (per_kind("cli.run_scan.overlap"), "ratio")
    figures["untraced_us"] = (per_kind("untraced_us"), "us")
    figures["trace.op_p50_us"] = (traced_p50 / 1e3, "us")
    figures["trace.overhead_us"] = ((traced_p50 - untraced_p50) / 1e3, "us")
    return figures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    run = Run(workload, args.seed)
    run.checked(workload.warm_up)
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        figures = traced_figures(run, args.seconds, args.workload)
    else:
        run.measure(args.seconds, workload.call)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        figures = {
            "op_p50_ms": (run.p50_ns() / 1e6, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    reference = {"operations": sum(t.seen for t in run.times_ns.values())}
    if reference["operations"] >= 1000:
        times_ns = np.concatenate([t.kept() for t in run.times_ns.values()])
        reference["p99_ms"] = float(np.percentile(times_ns, 99)) / 1e6
    run.checked(workload.final_check)
    print(
        json.dumps(
            {
                "correct": not run.errors,
                "attempted": run.attempted,
                "failed": run.failed,
                "figures": figures,
                "reference": reference,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

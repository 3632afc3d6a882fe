"""In-memory span tracer for the traced benchmark run.

The tracer replaces the program's public functions, at every module that
binds them, with wrappers that record a span: (id, parent id, thread id,
name, start ns, end ns).  Nothing under ``src/`` is edited; ``uninstall``
puts the original objects back.  Spans are recorded only while an operation
is open (``Tracer.operation``), so the benchmark's own checks never show up.

Self time of a span is the part of its interval not covered by its child
spans.  When spans of several threads are open at once (the scan's worker
pool), each instant is shared evenly among the open spans that have no open
child, so the self times of one operation always add up to its duration.
A span opened on a thread with nothing open is a child of the innermost span
open on the operation's own thread (``run_scan`` waiting on its pool).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

import numpy.linalg
import scipy.linalg

import jmnl
import jmnl.cli
import jmnl.nonlinear
import jmnl.orthopoly
import jmnl.reference
import jmnl.scattering

LAYERS = {
    "orthopoly": ("linearization_table", "laguerre_orthonormal_sequence"),
    "nonlinear": ("lambda_matrix", "omega_transform", "wave_operator", "weight"),
    "reference": ("h0_matrix", "sine_coefficients", "cosine_coefficients"),
    "scattering": ("s_matrix", "green_corner_spectral", "green_corner_determinant"),
    "cli": ("main", "load_scan_request", "run_scan", "format_csv", "validate"),
}
LINALG = ("eigvalsh", "solve", "svd", "eigh", "cholesky")
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns) + tuple(
    f"linalg.{fn}" for fn in LINALG
)
_MODULES = (jmnl, jmnl.orthopoly, jmnl.reference, jmnl.nonlinear, jmnl.scattering, jmnl.cli)
OP_SPAN = 0


def _targets():
    """Function object -> span name, for everything the tracer wraps."""
    targets = {}
    for layer, names in LAYERS.items():
        module = getattr(jmnl, layer)
        for name in names:
            targets[getattr(module, name)] = f"{layer}.{name}"
    for name in LINALG:
        targets[getattr(numpy.linalg, name)] = f"linalg.{name}"
    targets[scipy.linalg.eigh] = "linalg.eigh"
    return targets


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self._ids = itertools.count(OP_SPAN + 1)
        self._local = threading.local()
        self._op_stack: list[int] | None = None
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {fn: self._wrap(name, fn) for fn, name in _targets().items()}
        for module in _MODULES + (numpy.linalg,):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op_stack = self._op_stack
            if op_stack is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else op_stack[-1]
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((span_id, parent, threading.get_ident(), name, start, end))

        return wrapper

    def operation(self, call):
        """Run ``call()`` as one traced operation; return (result, spans)."""
        self.spans = []
        stack = self._stack()
        stack.append(OP_SPAN)
        self._op_stack = stack
        start = time.perf_counter_ns()
        try:
            result = call()
        finally:
            end = time.perf_counter_ns()
            self._op_stack = None
            stack.pop()
        self.spans.append((OP_SPAN, -1, threading.get_ident(), "op", start, end))
        return result, self.spans


def self_times(spans) -> dict[int, float]:
    """Self time in ns of every span of one operation (see module docstring)."""
    parent = {span[0]: span[1] for span in spans}
    events = []
    for span_id, _, _, _, start, end in spans:
        events.append((start, 1, span_id))
        events.append((end, 0, -span_id))
    events.sort()
    open_children: dict[int, int] = {}
    leaf_since: dict[int, float] = {}
    own: dict[int, float] = defaultdict(float)
    share = 0.0
    last = events[0][0]
    for t, kind, key in events:
        if leaf_since:
            share += (t - last) / len(leaf_since)
        last = t
        if kind == 1:
            span_id, up = key, parent[key]
            if up in open_children:
                if open_children[up] == 0:
                    own[up] += share - leaf_since.pop(up)
                open_children[up] += 1
            open_children[span_id] = 0
            leaf_since[span_id] = share
        else:
            span_id = -key
            if span_id in leaf_since:
                own[span_id] += share - leaf_since.pop(span_id)
            del open_children[span_id]
            up = parent[span_id]
            if up in open_children:
                open_children[up] -= 1
                if open_children[up] == 0:
                    leaf_since[up] = share
    return own


def summarize(spans) -> dict[str, float]:
    """Per-operation counts and times of one operation's spans."""
    own = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_ns = dict.fromkeys(SPAN_NAMES, 0.0)
    s_matrix_ns = 0
    run_scan_ns = 0
    for span_id, _, _, name, start, end in spans:
        if name == "op":
            continue
        calls[name] += 1
        self_ns[name] += own[span_id]
        if name == "scattering.s_matrix":
            s_matrix_ns += end - start
        elif name == "cli.run_scan":
            run_scan_ns += end - start
    root = next(span for span in spans if span[0] == OP_SPAN)
    out = {f"{name}.calls": calls[name] for name in SPAN_NAMES}
    out.update({f"{name}.self_us": self_ns[name] / 1e3 for name in SPAN_NAMES})
    out["untraced_us"] = own[OP_SPAN] / 1e3
    out["op_us"] = (root[5] - root[4]) / 1e3
    # summed s_matrix span time over run_scan wall time: above 1 when worker
    # threads overlap, including time they wait for the interpreter lock
    out["cli.run_scan.overlap"] = s_matrix_ns / run_scan_ns if run_scan_ns else 0.0
    return out

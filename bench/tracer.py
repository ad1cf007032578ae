"""Outside-in tracing of queueprox's layers.

The tracer replaces module attributes of queueprox with wrappers that
record one span per call: name, start, end, parent span and operation id.
Nothing under ``src/`` changes; a wrapper only sees calls that go through
the attribute it replaced, which is why both the defining module and every
module that imported the name are wrapped.  Spans are kept in memory, per
thread, and written out when the benchmark ends.

Self time of a span is its duration minus the part of it that its child
spans cover.  Children on the span's own thread nest and run one after
another; the cells a ``sweep`` hands to its worker threads overlap, so
their cover is the union of their intervals.
"""
from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from array import array

import numpy as np

# Span name -> the (module, attribute) pairs it wraps.  ``Class.method``
# wraps a method on the class.  The comment after each layer names the
# end-to-end metric and workload it should move.
LAYERS = {
    # wall_s on every workload: the public entry points
    "cli.main": [("queueprox.cli", "main")],
    "harness.sweep": [("queueprox.harness", "sweep")],
    "harness.run_scenario": [("queueprox.harness", "run_scenario"),
                             ("queueprox.cli", "run_scenario")],
    # setup_s everywhere; wall_s on certify-simplex (2 builds per check)
    "harness.build_scenario": [("queueprox.harness", "build_scenario"),
                               ("queueprox.cli", "build_scenario")],
    "problems.gradient_variation": [("queueprox.problems",
                                     "gradient_variation")],
    # wall_s / cpu_s on sweep-growth: the solver loop and its oracles
    "algorithm.run": [("queueprox.algorithm", "run")],
    "algorithm.dual_weight": [("queueprox.algorithm", "queue_update"),
                              ("queueprox.algorithm", "xi_value"),
                              ("queueprox.algorithm", "alpha_update")],
    "geometry.mirror_step": [("queueprox.geometry", "mirror_step")],
    "geometry.project": [("queueprox.geometry", "project")],
    "problems.constraint_eval": [("queueprox.problems", "constraint_eval"),
                                 ("queueprox.algorithm", "constraint_eval"),
                                 ("queueprox.checks", "constraint_eval")],
    "problems.loss_grad": [("queueprox.problems", "LossSequence.grad")],
    "problems.loss_value": [("queueprox.problems", "LossSequence.value")],
    # wall_s on audit-euclidean: the audit layers
    "problems.hindsight_comparator": [("queueprox.problems",
                                       "hindsight_comparator")],
    "metrics.empirical_variation": [("queueprox.metrics",
                                     "empirical_variation")],
    "metrics.regret": [("queueprox.metrics", "regret")],
    "metrics.write_round_csv": [("queueprox.metrics", "write_round_csv")],
    # wall_s on certify-simplex (entropic) and audit-euclidean (euclidean)
    "geometry.bregman": [("queueprox.geometry", "bregman")],
    "checks.check_pushback": [("queueprox.checks", "check_pushback")],
    "checks.check_dpp_over_trace": [("queueprox.checks",
                                     "check_dpp_over_trace")],
    "checks.check_queue_lemma": [("queueprox.checks", "check_queue_lemma")],
    "checks.check_mixing": [("queueprox.checks", "check_mixing")],
}

NAMES = list(LAYERS)
MIRROR_PROX_VARIANTS = ("ompd", "ompd-simplex")


class _Thread(threading.local):
    """Per-thread span stack and span buffer."""

    def __init__(self, tracer: "Tracer"):
        self.stack: list[int] = []
        # flat records of (span id, name index, parent id, op id, start, end)
        self.spans = array("d")
        with tracer._lock:
            self.index = len(tracer._buffers)
            tracer._buffers.append((self.index, self.spans))


class Tracer:
    """Wraps queueprox's layer functions and records their spans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._buffers: list[tuple[int, array]] = []
        self._ids = itertools.count()
        self._local = _Thread(self)
        self._main_stack = self._local.stack
        self._saved: list[tuple[object, str, object]] = []
        self.op = 0  # id of the current top-level operation
        # per-span extras for the few layers that need them
        self.cpu: dict[int, float] = {}
        self.runs: dict[int, tuple[bool, int]] = {}
        self.csv_bytes: dict[int, int] = {}

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for ix, name in enumerate(NAMES):
            for module_name, attr in LAYERS[name]:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                if not hasattr(owner, attr):
                    continue  # a later version may drop the boundary
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, ix, name))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, ix: int, name: str):
        local, ids, main_stack = self._local, self._ids, self._main_stack
        perf_counter, thread_time = time.perf_counter, time.thread_time
        tracer = self
        needs_cpu = name in ("harness.run_scenario", "algorithm.run")

        def span(*args, **kwargs):
            stack = local.stack
            if stack:
                parent = stack[-1]
            elif stack is main_stack:  # a new top-level operation
                parent = -1
                tracer.op += 1
            else:
                # a worker thread's outermost span belongs to the main
                # thread's open span, the sweep that handed it the cell
                parent = main_stack[-1] if main_stack else -1
            op = tracer.op
            sid = next(ids)
            stack.append(sid)
            cpu0 = thread_time() if needs_cpu else 0.0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                local.spans.extend((sid, ix, parent, op, start, end))
            if needs_cpu:
                tracer.cpu[sid] = thread_time() - cpu0
            if name == "algorithm.run":
                tracer.runs[sid] = (args[0] in MIRROR_PROX_VARIANTS,
                                    result.horizon)
            elif name == "metrics.write_round_csv":
                path = args[1] if len(args) > 1 else kwargs["path"]
                tracer.csv_bytes[sid] = os.path.getsize(path)
            return result

        return span

    # -- collecting -------------------------------------------------------

    def collect(self):
        """Take every span recorded so far and start afresh.

        Returns the spans as rows of (id, name index, parent id, op id,
        start, end, thread index), sorted by id, and the per-span extras
        (thread CPU, run variant and horizon, CSV bytes).
        """
        with self._lock:
            parts = []
            for index, buf in self._buffers:
                rows = np.frombuffer(buf, dtype=float).reshape(-1, 6).copy()
                parts.append(np.column_stack(
                    [rows, np.full(len(rows), float(index))]))
                del buf[:]
        spans = np.vstack(parts) if parts else np.empty((0, 7))
        extras = (self.cpu, self.runs, self.csv_bytes)
        self.cpu, self.runs, self.csv_bytes = {}, {}, {}
        return spans[np.argsort(spans[:, 0], kind="stable")], extras


def layer_metrics(spans: np.ndarray, extras, pass_wall: float
                  ) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus its invariant counts."""
    cpu, runs, csv_bytes = extras
    sid = spans[:, 0].astype(np.int64)
    name = spans[:, 1].astype(np.int64)
    parent = spans[:, 2].astype(np.int64)
    start, end, thread = spans[:, 4], spans[:, 5], spans[:, 6]
    dur = end - start
    crow = np.nonzero(parent >= 0)[0]
    prow = np.searchsorted(sid, parent[crow])
    parent_name = np.full(len(spans), -1)
    parent_name[crow] = name[prow]

    cover = np.zeros(len(spans))
    same = thread[crow] == thread[prow]
    np.add.at(cover, prow[same], dur[crow[same]])
    for p in np.unique(prow[~same]):
        children = crow[~same][prow[~same] == p]
        cover[p] += _union(start[children], end[children], start[p], end[p])

    n = len(NAMES)
    calls = np.bincount(name, minlength=n)
    self_s = np.bincount(name, weights=dur - cover, minlength=n)
    metrics = {}
    for ix, layer in enumerate(NAMES):
        metrics[f"{layer}.calls"] = int(calls[ix])
        metrics[f"{layer}.self_s"] = float(self_s[ix])

    run_ix = NAMES.index("algorithm.run")
    run_ids = [int(s) for s in sid[name == run_ix]]
    rounds = sum(runs[s][1] for s in run_ids)
    metrics["algorithm.run.rounds"] = rounds
    metrics["algorithm.run.us_per_round"] = (
        1e6 * sum(cpu[s] for s in run_ids) / rounds if rounds else 0.0)

    sweep_ix = NAMES.index("harness.sweep")
    cells = np.nonzero((name == NAMES.index("harness.run_scenario"))
                       & (parent_name == sweep_ix))[0]
    metrics["harness.sweep.workers"] = max(
        (len(set(thread[cells[parent[cells] == s]]))
         for s in sid[name == sweep_ix]), default=0)
    metrics["harness.sweep.cell_wait_s"] = float(sum(
        dur[c] - cpu[int(sid[c])] for c in cells))
    metrics["metrics.write_round_csv.bytes"] = sum(csv_bytes.values())
    metrics["trace.coverage"] = float(dur[parent < 0].sum() / pass_wall)

    loop_calls = np.bincount(name[parent_name == run_ix], minlength=n)
    invariants = {
        "mirror_step calls in the loop = 2 x mirror-prox rounds": (
            int(loop_calls[NAMES.index("geometry.mirror_step")]),
            2 * sum(runs[s][1] for s in run_ids if runs[s][0])),
        "constraint_eval calls in the loop = rounds + runs": (
            int(loop_calls[NAMES.index("problems.constraint_eval")]),
            rounds + len(run_ids)),
    }
    return metrics, invariants


def _union(starts, ends, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for s, e in sorted(zip(np.clip(starts, lo, hi), np.clip(ends, lo, hi))):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def write_spans(path: str, spans: np.ndarray) -> None:
    """Save spans with their name table, compressed."""
    np.savez_compressed(path, spans=spans, names=np.array(NAMES))

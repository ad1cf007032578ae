"""Correctness gate behind the benchmark's error count.

Every operation a pass makes is counted once as attempted.  It fails when
it raises, when a CLI call exits non-zero, or when its output breaks one
of the guarantees queueprox promises on every run:

* cumulative violation <= ||Q(T+1)||_2 / gamma + 1e-9;
* a nonnegative final queue;
* finite regret and empirical variation, with the empirical variation at
  most the variation cap up to a relative 1e-9;
* a per-round CSV of exactly T+1 lines (header plus one row per round);
* finite growth slopes from a sweep;
* a replayed cell reproducing its report and its CSV byte for byte.
"""
from __future__ import annotations

import contextlib
import math
import traceback

import numpy as np

VIOLATION_TOL = 1e-9
VARIATION_RTOL = 1e-9


class Gate:
    """Counts attempted and failed operations and keeps the failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    @contextlib.contextmanager
    def op(self, label: str):
        """Count one operation; yields a list its checks append problems to.

        An exception raised inside the block fails the operation and is
        recorded with its traceback, so one broken operation does not end
        the run.
        """
        self.attempted += 1
        problems: list[str] = []
        try:
            yield problems
        except Exception:  # the benchmark must keep counting
            problems.append(traceback.format_exc(limit=4).strip())
        if problems:
            self.failed += 1
            self.notes.append(f"{label}: " + "; ".join(problems))


def report_problems(report) -> list[str]:
    """Guarantees that a metrics report alone can show."""
    problems = []
    if not math.isfinite(report.regret):
        problems.append(f"regret is {report.regret}")
    if not math.isfinite(report.v_empirical):
        problems.append(f"v_empirical is {report.v_empirical}")
    elif not report.v_empirical <= report.v_cap * (1.0 + VARIATION_RTOL):
        problems.append(f"v_empirical {report.v_empirical!r} exceeds "
                        f"v_cap {report.v_cap!r}")
    if not report.max_violation <= report.queue_bound + VIOLATION_TOL:
        problems.append(f"violation {report.max_violation!r} exceeds the "
                        f"queue bound {report.queue_bound!r}")
    return problems


def trace_problems(trace) -> list[str]:
    """Guarantees recomputed from a full trace, independent of the report."""
    problems = []
    final = np.asarray(trace.final_queue, dtype=float)
    if np.any(final < 0) or not np.all(np.isfinite(final)):
        problems.append(f"final queue {final.tolist()} is not nonnegative")
    bound = float(np.linalg.norm(final)) / trace.gamma
    worst = float(np.max(trace.g_values[1:].sum(axis=0), initial=0.0))
    if not worst <= bound + VIOLATION_TOL:
        problems.append(f"cumulative violation {worst!r} exceeds "
                        f"||Q(T+1)||/gamma = {bound!r}")
    return problems


def csv_problems(data: bytes, horizon: int) -> list[str]:
    """A per-round CSV must hold a header and one row per round."""
    lines = data.decode().splitlines()
    if len(lines) != horizon + 1:
        return [f"round CSV has {len(lines)} lines, expected {horizon + 1}"]
    if not lines[-1].startswith(f"{horizon},"):
        return [f"last CSV row is not round {horizon}"]
    return []


def sweep_problems(result) -> list[str]:
    problems = []
    for name in ("regret_slope", "violation_slope"):
        value = getattr(result, name)
        if value is None or not math.isfinite(value):
            problems.append(f"{name} is {value}")
    return problems


def same_report(a, b) -> list[str]:
    """Two runs of one config must agree to the last bit."""
    fields = ("horizon", "regret", "queue_bound", "v_cap", "v_empirical")
    problems = [f"{f}: {getattr(a, f)!r} != {getattr(b, f)!r}"
                for f in fields if getattr(a, f) != getattr(b, f)]
    if not np.array_equal(a.violations, b.violations):
        problems.append("violations differ")
    return problems


def same_bytes(replayed: bytes, reference: bytes) -> list[str]:
    if replayed == reference:
        return []
    at = next((i for i, (x, y) in enumerate(zip(replayed, reference))
               if x != y), min(len(replayed), len(reference)))
    return [f"replayed CSV differs from the reference at byte {at}"]


def check_csv_problems(data: bytes, tokens) -> list[str]:
    """The checks.csv of ``queueprox check``: one passing row per token."""
    rows = [line.split(",") for line in data.decode().splitlines()[1:]]
    names = [row[0] for row in rows]
    problems = []
    if names != list(tokens):
        problems.append(f"checks.csv lists {names}, expected {list(tokens)}")
    problems.extend(f"check {row[0]} failed" for row in rows
                    if row[-1] != "True")
    return problems

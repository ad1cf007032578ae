"""Regret, violation, and variation metrics plus their CSV serialization.

Per-round CSV columns, in order: ``t, loss, cum_loss, g_1..g_K,
cum_g_1..cum_g_K, q_l1, q_l2, alpha, xi``.  Summary CSV columns:
``scenario_id, T, regret, max_violation, queue_bound, V_cap,
V_empirical``.  Floats are written with shortest round-trip formatting,
so reruns of the same seeded scenario produce byte-identical files.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .problems import (ConstraintBlock, LossSequence, coeff_variation,
                       constraint_eval, in_order_sum, row_blocks,
                       total_loss)
from .trace import RunSummary, RunTrace

SUMMARY_COLUMNS = ("scenario_id", "T", "regret", "max_violation",
                   "queue_bound", "V_cap", "V_empirical")


def regret(trace: RunTrace | RunSummary, comparator: np.ndarray,
           seq: LossSequence, block: ConstraintBlock | None = None) -> float:
    """Cumulative loss of the run minus that of the fixed comparator.

    The comparator's losses (``problems.total_loss``: a built-in family's
    from its tables, block by block) are added in round order from 0.0.
    """
    comparator = np.asarray(comparator, dtype=float)
    if block is not None and block.size:
        values, _ = constraint_eval(block, comparator)
        if float(np.max(values)) > 1e-6:
            raise ValueError("comparator violates the constraints beyond 1e-6")
    return float(trace.losses.sum()
                 - total_loss(seq, comparator, trace.horizon))


def violation(trace: RunTrace | RunSummary, k: int | None = None):
    """Cumulative constraint values ``sum_t g_k(x_t)``.

    With ``k`` (1-based) returns that constraint's cumulative value; without
    it, the full vector.  Negative totals mean strictly feasible play.
    """
    totals = trace.g_values[1:].sum(axis=0)
    if k is None:
        return totals
    if not 1 <= k <= trace.n_constraints:
        raise IndexError(f"constraint index {k} outside 1..{trace.n_constraints}")
    return float(totals[k - 1])


def violation_bound_check(trace: RunTrace, gamma: float | None = None
                          ) -> tuple[bool, float]:
    """Certify cumulative violations against the final queue state.

    The max-rule queue satisfies ``sum_t g_k(x_t) <= ||Q(T+1)||_2 /
    gamma``.  Returns ``(holds, slack)`` where slack is the bound minus
    the worst cumulative violation (0 for constraint-free runs).
    """
    gamma = trace.gamma if gamma is None else gamma
    if gamma <= 0:
        raise ValueError("violation bound needs gamma > 0")
    bound = float(np.linalg.norm(trace.final_queue)) / gamma
    worst = float(np.max(violation(trace), initial=0.0))
    return worst <= bound + 1e-9, bound - worst


def probe_rounds(horizon: int, sample_budget: int = 32) -> np.ndarray:
    """The 0-based rounds whose decisions the variation estimate probes:
    at most ``sample_budget`` rounds spread evenly over ``0..horizon - 1``,
    ascending and without repeats."""
    if sample_budget < 1:
        raise ValueError("sample_budget must be at least 1")
    idx = np.linspace(0, horizon - 1, min(sample_budget, horizon), dtype=int)
    return idx[np.diff(idx, prepend=-1) > 0]    # non-decreasing: drop repeats


def empirical_variation(trace: RunTrace, seq: LossSequence,
                        sample_budget: int = 32) -> float:
    """Sampling-based lower estimate of the gradient-variation total.

    ``probe_variation`` over the trace's first ``min(trace.horizon,
    seq.horizon)`` rounds, probed at the start point and the decisions of
    ``probe_rounds(trace.horizon, sample_budget)``, so every probe lies in
    the base set.
    """
    idx = probe_rounds(trace.horizon, sample_budget)
    points = np.vstack([trace.x0[None, :], trace.decisions[idx]])
    return probe_variation(seq, points, min(trace.horizon, seq.horizon))


def probe_variation(seq: LossSequence, points: np.ndarray | None,
                    horizon: int) -> float:
    """Sampling-based lower estimate of the gradient-variation total.

    Sums, over rounds 2..``horizon``, the largest observed ``||grad f_t(x)
    - grad f_{t-1}(x)||_*^2``, in the dual norm of ``seq.base``, across the
    ``(n, d)`` probe ``points``.  A max over a subset never exceeds the
    true supremum, which makes this a certified lower bound able to
    validate overestimated variation caps.

    A sequence with a coefficient table has x-independent gradients, so
    its total is the exact one it stores (``coeff_variation`` at a shorter
    horizon) and ``points`` is not read (it may be None).  Any other
    sequence takes its gradients at every probe ``problems.BLOCK_ROUNDS``
    rounds at a time, one ``LossSequence.grad`` call (a custom sequence's
    callback once per round and probe) and one stacked ``dual_norm`` per
    block.  The rounds' maxima are squared with libm ``pow`` and added in
    round order, so the total has the bits of the per-round loop, and fewer
    than two rounds give 0.0.
    """
    if seq.coeffs is not None:
        if horizon == seq.horizon:
            return seq.variation
        return coeff_variation(seq.base, seq.coeffs, horizon)
    total = 0.0
    for lo, hi in row_blocks(1, horizon + 1, overlap=1):
        # rounds lo .. hi - 1: their gradients at every probe, then the
        # block's round-to-round deltas
        deltas = np.diff(seq.grad(np.arange(lo, hi)[:, None], points), axis=0)
        norms = geo.dual_norm(seq.base, deltas.reshape(-1, seq.dim))
        maxima = norms.reshape(len(deltas), -1).max(axis=1)
        total = in_order_sum(np.float_power(maxima, 2), total)
    return float(total)


@dataclass
class MetricsReport:
    """Summary metrics of one finished run."""

    scenario_id: str
    horizon: int
    regret: float
    violations: np.ndarray
    queue_bound: float
    v_cap: float
    v_empirical: float
    extras: dict = field(default_factory=dict)

    @property
    def max_violation(self) -> float:
        return float(np.max(self.violations, initial=0.0))

    def summary_row(self) -> list[str]:
        return [
            self.scenario_id, str(self.horizon), _fmt(self.regret),
            _fmt(self.max_violation), _fmt(self.queue_bound),
            _fmt(self.v_cap), _fmt(self.v_empirical),
        ]


def _fmt(v: float) -> str:
    return repr(float(v))


def round_header(n_constraints: int) -> list[str]:
    head = ["t", "loss", "cum_loss"]
    head.extend(f"g_{k + 1}" for k in range(n_constraints))
    head.extend(f"cum_g_{k + 1}" for k in range(n_constraints))
    head.extend(["q_l1", "q_l2", "alpha", "xi"])
    return head


def write_round_csv(trace: RunTrace, path: str) -> None:
    """Write the per-round CSV, ``problems.BLOCK_ROUNDS`` rows at a time and
    each block one column at a time: every float is its shortest round-trip
    ``repr``, and the cumulative columns are running sums from 0.0 in round
    order, carried from block to block; the queue norms ``q_l1`` and
    ``q_l2`` are taken row by row."""
    T, K = trace.horizon, trace.n_constraints
    # each block's sums start from the carried row (0.0 in the first block),
    # as a loop's would
    carry = np.zeros((1, K + 1))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(round_header(K)) + "\n")
        for lo, hi in row_blocks(0, T):
            losses, g = trace.losses[lo:hi], trace.g_values[lo + 1:hi + 1]
            sums = np.cumsum(np.vstack([carry, np.column_stack([losses, g])]),
                             axis=0)
            carry = sums[-1:]
            queues = trace.queues[lo + 1:hi + 1]
            floats = [losses, sums[1:, 0], *g.T, *sums[1:, 1:].T,
                      np.abs(queues).sum(axis=1),
                      np.sqrt((queues**2).sum(axis=1)), trace.alphas[lo:hi],
                      trace.xis[lo:hi]]
            columns = [map(str, range(lo + 1, hi + 1))]
            columns.extend(map(repr, col.tolist()) for col in floats)
            fh.writelines(",".join(row) + "\n" for row in zip(*columns))


def append_summary_row(report: MetricsReport, path: str) -> None:
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="\n") as fh:
        if fresh:
            fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        fh.write(",".join(report.summary_row()) + "\n")

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
from .problems import (ConstraintBlock, LossSequence, by_round, coeff_variation,
                       in_order_sum)
from .trace import RunTrace

SUMMARY_COLUMNS = ("scenario_id", "T", "regret", "max_violation",
                   "queue_bound", "V_cap", "V_empirical")


def regret(trace: RunTrace, comparator: np.ndarray, seq: LossSequence,
           block: ConstraintBlock | None = None) -> float:
    """Cumulative loss of the run minus that of the fixed comparator.

    The comparator's losses are added in round order from 0.0; a sequence
    with a coefficient table gets them from one stacked pass over it.
    """
    comparator = np.asarray(comparator, dtype=float)
    if block is not None and block.size:
        values, _ = block.eval_fn(comparator)
        if float(np.max(values)) > 1e-6:
            raise ValueError("comparator violates the constraints beyond 1e-6")
    T = trace.horizon
    if seq.coeffs is None:
        values = np.array([seq.value(t, comparator) for t in range(1, T + 1)])
    else:
        if T > seq.horizon:
            raise ValueError(f"round index {seq.horizon + 1} outside "
                             f"[0, {seq.horizon}]")
        # row-wise dot products, the same reduction as ``c_t @ comparator``
        dots = (seq.coeffs[:, None, :] @ comparator[:, None])[:, 0, 0]
        values = by_round(dots, T)
    return float(trace.losses.sum() - in_order_sum(values))


def violation(trace: RunTrace, k: int | None = None):
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


def clipped_violation(trace: RunTrace) -> np.ndarray:
    """Cumulative positive parts ``sum_t max(g_k(x_t), 0)``.

    Never smaller than the plain cumulative value; useful when negative
    excursions should not cancel past violations.
    """
    return np.maximum(trace.g_values[1:], 0.0).sum(axis=0)


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


def empirical_variation(trace: RunTrace, seq: LossSequence,
                        sample_budget: int = 32) -> float:
    """Sampling-based lower estimate of the gradient-variation total.

    Sums, over the trace's rounds 2..T, the largest observed
    ``||grad f_t(x) - grad f_{t-1}(x)||_*^2`` across sample points drawn
    from the run's own visited decisions (plus the start point), so every
    probe lies in the base set.  A max over a subset never exceeds the
    true supremum, which makes this a certified lower bound able to
    validate overestimated variation caps.

    The probes form one ``(n, d)`` stack: each round takes one stacked
    ``LossSequence.grad`` call and one stacked ``dual_norm`` call on the
    gradient deltas, and the rounds' squared maxima are summed in round
    order.  A sequence with a coefficient table has x-independent
    gradients, so its total is one stacked pass over the table's deltas.
    """
    if sample_budget < 1:
        raise ValueError("sample_budget must be at least 1")
    geom = (geo.entropic(trace.dim) if trace.variant == "ompd-simplex"
            else geo.euclidean(trace.dim))
    horizon = min(trace.horizon, seq.horizon)
    if seq.coeffs is not None:
        return coeff_variation(geom, seq.coeffs, horizon)
    if seq.grad_constant_in_x or trace.horizon == 0:
        points = trace.x0[None, :]
    else:
        idx = np.unique(np.linspace(0, trace.horizon - 1,
                                    min(sample_budget, trace.horizon),
                                    dtype=int))
        points = np.vstack([trace.x0[None, :], trace.decisions[idx]])
    total = 0.0
    prev = seq.grad(1, points)
    for t in range(2, horizon + 1):
        cur = seq.grad(t, points)
        total += float(geo.dual_norm(geom, cur - prev).max()) ** 2
        prev = cur
    return total


@dataclass
class MetricsReport:
    """Summary metrics of one finished run."""

    scenario_id: str
    horizon: int
    regret: float
    violations: np.ndarray
    clipped_violations: np.ndarray
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


def round_rows(trace: RunTrace) -> list[list[str]]:
    """Per-round CSV rows for a trace, headers excluded."""
    rows = []
    cum_loss = 0.0
    cum_g = np.zeros(trace.n_constraints)
    q_l1 = trace.queue_l1
    q_l2 = trace.queue_l2
    for i in range(trace.horizon):
        t = i + 1
        cum_loss += float(trace.losses[i])
        g_now = trace.g_values[t]
        cum_g = cum_g + g_now
        row = [str(t), _fmt(trace.losses[i]), _fmt(cum_loss)]
        row.extend(_fmt(v) for v in g_now)
        row.extend(_fmt(v) for v in cum_g)
        row.extend([_fmt(q_l1[t]), _fmt(q_l2[t]),
                    _fmt(trace.alphas[i]), _fmt(trace.xis[i])])
        rows.append(row)
    return rows


def round_header(n_constraints: int) -> list[str]:
    head = ["t", "loss", "cum_loss"]
    head.extend(f"g_{k + 1}" for k in range(n_constraints))
    head.extend(f"cum_g_{k + 1}" for k in range(n_constraints))
    head.extend(["q_l1", "q_l2", "alpha", "xi"])
    return head


def write_round_csv(trace: RunTrace, path: str) -> None:
    lines = [",".join(round_header(trace.n_constraints))]
    lines.extend(",".join(row) for row in round_rows(trace))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def append_summary_row(report: MetricsReport, path: str) -> None:
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="\n") as fh:
        if fresh:
            fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        fh.write(",".join(report.summary_row()) + "\n")

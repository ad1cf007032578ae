"""Numerical verification of the per-round certificates.

Each check re-evaluates an inequality the solver's analysis relies on,
on concrete traces or freshly sampled instances, and reports the largest
observed residual (left side minus right side, positive means violated).
The checks are deliberately independent of the solver internals: they
recompute every quantity from recorded iterates and problem oracles.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import geometry as geo
from .algorithm import mix_anchor
from .problems import ConstraintBlock, LossSequence, constraint_eval
from .trace import RunTrace

CHECK_COLUMNS = ("check", "rounds", "samples", "max_residual", "pass")

# Probe matrices are evaluated this many rows at a time: one numpy pass per
# block, with temporaries that stay small however many probes are drawn.
PROBE_BLOCK = 128


@dataclass
class CheckReport:
    """Outcome of one verification pass."""

    check: str
    rounds: int
    samples: int
    max_residual: float
    passed: bool
    tolerance: float
    skipped: int = 0
    notes: dict = field(default_factory=dict)

    def row(self) -> list[str]:
        return [self.check, str(self.rounds), str(self.samples),
                repr(float(self.max_residual)), str(self.passed)]

    def __str__(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return (f"check={self.check} rounds={self.rounds} "
                f"samples={self.samples} max_residual={self.max_residual:.3e} "
                f"{flag}")


def write_check_csv(reports: list[CheckReport], path: str) -> None:
    lines = [",".join(CHECK_COLUMNS)]
    lines.extend(",".join(r.row()) for r in reports)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# queue invariants
# ---------------------------------------------------------------------------


def check_queue_lemma(trace: RunTrace, tol: float = 1e-9) -> CheckReport:
    """Verify the queue update's four properties on a recorded trace.

    With ``Q' = max(-gamma g, Q + gamma g)`` fed by the previous decision:
    (a) ``Q' >= 0`` and ``Q' + gamma g >= 0``, exactly;
    (b) ``0.5 (||Q'||^2 - ||Q||^2) <= gamma <Q, g> + gamma^2 ||g||^2``;
    (c) ``||Q'||_2 <= ||Q||_2 + gamma ||g||_2``;
    (d) ``| ||Q'||_1 - ||Q||_1 | <= gamma ||g||_1``.
    The nonnegativity parts are exact; (b) to (d) get the floating-point
    tolerance.  The final post-run update row participates like any other.
    """
    if trace.queues.shape[0] != trace.g_values.shape[0] + 1:
        raise ValueError("trace is missing queue update inputs")
    gamma = trace.gamma
    queues = trace.queues
    feeds = trace.g_values            # feeds[t-1] drives the update to queues[t]
    updates = queues.shape[0] - 1

    res_nonneg = float(np.max(-queues, initial=-np.inf))
    res_shift = float(np.max(-(queues[1:] + gamma * feeds), initial=-np.inf))

    sq = (queues**2).sum(axis=1)
    drift_lhs = 0.5 * (sq[1:] - sq[:-1])
    drift_rhs = (gamma * np.einsum("tk,tk->t", queues[:-1], feeds)
                 + gamma**2 * (feeds**2).sum(axis=1))
    res_drift = float(np.max(drift_lhs - drift_rhs, initial=-np.inf))

    l2 = np.sqrt(sq)
    feed_l2 = np.sqrt((feeds**2).sum(axis=1))
    res_growth = float(np.max(l2[1:] - l2[:-1] - gamma * feed_l2, initial=-np.inf))

    l1 = np.abs(queues).sum(axis=1)
    feed_l1 = np.abs(feeds).sum(axis=1)
    res_change = float(np.max(np.abs(l1[1:] - l1[:-1]) - gamma * feed_l1,
                              initial=-np.inf))

    notes = {"nonneg": res_nonneg, "shifted_nonneg": res_shift,
             "drift": res_drift, "l2_growth": res_growth, "l1_change": res_change}
    passed = (res_nonneg <= 0.0 and res_shift <= 0.0
              and res_drift <= tol and res_growth <= tol and res_change <= tol)
    return CheckReport(
        check="queue", rounds=updates, samples=updates,
        max_residual=max(notes.values()), passed=passed,
        tolerance=tol, notes=notes,
    )


# ---------------------------------------------------------------------------
# per-round drift-plus-penalty bound
# ---------------------------------------------------------------------------


@dataclass
class RoundSnapshot:
    """All round-``t`` quantities the per-round bound refers to.

    Carries the iterates and gradients of one round together with the
    geometry, base set, constraint block, and queue step it ran under, so
    a snapshot is self-contained for verification.
    """

    t: int
    x_prev: np.ndarray
    x_curr: np.ndarray
    anchor: np.ndarray
    anchor_next: np.ndarray
    queue: np.ndarray          # state entering the round's primal step
    queue_next: np.ndarray     # state after the next dual update
    alpha: float
    xi: float
    loss_grad_prev: np.ndarray
    loss_grad_curr: np.ndarray
    g_prev: np.ndarray
    g_curr: np.ndarray
    geom: geo.Geometry
    base: geo.BaseSet
    block: ConstraintBlock
    gamma: float


def snapshot_from_trace(trace: RunTrace, t: int, seq: LossSequence,
                        block: ConstraintBlock, geom: geo.Geometry,
                        base: geo.BaseSet) -> RoundSnapshot:
    """Reconstruct the round-``t`` snapshot from a trace and its oracles."""
    if not 1 <= t <= trace.horizon:
        raise ValueError(f"round {t} outside the recorded horizon")
    x_prev = trace.decisions[t - 2] if t >= 2 else trace.x0
    x_curr = trace.decisions[t - 1]
    # the prox steps of the mixing variant anchor at the mixed point
    anchor = (trace.anchors[t - 1] if trace.mixed_anchors is None
              else trace.mixed_anchors[t - 1])
    return RoundSnapshot(
        t=t, x_prev=x_prev, x_curr=x_curr,
        anchor=anchor, anchor_next=trace.anchors[t],
        queue=trace.queues[t], queue_next=trace.queues[t + 1],
        alpha=float(trace.alphas[t - 1]), xi=float(trace.xis[t - 1]),
        loss_grad_prev=seq.grad(t - 1, x_prev),
        loss_grad_curr=seq.grad(t, x_curr),
        g_prev=trace.g_values[t - 1], g_curr=trace.g_values[t],
        geom=geom, base=base, block=block, gamma=trace.gamma,
    )


def check_dpp_bound(
    snapshot: RoundSnapshot,
    z_samples: np.ndarray,
    tol: float = 1e-8,
) -> CheckReport:
    """Evaluate both sides of the per-round drift-plus-penalty bound.

    Left side: queue-energy increase plus the lookback linearized loss at
    the new decision plus its proximity cost.  Right side: the movement,
    queue-penalty, comparator, anchor-shift, and pushback terms, evaluated
    at each probe point ``z``.  Positive residual means the certificate
    failed at some probe.  Residuals are reported even when passing, so
    numerical slack can be tracked over time.
    """
    s = snapshot
    geom, base, block, gamma = s.geom, s.base, s.block, s.gamma
    lhs = (0.5 * (float(s.queue_next @ s.queue_next) - float(s.queue @ s.queue))
           + float(s.loss_grad_prev @ s.x_curr)
           + s.alpha * geo.bregman(geom, base, s.x_curr, s.anchor))

    move = geo.norm(geom, s.x_curr - s.x_prev)
    fixed_terms = (0.5 * s.xi * move**2
                   + 0.5 * gamma**2 * (float(s.g_curr @ s.g_curr)
                                       - float(s.g_prev @ s.g_prev))
                   + float((s.loss_grad_prev - s.loss_grad_curr) @ s.anchor_next)
                   - s.alpha * geo.bregman(geom, base, s.anchor_next, s.x_curr))
    weights = s.queue + gamma * s.g_prev

    worst = -np.inf
    z_mat = np.atleast_2d(np.asarray(z_samples, dtype=float))
    for lo in range(0, z_mat.shape[0], PROBE_BLOCK):
        z_blk = z_mat[lo:lo + PROBE_BLOCK]
        g_blk = np.array([constraint_eval(block, z)[0] for z in z_blk])
        rhs = (fixed_terms
               + z_blk @ s.loss_grad_curr
               + s.alpha * (geo.bregman(geom, base, z_blk, s.anchor)
                            - geo.bregman(geom, base, z_blk, s.anchor_next))
               + gamma * (g_blk @ weights))
        worst = max(worst, float(np.max(lhs - rhs)))

    return CheckReport(
        check="dpp", rounds=1, samples=z_mat.shape[0],
        max_residual=float(worst), passed=bool(worst <= tol), tolerance=tol,
    )


def check_dpp_over_trace(
    trace: RunTrace,
    seq: LossSequence,
    block: ConstraintBlock,
    geom: geo.Geometry,
    base: geo.BaseSet,
    rounds: list[int] | None = None,
    n_z: int = 20,
    seed: int = 0,
    tol: float = 1e-8,
) -> CheckReport:
    """Run the per-round bound check over sampled rounds of a trace."""
    rng = np.random.default_rng(seed)
    if rounds is None:
        count = min(100, trace.horizon)
        rounds = sorted(rng.choice(trace.horizon, size=count, replace=False) + 1)
    worst = -np.inf
    for t in rounds:
        snap = snapshot_from_trace(trace, int(t), seq, block, geom, base)
        z_samples = geo.sample(base, rng, n_z)
        report = check_dpp_bound(snap, z_samples, tol)
        worst = max(worst, report.max_residual)
    return CheckReport(
        check="dpp", rounds=len(rounds), samples=len(rounds) * n_z,
        max_residual=float(worst), passed=bool(worst <= tol), tolerance=tol,
    )


# ---------------------------------------------------------------------------
# pushback property of mirror steps
# ---------------------------------------------------------------------------


def check_pushback(
    geom: geo.Geometry,
    base: geo.BaseSet,
    n_instances: int = 50,
    n_z: int = 1000,
    seed: int = 0,
    tol: float = 1e-8,
) -> CheckReport:
    """Verify mirror-step optimality with the three-point inequality.

    For ``x* = argmin <h, x> + alpha D(x, anchor)`` and any probe ``z``:
    ``<h, x*> + alpha D(x*, anchor) <= <h, z> + alpha D(z, anchor) -
    alpha D(z, x*)``.  Each instance draws its anchor, ``h`` and
    ``alpha``, then all ``n_z`` probes in one sample, and evaluates the
    probes ``PROBE_BLOCK`` rows at a time.
    """
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_instances):
        anchor = geo.sample(base, rng)[0]
        if geom.kind == geo.ENTROPIC:
            # keep the anchor safely interior
            anchor = mix_anchor(anchor, 1e-6)
        h = rng.standard_normal(geom.dim)
        alpha = float(rng.uniform(0.5, 5.0))
        x_opt = geo.mirror_step(geom, base, anchor, h, alpha)
        lhs = float(h @ x_opt) + alpha * geo.bregman(geom, base, x_opt, anchor)
        z_mat = geo.sample(base, rng, n_z)
        for lo in range(0, n_z, PROBE_BLOCK):
            z_blk = z_mat[lo:lo + PROBE_BLOCK]
            rhs = (z_blk @ h
                   + alpha * (geo.bregman(geom, base, z_blk, anchor)
                              - geo.bregman(geom, base, z_blk, x_opt)))
            worst = max(worst, float(np.max(lhs - rhs)))
    return CheckReport(
        check="pushback", rounds=n_instances, samples=n_instances * n_z,
        max_residual=float(worst), passed=bool(worst <= tol), tolerance=tol,
    )


# ---------------------------------------------------------------------------
# uniform-mixing inequalities (simplex variant)
# ---------------------------------------------------------------------------


def _kl_rows(z_mat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """KL of each row of ``z_mat`` against ``y``; +inf where undefined."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(z_mat) - np.log(y)[None, :]
        terms = np.where(z_mat > 0, z_mat * ratio, 0.0)
    return terms.sum(axis=1) + (float(y.sum()) - z_mat.sum(axis=1))


def check_mixing(
    x_tilde: np.ndarray,
    nu: float,
    d: int,
    z_samples: np.ndarray,
    tol: float = 1e-9,
) -> CheckReport:
    """Verify the three uniform-mixing inequalities.

    ``x_tilde`` is one simplex point or a stack of them (one per round).
    With ``y = (1 - nu) x + nu / d``: the divergence of any probe against
    ``y`` exceeds that against ``x`` by at most ``nu log d``; it is at
    most ``log(d / nu)`` outright; and ``||y - x||_1 <= 2 nu``.  Probe
    pairs whose divergence against ``x`` is infinite cannot witness the
    first inequality; they are skipped and the skip count reported.
    """
    anchors = np.atleast_2d(np.asarray(x_tilde, dtype=float))
    z_mat = np.atleast_2d(np.asarray(z_samples, dtype=float))
    if anchors.shape[1] != d or z_mat.shape[1] != d:
        raise ValueError(f"points do not match the stated dimension {d}")
    if not 0 < nu <= 1:
        raise ValueError("mixing weight must lie in (0, 1]")
    worst = -np.inf
    skipped = 0
    cap_shift = nu * np.log(d)
    cap_abs = np.log(d / nu)
    for x in anchors:
        y = mix_anchor(x, nu)
        worst = max(worst, float(np.abs(y - x).sum()) - 2.0 * nu)
        kl_y = _kl_rows(z_mat, y)
        worst = max(worst, float(np.max(kl_y)) - cap_abs)
        kl_x = _kl_rows(z_mat, x)
        finite = np.isfinite(kl_x)
        skipped += int(np.sum(~finite))
        if np.any(finite):
            worst = max(worst, float(np.max(kl_y[finite] - kl_x[finite]))
                        - cap_shift)
    return CheckReport(
        check="mixing", rounds=anchors.shape[0],
        samples=anchors.shape[0] * z_mat.shape[0],
        max_residual=float(worst), passed=bool(worst <= tol),
        tolerance=tol, skipped=skipped,
    )


# ---------------------------------------------------------------------------
# smoothness (descent) inequality for declared constants
# ---------------------------------------------------------------------------


def check_descent_lemma(
    value_fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    lipschitz: float,
    geom: geo.Geometry,
    base: geo.BaseSet,
    n_pairs: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Verify ``f(x) <= f(y) + <grad f(y), x - y> + (L/2) ||x - y||^2``.

    Sampled over pairs from the base set, in the geometry norm, against a
    declared constant ``L``.  An understated constant yields a positive
    residual.
    """
    rng = np.random.default_rng(seed)
    xs = geo.sample(base, rng, n_pairs)
    ys = geo.sample(base, rng, n_pairs)
    worst = -np.inf
    for x, y in zip(xs, ys):
        gap = (value_fn(x) - value_fn(y) - float(grad_fn(y) @ (x - y))
               - 0.5 * lipschitz * geo.norm(geom, x - y) ** 2)
        worst = max(worst, gap)
    return CheckReport(
        check="descent", rounds=n_pairs, samples=n_pairs,
        max_residual=float(worst), passed=bool(worst <= tol), tolerance=tol,
    )

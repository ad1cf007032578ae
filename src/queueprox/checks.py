"""Numerical verification of the per-round certificates.

Each check re-evaluates an inequality the solver's analysis relies on,
on concrete traces or freshly sampled instances, and reports the largest
observed residual (left side minus right side, positive means violated);
a NaN residual anywhere makes that report NaN and failed.
The checks are deliberately independent of the solver internals: they
recompute every quantity from recorded iterates and problem oracles.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import geometry as geo
from .algorithm import VARIANT_SIMPLEX, mix_anchor
from .problems import (ConstraintBlock, LossSequence, constraint_eval,
                       row_blocks)
from .trace import RunTrace

CHECK_COLUMNS = ("check", "rounds", "samples", "max_residual", "pass")

# Probe matrices are evaluated this many rows at a time: one numpy pass per
# block, with temporaries that stay small however many probes are drawn.
PROBE_BLOCK = 128


def _mixing_block(n_z: int) -> int:
    """Anchors per ``check_mixing`` pass against ``n_z`` probes (at least
    one): about ``4 * PROBE_BLOCK`` anchor-probe pairs.  A pair costs little
    arithmetic, so ``PROBE_BLOCK`` pairs would spend most of a pass on call
    overhead; four times as many keep the temporaries (about 137 kB for 20
    probes in d = 10) below ``check_pushback``'s."""
    return max(1, 4 * PROBE_BLOCK // n_z)


def _fold(worst: float, value: float) -> float:
    """The larger of two residuals, NaN if either is: Python's ``max``
    keeps its first argument against a NaN, which would let a NaN residual
    pass."""
    return value if value > worst or value != value else worst


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
    The queues are walked in ``problems.BLOCK_ROUNDS``-row blocks, each with
    the next block's first row, so every update falls inside one block; the
    residuals are taken row by row and their maxima folded exactly.
    """
    if trace.queues.shape[0] != trace.g_values.shape[0] + 1:
        raise ValueError("trace is missing queue update inputs")
    gamma = trace.gamma
    feeds = trace.g_values            # feeds[t-1] drives the update to queues[t]
    updates = trace.queues.shape[0] - 1

    notes = dict.fromkeys(("nonneg", "shifted_nonneg", "drift", "l2_growth",
                           "l1_change"), -np.inf)
    for lo, hi in row_blocks(0, updates + 1, overlap=1):
        queues, feed = trace.queues[lo:hi], feeds[lo:hi - 1]
        sq = (queues**2).sum(axis=1)
        l2 = np.sqrt(sq)
        l1 = np.abs(queues).sum(axis=1)
        residuals = {
            "nonneg": -queues,
            "shifted_nonneg": -(queues[1:] + gamma * feed),
            "drift": 0.5 * (sq[1:] - sq[:-1]) - (
                gamma * np.einsum("tk,tk->t", queues[:-1], feed)
                + gamma**2 * (feed**2).sum(axis=1)),
            "l2_growth": (l2[1:] - l2[:-1]
                          - gamma * np.sqrt((feed**2).sum(axis=1))),
            "l1_change": (np.abs(l1[1:] - l1[:-1])
                          - gamma * np.abs(feed).sum(axis=1)),
        }
        for key, values in residuals.items():
            notes[key] = float(np.max(values, initial=notes[key]))

    res_nonneg, res_shift, res_drift, res_growth, res_change = notes.values()
    passed = (res_nonneg <= 0.0 and res_shift <= 0.0
              and res_drift <= tol and res_growth <= tol and res_change <= tol)
    return CheckReport(
        check="queue", rounds=updates, samples=updates,
        max_residual=functools.reduce(_fold, notes.values()), passed=passed,
        tolerance=tol, notes=notes,
    )


# ---------------------------------------------------------------------------
# per-round drift-plus-penalty bound
# ---------------------------------------------------------------------------


def _dpp_residual(trace: RunTrace, t: int, seq: LossSequence,
                  block: ConstraintBlock, z: np.ndarray) -> float:
    """Largest residual of the round-``t`` drift-plus-penalty bound over the
    probes ``z`` (one point or an ``(n, d)`` stack), read from the trace.

    Left side: queue-energy increase plus the lookback linearized loss at
    the new decision plus its proximity cost.  Right side: the movement,
    queue-penalty, comparator, anchor-shift, and pushback terms, evaluated
    at each probe point.  Positive means the certificate failed at some
    probe.  The probes are evaluated ``PROBE_BLOCK`` rows at a time, their
    divergences against the anchor and the next anchor in one ``bregman``
    call.
    """
    if not 1 <= t <= trace.horizon:
        raise ValueError(f"round {t} outside the recorded horizon")
    x_prev = trace.decisions[t - 2] if t >= 2 else trace.x0
    x_curr = trace.decisions[t - 1]
    # the prox steps of the mixing variant anchor at the mixed point
    anchor = trace.anchors[t - 1]
    if trace.variant == VARIANT_SIMPLEX:
        anchor = mix_anchor(anchor, trace.nu)
    anchor_next = trace.anchors[t]
    queue, queue_next = trace.queues[t], trace.queues[t + 1]
    alpha, xi = float(trace.alphas[t - 1]), float(trace.xis[t - 1])
    grad_prev, grad_curr = seq.grad(t - 1, x_prev), seq.grad(t, x_curr)
    g_prev, g_curr = trace.g_values[t - 1], trace.g_values[t]
    gamma, base = trace.gamma, seq.base

    lhs = (0.5 * (float(queue_next @ queue_next) - float(queue @ queue))
           + float(grad_prev @ x_curr)
           + alpha * geo.bregman(base, x_curr, anchor))
    move = geo.norm(base, x_curr - x_prev)
    fixed_terms = (0.5 * xi * move**2
                   + 0.5 * gamma**2 * (float(g_curr @ g_curr)
                                       - float(g_prev @ g_prev))
                   + float((grad_prev - grad_curr) @ anchor_next)
                   - alpha * geo.bregman(base, anchor_next, x_curr))
    weights = queue + gamma * g_prev
    refs = np.stack([anchor, anchor_next])

    worst = -np.inf
    z_mat = np.atleast_2d(np.asarray(z, dtype=float))
    for lo in range(0, z_mat.shape[0], PROBE_BLOCK):
        z_blk = z_mat[lo:lo + PROBE_BLOCK]
        g_blk, _ = constraint_eval(block, z_blk)
        # D(z, anchor) - D(z, anchor_next), the two rows of one stacked call
        rhs = (fixed_terms
               + z_blk @ grad_curr
               + alpha * np.subtract(*geo.bregman(base, z_blk, refs))
               + gamma * (g_blk @ weights))
        worst = _fold(worst, float(np.max(lhs - rhs)))
    return worst


def check_dpp_over_trace(
    trace: RunTrace,
    seq: LossSequence,
    block: ConstraintBlock,
    rounds: list[int] | None = None,
    n_z: int = 20,
    seed: int = 0,
    tol: float = 1e-8,
) -> CheckReport:
    """Run the per-round bound check over sampled rounds of a trace.

    Without ``rounds``, up to 100 distinct rounds are drawn first; then
    each round draws its ``n_z`` probes from ``seq.base`` in turn.
    """
    rng = np.random.default_rng(seed)
    if rounds is None:
        count = min(100, trace.horizon)
        rounds = sorted(rng.choice(trace.horizon, size=count, replace=False) + 1)
    worst = -np.inf
    for t in rounds:
        z = geo.sample(seq.base, rng, n_z)
        worst = _fold(worst, _dpp_residual(trace, int(t), seq, block, z))
    return CheckReport(
        check="dpp", rounds=len(rounds), samples=len(rounds) * n_z,
        max_residual=float(worst), passed=bool(worst <= tol), tolerance=tol,
    )


# ---------------------------------------------------------------------------
# pushback property of mirror steps
# ---------------------------------------------------------------------------


def check_pushback(
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
    probes ``PROBE_BLOCK`` rows at a time, against both references
    (anchor and ``x*``) in one ``bregman`` call.
    """
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_instances):
        anchor = geo.sample(base, rng)[0]
        if isinstance(base, geo.Simplex):
            # keep the anchor safely interior
            anchor = mix_anchor(anchor, 1e-6)
        h = rng.standard_normal(base.dim)
        alpha = float(rng.uniform(0.5, 5.0))
        x_opt = geo.mirror_step(base, anchor, h, alpha)
        lhs = float(h @ x_opt) + alpha * geo.bregman(base, x_opt, anchor)
        refs = np.stack([anchor, x_opt])
        z_mat = geo.sample(base, rng, n_z)
        for lo in range(0, n_z, PROBE_BLOCK):
            z_blk = z_mat[lo:lo + PROBE_BLOCK]
            # D(z, anchor) - D(z, x*), the two rows of one stacked call
            rhs = z_blk @ h + alpha * np.subtract(
                *geo.bregman(base, z_blk, refs))
            worst = _fold(worst, float(np.max(lhs - rhs)))
    return CheckReport(
        check="pushback", rounds=n_instances, samples=n_instances * n_z,
        max_residual=float(worst), passed=bool(worst <= tol), tolerance=tol,
    )


# ---------------------------------------------------------------------------
# uniform-mixing inequalities (simplex variant)
# ---------------------------------------------------------------------------


def check_mixing(
    x_tilde: np.ndarray,
    nu: float,
    d: int,
    z_samples: np.ndarray,
    tol: float = 1e-9,
) -> CheckReport:
    """Verify the three uniform-mixing inequalities.

    ``x_tilde`` is one simplex point or an ``(m, d)`` stack of them (one
    per round).  With ``y = (1 - nu) x + nu / d``: the divergence of any
    probe against ``y`` exceeds that against ``x`` by at most
    ``nu log d``; it is at most ``log(d / nu)`` outright; and
    ``||y - x||_1 <= 2 nu``.  Probe pairs whose divergence against ``x``
    is +inf cannot witness the first inequality; they are skipped and the
    skip count reported (a NaN divergence is not skipped: it fails).
    Anchors are taken ``_mixing_block(n_z)`` at a time, so each divergence
    pass covers about ``4 * PROBE_BLOCK`` anchor-probe pairs.
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
    step = _mixing_block(z_mat.shape[0])
    for lo in range(0, anchors.shape[0], step):
        x_blk = anchors[lo:lo + step]
        y_blk = mix_anchor(x_blk, nu)
        worst = _fold(worst, float(np.max(np.abs(y_blk - x_blk).sum(axis=1)))
                      - 2.0 * nu)
        # (anchors, probes) divergences; +inf where an anchor has no mass
        kl_y = geo._entropic(z_mat, y_blk)
        worst = _fold(worst, float(np.max(kl_y)) - cap_abs)
        kl_x = geo._entropic(z_mat, x_blk)
        kept = kl_x != np.inf          # a NaN is kept, and fails the check
        skipped += int(np.sum(~kept))
        worst = _fold(worst, float(np.max(kl_y[kept] - kl_x[kept],
                                          initial=-np.inf)) - cap_shift)
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
    base: geo.BaseSet,
    n_pairs: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Verify ``f(x) <= f(y) + <grad f(y), x - y> + (L/2) ||x - y||^2``.

    Sampled over pairs from the base set, in its norm, against a
    declared constant ``L``.  An understated constant yields a positive
    residual.
    """
    rng = np.random.default_rng(seed)
    xs = geo.sample(base, rng, n_pairs)
    ys = geo.sample(base, rng, n_pairs)
    worst = -np.inf
    for x, y in zip(xs, ys):
        gap = (value_fn(x) - value_fn(y) - float(grad_fn(y) @ (x - y))
               - 0.5 * lipschitz * geo.norm(base, x - y) ** 2)
        worst = _fold(worst, gap)
    return CheckReport(
        check="descent", rounds=n_pairs, samples=n_pairs,
        max_residual=float(worst), passed=bool(worst <= tol), tolerance=tol,
    )

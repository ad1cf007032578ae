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
from .problems import ConstraintBlock, LossSequence, constraint_eval
from .trace import RunTrace

CHECK_COLUMNS = ("check", "rounds", "samples", "max_residual", "pass")

# Floats, 112 kB, that the arrays of one block of a blocked pass may take
# at once, numpy's buffers included (a ufunc that broadcasts copies each
# broadcast operand into a buffer as large as its output).  Each pass takes
# as many rows as fit, at what tracemalloc shows one row takes: a pushback
# probe 6 d floats (its point, its logs, its divergence terms against two
# references, their buffer), a DPP probe (7 + 2 K) d (the same, with its
# constraint values and Jacobian) and a round of DPP terms 16 d, a mixing
# anchor 5 n_z d / 2 (its divergence terms against every probe, their
# buffer), a queue update 4 K + 12.  Set so that no check's peak exceeds
# what pushback took over its whole probe matrix in 128-row blocks before:
# at most 118 kB against 164 kB over the trace at d = 10, 107 kB against
# 124 kB at d = 3.
PROBE_FLOATS = 14336


def _rows(row_floats: int, multiple: int = 1) -> int:
    """Rows of ``row_floats`` floats each that fit ``PROBE_FLOATS``: a
    multiple of ``multiple``, and at least one multiple.

    A block of probes is taken through ``z @ h``, a BLAS matrix-vector
    product, which takes its rows four at a time: rows keep their bits
    under a split into blocks of ``4 k`` rows, and only then, so probe
    passes ask for ``multiple=4``.
    """
    return max(1, PROBE_FLOATS // (max(1, row_floats) * multiple)) * multiple


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
    The queues are walked in blocks of as many updates as ``PROBE_FLOATS``
    holds, each block with the next block's first row, so every update
    falls inside one block; the residuals are taken row by row and their
    maxima folded exactly.
    """
    if trace.queues.shape[0] != trace.g_values.shape[0] + 1:
        raise ValueError("trace is missing queue update inputs")
    gamma = trace.gamma
    feeds = trace.g_values            # feeds[t-1] drives the update to queues[t]
    updates = trace.queues.shape[0] - 1
    step = _rows(4 * trace.queues.shape[1] + 12)

    notes = dict.fromkeys(("nonneg", "shifted_nonneg", "drift", "l2_growth",
                           "l1_change"), -np.inf)
    for lo in range(0, updates, step):
        hi = min(lo + step, updates) + 1
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


def _dpp_terms(trace: RunTrace, seq: LossSequence, t: np.ndarray):
    """The probe-free terms of the drift-plus-penalty bound at rounds
    ``t``, each stacked over the rounds: ``(lhs, fixed_terms, grad_curr,
    alpha, weights, refs)``, the last the ``(len(t), 2, d)`` anchor and
    next anchor."""
    base, gamma = seq.base, trace.gamma
    x_curr = trace.decisions[t - 1]
    x_prev = trace.decisions[t - 2]       # row -1 for round 1, set below
    x_prev[t == 1] = trace.x0
    # the prox steps of the mixing variant anchor at the mixed point
    anchor = trace.anchors[t - 1]
    if trace.variant == VARIANT_SIMPLEX:
        anchor = mix_anchor(anchor, trace.nu)
    anchor_next = trace.anchors[t]
    queue, queue_next = trace.queues[t], trace.queues[t + 1]
    alpha, xi = trace.alphas[t - 1], trace.xis[t - 1]
    grad_prev, grad_curr = seq.grad(t - 1, x_prev), seq.grad(t, x_curr)
    g_prev, g_curr = trace.g_values[t - 1], trace.g_values[t]

    def paired(x, y):
        """``D(x[i], y[i])`` for each row."""
        return geo.bregman(base, x[:, None], y[:, None])[:, 0, 0]

    row_dot = geo._row_dot
    lhs = (0.5 * (row_dot(queue_next, queue_next) - row_dot(queue, queue))
           + row_dot(grad_prev, x_curr)
           + alpha * paired(x_curr, anchor))
    # libm ``pow``, as Python's float power which the one-round formula has
    # always taken; it rounds apart from ``move * move`` in 1 case in 1300
    with np.errstate(over="ignore"):
        move_sq = np.float_power(geo.norm(base, x_curr - x_prev), 2)
    fixed_terms = (0.5 * xi * move_sq
                   + 0.5 * gamma**2 * (row_dot(g_curr, g_curr)
                                       - row_dot(g_prev, g_prev))
                   + row_dot(grad_prev - grad_curr, anchor_next)
                   - alpha * paired(anchor_next, x_curr))
    weights = queue + gamma * g_prev
    refs = np.stack([anchor, anchor_next], axis=1)
    return lhs, fixed_terms, grad_curr, alpha, weights, refs


def _dpp_residuals(trace: RunTrace, seq: LossSequence,
                   block: ConstraintBlock, rounds, probe_blocks) -> np.ndarray:
    """Largest residual of the drift-plus-penalty bound at each of
    ``rounds``, over that round's probes, read from the trace.

    Left side: queue-energy increase plus the lookback linearized loss at
    the new decision plus its proximity cost.  Right side: the movement,
    queue-penalty, comparator, anchor-shift, and pushback terms, evaluated
    at each probe point.  Positive means the certificate failed at some
    probe.

    ``probe_blocks`` yields ``(lo, hi, z)`` in round order: probes of
    rounds ``rounds[lo:hi]``, shaped ``(hi - lo, m, d)``, whole rounds or
    a piece of one round.  The rounds' terms are gathered
    (``_dpp_terms``) as stacks over as many rounds as ``PROBE_FLOATS``
    holds at ``16 d`` floats a round; a probe block takes one
    ``constraint_eval`` and one ``bregman`` call, every probe against its
    own round's anchor and next anchor, and one matrix-vector product per
    round for each linear term.  A round's residual has the bits of the
    one-round formula on the same probes split at the same rows.
    """
    t = np.asarray(rounds, dtype=int).reshape(-1)
    outside = t[(t < 1) | (t > trace.horizon)]
    if outside.size:
        raise ValueError(f"round {outside[0]} outside the recorded horizon")
    gamma, d = trace.gamma, trace.dim
    gathered = _rows(16 * d)
    worst = np.full(t.shape, -np.inf)
    first = last = 0                  # the rounds whose terms are gathered
    for lo, hi, z in probe_blocks:
        if hi > last:
            first, last = lo, max(hi, min(lo + gathered, len(t)))
            lhs, fixed_terms, grad_curr, alpha, weights, refs = _dpp_terms(
                trace, seq, t[first:last])
        at = slice(lo - first, hi - first)
        # the values alone: a Jacobian kept bound would outlive the block
        g_blk = constraint_eval(block, z.reshape(-1, d))[0].reshape(
            z.shape[:2] + (block.size,))
        # D(z, anchor) - D(z, anchor_next), the two rows of each round's
        # entry of one batched call
        div = geo.bregman(seq.base, z, refs[at])
        rhs = (fixed_terms[at, None]
               + (z @ grad_curr[at, :, None])[..., 0]
               + alpha[at, None] * (div[:, 0] - div[:, 1])
               + gamma * (g_blk @ weights[at, :, None])[..., 0])
        np.maximum(worst[lo:hi],
                   np.max(lhs[at, None] - rhs, axis=1, initial=-np.inf),
                   out=worst[lo:hi])
    return worst


def _dpp_rows(seq: LossSequence, block: ConstraintBlock) -> int:
    """Probes per block of the DPP pass, at ``(7 + 2 K) d`` floats a probe
    (see ``PROBE_FLOATS``)."""
    return _rows((7 + 2 * block.size) * seq.dim, multiple=4)


def _dpp_residual(trace: RunTrace, t: int, seq: LossSequence,
                  block: ConstraintBlock, z: np.ndarray) -> float:
    """Largest residual of the round-``t`` drift-plus-penalty bound over the
    probes ``z`` (one point or an ``(n, d)`` stack): ``_dpp_residuals`` on
    the one round, its probes taken ``_dpp_rows`` at a time."""
    z_mat = np.atleast_2d(np.asarray(z, dtype=float))
    rows = _dpp_rows(seq, block)
    blocks = ((0, 1, z_mat[None, lo:lo + rows])
              for lo in range(0, len(z_mat), rows))
    return float(_dpp_residuals(trace, seq, block, [t], blocks)[0])


def _drawn_dpp_blocks(base: geo.BaseSet, rng: np.random.Generator,
                      n_rounds: int, n_z: int, rows: int):
    """``_dpp_residuals``'s probe blocks for ``n_z`` probes per round,
    drawn from ``base`` round by round: ``rows // n_z`` whole rounds to a
    block while a round fits in ``rows``, else each round in ``rows``-probe
    pieces."""
    if n_z > rows:
        for r in range(n_rounds):
            for z in geo.sample_blocks(base, rng, n_z, rows):
                yield r, r + 1, z[None]
        return
    step = rows // max(n_z, 1)
    for lo in range(0, n_rounds, step):
        hi = min(lo + step, n_rounds)
        z = np.empty((hi - lo, n_z, base.dim))
        for i in range(hi - lo):
            # a ball's draws cannot be merged across rounds
            z[i] = geo.sample(base, rng, n_z)
        yield lo, hi, z


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
    each round draws its ``n_z`` probes from ``seq.base`` in turn, and
    ``_dpp_residuals`` takes them in blocks of at most ``_dpp_rows``.
    """
    rng = np.random.default_rng(seed)
    if rounds is None:
        count = min(100, trace.horizon)
        rounds = sorted(rng.choice(trace.horizon, size=count, replace=False) + 1)
    blocks = _drawn_dpp_blocks(seq.base, rng, len(rounds), n_z,
                               _dpp_rows(seq, block))
    residuals = _dpp_residuals(trace, seq, block, rounds, blocks)
    worst = float(np.max(residuals, initial=-np.inf))
    return CheckReport(
        check="dpp", rounds=len(rounds), samples=len(rounds) * n_z,
        max_residual=worst, passed=bool(worst <= tol), tolerance=tol,
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
    ``alpha``, then its ``n_z`` probes through ``geometry.sample_blocks``,
    as one sample would draw them, one block of as many probes as
    ``PROBE_FLOATS`` holds at a time (a ball's in one draw), and
    evaluates each block against both references (anchor and ``x*``) in
    one ``bregman`` call.
    """
    rng = np.random.default_rng(seed)
    rows = _rows(6 * base.dim, multiple=4)
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
        for z_blk in geo.sample_blocks(base, rng, n_z, rows):
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
    Anchors are taken as many at a time as ``PROBE_FLOATS`` holds, at
    ``5 n_z d / 2`` floats an anchor.
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
    step = _rows(5 * z_mat.size // 2)
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
    # libm ``pow`` with no overflow warning, as Python's ``**`` squares
    with np.errstate(over="ignore"):
        bounds = 0.5 * lipschitz * np.float_power(geo.norm(base, xs - ys), 2)
    worst = -np.inf
    for x, y, bound in zip(xs, ys, bounds.tolist()):
        gap = value_fn(x) - value_fn(y) - float(grad_fn(y) @ (x - y)) - bound
        worst = _fold(worst, gap)
    return CheckReport(
        check="descent", rounds=n_pairs, samples=n_pairs,
        max_residual=float(worst), passed=bool(worst <= tol), tolerance=tol,
    )

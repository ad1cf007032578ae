"""Online primal-dual mirror prox with virtual constraint queues.

``run`` is the solver: one loop over rounds, each a queue (dual) update, a
proximal-weight update and two mirror steps; its docstring spells the
round out.  ``run_batch`` takes the same rounds for a batch of cells at
once, bit for bit, and keeps only what a metrics report reads (a
``RunSummary``); ``harness.sweep`` runs its grids through it.  The base
set decides the geometry: the general variant runs on
a ball or a box, whose euclidean divergence has a finite diameter, the
simplex variant on the entropic simplex, and a plain primal-dual
projected-gradient baseline with no guarantees, also on a ball or a box,
is included for comparison runs.  The remaining functions are the round's
primitives, public so tests and audits can replay single steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import (DimensionMismatchError, DomainError, OracleError,
                     ScheduleError, UnsupportedFamilyError)
from .problems import (ConstraintBlock, LossSequence, by_round,
                       constraint_eval, row_blocks)
from .trace import RunSummary, RunTrace

VARIANT_GENERAL = "ompd"
VARIANT_SIMPLEX = "ompd-simplex"
VARIANT_BASELINE = "pd-baseline"
VARIANTS = (VARIANT_GENERAL, VARIANT_SIMPLEX, VARIANT_BASELINE)


@dataclass(frozen=True)
class HyperParams:
    """Solver constants derived from the variation budget.

    ``eta`` scales like the inverse square root of the variation cap and
    trades off against regret; ``gamma`` is the queue step and penalty
    scale; ``nu`` is the uniform-mixing weight of the simplex variant,
    ``1 / horizon``.
    """

    eta: float
    gamma: float
    nu: float | None = None
    v_cap: float = 0.0

    def __post_init__(self):
        # gamma = 0 is legal: it disables the queue entirely, reducing the
        # solver to an unconstrained online mirror prox
        if self.eta <= 0 or self.gamma < 0:
            raise ValueError("eta must be positive and gamma nonnegative")
        if self.nu is not None and not 0 < self.nu <= 1:
            raise ValueError("mixing weight must lie in (0, 1]")


@dataclass
class Scenario:
    """Everything one run needs: problem and constants, on ``seq.base``."""

    block: ConstraintBlock
    seq: LossSequence
    hp: HyperParams

    @property
    def base(self) -> geo.BaseSet:
        return self.seq.base


def hyperparams_from_variation(
    v_cap: float,
    grad_lipschitz: float,
    horizon: int | None = None,
    variant: str = VARIANT_GENERAL,
) -> HyperParams:
    """Set ``eta`` and ``gamma`` from the variation cap.

    ``eta = max(v_cap, L_f^2) ** -0.5`` and ``gamma = max(v_cap, L_f^2)
    ** 0.25``.  The simplex variant additionally needs the horizon to set
    its mixing weight ``nu = 1 / horizon``.
    """
    if v_cap < 0 or not np.isfinite(v_cap):
        raise ValueError("variation cap must be finite and nonnegative")
    if grad_lipschitz <= 0:
        raise ValueError("grad_lipschitz must be positive")
    level = max(v_cap, grad_lipschitz**2)
    nu = None
    if variant == VARIANT_SIMPLEX:
        if horizon is None or horizon < 1:
            raise ValueError("simplex variant needs a positive horizon")
        nu = 1.0 / horizon
    return HyperParams(eta=level**-0.5, gamma=level**0.25, nu=nu,
                       v_cap=float(v_cap))


def queue_update(queue: np.ndarray, g_prev: np.ndarray, gamma: float) -> np.ndarray:
    """Virtual queue step ``Q_k <- max(-gamma * g_k, Q_k + gamma * g_k)``.

    The max rule keeps both ``Q_k`` and ``Q_k + gamma * g_k`` nonnegative,
    which is what lets queue norms certify cumulative violation.
    """
    step = gamma * g_prev
    return np.maximum(-step, queue + step)


def xi_value(queue: np.ndarray, gamma: float, curvature: float,
             value_bound: float, lipschitz_total: float) -> float:
    """Penalty curvature proxy entering the proximal weight.

    ``xi = gamma * L_g * ||Q||_1 + gamma^2 * (L_g * G + H^2)`` where
    ``L_g`` is the constraint gradient Lipschitz constant, ``G`` the bound
    on summed constraint magnitudes, and ``H`` the summed value Lipschitz
    constants.
    """
    q_l1 = float(np.abs(queue).sum())
    return gamma * curvature * q_l1 + gamma**2 * (
        curvature * value_bound + lipschitz_total**2
    )


def alpha_update(
    alpha_prev: float,
    xi: float,
    eta: float,
    gamma: float,
    grad_lipschitz: float,
    curvature: float,
    value_bound: float,
    variant: str = VARIANT_GENERAL,
) -> float:
    """Nondecreasing proximal weight schedule.

    General variant: ``max{2 * (gamma^2 L_g G + eta L_f^2 + 1 / eta + xi),
    alpha_prev}``.  Simplex variant: ``max{3 (eta L_f^2 + gamma^2 L_g G) +
    2 / eta + 3 xi, alpha_prev}``.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if variant == VARIANT_SIMPLEX:
        branch = (3.0 * (eta * grad_lipschitz**2 + gamma**2 * curvature * value_bound)
                  + 2.0 / eta + 3.0 * xi)
    else:
        branch = 2.0 * (gamma**2 * curvature * value_bound
                        + eta * grad_lipschitz**2 + 1.0 / eta + xi)
    return max(branch, alpha_prev)


def alpha_closed_form(
    queue_l1_max: float,
    eta: float,
    gamma: float,
    grad_lipschitz: float,
    curvature: float,
    value_bound: float,
    lipschitz_total: float,
    variant: str = VARIANT_GENERAL,
) -> float:
    """Closed form of the running-max weight schedule.

    Unrolling the recursion, only the running maximum of l1 queue norms
    survives: for the general variant ``alpha_t = 2 * (eta L_f^2 + gamma^2
    (2 L_g G + H^2)) + 2 / eta + 2 gamma L_g * max_{t' <= t} ||Q(t')||_1``,
    and with coefficients 3, 3, 2, 3 in place of the 2s for the simplex one.
    """
    if variant == VARIANT_SIMPLEX:
        return (3.0 * eta * grad_lipschitz**2
                + 3.0 * gamma**2 * (2.0 * curvature * value_bound + lipschitz_total**2)
                + 2.0 / eta + 3.0 * gamma * curvature * queue_l1_max)
    return (2.0 * (eta * grad_lipschitz**2
                   + gamma**2 * (2.0 * curvature * value_bound
                                 + lipschitz_total**2))
            + 2.0 / eta + (2.0 * gamma * curvature) * queue_l1_max)


def mix_anchor(anchor: np.ndarray, nu: float) -> np.ndarray:
    """Shift a simplex point toward uniform: ``(1 - nu) x + nu / d``.

    Keeps every coordinate at least ``nu / d``, so entropic divergences
    against the result stay finite.  ``anchor`` may also be an ``(m, d)``
    stack of points, shifted row by row.
    """
    d = anchor.shape[-1]
    return (1.0 - nu) * anchor + nu / d


def _check_grad(g: np.ndarray, t: int) -> None:
    """Raise ``OracleError`` unless the gradient queried at index ``t`` is
    finite: one scalar test, and the exact one only when it fails, so a
    finite ``g`` whose ``g @ g`` overflows passes."""
    if not math.isfinite(g @ g) and not np.isfinite(g).all():
        raise OracleError(
            f"loss gradient oracle returned a non-finite value at round {t}",
            oracle="loss-gradient", round_index=t,
        )


def _check_value(value: float, t: int) -> None:
    """Raise ``OracleError`` unless the loss value of round ``t`` is
    finite."""
    if not math.isfinite(value):
        raise OracleError(
            f"loss value oracle returned a non-finite value at round {t}",
            oracle="loss-value", round_index=t,
        )


def _check_pieces(variant: str, scenario: Scenario,
                  horizon: int | None) -> int:
    """Raise ``ValueError`` unless ``variant`` can run ``scenario`` for
    ``horizon`` rounds (None: the sequence horizon); return that horizon.
    The variant must suit the base set, and the block and the sequence
    must share one base set (``geometry.same_set``)."""
    base, block, seq, hp = scenario.base, scenario.block, scenario.seq, scenario.hp
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if (variant == VARIANT_SIMPLEX) != isinstance(base, geo.Simplex):
        raise ValueError("the simplex variant runs on the simplex, and the "
                         "other variants on a ball or a box")
    if variant == VARIANT_SIMPLEX and hp.nu is None:
        raise ValueError("simplex variant needs a mixing weight")
    if not geo.same_set(block.base, base):
        raise ValueError("the constraint block was built on another base set")
    T = seq.horizon if horizon is None else int(horizon)
    if T < 0 or T > seq.horizon:
        raise ValueError("horizon must lie in [0, sequence horizon]")
    return T


def run(
    variant: str,
    scenario: Scenario,
    horizon: int | None = None,
    x0: np.ndarray | None = None,
) -> RunTrace:
    """Run ``horizon`` rounds from ``x0`` and collect the full trace.

    ``horizon`` defaults to the sequence horizon and may not exceed it; a
    zero horizon returns an empty, well-formed trace.  ``x0`` must lie in
    the base set and defaults to its center; it is also the first anchor.

    Round ``t`` of the mirror-prox variants (``ompd``, ``ompd-simplex``):

    1. Dual and weight update: ``Q(t) = queue_update(Q(t-1), g(x_{t-1}),
       gamma)``, ``xi_t = xi_value(Q(t), ...)`` and ``alpha_t =
       alpha_update(alpha_{t-1}, xi_t, ...)``.
    2. Simplex variant only: ``anchor <- mix_anchor(anchor, nu)``, a local
       the trace does not store, which keeps entropic divergences finite.
    3. Primal step: ``x_t = mirror_step(anchor, grad f_{t-1}(x_{t-1}) + p,
       alpha_t)`` with the penalty ``p = gamma * (Q(t) + gamma *
       g(x_{t-1})) @ J(x_{t-1})``, whose coefficients the max rule keeps
       nonnegative, so it never points inward.
    4. Intermediate step: the same anchor, weight and ``p`` with the fresh
       gradient ``grad f_t(x_t)``; the result is the next round's anchor.

    Round ``t`` of ``pd-baseline``: ``x_t = project(x_{t-1} - s_t *
    (grad f_{t-1}(x_{t-1}) + lambda @ J(x_{t-1})))`` with step ``s_t = 1 /
    (max(L_f, 1) * sqrt(t))``, then dual ascent ``lambda <- max(lambda +
    gamma * g(x_t), 0)``, so a zero dual step keeps the multipliers at
    zero.  Its trace holds ``lambda`` as the queue, ``x_t`` as the anchor
    (``decisions`` is the view ``anchors[1:]``), ``1 / s_t`` as the weight
    and zero ``xi``.

    One extra dual update after the loop gives the final queue row, which
    certifies the violation bound.

    Each ``(t, x)`` gradient is queried once: the mirror-prox variants
    reuse round ``t - 1``'s ``grad f_{t-1}(x_{t-1})`` for round ``t``'s
    primal step (round 1 queries index 0 at ``x0``), so they make ``T + 1``
    gradient and ``T`` value queries; the baseline makes ``T`` of each.
    The oracles must therefore be pure functions of ``(t, x)``.  A
    mirror-prox round tests its loss value and gradient together with one
    scalar finiteness test; the baseline tests its gradient before
    stepping on it and its value after.  The exact per-oracle test runs
    only when a scalar test fails, so a non-finite output raises
    ``OracleError`` naming its oracle and round.
    """
    base, block, seq, hp = scenario.base, scenario.block, scenario.seq, scenario.hp
    T = _check_pieces(variant, scenario, horizon)
    d, K = base.dim, block.size
    if x0 is None:
        start = geo.center(base)
    else:
        start = np.asarray(x0, dtype=float)
        if start.shape != (d,):
            raise DimensionMismatchError(
                f"x0 must have shape ({d},), got {start.shape}")
        if not geo.contains(base, start):
            raise DomainError("x0 lies outside the base set")

    anchors = np.empty((T + 1, d))
    anchors[0] = start
    decisions = anchors[1:] if variant == VARIANT_BASELINE else np.empty((T, d))
    queues = np.zeros((T + 2, K))
    g_values = np.empty((T + 1, K))
    losses = np.empty(T)
    alphas = np.empty(T)
    xis = np.zeros(T)

    gamma = hp.gamma
    grad_fn, value_fn = seq.grad_fn, seq.value_fn
    curvature = block.curvature
    value_bound, lipschitz_total = block.value_bound_total, block.lipschitz_total
    g_values[0], jac = constraint_eval(block, start, round_index=0)
    x, anchor, alpha = start, anchors[0], 0.0
    if T and variant != VARIANT_BASELINE:
        grad = grad_fn(1, start)        # index 0, an alias for index 1
        _check_grad(grad, 0)
    for t in range(1, T + 1):
        # on entry x, jac and g_values[t - 1] belong to the previous decision
        # and, in the mirror-prox variants, grad to its gradient
        if variant == VARIANT_BASELINE:
            grad = grad_fn(t - 1 or 1, x)
            _check_grad(grad, t - 1)
            step = 1.0 / (max(seq.grad_lipschitz, 1.0) * math.sqrt(t))
            x = geo.project(base, x - step * (grad + queues[t - 1] @ jac))
            loss = losses[t - 1] = value_fn(t, x)
            _check_value(loss, t)
            g_values[t], jac = constraint_eval(block, x, round_index=t)
            queues[t] = np.maximum(queues[t - 1] + gamma * g_values[t], 0.0)
            alphas[t - 1] = 1.0 / step
        else:
            queue = queues[t] = queue_update(queues[t - 1], g_values[t - 1], gamma)
            xi = xis[t - 1] = xi_value(queue, gamma, curvature, value_bound,
                                       lipschitz_total)
            alpha = alpha_update(alpha, xi, hp.eta, gamma, seq.grad_lipschitz,
                                 curvature, value_bound, variant)
            if not alpha > 0:
                raise ScheduleError(
                    f"proximal weight collapsed to {alpha} at round {t}")
            alphas[t - 1] = alpha
            if variant == VARIANT_SIMPLEX:
                anchor = mix_anchor(anchor, hp.nu)
            penalty = gamma * ((queue + gamma * g_values[t - 1]) @ jac)
            x = geo.mirror_step(base, anchor, grad + penalty, alpha)
            loss = value_fn(t, x)
            grad = grad_fn(t, x)
            if not math.isfinite(loss + grad @ grad):
                _check_value(loss, t)
                _check_grad(grad, t)
            losses[t - 1] = loss
            anchor = anchors[t] = geo.mirror_step(base, anchor, grad + penalty,
                                                  alpha)
            g_values[t], jac = constraint_eval(block, x, round_index=t)
        decisions[t - 1] = x

    queues[T + 1] = queue_update(queues[T], g_values[T], gamma)

    return RunTrace(
        variant=variant, horizon=T, dim=d, n_constraints=K,
        decisions=decisions, anchors=anchors, queues=queues,
        g_values=g_values, losses=losses, alphas=alphas, xis=xis,
        gamma=gamma, nu=hp.nu,
    )


def summarize(trace: RunTrace, seq: LossSequence,
              probe_rounds) -> RunSummary:
    """The ``RunSummary`` of a full trace of a run on ``seq``: its probes
    stack the start point on the decisions of the 0-based
    ``probe_rounds``, or are None when ``seq`` has a coefficient table."""
    probes = None
    if seq.coeffs is None:
        probes = np.vstack([trace.x0[None, :], trace.decisions[probe_rounds]])
    return RunSummary(horizon=trace.horizon, losses=trace.losses,
                      g_values=trace.g_values, final_queue=trace.final_queue,
                      probes=probes)


def _layout(scenario: Scenario) -> tuple:
    """What the cells of one batch must share: the base set's kind and
    dimension, the block's row counts and order, the loss family's kind."""
    base, block, seq = scenario.base, scenario.block, scenario.seq
    if block.eval_fn is not None or (seq.coeffs is None and seq.scales is None):
        raise UnsupportedFamilyError("run_batch takes built-in blocks and "
                                     "loss tables")
    return (base.kind, base.dim,
            None if block.A is None else len(block.A),
            None if block.centers is None else len(block.centers),
            None if block.order is None else block.order.tobytes(),
            seq.coeffs is None)


def run_batch(variant: str, scenarios: list[Scenario], horizon: int,
              probe_rounds=()) -> list[RunSummary]:
    """Run ``horizon`` rounds of every scenario at once, each from its base
    set's center, and keep only what a metrics report reads.

    The cells are stepped together on ``(S, d)`` and ``(S, K)`` arrays:
    each round of ``run``, every expression evaluated in the same order on
    the same operands.  Per-cell constants are Python floats computed in
    ``run``'s order (the weight schedule's constant part is summed first,
    ``xi`` added after it), and row-wise products take the stacked-matmul
    idiom of ``problems._tables``, which keeps the bits of the 1-D ``@``.
    So each cell's losses, constraint values, final queue and probes equal,
    bit for bit, those of ``run(variant, scenario, horizon)``.  Loss-table
    rows are gathered one ``problems.BLOCK_ROUNDS`` block at a time.  With
    a coefficient table, whose gradient does not depend on the decision, a
    mirror-prox round takes its two mirror steps as one stacked step.

    The cells must share the base set's kind and dimension, the block's
    layout (its linear and quadratic row counts and their order) and the
    loss family's kind, as every scenario that ``harness.build_scenario``
    makes from one template does; otherwise ``ValueError``.  Custom blocks
    and sequences raise ``UnsupportedFamilyError``.

    Returns one ``RunSummary`` per scenario, whose ``probes`` stack the
    start point on the decisions of the 0-based ``probe_rounds`` (None
    with a coefficient table); no ``(T, d)`` array of decisions or anchors
    is held.  Finiteness is tested once per block, on the losses, the
    constraint values and the proximal weights (which must be positive),
    and on the steps' ``out`` of ``_batch_step``, which carries every
    gradient and penalty and, on a ball, overflows where ``run``'s
    projection rescales.  Each cell that fails is rerun through ``run``,
    which raises its typed error naming the oracle and the round; where
    ``run`` lets the value through, its trace gives the summary.
    """
    T = int(horizon)
    for scenario in scenarios:
        _check_pieces(variant, scenario, T)
    if not scenarios:
        return []
    if len({_layout(scenario) for scenario in scenarios}) != 1:
        raise ValueError("the cells of a batch must share the base set's kind "
                         "and dimension, the block's layout and the loss "
                         "family's kind")
    with np.errstate(all="ignore"):
        batch = _Batch(variant, scenarios, T, probe_rounds)
        if variant == VARIANT_BASELINE:
            queue = _baseline_rounds(batch)
        else:
            queue = _mirror_prox_rounds(batch)
        step = batch.gamma * batch.g_values[T]
        final = np.maximum(-step, queue + step)     # ``queue_update``
    return [batch.done[j] or RunSummary(
                horizon=T, losses=batch.losses[:, j],
                g_values=batch.g_values[:, j], final_queue=final[j],
                probes=None if batch.probes is None else batch.probes[j])
            for j in range(len(scenarios))]


# The round loops below keep the operands of a per-round numpy call the
# same shape where they can (a broadcasting call costs about twice a plain
# one on these small arrays): per-cell arrays are expanded to the shape
# they meet.  Rounds write into per-block buffers, and each block's losses
# and probes are taken from its decisions once the block is done.


def _expand(values, shape) -> np.ndarray:
    """Per-cell values (length S, or ``(S, m)`` rows) repeated to ``(...,
    S, m)`` ``shape``, contiguous."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return np.ascontiguousarray(np.broadcast_to(values, shape))


def _batch_tables(blocks: list[ConstraintBlock]):
    """``problems._tables`` for a batch: ``tables(x, out)`` writes the
    ``(S, K)`` values at the ``(S, d)`` decisions into ``out`` and returns
    the ``(S, K, d)`` Jacobians, row ``j`` from block ``j``'s tables in the
    same expressions."""
    first = blocks[0]
    A = b = centers = offsets = None
    if first.A is not None:
        A, b = np.stack([p.A for p in blocks]), np.stack([p.b for p in blocks])
    if first.centers is not None:
        centers = np.stack([p.centers for p in blocks])
        offsets = np.stack([p.offsets for p in blocks])
    order = first.order

    def tables(x, out):
        if A is not None:
            values = np.matmul(A, x[:, :, None])[:, :, 0]
            if centers is None:
                np.subtract(values, b, out=out)
                return A
            values -= b
        diff = x[:, None, :] - centers
        quadratic = np.einsum("...kd,...kd->...k", diff, diff) - offsets
        if A is None:
            out[...] = quadratic
            return 2.0 * diff
        values = np.concatenate([values, quadratic], axis=-1)
        jac = np.concatenate([A, 2.0 * diff], axis=-2)
        if order is not None:
            values, jac = values[:, order], jac[:, order]
        out[...] = values
        return jac

    return tables


def _batch_step(bases: list[geo.BaseSet], shape: tuple):
    """``geometry.mirror_step`` for a batch, on ``shape`` stacks of rows:
    ``(S, d)``, or ``(2, S, d)`` for both steps of a round.

    ``step(anchor, scaled, out, dest)`` writes the minimizers into ``dest``,
    row ``j`` on base set ``j`` in the same expressions, with ``scaled = h
    / alpha`` and ``anchor`` of shape ``(S, d)``: on a ball or a box the
    projection of ``anchor - scaled``, which the baseline's step is too.
    ``out`` gets ``anchor - scaled`` on a box, ``log(anchor) - scaled`` on
    the simplex, and on a ball that point's distance from the center.
    """
    first = bases[0]
    if isinstance(first, geo.Simplex):
        def step(anchor, scaled, out, dest):
            exponent = np.subtract(np.log(anchor), scaled, out=out)
            np.subtract(exponent, np.maximum.reduce(exponent, axis=-1,
                                                    keepdims=True), out=dest)
            np.exp(dest, out=dest)
            dest /= np.add.reduce(dest, axis=-1, keepdims=True)
        return step
    if isinstance(first, geo.Box):
        lower = _expand([base.lower for base in bases], shape)
        upper = _expand([base.upper for base in bases], shape)

        def step(anchor, scaled, out, dest):
            np.maximum(np.subtract(anchor, scaled, out=out), lower, out=dest)
            np.minimum(dest, upper, out=dest)
        return step
    center = _expand([base.center for base in bases], shape)
    radius = _expand([base.radius for base in bases], shape)

    def step(anchor, scaled, out, dest):
        y = anchor - scaled
        offset = y - center
        # row-wise dot products, the same reduction as ``offset @ offset``
        dist = np.sqrt(np.matmul(offset[..., None, :], offset[..., None])[..., 0],
                       out=out)
        np.multiply(offset, radius / dist, out=dest)
        dest += center
        np.copyto(dest, y, where=dist <= radius)
    return step


class _Batch:
    """What the round loops of one ``run_batch`` call share: the cells'
    pieces, the start point and its constraint values, the lean outputs
    being filled, and the finiteness screen."""

    def __init__(self, variant: str, scenarios: list[Scenario], T: int,
                 probe_rounds):
        self.variant, self.scenarios, self.T = variant, scenarios, T
        self.seqs = [scenario.seq for scenario in scenarios]
        self.bases = [scenario.base for scenario in scenarios]
        self.probe_rounds = np.asarray(probe_rounds, dtype=np.intp)
        self.tables = _batch_tables([scenario.block for scenario in scenarios])
        self.x0 = np.stack([geo.center(base) for base in self.bases])
        S, d = self.x0.shape
        K = scenarios[0].block.size
        self.gamma = _expand([scenario.hp.gamma for scenario in scenarios],
                             (S, K))
        # round-major, so a round writes one contiguous row; a cell's
        # outputs are column views, whose sums keep the bits of a copy's
        self.losses = np.empty((T, S))
        self.g_values = np.empty((T + 1, S, K))
        self.probes = None
        if self.seqs[0].coeffs is None:
            self.probes = np.empty((S, len(self.probe_rounds) + 1, d))
            self.probes[:, 0] = self.x0
        self.slots = ({} if self.probes is None else
                      {int(t) + 1: k + 1
                       for k, t in enumerate(self.probe_rounds)})
        self.done: list[RunSummary | None] = [None] * S
        self.buffers: dict[str, np.ndarray] = {}
        self.jac0 = self.tables(self.x0, self.g_values[0])
        self.screen(~np.isfinite(self.g_values[0]).all(axis=1))

    def buffer(self, name: str, shape: tuple) -> np.ndarray:
        """A per-block buffer: the first block's rows of ``shape`` are
        allocated once and reused by every later, never larger, block."""
        held = self.buffers.get(name)
        if held is None or held.shape[1:] != shape[1:]:
            held = self.buffers[name] = np.empty(shape)
        return held[:shape[0]]

    def loss_rows(self, lo: int, hi: int):
        """The loss-table rows of indices ``lo - 1 .. hi - 1`` (index 0 read
        as its alias, index 1): ``(n + 1, S, d)`` coefficients, or ``(n + 1,
        S)`` scales and ``(n + 1, S, d)`` targets."""
        def gather(name):
            first = getattr(self.seqs[0], name)
            rows = np.stack([by_round(getattr(seq, name), lo - 1, hi)
                             for seq in self.seqs], axis=1,
                            out=self.buffer(name, (hi - lo + 1, len(self.seqs))
                                            + first.shape[1:]))
            if lo == 1:
                rows[0] = rows[1]
            return rows
        if self.probes is None:
            return gather("coeffs")
        return gather("scales"), gather("targets")

    def block_losses(self, lo: int, hi: int) -> np.ndarray:
        """Rounds ``lo..hi - 1``'s losses as an ``(n, S, 1, 1)`` view, the
        shape of a stacked row-wise product."""
        return self.losses[lo - 1:hi - 1, :, None, None]

    def finish_block(self, lo: int, hi: int, decisions: np.ndarray,
                     tested: np.ndarray, ok: np.ndarray | None = None) -> None:
        """Keep rounds ``lo..hi - 1``'s probes from their ``(n, S, d)``
        decisions, then screen every cell whose losses, constraint values
        or ``(..., S, d)`` stack ``tested`` hold a non-finite value, or
        whose ``ok`` is False."""
        for t, k in self.slots.items():
            if lo <= t < hi:
                self.probes[:, k] = decisions[t - lo]
        fine = (np.isfinite(self.losses[lo - 1:hi - 1]).all(axis=0)
                & np.isfinite(self.g_values[lo:hi]).all(axis=(0, 2))
                & np.isfinite(tested).all(axis=(*range(tested.ndim - 2), -1)))
        if ok is not None:
            fine &= ok
        self.screen(~fine)

    def screen(self, bad: np.ndarray) -> None:
        """Rerun through ``run`` each cell flagged in ``bad`` that was not
        rerun yet: it raises the cell's typed error, or gives its summary."""
        for j in np.flatnonzero(bad):
            if self.done[j] is None:
                trace = run(self.variant, self.scenarios[j], self.T)
                self.done[j] = summarize(trace, self.seqs[j],
                                         self.probe_rounds)


def _mirror_prox_rounds(batch: _Batch) -> np.ndarray:
    """The rounds of ``run``'s mirror-prox variants over a batch; returns
    the queue rows after round T.

    With a coefficient table a round's two ``h = grad + p`` come from the
    table rows of indices ``t - 1`` and ``t`` and take one ``(2, S, d)``
    step; a quadratic family's second gradient is taken at the round's
    decision, so its two steps are ``(S, d)`` steps in turn.
    """
    simplex = batch.variant == VARIANT_SIMPLEX
    coeffs = batch.probes is None
    scenarios, T, seqs = batch.scenarios, batch.T, batch.seqs
    S, d = batch.x0.shape
    K = batch.g_values.shape[2]
    shape = (2, S, d) if coeffs else (S, d)
    step_fn = _batch_step(batch.bases, shape)
    tables, gamma = batch.tables, batch.gamma
    blocks = [scenario.block for scenario in scenarios]
    hps = [scenario.hp for scenario in scenarios]
    # ``xi_value`` and ``alpha_update`` with per-cell constants, each in
    # the scalar loop's order: ``xi = gc * ||Q||_1 + xc``, and the weight
    # branch ``(c0 + xi) * scale`` (general) or ``c0 + 3 * xi`` (simplex)
    gc = _expand([hp.gamma * b.curvature for hp, b in zip(hps, blocks)], shape)
    xc = _expand([hp.gamma**2 * (b.curvature * b.value_bound_total
                                 + b.lipschitz_total**2)
                  for hp, b in zip(hps, blocks)], shape)
    scale = _expand([3.0 if simplex else 2.0] * S, shape)
    if simplex:
        c0 = _expand([3.0 * (hp.eta * seq.grad_lipschitz**2
                             + hp.gamma**2 * b.curvature * b.value_bound_total)
                      + 2.0 / hp.eta
                      for hp, b, seq in zip(hps, blocks, seqs)], shape)
        keep = _expand([1.0 - hp.nu for hp in hps], (S, d))
        shift = _expand([hp.nu / d for hp in hps], (S, d))
    else:
        c0 = _expand([hp.gamma**2 * b.curvature * b.value_bound_total
                      + hp.eta * seq.grad_lipschitz**2 + 1.0 / hp.eta
                      for hp, b, seq in zip(hps, blocks, seqs)], shape)
    spread = _expand(np.arange(S), shape).astype(np.intp)   # cell of each entry
    gamma_p = _expand([hp.gamma for hp in hps], (S, d))[:, None, :]

    anchor, jac = batch.x0, batch.jac0
    g_values = batch.g_values
    queue = np.zeros((S, K))
    alpha = np.zeros(shape)
    argument = np.empty(shape)      # a step's ``out``, not kept
    anchors = None if coeffs else np.empty((2, S, d))
    for lo, hi in row_blocks(1, T + 1):
        n = hi - lo
        rows = batch.loss_rows(lo, hi)
        if coeffs:
            pairs = rows
        else:
            s_rows = np.repeat(rows[0][:, :, None], d, axis=2)
            half = (0.5 * rows[0])[:, :, None, None]
            z_rows = rows[1]
            if lo == 1:
                grad = np.subtract(anchor, z_rows[0]) * s_rows[0]
        # the block's sum of the steps' ``out``: finite while each is
        tested = np.zeros((2, S, d))
        # round i's decision goes to row i; a coefficient table's round
        # steps to rows i and i + 1 together, the next anchor in row i + 1,
        # which the next round reads before its step overwrites it
        points = batch.buffer("points", (n + 1, S, d))
        diffs = None if coeffs else batch.buffer("diffs", (n, S, d))
        for i in range(n):
            step = gamma * g_values[lo + i - 1]
            queue = np.maximum(-step, queue + step)
            # ``||Q||_1`` per cell; a sum of one term is that term
            l1 = np.abs(queue) if K == 1 else np.add.reduce(np.abs(queue), axis=1)
            xi = l1.take(spread)
            xi *= gc
            xi += xc
            if simplex:
                xi *= scale
                xi += c0
                anchor = keep * anchor + shift     # ``mix_anchor``
            else:
                xi += c0
                xi *= scale
            alpha = np.maximum(xi, alpha, out=xi)
            penalty = np.matmul((queue + step)[:, None, :], jac)
            penalty *= gamma_p
            x = points[i]
            if coeffs:
                h = np.add(pairs[i:i + 2], penalty[:, 0])
                h /= alpha
                step_fn(anchor, h, argument, points[i:i + 2])
                tested += argument
                anchor = points[i + 1]
            else:
                h = np.add(grad, penalty[:, 0])
                h /= alpha
                step_fn(anchor, h, argument, x)
                tested[0] += argument
                diff = np.subtract(x, z_rows[i + 1], out=diffs[i])
                grad = s_rows[i + 1] * diff
                h = np.add(grad, penalty[:, 0])
                h /= alpha
                step_fn(anchor, h, argument, anchors[(lo + i) % 2])
                tested[1] += argument
                anchor = anchors[(lo + i) % 2]
            jac = tables(x, g_values[lo + i])
        # the block's losses, one stacked product per round as ``value_fn``
        if coeffs:
            np.matmul(pairs[1:, :, None, :], points[:n, :, :, None],
                      out=batch.block_losses(lo, hi))
            anchor = points[n].copy()
        else:
            np.multiply(half[1:], np.matmul(diffs[:, :, None, :],
                                            diffs[..., None]),
                        out=batch.block_losses(lo, hi))
        # the weight never decreases, a NaN stays, and a cell's branch keeps
        # one sign (c0 > 0): the block's last weight decides
        batch.finish_block(lo, hi, points[:n], tested,
                           ok=(alpha > 0).all(axis=tuple(range(alpha.ndim - 2))
                                              + (-1,)))
    return queue


def _baseline_rounds(batch: _Batch) -> np.ndarray:
    """The rounds of ``run``'s ``pd-baseline`` over a batch; returns the
    multiplier rows after round T."""
    coeffs = batch.probes is None
    S, d = batch.x0.shape
    K = batch.g_values.shape[2]
    step_fn = _batch_step(batch.bases, (S, d))
    tables, gamma = batch.tables, batch.gamma
    scale = np.array([max(seq.grad_lipschitz, 1.0) for seq in batch.seqs])
    zero = np.zeros((S, K))

    x, jac = batch.x0, batch.jac0
    queue = np.zeros((S, K))
    moved = np.empty((S, d))        # a step's ``out``, not kept
    for lo, hi in row_blocks(1, batch.T + 1):
        n = hi - lo
        rows = batch.loss_rows(lo, hi)
        # round t's step ``1 / (max(L_f, 1) * sqrt(t))``, one row per cell
        steps = 1.0 / (scale * np.sqrt(np.arange(lo, hi, dtype=float))[:, None])
        steps = steps[:, :, None]
        if not coeffs:
            s_rows = np.repeat(rows[0][:, :, None], d, axis=2)
            half = (0.5 * rows[0])[:, :, None, None]
            z_rows = rows[1]
        points = batch.buffer("points", (n, S, d))
        tested = np.zeros((S, d))   # the block's sum of the steps' ``out``
        for i in range(n):
            # the gradient of index t - 1 (1 in round 1) at x_{t-1}
            if coeffs:
                grad = rows[i]
            else:
                grad = x - z_rows[i]
                grad *= s_rows[i]
            direction = np.matmul(queue[:, None, :], jac)[:, 0]
            direction += grad
            direction *= steps[i]
            step_fn(x, direction, moved, points[i])
            tested += moved
            x = points[i]
            g = batch.g_values[lo + i]
            jac = tables(x, g)
            queue = queue + gamma * g
            queue = np.maximum(queue, zero, out=queue)
        # the block's losses, one stacked product per round as ``value_fn``
        if coeffs:
            np.matmul(rows[1:, :, None, :], points[..., None],
                      out=batch.block_losses(lo, hi))
        else:
            diffs = points - z_rows[1:]
            np.multiply(half[1:], np.matmul(diffs[:, :, None, :],
                                            diffs[..., None]),
                        out=batch.block_losses(lo, hi))
        batch.finish_block(lo, hi, points, tested)
    return queue

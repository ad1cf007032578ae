"""Online primal-dual mirror prox with virtual constraint queues.

``run`` is the solver: one loop over rounds, each a queue (dual) update, a
proximal-weight update and two mirror steps; its docstring spells the
round out.  The general variant runs on euclidean geometries with a finite
divergence diameter, the simplex variant on the entropic simplex, and a
plain primal-dual projected-gradient baseline with no guarantees is
included for comparison runs.  The remaining functions are the round's
primitives, public so tests and audits can replay single steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import DimensionMismatchError, DomainError, OracleError, ScheduleError
from .problems import ConstraintBlock, LossSequence, constraint_eval
from .trace import RunTrace

VARIANT_GENERAL = "ompd"
VARIANT_SIMPLEX = "ompd-simplex"
VARIANT_BASELINE = "pd-baseline"
VARIANTS = (VARIANT_GENERAL, VARIANT_SIMPLEX, VARIANT_BASELINE)


@dataclass(frozen=True)
class HyperParams:
    """Solver constants derived from the variation budget.

    ``eta`` scales like the inverse square root of the variation cap and
    trades off against regret; ``gamma`` is the queue step and penalty
    scale; ``rho`` is the strong-convexity modulus of the geometry
    (1 for both shipped pairings); ``nu`` is the uniform-mixing weight of
    the simplex variant, ``1 / horizon``.
    """

    eta: float
    gamma: float
    rho: float = 1.0
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
    """Everything one run needs: geometry, sets, problem, constants."""

    geom: geo.Geometry
    base: geo.BaseSet
    block: ConstraintBlock
    seq: LossSequence
    hp: HyperParams


def hyperparams_from_variation(
    v_cap: float,
    grad_lipschitz: float,
    horizon: int | None = None,
    variant: str = VARIANT_GENERAL,
    rho: float = 1.0,
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
    return HyperParams(eta=level**-0.5, gamma=level**0.25, rho=rho,
                       nu=nu, v_cap=float(v_cap))


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
    rho: float,
    grad_lipschitz: float,
    curvature: float,
    value_bound: float,
    variant: str = VARIANT_GENERAL,
) -> float:
    """Nondecreasing proximal weight schedule.

    General variant: ``max{(2 / rho) * (gamma^2 L_g G + eta L_f^2 +
    1 / eta + xi), alpha_prev}``.  Simplex variant: ``max{3 (eta L_f^2 +
    gamma^2 L_g G) + 2 / eta + 3 xi, alpha_prev}``.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if variant == VARIANT_SIMPLEX:
        branch = (3.0 * (eta * grad_lipschitz**2 + gamma**2 * curvature * value_bound)
                  + 2.0 / eta + 3.0 * xi)
    else:
        branch = (2.0 / rho) * (
            gamma**2 * curvature * value_bound
            + eta * grad_lipschitz**2 + 1.0 / eta + xi
        )
    return max(branch, alpha_prev)


def alpha_closed_form(
    queue_l1_max: float,
    eta: float,
    gamma: float,
    rho: float,
    grad_lipschitz: float,
    curvature: float,
    value_bound: float,
    lipschitz_total: float,
    variant: str = VARIANT_GENERAL,
) -> float:
    """Closed form of the running-max weight schedule.

    Unrolling the recursion, only the running maximum of l1 queue norms
    survives: for the general variant ``alpha_t = (2 / rho) * (eta L_f^2 +
    gamma^2 (2 L_g G + H^2)) + 2 / (rho eta) + (2 gamma L_g / rho) *
    max_{t' <= t} ||Q(t')||_1``, and with coefficients 3, 3, 2, 3 in place
    of the ``2 / rho`` factors for the simplex variant.
    """
    if variant == VARIANT_SIMPLEX:
        return (3.0 * eta * grad_lipschitz**2
                + 3.0 * gamma**2 * (2.0 * curvature * value_bound + lipschitz_total**2)
                + 2.0 / eta + 3.0 * gamma * curvature * queue_l1_max)
    return ((2.0 / rho) * (eta * grad_lipschitz**2
                           + gamma**2 * (2.0 * curvature * value_bound
                                         + lipschitz_total**2))
            + 2.0 / (rho * eta)
            + (2.0 * gamma * curvature / rho) * queue_l1_max)


def mix_anchor(anchor: np.ndarray, nu: float) -> np.ndarray:
    """Shift a simplex point toward uniform: ``(1 - nu) x + nu / d``.

    Keeps every coordinate at least ``nu / d``, so entropic divergences
    against the result stay finite.
    """
    d = anchor.shape[0]
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
    2. Simplex variant only: ``anchor <- mix_anchor(anchor, nu)``, which
       keeps entropic divergences finite.
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
    zero.  Its trace holds ``lambda`` as the queue, ``x_t`` as the anchor,
    ``1 / s_t`` as the weight and zero ``xi``.

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
    geom, base = scenario.geom, scenario.base
    block, seq, hp = scenario.block, scenario.seq, scenario.hp
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == VARIANT_SIMPLEX:
        if geom.kind != geo.ENTROPIC or not isinstance(base, geo.Simplex):
            raise ValueError("simplex variant needs the entropic simplex pairing")
        if hp.nu is None:
            raise ValueError("simplex variant needs a mixing weight")
    elif geom.kind == geo.ENTROPIC:
        raise ValueError("the general variant needs a finite-diameter geometry; "
                         "run the simplex variant on the entropic pairing")
    if not geo.compatible(geom, base):
        raise ValueError("geometry and base set are incompatible")
    if block.dim != base.dim or seq.dim != base.dim:
        raise ValueError("problem pieces disagree on dimension")

    T = seq.horizon if horizon is None else int(horizon)
    if T < 0 or T > seq.horizon:
        raise ValueError("horizon must lie in [0, sequence horizon]")

    d, K = base.dim, block.size
    if x0 is None:
        start = geo.center(base)
    else:
        start = np.array(x0, dtype=float)   # a copy: the trace keeps it
        if start.shape != (d,):
            raise DimensionMismatchError(
                f"x0 must have shape ({d},), got {start.shape}")
        if not geo.contains(base, start):
            raise DomainError("x0 lies outside the base set")

    decisions = np.empty((T, d))
    anchors = np.empty((T + 1, d))
    anchors[0] = start
    mixed = np.empty((T, d)) if variant == VARIANT_SIMPLEX else None
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
            anchors[t] = x
            alphas[t - 1] = 1.0 / step
        else:
            queue = queues[t] = queue_update(queues[t - 1], g_values[t - 1], gamma)
            xi = xis[t - 1] = xi_value(queue, gamma, curvature, value_bound,
                                       lipschitz_total)
            alpha = alpha_update(alpha, xi, hp.eta, gamma, hp.rho,
                                 seq.grad_lipschitz, curvature, value_bound,
                                 variant)
            if not alpha > 0:
                raise ScheduleError(
                    f"proximal weight collapsed to {alpha} at round {t}")
            alphas[t - 1] = alpha
            if mixed is not None:
                anchor = mixed[t - 1] = mix_anchor(anchor, hp.nu)
            penalty = gamma * ((queue + gamma * g_values[t - 1]) @ jac)
            x = geo.mirror_step(geom, base, anchor, grad + penalty, alpha)
            loss = value_fn(t, x)
            grad = grad_fn(t, x)
            if not math.isfinite(loss + grad @ grad):
                _check_value(loss, t)
                _check_grad(grad, t)
            losses[t - 1] = loss
            anchor = anchors[t] = geo.mirror_step(geom, base, anchor,
                                                  grad + penalty, alpha)
            g_values[t], jac = constraint_eval(block, x, round_index=t)
        decisions[t - 1] = x

    queues[T + 1] = queue_update(queues[T], g_values[T], gamma)

    return RunTrace(
        variant=variant, horizon=T, dim=d, n_constraints=K, x0=start,
        decisions=decisions, anchors=anchors, queues=queues,
        g_values=g_values, losses=losses, alphas=alphas, xis=xis,
        gamma=gamma, eta=hp.eta, nu=hp.nu, mixed_anchors=mixed,
    )

"""Online primal-dual mirror prox with virtual constraint queues.

One round consists of four moves: a queue (dual) update driven by the
previous decision's constraint values, a proximal-weight update, a primal
mirror step whose linear term mixes the lookback loss gradient with
queue-weighted constraint gradients, and an intermediate mirror step that
repeats the primal step with the freshly observed gradient while keeping
the same proximity anchor.  The intermediate point becomes the next
round's anchor.

Two variants are provided.  The general variant runs on euclidean
geometries with a finite divergence diameter.  The simplex variant runs on
the entropic geometry, shifts its anchor toward the uniform law before
each round so divergences stay finite, and uses its own proximal-weight
rule.  A plain primal-dual projected-gradient baseline with no guarantees
is included for comparison runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import OracleError, ScheduleError
from .problems import ConstraintBlock, LossSequence, Problem, constraint_eval
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


@dataclass
class AlgoState:
    """Solver state after ``round_index`` completed rounds."""

    round_index: int
    x_last: np.ndarray
    anchor: np.ndarray
    queue: np.ndarray
    alpha: float
    queue_l1_max: float
    g_last: np.ndarray
    jac_last: np.ndarray
    geom: geo.Geometry
    base: geo.BaseSet
    mixed_anchor: np.ndarray | None = None


@dataclass(frozen=True)
class RoundOutput:
    """Per-round record: the played decision and its audit quantities."""

    t: int
    decision: np.ndarray
    loss: float
    g_values: np.ndarray
    queue_l1: float
    queue_l2: float
    alpha: float
    xi: float


def init_state(block: ConstraintBlock, geom: geo.Geometry, base: geo.BaseSet,
               x0: np.ndarray | None = None) -> AlgoState:
    """Fresh state anchored at the base-set center (or a supplied point)."""
    start = geo.center(base) if x0 is None else np.asarray(x0, dtype=float)
    g0, jac0 = constraint_eval(block, start, round_index=0)
    return AlgoState(
        round_index=0, x_last=start, anchor=start.copy(),
        queue=np.zeros(block.size), alpha=0.0, queue_l1_max=0.0,
        g_last=g0, jac_last=jac0, geom=geom, base=base,
    )


def _checked_grad(seq: LossSequence, t: int, x: np.ndarray) -> np.ndarray:
    g = seq.grad(t, x)
    if not np.all(np.isfinite(g)):
        raise OracleError(
            f"loss gradient oracle returned a non-finite value at round {t}",
            oracle="loss-gradient", round_index=t,
        )
    return g


def _checked_value(seq: LossSequence, t: int, x: np.ndarray) -> float:
    value = seq.value(t, x)
    if not math.isfinite(value):
        raise OracleError(
            f"loss value oracle returned a non-finite value at round {t}",
            oracle="loss-value", round_index=t,
        )
    return value


def _prox_round(
    state: AlgoState,
    problem: Problem,
    geom: geo.Geometry,
    base: geo.BaseSet,
    hp: HyperParams,
    variant: str,
) -> tuple[AlgoState, RoundOutput]:
    seq, block = problem.seq, problem.block
    t = state.round_index + 1
    gamma = hp.gamma

    queue = queue_update(state.queue, state.g_last, gamma)
    q_l1 = float(np.abs(queue).sum())
    q_l1_max = max(state.queue_l1_max, q_l1)
    xi = xi_value(queue, gamma, block.curvature,
                  block.value_bound_total, block.lipschitz_total)
    alpha = alpha_update(state.alpha, xi, hp.eta, gamma, hp.rho,
                         seq.grad_lipschitz, block.curvature,
                         block.value_bound_total, variant)
    if not alpha > 0:
        raise ScheduleError(f"proximal weight collapsed to {alpha} at round {t}")

    if variant == VARIANT_SIMPLEX:
        anchor = mix_anchor(state.anchor, hp.nu)
        mixed = anchor
    else:
        anchor = state.anchor
        mixed = None

    # queue-weighted constraint term; coefficients are nonnegative by the
    # max rule, so the penalty never points inward
    weights = queue + gamma * state.g_last
    penalty = gamma * (weights @ state.jac_last)

    h_primal = _checked_grad(seq, t - 1, state.x_last) + penalty
    decision = geo.mirror_step(geom, base, anchor, h_primal, alpha)

    loss = _checked_value(seq, t, decision)
    grad_now = _checked_grad(seq, t, decision)
    h_mid = grad_now + penalty
    anchor_next = geo.mirror_step(geom, base, anchor, h_mid, alpha)

    g_now, jac_now = constraint_eval(block, decision, round_index=t)
    output = RoundOutput(
        t=t, decision=decision, loss=loss, g_values=g_now,
        queue_l1=q_l1, queue_l2=float(np.sqrt(queue @ queue)),
        alpha=alpha, xi=xi,
    )
    new_state = AlgoState(
        round_index=t, x_last=decision, anchor=anchor_next,
        queue=queue, alpha=alpha, queue_l1_max=q_l1_max,
        g_last=g_now, jac_last=jac_now, geom=geom, base=base,
        mixed_anchor=mixed,
    )
    return new_state, output


def round_general(state: AlgoState, problem: Problem, geom: geo.Geometry,
                  base: geo.BaseSet, hp: HyperParams):
    """One round of the general-geometry variant."""
    return _prox_round(state, problem, geom, base, hp, VARIANT_GENERAL)


def round_simplex(state: AlgoState, problem: Problem, geom: geo.Geometry,
                  hp: HyperParams):
    """One round of the simplex variant (uniform mixing, entropic steps)."""
    return _prox_round(state, problem, geom, state.base, hp, VARIANT_SIMPLEX)


def baseline_pd_round(state: AlgoState, problem: Problem, hp: HyperParams):
    """Plain primal-dual projected-gradient round, no guarantees attached.

    Primal: one projected gradient step on the lookback loss plus the
    multiplier-weighted constraint linearization, with step ``1 /
    (max(L_f, 1) * sqrt(t))``.  Dual: ascent ``lambda_k <- max(lambda_k +
    gamma * g_k, 0)`` on the new decision's constraint values, so a zero
    dual step leaves the multipliers at zero.
    """
    seq, block = problem.seq, problem.block
    t = state.round_index + 1
    step = 1.0 / (max(seq.grad_lipschitz, 1.0) * np.sqrt(t))
    direction = (_checked_grad(seq, t - 1, state.x_last)
                 + state.queue @ state.jac_last)
    decision = geo.project(state.base, state.x_last - step * direction)
    loss = _checked_value(seq, t, decision)
    g_now, jac_now = constraint_eval(block, decision, round_index=t)
    multipliers = np.maximum(state.queue + hp.gamma * g_now, 0.0)
    q_l1 = float(np.abs(multipliers).sum())
    output = RoundOutput(
        t=t, decision=decision, loss=loss, g_values=g_now,
        queue_l1=q_l1, queue_l2=float(np.sqrt(multipliers @ multipliers)),
        alpha=1.0 / step, xi=0.0,
    )
    new_state = AlgoState(
        round_index=t, x_last=decision, anchor=decision,
        queue=multipliers, alpha=1.0 / step,
        queue_l1_max=max(state.queue_l1_max, q_l1),
        g_last=g_now, jac_last=jac_now, geom=state.geom, base=state.base,
    )
    return new_state, output


def run(
    variant: str,
    scenario: Scenario,
    horizon: int | None = None,
    x0: np.ndarray | None = None,
) -> RunTrace:
    """Run ``horizon`` rounds and collect the full trace.

    ``horizon`` defaults to the sequence horizon and may not exceed it.
    A zero horizon returns an empty, well-formed trace.  After the loop
    one extra dual update is applied so the final queue row certifies the
    violation bound.
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

    problem = Problem(seq=seq, block=block)
    state = init_state(block, geom, base, x0)
    d, K = base.dim, block.size

    decisions = np.empty((T, d))
    anchors = np.empty((T + 1, d))
    anchors[0] = state.anchor
    mixed = np.empty((T, d)) if variant == VARIANT_SIMPLEX else None
    queues = np.zeros((T + 2, K))
    g_values = np.empty((T + 1, K))
    g_values[0] = state.g_last
    losses = np.empty(T)
    alphas = np.empty(T)
    xis = np.empty(T)

    for i in range(T):
        if variant == VARIANT_SIMPLEX:
            state, out = round_simplex(state, problem, geom, hp)
        elif variant == VARIANT_BASELINE:
            state, out = baseline_pd_round(state, problem, hp)
        else:
            state, out = round_general(state, problem, geom, base, hp)
        decisions[i] = out.decision
        anchors[i + 1] = state.anchor
        if mixed is not None:
            mixed[i] = state.mixed_anchor
        queues[i + 1] = state.queue
        g_values[i + 1] = out.g_values
        losses[i] = out.loss
        alphas[i] = out.alpha
        xis[i] = out.xi

    queues[T + 1] = queue_update(queues[T], g_values[T], hp.gamma)

    return RunTrace(
        variant=variant, horizon=T, dim=d, n_constraints=K,
        x0=geo.center(base) if x0 is None else np.asarray(x0, dtype=float),
        decisions=decisions, anchors=anchors, queues=queues,
        g_values=g_values, losses=losses, alphas=alphas, xis=xis,
        gamma=hp.gamma, eta=hp.eta, nu=hp.nu, mixed_anchors=mixed,
    )

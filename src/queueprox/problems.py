"""Constraint blocks, loss sequences, and their certified constants.

A problem instance couples a base feasible set with a block of long-term
inequality constraints ``g_k(x) <= 0`` and a sequence of convex per-round
losses ``f_t``.  Every block and sequence carries the constants the solver
needs: a bound on constraint magnitudes, Lipschitz constants for values and
gradients, and either an exact gradient-variation total or a certified
overestimate of it.

Constants computed here are always valid overestimates: the algorithm's
guarantees are monotone in them, so a loose constant costs tuning quality
but never correctness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import geometry as geo
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    InfeasibleError,
    OracleError,
    UnsupportedFamilyError,
)

# ---------------------------------------------------------------------------
# constraint blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintBlock:
    """A block of ``size`` inequality constraints with certified constants.

    Attributes
    ----------
    size : int
        Number of constraints ``K``.  May be zero.
    eval_fn : callable
        Maps a point ``x`` to ``(values, jacobian)`` with shapes ``(K,)``
        and ``(K, d)``.
    value_bounds : ndarray
        Per-constraint bounds ``sup_x |g_k(x)|`` over the base set.
    lipschitz : ndarray
        Per-constraint value Lipschitz constants in the geometry norm.
    curvature : float
        Gradient Lipschitz constant shared by the block, in the geometry
        norm / dual-norm pairing.
    slater : tuple or None
        ``(point, margin)`` with ``g_k(point) <= -margin`` for every k.
    """

    size: int
    dim: int
    eval_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    value_bounds: np.ndarray
    lipschitz: np.ndarray
    curvature: float
    slater: tuple[np.ndarray, float] | None = None

    @property
    def value_bound_total(self) -> float:
        """Bound on ``sum_k |g_k(x)|``: the sum of per-constraint bounds."""
        return float(self.value_bounds.sum())

    @property
    def lipschitz_total(self) -> float:
        return float(self.lipschitz.sum())


def constraint_eval(block: ConstraintBlock, x: np.ndarray,
                    round_index: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate constraint values and the stacked Jacobian at ``x``.

    ``round_index`` names the round whose decision ``x`` is (0 for a run's
    start point); a non-finite oracle output raises an ``OracleError``
    carrying it.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (block.dim,):
        raise DimensionMismatchError(f"expected a point of dimension {block.dim}")
    values, jac = block.eval_fn(x)
    values = np.asarray(values, dtype=float).reshape(block.size)
    jac = np.asarray(jac, dtype=float).reshape(block.size, block.dim)
    # one scalar test, and the exact one only when it fails (an overflow)
    if not math.isfinite(values @ values + np.vdot(jac, jac)) and not (
            np.isfinite(values).all() and np.isfinite(jac).all()):
        where = "" if round_index is None else f" at round {round_index}"
        raise OracleError(f"constraint oracle returned a non-finite value{where}",
                          oracle="constraint", round_index=round_index)
    return values, jac


def _linear_interval(base: geo.BaseSet, a: np.ndarray) -> tuple[float, float]:
    """Exact range of ``<a, x>`` over the base set."""
    if isinstance(base, geo.Ball):
        mid = float(a @ base.center)
        half = base.radius * float(np.linalg.norm(a))
        return mid - half, mid + half
    if isinstance(base, geo.Box):
        lo = float(np.minimum(a * base.lower, a * base.upper).sum())
        hi = float(np.maximum(a * base.lower, a * base.upper).sum())
        return lo, hi
    return float(a.min()), float(a.max())


def _sq_dist_range(base: geo.BaseSet, c: np.ndarray) -> tuple[float, float]:
    """Bounds on ``||x - c||_2^2`` over the base set (lower may be slack)."""
    if isinstance(base, geo.Ball):
        gap = float(np.linalg.norm(base.center - c))
        lo = max(0.0, gap - base.radius)
        return lo * lo, (gap + base.radius) ** 2
    if isinstance(base, geo.Box):
        nearest = np.clip(c, base.lower, base.upper)
        lo = float(np.sum((nearest - c) ** 2))
        hi = float(np.sum(np.maximum((base.lower - c) ** 2, (base.upper - c) ** 2)))
        return lo, hi
    hi = float(np.sum(np.maximum(c**2, (1.0 - c) ** 2)))
    return 0.0, hi


def _coordinate_sup(base: geo.BaseSet, c: np.ndarray) -> np.ndarray:
    """Per-coordinate ``sup |x_i - c_i|`` over the base set."""
    if isinstance(base, geo.Ball):
        return np.abs(base.center - c) + base.radius
    if isinstance(base, geo.Box):
        return np.maximum(np.abs(base.lower - c), np.abs(base.upper - c))
    return np.maximum(np.abs(c), np.abs(1.0 - c))


def builtin_constants(spec: dict, base: geo.BaseSet) -> tuple[float, float, float]:
    """Certified constants ``(G, H, L_g)`` for a built-in constraint family.

    ``spec`` carries the family name and its parameters, e.g.
    ``{"family": "linear", "A": ..., "b": ...}`` or ``{"family":
    "quadratic", "centers": ..., "offsets": ...}``.  ``G`` bounds
    ``sum_k |g_k(x)|`` over the base set, ``H`` sums the per-constraint
    value Lipschitz constants, and ``L_g`` is the shared gradient
    Lipschitz constant.  All three may be overestimates; validity, not
    tightness, is the contract.
    """
    spec = dict(spec)
    family = spec.pop("family", None)
    consts = _family_constants(_geometry_for(base), base, family, **spec)
    return (
        float(consts["value_bounds"].sum()),
        float(consts["lipschitz"].sum()),
        float(consts["curvature"]),
    )


def _geometry_for(base: geo.BaseSet) -> geo.Geometry:
    if isinstance(base, geo.Simplex):
        return geo.entropic(base.dim)
    return geo.euclidean(base.dim)


def _family_constants(
    geom: geo.Geometry,
    base: geo.BaseSet,
    family: str,
    **params,
) -> dict:
    """Per-constraint constants backing ``builtin_constants``.

    Returns a dict with ``value_bounds`` (per-constraint ``sup |g_k|``),
    ``lipschitz`` (per-constraint value Lipschitz constants in the geometry
    norm), and ``curvature`` (shared gradient Lipschitz constant).
    """
    if family == "linear":
        A = np.atleast_2d(np.asarray(params["A"], dtype=float))
        b = np.asarray(params["b"], dtype=float).reshape(A.shape[0])
        bounds = []
        lips = []
        for k in range(A.shape[0]):
            lo, hi = _linear_interval(base, A[k])
            bounds.append(max(abs(lo - b[k]), abs(hi - b[k])))
            lips.append(geo.dual_norm(geom, A[k]))
        return {
            "value_bounds": np.asarray(bounds),
            "lipschitz": np.asarray(lips),
            "curvature": 0.0,
        }
    if family == "quadratic":
        centers = np.atleast_2d(np.asarray(params["centers"], dtype=float))
        offsets = np.asarray(params["offsets"], dtype=float).reshape(centers.shape[0])
        bounds = []
        lips = []
        for k in range(centers.shape[0]):
            lo, hi = _sq_dist_range(base, centers[k])
            bounds.append(max(abs(lo - offsets[k]), abs(hi - offsets[k])))
            per_coord = _coordinate_sup(base, centers[k])
            if geom.kind == geo.EUCLIDEAN:
                lips.append(2.0 * np.sqrt(hi))
            else:
                lips.append(2.0 * float(per_coord.max()))
        # gradient 2(x - c) is 2-Lipschitz in both norm pairings
        return {
            "value_bounds": np.asarray(bounds),
            "lipschitz": np.asarray(lips),
            "curvature": 2.0,
        }
    raise UnsupportedFamilyError(f"no built-in constants for family {family!r}")


def _resolve_slater(block_eval, point, dim) -> tuple[np.ndarray, float]:
    point = np.asarray(point, dtype=float)
    if point.shape != (dim,):
        raise DimensionMismatchError("slater point has the wrong dimension")
    values, _ = block_eval(point)
    margin = -float(np.max(values)) if values.size else np.inf
    if margin <= 0:
        raise ValueError("slater point is not strictly feasible")
    return point, margin


def linear_block(
    geom: geo.Geometry,
    base: geo.BaseSet,
    A,
    b,
    slater_point=None,
) -> ConstraintBlock:
    """Constraints ``g_k(x) = <A_k, x> - b_k`` with exact constants."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(A.shape[0])
    if A.shape[1] != base.dim:
        raise DimensionMismatchError("constraint matrix does not match the base set")

    def eval_fn(x):
        return A @ x - b, A

    consts = _family_constants(geom, base, "linear", A=A, b=b)
    slater = None
    if slater_point is not None:
        slater = _resolve_slater(eval_fn, slater_point, base.dim)
    return ConstraintBlock(
        size=A.shape[0], dim=base.dim, eval_fn=eval_fn,
        value_bounds=consts["value_bounds"], lipschitz=consts["lipschitz"],
        curvature=consts["curvature"], slater=slater,
    )


def quadratic_block(
    geom: geo.Geometry,
    base: geo.BaseSet,
    centers,
    offsets,
    slater_point=None,
) -> ConstraintBlock:
    """Constraints ``g_k(x) = ||x - c_k||_2^2 - s_k``."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    offsets = np.asarray(offsets, dtype=float).reshape(centers.shape[0])
    if centers.shape[1] != base.dim:
        raise DimensionMismatchError("constraint centers do not match the base set")

    def eval_fn(x):
        diff = x[None, :] - centers
        values = np.einsum("kd,kd->k", diff, diff) - offsets
        return values, 2.0 * diff

    consts = _family_constants(geom, base, "quadratic", centers=centers,
                               offsets=offsets)
    slater = None
    if slater_point is not None:
        slater = _resolve_slater(eval_fn, slater_point, base.dim)
    return ConstraintBlock(
        size=centers.shape[0], dim=base.dim, eval_fn=eval_fn,
        value_bounds=consts["value_bounds"], lipschitz=consts["lipschitz"],
        curvature=consts["curvature"], slater=slater,
    )


def empty_block(dim: int) -> ConstraintBlock:
    """A block with zero constraints; queues and penalties degenerate."""

    def eval_fn(x):
        return np.zeros(0), np.zeros((0, dim))

    return ConstraintBlock(
        size=0, dim=dim, eval_fn=eval_fn,
        value_bounds=np.zeros(0), lipschitz=np.zeros(0),
        curvature=0.0, slater=None,
    )


def stack_blocks(blocks: list[ConstraintBlock]) -> ConstraintBlock:
    """Concatenate constraint blocks over the same base set."""
    if not blocks:
        raise ValueError("stack_blocks needs at least one block")
    dim = blocks[0].dim
    if any(b.dim != dim for b in blocks):
        raise DimensionMismatchError("blocks disagree on dimension")

    def eval_fn(x):
        parts = [b.eval_fn(x) for b in blocks]
        values = np.concatenate([p[0] for p in parts])
        jac = np.concatenate([p[1] for p in parts])
        return values, jac

    slater = None
    candidates = [b.slater for b in blocks if b.slater is not None]
    if len(candidates) == len(blocks) and blocks:
        # a shared certificate only survives if every block uses the same point
        point = candidates[0][0]
        if all(np.array_equal(c[0], point) for c in candidates):
            slater = (point, min(c[1] for c in candidates))
    return ConstraintBlock(
        size=sum(b.size for b in blocks), dim=dim, eval_fn=eval_fn,
        value_bounds=np.concatenate([b.value_bounds for b in blocks]),
        lipschitz=np.concatenate([b.lipschitz for b in blocks]),
        curvature=max(b.curvature for b in blocks),
        slater=slater,
    )


# ---------------------------------------------------------------------------
# loss sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossSequence:
    """A finite sequence of convex per-round losses with certified constants.

    The query index runs over ``1..horizon``.  Index 0 is a documented alias
    for index 1 (the before-the-start convention), so the first round's
    lookback gradient is well-defined and the variation total starts at
    round 2.  ``value_fn`` and ``grad_fn`` take an index in ``1..horizon``
    and a float point of shape ``(dim,)``; ``grad_fn`` returns a float
    array of that shape.  Both must be pure functions of ``(t, x)``: the
    solver queries each ``(t, x)`` gradient once and reuses it.

    Attributes
    ----------
    grad_bound : float
        Bound on gradient dual norms over the base set.
    grad_lipschitz : float
        Gradient Lipschitz constant in the geometry pairing.  Must be
        strictly positive; for linear losses any positive value is valid.
    grad_constant_in_x : bool
        True when gradients do not depend on the query point, which makes
        the gradient-variation total exactly computable.
    grad_takes_stack : bool
        True when ``grad_fn`` maps an ``(n, d)`` stack of points to their
        ``(n, d)`` gradients in one call, row ``i`` equal to the one-point
        call on row ``i``.  Otherwise ``grad`` calls it once per row.
    coeffs : ndarray or None
        The linear families' read-only ``(P, d)`` coefficient table:
        ``f_t(x) = <coeffs[t % P], x>``.  Audits take whole-horizon passes
        over it.  None for every other family.
    """

    horizon: int
    dim: int
    value_fn: Callable[[int, np.ndarray], float]
    grad_fn: Callable[[int, np.ndarray], np.ndarray]
    grad_bound: float
    grad_lipschitz: float
    grad_constant_in_x: bool = False
    grad_takes_stack: bool = False
    variation_fn: Callable[[], float] | None = None
    mean_value_fn: Callable[[np.ndarray], float] | None = None
    mean_grad_fn: Callable[[np.ndarray], np.ndarray] | None = None
    mean_curvature: float = 0.0
    coeffs: np.ndarray | None = None

    def _index(self, t: int) -> int:
        if not 0 <= t <= self.horizon:
            raise ValueError(f"round index {t} outside [0, {self.horizon}]")
        return max(t, 1)

    def value(self, t: int, x: np.ndarray) -> float:
        return float(self.value_fn(self._index(t), np.asarray(x, dtype=float)))

    def grad(self, t: int, x: np.ndarray) -> np.ndarray:
        """Gradient of ``f_t`` at one point ``x``, or at each row of an
        ``(n, d)`` stack ``x``, shaped like ``x``; a stack row equals the
        one-point call on it, bit for bit.  A linear family's one-point
        gradient is a read-only row of its table."""
        t = self._index(t)
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return np.asarray(self.grad_fn(t, x), dtype=float)
        if self.grad_takes_stack:
            g = np.asarray(self.grad_fn(t, x), dtype=float)
            if g.shape != x.shape:
                raise DimensionMismatchError(
                    f"stacked gradient oracle returned shape {g.shape} "
                    f"for points of shape {x.shape}")
            return g
        return np.array([self.grad_fn(t, row) for row in x],
                        dtype=float).reshape(x.shape)


def by_round(table: np.ndarray, n: int) -> np.ndarray:
    """Rows ``table[t % P]`` of a ``(P, ...)`` table for ``t = 1..n``."""
    if n < len(table):
        return table[1:n + 1]
    return np.resize(np.roll(table, -1, axis=0), (n,) + table.shape[1:])


def in_order_sum(values: np.ndarray) -> np.ndarray:
    """Sum along the first axis, adding one entry at a time to 0.0.

    Bit for bit the loop ``total = 0.0; for v in values: total += v``,
    which numpy's pairwise ``sum`` is not.
    """
    start = np.zeros((1,) + values.shape[1:])
    return np.cumsum(np.concatenate([start, values]), axis=0)[-1]


def coeff_variation(geom: geo.Geometry, coeffs: np.ndarray,
                    horizon: int) -> float:
    """``sum_{t=2..horizon} ||c_t - c_{t-1}||_*^2`` of a coefficient table.

    One stacked ``dual_norm`` over the round-to-round deltas; the squares
    go through libm ``pow`` (``np.float_power``), as Python's ``x ** 2``
    does, and are added in round order.
    """
    norms = geo.dual_norm(geom, np.diff(by_round(coeffs, horizon), axis=0))
    return float(in_order_sum(np.float_power(norms, 2)))


def _linear_family(
    geom: geo.Geometry,
    base: geo.BaseSet,
    coeffs: np.ndarray,
    horizon: int,
    grad_lipschitz: float,
) -> LossSequence:
    """Assemble ``f_t(x) = <c_t, x>`` from a ``(P, d)`` coefficient table
    with ``c_t = coeffs[t % P]``."""
    _check_horizon(horizon)
    if grad_lipschitz <= 0:
        raise ValueError("grad_lipschitz must be positive (any positive "
                         "value is valid for linear losses)")
    coeffs.flags.writeable = False
    period = len(coeffs)

    rows = by_round(coeffs, horizon)
    grad_bound = float(geo.dual_norm(geom, rows).max())
    mean = in_order_sum(rows) / horizon

    return LossSequence(
        horizon=horizon, dim=base.dim,
        value_fn=lambda t, x: float(coeffs[t % period] @ x),
        grad_fn=lambda t, x: coeffs[t % period],
        grad_bound=grad_bound, grad_lipschitz=grad_lipschitz,
        grad_constant_in_x=True,
        variation_fn=lambda: coeff_variation(geom, coeffs, horizon),
        mean_value_fn=lambda x: float(mean @ x),
        mean_grad_fn=lambda x: mean.copy(),
        mean_curvature=0.0, coeffs=coeffs,
    )


def _check_horizon(horizon: int) -> None:
    if horizon < 1:
        raise ValueError("horizon must be at least 1")


def fixed_linear(geom, base, coeffs, horizon, grad_lipschitz=1.0) -> LossSequence:
    """Time-invariant linear loss ``f_t(x) = <c, x>``; variation total 0."""
    c = np.array(coeffs, dtype=float)
    if c.shape != (base.dim,):
        raise DimensionMismatchError("loss coefficients do not match the base set")
    return _linear_family(geom, base, c[None], horizon, grad_lipschitz)


def linear_drift(geom, base, start, drift, horizon, grad_lipschitz=1.0) -> LossSequence:
    """Coefficients sliding along a segment: ``c_t = start + (t/T) * drift``."""
    start = np.asarray(start, dtype=float)
    drift = np.asarray(drift, dtype=float)
    if start.shape != (base.dim,) or drift.shape != (base.dim,):
        raise DimensionMismatchError("loss coefficients do not match the base set")
    _check_horizon(horizon)
    table = start + (np.arange(horizon + 1) / horizon)[:, None] * drift
    return _linear_family(geom, base, table, horizon, grad_lipschitz)


def rotating_drift(
    geom, base, amplitude, rate, horizon,
    plane=None, grad_lipschitz=1.0,
) -> LossSequence:
    """Linear loss whose coefficient rotates with decaying angular steps.

    The coefficient traces ``amplitude * (cos(theta_t) e1 + sin(theta_t) e2)``
    with ``theta_t - theta_{t-1} = rate * t**(-1/4)``.  Per-step gradient
    variation then decays like ``t**(-1/2)``, so the variation total grows
    like ``sqrt(T)`` while gradients stay bounded.
    """
    if base.dim < 2:
        raise DimensionMismatchError("rotating drift needs dimension >= 2")
    if plane is None:
        e1 = np.zeros(base.dim)
        e2 = np.zeros(base.dim)
        e1[0] = 1.0
        e2[1] = 1.0
    else:
        e1 = np.asarray(plane[0], dtype=float)
        e2 = np.asarray(plane[1], dtype=float)
        e1 = e1 / np.linalg.norm(e1)
        e2 = e2 - (e2 @ e1) * e1
        e2 = e2 / np.linalg.norm(e2)
    angles = np.zeros(horizon + 1)
    steps = rate * np.arange(2, horizon + 1, dtype=float) ** -0.25
    angles[2:] = np.cumsum(steps)
    table = amplitude * (np.cos(angles)[:, None] * e1
                         + np.sin(angles)[:, None] * e2)
    return _linear_family(geom, base, table, horizon, grad_lipschitz)


def alternating(geom, base, first, second, horizon, grad_lipschitz=1.0) -> LossSequence:
    """Coefficients flipping between two vectors: odd rounds use ``first``."""
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    if first.shape != (base.dim,) or second.shape != (base.dim,):
        raise DimensionMismatchError("loss coefficients do not match the base set")
    return _linear_family(geom, base, np.stack([second, first]), horizon,
                          grad_lipschitz)


def fixed_quadratic(geom, base, target, horizon, scale=1.0) -> LossSequence:
    """Time-invariant quadratic loss ``f_t(x) = (scale/2) ||x - target||_2^2``."""
    target = np.asarray(target, dtype=float)
    if target.shape != (base.dim,):
        raise DimensionMismatchError("loss target does not match the base set")
    if scale <= 0:
        raise ValueError("scale must be positive")
    sup_diff = _coordinate_sup(base, target)
    if geom.kind == geo.EUCLIDEAN:
        if isinstance(base, geo.Ball):
            reach = float(np.linalg.norm(base.center - target)) + base.radius
        else:
            reach = float(np.linalg.norm(sup_diff))
    else:
        reach = float(sup_diff.max())

    def value_fn(t, x):
        diff = x - target
        return 0.5 * scale * float(diff @ diff)

    return LossSequence(
        horizon=horizon, dim=base.dim,
        value_fn=value_fn,
        grad_fn=lambda t, x: scale * (x - target),
        grad_bound=scale * reach, grad_lipschitz=scale,
        grad_constant_in_x=False, grad_takes_stack=True,
        variation_fn=lambda: 0.0,
        mean_value_fn=lambda x: value_fn(1, x),
        mean_grad_fn=lambda x: scale * (x - target),
        mean_curvature=scale,
    )


def quadratic_drift(
    geom, base, target0, target_drift, horizon,
    scale0=1.0, scale_drift=0.0,
) -> LossSequence:
    """Quadratic loss with drifting target and curvature.

    ``f_t(x) = (s_t / 2) ||x - z_t||_2^2`` with ``s_t = scale0 +
    (t/T) * scale_drift`` and ``z_t = target0 + (t/T) * target_drift``.
    The variation total is a certified overestimate assembled from the
    triangle inequality: ``|s_t - s_{t-1}| * sup ||x|| + ||s_t z_t -
    s_{t-1} z_{t-1}||``, both measured in the dual norm.
    """
    target0 = np.asarray(target0, dtype=float)
    target_drift = np.asarray(target_drift, dtype=float)
    if target0.shape != (base.dim,) or target_drift.shape != (base.dim,):
        raise DimensionMismatchError("loss targets do not match the base set")
    scales = scale0 + (np.arange(horizon + 1) / horizon) * scale_drift
    if np.any(scales[1:] <= 0):
        raise ValueError("curvature must remain positive across the horizon")

    def z_at(t: int) -> np.ndarray:
        return target0 + (t / horizon) * target_drift

    def value_fn(t, x):
        diff = x - z_at(t)
        return 0.5 * scales[t] * float(diff @ diff)

    def grad_fn(t, x):
        return scales[t] * (x - z_at(t))

    reach = 0.0
    for t in (1, horizon):
        sup_diff = _coordinate_sup(base, z_at(t))
        if geom.kind == geo.EUCLIDEAN:
            reach = max(reach, float(np.linalg.norm(sup_diff)))
        else:
            reach = max(reach, float(sup_diff.max()))
    grad_bound = float(scales[1:].max()) * reach

    sup_x = _coordinate_sup(base, np.zeros(base.dim))
    x_reach = (float(np.linalg.norm(sup_x)) if geom.kind == geo.EUCLIDEAN
               else float(sup_x.max()))

    def variation() -> float:
        total = 0.0
        prev_s = scales[1]
        prev_m = scales[1] * z_at(1)
        for t in range(2, horizon + 1):
            cur_s = scales[t]
            cur_m = cur_s * z_at(t)
            total += (abs(cur_s - prev_s) * x_reach
                      + geo.dual_norm(geom, cur_m - prev_m)) ** 2
            prev_s, prev_m = cur_s, cur_m
        return total

    mean_scale = float(scales[1:].mean())
    mean_m = np.mean([scales[t] * z_at(t) for t in range(1, horizon + 1)], axis=0)
    mean_const = float(np.mean(
        [0.5 * scales[t] * float(z_at(t) @ z_at(t)) for t in range(1, horizon + 1)]
    ))

    return LossSequence(
        horizon=horizon, dim=base.dim,
        value_fn=value_fn, grad_fn=grad_fn,
        grad_bound=grad_bound, grad_lipschitz=float(scales[1:].max()),
        grad_constant_in_x=False, grad_takes_stack=True,
        variation_fn=variation,
        mean_value_fn=lambda x: (0.5 * mean_scale * float(x @ x)
                                 - float(mean_m @ x) + mean_const),
        mean_grad_fn=lambda x: mean_scale * x - mean_m,
        mean_curvature=mean_scale,
    )


def custom_sequence(
    geom, base, value_fn, grad_fn, horizon,
    grad_bound, grad_lipschitz, variation=None,
    mean_value_fn=None, mean_grad_fn=None, mean_curvature=0.0,
) -> LossSequence:
    """Wrap user oracles; a variation total must be supplied to run adaptively.

    ``value_fn(t, x)`` and ``grad_fn(t, x)`` see one round index in
    ``1..horizon`` and one point.  They must be pure functions of ``(t,
    x)``: the solver queries each ``(t, x)`` gradient once and reuses it
    (round ``t`` steps first with the gradient that round ``t - 1``
    queried at ``x_{t-1}``).
    """
    return LossSequence(
        horizon=horizon, dim=base.dim,
        value_fn=value_fn,
        grad_fn=lambda t, x: np.asarray(grad_fn(t, x), dtype=float),
        grad_bound=grad_bound, grad_lipschitz=grad_lipschitz,
        grad_constant_in_x=False,
        variation_fn=(lambda: float(variation)) if variation is not None else None,
        mean_value_fn=mean_value_fn, mean_grad_fn=mean_grad_fn,
        mean_curvature=mean_curvature,
    )


def gradient_variation(seq: LossSequence, base: geo.BaseSet | None = None) -> float:
    """Total gradient variation of the sequence, exact or overestimated.

    Sums ``sup_x ||grad f_t(x) - grad f_{t-1}(x)||_*^2`` over rounds
    ``2..T`` (the round-1 term is zero by the before-the-start convention).
    Exact for families whose gradients do not depend on ``x``; a certified
    overestimate for the quadratic drift family.  The supremum's domain is
    baked in at construction time; passing the base set here only validates
    that it matches.
    """
    if base is not None and base.dim != seq.dim:
        raise DimensionMismatchError("loss sequence and base set disagree "
                                     "on dimension")
    if seq.variation_fn is None:
        raise UnsupportedFamilyError(
            "custom loss family needs an explicit variation total"
        )
    v = float(seq.variation_fn())
    if v < 0 or not np.isfinite(v):
        raise ValueError("variation total must be finite and nonnegative")
    return v


# ---------------------------------------------------------------------------
# hindsight comparator
# ---------------------------------------------------------------------------


def _fista(objective, base, x0, *, lipschitz_guess=1.0,
           max_iter=20000, tol=1e-12, stall_limit=120):
    """Accelerated projected gradient with backtracking and restarts.

    ``objective`` is the fused oracle: it maps a point to the pair
    ``(value, gradient)``.  It is called once per point the solver visits:
    once per extrapolated point, and once per backtracking candidate, whose
    value then also serves the restart and best-value tests.  After a
    function-value restart the next point is that candidate itself, and its
    pair is reused.

    Returns ``(x, residual)`` where residual is the final squared
    gradient-mapping norm.  Stops early when the residual drops below
    ``tol`` or the best objective value has not improved for
    ``stall_limit`` iterations.
    """
    x = np.asarray(x0, dtype=float)
    y = x.copy()
    momentum = 1.0
    step_inv = max(lipschitz_guess, 1e-12)
    f_y, g = objective(y)
    best_val = f_y
    best_x = x.copy()
    residual = np.inf
    stale = 0
    for _ in range(max_iter):
        if g is None:
            f_y, g = objective(y)
        while True:
            candidate = geo.project(base, y - g / step_inv)
            delta = candidate - y
            quad = f_y + float(g @ delta) + 0.5 * step_inv * float(delta @ delta)
            cand_val, cand_grad = objective(candidate)
            if cand_val <= quad + 1e-15:
                break
            step_inv *= 2.0
            if step_inv > 1e18:
                break
        residual = step_inv**2 * float(delta @ delta)
        if residual <= tol:
            return candidate, residual
        momentum_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum**2))
        if cand_val > best_val:          # function-value restart
            y = candidate.copy()
            f_y, g = cand_val, cand_grad
            momentum_new = 1.0
        else:
            y = candidate + ((momentum - 1.0) / momentum_new) * (candidate - x)
            g = None
        if cand_val < best_val - 1e-15 * (1.0 + abs(best_val)):
            best_val = cand_val
            best_x = candidate.copy()
            stale = 0
        else:
            stale += 1
            if stale >= stall_limit:
                return best_x, residual
        x = candidate
        momentum = momentum_new
        step_inv *= 0.5                  # allow the step to grow back
    return x, residual


def _squared_violation(block: ConstraintBlock, x: np.ndarray):
    """Value and gradient of ``sum_k max(g_k(x), 0)^2`` from one block call."""
    values, jac = block.eval_fn(x)
    hinge = np.maximum(values, 0.0)
    return float((hinge ** 2).sum()), 2.0 * (hinge @ jac)


def hindsight_comparator(
    seq: LossSequence,
    block: ConstraintBlock,
    base: geo.BaseSet,
    *,
    feas_tol: float = 1e-6,
    max_iter: int = 20000,
) -> np.ndarray:
    """Best fixed feasible decision in hindsight.

    Minimizes the averaged loss over the base set intersected with
    ``g_k(x) <= 0``, by accelerated projected gradient on a quadratic
    hinge penalty whose weight escalates until the violation tolerance is
    met, with a final pull toward the strictly feasible certificate point
    to clear any residual violation.

    Raises
    ------
    InfeasibleError
        No feasible point exists (carries the most violated index).
    ConvergenceError
        The solve stalled above its tolerance (carries the residual).
    """
    if seq.mean_value_fn is None or seq.mean_grad_fn is None:
        raise UnsupportedFamilyError(
            "hindsight comparator needs averaged-loss oracles"
        )
    x0 = geo.center(base)

    if block.size == 0:
        x, residual = _fista(
            lambda p: (seq.mean_value_fn(p), seq.mean_grad_fn(p)), base, x0,
            lipschitz_guess=max(seq.mean_curvature, 1.0),
            max_iter=max_iter,
        )
        if residual > 1e-8:
            raise ConvergenceError("comparator solve stalled", residual=residual)
        return x

    if block.slater is None:
        # certify feasibility before optimizing
        probe, _ = _fista(lambda p: _squared_violation(block, p), base, x0,
                          max_iter=max_iter)
        values, _ = block.eval_fn(probe)
        if np.max(values) > 1e-6:
            worst = int(np.argmax(values))
            raise InfeasibleError(
                f"no feasible point found; constraint {worst} stays at "
                f"{values[worst]:.3e}", constraint_index=worst,
            )

    # a residual violation below the stage target is cleared afterwards by
    # the pull toward the certificate point; without a certificate the
    # stages must do the whole job
    stage_target = feas_tol if block.slater is not None else min(feas_tol, 1e-9)
    x = x0
    weight = 1000.0
    curvature_guess = max(seq.mean_curvature, 1.0)
    for _ in range(6):
        def penalized(p, w=weight):
            violation_sq, violation_grad = _squared_violation(block, p)
            return (seq.mean_value_fn(p) + w * violation_sq,
                    seq.mean_grad_fn(p) + w * violation_grad)

        x, residual = _fista(penalized, base, x,
                             lipschitz_guess=curvature_guess, max_iter=max_iter)
        values, _ = block.eval_fn(x)
        if float(np.max(values, initial=0.0)) <= stage_target:
            break
        weight *= 100.0
        curvature_guess *= 100.0
    else:
        if block.slater is None:
            raise ConvergenceError(
                "penalty escalation left residual violation",
                residual=float(np.max(values, initial=0.0)),
            )

    worst = float(np.max(values, initial=0.0))
    if worst > 0.0 and block.slater is not None:
        # convex pull toward the certificate clears the residual violation
        point, margin = block.slater
        pull = worst / (worst + margin)
        pull = min(1.0, pull * (1.0 + 1e-9) + 1e-15)
        x = (1.0 - pull) * x + pull * point
        values, _ = block.eval_fn(x)
        worst = float(np.max(values, initial=0.0))
    if worst > 1e-8:
        raise ConvergenceError(
            "comparator violation above tolerance", residual=worst,
        )
    return x

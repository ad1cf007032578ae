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
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from . import geometry as geo
from .errors import (ConvergenceError, DimensionMismatchError, DomainError,
                     InfeasibleError, OracleError, UnsupportedFamilyError)

# ---------------------------------------------------------------------------
# constraint blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintBlock:
    """A block of ``size`` inequality constraints with certified constants.

    A built-in block is read-only tables: ``A`` and ``b`` for linear rows
    ``g_k(x) = <A_k, x> - b_k``, ``centers`` and ``offsets`` for quadratic
    rows ``g_k(x) = ||x - c_k||_2^2 - s_k``.  Linear rows come first unless
    ``order`` puts a stack's rows back in the order of its parts.  A custom
    block has an ``eval_fn`` instead, and a block given one drops any
    tables, so ``dataclasses.replace(block, eval_fn=f)`` keeps no stale
    ones.

    Attributes
    ----------
    size : int
        Number of constraints ``K``.  May be zero.
    base : BaseSet
        The set the constants hold over; a custom block names its own.
    eval_fn : callable or None
        A custom block's oracle: maps one point ``x`` to ``(values,
        jacobian)`` with shapes ``(K,)`` and ``(K, d)``.
    value_bounds : ndarray
        Per-constraint bounds ``sup_x |g_k(x)|`` over the base set.
    lipschitz : ndarray
        Per-constraint value Lipschitz constants in the base set's norm.
    curvature : float
        Gradient Lipschitz constant shared by the block, in the base set's
        norm / dual-norm pairing.
    slater : tuple or None
        ``(point, margin)`` with ``g_k(point) <= -margin`` for every k.
    """

    size: int
    base: geo.BaseSet
    eval_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None
    value_bounds: np.ndarray
    lipschitz: np.ndarray
    curvature: float
    slater: tuple[np.ndarray, float] | None = None
    A: np.ndarray | None = None
    b: np.ndarray | None = None
    centers: np.ndarray | None = None
    offsets: np.ndarray | None = None
    order: np.ndarray | None = None

    def __post_init__(self):
        if self.eval_fn is not None:
            for name in ("A", "b", "centers", "offsets", "order"):
                object.__setattr__(self, name, None)

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def value_bound_total(self) -> float:
        """Bound on ``sum_k |g_k(x)|``: the sum of per-constraint bounds."""
        return float(self.value_bounds.sum())

    @property
    def lipschitz_total(self) -> float:
        return float(self.lipschitz.sum())


def _tables(block: ConstraintBlock, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A built-in block's unscreened ``(values, jacobian)`` at one point or
    at each row of an ``(n, d)`` stack.

    The tables may also carry a cell axis, stacked over ``S`` blocks of one
    layout: ``A`` and ``centers`` of shape ``(S, K, d)``, ``b`` and
    ``offsets`` of shape ``(S, K)``, one shared ``order``.  At ``(S, d)``
    decisions, row ``j`` on block ``j``'s tables, that gives ``(S, K)``
    values and ``(S, K, d)`` Jacobians whose rows equal each block's
    one-point call bit for bit."""
    A, centers = block.A, block.centers
    if A is not None:
        if x.ndim == 1:
            values, jac = A @ x - block.b, A
        else:
            # a stacked matmul of column vectors keeps each row's matvec
            # bits, which ``x @ A.T`` does not
            values = (A @ x[:, :, None])[:, :, 0] - block.b
            jac = A if A.ndim == 3 else np.broadcast_to(A, x.shape[:1] + A.shape)
        if centers is None:
            return values, jac
    diff = x[..., None, :] - centers
    quadratic = np.einsum("...kd,...kd->...k", diff, diff) - block.offsets
    if A is None:
        return quadratic, 2.0 * diff
    values = np.concatenate([values, quadratic], axis=-1)
    jac = np.concatenate([jac, 2.0 * diff], axis=-2)
    if block.order is not None:
        values, jac = values[..., block.order], jac[..., block.order, :]
    return values, jac


def _evaluate(block: ConstraintBlock, x: np.ndarray):
    """A block's unscreened ``(values, jacobian)`` at one float point."""
    return _tables(block, x) if block.eval_fn is None else block.eval_fn(x)


def constraint_eval(block: ConstraintBlock, x: np.ndarray,
                    round_index: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate constraint values and the stacked Jacobian at ``x``.

    ``x`` is one point of shape ``(d,)``, giving ``(K,)`` values and a
    ``(K, d)`` Jacobian, or an ``(n, d)`` stack of points, giving ``(n, K)``
    values and ``(n, K, d)`` Jacobians whose rows equal the one-point calls
    bit for bit.  A built-in block evaluates its tables in one pass; a
    custom block's ``eval_fn`` is called once per point and its outputs
    converted to float arrays.  ``round_index`` names the round whose
    decision ``x`` is (0 for a run's start point); a non-finite oracle
    output raises an ``OracleError`` carrying it.
    """
    x = np.asarray(x, dtype=float)
    if x.shape == (block.dim,):
        shape = (block.size,)
    elif x.ndim == 2 and x.shape[1] == block.dim:
        shape = (len(x), block.size)
    else:
        raise DimensionMismatchError(f"expected a point of dimension {block.dim} "
                                     f"or an (n, {block.dim}) stack")
    if block.eval_fn is None:
        values, jac = _tables(block, x)
    else:
        rows = [block.eval_fn(p) for p in (x if x.ndim == 2 else (x,))]
        values = np.asarray([v for v, _ in rows], dtype=float).reshape(shape)
        jac = np.asarray([j for _, j in rows],
                         dtype=float).reshape(shape + (block.dim,))
    # one scalar test, and the exact one only when it fails (an overflow).
    # A table's values alone decide: ``A`` is finite (checked at
    # construction) and ``2 (x - c)`` overflows only where ``||x - c||^2``
    # already has
    flat = values.ravel()
    total = flat.dot(flat)
    if block.eval_fn is not None:
        flat = jac.ravel()
        total += flat.dot(flat)
    if not math.isfinite(total) and not (np.isfinite(values).all()
                                         and np.isfinite(jac).all()):
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


def _reach(base: geo.BaseSet, c: np.ndarray) -> float:
    """Bound on ``sup ||x - c||_*`` over the base set: exact on a ball, the
    dual norm of the per-coordinate supremum elsewhere."""
    if isinstance(base, geo.Ball):
        return float(np.linalg.norm(base.center - c)) + base.radius
    return geo.dual_norm(base, _coordinate_sup(base, c))


def _family_constants(base: geo.BaseSet, family: str, **tables) -> dict:
    """Per-constraint constants of a built-in family's tables:
    ``value_bounds`` (``sup |g_k|`` over the base set), ``lipschitz``
    (value Lipschitz constants in the base set's norm) and ``curvature``
    (the shared gradient Lipschitz constant)."""
    if family == "linear":
        rows, offsets = tables["A"], tables["b"]
        ranges = [_linear_interval(base, a) for a in rows]
        lips = [geo.dual_norm(base, a) for a in rows]
    else:
        rows, offsets = tables["centers"], tables["offsets"]
        ranges = [_sq_dist_range(base, c) for c in rows]
        lips = [2.0 * (_reach(base, c) if isinstance(base, geo.Simplex)
                       else np.sqrt(hi))
                for c, (_, hi) in zip(rows, ranges)]
    bounds = [max(abs(lo - s), abs(hi - s)) for (lo, hi), s in zip(ranges, offsets)]
    # gradient 2(x - c) is 2-Lipschitz in both norm pairings
    return {"value_bounds": np.asarray(bounds), "lipschitz": np.asarray(lips),
            "curvature": 0.0 if family == "linear" else 2.0}


def _table_block(base, family, slater_point, **tables) -> ConstraintBlock:
    """A built-in block on finite tables, made read-only, with the family's
    constants and an optional Slater certificate."""
    for table in tables.values():
        if not np.isfinite(table).all():
            raise ValueError(f"{family} constraint tables must be finite")
        table.setflags(write=False)
    block = ConstraintBlock(
        size=len(next(iter(tables.values()))), base=base, eval_fn=None,
        **_family_constants(base, family, **tables), **tables)
    if slater_point is None:
        return block
    point = np.asarray(slater_point, dtype=float)
    if point.shape != (base.dim,):
        raise DimensionMismatchError("slater point has the wrong dimension")
    margin = -float(np.max(_tables(block, point)[0], initial=-np.inf))
    if margin <= 0:
        raise ValueError("slater point is not strictly feasible")
    return replace(block, slater=(point, margin))


def linear_block(base: geo.BaseSet, A, b, slater_point=None) -> ConstraintBlock:
    """Constraints ``g_k(x) = <A_k, x> - b_k`` with exact constants."""
    A = np.atleast_2d(np.array(A, dtype=float))
    b = np.array(b, dtype=float).reshape(A.shape[0])
    if A.shape[1] != base.dim:
        raise DimensionMismatchError("constraint matrix does not match the base set")
    return _table_block(base, "linear", slater_point, A=A, b=b)


def quadratic_block(base: geo.BaseSet, centers, offsets,
                    slater_point=None) -> ConstraintBlock:
    """Constraints ``g_k(x) = ||x - c_k||_2^2 - s_k``."""
    centers = np.atleast_2d(np.array(centers, dtype=float))
    offsets = np.array(offsets, dtype=float).reshape(centers.shape[0])
    if centers.shape[1] != base.dim:
        raise DimensionMismatchError("constraint centers do not match the base set")
    return _table_block(base, "quadratic", slater_point,
                        centers=centers, offsets=offsets)


def empty_block(base: geo.BaseSet) -> ConstraintBlock:
    """A block with zero constraints on ``base``, a linear table with no
    rows; queues and penalties degenerate."""
    return linear_block(base, np.zeros((0, base.dim)), np.zeros(0))


def stack_blocks(blocks: list[ConstraintBlock]) -> ConstraintBlock:
    """Concatenate built-in blocks over one base set, else ``ValueError``.

    The parts' linear tables and quadratic tables are concatenated, and
    ``order`` keeps the rows in the parts' order when a quadratic row comes
    before a linear one.  A custom block is one ``eval_fn`` over all its
    rows, so it is not stacked.
    """
    if not blocks:
        raise ValueError("stack_blocks needs at least one block")
    base = blocks[0].base
    if any(part.dim != base.dim for part in blocks):
        raise DimensionMismatchError("blocks disagree on dimension")
    if not all(geo.same_set(part.base, base) for part in blocks):
        raise ValueError("blocks were built on different base sets")
    if any(part.eval_fn is not None for part in blocks):
        raise UnsupportedFamilyError("stack_blocks takes built-in blocks")

    linear = [p for p in blocks if p.A is not None and len(p.A)] or [empty_block(base)]
    quadratic = [p for p in blocks if p.centers is not None]
    tables = {"A": np.concatenate([p.A for p in linear]),
              "b": np.concatenate([p.b for p in linear])}
    if quadratic:
        tables.update(centers=np.concatenate([p.centers for p in quadratic]),
                      offsets=np.concatenate([p.offsets for p in quadratic]))
    for table in tables.values():
        table.setflags(write=False)
    # each part's rows sit among the linear rows, then the quadratic ones
    n_linear, rows, order = len(tables["b"]), [0, 0], []
    for part in blocks:
        k = len(part.b) if part.b is not None else 0
        at = np.r_[rows[0]:rows[0] + k,
                   n_linear + rows[1]:n_linear + rows[1] + part.size - k]
        order.append(at if part.order is None else at[part.order])
        rows = [rows[0] + k, rows[1] + part.size - k]
    order = np.concatenate(order)

    slater = None
    candidates = [part.slater for part in blocks if part.slater is not None]
    if len(candidates) == len(blocks):
        # a shared certificate only survives if every block uses the same point
        point = candidates[0][0]
        if all(np.array_equal(c[0], point) for c in candidates):
            slater = (point, min(c[1] for c in candidates))
    return ConstraintBlock(
        size=len(order), base=base, eval_fn=None,
        value_bounds=np.concatenate([part.value_bounds for part in blocks]),
        lipschitz=np.concatenate([part.lipschitz for part in blocks]),
        curvature=max(part.curvature for part in blocks), slater=slater,
        order=None if np.array_equal(order, np.arange(len(order))) else order,
        **tables)


# ---------------------------------------------------------------------------
# loss sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossSequence:
    """A finite sequence of convex per-round losses with certified constants.

    The query index runs over ``1..horizon``.  Index 0 is a documented alias
    for index 1 (the before-the-start convention), so the first round's
    lookback gradient is well-defined and the variation total starts at
    round 2.

    A sequence holds one of three loss forms.  A built-in family is
    read-only tables whose row ``t % P`` fixes round ``t`` (``P`` is 1, 2 or
    ``horizon + 1``), walked by audits in blocks of ``BLOCK_ROUNDS`` rounds,
    and constants computed from them once.  A custom sequence holds its
    user oracles in ``callbacks``, the only callables the class holds.  A
    constant that is not finite, or a negative variation total, raises
    ``DomainError`` naming it when the sequence is made.

    Attributes
    ----------
    base : BaseSet
        The set the losses are played on; it fixes the dimension and the
        norm pairing every constant is measured in.
    grad_bound, grad_lipschitz : float
        Bound on gradient dual norms over the base set, and the gradient
        Lipschitz constant in its norm pairing (strictly positive; any
        positive value is valid for linear losses).
    variation : float or None
        The total gradient variation: exact for a coefficient table, a
        certified overestimate for a quadratic family, or a custom
        sequence's supplied total.
    coeffs : ndarray or None
        The linear families' ``(P, d)`` table: ``f_t(x) = <coeffs[t % P], x>``.
    scales, targets : ndarray or None
        The quadratic families' ``(P,)`` and ``(P, d)`` tables: ``f_t(x) =
        (scales[t % P] / 2) ||x - targets[t % P]||_2^2``.
    mean : tuple
        ``(s, m, c)`` of a table's averaged loss ``F(x) = (s/2) ||x||_2^2 -
        <m, x> + c``; a custom sequence's mean curvature ``s`` alone.
    callbacks : tuple or None
        A custom sequence's ``(value_fn, grad_fn, mean_value_fn,
        mean_grad_fn)``.
    """

    horizon: int
    base: geo.BaseSet
    grad_bound: float
    grad_lipschitz: float
    variation: float | None = None
    coeffs: np.ndarray | None = None
    scales: np.ndarray | None = None
    targets: np.ndarray | None = None
    mean: tuple = (0.0, None, None)
    callbacks: tuple | None = None

    def __post_init__(self):
        names = ("grad_bound", "variation total", "mean curvature",
                 "mean moment", "mean constant")
        for name, value in zip(names, (self.grad_bound, self.variation, *self.mean)):
            if value is not None and not np.isfinite(value).all():
                raise DomainError(f"the loss sequence's {name} is not finite")
        if self.variation is not None and self.variation < 0:
            raise DomainError("the loss sequence's variation total is negative")

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def mean_curvature(self) -> float:
        return self.mean[0]

    def _index(self, t):
        """``t`` checked to lie in ``0..horizon``, index 0 read as 1."""
        bad = np.asarray(t)
        bad = bad[(bad < 0) | (bad > self.horizon)]
        if bad.size:
            raise ValueError(f"round index {bad.flat[0]} outside "
                             f"[0, {self.horizon}]")
        return max(int(t), 1) if np.ndim(t) == 0 else np.maximum(t, 1)

    def value(self, t, x):
        """``f_t(x)`` for a round index ``t`` in ``0..horizon``, or an int
        array of them broadcast against the leading axes of ``x``: a float
        for one round at one point, else an array whose every entry equals
        the one-point call bit for bit."""
        return _loss(self, False, self._index(t), np.asarray(x, dtype=float))

    def grad(self, t, x):
        """``grad f_t(x)``, broadcast as in ``value`` with a trailing axis
        of length ``dim``; a linear family's one-point gradient is a
        read-only row of its table."""
        return _loss(self, True, self._index(t), np.asarray(x, dtype=float))

    def mean_value(self, x) -> float:
        """The averaged loss at one point ``x``."""
        return _loss(self, False, None, np.asarray(x, dtype=float))

    def mean_grad(self, x) -> np.ndarray:
        """The averaged loss's gradient at one point ``x``."""
        return _loss(self, True, None, np.asarray(x, dtype=float))


def _loss(seq: LossSequence, gradient: bool, t, x: np.ndarray):
    """The one evaluator of every loss form: ``f_t(x)``, or its gradient
    with ``gradient``, for ``t`` a round index in ``1..horizon`` or an int
    array of them broadcast against the leading axes of ``x``, and the
    averaged loss at one point for ``t`` None.

    A table's rows are gathered and evaluated in one pass, each entry with
    the bits of the one-point call; a fixed quadratic loss is its own mean.
    The rows may carry a cell axis, as in a sequence whose tables are the
    ``(n + 1, S, d)`` coefficients, or ``(n + 1, S)`` scales and ``(n + 1,
    S, d)`` targets, of ``S`` cells' rounds: then ``t`` indexes the rows,
    and an ``(n,)`` array of rounds at ``(n, S, d)`` points gives ``(n,
    S)`` losses, one round at ``(S, d)`` points ``(S, d)`` gradients, each
    entry the cell's one-point call's bits.
    A custom sequence's callbacks are called once per (round, point), in
    row-major order, their outputs converted to floats.
    """
    if seq.callbacks is not None:
        fn = seq.callbacks[(2 if t is None else 0) + gradient]
        if t is None or (np.ndim(t) == 0 and x.ndim == 1):
            out = fn(x) if t is None else fn(t, x)
            return np.asarray(out, dtype=float) if gradient else float(out)
        shape, d = np.broadcast_shapes(np.shape(t), x.shape[:-1]), x.shape[-1]
        points = np.broadcast_to(x, shape + (d,)).reshape(-1, d)
        out = np.array([fn(r, p) for r, p in zip(
            np.broadcast_to(t, shape).ravel().tolist(), points)], dtype=float)
        return out.reshape(shape + (d,) if gradient else shape)
    if seq.coeffs is not None:
        row = -seq.mean[1] if t is None else seq.coeffs[t % len(seq.coeffs)]
        if not gradient:
            return geo._row_dot(row, x)
        if row.shape == x.shape:
            return row
        return np.broadcast_to(row, np.broadcast_shapes(row.shape, x.shape))
    if t is None and len(seq.scales) > 1:
        s, m, c = seq.mean
        if gradient:
            return s * x - m
        return 0.5 * s * float(x @ x) - float(m @ x) + c
    row = 0 if t is None else t % len(seq.scales)
    s = seq.scales[row]
    diff = x - seq.targets[row]
    if not gradient:
        return 0.5 * s * geo._row_dot(diff, diff)
    diff *= s if diff.ndim == 1 else s[..., None]
    return diff


def loss_oracles(seq: LossSequence) -> tuple:
    """``(value, grad)``: ``_loss`` bound to ``seq``, called as ``f(t, x)``
    on one index in ``1..horizon`` and one float point, unchecked."""
    return partial(_loss, seq, False), partial(_loss, seq, True)


# rounds per block of every whole-horizon pass over a trace or a loss table:
# a block of the probe-gradient variation pass is (65, 33, d) floats at the
# default probe budget, 51 kB at d=3
BLOCK_ROUNDS = 64


def row_blocks(start: int, stop: int, overlap: int = 0):
    """``(lo, hi)`` bounds of the ``BLOCK_ROUNDS``-row blocks that cover rows
    ``start..stop - 1``.  With ``overlap=1`` each block also takes the next
    block's first row, so round-to-round differences fall inside one block,
    and rows with no difference to take give no block."""
    for lo in range(start, stop - overlap, BLOCK_ROUNDS):
        yield lo, min(lo + BLOCK_ROUNDS + overlap, stop)


def by_round(table: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows ``table[t % P]`` of a ``(P, ...)`` table for ``t = start..stop -
    1``: a view when they lie in the table, else gathered."""
    if stop <= len(table):
        return table[start:stop]
    return table[np.arange(start, stop) % len(table)]


def in_order_sum(values: np.ndarray, total=0.0) -> np.ndarray:
    """``total`` plus the entries along the first axis, one at a time.

    Bit for bit the loop ``for v in values: total += v``, which numpy's
    pairwise ``sum`` is not; so a pass may add its blocks in turn, feeding
    each block's result to the next as ``total``.
    """
    start = np.full((1,) + values.shape[1:], total)
    return np.cumsum(np.concatenate([start, values]), axis=0)[-1]


def coeff_variation(base: geo.BaseSet, coeffs: np.ndarray,
                    horizon: int) -> float:
    """``sum_{t=2..horizon} ||c_t - c_{t-1}||_*^2`` of a coefficient table.

    One stacked ``dual_norm`` per block of round-to-round deltas; the
    squares go through libm ``pow`` (``np.float_power``), as Python's ``x **
    2`` does, and are added in round order.
    """
    total = 0.0
    for lo, hi in row_blocks(1, horizon + 1, overlap=1):
        deltas = np.diff(by_round(coeffs, lo, hi), axis=0)
        total = in_order_sum(np.float_power(geo.dual_norm(base, deltas), 2),
                             total)
    return float(total)


def total_loss(seq: LossSequence, x: np.ndarray, n: int) -> float:
    """``f_1(x) + ... + f_n(x)`` in round order, one ``seq.value`` call per
    block of ``BLOCK_ROUNDS`` rounds: each term has ``seq.value(t, x)``'s
    bits, and a custom sequence, the one callback form, is called per round."""
    total = 0.0
    for lo, hi in row_blocks(1, n + 1):
        total = in_order_sum(seq.value(np.arange(lo, hi), x), total)
    return float(total)


def _loss_tables(horizon: int, **tables) -> list[np.ndarray]:
    """The rows of a built-in family's tables that rounds ``1..horizon``
    read (row 0 of a ``horizon + 1``-row table is not), checked finite
    (else ``DomainError``); each table is made read-only."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    period = len(next(iter(tables.values())))
    rows = slice(1, None) if period == horizon + 1 else slice(None)
    for name, table in tables.items():
        if not np.isfinite(table[rows]).all():
            raise DomainError(f"loss {name} must be finite")
        table.setflags(write=False)
    return [table[rows] for table in tables.values()]


@np.errstate(all="ignore")
def _linear_family(base: geo.BaseSet, coeffs: np.ndarray, horizon: int,
                   grad_lipschitz: float) -> LossSequence:
    """Assemble ``f_t(x) = <c_t, x>`` from a ``(P, d)`` coefficient table
    with ``c_t = coeffs[t % P]`` and its constants, computed with numpy's
    warnings off: the variation total is exact."""
    _loss_tables(horizon, coeffs=coeffs)
    if grad_lipschitz <= 0:
        raise ValueError("grad_lipschitz must be positive (any positive "
                         "value is valid for linear losses)")
    grad_bound, total = 0.0, 0.0
    for lo, hi in row_blocks(1, horizon + 1):
        rows = by_round(coeffs, lo, hi)
        grad_bound = float(np.max(geo.dual_norm(base, rows), initial=grad_bound))
        total = in_order_sum(rows, total)
    return LossSequence(
        horizon=horizon, base=base, grad_bound=grad_bound,
        grad_lipschitz=grad_lipschitz,
        variation=coeff_variation(base, coeffs, horizon), coeffs=coeffs,
        mean=(0.0, -(total / horizon), 0.0))


def _loss_vectors(base: geo.BaseSet, *vectors) -> list[np.ndarray]:
    """Float copies of vector parameters, checked against the base set."""
    out = [np.array(v, dtype=float) for v in vectors]
    if any(v.shape != (base.dim,) for v in out):
        raise DimensionMismatchError("loss parameters do not match the base set")
    return out


def fixed_linear(base, coeffs, horizon, grad_lipschitz=1.0) -> LossSequence:
    """Time-invariant linear loss ``f_t(x) = <c, x>``; variation total 0."""
    c, = _loss_vectors(base, coeffs)
    return _linear_family(base, c[None], horizon, grad_lipschitz)


@np.errstate(all="ignore")
def linear_drift(base, start, drift, horizon, grad_lipschitz=1.0) -> LossSequence:
    """Coefficients sliding along a segment: ``c_t = start + (t/T) * drift``."""
    start, drift = _loss_vectors(base, start, drift)
    table = start + (np.arange(horizon + 1) / horizon)[:, None] * drift
    return _linear_family(base, table, horizon, grad_lipschitz)


@np.errstate(all="ignore")
def rotating_drift(base, amplitude, rate, horizon, plane=None,
                   grad_lipschitz=1.0) -> LossSequence:
    """Linear loss whose coefficient rotates with decaying angular steps.

    The coefficient traces ``amplitude * (cos(theta_t) e1 + sin(theta_t) e2)``
    with ``theta_t - theta_{t-1} = rate * t**(-1/4)``.  Per-step gradient
    variation then decays like ``t**(-1/2)``, so the variation total grows
    like ``sqrt(T)`` while gradients stay bounded.
    """
    if base.dim < 2:
        raise DimensionMismatchError("rotating drift needs dimension >= 2")
    if plane is None:
        e1, e2 = np.eye(base.dim)[:2]
    else:
        e1 = np.asarray(plane[0], dtype=float)
        e2 = np.asarray(plane[1], dtype=float)
        e1 = e1 / np.linalg.norm(e1)
        e2 = e2 - (e2 @ e1) * e1
        e2 = e2 / np.linalg.norm(e2)
    # the elementwise expressions of ``amplitude * (cos(angles)[:, None] *
    # e1 + sin(angles)[:, None] * e2)``, ``angles[2:]`` the cumulative steps
    # ``rate * t**-0.25``, built a column at a time with one scratch row
    steps = np.arange(2, horizon + 1, dtype=float)
    np.power(steps, -0.25, out=steps)
    steps *= rate
    angles = np.zeros(horizon + 1)
    np.cumsum(steps, out=angles[2:])
    del steps
    scratch = np.sin(angles)
    table = np.empty((horizon + 1, base.dim))
    for j in range(base.dim):
        np.multiply(scratch, e2[j], out=table[:, j])
    np.cos(angles, out=angles)
    for j in range(base.dim):
        table[:, j] += np.multiply(angles, e1[j], out=scratch)
    table *= amplitude
    return _linear_family(base, table, horizon, grad_lipschitz)


def alternating(base, first, second, horizon, grad_lipschitz=1.0) -> LossSequence:
    """Coefficients flipping between two vectors: odd rounds use ``first``."""
    first, second = _loss_vectors(base, first, second)
    return _linear_family(base, np.stack([second, first]), horizon,
                          grad_lipschitz)


def fixed_quadratic(base, target, horizon, scale=1.0) -> LossSequence:
    """Time-invariant quadratic loss ``f_t(x) = (scale/2) ||x - target||_2^2``."""
    target, = _loss_vectors(base, target)
    return _quadratic_family(base, np.array([scale], dtype=float),
                             target[None], horizon)


@np.errstate(all="ignore")
def quadratic_drift(base, target0, target_drift, horizon, scale0=1.0,
                    scale_drift=0.0) -> LossSequence:
    """Quadratic loss with drifting target and curvature.

    ``f_t(x) = (s_t / 2) ||x - z_t||_2^2`` with ``s_t = scale0 +
    (t/T) * scale_drift`` and ``z_t = target0 + (t/T) * target_drift``.
    """
    target0, target_drift = _loss_vectors(base, target0, target_drift)
    fractions = np.arange(horizon + 1) / horizon
    return _quadratic_family(base, scale0 + fractions * scale_drift,
                             target0 + fractions[:, None] * target_drift,
                             horizon)


@np.errstate(all="ignore")
def _quadratic_family(base: geo.BaseSet, scales: np.ndarray,
                      targets: np.ndarray, horizon: int) -> LossSequence:
    """Assemble ``f_t(x) = (s_t / 2) ||x - z_t||_2^2`` from a ``(P,)`` scale
    table and a ``(P, d)`` target table with ``s_t = scales[t % P]`` and
    ``z_t = targets[t % P]``, where P is 1 or ``horizon + 1``, and its
    constants, computed with numpy's warnings off.

    The variation total is a certified overestimate assembled from the
    triangle inequality: ``|s_t - s_{t-1}| * sup ||x|| + ||s_t z_t -
    s_{t-1} z_{t-1}||``, both measured in the dual norm.  The averaged
    loss's ``(s, m, c)`` are the means of ``s_t``, ``s_t z_t`` and ``(s_t /
    2) ||z_t||^2``.
    """
    s_rows, z_rows = _loss_tables(horizon, scales=scales, targets=targets)
    if not np.all(s_rows > 0):
        raise DomainError("loss scales must be positive")
    # sup_x ||x - z||_* is convex in z, so along the targets' segment it
    # peaks at an end
    reach = max(_reach(base, z_rows[0]), _reach(base, z_rows[-1]))
    x_reach = geo.dual_norm(base, _coordinate_sup(base, np.zeros(base.dim)))
    moments = s_rows[:, None] * z_rows
    steps = (np.abs(np.diff(s_rows)) * x_reach
             + geo.dual_norm(base, np.diff(moments, axis=0)))
    return LossSequence(
        horizon=horizon, base=base, grad_bound=float(s_rows.max()) * reach,
        grad_lipschitz=float(s_rows.max()),
        variation=float(in_order_sum(np.float_power(steps, 2))),
        scales=scales, targets=targets,
        mean=(float(s_rows.mean()), np.mean(moments, axis=0),
              float(np.mean(0.5 * s_rows * geo._row_dot(z_rows, z_rows)))))


def custom_sequence(base, value_fn, grad_fn, horizon, grad_bound,
                    grad_lipschitz, variation=None, mean_value_fn=None,
                    mean_grad_fn=None, mean_curvature=0.0) -> LossSequence:
    """Wrap user oracles, the only callback form of a ``LossSequence``; a
    variation total, checked here, must be supplied to run adaptively.

    ``value_fn(t, x)`` and ``grad_fn(t, x)`` see one round index in
    ``1..horizon`` and one point.  They must be pure functions of ``(t,
    x)``: the solver queries each ``(t, x)`` gradient once and reuses it
    (round ``t`` steps first with the gradient that round ``t - 1``
    queried at ``x_{t-1}``).  ``mean_value_fn(x)`` and ``mean_grad_fn(x)``
    give the averaged loss that ``hindsight_comparator`` minimizes.
    """
    return LossSequence(
        horizon=horizon, base=base, grad_bound=grad_bound,
        grad_lipschitz=grad_lipschitz, mean=(mean_curvature, None, None),
        variation=None if variation is None else float(variation),
        callbacks=(value_fn, grad_fn, mean_value_fn, mean_grad_fn))


def gradient_variation(seq: LossSequence) -> float:
    """``seq.variation``, computed and checked when ``seq`` was made: the
    sum of ``sup_x ||grad f_t(x) - grad f_{t-1}(x)||_*^2`` over rounds
    ``2..T`` (the round-1 term is zero by the before-the-start convention),
    the supremum over ``seq.base``.  Exact for families whose gradients do
    not depend on ``x``, a certified overestimate for the quadratic ones; a
    custom sequence must supply it."""
    if seq.variation is None:
        raise UnsupportedFamilyError(
            "custom loss family needs an explicit variation total")
    return seq.variation


# ---------------------------------------------------------------------------
# hindsight comparator
# ---------------------------------------------------------------------------


# ``_fista``'s iteration cap, squared gradient-mapping residual to stop at,
# and iterations without a better value before it returns its best point
FISTA_MAX_ITER = 20000
FISTA_TOL = 1e-12
FISTA_STALL_LIMIT = 120


def _fista(objective, base, x0, *, lipschitz_guess=1.0):
    """Accelerated projected gradient with backtracking and restarts.

    ``objective`` maps a point to ``(value, finish)``: ``finish()`` returns
    the gradient there, built from the parts the value call already holds
    (for a penalty, the block call's hinge and Jacobian).  The solver calls
    ``objective`` once per point it visits: once per extrapolated point and
    once per backtracking candidate, whose value also serves the restart
    and best-value tests.  It calls ``finish`` only where it steps from: at
    each extrapolated point, and at a candidate that triggers a
    function-value restart, since the next step starts from that candidate.
    A candidate that only passes or fails a test costs its value alone.

    The step is ``1 / step_inv``.  A rejected candidate doubles
    ``step_inv``, and every iteration ends by multiplying it by 0.95, so
    the step grows back gently: over the benchmark's comparator configs 8%
    of candidates are rejected.  Halving ``step_inv`` there instead would
    make each iteration first try a step twice as long, and half of all
    candidates would be rejected, each costing a projection and a value.

    Returns ``(x, residual)`` where residual is the final squared
    gradient-mapping norm.  Stops early when the residual drops below
    ``FISTA_TOL`` or the best objective value has not improved for
    ``FISTA_STALL_LIMIT`` iterations.
    """
    x = np.asarray(x0, dtype=float)
    y = x.copy()
    momentum = 1.0
    step_inv = max(lipschitz_guess, 1e-12)
    f_y, finish = objective(y)
    g = finish()
    best_val = f_y
    best_x = x.copy()
    residual = np.inf
    stale = 0
    for _ in range(FISTA_MAX_ITER):
        if g is None:
            f_y, finish = objective(y)
            g = finish()
        while True:
            candidate = geo.project(base, y - g / step_inv)
            delta = candidate - y
            quad = f_y + float(g @ delta) + 0.5 * step_inv * float(delta @ delta)
            cand_val, cand_finish = objective(candidate)
            if cand_val <= quad + 1e-15:
                break
            step_inv *= 2.0
            if step_inv > 1e18:
                break
        residual = step_inv**2 * float(delta @ delta)
        if residual <= FISTA_TOL:
            return candidate, residual
        momentum_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum**2))
        if cand_val > best_val:          # function-value restart
            y = candidate.copy()
            f_y, g = cand_val, cand_finish()
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
            if stale >= FISTA_STALL_LIMIT:
                return best_x, residual
        x = candidate
        momentum = momentum_new
        step_inv *= 0.95                 # let the step grow back gently
    return x, residual


def _squared_violation(block: ConstraintBlock, x: np.ndarray):
    """``sum_k max(g_k(x), 0)^2`` from one block call, with the hinge and
    Jacobian its gradient ``2 * (hinge @ jac)`` is finished from."""
    values, jac = _evaluate(block, x)
    hinge = np.maximum(values, 0.0)
    return float((hinge ** 2).sum()), hinge, jac


def hindsight_comparator(seq: LossSequence, block: ConstraintBlock) -> np.ndarray:
    """Best fixed feasible decision in hindsight.

    Minimizes the averaged loss over the base set of ``seq`` and ``block``
    (one set, else ``ValueError``) intersected with ``g_k(x) <= 0``.  A
    built-in block on a ball or a box is first tested row by row
    (``_check_rows_reach_base``): a row whose least value over the base set
    exceeds 1e-6 raises before any solve, and on a ball a tangent row leaves
    one feasible point, the answer.  Otherwise one producer answers a linear
    or quadratic family on a ball and a quadratic one on a box:
    ``_dual_solution``, by Newton's method on the Lagrange dual, gives a
    point and its multipliers ``(x, nu)``, returned only if ``_certified``
    finds ``x`` feasible and the dual value at ``nu`` within 1e-12 relative
    of its loss.  Every other case (the simplex, custom blocks and
    sequences, a linear family on a box), and a refused answer, takes
    ``_staged_comparator``: accelerated projected gradient on a quadratic
    hinge penalty whose weight escalates until the worst violation is at
    most 1e-6.

    Raises
    ------
    InfeasibleError
        No feasible point exists (carries the most violated index).
    ConvergenceError
        The solve stalled above its tolerance (carries the residual).
    """
    if seq.callbacks is not None and None in seq.callbacks[2:]:
        raise UnsupportedFamilyError(
            "hindsight comparator needs averaged-loss oracles")
    base = seq.base
    if not geo.same_set(block.base, base):
        raise ValueError("the constraint block was built on another base set")
    if block.eval_fn is None and isinstance(base, (geo.Ball, geo.Box)):
        point = _check_rows_reach_base(block)
        if point is not None:
            return point
        if seq.scales is not None or (isinstance(base, geo.Ball)
                                      and seq.coeffs is not None):
            answer = _dual_solution(seq, block)
            if _certified(seq, block, *answer):
                return answer[0]
    return _staged_comparator(seq, block)


def _check_rows_reach_base(block: ConstraintBlock) -> np.ndarray | None:
    """Raise ``InfeasibleError`` naming the row whose least value over the
    base set is largest, if that value exceeds 1e-6.  The least values come
    from ``_linear_interval`` and ``_sq_dist_range``, exact on a ball and a
    box.  On a ball, a non-constant row whose least value is 0 within the
    rounding of its terms holds at one point only, returned: ``x0 - r a /
    ||a||`` for a linear row, the ball point nearest ``c`` for a quadratic
    one; another row above 1e-6 there raises.  Otherwise None."""
    base = block.base
    rows = []                   # (least, greatest, rhs, row, linear)
    if block.A is not None:
        rows += [(*_linear_interval(base, a), b, a, True)
                 for a, b in zip(block.A, block.b)]
    if block.centers is not None:
        rows += [(*_sq_dist_range(base, c), s, c, False)
                 for c, s in zip(block.centers, block.offsets)]
    if block.order is not None:
        rows = [rows[k] for k in block.order]
    lowest = [lo - rhs for lo, _, rhs, _, _ in rows]
    if lowest and max(lowest) > 1e-6:
        worst = int(np.argmax(lowest))
        raise InfeasibleError(
            f"no feasible point: constraint {worst} stays at "
            f"{lowest[worst]:.3e} on the base set", constraint_index=worst)
    for k, (lo, hi, rhs, row, linear) in enumerate(
            rows if isinstance(base, geo.Ball) else []):
        if hi > lo and abs(lo - rhs) <= 1e-15 * (abs(lo) + abs(hi) + abs(rhs)):
            point = (base.center - (base.radius / geo._length(row)) * row
                     if linear else geo._project(base, row))
            values = _tables(block, point)[0]
            worst = int(np.argmax(values))
            if values[worst] > 1e-6:
                raise InfeasibleError(
                    f"no feasible point: constraint {k} holds only at one "
                    f"point of the base set, where constraint {worst} is "
                    f"{values[worst]:.3e}", constraint_index=worst)
            return point
    return None


def _dual_pieces(seq: LossSequence, block: ConstraintBlock):
    """``(s, m, p, q, rhs)`` of a linear or quadratic family and a built-in
    block.

    The averaged loss is ``F(x) = (s/2) ||x||^2 - <m, x> + F(0)``, with
    ``s`` the mean curvature (0 for a linear family) and ``m = -grad
    F(0)``.  Row ``k`` is ``g_k(x) = (q_k/2) ||x||^2 + <p_k, x> + g_k(0)``:
    ``p_k`` is its gradient at the origin, ``q_k`` is 0 for a linear row
    and 2 for a quadratic one, and ``rhs_k`` is its ``b_k`` or ``s_k``.
    """
    n_linear = 0 if block.A is None else len(block.A)
    q = np.repeat([0.0, 2.0], [n_linear, block.size - n_linear])
    rhs = np.concatenate([t for t in (block.b, block.offsets) if t is not None])
    if block.order is not None:
        q, rhs = q[block.order], rhs[block.order]
    origin = np.zeros(block.dim)
    return (seq.mean_curvature, -seq.mean_grad(origin),
            _tables(block, origin)[1], q, rhs)


def _lagrangian_argmin(base: geo.BaseSet, pieces, nu: np.ndarray):
    """``(x, a, w)``: the minimizer ``x`` over the base set of the Lagrangian
    ``F(x) + nu . g(x)`` of ``_dual_pieces``, with ``a = s + nu . q``.  For
    ``a > 0`` it is ``(a/2) ||x - w||^2`` plus a constant, ``w = (m - p^T
    nu) / a``: ``x`` projects ``w``.  For ``a = 0`` (on a ball) it is ``-<w,
    x>`` plus a constant, ``w = m - p^T nu``: ``x = x0 + r w / ||w||``, or
    the center for ``w = 0``."""
    s, m, p, q, _ = pieces
    a = s + float(nu @ q)
    w = m - nu @ p
    if a == 0:
        norm = geo._length(w)
        return (base.center + (base.radius / norm) * w if norm > 0
                else base.center), a, w
    w = w / a
    return geo._project(base, w), a, w


def _projected_gram(base: geo.BaseSet, x: np.ndarray, w: np.ndarray,
                    a: float, rows: np.ndarray) -> np.ndarray:
    """``rows P rows^T`` for the Jacobian ``P`` in ``w`` of ``x`` from
    ``_lagrangian_argmin``: the box's free coordinates, or on the ball the
    radial map ``(r / |v|) (I - u u^T)``, ``u = v / |v|``, with ``v = w -
    c`` outside the ball for ``a > 0`` and ``v = w`` for ``a = 0``."""
    if isinstance(base, geo.Box):
        rows = rows[:, (w > base.lower) & (w < base.upper)]
        return rows @ rows.T
    gram = rows @ rows.T
    if x is w:                  # inside the ball, ``_project`` returns w
        return gram
    offset = w - base.center if a else w
    dist = geo._length(offset)
    along = rows @ (offset / dist)
    return (base.radius / dist) * (gram - np.outer(along, along))


def _dual_solution(seq: LossSequence, block: ConstraintBlock) -> tuple:
    """``(x, nu)`` for multipliers ``nu >= 0`` that maximize the Lagrange
    dual ``phi(nu) = min over the base set of F(x) + nu . g(x)`` of a linear
    or quadratic family under a built-in block, by projected Newton
    (Bertsekas 1982).  Only a candidate: ``_certified`` decides.

    ``phi`` is concave with gradient ``g(x(nu))``, ``x(nu)`` from
    ``_lagrangian_argmin``, and Hessian ``-J P J^T / a`` (``/ a`` dropped
    for ``a = 0``; ``J`` the Jacobian at ``x(nu)``, ``P`` from
    ``_projected_gram``).  Each iteration sends to 0 every multiplier whose
    own Newton step would end there; the others take a joint Newton step,
    slightly regularized, halved until ``phi`` rises by an Armijo fraction
    of its slope, up to rounding.  Stops after 50 iterations, once no
    multiplier moves by more than 1e-15 relative, when no step rises, or
    at ``a = 0, w = 0``.  For ``a > 0``, ``x = x(nu)``.

    For a linear family with ``a`` negligible, ``x(nu)`` is ill-determined
    near the optimum, and ``phi`` has a kink where the Lagrangian goes flat
    (a loss parallel to a cap's normal).  So ``x`` comes from the linear
    rows with ``nu_k > 0``: if ``m`` is their combination up to 1e-12 (1 +
    ||m||), the point nearest the center where they and any row broken
    there are 0, with the least-squares multipliers; else the best point
    of the disc where they are 0, as the KKT conditions ask.
    """
    base, pieces = seq.base, _dual_pieces(seq, block)

    def dual(nu):
        x, a, w = _lagrangian_argmin(base, pieces, nu)
        values, jac = _tables(block, x)
        return (seq.mean_value(x) + float(nu @ values), values,
                (x, a, w, jac))

    nu = np.zeros(block.size)
    phi, g, at = dual(nu)
    for _ in range(50):
        x, a, w, jac = at
        if a == 0 and not w @ w:
            break
        hess = _projected_gram(base, x, w, a, jac) / (a or 1.0)
        free = (g > 0) | (nu * np.diagonal(hess) > -g)
        if not (free.any() or nu.any()):
            break
        step = -nu
        if free.any():
            hess = hess[free][:, free]
            hess += 1e-12 * (1.0 + np.trace(hess)) * np.eye(len(hess))
            step[free] = np.linalg.solve(hess, g[free])
        t = 1.0
        for _ in range(60):
            trial = np.maximum(nu + t * step, 0.0)
            phi_t, g_t, at_t = dual(trial)
            if (phi_t >= phi + 1e-4 * float(g @ (trial - nu))
                    - 1e-15 * (1.0 + abs(phi))):
                break
            t *= 0.5
        else:
            break
        moved = float(np.abs(trial - nu).max())
        nu, phi, g, at = trial, phi_t, g_t, at_t
        if moved <= 1e-15 * (1.0 + float(nu.max())):
            break
    s, m, p, q, _ = pieces
    tol = 1e-12 * (1.0 + geo._length(m))
    if s > 0 or at[1] > tol:
        return at[0], nu
    nu = np.where(q > 0, 0.0, nu)
    active = nu > 0
    rows, fit = p[active], np.zeros_like(nu)
    fit[active] = np.linalg.lstsq(rows.T, m, rcond=None)[0]
    slope = m - fit @ p         # a second pass drops rounding along the rows
    slope -= np.linalg.lstsq(rows.T, slope, rcond=None)[0] @ rows
    norm = geo._length(slope)
    values, jac = _tables(block, base.center)

    def nearest(tight):         # nearest the center where the tight rows,
        rows = jac[tight]       # linearized there, are 0
        return base.center + np.linalg.lstsq(rows @ rows.T, -values[tight],
                                             rcond=None)[0] @ rows

    x = nearest(active)
    if norm <= tol:
        return nearest(active | (_tables(block, x)[0] > 0)), fit
    offset = x - base.center
    reach = math.sqrt(max(base.radius * base.radius - offset @ offset, 0.0))
    return x + (reach / norm) * slope, nu


def _certified(seq: LossSequence, block: ConstraintBlock,
               x: np.ndarray, nu: np.ndarray) -> bool:
    """Whether the multipliers ``nu`` certify ``x`` as the comparator of a
    built-in block on a ball or a box.

    For ``nu >= 0``, ``F(x(nu)) + nu . g(x(nu))`` at the Lagrangian
    minimizer ``x(nu)`` of ``_lagrangian_argmin`` is the dual value, a
    lower bound on the optimum (Boyd & Vandenberghe 2004, sec. 5).  ``x``
    passes only if it lies in the base set, violates no row by more than
    1e-8 and its averaged loss is within 1e-12 (1 + |loss|) of that bound,
    computed from terms small enough for that to be beyond rounding: no
    ``nu_k (|g_k| + |rhs_k|)`` above 1e3 (1 + |loss|), as one is where a
    nearly tangent cap makes a multiplier huge.
    """
    base, pieces = seq.base, _dual_pieces(seq, block)
    at, _, _ = _lagrangian_argmin(base, pieces, nu)
    values, _ = _tables(block, at)
    bound = seq.mean_value(at) + float(nu @ values)
    value = seq.mean_value(x)
    scale = 1.0 + abs(value)
    terms = nu * (np.abs(values) + np.abs(pieces[-1]))
    return bool(np.all(nu >= 0) and geo.contains(base, x)
                and float(np.max(_tables(block, x)[0], initial=0.0)) <= 1e-8
                and value - bound <= 1e-12 * scale
                and float(np.max(terms, initial=0.0)) <= 1e3 * scale)


def _staged_comparator(seq: LossSequence, block: ConstraintBlock, *,
                       feas_tol: float = 1e-6) -> np.ndarray:
    """The comparator by penalty-staged FISTA, for any block and base set.

    Without a constraint, one ``_fista`` solve.  Without a Slater point, a
    feasibility probe first minimizes the squared violation.  Then penalty
    stages multiply a quadratic hinge penalty's weight by 100 until the
    worst violation meets ``feas_tol`` (at most 1e-9 without a Slater
    point), and a final pull toward the strictly feasible certificate point
    clears any residual violation.
    """
    x0 = geo.center(seq.base)

    if block.size == 0:
        x, residual = _fista(
            lambda p: (seq.mean_value(p), partial(seq.mean_grad, p)),
            seq.base, x0,
            lipschitz_guess=max(seq.mean_curvature, 1.0),
        )
        if residual > 1e-8:
            raise ConvergenceError("comparator solve stalled", residual=residual)
        return x

    if block.slater is None:
        # certify feasibility before optimizing
        def violation(p):
            violation_sq, hinge, jac = _squared_violation(block, p)
            return violation_sq, lambda: 2.0 * (hinge @ jac)

        probe, _ = _fista(violation, seq.base, x0)
        values, _ = _evaluate(block, probe)
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
            violation_sq, hinge, jac = _squared_violation(block, p)
            return (seq.mean_value(p) + w * violation_sq,
                    lambda: seq.mean_grad(p) + w * (2.0 * (hinge @ jac)))

        x, residual = _fista(penalized, seq.base, x,
                             lipschitz_guess=curvature_guess)
        values, _ = _evaluate(block, x)
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
        values, _ = _evaluate(block, x)
        worst = float(np.max(values, initial=0.0))
    if worst > 1e-8:
        raise ConvergenceError(
            "comparator violation above tolerance", residual=worst,
        )
    return x

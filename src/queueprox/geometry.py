"""Base feasible sets and the mirror-map geometry each one carries.

The base set decides the norm and divergence pairing:

* a ball or a box is euclidean: distance-generating function ``0.5 *
  ||x||_2^2``, measuring distances in the l2 norm with l2 dual norm;
* the probability simplex is entropic: negative entropy ``sum_i x_i log
  x_i``, measuring distances in the l1 norm with l-infinity dual norm.

Both generating functions are 1-strongly convex in their paired norm (on the
simplex by Pinsker's inequality), the modulus the solver's weights assume.
The convention ``0 * log 0 = 0`` is used throughout.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError

# the native float64 descriptor, which every float64 array numpy makes here
# carries: an identity test on it is cheaper than ``np.asarray``, and an
# array with another descriptor is simply converted
FLOAT64 = np.dtype(float)


@dataclass(frozen=True)
class Ball:
    """Euclidean ball ``{x : ||x - center||_2 <= radius}``."""

    center: np.ndarray
    radius: float
    kind: str = "ball"

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.ndim != 1 or not self.center.size:
            raise ValueError("ball center must be a nonempty vector")
        if not np.isfinite(self.center).all():
            raise ValueError("ball center must be finite")
        if not (0 < self.radius < math.inf):
            raise ValueError("ball radius must be positive and finite")

    @property
    def dim(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``{x : lower <= x <= upper}`` componentwise."""

    lower: np.ndarray
    upper: np.ndarray
    kind: str = "box"

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape:
            raise DimensionMismatchError("box bounds disagree on dimension")
        if self.lower.ndim != 1 or not self.lower.size:
            raise ValueError("box bounds must be nonempty vectors")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError("box bounds must be finite")
        if np.any(self.lower >= self.upper):
            raise ValueError("box must have lower < upper componentwise")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True)
class Simplex:
    """Probability simplex ``{x : x >= 0, sum(x) = 1}`` in dimension ``d``."""

    d: int
    kind: str = "simplex"

    def __post_init__(self):
        if not isinstance(self.d, numbers.Integral) or isinstance(self.d, bool):
            raise ValueError(f"simplex dimension must be an int, got {self.d!r}")
        if self.d < 2:
            raise ValueError("simplex needs dimension at least 2")

    @property
    def dim(self) -> int:
        return self.d


BaseSet = Ball | Box | Simplex


def same_set(a: BaseSet, b: BaseSet) -> bool:
    """Whether ``a`` and ``b`` are one set: same kind, same parameter bytes."""
    if isinstance(a, Ball) and isinstance(b, Ball):
        return a.center.tobytes() == b.center.tobytes() and a.radius == b.radius
    if isinstance(a, Box) and isinstance(b, Box):
        return (a.lower.tobytes() == b.lower.tobytes()
                and a.upper.tobytes() == b.upper.tobytes())
    return isinstance(a, Simplex) and isinstance(b, Simplex) and a.d == b.d


def center(base: BaseSet) -> np.ndarray:
    """A canonical interior point: ball center, box midpoint, uniform law."""
    if isinstance(base, Ball):
        return base.center.copy()
    if isinstance(base, Box):
        return 0.5 * (base.lower + base.upper)
    return np.full(base.dim, 1.0 / base.dim)


def contains(base: BaseSet, x: np.ndarray, tol: float = 1e-9) -> bool:
    x = np.asarray(x, dtype=float)
    if isinstance(base, Ball):
        return float(np.linalg.norm(x - base.center)) <= base.radius + tol
    if isinstance(base, Box):
        return bool(np.all(x >= base.lower - tol) and np.all(x <= base.upper + tol))
    return bool(np.all(x >= -tol) and abs(float(x.sum()) - 1.0) <= tol)


def norm(base: BaseSet, v: np.ndarray) -> float:
    """Primal norm of the base set's geometry: l1 on the simplex, l2 on a
    ball or a box."""
    v = np.asarray(v, dtype=float)
    if isinstance(base, Simplex):
        return float(np.abs(v).sum())
    return float(np.sqrt(v @ v))


def dual_norm(base: BaseSet, v: np.ndarray) -> float | np.ndarray:
    """Dual norm of the base set's geometry: l-infinity on the simplex, l2
    on a ball or a box.

    ``v`` is one vector, or an ``(n, d)`` stack of vectors.  Returns a
    float for one vector; for a stack, the ``(n,)`` array whose row ``i``
    equals the one-vector call on ``v[i]``.  A vector with no entries has
    norm 0.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2):
        raise DimensionMismatchError("dual_norm expects a vector or a stack "
                                     "of vectors")
    if isinstance(base, Simplex):
        val = np.abs(v).max(axis=-1, initial=0.0)
    else:
        # row-wise dot products, the same reduction as ``v @ v``
        val = np.sqrt(v @ v if v.ndim == 1
                      else (v[:, None, :] @ v[:, :, None])[:, 0, 0])
    return float(val) if v.ndim == 1 else val


def bregman(base: BaseSet, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Bregman divergence ``D(x, y)`` of the base set's distance-generating
    function.

    Parameters
    ----------
    base : BaseSet
        The set both points belong to; it decides the pairing and the
        dimension ``d``.
    x : ndarray
        One point of dimension ``d``, or an ``(n, d)`` stack of points.
    y : ndarray
        One reference point of dimension ``d``, or an ``(m, d)`` stack of
        them.  On the simplex every reference row must be strictly positive
        on every coordinate where ``x`` (any row of the stack) is positive.

    Returns
    -------
    float or ndarray
        ``0.5 * ||x - y||_2^2`` on a ball or a box, the generalized
        Kullback-Leibler divergence on the simplex.  A float for one point
        against one reference.  For a stack of points, the ``(n,)`` array
        whose row ``i`` equals the one-point call on ``x[i]``.  For a stack
        of references, the ``(m, n)`` array (``(m,)`` for one point) whose
        row ``i`` equals, bit for bit, the one-reference call on ``y[i]``.

    Raises
    ------
    DimensionMismatchError
        A row of ``x`` or of ``y`` does not have dimension ``base.dim``.
    DomainError
        On the simplex, an input that is negative or NaN, or some ``y_i ==
        0`` in any reference row while ``x_i > 0`` in any row.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = base.dim
    if x.shape[-1:] != (d,) or y.shape[-1:] != (d,) or x.ndim > 2 or y.ndim > 2:
        raise DimensionMismatchError(
            f"bregman expects vectors or stacks of vectors of dimension {d}")
    if isinstance(base, Simplex):
        # one scalar accept (a NaN minimum fails it, and a strictly positive
        # y has no zero), and the exact tests only when it fails; an empty
        # stack has no minimum
        if not (x.size and y.size and x.min() >= 0 and y.min() > 0):
            # ``>= 0`` is False for NaN, which ``< 0`` would let through
            if not (np.all(x >= 0) and np.all(y >= 0)):
                raise DomainError("entropic divergence needs nonnegative inputs")
            # some x row has mass on a coordinate where some y row has none
            if np.any((x > 0).reshape(-1, d).any(axis=0)
                      & (y == 0).reshape(-1, d).any(axis=0)):
                raise DomainError("entropic divergence undefined: y_i = 0 with x_i > 0")
        val = _entropic(x, y)
    else:
        diff = x - _reference_rows(x, y)
        # row-wise dot product, the same reduction as ``diff @ diff``
        val = 0.5 * (diff[..., None, :] @ diff[..., :, None])[..., 0, 0]
    return float(val) if x.ndim == y.ndim == 1 else val


def _reference_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y`` shaped to broadcast against ``x``: an ``(m, d)`` stack of
    references against an ``(n, d)`` stack of points becomes ``(m, 1, d)``."""
    return y[:, None, :] if y.ndim == 2 and x.ndim == 2 else y


def _entropic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Generalized KL divergence of ``bregman``'s entropic pairing, without
    its validation: +inf where ``y_i = 0`` while ``x_i > 0``.  Shapes as in
    ``bregman``; always returns an array."""
    y = _reference_rows(x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        # one temporary of the broadcast shape, worked on in place
        terms = np.log(x) - np.log(y)
        terms *= x
    np.copyto(terms, 0.0, where=x <= 0)    # the 0 log 0 = 0 convention
    # generalized KL correction, exactly zero when both inputs are normalized
    return terms.sum(axis=-1) + (y.sum(axis=-1) - x.sum(axis=-1))


def project(base: BaseSet, y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the base set.

    Balls project radially, boxes clip componentwise, and the simplex uses
    the sort-and-threshold rule.  Always returns a new array.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (base.dim,):
        raise DimensionMismatchError(f"project expects a vector of dimension {base.dim}")
    x = _project(base, y)
    return y.copy() if x is y else x


def _project(base: BaseSet, y: np.ndarray) -> np.ndarray:
    """``project`` on a float vector of the right shape; a point already
    inside a ball comes back as ``y`` itself."""
    if isinstance(base, Ball):
        offset = y - base.center
        dist = _length(offset)
        if dist <= base.radius:
            return y
        return base.center + offset * (base.radius / dist)
    if isinstance(base, Box):
        return np.minimum(np.maximum(y, base.lower), base.upper)
    u = np.sort(y)[::-1]
    cumulative = np.cumsum(u) - 1.0
    indices = np.arange(1, base.dim + 1)
    rho = int(np.nonzero(u * indices > cumulative)[0][-1])
    theta = cumulative[rho] / (rho + 1.0)
    return np.maximum(y - theta, 0.0)


def _length(v: np.ndarray) -> float:
    """``||v||_2`` as ``math.sqrt(v @ v)``, measured by ``math.hypot`` where
    the squares of a finite vector overflow."""
    dist = math.sqrt(v @ v)
    return math.hypot(*v) if dist == math.inf else dist


def _float_array(v) -> np.ndarray:
    """``v`` itself when it is a float64 array (the loop's case), else
    ``np.asarray(v, dtype=float)``."""
    if type(v) is np.ndarray and v.dtype is FLOAT64:
        return v
    return np.asarray(v, dtype=float)


def mirror_step(
    base: BaseSet,
    anchor: np.ndarray,
    h: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Solve ``argmin_x <h, x> + alpha * D(x, anchor)`` over the base set.

    Parameters
    ----------
    base : BaseSet
        The set stepped in; it decides the pairing.
    anchor : ndarray
        Proximity reference point inside the base set.  Must be strictly
        positive on the simplex.
    h : ndarray
        Linear coefficient vector.
    alpha : float
        Proximal weight, strictly positive.

    Returns
    -------
    ndarray
        The minimizer.  On a ball or a box: the projection of ``anchor - h
        / alpha``.  On the simplex: multiplicative reweighting ``x_i
        proportional to anchor_i * exp(-h_i / alpha)``, evaluated in log
        space with the maximum exponent subtracted so no overflow occurs.
    """
    anchor, h = _float_array(anchor), _float_array(h)
    d = base.dim
    if anchor.shape != (d,) or h.shape != (d,):
        raise DimensionMismatchError(
            f"mirror_step expects vectors of dimension {d}")
    if alpha <= 0:
        raise ValueError("mirror_step needs alpha > 0")
    # one scalar test, and the exact one only when it fails: a finite h
    # whose squares overflow passes (``h.dot(h)`` dispatches faster than
    # ``h @ h``)
    if not math.isfinite(h.dot(h)) and not np.isfinite(h).all():
        raise ValueError("mirror_step got a non-finite coefficient vector")
    if not isinstance(base, Simplex):
        return _project(base, anchor - h / alpha)
    # the same two-step screen; a NaN minimum falls through to the exact test
    if not anchor.min() > 0 and np.any(anchor <= 0):
        raise DomainError("entropic mirror_step needs a strictly positive anchor")
    exponent = np.log(anchor) - h / alpha
    # the ufunc reductions ``max`` and ``sum`` call, without their wrappers
    exponent -= np.maximum.reduce(exponent)
    weights = np.exp(exponent)
    return weights / np.add.reduce(weights)


def sample(base: BaseSet, rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """Draw ``n`` points from the base set, shaped ``(n, dim)``.

    Uniform on balls and boxes, flat Dirichlet on the simplex.
    """
    if isinstance(base, Ball):
        direction = rng.standard_normal((n, base.dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radii = base.radius * rng.random(n) ** (1.0 / base.dim)
        return base.center + direction * radii[:, None]
    if isinstance(base, Box):
        u = rng.random((n, base.dim))
        return base.lower + u * (base.upper - base.lower)
    return rng.dirichlet(np.ones(base.dim), size=n)


def diameter_bound(base: BaseSet) -> float:
    """Finite upper bound ``R`` with ``D(x, y) <= R^2`` over the base set.

    Only a ball or a box admits a finite bound; the entropic divergence is
    unbounded near the simplex boundary.
    """
    if isinstance(base, Ball):
        diam = 2.0 * base.radius
    elif isinstance(base, Box):
        diam = float(np.linalg.norm(base.upper - base.lower))
    else:
        raise DomainError("entropic divergence has no finite diameter bound")
    return float(np.sqrt(0.5) * diam)

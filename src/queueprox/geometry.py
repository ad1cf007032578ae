"""Mirror-map geometries and base feasible sets.

Two norm and divergence pairings are supported:

* ``euclidean``: distance-generating function ``0.5 * ||x||_2^2``, measuring
  distances in the l2 norm with l2 dual norm.  Pairs with ball and box base
  sets.
* ``entropic``: negative entropy ``sum_i x_i log x_i`` on the probability
  simplex, measuring distances in the l1 norm with l-infinity dual norm.

Both generating functions are 1-strongly convex with respect to their paired
norm; the solver takes that modulus as ``HyperParams.rho``.  The convention
``0 * log 0 = 0`` is used throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError

EUCLIDEAN = "euclidean"
ENTROPIC = "entropic"


@dataclass(frozen=True)
class Geometry:
    """A norm plus Bregman-divergence pairing on dimension ``dim``.

    Attributes
    ----------
    kind : str
        Either ``"euclidean"`` or ``"entropic"``.
    dim : int
        Ambient dimension.
    """

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, ENTROPIC):
            raise ValueError(f"unknown geometry kind: {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dimension must be positive")


def euclidean(dim: int) -> Geometry:
    return Geometry(EUCLIDEAN, dim)


def entropic(dim: int) -> Geometry:
    return Geometry(ENTROPIC, dim)


@dataclass(frozen=True)
class Ball:
    """Euclidean ball ``{x : ||x - center||_2 <= radius}``."""

    center: np.ndarray
    radius: float
    kind: str = "ball"

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

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
        if self.d < 2:
            raise ValueError("simplex needs dimension at least 2")

    @property
    def dim(self) -> int:
        return self.d


BaseSet = Ball | Box | Simplex


def compatible(geom: Geometry, base: BaseSet) -> bool:
    """Whether the geometry pairing is defined on this base set.

    The entropic pairing is only defined on the simplex; the euclidean
    pairing is used with balls and boxes.
    """
    if geom.dim != base.dim:
        return False
    if geom.kind == ENTROPIC:
        return isinstance(base, Simplex)
    return isinstance(base, (Ball, Box))


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


def norm(geom: Geometry, v: np.ndarray) -> float:
    """Primal norm of the geometry: l2 for euclidean, l1 for entropic."""
    v = np.asarray(v, dtype=float)
    if geom.kind == EUCLIDEAN:
        return float(np.sqrt(v @ v))
    return float(np.abs(v).sum())


def dual_norm(geom: Geometry, v: np.ndarray) -> float | np.ndarray:
    """Dual norm of the geometry: l2 for euclidean, l-infinity for entropic.

    ``v`` is one vector, or an ``(n, d)`` stack of vectors.  Returns a
    float for one vector; for a stack, the ``(n,)`` array whose row ``i``
    equals the one-vector call on ``v[i]``.  A vector with no entries has
    norm 0.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2):
        raise DimensionMismatchError("dual_norm expects a vector or a stack "
                                     "of vectors")
    if geom.kind == EUCLIDEAN:
        # row-wise dot products, the same reduction as ``v @ v``
        val = np.sqrt(v @ v if v.ndim == 1
                      else (v[:, None, :] @ v[:, :, None])[:, 0, 0])
    else:
        val = np.abs(v).max(axis=-1, initial=0.0)
    return float(val) if v.ndim == 1 else val


def bregman(geom: Geometry, base: BaseSet, x: np.ndarray,
            y: np.ndarray) -> float | np.ndarray:
    """Bregman divergence ``D(x, y)`` of the distance-generating function.

    Parameters
    ----------
    geom : Geometry
    base : BaseSet
        The set both points belong to; used for dimension validation.
    x : ndarray
        One point of dimension ``d``, or an ``(n, d)`` stack of points.
    y : ndarray
        One point of dimension ``d``.  For the entropic geometry ``y`` must
        be strictly positive on every coordinate where ``x`` (any row of
        the stack) is positive.

    Returns
    -------
    float or ndarray
        ``0.5 * ||x - y||_2^2`` for the euclidean pairing, the generalized
        Kullback-Leibler divergence for the entropic pairing.  A float for
        one point; for a stack, the ``(n,)`` array whose row ``i`` equals
        the one-point call on ``x[i]``.

    Raises
    ------
    DimensionMismatchError
        ``y`` or a row of ``x`` does not have dimension ``geom.dim``.
    DomainError
        Entropic pairing with a negative input, or some ``y_i == 0`` while
        ``x_i > 0`` in any row.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if base.dim != geom.dim:
        raise DimensionMismatchError("geometry and base set disagree on dimension")
    if y.shape != (geom.dim,) or x.shape[-1:] != y.shape or x.ndim > 2:
        raise DimensionMismatchError(
            f"bregman expects a vector or a stack of vectors of dimension "
            f"{geom.dim} against one vector"
        )
    if geom.kind == EUCLIDEAN:
        diff = x - y
        # row-wise dot product, the same reduction as ``diff @ diff``
        val = 0.5 * (diff[..., None, :] @ diff[..., :, None])[..., 0, 0]
    else:
        if np.any(x < 0) or np.any(y < 0):
            raise DomainError("entropic divergence needs nonnegative inputs")
        pos = x > 0
        if np.any(pos & (y == 0)):
            raise DomainError("entropic divergence undefined: y_i = 0 with x_i > 0")
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(pos, x * (np.log(x) - np.log(y)), 0.0)
        # generalized KL correction, exactly zero when both inputs are normalized
        val = terms.sum(axis=-1) + (y.sum() - x.sum(axis=-1))
    return float(val) if x.ndim == 1 else val


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
        dist = math.sqrt(offset @ offset)
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


def mirror_step(
    geom: Geometry,
    base: BaseSet,
    anchor: np.ndarray,
    h: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Solve ``argmin_x <h, x> + alpha * D(x, anchor)`` over the base set.

    Parameters
    ----------
    geom : Geometry
    base : BaseSet
    anchor : ndarray
        Proximity reference point inside the base set.  Must be strictly
        positive for the entropic pairing.
    h : ndarray
        Linear coefficient vector.
    alpha : float
        Proximal weight, strictly positive.

    Returns
    -------
    ndarray
        The minimizer.  Euclidean: projection of ``anchor - h / alpha``.
        Entropic: multiplicative reweighting ``x_i
        proportional to anchor_i * exp(-h_i / alpha)``, evaluated in log
        space with the maximum exponent subtracted so no overflow occurs.
    """
    anchor = np.asarray(anchor, dtype=float)
    h = np.asarray(h, dtype=float)
    if anchor.shape != (geom.dim,) or h.shape != (geom.dim,):
        raise DimensionMismatchError(
            f"mirror_step expects vectors of dimension {geom.dim}"
        )
    if alpha <= 0:
        raise ValueError("mirror_step needs alpha > 0")
    # one scalar test, and the exact one only when it fails: a finite h
    # whose squares overflow passes
    if not math.isfinite(h @ h) and not np.isfinite(h).all():
        raise ValueError("mirror_step got a non-finite coefficient vector")
    if geom.kind == EUCLIDEAN:
        return _project(base, anchor - h / alpha)
    if np.any(anchor <= 0):
        raise DomainError("entropic mirror_step needs a strictly positive anchor")
    exponent = np.log(anchor) - h / alpha
    exponent -= exponent.max()
    weights = np.exp(exponent)
    return weights / weights.sum()


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


def diameter_bound(geom: Geometry, base: BaseSet) -> float:
    """Finite upper bound ``R`` with ``D(x, y) <= R^2`` over the base set.

    Only the euclidean pairing admits a finite bound; the entropic
    divergence is unbounded near the simplex boundary.
    """
    if geom.kind == ENTROPIC:
        raise DomainError("entropic divergence has no finite diameter bound")
    if isinstance(base, Ball):
        diam = 2.0 * base.radius
    elif isinstance(base, Box):
        diam = float(np.linalg.norm(base.upper - base.lower))
    else:
        diam = float(np.sqrt(2.0))
    return float(np.sqrt(0.5) * diam)

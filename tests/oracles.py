"""Independent oracles used to freeze expected values.

Everything here is deliberately naive: brute-force grids, dense sampling,
central finite differences, and a straight-line transcription of the
solver's round structure.  Slow and dumb is the point; the library must
agree with these, not the other way around.
"""
import numpy as np

import queueprox as qp


def grid_points(base, resolution):
    """All grid points of the bounding box that land inside the base set."""
    if isinstance(base, qp.Ball):
        lo = base.center - base.radius
        hi = base.center + base.radius
    elif isinstance(base, qp.Box):
        lo, hi = base.lower, base.upper
    else:
        raise NotImplementedError("grid oracle covers ball and box only")
    axes = [np.arange(lo[i], hi[i] + resolution / 2, resolution)
            for i in range(base.dim)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    pts = mesh.reshape(-1, base.dim)
    if isinstance(base, qp.Ball):
        keep = np.linalg.norm(pts - base.center, axis=1) <= base.radius + 1e-12
        pts = pts[keep]
    return pts


def grid_comparator(base, objective, feasible=None, resolution=1e-3):
    """Best feasible point of a cumulative objective by exhaustive search.

    ``objective`` maps an (N, d) stack of points to their (N,) cumulative
    loss totals; ``feasible`` maps the stack to a boolean mask.  Both are
    written by hand in the calling test from the instance parameters, so
    the search is independent of the library's oracles.  Returns
    (point, objective value).  Only sensible in dimension <= 3.
    """
    pts = grid_points(base, resolution)
    if feasible is not None:
        pts = pts[feasible(pts)]
    totals = np.asarray(objective(pts), dtype=float)
    best = int(np.argmin(totals))
    return pts[best], float(totals[best])


def brute_force_variation(seq, geom, base, n_samples=512, seed=0):
    """Per-step max of squared dual-norm gradient deltas over sampled x."""
    rng = np.random.default_rng(seed)
    points = qp.sample(base, rng, n_samples)
    total = 0.0
    for t in range(2, seq.horizon + 1):
        worst = 0.0
        for x in points:
            delta = seq.grad(t, x) - seq.grad(t - 1, x)
            worst = max(worst, qp.dual_norm(geom, delta) ** 2)
        total += worst
    return total


def finite_diff_grad(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        grad[i] = (fn(x + e) - fn(x - e)) / (2 * eps)
    return grad


# ---------------------------------------------------------------------------
# golden trace: d=2 unit ball, g(x) = x_1 - 0.3, loss <(-1,0), x>, V_cap=0,
# L_f=0.5, T=3.  Values frozen from a straight-line scratchpad
# re-implementation of the solver's five per-round steps, kept outside the
# package and evaluated with plain floats.
# ---------------------------------------------------------------------------

GOLDEN = {
    "eta": 2.0,
    "gamma": 0.7071067811865476,
    "decisions": [
        (0.3333333333333333, 0.0),
        (0.6055555555555555, 0.0),
        (0.7814814814814814, 0.0),
    ],
    "queues": [
        0.0,
        0.21213203435596426,
        0.23570226039551584,
        0.451762665758072,
        0.7922214863293726,
    ],
    "alphas": [3.0, 3.0, 3.0],
    "xi_1": 0.5000000000000001,
    "losses": [-0.3333333333333333, -0.6055555555555555, -0.7814814814814814],
    "cum_loss": -1.7203703703703703,
    "violation": 0.8203703703703703,
}


def golden_config(horizon=3):
    return qp.shipped_scenario("golden-d2", horizon=horizon)


# ---------------------------------------------------------------------------
# pushback: the three-point inequality, one probe at a time
# ---------------------------------------------------------------------------


def scalar_pushback_worst(geom, base, n_instances, n_z, seed):
    """Worst pushback residual from a plain loop over single probes.

    Draws the instances and probes in the order ``checks.check_pushback``
    documents (anchor, ``h``, ``alpha``, then all ``n_z`` probes), so the
    same seed gives the same instances, and evaluates each probe with two
    one-point divergence calls.
    """
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_instances):
        anchor = qp.sample(base, rng)[0]
        if geom.kind == "entropic":
            anchor = qp.mix_anchor(anchor, 1e-6)
        h = rng.standard_normal(geom.dim)
        alpha = float(rng.uniform(0.5, 5.0))
        x_opt = qp.mirror_step(geom, base, anchor, h, alpha)
        lhs = float(h @ x_opt) + alpha * qp.bregman(geom, base, x_opt, anchor)
        for z in qp.sample(base, rng, n_z):
            rhs = (float(h @ z)
                   + alpha * (qp.bregman(geom, base, z, anchor)
                              - qp.bregman(geom, base, z, x_opt)))
            worst = max(worst, lhs - rhs)
    return worst

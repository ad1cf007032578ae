"""Independent oracles used to freeze expected values.

Everything here is deliberately naive: brute-force grids, dense sampling,
central finite differences, and a straight-line transcription of the
solver's round structure.  Slow and dumb is the point; the library must
agree with these, not the other way around.
"""
import hashlib

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


def scalar_empirical_variation(trace, seq, sample_budget=32):
    """``metrics.empirical_variation`` one probe point at a time.

    Picks the same probes (the start point plus up to ``sample_budget``
    evenly spaced decisions) and, per round, takes one gradient and one
    dual norm per probe, keeping the running max and sum in plain floats.
    """
    geom = (qp.entropic(trace.dim) if trace.variant == "ompd-simplex"
            else qp.euclidean(trace.dim))
    points = [trace.x0]
    if not seq.grad_constant_in_x:
        count = min(sample_budget, trace.horizon)
        points += [trace.decisions[i] for i in sorted(set(
            np.linspace(0, trace.horizon - 1, count, dtype=int).tolist()))]
    total = 0.0
    for t in range(2, min(trace.horizon, seq.horizon) + 1):
        worst = 0.0
        for x in points:
            delta = seq.grad(t, x) - seq.grad(t - 1, x)
            worst = max(worst, qp.dual_norm(geom, delta))
        total += worst ** 2
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


# ---------------------------------------------------------------------------
# frozen trace digests: every array of a T=500 run, bit for bit
# ---------------------------------------------------------------------------

TRACE_FIELDS = ("x0", "decisions", "anchors", "queues", "g_values", "losses",
                "alphas", "xis", "mixed_anchors")


def trace_digest(trace):
    """SHA-256 over the shapes and bytes of a trace's arrays, in field order.

    A missing ``mixed_anchors`` (every variant but the simplex one) hashes
    as the tag ``None``.
    """
    digest = hashlib.sha256()
    for name in TRACE_FIELDS:
        arr = getattr(trace, name)
        if arr is None:
            digest.update(b"None")
            continue
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


DIGEST_HORIZON = 500

# (scenario, variant) -> digest of ``run(variant, build_scenario(shipped
# scenario at DIGEST_HORIZON))``; recorded before the round loop was folded
# into ``algorithm.run``, which had to keep every bit
TRACE_DIGESTS = {
    ("golden-d2", "ompd"):
        "937cc9e0a443e174560ae9715fa6fe192894a5c68ea02f05937be929df313cf5",
    ("fixed-quadratic-ball", "ompd"):
        "e3da7042eda664f1fc81f80878451cb4f70f2bd234e8eb0c3f476b31a9c6e477",
    ("drift-rotate-d2", "ompd"):
        "e450421fc0b995d88823c452fd0201f442b2293c6c1d3dd4bbf5e68e47f99569",
    ("alternating-d2", "ompd"):
        "dd2b25ee4427ab8ba75d2d7e3c35c4656d6a7460e8e89559c1e8ff555f790df1",
    ("box-mixed-d3", "ompd"):
        "866b33eeb0e4cfde7fb43c20f7cfd6a8479aa3b35adeb2cb9e8059356e890e70",
    ("simplex-d10", "ompd-simplex"):
        "4ffed1ac5f73dd9c6b02d192c3be693e74496b8d9e0c43d71b18f5a2f1b81fab",
    ("alternating-d2", "pd-baseline"):
        "9f50c2d13297d3507644713036b08db709494991155c0326c14c9f7a46f2170d",
    ("box-mixed-d3", "pd-baseline"):
        "40d625be5bfb18bc22fe8f5e7c2e5d54ed6a09dd970607e7bfe64a2da18facc2",
    ("drift-rotate-d2", "pd-baseline"):
        "b8bf07df694c06ab4162c48731193ba3b5362f780dc3c6c21875363056d4c6d1",
}


# ---------------------------------------------------------------------------
# frozen report digests: comparator, variation estimate and regret
# ---------------------------------------------------------------------------


def _override(name, **fields):
    """A shipped scenario at DIGEST_HORIZON with some fields replaced."""
    cfg = qp.shipped_scenario(name, horizon=DIGEST_HORIZON)
    return qp.ScenarioConfig.from_dict({**cfg.to_dict(), **fields})


def digest_configs():
    """Name -> config of every run whose audit numbers are frozen.

    The six shipped scenarios, plus one box and one ball config shaped
    like the benchmark's audit workload: moved caps and targets, so the
    box's quadratic constraint binds at a different point.
    """
    configs = {name: qp.shipped_scenario(name, horizon=DIGEST_HORIZON)
               for name in qp.SHIPPED_SCENARIOS}
    configs["audit-box"] = _override(
        "box-mixed-d3",
        constraints=[
            {"family": "linear", "A": [[1.0, 1.0, 1.0]], "b": [1.003],
             "slater_point": [0.0, 0.0, 0.0]},
            {"family": "quadratic", "centers": [[0.0, 0.0, 0.0]],
             "offsets": [0.902], "slater_point": [0.0, 0.0, 0.0]}],
        loss={"family": "quadratic-drift", "target0": [0.905, 0.894, 0.102],
              "target_drift": [-0.395, 0.307, 0.198], "scale0": 1.006,
              "scale_drift": 0.497})
    configs["audit-ball"] = _override(
        "fixed-quadratic-ball",
        constraints={"family": "linear", "A": [[1.0, 0.0]], "b": [0.27],
                     "slater_point": [0.0, 0.0]},
        loss={"family": "fixed", "form": "quadratic",
              "target": [0.13, 0.52], "scale": 0.9})
    return configs


def report_digest(report):
    """SHA-256 over the comparator's bytes, ``repr(v_empirical)`` and
    ``repr(regret)`` of a ``run_scenario`` report."""
    digest = hashlib.sha256()
    comparator = np.ascontiguousarray(report.extras["comparator"],
                                      dtype=np.float64)
    digest.update(repr(comparator.shape).encode())
    digest.update(comparator.tobytes())
    digest.update(repr(report.v_empirical).encode())
    digest.update(repr(report.regret).encode())
    return digest.hexdigest()


# name in ``digest_configs()`` -> ``report_digest(run_scenario(config))``;
# recorded before the comparator's solver took a fused value-and-gradient
# oracle and the variation estimate took stacked gradients, both of which
# had to keep every bit
REPORT_DIGESTS = {
    "golden-d2":
        "0d439ded777e5e5d4fe66ac0bb2ba7ae5645b1476622c14bdcd9b7cd1abfb9a0",
    "fixed-quadratic-ball":
        "280ddb0d26f9f777e0785c735d8e5065e73cac5ddfafe8b3b4325cfdde4dc4cc",
    "drift-rotate-d2":
        "ad32743416ea29dfdd52388d66a2c60deb2ec8345a046861d43500dfc24c2112",
    "alternating-d2":
        "c3db72a12df74fb9850278e34cd304461e6821705a96094d56a30a03e1991022",
    "box-mixed-d3":
        "75ac6184018dec679278565d9e1601b0d85c0b30ce163e3bf166b6841590b933",
    "simplex-d10":
        "69f4fc4f60fef0234eb1415af036d0a2a23424cf328652433619369f8065079f",
    "audit-box":
        "328dece375cb187c70aa1f4c1dabb2a3efdd8efd6d285a0d7ef9a2fa59877063",
    "audit-ball":
        "dcbcb55041b9e6ce2d5132870339ee9cebc25e8f7db7a4a1336fa069b543f425",
}


# ---------------------------------------------------------------------------
# frozen sweep digests: summary.csv and fitted slopes of growth grids
# ---------------------------------------------------------------------------

SWEEP_HORIZONS = (100, 300, 1000)
SWEEP_SEEDS = (0, 1, 2)


def sweep_templates():
    """Name -> template of every growth grid whose output is frozen.

    Shaped like the benchmark's sweep workload: a random-plane rotating
    drift and a random alternating loss, both with ``grad_lipschitz`` 0.5
    under the ``x_1 <= 0.3`` cap, and the alternating one again under the
    ``pd-baseline`` variant.
    """
    alternating = qp.shipped_scenario("alternating-d2")
    return {
        "rotating-drift": qp.shipped_scenario("drift-rotate-d2"),
        "alternating": alternating,
        "alternating-baseline": qp.ScenarioConfig.from_dict(
            {**alternating.to_dict(), "variant": "pd-baseline"}),
    }


def sweep_digest(result, summary_csv):
    """SHA-256 over the bytes of a sweep's ``summary.csv`` and the ``repr``
    of its four fitted slopes and offsets."""
    digest = hashlib.sha256(summary_csv)
    for value in (result.regret_slope, result.regret_offset,
                  result.violation_slope, result.violation_offset):
        digest.update(repr(value).encode())
    return digest.hexdigest()


# name in ``sweep_templates()`` -> ``sweep_digest`` of its sweep over
# SWEEP_HORIZONS x SWEEP_SEEDS; recorded before the round loop reused each
# slot's gradient and the linear families took coefficient tables, both of
# which had to keep every bit
SWEEP_DIGESTS = {
    "rotating-drift":
        "3cfcf102d31651eade6864f048de0ee8dba1e57e2fc2dac29cf9fcaffbacf88e",
    "alternating":
        "8eec5d4ab783626533c6c72434dd7c424a09efb47b6a466273bdf921b88979d6",
    "alternating-baseline":
        "02404761dcaed8a00636b1234e36b0a3f336bfdab7f9c3b53d68409d452fa12c",
}


# ---------------------------------------------------------------------------
# linear families: per-round coefficients and their constants, round by round
# ---------------------------------------------------------------------------


def linear_coeff_at(family, horizon, **params):
    """``t -> c_t`` of a built-in linear family, one round at a time, by the
    per-round formula its docstring states."""
    if family == "fixed":
        c = np.asarray(params["coeffs"], dtype=float)
        return lambda t: c
    if family == "linear-drift":
        start = np.asarray(params["start"], dtype=float)
        drift = np.asarray(params["drift"], dtype=float)
        return lambda t: start + (t / horizon) * drift
    if family == "alternating":
        first = np.asarray(params["first"], dtype=float)
        second = np.asarray(params["second"], dtype=float)
        return lambda t: first if t % 2 == 1 else second
    # rotating: theta_1 = 0, theta_t = theta_{t-1} + rate * t**(-1/4), with
    # the angles summed as the family sums them and each row's cosine and
    # sine taken on its own
    e1, e2 = (np.asarray(v, dtype=float) for v in params["plane"])
    angles = np.zeros(horizon + 1)
    angles[2:] = np.cumsum(
        params["rate"] * np.arange(2, horizon + 1, dtype=float) ** -0.25)
    amplitude = params["amplitude"]
    return lambda t: amplitude * (np.cos(angles[t]) * e1
                                  + np.sin(angles[t]) * e2)


def scalar_linear_constants(geom, coeff_at, horizon):
    """``(grad_bound, mean coefficient, variation total)`` of ``f_t(x) =
    <c_t, x>`` by plain loops over the rounds: a running max of dual norms,
    a running vector sum, and a running float sum of squared delta norms."""
    grad_bound = 0.0
    mean = np.zeros(geom.dim)
    for t in range(1, horizon + 1):
        grad_bound = max(grad_bound, qp.dual_norm(geom, coeff_at(t)))
        mean += coeff_at(t)
    mean /= horizon
    variation = 0.0
    for t in range(2, horizon + 1):
        variation += qp.dual_norm(geom, coeff_at(t) - coeff_at(t - 1)) ** 2
    return grad_bound, mean, variation

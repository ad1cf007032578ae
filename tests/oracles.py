"""Independent oracles used to freeze expected values.

Everything here is deliberately naive: brute-force grids, dense sampling,
central finite differences, and a straight-line transcription of the
solver's round structure.  Slow and dumb is the point; the library must
agree with these, not the other way around.
"""
import functools
import hashlib

import numpy as np

import queueprox as qp


def grid_points(base, resolution):
    """All grid points of the bounding box that land inside the base set,
    as a read-only array built once per base set and resolution."""
    if isinstance(base, qp.Ball):
        key = ("ball", tuple(base.center.tolist()), base.radius)
    elif isinstance(base, qp.Box):
        key = ("box", tuple(base.lower.tolist()), tuple(base.upper.tolist()))
    else:
        raise NotImplementedError("grid oracle covers ball and box only")
    return _grid_points(key, resolution)


@functools.lru_cache(maxsize=2)
def _grid_points(key, resolution):
    kind, *bounds = key
    if kind == "ball":
        center, radius = np.array(bounds[0]), bounds[1]
        lo, hi = center - radius, center + radius
    else:
        lo, hi = np.array(bounds[0]), np.array(bounds[1])
    axes = [np.arange(lo[i], hi[i] + resolution / 2, resolution)
            for i in range(len(lo))]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    pts = mesh.reshape(-1, len(lo))
    if kind == "ball":
        keep = np.linalg.norm(pts - center, axis=1) <= radius + 1e-12
        pts = pts[keep]
    pts.flags.writeable = False
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


def brute_force_variation(seq, base, n_samples=512, seed=0):
    """Per-step max of squared dual-norm gradient deltas over sampled x."""
    rng = np.random.default_rng(seed)
    points = qp.sample(base, rng, n_samples)
    total = 0.0
    for t in range(2, seq.horizon + 1):
        worst = 0.0
        for x in points:
            delta = seq.grad(t, x) - seq.grad(t - 1, x)
            worst = max(worst, qp.dual_norm(base, delta) ** 2)
        total += worst
    return total


def scalar_empirical_variation(trace, seq, sample_budget=32):
    """``metrics.empirical_variation`` one probe point at a time.

    Picks the same probes (the start point plus up to ``sample_budget``
    evenly spaced decisions) and, per round, takes one gradient and one
    dual norm per probe, keeping the running max and sum in plain floats.
    """
    points = [trace.x0]
    if seq.coeffs is None:
        count = min(sample_budget, trace.horizon)
        points += [trace.decisions[i] for i in sorted(set(
            np.linspace(0, trace.horizon - 1, count, dtype=int).tolist()))]
    total = 0.0
    for t in range(2, min(trace.horizon, seq.horizon) + 1):
        worst = 0.0
        for x in points:
            delta = seq.grad(t, x) - seq.grad(t - 1, x)
            worst = max(worst, qp.dual_norm(seq.base, delta))
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


def scalar_pushback_worst(base, n_instances, n_z, seed):
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
        if isinstance(base, qp.Simplex):
            anchor = qp.mix_anchor(anchor, 1e-6)
        h = rng.standard_normal(base.dim)
        alpha = float(rng.uniform(0.5, 5.0))
        x_opt = qp.mirror_step(base, anchor, h, alpha)
        lhs = float(h @ x_opt) + alpha * qp.bregman(base, x_opt, anchor)
        for z in qp.sample(base, rng, n_z):
            rhs = (float(h @ z)
                   + alpha * (qp.bregman(base, z, anchor)
                              - qp.bregman(base, z, x_opt)))
            worst = max(worst, lhs - rhs)
    return worst


# ---------------------------------------------------------------------------
# drift-plus-penalty: the per-round bound, one round at a time
# ---------------------------------------------------------------------------


def scalar_dpp_residual(trace, t, seq, block, z):
    """Largest residual of the round-``t`` drift-plus-penalty bound over the
    probes ``z`` (one point or an ``(n, d)`` stack), from per-round scalars.

    The one-round formula as ``checks`` evaluated it before it stacked its
    rounds: every term of round ``t`` read from the trace on its own, the
    probes taken 128 rows at a time, their divergences against the anchor
    and the next anchor in one ``bregman`` call.
    """
    if not 1 <= t <= trace.horizon:
        raise ValueError(f"round {t} outside the recorded horizon")
    x_prev = trace.decisions[t - 2] if t >= 2 else trace.x0
    x_curr = trace.decisions[t - 1]
    anchor = trace.anchors[t - 1]
    if trace.variant == qp.VARIANT_SIMPLEX:
        anchor = qp.mix_anchor(anchor, trace.nu)
    anchor_next = trace.anchors[t]
    queue, queue_next = trace.queues[t], trace.queues[t + 1]
    alpha, xi = float(trace.alphas[t - 1]), float(trace.xis[t - 1])
    grad_prev, grad_curr = seq.grad(t - 1, x_prev), seq.grad(t, x_curr)
    g_prev, g_curr = trace.g_values[t - 1], trace.g_values[t]
    gamma, base = trace.gamma, seq.base

    lhs = (0.5 * (float(queue_next @ queue_next) - float(queue @ queue))
           + float(grad_prev @ x_curr)
           + alpha * qp.bregman(base, x_curr, anchor))
    move = qp.norm(base, x_curr - x_prev)
    fixed_terms = (0.5 * xi * move**2
                   + 0.5 * gamma**2 * (float(g_curr @ g_curr)
                                       - float(g_prev @ g_prev))
                   + float((grad_prev - grad_curr) @ anchor_next)
                   - alpha * qp.bregman(base, anchor_next, x_curr))
    weights = queue + gamma * g_prev
    refs = np.stack([anchor, anchor_next])

    worst = -np.inf
    z_mat = np.atleast_2d(np.asarray(z, dtype=float))
    for lo in range(0, z_mat.shape[0], 128):
        z_blk = z_mat[lo:lo + 128]
        g_blk, _ = qp.constraint_eval(block, z_blk)
        rhs = (fixed_terms
               + z_blk @ grad_curr
               + alpha * np.subtract(*qp.bregman(base, z_blk, refs))
               + gamma * (g_blk @ weights))
        value = float(np.max(lhs - rhs))
        worst = value if value > worst or value != value else worst
    return worst


# ---------------------------------------------------------------------------
# uniform mixing: the three inequalities, one anchor at a time
# ---------------------------------------------------------------------------


def scalar_mixing_worst(anchors, nu, d, z_mat):
    """``(max_residual, skipped, rounds, samples)`` of the mixing check from
    a plain loop over single anchors, each with its own two KL passes.

    The KL rows are written out here (``+inf`` where an anchor has no mass
    under a probe's mass), independent of ``geometry.bregman``.
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    z_mat = np.atleast_2d(np.asarray(z_mat, dtype=float))

    def kl_rows(y):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.log(z_mat) - np.log(y)[None, :]
            terms = np.where(z_mat > 0, z_mat * ratio, 0.0)
        return terms.sum(axis=1) + (float(y.sum()) - z_mat.sum(axis=1))

    worst = -np.inf
    skipped = 0
    for x in anchors:
        y = qp.mix_anchor(x, nu)
        worst = max(worst, float(np.abs(y - x).sum()) - 2.0 * nu)
        kl_y = kl_rows(y)
        worst = max(worst, float(np.max(kl_y)) - np.log(d / nu))
        kl_x = kl_rows(x)
        finite = np.isfinite(kl_x)
        skipped += int(np.sum(~finite))
        if np.any(finite):
            worst = max(worst, float(np.max(kl_y[finite] - kl_x[finite]))
                        - nu * np.log(d))
    return worst, skipped, anchors.shape[0], anchors.shape[0] * z_mat.shape[0]


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
# had to keep every bit.  The six entries whose comparator moved when its
# FISTA came to let the step grow back gently (``step_inv *= 0.95`` after
# every iteration, where it was halved) were re-recorded then, and the
# three linear losses on a ball (golden-d2, drift-rotate-d2,
# alternating-d2) again when their comparator became the certified closed
# form, and the quadratic losses whose comparator moved (box-mixed-d3,
# audit-box, audit-ball) when theirs became the dual-certified Newton
# solve; every ``repr(v_empirical)`` stayed the same each time.  When the
# Newton solve replaced the closed form for the linear losses on a ball,
# every entry kept its bits
REPORT_DIGESTS = {
    "golden-d2":
        "e9cedc588741cb9cc31d2c81ba07c0524ce3cc8f238318b688c78b32eed9053f",
    "fixed-quadratic-ball":
        "280ddb0d26f9f777e0785c735d8e5065e73cac5ddfafe8b3b4325cfdde4dc4cc",
    "drift-rotate-d2":
        "be90c22a663e07504797c66cbdf1c79c97ec4f5f0280b55ff97920147370263f",
    "alternating-d2":
        "197e62181241919d4f925eee3b39ad4f9eead6cc82258c001c7a622308c2c4d5",
    "box-mixed-d3":
        "9e8f31549c76186b344e56ff3a49671652f9dde1f7b473c4f20b9548b85ea772",
    "simplex-d10":
        "30846845f69d82d251253e01223df4ed652fb8c23882a5b270cb92b35bc8f7e6",
    "audit-box":
        "de1dfab27fe9234405e6ecb41b383ee1daa7b8bcd6c366d54f84f910e7cbaed4",
    "audit-ball":
        "b12cb45013e5b352bc2832f5b91c8810f0c3a2c81eb2f0c2fa9de75af95cbd2a",
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
# which had to keep every bit; re-recorded when the comparator's FISTA came
# to grow its step back gently, and again when the comparator of these
# linear losses on a ball became the certified closed form, both of which
# move the regrets (every ``V_empirical`` stayed the same).  The dual
# Newton solve that replaced the closed form kept every entry's bits
SWEEP_DIGESTS = {
    "rotating-drift":
        "1014bb3e8de329dca09f4e955b547154af67c032c330c2eb866f7a486e2e1e86",
    "alternating":
        "8eec5d4ab783626533c6c72434dd7c424a09efb47b6a466273bdf921b88979d6",
    "alternating-baseline":
        "02404761dcaed8a00636b1234e36b0a3f336bfdab7f9c3b53d68409d452fa12c",
}


# rows per block for the row-blocked passes (``problems.BLOCK_ROUNDS``) when a
# digest is checked a second time: every digest horizon then ends on a ragged
# block, and running sums are carried across dozens of blocks
SMALL_BLOCK_ROUNDS = 7

# scenario -> SHA-256 of ``write_round_csv`` on ``run(variant,
# build_scenario(shipped scenario at DIGEST_HORIZON))``; recorded before the
# writer and the audit passes came to walk the trace in row blocks, which had
# to keep every byte
ROUND_CSV_DIGESTS = {
    "golden-d2":
        "ac580b82ad061f4d348c6a2e0204ec0f3567982979b4ce083282dc163540347d",
    "fixed-quadratic-ball":
        "66bc580317357c634d85ba01612026640c35b1e54c2e76cfef469215928475bb",
    "drift-rotate-d2":
        "23fd8ae972dd8f81bc4b75c07a8088d73005d232f8698756465dd9b4bd5596c3",
    "alternating-d2":
        "ff37b1eb219a9b24c49a2e39416befe99f9cd1e9729e66d526c126d1e4aed7e3",
    "box-mixed-d3":
        "00737a5a448e64cd8fdfa4f7bc4adcdf01af70df2ca777f6c44254f08b54e2f5",
    "simplex-d10":
        "b685aaa81a531201dff05a799b8059d1ec0bc7c5e3c35cc3e2f01e9d6e0eaebd",
}


CHECK_HORIZON = 500

# scenario -> SHA-256 of ``checks.csv`` from ``queueprox check --lemmas all``
# on the shipped scenario at CHECK_HORIZON; recorded before the mixing and
# pushback checks moved to stacked-reference divergence passes, which had
# to keep every bit.  The ball, the one base whose pushback probes are
# drawn whole, was recorded before the DPP check stacked its rounds and
# pushback drew its probes block by block, which kept every bit too
CHECK_DIGESTS = {
    "simplex-d10":
        "2cd21d3e939d290096948b5bd9bddcf5c4a665b356c6043da604f3e6f9ca6d35",
    "box-mixed-d3":
        "a9546595161f320b6a1218037dc0be16cb278e429ae9d6e786efc878ce72e97f",
    "fixed-quadratic-ball":
        "1e087cd2e966cbdfbf0c32c111d7a98afee50936ee50c3d3d489db3e8c4c32e8",
}

# ``checks.PROBE_FLOATS`` when a check digest is checked again: at 60
# floats each DPP round of 20 probes is split into pieces of four, and at
# 7600 a DPP group takes 3, 11 or 21 whole rounds (simplex, box, ball), so
# the last group of 100 rounds is ragged, as are the last pushback, mixing
# and queue blocks
SMALL_PROBE_FLOATS = (60, 7600)

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


def scalar_linear_constants(base, coeff_at, horizon):
    """``(grad_bound, mean coefficient, variation total)`` of ``f_t(x) =
    <c_t, x>`` by plain loops over the rounds: a running max of dual norms,
    a running vector sum, and a running float sum of squared delta norms."""
    grad_bound = 0.0
    mean = np.zeros(base.dim)
    for t in range(1, horizon + 1):
        grad_bound = max(grad_bound, qp.dual_norm(base, coeff_at(t)))
        mean += coeff_at(t)
    mean /= horizon
    variation = 0.0
    for t in range(2, horizon + 1):
        variation += qp.dual_norm(base, coeff_at(t) - coeff_at(t - 1)) ** 2
    return grad_bound, mean, variation


# ---------------------------------------------------------------------------
# quadratic families: per-round scale and target and their constants
# ---------------------------------------------------------------------------


def quadratic_at(family, horizon, **params):
    """``t -> (s_t, z_t)`` of a built-in quadratic family, one round at a
    time, by the per-round formula its docstring states."""
    if family == "fixed":
        s = float(params["scale"])
        z = np.asarray(params["target"], dtype=float)
        return lambda t: (s, z)
    target0 = np.asarray(params["target0"], dtype=float)
    drift = np.asarray(params["target_drift"], dtype=float)

    def z_at(t):
        return target0 + (t / horizon) * drift

    return lambda t: (params["scale0"] + (t / horizon) * params["scale_drift"],
                      z_at(t))


def scalar_quadratic_constants(base, family, at, horizon):
    """``(grad_lipschitz, mean_curvature, mean value oracle, mean gradient
    oracle, variation total)`` of ``f_t(x) = (s_t / 2) ||x - z_t||_2^2`` by
    plain loops over the rounds.

    A fixed loss is its own mean.  A drifting one's mean is expanded as
    ``(s/2)||x||^2 - <m, x> + const`` from per-round lists.  The variation
    adds ``(|s_t - s_{t-1}| * sup ||x|| + ||s_t z_t - s_{t-1} z_{t-1}||)^2``
    over rounds 2..T in plain floats; ``sup ||x||`` is the norm of the
    per-coordinate supremum over a ball or box.
    """
    rounds = [at(t) for t in range(1, horizon + 1)]
    grad_lipschitz = max(s for s, _ in rounds)
    if family == "fixed":
        s, z = rounds[0]
        curvature = s

        def mean_value(x):
            diff = x - z
            return 0.5 * s * float(diff @ diff)

        def mean_grad(x):
            return s * (x - z)
    else:
        curvature = float(np.mean([s for s, _ in rounds]))
        mean_m = np.mean([s * z for s, z in rounds], axis=0)
        const = float(np.mean([0.5 * s * float(z @ z) for s, z in rounds]))

        def mean_value(x):
            return 0.5 * curvature * float(x @ x) - float(mean_m @ x) + const

        def mean_grad(x):
            return curvature * x - mean_m
    if isinstance(base, qp.Ball):
        sup_x = np.abs(base.center) + base.radius
    else:
        sup_x = np.maximum(np.abs(base.lower), np.abs(base.upper))
    x_reach = qp.dual_norm(base, sup_x)
    variation = 0.0
    for (prev_s, prev_z), (cur_s, cur_z) in zip(rounds, rounds[1:]):
        moment_step = qp.dual_norm(base, cur_s * cur_z - prev_s * prev_z)
        variation += (abs(cur_s - prev_s) * x_reach + moment_step) ** 2
    return grad_lipschitz, curvature, mean_value, mean_grad, variation


# ---------------------------------------------------------------------------
# the staged hindsight comparator, as it stood with a fused oracle that built
# the full penalized gradient at every point it visited
# ---------------------------------------------------------------------------


def _reference_fista(objective, base, x0, *, lipschitz_guess=1.0,
                     max_iter=20000, tol=1e-12, stall_limit=120, counts=None):
    """Accelerated projected gradient with backtracking and restarts, on an
    oracle that maps a point to ``(value, gradient)``.  ``counts``, when
    given, gains one ``"restarts"`` per function-value restart; nothing
    else differs from the solver this freezes."""
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
            candidate = qp.project(base, y - g / step_inv)
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
            if counts is not None:
                counts["restarts"] = counts.get("restarts", 0) + 1
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


def _reference_squared_violation(block, x):
    values, jac = qp.constraint_eval(block, x)
    hinge = np.maximum(values, 0.0)
    return float((hinge ** 2).sum()), 2.0 * (hinge @ jac)


def reference_comparator(seq, block, base, *, feas_tol=1e-6, max_iter=20000,
                         counts=None):
    """``hindsight_comparator`` as it stood when every visited point cost a
    full gradient: the unconstrained solve for an empty block, the
    feasibility probe for a block without a Slater point, then penalty
    stages and the pull toward the certificate.  ``counts`` gains
    ``"probe"`` and ``"stages"`` tallies beside the restarts."""
    counts = {} if counts is None else counts
    x0 = qp.center(base)

    if block.size == 0:
        x, residual = _reference_fista(
            lambda p: (seq.mean_value(p), seq.mean_grad(p)), base, x0,
            lipschitz_guess=max(seq.mean_curvature, 1.0),
            max_iter=max_iter, counts=counts,
        )
        if residual > 1e-8:
            raise qp.ConvergenceError("comparator solve stalled",
                                      residual=residual)
        return x

    if block.slater is None:
        counts["probe"] = counts.get("probe", 0) + 1
        probe, _ = _reference_fista(
            lambda p: _reference_squared_violation(block, p), base, x0,
            max_iter=max_iter, counts=counts)
        values, _ = qp.constraint_eval(block, probe)
        if np.max(values) > 1e-6:
            worst = int(np.argmax(values))
            raise qp.InfeasibleError(
                f"no feasible point found; constraint {worst} stays at "
                f"{values[worst]:.3e}", constraint_index=worst,
            )

    stage_target = feas_tol if block.slater is not None else min(feas_tol, 1e-9)
    x = x0
    weight = 1000.0
    curvature_guess = max(seq.mean_curvature, 1.0)
    for _ in range(6):
        counts["stages"] = counts.get("stages", 0) + 1

        def penalized(p, w=weight):
            violation_sq, violation_grad = _reference_squared_violation(block, p)
            return (seq.mean_value(p) + w * violation_sq,
                    seq.mean_grad(p) + w * violation_grad)

        x, residual = _reference_fista(penalized, base, x,
                                       lipschitz_guess=curvature_guess,
                                       max_iter=max_iter, counts=counts)
        values, _ = qp.constraint_eval(block, x)
        if float(np.max(values, initial=0.0)) <= stage_target:
            break
        weight *= 100.0
        curvature_guess *= 100.0
    else:
        if block.slater is None:
            raise qp.ConvergenceError(
                "penalty escalation left residual violation",
                residual=float(np.max(values, initial=0.0)),
            )

    worst = float(np.max(values, initial=0.0))
    if worst > 0.0 and block.slater is not None:
        point, margin = block.slater
        pull = worst / (worst + margin)
        pull = min(1.0, pull * (1.0 + 1e-9) + 1e-15)
        x = (1.0 - pull) * x + pull * point
        values, _ = qp.constraint_eval(block, x)
        worst = float(np.max(values, initial=0.0))
    if worst > 1e-8:
        raise qp.ConvergenceError(
            "comparator violation above tolerance", residual=worst,
        )
    return x


# ---------------------------------------------------------------------------
# a Lagrangian lower bound on the hindsight optimum of a built-in family
# ---------------------------------------------------------------------------


def reference_stage_multipliers(seq, block, base, stages):
    """``lambda_k = 2 w max(g_k(x_w), 0)`` at the last of ``stages`` penalty
    stages of ``reference_comparator``: its weight ``w`` and its result
    ``x_w``, before the pull toward the certificate.

    The stages are rerun from the reference's own pieces, so ``x_w`` is the
    reference's stage result bit for bit; ``stages`` is the count its
    ``counts`` reports.  At a minimizer of the penalized loss these are the
    multipliers that its gradient ``2 w (hinge @ jac)`` puts on the
    constraints.
    """
    x = qp.center(base)
    weight = 1000.0
    curvature_guess = max(seq.mean_curvature, 1.0)
    for stage in range(stages):
        if stage:
            weight *= 100.0
            curvature_guess *= 100.0

        def penalized(p, w=weight):
            violation_sq, violation_grad = _reference_squared_violation(block, p)
            return (seq.mean_value(p) + w * violation_sq,
                    seq.mean_grad(p) + w * violation_grad)

        x, _ = _reference_fista(penalized, base, x,
                                lipschitz_guess=curvature_guess)
    values, _ = qp.constraint_eval(block, x)
    return 2.0 * weight * np.maximum(values, 0.0)


def lagrangian_lower_bound(seq, block, base, multipliers):
    """``min over the base set of F(x) + lambda . g(x)``, where ``F`` is the
    averaged loss: for ``lambda >= 0`` a lower bound on the hindsight
    optimum ``min F`` over the feasible set (weak duality).

    Built-in families only.  There ``F`` and every ``g_k`` are linear or
    isotropic quadratics: ``F(x) = F(0) + grad F(0) . x + (s/2) ||x||^2``
    with ``s`` the mean curvature, and ``g_k`` the same with curvature 0
    (linear) or 2 (quadratic), read off the Jacobian's change along the
    first axis.  The Lagrangian is then ``const + q . x + (a/2) ||x||^2``:
    for ``a > 0`` it is minimized by projecting ``-q / a`` onto the base
    set; for ``a = 0`` it is linear, minimized at a boundary point of the
    ball, a corner of the box or a vertex of the simplex.  The bound is
    the Lagrangian evaluated there with the library's oracles.
    """
    multipliers = np.asarray(multipliers, dtype=float).reshape(block.size)
    origin = np.zeros(base.dim)
    _, jac0 = qp.constraint_eval(block, origin)
    _, jac1 = qp.constraint_eval(block, np.eye(base.dim)[0])
    curvatures = np.reshape(jac1 - jac0, (block.size, base.dim))[:, 0]
    a = seq.mean_curvature + float(multipliers @ curvatures)
    q = seq.mean_grad(origin) + multipliers @ np.reshape(
        jac0, (block.size, base.dim))
    if a > 0:
        x = qp.project(base, -q / a)
    elif isinstance(base, qp.Ball):
        norm = float(np.linalg.norm(q))
        x = base.center - (base.radius / norm) * q if norm > 0 else base.center
    elif isinstance(base, qp.Box):
        x = np.where(q > 0, base.lower, base.upper)
    else:
        x = np.eye(base.dim)[int(np.argmin(q))]
    values, _ = qp.constraint_eval(block, x)
    return seq.mean_value(x) + float(multipliers @ np.reshape(values,
                                                                 block.size))

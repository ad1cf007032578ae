"""Constraint blocks, loss sequences, constants, variation, comparator."""
from dataclasses import replace

import numpy as np
import pytest

import queueprox as qp
from queueprox import geometry
from queueprox.problems import coeff_variation
from oracles import (brute_force_variation, finite_diff_grad,
                     grid_comparator, linear_coeff_at, scalar_linear_constants)

BALL = qp.Ball(center=np.zeros(2), radius=1.0)
EUC2 = qp.euclidean(2)


def test_constraint_eval_linear_examples():
    block = qp.linear_block(EUC2, BALL, [[1.0, 1.0]], [1.0])
    vals, jac = qp.constraint_eval(block, np.array([0.5, 0.5]))
    assert vals[0] == 0.0
    assert np.allclose(jac[0], [1.0, 1.0])
    vals, _ = qp.constraint_eval(block, np.zeros(2))
    assert vals[0] == -1.0


def test_constraint_eval_quadratic_example():
    block = qp.quadratic_block(EUC2, BALL, [[0.0, 0.0]], [0.25])
    x = np.array([0.5, 0.0])
    vals, jac = qp.constraint_eval(block, x)
    assert vals[0] == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(jac[0], [1.0, 0.0])
    # jacobian row agrees with central differences
    fd = finite_diff_grad(lambda p: qp.constraint_eval(block, p)[0][0], x)
    assert np.allclose(jac[0], fd, atol=1e-8)


def test_constraint_eval_dimension_mismatch():
    block = qp.linear_block(EUC2, BALL, [[1.0, 0.0]], [0.3])
    with pytest.raises(qp.DimensionMismatchError):
        qp.constraint_eval(block, np.zeros(3))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_constraint_eval_accepts_huge_finite_outputs_and_rejects_inf():
    # finite, but their squares overflow: only the scalar test fails, and
    # the exact test behind it passes them
    out = {"values": np.array([1e200]), "jac": np.array([[-1e200, 0.0]])}
    block = qp.ConstraintBlock(size=1, dim=2,
                               eval_fn=lambda x: (out["values"], out["jac"]),
                               value_bounds=np.ones(1), lipschitz=np.ones(1),
                               curvature=0.0)
    vals, jac = qp.constraint_eval(block, np.zeros(2))
    assert vals[0] == 1e200 and jac[0, 0] == -1e200
    for key in ("values", "jac"):
        out[key] = out[key].copy()
        out[key].flat[-1] = np.inf
        with pytest.raises(qp.OracleError):
            qp.constraint_eval(block, np.zeros(2), round_index=4)


def test_builtin_constants_halfspace_on_ball():
    G, H, L_g = qp.builtin_constants(
        {"family": "linear", "A": [[1.0, 0.0]], "b": [0.3]}, BALL)
    assert H == 1.0
    assert L_g == 0.0
    assert G == pytest.approx(1.3)


def test_builtin_constants_zero_constraint():
    G, H, L_g = qp.builtin_constants(
        {"family": "linear", "A": [[0.0, 0.0]], "b": [0.0]}, BALL)
    assert (G, H, L_g) == (0.0, 0.0, 0.0)


def test_builtin_constants_quadratic_curvature():
    G, H, L_g = qp.builtin_constants(
        {"family": "quadratic", "centers": [[0.0, 0.0]], "offsets": [1.0]},
        BALL)
    assert L_g == 2.0


def test_builtin_constants_rejects_custom_family():
    with pytest.raises(qp.UnsupportedFamilyError):
        qp.builtin_constants({"family": "custom"}, BALL)


@pytest.mark.parametrize("make_block", [
    lambda: qp.linear_block(EUC2, BALL, [[0.7, -0.2], [0.1, 0.9]],
                            [0.5, 0.4]),
    lambda: qp.quadratic_block(EUC2, BALL, [[0.2, -0.1]], [0.3]),
])
def test_declared_constants_hold_on_samples(make_block):
    block = make_block()
    rng = np.random.default_rng(2)
    xs = qp.sample(BALL, rng, 1000)
    ys = qp.sample(BALL, rng, 1000)
    G = float(np.sum(block.value_bounds))
    slack = 1 + 1e-9
    for x, y in zip(xs, ys):
        gx, jx = qp.constraint_eval(block, x)
        gy, jy = qp.constraint_eval(block, y)
        assert np.abs(gx).sum() <= G * slack
        dist = np.linalg.norm(x - y)
        for k in range(block.size):
            assert abs(gx[k] - gy[k]) <= block.lipschitz[k] * dist * slack
            assert (np.linalg.norm(jx[k] - jy[k])
                    <= block.curvature * dist * slack)


def test_slater_certificate_strictly_feasible():
    block = qp.linear_block(EUC2, BALL, [[1.0, 0.0]], [0.3],
                            slater_point=[0.0, 0.0])
    point, margin = block.slater
    vals, _ = qp.constraint_eval(block, point)
    assert margin > 0
    assert np.all(vals <= -margin + 1e-15)


def test_stack_blocks_concatenates():
    b1 = qp.linear_block(EUC2, BALL, [[1.0, 0.0]], [0.3])
    b2 = qp.quadratic_block(EUC2, BALL, [[0.0, 0.0]], [0.5])
    both = qp.stack_blocks([b1, b2])
    assert both.size == 2
    vals, jac = qp.constraint_eval(both, np.array([0.1, 0.2]))
    assert vals[0] == pytest.approx(0.1 - 0.3)
    assert vals[1] == pytest.approx(0.05 - 0.5)
    assert jac.shape == (2, 2)


def test_loss_index_zero_aliases_round_one():
    seq = qp.linear_drift(EUC2, BALL, [1.0, 0.0], [0.0, 1.0], horizon=10)
    x = np.array([0.2, 0.1])
    assert np.allclose(seq.grad(0, x), seq.grad(1, x))
    assert seq.value(0, x) == seq.value(1, x)
    with pytest.raises(ValueError):
        seq.grad(11, x)


@pytest.mark.parametrize("make_seq", [
    lambda: qp.fixed_linear(EUC2, BALL, [-1.0, 0.0], 20, grad_lipschitz=0.5),
    lambda: qp.linear_drift(EUC2, BALL, [0.5, 0.0], [0.0, 0.4], 20),
    lambda: qp.alternating(EUC2, BALL, [0.3, 0.1], [-0.2, 0.4], 20),
    lambda: qp.rotating_drift(EUC2, BALL, amplitude=0.8, rate=0.6,
                              horizon=20),
    lambda: qp.fixed_quadratic(EUC2, BALL, [0.1, 0.55], 20),
    lambda: qp.quadratic_drift(EUC2, BALL, [0.9, 0.0], [-0.4, 0.3], 20,
                               scale0=1.0, scale_drift=0.5),
])
def test_loss_constants_hold_on_samples(make_seq):
    seq = make_seq()
    rng = np.random.default_rng(6)
    xs = qp.sample(BALL, rng, 300)
    ys = qp.sample(BALL, rng, 300)
    slack = 1 + 1e-9
    for t in (1, seq.horizon // 2, seq.horizon):
        for x, y in zip(xs[:100], ys[:100]):
            gx, gy = seq.grad(t, x), seq.grad(t, y)
            assert np.linalg.norm(gx) <= seq.grad_bound * slack
            assert (np.linalg.norm(gx - gy)
                    <= seq.grad_lipschitz * np.linalg.norm(x - y) * slack)


def _one_point_custom_sequence(horizon):
    """An x-dependent custom sequence whose oracle rejects stacks."""

    def grad_fn(t, x):
        assert x.shape == (2,), "the user oracle must see one point"
        return np.array([np.sin(t * x[0]) + x[1] ** 2, t * x[0] * x[1]])

    return qp.custom_sequence(
        EUC2, BALL, lambda t, x: float(x @ x), grad_fn, horizon=horizon,
        grad_bound=10.0, grad_lipschitz=10.0)


@pytest.mark.parametrize("make_seq", [
    lambda: qp.fixed_linear(EUC2, BALL, [-1.0, 0.0], 20),
    lambda: qp.fixed_quadratic(EUC2, BALL, [0.1, 0.55], 20, scale=0.7),
    lambda: qp.linear_drift(EUC2, BALL, [0.5, 0.0], [0.0, 0.4], 20),
    lambda: qp.rotating_drift(EUC2, BALL, amplitude=0.8, rate=0.6,
                              horizon=20),
    lambda: qp.alternating(EUC2, BALL, [0.3, 0.1], [-0.2, 0.4], 20),
    lambda: qp.quadratic_drift(EUC2, BALL, [0.9, 0.0], [-0.4, 0.3], 20,
                               scale0=1.0, scale_drift=0.5),
    lambda: _one_point_custom_sequence(20),
], ids=["fixed-linear", "fixed-quadratic", "linear-drift", "rotating-drift",
        "alternating", "quadratic-drift", "custom"])
def test_loss_grad_on_a_stack_equals_its_rows(make_seq):
    seq = make_seq()
    points = qp.sample(BALL, np.random.default_rng(12), 7)
    for t in (0, 1, 9, 20):
        stacked = seq.grad(t, points)
        assert stacked.shape == points.shape
        rows = np.array([seq.grad(t, p) for p in points])
        assert stacked.tobytes() == rows.tobytes()
    assert seq.grad(3, points[:0]).shape == (0, 2)


def test_stacked_grad_rejects_an_oracle_that_ignores_the_stack():
    # the linear families' oracle returns one (d,) row whatever x is; a
    # stack flag on it must not broadcast that row over the probes
    seq = replace(qp.linear_drift(EUC2, BALL, [0.5, 0.0], [0.0, 0.4], 20),
                  grad_takes_stack=True)
    points = qp.sample(BALL, np.random.default_rng(13), 3)
    assert seq.grad(2, points[0]).shape == (2,)
    with pytest.raises(qp.DimensionMismatchError):
        seq.grad(2, points)


def test_quadratic_gradients_match_finite_differences():
    seq = qp.quadratic_drift(EUC2, BALL, [0.9, 0.0], [-0.4, 0.3], 10,
                             scale0=1.0, scale_drift=0.5)
    rng = np.random.default_rng(9)
    for t in (1, 5, 10):
        for x in qp.sample(BALL, rng, 20):
            fd = finite_diff_grad(lambda p: seq.value(t, p), x)
            assert np.allclose(seq.grad(t, x), fd, atol=1e-7)


def _random_linear(family, geom, base, horizon, rng):
    """A built-in linear sequence on random parameters, and its parameters."""
    d = base.dim
    if family == "fixed":
        params = {"coeffs": rng.normal(size=d)}
        seq = qp.fixed_linear(geom, base, params["coeffs"], horizon)
    elif family == "linear-drift":
        params = {"start": rng.normal(size=d), "drift": rng.normal(size=d)}
        seq = qp.linear_drift(geom, base, params["start"], params["drift"],
                              horizon)
    elif family == "alternating":
        params = {"first": rng.normal(size=d), "second": rng.normal(size=d)}
        seq = qp.alternating(geom, base, params["first"], params["second"],
                             horizon)
    else:
        plane = rng.normal(size=(2, d))
        params = {"amplitude": float(rng.uniform(0.5, 1.5)),
                  "rate": float(rng.uniform(0.2, 1.0))}
        seq = qp.rotating_drift(geom, base, horizon=horizon, plane=plane,
                                **params)
        e1 = plane[0] / np.linalg.norm(plane[0])
        e2 = plane[1] - (plane[1] @ e1) * e1
        params["plane"] = (e1, e2 / np.linalg.norm(e2))
    return seq, params


LINEAR_FAMILIES = ("fixed", "linear-drift", "alternating", "rotating")
TABLE_PAIRINGS = [(qp.euclidean(2), BALL),
                  (qp.euclidean(10), qp.Box(-np.ones(10), np.ones(10))),
                  (qp.entropic(10), qp.Simplex(10))]


@pytest.mark.parametrize("family", LINEAR_FAMILIES)
@pytest.mark.parametrize("geom, base", TABLE_PAIRINGS,
                         ids=["ball-d2", "box-d10", "simplex-d10"])
def test_linear_table_matches_the_per_round_formula(family, geom, base):
    # every row, gradient, value and constant equals the one computed
    # round by round, bit for bit
    rng = np.random.default_rng(31)
    x = geometry.sample(base, rng)[0]
    for horizon in (1, 2, 7, 500):
        seq, params = _random_linear(family, geom, base, horizon, rng)
        coeff_at = linear_coeff_at(family, horizon, **params)
        for t in range(horizon + 1):
            c = coeff_at(max(t, 1))
            assert seq.grad(t, x).tobytes() == c.tobytes()
            assert seq.value(t, x) == float(c @ x)
        grad_bound, mean, variation = scalar_linear_constants(
            geom, coeff_at, horizon)
        assert seq.grad_bound == grad_bound
        assert seq.mean_grad_fn(x).tobytes() == mean.tobytes()
        assert seq.mean_value_fn(x) == float(mean @ x)
        assert qp.gradient_variation(seq) == variation


def test_coeff_variation_squares_like_python_floats():
    # libm pow, which Python's x ** 2 uses, rounds some squares differently
    # from x * x; the entropic dual norm of each delta is exactly |v|
    rng = np.random.default_rng(5)
    values = [v for v in rng.uniform(0.1, 10.0, 20000).tolist()
              if v ** 2 != v * v][:64] or [0.3, 1.7, 2.9]
    # rounds 1..2k+1 play 0, v_1, 0, v_2, ..., v_k, 0 (row 0 is never used)
    table = np.zeros((2 * len(values) + 2, 2))
    table[2:-1:2, 0] = values
    expect = 0.0
    for v in values:
        expect += v ** 2
        expect += v ** 2
    assert coeff_variation(qp.entropic(2), table, len(table) - 1) == expect


@pytest.mark.parametrize("family, period", [
    ("fixed", 1), ("alternating", 2), ("linear-drift", 51), ("rotating", 51)])
def test_linear_tables_are_small_and_read_only(family, period):
    # only the drifting families hold a row per round
    seq, _ = _random_linear(family, EUC2, BALL, 50, np.random.default_rng(2))
    assert seq.coeffs.shape == (period, 2)
    with pytest.raises(ValueError):
        seq.coeffs[0, 0] = 1.0
    with pytest.raises(ValueError):
        seq.grad(1, np.zeros(2))[0] = 1.0


def test_linear_families_reject_a_zero_horizon():
    for family in LINEAR_FAMILIES:
        with pytest.raises(ValueError, match="horizon"):
            _random_linear(family, EUC2, BALL, 0, np.random.default_rng(3))


def test_gradient_variation_fixed_is_zero():
    seq = qp.fixed_linear(EUC2, BALL, [0.4, -0.2], 50)
    assert qp.gradient_variation(seq) == 0.0
    seq_q = qp.fixed_quadratic(EUC2, BALL, [0.1, 0.2], 50)
    assert qp.gradient_variation(seq_q) == 0.0


def test_gradient_variation_alternating_closed_form():
    c, cp = np.array([0.3, 0.1]), np.array([-0.2, 0.4])
    seq = qp.alternating(EUC2, BALL, c, cp, horizon=10)
    expect = 9 * float((c - cp) @ (c - cp))
    assert qp.gradient_variation(seq) == pytest.approx(expect, rel=1e-12)
    assert qp.gradient_variation(seq) == pytest.approx(
        brute_force_variation(seq, EUC2, BALL), rel=1e-9)


def test_gradient_variation_linear_drift_closed_form():
    u = np.array([0.0, 0.4])
    seq = qp.linear_drift(EUC2, BALL, [0.5, 0.0], u, horizon=20)
    expect = 19 * float(u @ u) / 20**2
    assert qp.gradient_variation(seq) == pytest.approx(expect, rel=1e-12)
    assert qp.gradient_variation(seq) == pytest.approx(
        brute_force_variation(seq, EUC2, BALL), rel=1e-9)


def test_gradient_variation_quadratic_certified_overestimate():
    seq = qp.quadratic_drift(EUC2, BALL, [0.9, 0.0], [-0.4, 0.3], 15,
                             scale0=1.0, scale_drift=0.5)
    v = qp.gradient_variation(seq)
    assert v >= brute_force_variation(seq, EUC2, BALL, n_samples=256) - 1e-12
    assert v >= 0.0


def test_gradient_variation_base_dimension_check():
    seq = qp.fixed_linear(EUC2, BALL, [0.4, -0.2], 5)
    assert qp.gradient_variation(seq, BALL) == 0.0
    with pytest.raises(qp.DimensionMismatchError):
        qp.gradient_variation(seq, qp.Ball(np.zeros(3), 1.0))


def test_gradient_variation_custom_without_bound_unsupported():
    seq = qp.custom_sequence(
        EUC2, BALL, lambda t, x: float(x @ x), lambda t, x: 2 * x,
        horizon=5, grad_bound=2.0, grad_lipschitz=2.0)
    with pytest.raises(qp.UnsupportedFamilyError):
        qp.gradient_variation(seq)


def test_gradient_variation_additive_over_concatenation():
    c, cp = np.array([0.3, 0.1]), np.array([-0.2, 0.4])
    long = qp.alternating(EUC2, BALL, c, cp, horizon=8)
    head = qp.alternating(EUC2, BALL, c, cp, horizon=4)
    # the 4-round tail (starting with c' at its first round) is another
    # alternating sequence whose boundary round matches head's last loss,
    # so splitting only re-labels the t=5 term from one sum to the other
    tail = qp.alternating(EUC2, BALL, cp, c, horizon=4)
    boundary = float((c - cp) @ (c - cp))
    assert (qp.gradient_variation(head) + boundary
            + qp.gradient_variation(tail)
            == pytest.approx(qp.gradient_variation(long), rel=1e-12))


def test_comparator_unconstrained_quadratic_projects_radially():
    seq = qp.fixed_quadratic(EUC2, BALL, [2.0, 0.0], 10)
    block = qp.empty_block(2)
    x = qp.hindsight_comparator(seq, block, BALL)
    assert np.allclose(x, [1.0, 0.0], atol=1e-6)


def test_comparator_active_linear_constraint():
    seq = qp.fixed_linear(EUC2, BALL, [-1.0, 0.0], 10)
    block = qp.linear_block(EUC2, BALL, [[1.0, 0.0]], [0.3],
                            slater_point=[0.0, 0.0])
    x = qp.hindsight_comparator(seq, block, BALL)
    assert np.allclose(x, [0.3, 0.0], atol=1e-4)
    vals, _ = qp.constraint_eval(block, x)
    assert np.all(vals <= 1e-8)


def test_comparator_symmetric_inactive_constraint():
    seq = qp.fixed_quadratic(EUC2, BALL, [0.0, 0.0], 10)
    block = qp.linear_block(EUC2, BALL, [[0.0, 0.0]], [1.0])
    x = qp.hindsight_comparator(seq, block, BALL)
    assert np.allclose(x, [0.0, 0.0], atol=1e-6)


def test_comparator_matches_grid_oracle_on_random_instances():
    rng = np.random.default_rng(31)
    for trial in range(10):
        c = rng.uniform(-1, 1, size=2)
        b = float(rng.uniform(0.1, 0.6))
        seq = qp.fixed_linear(EUC2, BALL, c, 10)
        block = qp.linear_block(EUC2, BALL, [[1.0, 0.0]], [b],
                                slater_point=[0.0, 0.0])
        x = qp.hindsight_comparator(seq, block, BALL)
        # hand-written totals: ten identical linear rounds, one halfspace
        _, oracle_obj = grid_comparator(
            BALL, objective=lambda P: 10.0 * (P @ c),
            feasible=lambda P: P[:, 0] <= b + 1e-12, resolution=1e-3)
        mine = sum(seq.value(t, x) for t in range(1, 11))
        assert mine <= oracle_obj + 1e-3, (trial, mine, oracle_obj)
        vals, _ = qp.constraint_eval(block, x)
        assert np.all(vals <= 1e-8)


def test_comparator_infeasible_instance_errors():
    # two parallel halfspaces with empty intersection inside the ball
    block = qp.linear_block(EUC2, BALL, [[1.0, 0.0], [-1.0, 0.0]],
                            [-2.0, -2.0])
    seq = qp.fixed_linear(EUC2, BALL, [1.0, 0.0], 5)
    with pytest.raises((qp.InfeasibleError, qp.ConvergenceError)):
        qp.hindsight_comparator(seq, block, BALL)


@pytest.mark.parametrize("name", ["golden-d2", "box-mixed-d3", "simplex-d10"])
def test_comparator_evaluates_the_block_once_per_new_point(name, monkeypatch):
    built = qp.build_scenario(qp.shipped_scenario(name, horizon=200))
    calls = {"eval": 0, "project": 0}

    def counted_eval(x):
        calls["eval"] += 1
        return built.block.eval_fn(x)

    project = geometry.project

    def counted_project(base, y):
        calls["project"] += 1
        return project(base, y)

    monkeypatch.setattr(geometry, "project", counted_project)
    qp.hindsight_comparator(built.seq,
                            replace(built.block, eval_fn=counted_eval),
                            built.base)
    # a FISTA iteration visits one projected point per backtracking
    # candidate and at most one extrapolated point, so it has at most
    # twice as many new points as projections; beyond one evaluation per
    # new point, each of the at most six penalty stages evaluates its start
    # and its result once more, and the pull toward the certificate once
    assert calls["project"] > 0
    assert calls["eval"] <= 2 * calls["project"] + 2 * 6 + 1

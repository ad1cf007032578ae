"""Solver rounds: queue, schedule, both variants, baseline, full runs."""
import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import queueprox as qp
from queueprox import algorithm as alg
from oracles import (DIGEST_HORIZON, GOLDEN, TRACE_DIGESTS, golden_config,
                     trace_digest)

BALL = qp.Ball(center=np.zeros(2), radius=1.0)


def run_shipped(name, horizon=None, seed=None):
    cfg = qp.shipped_scenario(name, horizon=horizon, seed=seed)
    built = qp.build_scenario(cfg)
    return built, qp.run(cfg.variant, built, horizon=cfg.horizon)


# ---------------------------------------------------------------------------
# hyperparameters
# ---------------------------------------------------------------------------


def test_hyperparams_from_variation_examples():
    hp = qp.hyperparams_from_variation(16.0, 1.0)
    assert (hp.eta, hp.gamma) == (0.25, 2.0)
    hp = qp.hyperparams_from_variation(0.0, 2.0)
    assert hp.eta == 0.5
    assert hp.gamma == pytest.approx(math.sqrt(2), rel=1e-15)
    hp = qp.hyperparams_from_variation(16.0, 1.0, horizon=100,
                                       variant=qp.VARIANT_SIMPLEX)
    assert hp.nu == 0.01


def test_hyperparams_rejects_bad_inputs():
    with pytest.raises(ValueError):
        qp.hyperparams_from_variation(1.0, 0.0)
    with pytest.raises(ValueError):
        qp.hyperparams_from_variation(-1.0, 1.0)
    with pytest.raises(ValueError):
        qp.hyperparams_from_variation(1.0, 1.0, variant=qp.VARIANT_SIMPLEX)
    with pytest.raises(ValueError):
        qp.HyperParams(eta=1.0, gamma=-0.1)


def test_hyperparams_gamma_zero_is_legal():
    hp = qp.HyperParams(eta=1.0, gamma=0.0)
    assert hp.gamma == 0.0


# ---------------------------------------------------------------------------
# queue, xi, alpha primitives
# ---------------------------------------------------------------------------


def test_queue_update_examples():
    assert qp.queue_update(np.zeros(1), np.array([-0.5]), 1.0)[0] == 0.5
    assert qp.queue_update(np.array([2.0]), np.array([0.3]), 1.0)[0] == 2.3
    assert qp.queue_update(np.array([0.1]), np.array([-0.4]), 2.0)[0] == 0.8


def test_queue_update_keeps_both_branches_nonnegative():
    rng = np.random.default_rng(4)
    q = np.zeros(3)
    for _ in range(500):
        g = rng.uniform(-1, 1, size=3)
        q = qp.queue_update(q, g, 0.7)
        assert np.all(q >= 0)
        assert np.all(q + 0.7 * g >= 0)


def test_xi_value_examples():
    assert qp.xi_value(np.zeros(1), 1.0, 0.0, 1.0, 1.0) == 1.0
    assert qp.xi_value(np.array([1.0, 1.0]), 2.0, 0.5, 1.0, 0.0) == 4.0
    assert qp.xi_value(np.array([5.0]), 0.0, 2.0, 3.0, 1.0) == 0.0


def test_alpha_update_general_plug_in():
    val = qp.alpha_update(0.0, 1.0, eta=1.0, gamma=1.0,
                          grad_lipschitz=1.0, curvature=0.0, value_bound=0.0)
    assert val == 6.0


def test_alpha_update_clamps_to_previous():
    val = qp.alpha_update(50.0, 1.0, eta=1.0, gamma=1.0,
                          grad_lipschitz=1.0, curvature=0.0, value_bound=0.0)
    assert val == 50.0


def test_alpha_update_simplex_plug_in():
    val = qp.alpha_update(0.0, 1.0, eta=1.0, gamma=1.0,
                          grad_lipschitz=1.0, curvature=0.0, value_bound=0.0,
                          variant=qp.VARIANT_SIMPLEX)
    assert val == 8.0


def test_alpha_update_rejects_nonpositive_eta():
    with pytest.raises(ValueError):
        qp.alpha_update(0.0, 1.0, eta=0.0, gamma=1.0,
                        grad_lipschitz=1.0, curvature=0.0, value_bound=0.0)


def test_mix_anchor_examples():
    out = qp.mix_anchor(np.array([1.0, 0.0, 0.0]), 0.3)
    assert np.allclose(out, [0.8, 0.1, 0.1], atol=1e-15)
    uniform = np.full(3, 1 / 3)
    assert np.allclose(qp.mix_anchor(uniform, 0.2), uniform, atol=1e-15)
    anywhere = np.array([0.7, 0.2, 0.1])
    assert np.allclose(qp.mix_anchor(anywhere, 1.0), uniform, atol=1e-15)


# ---------------------------------------------------------------------------
# golden trace
# ---------------------------------------------------------------------------


def test_golden_trace_matches_frozen_oracle_exactly():
    built = qp.build_scenario(golden_config())
    assert built.hp.eta == GOLDEN["eta"]
    assert built.hp.gamma == GOLDEN["gamma"]
    trace = qp.run("ompd", built, horizon=3)
    for t in range(3):
        assert tuple(trace.decisions[t]) == GOLDEN["decisions"][t]
        assert trace.losses[t] == GOLDEN["losses"][t]
        assert trace.alphas[t] == GOLDEN["alphas"][t]
    for i, q in enumerate(GOLDEN["queues"]):
        assert trace.queues[i][0] == q
    assert trace.xis[0] == GOLDEN["xi_1"]
    assert float(trace.losses.sum()) == GOLDEN["cum_loss"]
    assert float(trace.g_values[1:].sum()) == GOLDEN["violation"]


@pytest.mark.parametrize("name, variant", sorted(TRACE_DIGESTS))
def test_trace_matches_frozen_digest(name, variant):
    cfg = qp.shipped_scenario(name, horizon=DIGEST_HORIZON)
    trace = qp.run(variant, qp.build_scenario(cfg), horizon=cfg.horizon)
    assert trace_digest(trace) == TRACE_DIGESTS[name, variant]


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def _free_quadratic_scenario(horizon):
    seq = qp.fixed_quadratic(BALL, [0.4, 0.2], horizon)
    hp = qp.hyperparams_from_variation(0.0, seq.grad_lipschitz)
    return qp.Scenario(block=qp.empty_block(BALL), seq=seq, hp=hp)


def test_run_anchored_at_center():
    trace = qp.run("ompd", _free_quadratic_scenario(5), horizon=0)
    assert np.array_equal(trace.x0, qp.center(BALL))
    assert np.array_equal(trace.anchors, [qp.center(BALL)])
    assert trace.alphas.shape == (0,)


def test_round_one_reduces_to_projected_gradient_without_constraints():
    scenario = _free_quadratic_scenario(5)
    trace = qp.run("ompd", scenario, horizon=1)
    expect = qp.project(BALL,
                        -scenario.seq.grad(0, np.zeros(2)) / trace.alphas[0])
    assert np.allclose(trace.decisions[0], expect, atol=1e-15)


def test_gamma_zero_disables_queue_entirely():
    seq = qp.fixed_linear(BALL, [-1.0, 0.0], 20, grad_lipschitz=0.5)
    block = qp.linear_block(BALL, [[1.0, 0.0]], [0.3])
    hp = qp.HyperParams(eta=1.0, gamma=0.0)
    scenario = qp.Scenario(block=block, seq=seq, hp=hp)
    trace = qp.run("ompd", scenario)
    assert np.all(trace.queues == 0.0)
    assert np.all(trace.xis == 0.0)
    # with the queue dead this is unconstrained online mirror prox
    unconstrained = qp.Scenario(block=qp.empty_block(BALL), seq=seq, hp=hp)
    free = qp.run("ompd", unconstrained)
    assert np.allclose(trace.decisions, free.decisions, atol=1e-15)


def test_run_rejects_bad_variant_and_pairings():
    built = qp.build_scenario(golden_config())
    with pytest.raises(ValueError):
        qp.run("nonsense", built)
    simplex_built = qp.build_scenario(qp.shipped_scenario("simplex-d10",
                                                          horizon=10))
    # the simplex runs the simplex variant only, which runs nowhere else
    for variant, scenario in (("ompd", simplex_built),
                              ("pd-baseline", simplex_built),
                              ("ompd-simplex", built)):
        with pytest.raises(ValueError, match="simplex variant runs on"):
            qp.run(variant, scenario)


def test_run_horizon_zero_and_one():
    built = qp.build_scenario(golden_config())
    empty = qp.run("ompd", built, horizon=0)
    assert empty.horizon == 0
    assert empty.decisions.shape == (0, 2)
    assert empty.queues.shape == (2, 1)

    one = qp.run("ompd", built, horizon=1)
    assert tuple(one.decisions[0]) == GOLDEN["decisions"][0]
    assert one.alphas[0] == GOLDEN["alphas"][0]
    assert one.losses[0] == GOLDEN["losses"][0]
    assert one.queues[1][0] == GOLDEN["queues"][1]
    with pytest.raises(ValueError):
        qp.run("ompd", built, horizon=4)    # beyond the sequence horizon


def test_run_deterministic_replay():
    built, trace1 = run_shipped("drift-rotate-d2", horizon=300)
    _, trace2 = run_shipped("drift-rotate-d2", horizon=300)
    assert np.array_equal(trace1.decisions, trace2.decisions)
    assert np.array_equal(trace1.queues, trace2.queues)
    assert np.array_equal(trace1.losses, trace2.losses)


def test_nan_gradient_raises_oracle_error_with_round():
    def bad_grad(t, x):
        return np.array([np.nan, 0.0]) if t == 3 else np.zeros(2)

    seq = qp.custom_sequence(BALL, lambda t, x: 0.0, bad_grad,
                             horizon=5, grad_bound=1.0, grad_lipschitz=1.0,
                             variation=0.0)
    scenario = qp.Scenario(block=qp.empty_block(BALL), seq=seq,
                           hp=qp.HyperParams(eta=1.0, gamma=1.0))
    with pytest.raises(qp.OracleError) as err:
        qp.run("ompd", scenario)
    assert err.value.round_index == 3


def _variant_base(variant):
    return qp.Simplex(2) if variant == qp.VARIANT_SIMPLEX else BALL


def _custom_scenario(variant, value_fn, block=None, base=None, grad_fn=None):
    """A five-round scenario, on zero gradients unless ``grad_fn`` is
    given, for oracle and start tests."""
    if base is None:
        base = _variant_base(variant)
    seq = qp.custom_sequence(base, value_fn,
                             grad_fn or (lambda t, x: np.zeros(2)),
                             horizon=5, grad_bound=1.0, grad_lipschitz=1.0,
                             variation=0.0)
    hp = qp.hyperparams_from_variation(0.0, 1.0, horizon=5, variant=variant)
    return qp.Scenario(block=block or qp.empty_block(base), seq=seq, hp=hp)


@pytest.mark.parametrize("variant", qp.VARIANTS)
def test_nan_loss_value_raises_oracle_error_with_round(variant):
    scenario = _custom_scenario(
        variant, lambda t, x: float("nan") if t == 5 else 0.0)
    with pytest.raises(qp.OracleError) as err:
        qp.run(variant, scenario)
    assert err.value.oracle == "loss-value"
    assert err.value.round_index == 5


@pytest.mark.parametrize("variant", qp.VARIANTS)
@pytest.mark.parametrize("bad_call", [0, 3])
def test_nan_constraint_raises_oracle_error_with_round(variant, bad_call):
    calls = []

    def eval_fn(x):
        calls.append(x)
        value = np.nan if len(calls) == bad_call + 1 else -1.0
        return np.array([value]), np.zeros((1, 2))

    block = qp.ConstraintBlock(size=1, base=_variant_base(variant),
                               eval_fn=eval_fn,
                               value_bounds=np.ones(1), lipschitz=np.zeros(1),
                               curvature=0.0)
    scenario = _custom_scenario(variant, lambda t, x: 0.0, block)
    with pytest.raises(qp.OracleError) as err:
        qp.run(variant, scenario)
    # the start point is evaluated first, then round t's decision
    assert err.value.oracle == "constraint"
    assert err.value.round_index == bad_call


@pytest.mark.parametrize("variant", qp.VARIANTS)
def test_run_queries_each_gradient_once(variant):
    # the mirror-prox variants reuse round t - 1's gradient for round t's
    # first step, so every (t, x) gradient is queried exactly once
    grads, values = [], []

    def grad_fn(t, x):
        grads.append((t, x.copy()))
        return np.array([0.3 * t, -0.2])

    def value_fn(t, x):
        values.append(t)
        return 0.0

    scenario = _custom_scenario(variant, value_fn, grad_fn=grad_fn)
    trace = qp.run(variant, scenario)
    T = trace.horizon
    if variant == qp.VARIANT_BASELINE:
        # round t steps on grad f_{t-1}(x_{t-1}), index 0 aliasing index 1
        indices = [1] + list(range(1, T))
        points = [trace.x0, *trace.decisions[:-1]]
    else:
        indices = [1] + list(range(1, T + 1))
        points = [trace.x0, *trace.decisions]
    assert [t for t, _ in grads] == indices
    assert all(np.array_equal(x, p) for (_, x), p in zip(grads, points))
    assert len({(t, x.tobytes()) for t, x in grads}) == len(grads)
    assert values == list(range(1, T + 1))


@pytest.mark.parametrize("variant", qp.VARIANTS)
@pytest.mark.parametrize("bad_index, round_index", [(1, 0), (3, 3)])
def test_nan_gradient_names_its_oracle_and_round(variant, bad_index,
                                                  round_index):
    # index 1 is first queried through its alias, index 0, at the start
    def grad_fn(t, x):
        return np.array([np.nan, 0.0]) if t == bad_index else np.zeros(2)

    scenario = _custom_scenario(variant, lambda t, x: 0.0, grad_fn=grad_fn)
    with pytest.raises(qp.OracleError) as err:
        qp.run(variant, scenario)
    assert err.value.oracle == "loss-gradient"
    assert err.value.round_index == round_index


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("variant", qp.VARIANTS)
def test_huge_finite_gradients_run(variant):
    # finite, but g @ g overflows: only the scalar test fails, and the
    # exact test behind it lets the round go on
    scenario = _custom_scenario(variant, lambda t, x: 0.0,
                                grad_fn=lambda t, x: np.array([1e200, -1e200]))
    trace = qp.run(variant, scenario)
    assert np.isfinite(trace.decisions).all()
    assert np.isfinite(trace.anchors).all()


BOX = qp.Box(lower=np.array([-1.0, 0.0]), upper=np.array([1.0, 2.0]))
EUCLIDEAN_VARIANTS = (qp.VARIANT_GENERAL, qp.VARIANT_BASELINE)


def _counting_block(calls, base):
    def eval_fn(x):
        calls.append(x)
        return np.array([-1.0]), np.zeros((1, 2))

    return qp.ConstraintBlock(size=1, base=base, eval_fn=eval_fn,
                              value_bounds=np.ones(1), lipschitz=np.zeros(1),
                              curvature=0.0)


@pytest.mark.parametrize("variant, base, x0", [
    *[pytest.param(v, BALL, [5.0, 0.0], id=f"{v}-ball")
      for v in EUCLIDEAN_VARIANTS],
    *[pytest.param(v, BOX, [0.0, 2.5], id=f"{v}-box-above")
      for v in EUCLIDEAN_VARIANTS],
    *[pytest.param(v, BOX, [-1.5, 1.0], id=f"{v}-box-below")
      for v in EUCLIDEAN_VARIANTS],
    pytest.param(qp.VARIANT_SIMPLEX, qp.Simplex(2), [2.5, 2.5],
                 id="ompd-simplex-sum-5"),
    pytest.param(qp.VARIANT_SIMPLEX, qp.Simplex(2), [1.5, -0.5],
                 id="ompd-simplex-negative"),
])
def test_run_rejects_start_outside_base_set(variant, base, x0):
    calls = []
    scenario = _custom_scenario(variant, lambda t, x: 0.0,
                                _counting_block(calls, base), base)
    with pytest.raises(qp.DomainError, match="x0"):
        qp.run(variant, scenario, x0=np.array(x0))
    assert calls == []      # rejected before any oracle call


@pytest.mark.parametrize("variant", qp.VARIANTS)
def test_run_rejects_start_of_wrong_shape(variant):
    calls = []
    scenario = _custom_scenario(variant, lambda t, x: 0.0,
                                _counting_block(calls, _variant_base(variant)))
    with pytest.raises(qp.DimensionMismatchError):
        qp.run(variant, scenario, x0=np.full(3, 1 / 3))
    assert calls == []


@pytest.mark.parametrize("variant, base, x0", [
    *[pytest.param(v, BALL, [1.0, 0.0], id=f"{v}-ball")
      for v in EUCLIDEAN_VARIANTS],
    *[pytest.param(v, BOX, [1.0, 2.0], id=f"{v}-box-corner")
      for v in EUCLIDEAN_VARIANTS],
    pytest.param(qp.VARIANT_SIMPLEX, qp.Simplex(2), [1.0, 0.0],
                 id="ompd-simplex-vertex"),
])
def test_run_accepts_start_on_the_boundary(variant, base, x0):
    scenario = _custom_scenario(variant, lambda t, x: 0.0, base=base)
    start = np.array(x0)
    trace = qp.run(variant, scenario, x0=start)
    start[:] = 7.0      # the trace keeps its own copy of the start point
    assert np.array_equal(trace.x0, x0)
    assert np.array_equal(trace.anchors[0], x0)
    assert trace.horizon == 5


def test_collapsed_schedule_raises(monkeypatch):
    built = qp.build_scenario(golden_config())
    monkeypatch.setattr(alg, "alpha_update", lambda *a, **k: 0.0)
    with pytest.raises(qp.ScheduleError):
        qp.run("ompd", built, horizon=1)


@pytest.mark.parametrize("name, variant, steps_per_round", [
    ("golden-d2", "ompd", 2),
    ("simplex-d10", "ompd-simplex", 2),
    ("alternating-d2", "pd-baseline", 0),
])
def test_run_call_counts(monkeypatch, name, variant, steps_per_round):
    # the call-count contract the benchmark's traced runs check: two mirror
    # steps per mirror-prox round, and one constraint evaluation per round
    # plus one at the start point
    counts = {"mirror_step": 0, "constraint_eval": 0}

    def counting(attr, fn):
        def wrapped(*args, **kwargs):
            counts[attr] += 1
            return fn(*args, **kwargs)
        return wrapped

    horizon = 20
    built = qp.build_scenario(qp.shipped_scenario(name, horizon=horizon))
    monkeypatch.setattr(qp.geometry, "mirror_step",
                        counting("mirror_step", qp.geometry.mirror_step))
    monkeypatch.setattr(alg, "constraint_eval",
                        counting("constraint_eval", alg.constraint_eval))
    qp.run(variant, built, horizon=horizon)
    assert counts == {"mirror_step": steps_per_round * horizon,
                      "constraint_eval": horizon + 1}


# ---------------------------------------------------------------------------
# schedule invariants on live runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["golden-d2", "box-mixed-d3", "simplex-d10"])
def test_alpha_running_max_matches_closed_form(name):
    built, trace = run_shipped(name, horizon=400)
    G = built.block.value_bound_total
    H = built.block.lipschitz_total
    l1 = np.abs(trace.queues).sum(axis=1)
    run_max = np.maximum.accumulate(l1[1:trace.horizon + 1])
    for t in range(trace.horizon):
        closed = qp.alpha_closed_form(
            run_max[t], built.hp.eta, built.hp.gamma,
            built.seq.grad_lipschitz, built.block.curvature, G, H,
            variant=trace.variant)
        assert abs(closed - trace.alphas[t]) <= 1e-12 * abs(trace.alphas[t])
    assert np.all(np.diff(trace.alphas) >= 0)
    assert trace.alphas[0] >= 2.0 / built.hp.eta - 1e-15


@pytest.mark.parametrize("name", ["golden-d2", "simplex-d10"])
def test_queue_nonnegativity_exact_on_runs(name):
    _, trace = run_shipped(name, horizon=400)
    assert np.all(trace.queues >= 0.0)
    shifted = trace.queues[1:] + trace.gamma * trace.g_values
    assert np.all(shifted >= 0.0)


def test_replayed_rounds_satisfy_pushback_both_steps():
    built, trace = run_shipped("golden-d2", horizon=200)
    rng = np.random.default_rng(41)
    for t in rng.choice(trace.horizon, size=8, replace=False) + 1:
        x_prev = trace.decisions[t - 2] if t >= 2 else trace.x0
        _, jac = qp.constraint_eval(built.block, x_prev)
        weights = trace.queues[t] + trace.gamma * trace.g_values[t - 1]
        penalty = trace.gamma * (weights @ jac)
        anchor = trace.anchors[t - 1]
        alpha = trace.alphas[t - 1]
        steps = [
            (built.seq.grad(t - 1, x_prev) + penalty, trace.decisions[t - 1]),
            (built.seq.grad(t, trace.decisions[t - 1]) + penalty,
             trace.anchors[t]),
        ]
        for h, x_opt in steps:
            lhs = (float(h @ x_opt)
                   + alpha * qp.bregman(built.base, x_opt, anchor))
            for z in qp.sample(built.base, rng, 100):
                rhs = (float(h @ z)
                       + alpha * (qp.bregman(built.base, z, anchor)
                                  - qp.bregman(built.base, z, x_opt)))
                assert lhs <= rhs + 1e-8


# ---------------------------------------------------------------------------
# simplex variant specifics
# ---------------------------------------------------------------------------


def test_simplex_iterates_stay_on_simplex():
    built, trace = run_shipped("simplex-d10", horizon=300)
    for mat in (trace.decisions, trace.anchors, trace.mixed_anchors):
        assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-12
        assert np.all(mat >= -1e-12)
    floor = trace.nu / trace.dim
    assert np.all(trace.mixed_anchors >= floor)


def test_simplex_variant_uses_mixed_anchor_for_both_steps():
    built, trace = run_shipped("simplex-d10", horizon=50)
    t = 17
    x_prev = trace.decisions[t - 2]
    _, jac = qp.constraint_eval(built.block, x_prev)
    weights = trace.queues[t] + trace.gamma * trace.g_values[t - 1]
    penalty = trace.gamma * (weights @ jac)
    mixed = qp.mix_anchor(trace.anchors[t - 1], trace.nu)
    assert np.allclose(mixed, trace.mixed_anchors[t - 1], atol=0)
    h = built.seq.grad(t - 1, x_prev) + penalty
    redo = qp.mirror_step(built.base, mixed, h, trace.alphas[t - 1])
    assert np.allclose(redo, trace.decisions[t - 1], atol=1e-15)


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


def test_baseline_without_constraints_is_projected_gradient():
    seq = qp.fixed_quadratic(BALL, [0.4, 0.2], 30)
    block = qp.empty_block(BALL)
    hp = qp.HyperParams(eta=1.0, gamma=1.0)
    scenario = qp.Scenario(block=block, seq=seq, hp=hp)
    trace = qp.run("pd-baseline", scenario)
    x = qp.center(BALL)
    for t in range(1, 31):
        step = 1.0 / (max(seq.grad_lipschitz, 1.0) * math.sqrt(t))
        x = qp.project(BALL, x - step * seq.grad(t - 1, x))
        assert np.allclose(trace.decisions[t - 1], x, atol=1e-15)


def test_baseline_objective_gap_shrinks_with_horizon():
    # target outside the feasible region, so the optimum sits on the
    # constraint boundary and convergence is gradual
    block = qp.linear_block(BALL, [[1.0, 0.0]], [0.3],
                            slater_point=[0.0, 0.0])
    gaps = {}
    for T in (100, 2000):
        seq = qp.fixed_quadratic(BALL, [1.2, 0.4], T)
        hp = qp.hyperparams_from_variation(0.0, seq.grad_lipschitz)
        scenario = qp.Scenario(block=block, seq=seq, hp=hp)
        trace = qp.run("pd-baseline", scenario)
        comparator = qp.hindsight_comparator(seq, block)
        best = sum(seq.value(t, comparator) for t in range(1, T + 1))
        # approach is from the infeasible side, so the signed gap is
        # negative; convergence means its magnitude decays
        gaps[T] = abs(float(trace.losses.sum()) - best) / T
    assert gaps[2000] < gaps[100]
    assert np.allclose(qp.run("pd-baseline", scenario).decisions[-1],
                       [0.3, 0.4], atol=1e-6)


def test_baseline_zero_gamma_keeps_dual_at_zero():
    seq = qp.fixed_linear(BALL, [-1.0, 0.0], 25, grad_lipschitz=0.5)
    block = qp.linear_block(BALL, [[1.0, 0.0]], [0.3])
    hp = qp.HyperParams(eta=1.0, gamma=0.0)
    scenario = qp.Scenario(block=block, seq=seq, hp=hp)
    trace = qp.run("pd-baseline", scenario)
    assert np.all(trace.queues == 0.0)


# ---------------------------------------------------------------------------
# trace storage: each array once
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, variant", [
    ("simplex-d10", qp.VARIANT_SIMPLEX),
    ("alternating-d2", qp.VARIANT_BASELINE),
])
def test_run_holds_only_the_arrays_it_stores(name, variant):
    """A run holds its stored arrays and nothing else: no mixed anchors for
    the simplex variant, no second copy of the baseline's decisions.
    Measured within 0.1% of those bytes at T = 20,000; a redundant copy
    would add 29% (baseline) or 37% (simplex) at any horizon, and tracing
    allocations slows the loop tenfold, so T = 2,000 suffices."""
    T = 2_000
    cfg = qp.shipped_scenario(name, horizon=T)
    cfg = qp.ScenarioConfig.from_dict({**cfg.to_dict(), "variant": variant})
    built = qp.build_scenario(cfg)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = qp.run(variant, built)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    d, K = trace.dim, trace.n_constraints
    rows = (T + 1) * d + (T + 2) * K + (T + 1) * K + 3 * T   # anchors .. xis
    if variant != qp.VARIANT_BASELINE:
        rows += T * d                                        # decisions
    assert held <= 1.05 * 8 * rows


@pytest.mark.parametrize("name, variant", [
    ("golden-d2", qp.VARIANT_GENERAL),
    ("golden-d2", qp.VARIANT_BASELINE),
    ("simplex-d10", qp.VARIANT_SIMPLEX),
])
def test_trace_views_share_the_anchors(name, variant):
    cfg = qp.shipped_scenario(name, horizon=20)
    built = qp.build_scenario(
        qp.ScenarioConfig.from_dict({**cfg.to_dict(), "variant": variant}))
    trace = qp.run(variant, built)
    assert np.shares_memory(trace.x0, trace.anchors)
    assert np.array_equal(trace.x0, qp.center(built.base))
    aliased = np.shares_memory(trace.decisions, trace.anchors)
    assert aliased == (variant == qp.VARIANT_BASELINE)
    if aliased:
        assert np.array_equal(trace.decisions, trace.anchors[1:])
    assert (trace.mixed_anchors is None) == (variant != qp.VARIANT_SIMPLEX)


# ---------------------------------------------------------------------------
# batched rounds
# ---------------------------------------------------------------------------

_BASES = {
    "ball": {"kind": "ball", "center": [0.1, -0.2], "radius": 1.3},
    "box": {"kind": "box", "lower": [-1.0, -0.5, -1.0],
            "upper": [1.0, 1.5, 0.5]},
    "simplex": {"kind": "simplex", "dim": 4},
}


def _losses(dim):
    """Every built-in loss family a config can name, in dimension ``dim``."""
    ones, tilt = [0.6] * dim, [(-1.0) ** k * 0.3 for k in range(dim)]
    return [
        {"family": "fixed", "coeffs": tilt, "grad_lipschitz": 0.5},
        {"family": "linear-drift", "start": ones, "drift": tilt},
        {"family": "linear-drift", "schedule": "rotate", "amplitude": 0.8,
         "rate": 0.6, "random_plane": True},
        {"family": "alternating", "random": {"amplitude": 0.7}},
        {"family": "fixed", "form": "quadratic", "target": tilt,
         "scale": 1.5},
        {"family": "quadratic-drift", "target0": ones, "target_drift": tilt,
         "scale0": 1.0, "scale_drift": 0.5},
    ]


def _blocks(kind, dim):
    """Empty, linear, quadratic and stacked blocks around the center."""
    inside = qp.center(qp.harness._build_base(qp.ScenarioConfig(
        "b", "euclidean", _BASES[kind], {}, 1))).tolist()
    linear = {"family": "linear", "random": {"count": 2,
                                             "slater_margin": 0.1}}
    quadratic = {"family": "quadratic", "centers": [inside],
                 "offsets": [0.3], "slater_point": inside}
    return [None, linear, quadratic, [linear, quadratic], [quadratic, linear]]


@st.composite
def _batch_configs(draw):
    kind = draw(st.sampled_from(sorted(_BASES)))
    dim = 4 if kind == "simplex" else len(_BASES[kind].get("lower", [0, 0]))
    variant = (qp.VARIANT_SIMPLEX if kind == "simplex" else
               draw(st.sampled_from([qp.VARIANT_GENERAL, qp.VARIANT_BASELINE])))
    template = qp.ScenarioConfig.from_dict({
        "scenario_id": "batch", "base": _BASES[kind], "variant": variant,
        "geometry": "entropic" if kind == "simplex" else "euclidean",
        "loss": draw(st.sampled_from(_losses(dim))),
        "constraints": draw(st.sampled_from(_blocks(kind, dim))),
        "horizon": draw(st.integers(1, 150))})
    seeds = draw(st.lists(st.integers(0, 50), min_size=1, max_size=4))
    return [dataclasses.replace(template, seed=s) for s in seeds]


@settings(max_examples=60, deadline=None)
@given(_batch_configs())
def test_batch_matches_scalar_runs_bit_for_bit(configs):
    T = configs[0].horizon
    built = [qp.build_scenario(c) for c in configs]
    rounds = qp.metrics.probe_rounds(T)
    batched = alg.run_batch(configs[0].variant, built, T, rounds)
    comparators = {}

    def comparator(seq, block):        # one solve per cell for both reports
        key = id(seq)
        if key not in comparators:
            comparators[key] = hindsight_comparator(seq, block)
        return comparators[key]

    hindsight_comparator = qp.harness.prob.hindsight_comparator
    with mock.patch.object(qp.harness.prob, "hindsight_comparator",
                           comparator):
        for config, scenario, lean in zip(configs, built, batched):
            trace = qp.run(config.variant, scenario, T)
            scalar = alg.summarize(trace, scenario.seq, rounds)
            for name in ("losses", "g_values", "final_queue", "probes"):
                a, b = getattr(lean, name), getattr(scalar, name)
                assert (a is None) == (b is None), name
                if a is not None:
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            mine = qp.harness._report(config, scenario, lean, 0.0)
            theirs = qp.harness._report(config, scenario, scalar, 0.0)
            assert repr(mine.summary_row()) == repr(theirs.summary_row())
            assert mine.violations.tobytes() == theirs.violations.tobytes()


def _overflowing(kind):
    """golden-d2 with one piece large enough to overflow a round."""
    cfg = qp.shipped_scenario("golden-d2", horizon=200)
    data = cfg.to_dict()
    if kind == "late-loss-value":  # c_1 * x_1 passes -1.8e308 in round 135
        data["base"] = {"kind": "box", "lower": [-2.68e154, -2.68e154],
                        "upper": [2.68e154, 2.68e154]}
        data["loss"] = {"family": "linear-drift", "start": [0.0, 0.0],
                        "drift": [1.0e154, 0.0]}
    elif kind == "loss-value":      # finite coefficients, an infinite <c, x>
        data["base"] = {"kind": "box", "lower": [-1e3, -1e3],
                        "upper": [1e3, 1e3]}
        data["loss"] = {"family": "fixed", "coeffs": [5e305, 0.0]}
    elif kind == "constraint":    # a cap whose value overflows off center
        data["constraints"] = {"family": "quadratic",
                               "centers": [[1e200, 0.0]],
                               "offsets": [1e300]}
    else:                         # G = inf with L_g = 0 makes alpha NaN
        data["constraints"] = {"family": "linear", "A": [[1e308, 1e308]],
                               "b": [0.0]}
    return qp.ScenarioConfig.from_dict(data)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("kind", ["loss-value", "late-loss-value",
                                  "constraint", "schedule"])
def test_batch_overflow_raises_the_scalar_error(kind):
    cfg = _overflowing(kind)
    built = qp.build_scenario(cfg)
    with pytest.raises(qp.QueueproxError) as scalar:
        qp.run(cfg.variant, built, cfg.horizon)
    if kind == "late-loss-value":
        assert scalar.value.round_index == 135
    others = [qp.build_scenario(dataclasses.replace(cfg, seed=s))
              for s in (1, 2)]
    for cells in ([built], [built] + others, others + [built]):
        with pytest.raises(type(scalar.value)) as batched:
            alg.run_batch(cfg.variant, cells, cfg.horizon)
        assert str(batched.value) == str(scalar.value)
        assert (getattr(batched.value, "oracle", None)
                == getattr(scalar.value, "oracle", None))
        assert (getattr(batched.value, "round_index", None)
                == getattr(scalar.value, "round_index", None))
    with pytest.raises(type(scalar.value)) as swept:
        qp.sweep(qp.SweepSpec(config=cfg, horizons=(cfg.horizon,),
                              seeds=(0, 1)))
    assert str(swept.value) == str(scalar.value)


@pytest.mark.parametrize("loss, refused", [
    ({"family": "fixed", "coeffs": [math.inf, 0.0]},
     "loss coeffs must be finite"),
    ({"family": "fixed", "coeffs": [1.5e308, 1.5e308]},
     "grad_bound is not finite"),
    ({"family": "quadratic-drift", "target0": [0.0, 0.0],
      "target_drift": [2.0e154, 0.0]}, "grad_bound is not finite"),
], ids=["loss-gradient", "loss-value", "late-loss-value"])
def test_non_finite_loss_pieces_are_refused_at_build(loss, refused):
    # the loss pieces that once overflowed a round: a built-in loss whose
    # table or stored constant is not finite never reaches the loop, so no
    # table gives a non-finite gradient there
    data = qp.shipped_scenario("golden-d2", horizon=200).to_dict()
    data["loss"] = loss
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(qp.ConfigError, match=refused):
            qp.build_scenario(qp.ScenarioConfig.from_dict(data))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("variant", EUCLIDEAN_VARIANTS)
def test_batch_projects_a_step_whose_squares_overflow_as_run_does(variant):
    """golden-d2 on the coefficients (1e200, -1e200): the squared offset of
    every step from the center overflows, ``project`` measures it without
    squaring, and the batch reruns such cells through ``run``, so ``sweep``
    reports what ``run_scenario`` does."""
    data = golden_config(horizon=50).to_dict()
    data.update(variant=variant,
                loss={"family": "fixed", "coeffs": [1e200, -1e200]})
    cfg = qp.ScenarioConfig.from_dict(data)
    trace, single = qp.run_scenario(cfg)
    swept = qp.sweep(qp.SweepSpec(config=cfg, horizons=(cfg.horizon,),
                                  seeds=(cfg.seed,)))
    assert repr(swept.reports[0].summary_row()) == repr(single.summary_row())
    # the loss pulls every decision to the ball's boundary
    assert np.allclose(np.linalg.norm(trace.decisions, axis=1), 1.0)


def test_batch_rejects_mixed_layouts_and_custom_pieces():
    golden = qp.build_scenario(golden_config(horizon=20))
    box = qp.build_scenario(qp.shipped_scenario("box-mixed-d3", horizon=20))
    with pytest.raises(ValueError, match="must share"):
        alg.run_batch("ompd", [golden, box], 20)
    custom = qp.Scenario(block=golden.block, hp=golden.hp,
                         seq=qp.custom_sequence(
                             golden.base, lambda t, x: 0.0,
                             lambda t, x: np.zeros(2), 20, 1.0, 1.0,
                             variation=0.0))
    with pytest.raises(qp.UnsupportedFamilyError):
        alg.run_batch("ompd", [custom], 20)
    assert alg.run_batch("ompd", [], 20) == []


@pytest.mark.parametrize("call", ["run", "run_batch", "hindsight_comparator",
                                  "stack_blocks"])
def test_a_block_on_another_base_set_is_refused(call):
    # certified on the unit ball, where |g| <= 1.3; on the box it reaches 3.3
    block = qp.linear_block(BALL, [[1.0, 0.0]], [0.3])
    box = qp.Box(-3.0 * np.ones(2), 3.0 * np.ones(2))
    seq = qp.fixed_linear(box, [-1.0, 0.0], 20)
    scenario = qp.Scenario(block=block, seq=seq,
                           hp=qp.hyperparams_from_variation(0.0, 1.0))
    assert scenario.base is seq.base
    calls = {
        "run": lambda: qp.run("ompd", scenario),
        "run_batch": lambda: alg.run_batch("ompd", [scenario], 20),
        "hindsight_comparator": lambda: qp.hindsight_comparator(seq, block),
        "stack_blocks": lambda: qp.stack_blocks(
            [block, qp.linear_block(box, [[0.0, 1.0]], [0.5])]),
    }
    with pytest.raises(ValueError, match="base set"):
        calls[call]()


def test_run_rejects_a_sequence_built_on_another_base_set():
    built = qp.build_scenario(golden_config(horizon=20))
    same = qp.Ball(center=np.zeros(2), radius=1.0)   # equal, another object
    moved = qp.Ball(center=np.zeros(2), radius=2.0)
    box = qp.Box(-np.ones(2), np.ones(2))

    def block_on(base):
        return dataclasses.replace(
            built, block=dataclasses.replace(built.block, base=base))

    assert qp.run("ompd", block_on(same)).horizon == 20
    for other in (moved, box):
        scenario = block_on(other)
        for call in (lambda: qp.run("ompd", scenario),
                     lambda: alg.run_batch("ompd", [scenario], 20)):
            with pytest.raises(ValueError, match="another base set"):
                call()

"""Regret, violations, the queue bound, and empirical variation."""
import hashlib
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import queueprox as qp
from oracles import (DIGEST_HORIZON, REPORT_DIGESTS, ROUND_CSV_DIGESTS, GOLDEN,
                     SMALL_BLOCK_ROUNDS, digest_configs, golden_config,
                     report_digest, scalar_empirical_variation)

BALL = qp.Ball(center=np.zeros(2), radius=1.0)


def golden_run():
    cfg = golden_config()
    built = qp.build_scenario(cfg)
    return built, qp.run(cfg.variant, built, horizon=3)


def test_regret_zero_when_playing_the_comparator():
    seq = qp.fixed_quadratic(BALL, [0.2, 0.1], 5)
    built = qp.Scenario(block=qp.empty_block(BALL), seq=seq,
                        hp=qp.hyperparams_from_variation(0.0, 1.0))
    trace = qp.run("ompd", built, x0=np.array([0.2, 0.1]))
    # from the optimum, every step stays put
    assert qp.regret(trace, np.array([0.2, 0.1]), seq) == pytest.approx(
        0.0, abs=1e-12)


def test_regret_single_round_example():
    seq = qp.custom_sequence(BALL, lambda t, x: float(x @ x),
                             lambda t, x: 2 * x, horizon=1,
                             grad_bound=2.0, grad_lipschitz=2.0,
                             variation=0.0)
    built = qp.Scenario(block=qp.empty_block(BALL), seq=seq,
                        hp=qp.HyperParams(eta=1.0, gamma=1.0))
    trace = qp.run("ompd", built, x0=np.array([1.0, 0.0]))
    trace.decisions[0] = [1.0, 0.0]
    trace.losses[0] = 1.0
    assert qp.regret(trace, np.zeros(2), seq) == 1.0


def test_regret_golden_trace_re_summation():
    built, trace = golden_run()
    x_star = np.array([0.3, 0.0])
    by_hand = GOLDEN["cum_loss"] - sum(
        built.seq.value(t, x_star) for t in (1, 2, 3))
    assert qp.regret(trace, x_star, built.seq) == pytest.approx(
        by_hand, abs=1e-15)


def test_regret_shift_invariance():
    built, trace = golden_run()
    x_star = np.array([0.3, 0.0])
    base_value = qp.regret(trace, x_star, built.seq)

    shift = 7.25
    seq = built.seq
    shifted = qp.custom_sequence(
        BALL, lambda t, x: seq.value(t, x) + shift, seq.grad,
        horizon=3, grad_bound=seq.grad_bound,
        grad_lipschitz=seq.grad_lipschitz, variation=0.0)
    shifted_trace = qp.run("ompd", qp.Scenario(
        block=built.block, seq=shifted, hp=built.hp))
    assert abs(qp.regret(shifted_trace, x_star, shifted)
               - base_value) <= 1e-9


def test_regret_rejects_infeasible_comparator():
    built, trace = golden_run()
    with pytest.raises(ValueError):
        qp.regret(trace, np.array([0.9, 0.0]), built.seq, built.block)


def test_violation_examples_and_accessor():
    built, trace = golden_run()
    # vector form sums g over played rounds
    assert qp.violation(trace)[0] == pytest.approx(GOLDEN["violation"],
                                                   abs=1e-15)
    assert qp.violation(trace, 1) == qp.violation(trace)[0]
    with pytest.raises(IndexError):
        qp.violation(trace, 2)
    with pytest.raises(IndexError):
        qp.violation(trace, 0)


def test_violation_constant_feed():
    seq = qp.fixed_quadratic(BALL, [0.0, 0.0], 10)
    block = qp.linear_block(BALL, [[0.0, 0.0]], [0.1])  # g = -0.1
    built = qp.Scenario(block=block, seq=seq,
                        hp=qp.hyperparams_from_variation(0.0, 1.0))
    trace = qp.run("ompd", built)
    assert qp.violation(trace, 1) == pytest.approx(-1.0, abs=1e-12)

    zero_block = qp.linear_block(BALL, [[0.0, 0.0]], [0.0])
    built0 = qp.Scenario(block=zero_block, seq=seq, hp=built.hp)
    assert qp.violation(qp.run("ompd", built0), 1) == 0.0


def test_violation_bound_check_golden():
    built, trace = golden_run()
    holds, slack = qp.violation_bound_check(trace)
    bound = GOLDEN["queues"][-1] / GOLDEN["gamma"]
    assert holds
    assert slack == pytest.approx(bound - GOLDEN["violation"], abs=1e-12)
    with pytest.raises(ValueError):
        qp.violation_bound_check(trace, gamma=0.0)


def test_violation_bound_check_zero_constraints():
    seq = qp.fixed_quadratic(BALL, [0.2, 0.1], 5)
    built = qp.Scenario(block=qp.empty_block(BALL), seq=seq,
                        hp=qp.hyperparams_from_variation(0.0, 1.0))
    trace = qp.run("ompd", built)
    holds, slack = qp.violation_bound_check(trace)
    assert holds and slack == 0.0


@pytest.mark.parametrize("name", ["golden-d2", "fixed-quadratic-ball",
                                  "drift-rotate-d2", "alternating-d2",
                                  "box-mixed-d3", "simplex-d10"])
def test_violation_bound_holds_on_every_shipped_run(name):
    cfg = qp.shipped_scenario(name, horizon=500)
    trace, report = qp.run_scenario(cfg)
    holds, slack = qp.violation_bound_check(trace)
    assert holds
    assert np.all(qp.violation(trace) <= report.queue_bound + 1e-9)


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_matches_frozen_digest(name):
    _, report = qp.run_scenario(digest_configs()[name])
    assert report_digest(report) == REPORT_DIGESTS[name]


def round_csv_digest(name, tmp_path):
    cfg = qp.shipped_scenario(name, horizon=DIGEST_HORIZON)
    trace = qp.run(cfg.variant, qp.build_scenario(cfg), horizon=cfg.horizon)
    path = tmp_path / "rounds.csv"
    qp.write_round_csv(trace, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(ROUND_CSV_DIGESTS))
def test_round_csv_matches_frozen_digest(name, tmp_path):
    assert round_csv_digest(name, tmp_path) == ROUND_CSV_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ROUND_CSV_DIGESTS))
def test_round_csv_digest_holds_in_small_blocks(name, tmp_path, monkeypatch):
    monkeypatch.setattr(qp.problems, "BLOCK_ROUNDS", SMALL_BLOCK_ROUNDS)
    assert round_csv_digest(name, tmp_path) == ROUND_CSV_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_digest_holds_in_small_blocks(name, monkeypatch):
    monkeypatch.setattr(qp.problems, "BLOCK_ROUNDS", SMALL_BLOCK_ROUNDS)
    _, report = qp.run_scenario(digest_configs()[name])
    assert report_digest(report) == REPORT_DIGESTS[name]


# ---------------------------------------------------------------------------
# memory: the output and audit passes hold one row block, not the horizon
# ---------------------------------------------------------------------------


def _peak_bytes(fn):
    """Peak bytes that ``fn()`` allocates on top of what already exists."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_round_csv_writer_memory_does_not_grow_with_the_horizon(tmp_path):
    """Measured 0.057 MB on a T=20,000, K=2 trace; writing the whole
    horizon at once took 20 MB."""
    T, K = 20_000, 2
    rng = np.random.default_rng(0)
    trace = qp.RunTrace(
        variant="ompd", horizon=T, dim=2, n_constraints=K,
        decisions=rng.standard_normal((T, 2)),
        anchors=rng.standard_normal((T + 1, 2)),
        queues=np.abs(rng.standard_normal((T + 2, K))),
        g_values=rng.standard_normal((T + 1, K)),
        losses=rng.standard_normal(T), alphas=rng.random(T) + 1.0,
        xis=rng.random(T), gamma=0.5)
    peak = _peak_bytes(
        lambda: qp.write_round_csv(trace, str(tmp_path / "rounds.csv")))
    assert peak < 120_000


def test_regret_and_variation_memory_does_not_grow_with_the_horizon():
    """Measured 5.2 kB on a T=20,000 drift-rotate-d2 run; whole-horizon
    passes over its coefficient table took 0.64 MB."""
    cfg = qp.shipped_scenario("drift-rotate-d2", horizon=20_000)
    built = qp.build_scenario(cfg)
    trace = qp.run(cfg.variant, built, horizon=cfg.horizon)
    comparator = qp.hindsight_comparator(built.seq, built.block)
    peak = _peak_bytes(lambda: (
        qp.regret(trace, comparator, built.seq, built.block),
        qp.empirical_variation(trace, built.seq)))
    assert peak < 11_000


def _x_dependent_run(variant, horizon, run_horizon=None):
    """A run of ``run_horizon`` rounds (default ``horizon``) on a custom
    loss whose gradients move with ``x`` and ``t``, through an oracle that
    only takes one point."""
    base = (qp.Simplex(3) if variant == qp.VARIANT_SIMPLEX
            else qp.Ball(center=np.zeros(3), radius=1.0))
    weights = np.array([1.0, -2.0, 0.5])

    def grad_fn(t, x):
        assert x.shape == (3,)
        return np.cos(t * x) * weights + 0.3 * np.sin(t) * x[::-1]

    seq = qp.custom_sequence(base, lambda t, x: float(weights @ x),
                             grad_fn, horizon=horizon, grad_bound=3.0,
                             grad_lipschitz=1.0, variation=0.0)
    hp = qp.hyperparams_from_variation(1.0, 1.0, horizon=horizon,
                                       variant=variant)
    scenario = qp.Scenario(block=qp.empty_block(base), seq=seq, hp=hp)
    return seq, qp.run(variant, scenario, horizon=run_horizon)


@pytest.mark.parametrize("variant", [qp.VARIANT_GENERAL, qp.VARIANT_SIMPLEX])
def test_empirical_variation_matches_per_point_reference(variant):
    seq, trace = _x_dependent_run(variant, horizon=64)
    for budget in (1, 32):
        v = qp.empirical_variation(trace, seq, sample_budget=budget)
        assert v > 0.0
        assert v == scalar_empirical_variation(trace, seq, budget)


def _table_runs():
    """Runs on a table-backed loss of every built-in family, some shorter
    than their sequence, on every kind of base set; T=130 spans three blocks
    of the quadratic variation pass, and its half-length run one."""
    configs = [qp.shipped_scenario(name, horizon=T)
               for name in ("golden-d2", "drift-rotate-d2", "alternating-d2",
                            "simplex-d10", "fixed-quadratic-ball",
                            "box-mixed-d3") for T in (1, 2, 37, 130)]
    configs.append(qp.ScenarioConfig.from_dict({
        **qp.shipped_scenario("golden-d2", horizon=40).to_dict(),
        "loss": {"family": "linear-drift", "start": [0.5, -0.2],
                 "drift": [-0.9, 0.7], "grad_lipschitz": 0.5}}))
    for cfg in configs:
        built = qp.build_scenario(cfg)
        for horizon in sorted({cfg.horizon, (cfg.horizon + 1) // 2}):
            yield built, qp.run(cfg.variant, built, horizon=horizon)


def test_table_regret_and_variation_match_round_by_round_references():
    rng = np.random.default_rng(17)
    for built, trace in _table_runs():
        assert (built.seq.coeffs is not None) != (built.seq.scales is not None)
        comparator = qp.sample(built.base, rng)[0]
        by_rounds = 0.0
        for t in range(1, trace.horizon + 1):
            by_rounds += built.seq.value(t, comparator)
        assert (qp.regret(trace, comparator, built.seq)
                == float(trace.losses.sum() - by_rounds))
        assert (qp.empirical_variation(trace, built.seq)
                == scalar_empirical_variation(trace, built.seq))


def test_empirical_variation_fixed_losses_zero():
    cfg = qp.shipped_scenario("fixed-quadratic-ball", horizon=50)
    built = qp.build_scenario(cfg)
    trace = qp.run(cfg.variant, built, horizon=50)
    assert qp.empirical_variation(trace, built.seq) == 0.0


def test_empirical_variation_of_a_zero_round_trace_is_zero():
    """Linear, quadratic, simplex and custom traces of no rounds."""
    for name in ("golden-d2", "box-mixed-d3", "simplex-d10"):
        cfg = qp.shipped_scenario(name, horizon=20)
        built = qp.build_scenario(cfg)
        trace = qp.run(cfg.variant, built, horizon=0)
        assert qp.empirical_variation(trace, built.seq) == 0.0
    seq, trace = _x_dependent_run(qp.VARIANT_GENERAL, horizon=20,
                                  run_horizon=0)
    assert qp.empirical_variation(trace, seq) == 0.0


def test_empirical_variation_exact_for_linear_families():
    cfg = qp.shipped_scenario("alternating-d2", horizon=60)
    built = qp.build_scenario(cfg)
    trace = qp.run(cfg.variant, built, horizon=60)
    v = qp.empirical_variation(trace, built.seq, sample_budget=1)
    assert v == pytest.approx(qp.gradient_variation(built.seq), rel=1e-12)


def test_a_report_on_a_coefficient_table_takes_one_variation_pass(
        monkeypatch):
    """A linear family stores its total when it is built; the build's exact
    ``v_cap`` and the report's ``v_empirical`` read it, and only a shorter
    horizon takes its own pass."""
    calls = []
    variation = qp.problems.coeff_variation

    def counted(base, coeffs, horizon):
        calls.append(horizon)
        return variation(base, coeffs, horizon)

    monkeypatch.setattr(qp.problems, "coeff_variation", counted)
    monkeypatch.setattr(qp.metrics, "coeff_variation", counted)
    _, report = qp.run_scenario(
        qp.shipped_scenario("alternating-d2", horizon=60))
    assert calls == [60]
    assert report.v_empirical == report.v_cap
    seq = qp.alternating(BALL, [0.3, 0.1], [-0.2, 0.4], 60)
    calls.clear()
    assert qp.metrics.probe_variation(seq, None, 60) == variation(
        BALL, seq.coeffs, 60)
    assert qp.metrics.probe_variation(seq, None, 30) == variation(
        BALL, seq.coeffs, 30)
    assert calls == [30]


def test_quadratic_run_leaves_numpy_ma_unimported():
    """The variation probe drops repeated rounds without ``np.unique``,
    whose first call in a process imports ``numpy.ma`` (about 1 MB)."""
    code = ("import sys, queueprox as qp\n"
            "qp.run_scenario(qp.shipped_scenario('box-mixed-d3', horizon=200))\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(pathlib.Path(qp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_empirical_variation_lower_bounds_certified_value():
    cfg = qp.shipped_scenario("box-mixed-d3", horizon=200)
    built = qp.build_scenario(cfg)
    trace = qp.run(cfg.variant, built, horizon=200)
    v_emp = qp.empirical_variation(trace, built.seq, sample_budget=1000)
    assert 0.0 <= v_emp <= qp.gradient_variation(built.seq) + 1e-9
    with pytest.raises(ValueError):
        qp.empirical_variation(trace, built.seq, sample_budget=0)


def test_metrics_report_invariant_and_summary_row():
    cfg = qp.shipped_scenario("golden-d2", horizon=100)
    _, report = qp.run_scenario(cfg)
    assert np.all(report.violations <= report.queue_bound + 1e-9)
    row = report.summary_row()
    assert row[0] == "golden-d2"
    assert row[1] == "100"
    assert len(row) == len(qp.metrics.SUMMARY_COLUMNS)


def test_round_csv_headers_and_float_repr(tmp_path):
    cfg = qp.shipped_scenario("box-mixed-d3", horizon=5)
    trace, _ = qp.run_scenario(cfg)
    path = tmp_path / "rounds.csv"
    qp.write_round_csv(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ("t,loss,cum_loss,g_1,g_2,cum_g_1,cum_g_2,"
                        "q_l1,q_l2,alpha,xi")
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == trace.losses[0]
    # repr round-trip keeps every bit
    assert first[1] == repr(float(trace.losses[0]))

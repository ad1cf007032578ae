"""Verification suite: positive runs and deliberately broken controls."""
import dataclasses

import numpy as np
import pytest

import queueprox as qp
from queueprox import checks as chk
from queueprox import geometry as geo
from oracles import golden_config, scalar_pushback_worst

BALL = qp.Ball(center=np.zeros(2), radius=1.0)
EUC2 = qp.euclidean(2)

# the three pairings acceptance criterion 09 certifies
PUSHBACK_PAIRINGS = [
    (EUC2, BALL),
    (qp.euclidean(3), qp.Box(lower=-np.ones(3), upper=np.ones(3))),
    (qp.entropic(4), qp.Simplex(d=4)),
]


@pytest.fixture(scope="module")
def golden():
    cfg = golden_config(horizon=60)
    built = qp.build_scenario(cfg)
    return built, qp.run(cfg.variant, built, horizon=60)


@pytest.fixture(scope="module")
def simplex_run():
    cfg = qp.shipped_scenario("simplex-d10", horizon=120)
    built = qp.build_scenario(cfg)
    return built, qp.run(cfg.variant, built, horizon=120)


def test_queue_lemma_passes_on_golden(golden):
    _, trace = golden
    report = chk.check_queue_lemma(trace)
    assert report.passed
    assert report.rounds == trace.queues.shape[0] - 1
    assert report.notes["nonneg"] <= 0.0
    assert report.notes["shifted_nonneg"] <= 0.0
    assert report.max_residual <= 1e-9


def test_queue_lemma_flags_corrupted_queue(golden):
    _, trace = golden
    bad = dataclasses.replace(trace, queues=trace.queues.copy())
    bad.queues[5] += 1.0  # a jump the update rule cannot produce
    report = chk.check_queue_lemma(bad)
    assert not report.passed
    assert report.max_residual > 1e-3


def test_queue_lemma_rejects_truncated_trace(golden):
    _, trace = golden
    bad = dataclasses.replace(trace, queues=trace.queues[:-1].copy())
    with pytest.raises(ValueError):
        chk.check_queue_lemma(bad)


def test_queue_lemma_gamma_zero_everything_tight():
    cfg = golden_config(horizon=40)
    built = qp.build_scenario(cfg)
    built.hp = qp.HyperParams(eta=built.hp.eta, gamma=0.0)
    trace = qp.run("ompd", built, horizon=40)
    report = chk.check_queue_lemma(trace)
    assert report.passed
    assert report.max_residual == 0.0
    assert np.all(trace.queues == 0.0)


def test_dpp_bound_holds_over_golden_trace(golden):
    built, trace = golden
    report = chk.check_dpp_over_trace(
        trace, built.seq, built.block, built.geom, built.base,
        rounds=range(1, 61), n_z=10, seed=2)
    assert report.passed
    assert report.rounds == 60
    assert report.samples == 600
    assert report.max_residual <= 1e-8


def test_dpp_bound_holds_with_played_point_as_probe(golden):
    built, trace = golden
    snap = chk.snapshot_from_trace(trace, 7, built.seq, built.block,
                                   built.geom, built.base)
    report = chk.check_dpp_bound(snap, snap.x_curr)
    assert report.passed
    assert report.samples == 1


def test_dpp_bound_fails_with_halved_alpha(golden):
    built, trace = golden
    worst = -np.inf
    rng = np.random.default_rng(3)
    z = geo.sample(built.base, rng, 20)
    for t in range(1, 51):
        snap = chk.snapshot_from_trace(trace, t, built.seq, built.block,
                                       built.geom, built.base)
        broken = dataclasses.replace(snap, alpha=snap.alpha / 2.0)
        worst = max(worst, chk.check_dpp_bound(broken, z).max_residual)
    assert worst > 1e-8


def test_dpp_snapshot_round_range(golden):
    built, trace = golden
    for t in (0, 61):
        with pytest.raises(ValueError):
            chk.snapshot_from_trace(trace, t, built.seq, built.block,
                                    built.geom, built.base)


def test_dpp_bound_on_simplex_variant(simplex_run):
    built, trace = simplex_run
    report = chk.check_dpp_over_trace(
        trace, built.seq, built.block, built.geom, built.base,
        rounds=range(1, 121), n_z=5, seed=0)
    assert report.passed


def test_pushback_sampled_instances():
    for geom, base in PUSHBACK_PAIRINGS:
        report = chk.check_pushback(geom, base, n_instances=20, n_z=100,
                                    seed=1)
        assert report.passed, (base, report.max_residual)
        assert report.rounds == 20


@pytest.mark.parametrize("n_z", [1000, 129])   # both end in a partial block
@pytest.mark.parametrize("geom,base", PUSHBACK_PAIRINGS,
                         ids=["ball", "box", "simplex"])
def test_pushback_blocks_match_scalar_reference(geom, base, n_z):
    report = chk.check_pushback(geom, base, n_instances=4, n_z=n_z, seed=23)
    reference = scalar_pushback_worst(geom, base, 4, n_z, seed=23)
    assert report.samples == 4 * n_z
    assert abs(report.max_residual - reference) <= 1e-12


@pytest.mark.parametrize("geom,base", PUSHBACK_PAIRINGS,
                         ids=["ball", "box", "simplex"])
def test_pushback_fails_on_a_non_minimizer(geom, base, monkeypatch):
    # step along +h instead of -h: the anchor moves uphill, so the
    # returned point is no minimizer and the three-point inequality breaks
    exact = geo.mirror_step
    monkeypatch.setattr(geo, "mirror_step",
                        lambda g, b, anchor, h, alpha:
                        exact(g, b, anchor, -h, alpha))
    report = chk.check_pushback(geom, base, n_instances=5, n_z=300, seed=1)
    assert not report.passed
    assert report.max_residual > 1e-3


def test_pushback_equality_at_the_step_result():
    rng = np.random.default_rng(7)
    anchor = geo.project(BALL, rng.normal(size=2))
    h = rng.normal(size=2)
    alpha = 3.0
    x_plus = geo.mirror_step(EUC2, BALL, anchor, h, alpha)
    z = x_plus
    lhs = float(h @ (x_plus - z))
    rhs = alpha * (geo.bregman(EUC2, BALL, z, anchor)
                   - geo.bregman(EUC2, BALL, z, x_plus)
                   - geo.bregman(EUC2, BALL, x_plus, anchor))
    assert abs(lhs - rhs) <= 1e-12


def test_mixing_uniform_anchor_has_slack():
    u = np.full(4, 0.25)
    report = chk.check_mixing(u, 0.1, 4, np.eye(4))
    assert report.passed
    assert report.skipped == 0
    assert report.max_residual < -1e-3


def test_mixing_vertex_anchor_l1_shift():
    x = np.array([1.0, 0.0])
    nu = 0.5
    y = qp.mix_anchor(x, nu)
    assert np.abs(y - x).sum() == pytest.approx(2 * nu * (1 - 1 / 2),
                                                abs=1e-15)
    report = chk.check_mixing(x, nu, 2, np.array([[0.5, 0.5]]))
    assert report.passed


def test_mixing_counts_infinite_divergence_skips():
    x = np.array([1.0, 0.0])  # probe with mass where the anchor has none
    report = chk.check_mixing(x, 0.25, 2, np.array([[0.5, 0.5],
                                                    [1.0, 0.0]]))
    assert report.skipped == 1
    assert report.passed


def test_mixing_input_validation():
    u = np.full(3, 1 / 3)
    with pytest.raises(ValueError):
        chk.check_mixing(u, 0.1, 4, np.eye(4))
    with pytest.raises(ValueError):
        chk.check_mixing(u, 0.0, 3, np.eye(3))
    with pytest.raises(ValueError):
        chk.check_mixing(u, 1.5, 3, np.eye(3))


def test_mixing_passes_on_simplex_trace(simplex_run):
    built, trace = simplex_run
    rng = np.random.default_rng(0)
    z = geo.sample(built.base, rng, 30)
    report = chk.check_mixing(trace.anchors[:trace.horizon], trace.nu,
                              trace.dim, z)
    assert report.passed
    assert report.rounds == trace.horizon


def test_descent_lemma_correct_constant_passes():
    report = chk.check_descent_lemma(
        lambda x: float(x @ x), lambda x: 2.0 * x, 2.0, EUC2, BALL,
        n_pairs=400, seed=0)
    assert report.passed
    assert report.max_residual <= 1e-9


def test_descent_lemma_understated_constant_fails():
    report = chk.check_descent_lemma(
        lambda x: float(x @ x), lambda x: 2.0 * x, 0.5, EUC2, BALL,
        n_pairs=400, seed=0)
    assert not report.passed
    assert report.max_residual > 0.1


def test_check_report_row_and_csv(tmp_path, golden):
    _, trace = golden
    report = chk.check_queue_lemma(trace)
    row = report.row()
    assert row[0] == "queue"
    assert row[1] == str(report.rounds)
    assert float(row[3]) == report.max_residual
    assert row[4] == "True"

    path = tmp_path / "checks.csv"
    chk.write_check_csv([report], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "check,rounds,samples,max_residual,pass"
    assert lines[1] == ",".join(row)

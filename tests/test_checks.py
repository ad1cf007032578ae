"""Verification suite: positive runs and deliberately broken controls."""
import dataclasses

import numpy as np
import pytest

import queueprox as qp
from queueprox import checks as chk
from queueprox import geometry as geo
from oracles import (SMALL_BLOCK_ROUNDS, golden_config, scalar_mixing_worst,
                     scalar_pushback_worst)

BALL = qp.Ball(center=np.zeros(2), radius=1.0)

# the base sets, with their geometries, that acceptance criterion 09 certifies
PUSHBACK_BASES = [
    BALL,
    qp.Box(lower=-np.ones(3), upper=np.ones(3)),
    qp.Simplex(d=4),
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


def test_queue_lemma_residuals_keep_their_bits_in_small_blocks(
        simplex_run, monkeypatch):
    """Every residual of the 121 updates, taken in one block and in blocks
    of seven rows with a ragged last one."""
    _, trace = simplex_run
    monkeypatch.setattr(qp.problems, "BLOCK_ROUNDS", 10**6)
    whole = chk.check_queue_lemma(trace).notes
    monkeypatch.setattr(qp.problems, "BLOCK_ROUNDS", SMALL_BLOCK_ROUNDS)
    assert chk.check_queue_lemma(trace).notes == whole


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
        trace, built.seq, built.block,
        rounds=range(1, 61), n_z=10, seed=2)
    assert report.passed
    assert report.rounds == 60
    assert report.samples == 600
    assert report.max_residual <= 1e-8


def test_dpp_bound_holds_with_played_point_as_probe(golden):
    built, trace = golden
    residual = chk._dpp_residual(trace, 7, built.seq, built.block,
                                 trace.decisions[6])
    assert residual <= 1e-8


def test_dpp_residual_ignores_a_general_run_mixing_weight(golden):
    """The variant, not a ``nu`` carried over from the constants, decides
    whether the residual mixes the anchor."""
    built, trace = golden
    mixed_hp = dataclasses.replace(built.hp, nu=0.1)
    carried = qp.run(trace.variant, dataclasses.replace(built, hp=mixed_hp),
                     horizon=60)
    assert carried.nu == 0.1 and trace.nu is None
    z = geo.sample(built.base, np.random.default_rng(5), 20)
    for t in (1, 2, 30, 60):
        args = (t, built.seq, built.block, z)
        assert (chk._dpp_residual(carried, *args)
                == chk._dpp_residual(trace, *args))


def test_dpp_bound_fails_with_halved_alpha(golden):
    built, trace = golden
    halved = dataclasses.replace(trace, alphas=trace.alphas / 2.0)
    worst = -np.inf
    rng = np.random.default_rng(3)
    z = geo.sample(built.base, rng, 20)
    for t in range(1, 51):
        worst = max(worst, chk._dpp_residual(halved, t, built.seq, built.block,
                                             z))
    assert worst > 1e-8


def test_dpp_round_range(golden):
    built, trace = golden
    for t in (0, 61):
        with pytest.raises(ValueError):
            chk.check_dpp_over_trace(trace, built.seq, built.block,
                                     rounds=[t])


def test_dpp_bound_on_simplex_variant(simplex_run):
    built, trace = simplex_run
    report = chk.check_dpp_over_trace(
        trace, built.seq, built.block,
        rounds=range(1, 121), n_z=5, seed=0)
    assert report.passed


@pytest.mark.parametrize("fixture", ["golden", "simplex_run"])
def test_dpp_over_trace_fails_with_halved_alpha(fixture, request):
    built, trace = request.getfixturevalue(fixture)
    halved = dataclasses.replace(trace, alphas=trace.alphas / 2.0)
    report = chk.check_dpp_over_trace(halved, built.seq, built.block)
    assert not report.passed
    assert report.max_residual > 1e-8


def test_pushback_sampled_instances():
    for base in PUSHBACK_BASES:
        report = chk.check_pushback(base, n_instances=20, n_z=100, seed=1)
        assert report.passed, (base, report.max_residual)
        assert report.rounds == 20


@pytest.mark.parametrize("n_z", [1000, 129])   # both end in a partial block
@pytest.mark.parametrize("base", PUSHBACK_BASES, ids=["ball", "box", "simplex"])
def test_pushback_blocks_match_scalar_reference(base, n_z):
    report = chk.check_pushback(base, n_instances=4, n_z=n_z, seed=23)
    reference = scalar_pushback_worst(base, 4, n_z, seed=23)
    assert report.samples == 4 * n_z
    assert abs(report.max_residual - reference) <= 1e-12


@pytest.mark.parametrize("base", PUSHBACK_BASES, ids=["ball", "box", "simplex"])
def test_pushback_fails_on_a_non_minimizer(base, monkeypatch):
    # step along +h instead of -h: the anchor moves uphill, so the
    # returned point is no minimizer and the three-point inequality breaks
    exact = geo.mirror_step
    monkeypatch.setattr(geo, "mirror_step",
                        lambda b, anchor, h, alpha: exact(b, anchor, -h, alpha))
    report = chk.check_pushback(base, n_instances=5, n_z=300, seed=1)
    assert not report.passed
    assert report.max_residual > 1e-3


def test_pushback_equality_at_the_step_result():
    rng = np.random.default_rng(7)
    anchor = geo.project(BALL, rng.normal(size=2))
    h = rng.normal(size=2)
    alpha = 3.0
    x_plus = geo.mirror_step(BALL, anchor, h, alpha)
    z = x_plus
    lhs = float(h @ (x_plus - z))
    rhs = alpha * (geo.bregman(BALL, z, anchor)
                   - geo.bregman(BALL, z, x_plus)
                   - geo.bregman(BALL, x_plus, anchor))
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


def _mixing_outputs(report):
    return (report.max_residual, report.skipped, report.rounds,
            report.samples)


def test_mixing_blocks_match_scalar_loop_on_trace(simplex_run):
    built, trace = simplex_run
    z = geo.sample(built.base, np.random.default_rng(3), 20)
    anchors = trace.anchors[:trace.horizon]
    report = chk.check_mixing(anchors, trace.nu, trace.dim, z)
    reference = scalar_mixing_worst(anchors, trace.nu, trace.dim, z)
    assert _mixing_outputs(report) == reference


@pytest.mark.parametrize("extra", [-1, 0, 1, 2],
                         ids=["one", "block-1", "block", "block+1"])
def test_mixing_blocks_match_scalar_loop_at_block_edges(simplex_run, extra):
    built, trace = simplex_run
    z = geo.sample(built.base, np.random.default_rng(5), 20)
    block = chk._mixing_block(len(z))
    count = 1 if extra < 0 else block - 1 + extra
    # a vertex last: every probe against it is skipped, so a dropped tail
    # block shows in the skip count
    vertex = np.eye(trace.dim)[:1]
    anchors = np.vstack([trace.anchors[:count - 1], vertex])
    assert anchors.shape[0] == count
    report = chk.check_mixing(anchors, trace.nu, trace.dim, z)
    reference = scalar_mixing_worst(anchors, trace.nu, trace.dim, z)
    assert _mixing_outputs(report) == reference
    assert report.skipped >= len(z)


def test_mixing_fails_on_over_mixing(simplex_run, monkeypatch):
    built, trace = simplex_run
    z = geo.sample(built.base, np.random.default_rng(0), 30)
    # the vertices too: far from uniform, where the l1 shift is largest
    anchors = np.vstack([trace.anchors[:trace.horizon], np.eye(trace.dim)])
    honest = chk.check_mixing(anchors, trace.nu, trace.dim, z)
    assert honest.passed
    mix = chk.mix_anchor
    monkeypatch.setattr(chk, "mix_anchor", lambda x, nu: mix(x, 3.0 * nu))
    report = chk.check_mixing(anchors, trace.nu, trace.dim, z)
    assert not report.passed
    assert report.max_residual > honest.max_residual


def test_descent_lemma_correct_constant_passes():
    report = chk.check_descent_lemma(
        lambda x: float(x @ x), lambda x: 2.0 * x, 2.0, BALL,
        n_pairs=400, seed=0)
    assert report.passed
    assert report.max_residual <= 1e-9


def test_descent_lemma_understated_constant_fails():
    report = chk.check_descent_lemma(
        lambda x: float(x @ x), lambda x: 2.0 * x, 0.5, BALL,
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


# a NaN residual must fail its certificate, never be folded away

def _is_nan_failure(report):
    return np.isnan(report.max_residual) and not report.passed


def test_queue_lemma_fails_on_a_nan_feed(golden):
    _, trace = golden
    bad = dataclasses.replace(trace, g_values=trace.g_values.copy())
    bad.g_values[5] = np.nan
    assert _is_nan_failure(chk.check_queue_lemma(bad))


def test_queue_lemma_nan_survives_later_blocks(golden, monkeypatch):
    monkeypatch.setattr(qp.problems, "BLOCK_ROUNDS", SMALL_BLOCK_ROUNDS)
    test_queue_lemma_fails_on_a_nan_feed(golden)


def test_dpp_bound_fails_on_a_nan_gradient(golden):
    built, trace = golden
    grad_fn = built.seq.grad_fn
    # only round 7's own gradient is NaN, so the left side stays finite
    bad = dataclasses.replace(
        built.seq,
        grad_fn=lambda t, x: np.full(2, np.nan) if t == 7 else grad_fn(t, x))
    report = chk.check_dpp_over_trace(trace, bad, built.block,
                                      rounds=[7], n_z=300)
    assert _is_nan_failure(report)


def test_dpp_over_trace_fails_on_a_nan_queue(golden):
    built, trace = golden
    bad = dataclasses.replace(trace, queues=trace.queues.copy())
    bad.queues[7] = np.nan
    report = chk.check_dpp_over_trace(bad, built.seq, built.block,
                                      rounds=[3, 7, 9], n_z=10, seed=2)
    assert _is_nan_failure(report)


def test_pushback_fails_on_a_nan_step(monkeypatch):
    monkeypatch.setattr(geo, "mirror_step",
                        lambda b, anchor, h, alpha: np.full(2, np.nan))
    report = chk.check_pushback(BALL, n_instances=3, n_z=300, seed=1)
    assert _is_nan_failure(report)


def test_mixing_fails_on_a_nan_anchor():
    anchors = np.full((3, 4), 0.25)
    anchors[1, 2] = np.nan
    report = chk.check_mixing(anchors, 0.1, 4, np.eye(4))
    assert _is_nan_failure(report)
    assert report.skipped == 0


def test_descent_lemma_fails_on_a_nan_value():
    report = chk.check_descent_lemma(
        lambda x: np.nan, lambda x: 2.0 * x, 2.0, BALL,
        n_pairs=50, seed=0)
    assert _is_nan_failure(report)

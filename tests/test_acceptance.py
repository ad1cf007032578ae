"""Acceptance gate: one test per shipped guarantee, stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s``; the
``-v`` listing gives the same one-line-per-criterion view) and asserts the
criterion at its stated tolerance and runtime budget.
"""
import dataclasses
import filecmp
import time

import numpy as np
import pytest

import queueprox as qp
from queueprox import checks as chk
from queueprox import geometry as geo
from oracles import grid_comparator

BALL = qp.Ball(center=np.zeros(2), radius=1.0)

GROWTH_HORIZONS = (1000, 3000, 10000)
GROWTH_SEEDS = (0, 1, 2)


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def shipped_runs():
    """Every shipped scenario at its registered horizon, with wall time."""
    runs = {}
    for name in qp.SHIPPED_SCENARIOS:
        cfg = qp.shipped_scenario(name)
        started = time.perf_counter()
        built = qp.build_scenario(cfg)
        trace = qp.run(cfg.variant, built, horizon=cfg.horizon)
        runs[name] = (built, trace, time.perf_counter() - started)
    return runs


@pytest.fixture(scope="module")
def growth_runs():
    """Both drift scenarios over the horizon/seed grid, plus total time."""
    started = time.perf_counter()
    cells = {}
    for name in ("drift-rotate-d2", "alternating-d2"):
        for horizon in GROWTH_HORIZONS:
            for seed in GROWTH_SEEDS:
                cfg = qp.shipped_scenario(name, horizon=horizon, seed=seed)
                _, rep = qp.run_scenario(cfg)
                cells[name, horizon, seed] = rep
    return cells, time.perf_counter() - started


def closed_form_alphas(built, trace):
    """Independent recomputation of the weight schedule from the trace."""
    G = float(np.sum(built.block.value_bounds))
    H = float(np.sum(built.block.lipschitz))
    L_f = built.seq.grad_lipschitz
    L_g = built.block.curvature
    eta, gamma, rho = built.hp.eta, built.hp.gamma, built.hp.rho
    l1 = np.abs(trace.queues).sum(axis=1)
    run_max = np.maximum.accumulate(l1[1:trace.horizon + 1])
    if trace.variant == "ompd-simplex":
        return (3.0 * eta * L_f**2
                + 3.0 * gamma**2 * (2.0 * L_g * G + H**2)
                + 2.0 / eta + 3.0 * gamma * L_g * run_max)
    return ((2.0 / rho) * (eta * L_f**2 + gamma**2 * (2.0 * L_g * G + H**2))
            + 2.0 / (rho * eta) + (2.0 * gamma * L_g / rho) * run_max)


def test_criterion_01_violation_within_queue_bound(shipped_runs):
    worst_gap = -np.inf
    slowest = 0.0
    for name, (built, trace, elapsed) in shipped_runs.items():
        bound = float(np.linalg.norm(trace.final_queue)) / built.hp.gamma
        gap = float(np.max(qp.violation(trace)) - bound)
        worst_gap = max(worst_gap, gap)
        slowest = max(slowest, elapsed)
    ok = worst_gap <= 1e-9 and slowest < 5.0
    report(1, ok, f"violation minus queue bound at most {worst_gap:.3e} "
                  f"(tol 1e-9), slowest scenario {slowest:.2f}s (< 5s)")


def test_criterion_02_queue_invariants_every_round(shipped_runs):
    worst_exact = -np.inf
    worst_soft = -np.inf
    for name, (_, trace, _) in shipped_runs.items():
        rep = chk.check_queue_lemma(trace, tol=1e-9)
        worst_exact = max(worst_exact, rep.notes["nonneg"],
                          rep.notes["shifted_nonneg"])
        worst_soft = max(worst_soft, rep.notes["drift"],
                         rep.notes["l2_growth"], rep.notes["l1_change"])
    ok = worst_exact <= 0.0 and worst_soft <= 1e-9
    report(2, ok, f"nonnegativity residual {worst_exact:.3e} (exact), "
                  f"drift/growth residual {worst_soft:.3e} (tol 1e-9)")


def test_criterion_03_alpha_closed_form(shipped_runs):
    worst_rel = 0.0
    monotone = True
    for name, (built, trace, _) in shipped_runs.items():
        closed = closed_form_alphas(built, trace)
        rel = np.max(np.abs(closed - trace.alphas) / np.abs(trace.alphas))
        worst_rel = max(worst_rel, float(rel))
        monotone &= bool(np.all(np.diff(trace.alphas) >= 0.0))
    ok = worst_rel <= 1e-12 and monotone
    report(3, ok, f"closed-form relative error {worst_rel:.3e} "
                  f"(tol 1e-12), non-decreasing={monotone}")


def test_criterion_04_constant_regret_fixed_objective():
    started = time.perf_counter()
    regrets = {}
    for horizon in (500, 2000):
        cfg = qp.shipped_scenario("fixed-quadratic-ball", horizon=horizon)
        _, rep = qp.run_scenario(cfg)
        regrets[horizon] = rep.regret
    elapsed = time.perf_counter() - started
    absolute = regrets[2000] <= 1.25 * regrets[500] + 1.0
    rate = regrets[2000] / 2000 <= 0.3 * (regrets[500] / 500)
    ok = absolute and rate and elapsed < 2.0
    report(4, ok, f"Regret(500)={regrets[500]:.4f}, "
                  f"Regret(2000)={regrets[2000]:.4f}, "
                  f"rate ratio {(regrets[2000] / 2000) / (regrets[500] / 500):.3f}"
                  f" (<= 0.3), runtime {elapsed:.2f}s (< 2s)")


def test_criterion_05_gradient_variation_adaptive_slopes(growth_runs):
    cells, elapsed = growth_runs
    slopes = {}
    for name, cap in (("drift-rotate-d2", 0.6), ("alternating-d2", 0.75)):
        averaged = [float(np.mean([cells[name, horizon, s].regret
                                   for s in GROWTH_SEEDS]))
                    for horizon in GROWTH_HORIZONS]
        slope, _ = qp.fit_loglog_slope(GROWTH_HORIZONS, averaged)
        slopes[name, cap] = slope
    ok = (all(slope <= cap for (_, cap), slope in slopes.items())
          and elapsed < 60.0)
    detail = ", ".join(f"{name} slope {slope:.3f} (<= {cap})"
                       for (name, cap), slope in slopes.items())
    report(5, ok, f"{detail}, runtime {elapsed:.1f}s (< 60s)")


def test_criterion_06_violation_curve_flattens(growth_runs):
    cells, _ = growth_runs
    worst_excess = -np.inf
    for name in ("drift-rotate-d2", "alternating-d2"):
        for seed in GROWTH_SEEDS:
            small = float(np.max(cells[name, 1000, seed].violations))
            large = float(np.max(cells[name, 10000, seed].violations))
            worst_excess = max(worst_excess, large - (max(small, 0.0) + 10.0))
    report(6, worst_excess <= 0.0,
           f"violation at T=1e4 exceeds flat bound by {worst_excess:.3f} "
           f"(must be <= 0)")


def test_criterion_07_simplex_variant(shipped_runs):
    built, trace, elapsed = shipped_runs["simplex-d10"]
    bound = float(np.linalg.norm(trace.final_queue)) / built.hp.gamma
    ok_violation = (float(np.max(qp.violation(trace))) <= bound + 1e-9
                    and elapsed < 5.0)
    ok_queue = chk.check_queue_lemma(trace, tol=1e-9).passed
    closed = closed_form_alphas(built, trace)
    ok_alpha = bool(np.all(np.abs(closed - trace.alphas)
                           <= 1e-12 * np.abs(trace.alphas))
                    and np.all(np.diff(trace.alphas) >= 0.0))

    flat = {}
    for horizon in (1000, 10000):
        cfg = qp.shipped_scenario("simplex-d10", horizon=horizon)
        _, rep = qp.run_scenario(cfg)
        flat[horizon] = float(np.max(rep.violations))
    ok_flat = flat[10000] <= max(flat[1000], 0.0) + 10.0

    ok_floor = bool(np.all(trace.mixed_anchors >= trace.nu / trace.dim))
    rng = np.random.default_rng(19)
    mix = chk.check_mixing(trace.anchors[:trace.horizon], trace.nu,
                           trace.dim, geo.sample(built.base, rng, 20))
    ok = (ok_violation and ok_queue and ok_alpha and ok_flat and ok_floor
          and mix.passed)
    report(7, ok, f"violation-bound={ok_violation}, queue={ok_queue}, "
                  f"alpha={ok_alpha}, flat-violation={ok_flat}, "
                  f"anchor-floor={ok_floor}, mixing residual "
                  f"{mix.max_residual:.3e} over {mix.rounds} rounds")


def test_criterion_08_per_round_bound_with_negative_control(shipped_runs):
    built, trace, _ = shipped_runs["golden-d2"]
    started = time.perf_counter()
    rep = chk.check_dpp_over_trace(trace, built.seq, built.block,
                                   built.base, n_z=20, seed=11)
    rng = np.random.default_rng(13)
    z = geo.sample(built.base, rng, 20)
    halved = dataclasses.replace(trace, alphas=trace.alphas / 2.0)
    control = -np.inf
    for t in rng.choice(trace.horizon, size=50, replace=False) + 1:
        control = max(control, chk._dpp_residual(
            halved, int(t), built.seq, built.block, built.base, z))
    elapsed = time.perf_counter() - started
    ok = (rep.passed and rep.rounds == 100 and rep.samples == 2000
          and control > 1e-8 and elapsed < 5.0)
    report(8, ok, f"residual {rep.max_residual:.3e} (tol 1e-8) on "
                  f"{rep.rounds} rounds x 20 probes, halved-weight control "
                  f"residual {control:.3e} (> 0), runtime {elapsed:.2f}s")


def test_criterion_09_pushback_and_descent_suites():
    bases = [BALL, qp.Box(lower=-np.ones(3), upper=np.ones(3)),
             qp.Simplex(d=4)]
    push_ok = True
    worst_push = -np.inf
    for base in bases:
        rep = chk.check_pushback(base, n_instances=50, seed=23)
        push_ok &= rep.passed
        worst_push = max(worst_push, rep.max_residual)

    box3 = qp.Box(lower=-np.ones(3), upper=np.ones(3))
    families = []
    lin = qp.fixed_linear(BALL, [-1.0, 0.0], 5, grad_lipschitz=0.5)
    families.append(("fixed-linear", lin, 1, BALL))
    quad = qp.fixed_quadratic(BALL, [0.1, 0.55], 5)
    families.append(("fixed-quadratic", quad, 3, BALL))
    rot = qp.rotating_drift(BALL, 1.0, 0.05, 9)
    families.append(("rotating-drift", rot, 7, BALL))
    alt = qp.alternating(BALL, [0.5, -0.2], [-0.3, 0.4], 6)
    families.append(("alternating", alt, 2, BALL))
    qdrift = qp.quadratic_drift(box3, np.zeros(3), 0.1 * np.ones(3),
                                8, scale0=1.0, scale_drift=0.5)
    families.append(("quadratic-drift", qdrift, 8, box3))

    descent_ok = True
    for label, seq, t, base in families:
        rep = chk.check_descent_lemma(
            lambda x, s=seq, r=t: float(s.value(r, x)),
            lambda x, s=seq, r=t: s.grad(r, x),
            seq.grad_lipschitz, base, n_pairs=300, seed=5)
        descent_ok &= rep.passed

    lin_block = qp.linear_block(BALL, [[1.0, 0.0]], [0.3])
    quad_block = qp.quadratic_block(box3, [np.zeros(3)], [0.5])
    for block, base in ((lin_block, BALL), (quad_block, box3)):
        rep = chk.check_descent_lemma(
            lambda x, b=block: float(qp.constraint_eval(b, x)[0][0]),
            lambda x, b=block: qp.constraint_eval(b, x)[1][0],
            block.curvature, base, n_pairs=300, seed=5)
        descent_ok &= rep.passed

    bad = chk.check_descent_lemma(
        lambda x: float(x @ x), lambda x: 2.0 * x, 0.5, BALL,
        n_pairs=300, seed=5)
    ok = push_ok and descent_ok and not bad.passed
    report(9, ok, f"pushback worst residual {worst_push:.3e} over 3 "
                  f"pairings x 50 instances, descent holds for 5 loss + 2 "
                  f"constraint families, understated-constant control "
                  f"residual {bad.max_residual:.3e} (> 0)")


def test_criterion_10_comparator_matches_grid_oracle():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(10):
        target = rng.uniform(-0.6, 0.6, size=2)
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        offset = float(rng.uniform(0.05, 0.5))
        seq = qp.fixed_quadratic(BALL, target, 10)
        block = qp.linear_block(BALL, [direction], [offset],
                                slater_point=[0.0, 0.0])
        x = qp.hindsight_comparator(seq, block, BALL)
        mine = sum(seq.value(t, x) for t in range(1, 11))
        _, oracle = grid_comparator(
            BALL,
            objective=lambda P: 10.0 * 0.5 * ((P - target)**2).sum(axis=1),
            feasible=lambda P: P @ direction <= offset + 1e-12,
            resolution=1e-3)
        worst = max(worst, abs(mine - oracle))
    report(10, worst <= 1e-3,
           f"worst objective gap to grid oracle {worst:.3e} (tol 1e-3) "
           f"over 10 random instances")


def test_criterion_11_byte_identical_replay(tmp_path):
    identical = True
    for name in qp.SHIPPED_SCENARIOS:
        cfg = qp.shipped_scenario(name, horizon=150)
        for sub in ("a", "b"):
            qp.run_scenario(cfg, out_dir=str(tmp_path / name / sub))
        csv = f"{name}_T150_seed0.csv"
        identical &= filecmp.cmp(str(tmp_path / name / "a" / csv),
                                 str(tmp_path / name / "b" / csv),
                                 shallow=False)
    report(11, identical,
           "re-running each shipped scenario reproduces byte-identical "
           "per-round CSV")

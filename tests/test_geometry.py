"""Geometry pairings: divergences, mirror steps, projections."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import queueprox as qp

BALL = qp.Ball(center=np.zeros(2), radius=1.0)
BOX = qp.Box(lower=np.zeros(2), upper=np.ones(2))
SIMPLEX3 = qp.Simplex(3)
EUC2 = qp.euclidean(2)
ENT2 = qp.entropic(2)
ENT3 = qp.entropic(3)

PAIRINGS = [
    (EUC2, BALL),
    (EUC2, BOX),
    (ENT3, SIMPLEX3),
]


def test_bregman_euclidean_half_squared_distance():
    assert qp.bregman(EUC2, BALL, np.array([1.0, 0.0]),
                      np.array([0.0, 0.0])) == 0.5


def test_bregman_entropic_identity_is_zero():
    x = np.array([0.5, 0.5])
    assert qp.bregman(ENT2, qp.Simplex(2), x, x) == 0.0


def test_bregman_entropic_vertex_against_uniform():
    # sum x_i log(x_i / y_i) with the 0 log 0 = 0 convention
    val = qp.bregman(ENT2, qp.Simplex(2), np.array([1.0, 0.0]),
                     np.array([0.5, 0.5]))
    assert val == pytest.approx(math.log(2), abs=1e-15)


def test_bregman_entropic_zero_anchor_component_errors():
    with pytest.raises(qp.DomainError):
        qp.bregman(ENT2, qp.Simplex(2), np.array([0.5, 0.5]),
                   np.array([1.0, 0.0]))


def test_bregman_dimension_mismatch():
    with pytest.raises(qp.DimensionMismatchError):
        qp.bregman(EUC2, BALL, np.zeros(3), np.zeros(3))


@pytest.mark.parametrize("geom,base", PAIRINGS, ids=["ball", "box", "simplex"])
def test_bregman_stack_matches_rows(geom, base):
    rng = np.random.default_rng(4)
    stack = qp.sample(base, rng, 40)
    if base.kind == "simplex":
        stack[0] = [1.0, 0.0, 0.0]    # a vertex: the 0 log 0 convention
    y = qp.sample(base, rng, 1)[0]
    vals = qp.bregman(geom, base, stack, y)
    assert vals.shape == (40,)
    rows = [qp.bregman(geom, base, x, y) for x in stack]
    np.testing.assert_allclose(vals, rows, rtol=1e-13, atol=1e-15)


def test_bregman_stack_domain_errors():
    y = np.array([0.5, 0.5, 0.0])
    ok = np.array([[0.2, 0.8, 0.0], [1.0, 0.0, 0.0]])
    assert qp.bregman(ENT3, SIMPLEX3, ok, y).shape == (2,)
    bad = np.vstack([ok, [0.2, 0.3, 0.5]])    # mass where y has none
    with pytest.raises(qp.DomainError):
        qp.bregman(ENT3, SIMPLEX3, bad, y)
    with pytest.raises(qp.DomainError):
        qp.bregman(ENT3, SIMPLEX3, np.vstack([ok, [1.1, 0.0, -0.1]]),
                   np.full(3, 1 / 3))


def test_bregman_stack_dimension_mismatch():
    with pytest.raises(qp.DimensionMismatchError):
        qp.bregman(EUC2, BALL, np.zeros((4, 3)), np.zeros(2))
    with pytest.raises(qp.DimensionMismatchError):
        qp.bregman(EUC2, BALL, np.zeros((4, 2)), np.zeros((4, 2)))
    with pytest.raises(qp.DimensionMismatchError):
        qp.bregman(EUC2, BALL, np.zeros((3, 4, 2)), np.zeros(2))


def test_mirror_step_euclidean_interior_gradient_step():
    out = qp.mirror_step(EUC2, BALL, np.zeros(2), np.array([2.0, 0.0]), 4.0)
    assert np.allclose(out, [-0.5, 0.0], atol=1e-15)


@pytest.mark.parametrize("geom,base", PAIRINGS)
def test_mirror_step_zero_gradient_returns_anchor(geom, base):
    anchor = qp.center(base)
    out = qp.mirror_step(geom, base, anchor, np.zeros(base.dim), 2.0)
    assert np.allclose(out, anchor, atol=1e-12)


def test_mirror_step_entropic_closed_form():
    # weights proportional to anchor_i * exp(-h_i / alpha): (1/2, 1) -> (1/3, 2/3)
    alpha = 3.7
    h = np.array([alpha * math.log(2), 0.0])
    out = qp.mirror_step(ENT2, qp.Simplex(2), np.array([0.5, 0.5]), h, alpha)
    assert np.allclose(out, [1 / 3, 2 / 3], atol=1e-15)


def test_mirror_step_rejects_bad_alpha_and_nonfinite_h():
    with pytest.raises(ValueError):
        qp.mirror_step(EUC2, BALL, np.zeros(2), np.ones(2), 0.0)
    with pytest.raises(ValueError):
        qp.mirror_step(EUC2, BALL, np.zeros(2), np.array([np.nan, 0.0]), 1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("geom, base", PAIRINGS)
def test_mirror_step_accepts_finite_h_whose_squares_overflow(geom, base):
    anchor = qp.center(base)
    h = np.full(geom.dim, 1e200)
    h[0] = -1e200
    out = qp.mirror_step(geom, base, anchor, h, 1.0)
    assert np.isfinite(out).all()
    assert qp.contains(base, out)
    h[-1] = np.inf
    with pytest.raises(ValueError):
        qp.mirror_step(geom, base, anchor, h, 1.0)


@pytest.mark.parametrize("base", [BALL, BOX, SIMPLEX3])
def test_project_returns_a_new_array(base):
    y = qp.center(base)
    x = qp.project(base, y)
    assert x is not y
    x[:] = 7.0
    assert np.array_equal(y, qp.center(base))


def test_mirror_step_entropic_large_h_no_nan():
    out = qp.mirror_step(ENT2, qp.Simplex(2), np.array([0.5, 0.5]),
                         np.array([1e6, -1e6]), 1.0)
    assert np.all(np.isfinite(out))
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_project_examples():
    assert np.allclose(qp.project(qp.Ball(np.zeros(2), 1.0),
                                  np.array([3.0, 4.0])), [0.6, 0.8])
    assert np.allclose(qp.project(qp.Box(np.zeros(2), np.ones(2)),
                                  np.array([0.3, 2.0])), [0.3, 1.0])
    assert np.allclose(qp.project(SIMPLEX3, np.array([0.5, 0.5, 0.5])),
                       [1 / 3, 1 / 3, 1 / 3])


@pytest.mark.parametrize("base", [BALL, BOX, SIMPLEX3])
def test_project_idempotent_and_nonexpansive(base):
    rng = np.random.default_rng(11)
    for _ in range(200):
        y1 = rng.normal(scale=2.0, size=base.dim)
        y2 = rng.normal(scale=2.0, size=base.dim)
        p1, p2 = qp.project(base, y1), qp.project(base, y2)
        assert np.allclose(qp.project(base, p1), p1, atol=1e-12)
        assert (np.linalg.norm(p1 - p2)
                <= np.linalg.norm(y1 - y2) + 1e-10)


@pytest.mark.parametrize("geom,base", PAIRINGS)
def test_bregman_strong_convexity_lower_bound(geom, base):
    rng = np.random.default_rng(5)
    xs = qp.sample(base, rng, 1000)
    ys = qp.sample(base, rng, 1000)
    if geom.kind == "entropic":
        ys = (1 - 1e-9) * ys + 1e-9 / base.dim
    for x, y in zip(xs, ys):
        d = qp.bregman(geom, base, x, y)
        assert d >= 0.5 * qp.norm(geom, x - y) ** 2 - 1e-12


@pytest.mark.parametrize("geom,base", PAIRINGS)
def test_mirror_step_pushback_sampled(geom, base):
    rng = np.random.default_rng(17)
    for _ in range(25):
        anchor = qp.sample(base, rng)[0]
        if geom.kind == "entropic":
            anchor = qp.mix_anchor(anchor, 1e-6)
        h = rng.standard_normal(base.dim)
        alpha = float(rng.uniform(0.5, 4.0))
        x_opt = qp.mirror_step(geom, base, anchor, h, alpha)
        lhs = float(h @ x_opt) + alpha * qp.bregman(geom, base, x_opt, anchor)
        for z in qp.sample(base, rng, 40):
            rhs = (float(h @ z)
                   + alpha * (qp.bregman(geom, base, z, anchor)
                              - qp.bregman(geom, base, z, x_opt)))
            assert lhs <= rhs + 1e-8


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=3, max_size=3),
       st.floats(0.1, 50))
def test_entropic_mirror_step_stays_on_simplex(h, alpha):
    anchor = np.full(3, 1 / 3)
    out = qp.mirror_step(ENT3, SIMPLEX3, anchor, np.asarray(h), alpha)
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.all(out > 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
def test_ball_projection_lands_inside(y):
    p = qp.project(BALL, np.asarray(y))
    assert np.linalg.norm(p - BALL.center) <= BALL.radius + 1e-12


def test_dual_norm_pairings():
    v = np.array([3.0, -4.0])
    assert qp.dual_norm(EUC2, v) == 5.0
    assert qp.dual_norm(ENT2, v) == 4.0       # l1 primal, l-infinity dual
    assert qp.norm(ENT2, v) == 7.0
    assert qp.dual_norm(EUC2, np.zeros(0)) == 0.0
    assert qp.dual_norm(ENT2, np.zeros(0)) == 0.0


@pytest.mark.parametrize("geom", [EUC2, ENT2, qp.euclidean(40),
                                  qp.entropic(40)])
def test_dual_norm_stack_matches_rows(geom):
    rng = np.random.default_rng(17)
    stack = rng.standard_normal((9, geom.dim)) * np.logspace(-8, 8, 9)[:, None]
    stack[0] = 0.0
    stack[1, 0] = -0.0
    norms = qp.dual_norm(geom, stack)
    assert norms.shape == (9,)
    rows = np.array([qp.dual_norm(geom, v) for v in stack])
    assert norms.tobytes() == rows.tobytes()


@pytest.mark.parametrize("geom", [EUC2, ENT2])
def test_dual_norm_empty_stacks(geom):
    assert qp.dual_norm(geom, np.zeros((0, geom.dim))).shape == (0,)
    # rows with no entries have norm 0
    assert qp.dual_norm(geom, np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(qp.DimensionMismatchError):
        qp.dual_norm(geom, np.zeros((2, 2, 2)))


def test_diameter_bound_euclidean_only():
    # returns R with D(x, y) <= R^2; worst case is half the squared diameter
    r = qp.diameter_bound(EUC2, BALL)
    rng = np.random.default_rng(23)
    xs, ys = qp.sample(BALL, rng, 1000), qp.sample(BALL, rng, 1000)
    worst = max(qp.bregman(EUC2, BALL, x, y) for x, y in zip(xs, ys))
    assert worst <= r**2 * (1 + 1e-9)
    assert r == pytest.approx(math.sqrt(2.0))
    with pytest.raises(qp.DomainError):
        qp.diameter_bound(ENT3, SIMPLEX3)


def test_compatible_pairings():
    assert qp.compatible(EUC2, BALL)
    assert qp.compatible(ENT3, SIMPLEX3)
    assert not qp.compatible(ENT2, BALL)


def test_center_and_contains():
    assert np.allclose(qp.center(SIMPLEX3), [1 / 3, 1 / 3, 1 / 3])
    assert qp.contains(BALL, np.array([0.3, 0.4]))
    assert not qp.contains(BALL, np.array([1.3, 0.4]))

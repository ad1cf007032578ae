"""Base sets and their geometries: divergences, mirror steps, projections."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import queueprox as qp
from queueprox import geometry

BALL = qp.Ball(center=np.zeros(2), radius=1.0)
BOX = qp.Box(lower=np.zeros(2), upper=np.ones(2))
SIMPLEX3 = qp.Simplex(3)

# each base set with the (primal, dual) norm orders of the geometry it
# carries: euclidean on a ball or a box, entropic on the simplex
PAIRINGS = [
    ((2, 2), BALL),
    ((2, 2), BOX),
    ((1, np.inf), SIMPLEX3),
]


def test_bregman_euclidean_half_squared_distance():
    assert qp.bregman(BALL, np.array([1.0, 0.0]),
                      np.array([0.0, 0.0])) == 0.5


def test_bregman_entropic_identity_is_zero():
    x = np.array([0.5, 0.5])
    assert qp.bregman(qp.Simplex(2), x, x) == 0.0


def test_bregman_entropic_vertex_against_uniform():
    # sum x_i log(x_i / y_i) with the 0 log 0 = 0 convention
    val = qp.bregman(qp.Simplex(2), np.array([1.0, 0.0]),
                     np.array([0.5, 0.5]))
    assert val == pytest.approx(math.log(2), abs=1e-15)


def test_bregman_entropic_zero_anchor_component_errors():
    with pytest.raises(qp.DomainError):
        qp.bregman(qp.Simplex(2), np.array([0.5, 0.5]),
                   np.array([1.0, 0.0]))


def test_bregman_dimension_mismatch():
    with pytest.raises(qp.DimensionMismatchError):
        qp.bregman(BALL, np.zeros(3), np.zeros(3))


@pytest.mark.parametrize("geom,base", PAIRINGS, ids=["ball", "box", "simplex"])
def test_bregman_stack_matches_rows(geom, base):
    rng = np.random.default_rng(4)
    stack = qp.sample(base, rng, 40)
    if base.kind == "simplex":
        stack[0] = [1.0, 0.0, 0.0]    # a vertex: the 0 log 0 convention
    y = qp.sample(base, rng, 1)[0]
    vals = qp.bregman(base, stack, y)
    assert vals.shape == (40,)
    rows = [qp.bregman(base, x, y) for x in stack]
    np.testing.assert_allclose(vals, rows, rtol=1e-13, atol=1e-15)


def test_bregman_stack_domain_errors():
    y = np.array([0.5, 0.5, 0.0])
    ok = np.array([[0.2, 0.8, 0.0], [1.0, 0.0, 0.0]])
    assert qp.bregman(SIMPLEX3, ok, y).shape == (2,)
    bad = np.vstack([ok, [0.2, 0.3, 0.5]])    # mass where y has none
    with pytest.raises(qp.DomainError):
        qp.bregman(SIMPLEX3, bad, y)
    with pytest.raises(qp.DomainError):
        qp.bregman(SIMPLEX3, np.vstack([ok, [1.1, 0.0, -0.1]]),
                   np.full(3, 1 / 3))


def test_bregman_entropic_rejects_nan_points_and_stacks():
    nan_point = np.array([np.nan, 0.5, 0.25, 0.25])
    uniform = np.full(4, 0.25)
    stack = np.vstack([uniform, nan_point])
    for x, y in [(nan_point, uniform), (uniform, nan_point),
                 (stack, uniform), (uniform, stack), (stack, stack)]:
        with pytest.raises(qp.DomainError):
            qp.bregman(qp.Simplex(4), x, y)


def test_bregman_stack_dimension_mismatch():
    with pytest.raises(qp.DimensionMismatchError):
        qp.bregman(BALL, np.zeros((4, 3)), np.zeros(2))
    with pytest.raises(qp.DimensionMismatchError):
        qp.bregman(BALL, np.zeros((4, 2)), np.zeros((4, 3)))
    with pytest.raises(qp.DimensionMismatchError):
        qp.bregman(BALL, np.zeros((3, 4, 2)), np.zeros(2))
    with pytest.raises(qp.DimensionMismatchError):
        qp.bregman(BALL, np.zeros((4, 2)), np.zeros((3, 4, 2)))


@pytest.mark.parametrize("geom,base", PAIRINGS, ids=["ball", "box", "simplex"])
def test_bregman_reference_stack_matches_rows_bit_for_bit(geom, base):
    rng = np.random.default_rng(9)
    stack = qp.sample(base, rng, 40)
    refs = qp.sample(base, rng, 5)
    if base.kind == "simplex":
        stack[0] = [1.0, 0.0, 0.0]    # a vertex: the 0 log 0 convention
    vals = qp.bregman(base, stack, refs)
    assert vals.shape == (5, 40)
    one = qp.bregman(base, stack[1], refs)
    assert one.shape == (5,)
    for i, y in enumerate(refs):
        row = qp.bregman(base, stack, y)
        assert vals[i].tobytes() == row.tobytes()
        assert one[i] == qp.bregman(base, stack[1], y)


def test_bregman_reference_stack_domain_errors():
    x = np.array([[0.2, 0.8, 0.0], [0.5, 0.5, 0.0]])
    ok = np.array([[1 / 3, 1 / 3, 1 / 3], [0.5, 0.5, 0.0]])
    assert qp.bregman(SIMPLEX3, x, ok).shape == (2, 2)
    no_mass = np.vstack([ok, [0.0, 0.6, 0.4]])    # y_1 = 0 where x_1 > 0
    with pytest.raises(qp.DomainError):
        qp.bregman(SIMPLEX3, x, no_mass)
    with pytest.raises(qp.DomainError):
        qp.bregman(SIMPLEX3, x[0], no_mass)
    with pytest.raises(qp.DomainError):
        qp.bregman(SIMPLEX3, x, np.vstack([ok, [1.1, 0.0, -0.1]]))
    with pytest.raises(qp.DomainError):
        qp.bregman(SIMPLEX3, np.vstack([x, [1.1, 0.0, -0.1]]), ok)


def _exact_mirror_step(anchor, h, alpha):
    """The entropic step with its anchor screen as one exact test."""
    if np.any(anchor <= 0):
        raise qp.DomainError(
            "entropic mirror_step needs a strictly positive anchor")
    exponent = np.log(anchor) - h / alpha
    exponent -= exponent.max()
    weights = np.exp(exponent)
    return weights / weights.sum()


def _exact_bregman(x, y):
    """The entropic divergence with its input screens as exact tests."""
    d = x.shape[-1]
    if not (np.all(x >= 0) and np.all(y >= 0)):
        raise qp.DomainError("entropic divergence needs nonnegative inputs")
    if np.any((x > 0).reshape(-1, d).any(axis=0)
              & (y == 0).reshape(-1, d).any(axis=0)):
        raise qp.DomainError(
            "entropic divergence undefined: y_i = 0 with x_i > 0")
    val = geometry._entropic(x, y)
    return float(val) if x.ndim == y.ndim == 1 else val


def _outcome(fn, *args):
    """What a call does: its error's type and message, or its result's
    shape and bits."""
    with np.errstate(all="ignore"):
        try:
            out = fn(*args)
        except Exception as err:
            return type(err), str(err)
    return np.shape(out), np.asarray(out).tobytes()


# entries written over the first coordinates of a simplex point
SCREEN_VALUES = {
    "zero": [0.0], "minus-zero": [-0.0], "negative": [-0.25],
    "nan": [np.nan], "nan-and-negative": [np.nan, -0.25], "inf": [np.inf],
    "subnormal": [5e-324],
}


@pytest.mark.parametrize("values", SCREEN_VALUES.values(),
                         ids=SCREEN_VALUES.keys())
def test_simplex_screens_raise_and_return_as_exact_tests_do(values):
    base = qp.Simplex(4)
    rng = np.random.default_rng(0)
    points = rng.dirichlet(np.ones(base.dim), size=3)
    odd = points[0].copy()
    odd[:len(values)] = values
    h = rng.standard_normal(base.dim)
    for anchor in (odd, points[1]):
        assert (_outcome(qp.mirror_step, base, anchor, h, 0.7)
                == _outcome(_exact_mirror_step, anchor, h, 0.7))
    # the odd point as x or as y: alone, in a stack, against empty stacks
    stack, empty = np.vstack([points[1:], odd]), np.zeros((0, base.dim))
    inputs = [odd, points[1], stack, points[:2], empty]
    for x in inputs:
        for y in inputs:
            assert (_outcome(qp.bregman, base, x, y)
                    == _outcome(_exact_bregman, x, y))


def test_mirror_step_euclidean_interior_gradient_step():
    out = qp.mirror_step(BALL, np.zeros(2), np.array([2.0, 0.0]), 4.0)
    assert np.allclose(out, [-0.5, 0.0], atol=1e-15)


@pytest.mark.parametrize("geom,base", PAIRINGS)
def test_mirror_step_zero_gradient_returns_anchor(geom, base):
    anchor = qp.center(base)
    out = qp.mirror_step(base, anchor, np.zeros(base.dim), 2.0)
    assert np.allclose(out, anchor, atol=1e-12)


def test_mirror_step_entropic_closed_form():
    # weights proportional to anchor_i * exp(-h_i / alpha): (1/2, 1) -> (1/3, 2/3)
    alpha = 3.7
    h = np.array([alpha * math.log(2), 0.0])
    out = qp.mirror_step(qp.Simplex(2), np.array([0.5, 0.5]), h, alpha)
    assert np.allclose(out, [1 / 3, 2 / 3], atol=1e-15)


def test_mirror_step_rejects_bad_alpha_and_nonfinite_h():
    with pytest.raises(ValueError):
        qp.mirror_step(BALL, np.zeros(2), np.ones(2), 0.0)
    with pytest.raises(ValueError):
        qp.mirror_step(BALL, np.zeros(2), np.array([np.nan, 0.0]), 1.0)


@pytest.mark.parametrize("geom, base", PAIRINGS)
def test_mirror_step_converts_other_inputs_and_keeps_its_checks(geom, base):
    anchor = qp.center(base)
    h = np.linspace(-1.0, 1.0, base.dim)
    expected = qp.mirror_step(base, anchor, h, 2.0)
    for convert in (list, lambda v: v.astype(np.float32).astype(np.float64),
                    lambda v: v.astype(np.float32)):
        out = qp.mirror_step(base, convert(anchor), convert(h), 2.0)
        assert np.allclose(out, expected, atol=1e-6)
    assert (qp.mirror_step(base, list(anchor), list(h), 2.0).tobytes()
            == expected.tobytes())
    with pytest.raises(qp.DimensionMismatchError):
        qp.mirror_step(base, anchor[:-1], h, 2.0)
    with pytest.raises(qp.DimensionMismatchError):
        qp.mirror_step(base, anchor, h[None, :], 2.0)
    with pytest.raises(ValueError):
        qp.mirror_step(base, anchor, h, -1.0)
    with pytest.raises(ValueError):
        qp.mirror_step(base, anchor, [np.nan] * base.dim, 2.0)
    if isinstance(base, qp.Simplex):
        with pytest.raises(qp.DomainError):
            qp.mirror_step(base, np.eye(base.dim)[0], h, 2.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("geom, base", PAIRINGS)
def test_mirror_step_accepts_finite_h_whose_squares_overflow(geom, base):
    anchor = qp.center(base)
    h = np.full(base.dim, 1e200)
    h[0] = -1e200
    out = qp.mirror_step(base, anchor, h, 1.0)
    assert np.isfinite(out).all()
    assert qp.contains(base, out)
    h[-1] = np.inf
    with pytest.raises(ValueError):
        qp.mirror_step(base, anchor, h, 1.0)


@pytest.mark.parametrize("base", [BALL, BOX, SIMPLEX3])
def test_project_returns_a_new_array(base):
    y = qp.center(base)
    x = qp.project(base, y)
    assert x is not y
    x[:] = 7.0
    assert np.array_equal(y, qp.center(base))


def test_mirror_step_entropic_large_h_no_nan():
    out = qp.mirror_step(qp.Simplex(2), np.array([0.5, 0.5]),
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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_ball_projection_of_a_point_whose_squares_overflow():
    # ``offset @ offset`` is inf, and the offset is rescaled before it is
    # measured
    x = qp.project(BALL, np.array([1e200, -1e200]))
    assert np.allclose(x, [math.sqrt(0.5), -math.sqrt(0.5)], rtol=0,
                       atol=1e-15)
    assert np.allclose(qp.project(qp.Ball(np.ones(2), 2.0),
                                  np.array([1e200, 1.0])), [3.0, 1.0])


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
    if isinstance(base, qp.Simplex):
        ys = (1 - 1e-9) * ys + 1e-9 / base.dim
    primal, _ = geom
    for x, y in zip(xs, ys):
        d = qp.bregman(base, x, y)
        move = qp.norm(base, x - y)
        assert move == pytest.approx(np.linalg.norm(x - y, primal), rel=1e-12)
        assert d >= 0.5 * move ** 2 - 1e-12


@pytest.mark.parametrize("geom,base", PAIRINGS)
def test_mirror_step_pushback_sampled(geom, base):
    rng = np.random.default_rng(17)
    for _ in range(25):
        anchor = qp.sample(base, rng)[0]
        if isinstance(base, qp.Simplex):
            anchor = qp.mix_anchor(anchor, 1e-6)
        h = rng.standard_normal(base.dim)
        alpha = float(rng.uniform(0.5, 4.0))
        x_opt = qp.mirror_step(base, anchor, h, alpha)
        lhs = float(h @ x_opt) + alpha * qp.bregman(base, x_opt, anchor)
        for z in qp.sample(base, rng, 40):
            rhs = (float(h @ z)
                   + alpha * (qp.bregman(base, z, anchor)
                              - qp.bregman(base, z, x_opt)))
            assert lhs <= rhs + 1e-8


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=3, max_size=3),
       st.floats(0.1, 50))
def test_entropic_mirror_step_stays_on_simplex(h, alpha):
    anchor = np.full(3, 1 / 3)
    out = qp.mirror_step(SIMPLEX3, anchor, np.asarray(h), alpha)
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.all(out > 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
def test_ball_projection_lands_inside(y):
    p = qp.project(BALL, np.asarray(y))
    assert np.linalg.norm(p - BALL.center) <= BALL.radius + 1e-12


def test_dual_norm_pairings():
    v = np.array([3.0, -4.0])
    assert qp.dual_norm(BALL, v) == 5.0
    assert qp.dual_norm(BOX, v) == 5.0
    assert qp.norm(BOX, v) == 5.0
    simplex = qp.Simplex(2)
    assert qp.dual_norm(simplex, v) == 4.0      # l1 primal, l-infinity dual
    assert qp.norm(simplex, v) == 7.0
    assert qp.dual_norm(BALL, np.zeros(0)) == 0.0
    assert qp.dual_norm(simplex, np.zeros(0)) == 0.0


# a base set with the order of the dual norm its geometry measures in
DUAL_NORMS = [(BALL, 2), (qp.Simplex(2), np.inf),
              (qp.Ball(center=np.zeros(40), radius=1.0), 2),
              (qp.Simplex(40), np.inf)]


@pytest.mark.parametrize("geom", DUAL_NORMS)
def test_dual_norm_stack_matches_rows(geom):
    base, order = geom
    rng = np.random.default_rng(17)
    stack = rng.standard_normal((9, base.dim)) * np.logspace(-8, 8, 9)[:, None]
    stack[0] = 0.0
    stack[1, 0] = -0.0
    norms = qp.dual_norm(base, stack)
    assert norms.shape == (9,)
    rows = np.array([qp.dual_norm(base, v) for v in stack])
    assert norms.tobytes() == rows.tobytes()
    assert np.allclose(norms, np.linalg.norm(stack, order, axis=1),
                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("geom", DUAL_NORMS[:2])
def test_dual_norm_empty_stacks(geom):
    base, _ = geom
    assert qp.dual_norm(base, np.zeros((0, base.dim))).shape == (0,)
    # rows with no entries have norm 0
    assert qp.dual_norm(base, np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(qp.DimensionMismatchError):
        qp.dual_norm(base, np.zeros((2, 2, 2)))


def test_diameter_bound_euclidean_only():
    # returns R with D(x, y) <= R^2; worst case is half the squared diameter
    r = qp.diameter_bound(BALL)
    rng = np.random.default_rng(23)
    xs, ys = qp.sample(BALL, rng, 1000), qp.sample(BALL, rng, 1000)
    worst = max(qp.bregman(BALL, x, y) for x, y in zip(xs, ys))
    assert worst <= r**2 * (1 + 1e-9)
    assert r == pytest.approx(math.sqrt(2.0))
    with pytest.raises(qp.DomainError):
        qp.diameter_bound(SIMPLEX3)


def test_center_and_contains():
    assert np.allclose(qp.center(SIMPLEX3), [1 / 3, 1 / 3, 1 / 3])
    assert qp.contains(BALL, np.array([0.3, 0.4]))
    assert not qp.contains(BALL, np.array([1.3, 0.4]))


@pytest.mark.parametrize("make", [
    lambda: qp.Ball(center=[math.nan, 0.0], radius=1.0),
    lambda: qp.Ball(center=[0.0, 0.0], radius=math.nan),
    lambda: qp.Ball(center=[0.0, 0.0], radius=math.inf),
    lambda: qp.Ball(center=[], radius=1.0),
    lambda: qp.Ball(center=True, radius=1.0),
    lambda: qp.Box(lower=[], upper=[]),
    lambda: qp.Box(lower=[-math.inf, 0.0], upper=[1.0, 1.0]),
    lambda: qp.Box(lower=[0.0, 0.0], upper=[1.0, math.nan]),
    lambda: qp.Simplex(2.7),
    lambda: qp.Simplex(True),
], ids=["ball-center-nan", "ball-radius-nan", "ball-radius-inf",
        "ball-center-empty", "ball-center-scalar", "box-empty", "box-lower-inf", "box-upper-nan", "simplex-float", "simplex-bool"])
def test_base_sets_reject_malformed_parameters(make):
    with pytest.raises(ValueError):
        make()

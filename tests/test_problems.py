"""Constraint blocks, loss sequences, constants, variation, comparator."""
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import queueprox as qp
from queueprox import geometry, problems
from queueprox.problems import coeff_variation
from oracles import (brute_force_variation, finite_diff_grad,
                     grid_comparator, lagrangian_lower_bound, linear_coeff_at,
                     quadratic_at, reference_comparator,
                     reference_stage_multipliers, scalar_linear_constants,
                     scalar_quadratic_constants)

BALL = qp.Ball(center=np.zeros(2), radius=1.0)


def test_constraint_eval_linear_examples():
    block = qp.linear_block(BALL, [[1.0, 1.0]], [1.0])
    vals, jac = qp.constraint_eval(block, np.array([0.5, 0.5]))
    assert vals[0] == 0.0
    assert np.allclose(jac[0], [1.0, 1.0])
    vals, _ = qp.constraint_eval(block, np.zeros(2))
    assert vals[0] == -1.0


def test_constraint_eval_quadratic_example():
    block = qp.quadratic_block(BALL, [[0.0, 0.0]], [0.25])
    x = np.array([0.5, 0.0])
    vals, jac = qp.constraint_eval(block, x)
    assert vals[0] == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(jac[0], [1.0, 0.0])
    # jacobian row agrees with central differences
    fd = finite_diff_grad(lambda p: qp.constraint_eval(block, p)[0][0], x)
    assert np.allclose(jac[0], fd, atol=1e-8)


def test_constraint_eval_dimension_mismatch():
    block = qp.linear_block(BALL, [[1.0, 0.0]], [0.3])
    with pytest.raises(qp.DimensionMismatchError):
        qp.constraint_eval(block, np.zeros(3))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_constraint_eval_accepts_huge_finite_outputs_and_rejects_inf():
    # finite, but their squares overflow: only the scalar test fails, and
    # the exact test behind it passes them
    out = {"values": np.array([1e200]), "jac": np.array([[-1e200, 0.0]])}
    block = qp.ConstraintBlock(size=1, base=BALL,
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


def _ball(dim):
    return qp.Ball(center=np.zeros(dim), radius=1.0)


def _one_point_block(dim):
    """A block known only by a one-point oracle, which refuses stacks."""
    A = np.arange(1.0, 2 * dim + 1).reshape(2, dim) / dim

    def eval_fn(x):
        assert x.shape == (dim,)
        return A @ x - 0.5, A

    return qp.ConstraintBlock(size=2, base=_ball(dim), eval_fn=eval_fn,
                              value_bounds=np.ones(2), lipschitz=np.ones(2),
                              curvature=0.0)


STACK_BLOCKS = {
    "linear-1x2": lambda: qp.linear_block(
        BALL, [[0.3, -1.1]], [0.2]),
    "linear-2x10": lambda: qp.linear_block(
        _ball(10),
        np.random.default_rng(3).standard_normal((2, 10)), [0.1, -0.2]),
    "quadratic-1x3": lambda: qp.quadratic_block(
        _ball(3), [[0.1, -0.2, 0.3]], [0.4]),
    "quadratic-3x3": lambda: qp.quadratic_block(
        _ball(3),
        np.random.default_rng(4).uniform(-1, 1, (3, 3)), [0.2, 0.5, 0.9]),
    "stacked": lambda: qp.stack_blocks([
        qp.linear_block(_ball(3), [[1.0, 1.0, 1.0]], [1.0]),
        qp.quadratic_block(_ball(3), [[0.0, 0.0, 0.0]],
                           [0.9])]),
    "stacked-quadratic-first": lambda: qp.stack_blocks([
        qp.quadratic_block(_ball(3), [[0.1, 0.0, -0.2]], [0.8]),
        qp.linear_block(_ball(3), [[1.0, -0.5, 0.25]], [0.3])]),
    "empty": lambda: qp.empty_block(_ball(3)),
    "one-point": lambda: _one_point_block(3),
}


@pytest.mark.parametrize("name", sorted(STACK_BLOCKS))
def test_constraint_eval_stack_rows_equal_one_point_calls(name):
    block = STACK_BLOCKS[name]()
    # a built-in block is tables, evaluated in one pass; a custom one is
    # called once per row
    assert (block.eval_fn is None) == (name != "one-point")
    stack = qp.sample(_ball(block.dim), np.random.default_rng(5), 500)
    values, jac = qp.constraint_eval(block, stack)
    assert values.shape == (500, block.size)
    assert jac.shape == (500, block.size, block.dim)
    for i, x in enumerate(stack):
        one_values, one_jac = qp.constraint_eval(block, x)
        assert values[i].tobytes() == one_values.tobytes()
        assert jac[i].tobytes() == one_jac.tobytes()
    empty_values, empty_jac = qp.constraint_eval(block, stack[:0])
    assert empty_values.shape == (0, block.size)
    assert empty_jac.shape == (0, block.size, block.dim)


@pytest.mark.parametrize("wrap", [
    lambda v, j: (v.tolist(), j.tolist()),
    lambda v, j: (v[:, None], j),
    lambda v, j: (v.astype(np.float32), j.astype(np.float32)),
], ids=["lists", "column", "float32"])
def test_constraint_eval_normalizes_custom_outputs(wrap):
    """Outputs that are not float arrays of the right shape are converted,
    one point or a stack at a time, to what a built-in block returns."""
    A = np.array([[0.5, -1.0, 0.25], [1.0, 1.0, 1.0]])
    b = np.array([0.1, 0.9])
    block = qp.ConstraintBlock(size=2, base=_ball(3),
                               eval_fn=lambda x: wrap(A @ x - b, A),
                               value_bounds=np.ones(2), lipschitz=np.ones(2),
                               curvature=0.0)
    x = np.array([0.5, 0.25, -0.75])
    values, jac = qp.constraint_eval(block, x)
    assert values.dtype == jac.dtype == np.float64
    assert values.shape == (2,) and jac.shape == (2, 3)
    expected = np.asarray(wrap(A @ x - b, A)[0], dtype=float).ravel()
    assert np.array_equal(values, expected)
    assert np.array_equal(jac, np.asarray(wrap(A @ x - b, A)[1], dtype=float))
    values, jac = qp.constraint_eval(block, np.stack([x, -x]))
    assert values.shape == (2, 2) and jac.shape == (2, 2, 3)
    assert values.dtype == jac.dtype == np.float64
    assert np.array_equal(values[0], expected)


def test_constraint_eval_stack_follows_a_swapped_eval_fn():
    """A block whose ``eval_fn`` is replaced keeps no stale tables: its
    rows, one point or a stack, are the new oracle's, and the comparator
    cannot read the old tables for its closed form."""
    tables = ("A", "b", "centers", "offsets", "order")
    cases = [STACK_BLOCKS["stacked"](),
             qp.linear_block(BALL, [[1.0, 0.0]], [0.3],
                             slater_point=[0.0, 0.0])]
    for block in cases:
        assert block.eval_fn is None and block.A is not None
        shift = np.arange(1.0, block.size + 1) / 4

        def f(x, block=block, shift=shift):
            values, jac = qp.constraint_eval(block, x)
            return values - shift, jac

        swapped = replace(block, eval_fn=f)
        assert all(getattr(swapped, name) is None for name in tables)
        stack = qp.sample(_ball(block.dim), np.random.default_rng(6), 20)
        values, jac = qp.constraint_eval(swapped, stack)
        for i, x in enumerate(stack):
            one_values, one_jac = f(x)
            assert values[i].tobytes() == one_values.tobytes()
            assert jac[i].tobytes() == one_jac.tobytes()
            assert (qp.constraint_eval(swapped, x)[0].tobytes()
                    == one_values.tobytes())
    # the swapped cap x_1 <= 0.55 binds, not the old tables' x_1 <= 0.3
    seq = qp.fixed_linear(BALL, [-1.0, 0.0], 10)
    x = qp.hindsight_comparator(seq, swapped)
    assert x[0] <= 0.55 + 1e-8 and x[0] == pytest.approx(0.55, abs=1e-6)


@pytest.mark.parametrize("name", ["linear-1x2", "quadratic-1x3", "stacked",
                                  "one-point"])
def test_constraint_eval_stack_rejects_nan_rows_and_bad_shapes(name):
    block = STACK_BLOCKS[name]()
    stack = np.zeros((4, block.dim))
    stack[2, 0] = np.nan
    with pytest.raises(qp.OracleError):
        qp.constraint_eval(block, stack)
    for shape in [(4, block.dim + 1), (2, 4, block.dim), (0,)]:
        with pytest.raises(qp.DimensionMismatchError):
            qp.constraint_eval(block, np.zeros(shape))


@pytest.mark.parametrize("make_block", [
    lambda: qp.linear_block(BALL, [[0.7, -0.2], [0.1, 0.9]],
                            [0.5, 0.4]),
    lambda: qp.quadratic_block(BALL, [[0.2, -0.1]], [0.3]),
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
    block = qp.linear_block(BALL, [[1.0, 0.0]], [0.3],
                            slater_point=[0.0, 0.0])
    point, margin = block.slater
    vals, _ = qp.constraint_eval(block, point)
    assert margin > 0
    assert np.all(vals <= -margin + 1e-15)


def test_stack_blocks_concatenates():
    b1 = qp.linear_block(BALL, [[1.0, 0.0]], [0.3])
    b2 = qp.quadratic_block(BALL, [[0.0, 0.0]], [0.5])
    both = qp.stack_blocks([b1, b2])
    assert both.size == 2
    vals, jac = qp.constraint_eval(both, np.array([0.1, 0.2]))
    assert vals[0] == pytest.approx(0.1 - 0.3)
    assert vals[1] == pytest.approx(0.05 - 0.5)
    assert jac.shape == (2, 2)


def test_stack_blocks_keeps_the_order_of_its_parts():
    """Rows come in the parts' order, quadratic before linear included, and
    each equals its part's row bit for bit, one point or a stack."""
    ball3 = _ball(3)
    lin = qp.linear_block(ball3, [[1.0, 1.0, 1.0], [0.5, -1.0, 0.2]],
                          [1.0, 0.3])
    quad = qp.quadratic_block(ball3, [[0.1, 0.0, -0.2]], [0.5])
    inner = qp.stack_blocks([quad, lin])
    for parts in ([quad, lin], [lin, quad, lin], [quad, qp.empty_block(ball3)],
                  [inner, quad, lin], [lin]):
        block = qp.stack_blocks(parts)
        assert block.size == sum(p.size for p in parts)
        assert np.array_equal(block.value_bounds,
                              np.concatenate([p.value_bounds for p in parts]))
        stack = qp.sample(ball3, np.random.default_rng(7), 9)
        values, jac = qp.constraint_eval(block, stack)
        for i, x in enumerate(stack):
            rows = [qp.constraint_eval(p, x) for p in parts]
            expected = np.concatenate([v for v, _ in rows])
            assert values[i].tobytes() == expected.tobytes()
            assert jac[i].tobytes() == np.concatenate([j for _, j in rows]).tobytes()
            assert qp.constraint_eval(block, x)[0].tobytes() == expected.tobytes()
    assert qp.stack_blocks([lin, quad]).order is None


def test_block_tables_are_finite_read_only_copies():
    A = np.array([[1.0, 0.0]])
    block = qp.linear_block(BALL, A, [0.3])
    A[0, 0] = 5.0
    assert block.A[0, 0] == 1.0
    with pytest.raises(ValueError):
        block.A[0, 0] = 2.0
    with pytest.raises(ValueError):
        qp.stack_blocks([block, qp.empty_block(BALL)]).b[0] = 1.0
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            qp.linear_block(BALL, [[bad, 0.0]], [0.3])
        with pytest.raises(ValueError, match="finite"):
            qp.quadratic_block(BALL, [[0.0, 0.0]], [bad])


@pytest.mark.parametrize("dim", [3, 10])
def test_simplex_block_constants_hold_in_the_l1_norm(dim):
    """On the simplex a block's value bounds hold at every vertex and at
    sampled points, and its Lipschitz constants hold in the l1 norm over
    every pair of them."""
    rng = np.random.default_rng(dim)
    simplex = qp.Simplex(dim)
    points = np.vstack([np.eye(dim), qp.sample(simplex, rng, 200)])
    moves = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=-1)
    for block in (qp.linear_block(simplex, rng.normal(size=(3, dim)),
                                  rng.normal(size=3)),
                  qp.quadratic_block(simplex, rng.uniform(-0.5, 1.5, (3, dim)),
                                     rng.uniform(0.0, 1.0, 3))):
        values, _ = qp.constraint_eval(block, points)
        assert np.all(np.abs(values) <= block.value_bounds)
        changes = np.abs(values[:, None, :] - values[None, :, :])
        assert np.all(changes <= block.lipschitz * moves[..., None] + 1e-12)


def test_ball_constants_are_measured_in_the_l2_norm():
    # sup ||x - c||_2 over the unit ball is 1 + ||c||_2 = 1 + sqrt(1/2), and
    # each alternating step moves the gradient by (1.4, 1.4), of l2 norm
    # squared 3.92, over 1999 steps
    block = qp.quadratic_block(BALL, [[0.5, 0.5]], [1.2])
    assert block.lipschitz[0] == pytest.approx(2.0 + np.sqrt(2.0), rel=1e-15)
    seq = qp.alternating(BALL, [0.7, 0.7], [-0.7, -0.7], 2000)
    assert qp.gradient_variation(seq) == pytest.approx(7836.08, rel=1e-12)
    custom = qp.ConstraintBlock(size=1, base=BALL, eval_fn=lambda x: (x[:1], A[:1]),
                                value_bounds=np.ones(1), lipschitz=np.ones(1),
                                curvature=0.0)
    with pytest.raises(qp.UnsupportedFamilyError):
        qp.stack_blocks([block, custom])


def test_loss_index_zero_aliases_round_one():
    seq = qp.linear_drift(BALL, [1.0, 0.0], [0.0, 1.0], horizon=10)
    x = np.array([0.2, 0.1])
    assert np.allclose(seq.grad(0, x), seq.grad(1, x))
    assert seq.value(0, x) == seq.value(1, x)
    with pytest.raises(ValueError):
        seq.grad(11, x)


@pytest.mark.parametrize("make_seq", [
    lambda: qp.fixed_linear(BALL, [-1.0, 0.0], 20, grad_lipschitz=0.5),
    lambda: qp.linear_drift(BALL, [0.5, 0.0], [0.0, 0.4], 20),
    lambda: qp.alternating(BALL, [0.3, 0.1], [-0.2, 0.4], 20),
    lambda: qp.rotating_drift(BALL, amplitude=0.8, rate=0.6,
                              horizon=20),
    lambda: qp.fixed_quadratic(BALL, [0.1, 0.55], 20),
    lambda: qp.quadratic_drift(BALL, [0.9, 0.0], [-0.4, 0.3], 20,
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
        BALL, lambda t, x: float(x @ x), grad_fn, horizon=horizon,
        grad_bound=10.0, grad_lipschitz=10.0)


# one sequence of every loss form: tables of P = 1, horizon + 1 and 2 rows,
# and a custom sequence
FORMS = {
    "fixed-linear": lambda: qp.fixed_linear(BALL, [-1.0, 0.0], 20),
    "fixed-quadratic": lambda: qp.fixed_quadratic(BALL, [0.1, 0.55], 20,
                                                  scale=0.7),
    "linear-drift": lambda: qp.linear_drift(BALL, [0.5, 0.0], [0.0, 0.4], 20),
    "rotating-drift": lambda: qp.rotating_drift(BALL, amplitude=0.8, rate=0.6,
                                                horizon=20),
    "alternating": lambda: qp.alternating(BALL, [0.3, 0.1], [-0.2, 0.4], 20),
    "quadratic-drift": lambda: qp.quadratic_drift(
        BALL, [0.9, 0.0], [-0.4, 0.3], 20, scale0=1.0, scale_drift=0.5),
    "custom": lambda: _one_point_custom_sequence(20),
}
EVERY_FORM = pytest.mark.parametrize("make_seq", list(FORMS.values()),
                                     ids=list(FORMS))


@EVERY_FORM
def test_loss_grad_on_a_stack_equals_its_rows(make_seq):
    seq = make_seq()
    points = qp.sample(BALL, np.random.default_rng(12), 7)
    for t in (0, 1, 9, 20):
        stacked = seq.grad(t, points)
        assert stacked.shape == points.shape
        rows = np.array([seq.grad(t, p) for p in points])
        assert stacked.tobytes() == rows.tobytes()
    assert seq.grad(3, points[:0]).shape == (0, 2)


@EVERY_FORM
def test_loss_over_round_arrays_equals_one_point_calls(make_seq):
    # an int array of rounds broadcasts against the points' leading axes,
    # and every value and gradient is the one-point call's, bit for bit
    seq = make_seq()
    points = qp.sample(BALL, np.random.default_rng(13), 5)
    rounds = np.arange(seq.horizon + 1)
    for t, x in ((rounds[:, None], points), (rounds[[0, 4, 9, 16, 20]], points),
                 (rounds, points[0]), (rounds[[7]], points), (3, points)):
        shape = np.broadcast_shapes(np.shape(t), x.shape[:-1])
        values, grads = seq.value(t, x), seq.grad(t, x)
        assert values.shape == shape and grads.shape == shape + (2,)
        t, x = np.broadcast_to(t, shape), np.broadcast_to(x, shape + (2,))
        for at in np.ndindex(shape):
            one = seq.value(int(t[at]), x[at])
            assert np.float64(values[at]).tobytes() == np.float64(one).tobytes()
            assert grads[at].tobytes() == seq.grad(int(t[at]), x[at]).tobytes()
    with pytest.raises(ValueError, match="round index 21 outside"):
        seq.value(np.array([3, 21, 22]), points)


def test_tables_and_loss_take_a_cell_axis():
    """Tables stacked over 3 cells give each cell's one-point call, bit for
    bit: a block's values and Jacobians at one decision per cell, and a
    sequence's losses and gradients on a block of its rounds' rows."""
    rng = np.random.default_rng(14)
    for name, make_block in STACK_BLOCKS.items():
        first = make_block()
        if first.eval_fn is not None:
            continue
        names = [key for key in ("A", "b", "centers", "offsets")
                 if getattr(first, key) is not None]
        cells = [replace(first, **{key: getattr(first, key) + 0.25 * j
                                   for key in names}) for j in range(3)]
        stacked = replace(first, **{key: np.stack([getattr(c, key)
                                                   for c in cells])
                                    for key in names})
        x = qp.sample(first.base, rng, 3)
        values, jac = problems._tables(stacked, x)
        assert values.shape == (3, first.size), name
        assert jac.shape == (3, first.size, first.dim), name
        for j, cell in enumerate(cells):
            one_values, one_jac = qp.constraint_eval(cell, x[j])
            assert values[j].tobytes() == one_values.tobytes(), name
            assert jac[j].tobytes() == one_jac.tobytes(), name
    for name, make_seq in FORMS.items():
        seq = make_seq()
        if seq.callbacks is not None:
            continue
        names = ("coeffs",) if seq.coeffs is not None else ("scales", "targets")
        cells = [replace(seq, **{key: getattr(seq, key) * (1.0 + 0.25 * j)
                                 for key in names}) for j in range(3)]
        for lo, hi in ((1, 8), (8, seq.horizon + 1)):
            # the rows of indices lo - 1 .. hi - 1, index 0 read as 1
            rows = {key: np.stack([problems.by_round(getattr(c, key), lo - 1, hi)
                                   for c in cells], axis=1) for key in names}
            for table in rows.values():
                table[0] = table[1] if lo == 1 else table[0]
            block = replace(seq, **rows)
            n = hi - lo
            points = qp.sample(BALL, rng, 3 * (n + 1)).reshape(n + 1, 3, 2)
            values = problems._loss(block, False, np.arange(1, n + 1),
                                    points[1:])
            assert values.shape == (n, 3), name
            for i in range(n + 1):
                grads = problems._loss(block, True, i, points[i])
                assert grads.shape == (3, 2), name
                for j, cell in enumerate(cells):
                    t, x = lo - 1 + i, points[i, j]
                    assert grads[j].tobytes() == cell.grad(t, x).tobytes(), name
                    if i:
                        one = np.float64(cell.value(t, x))
                        assert values[i - 1, j].tobytes() == one.tobytes(), name


def test_custom_sequence_is_called_once_per_round_and_point_in_order():
    calls = []

    def grad_fn(t, x):
        calls.append((type(t), t, x.tolist()))
        return t * x

    seq = qp.custom_sequence(BALL, lambda t, x: 0.0, grad_fn, 5, 1.0, 1.0)
    points = np.array([[0.1, 0.2], [0.3, 0.4]])
    grads = seq.grad(np.array([[0], [2], [5]]), points)
    assert calls == [(int, t, p) for t in (1, 2, 5) for p in points.tolist()]
    assert grads.tobytes() == np.array(
        [[t * p for p in points] for t in (1, 2, 5)]).tobytes()


def _zero_loss(t, x):
    return 0.0


@pytest.mark.parametrize("build, refused", [
    (lambda: qp.fixed_linear(BALL, [np.nan, 0.0], 5), "coeffs must be finite"),
    (lambda: qp.alternating(BALL, [0.0, 1.0], [np.inf, 0.0], 5),
     "coeffs must be finite"),
    (lambda: qp.fixed_quadratic(BALL, [np.nan, 0.0], 5),
     "targets must be finite"),
    (lambda: qp.linear_drift(BALL, [1e308, 0.0], [1e308, 0.0], 50),
     "coeffs must be finite"),
    (lambda: qp.quadratic_drift(BALL, [0.0, 0.0], [1e300, 0.0], 50,
                                scale0=1e10), "grad_bound is not finite"),
    (lambda: qp.alternating(BALL, [1e200, 0.0], [-1e200, 0.0], 5),
     "variation total is not finite"),
    (lambda: qp.fixed_linear(BALL, [1e306, 0.0], 500),
     "mean moment is not finite"),
    (lambda: qp.quadratic_drift(qp.Box(-np.ones(2), np.ones(2)), [0.0, 0.0],
                                [2e154, 0.0], 50, scale0=1e-6),
     "mean constant is not finite"),
    (lambda: qp.custom_sequence(BALL, _zero_loss, _zero_loss, 5, 1.0, 1.0,
                                variation=np.nan),
     "variation total is not finite"),
    (lambda: qp.custom_sequence(BALL, _zero_loss, _zero_loss, 5, 1.0, 1.0,
                                variation=-1.0), "variation total is negative"),
])
def test_a_non_finite_loss_table_or_constant_is_refused_when_made(build,
                                                                  refused):
    # each constant is computed once, with numpy's warnings off, and checked
    # once; the error is a DomainError, so a ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(qp.DomainError, match=refused):
            build()


def test_quadratic_gradients_match_finite_differences():
    seq = qp.quadratic_drift(BALL, [0.9, 0.0], [-0.4, 0.3], 10,
                             scale0=1.0, scale_drift=0.5)
    rng = np.random.default_rng(9)
    for t in (1, 5, 10):
        for x in qp.sample(BALL, rng, 20):
            fd = finite_diff_grad(lambda p: seq.value(t, p), x)
            assert np.allclose(seq.grad(t, x), fd, atol=1e-7)


def _random_linear(family, base, horizon, rng):
    """A built-in linear sequence on random parameters, and its parameters."""
    d = base.dim
    if family == "fixed":
        params = {"coeffs": rng.normal(size=d)}
        seq = qp.fixed_linear(base, params["coeffs"], horizon)
    elif family == "linear-drift":
        params = {"start": rng.normal(size=d), "drift": rng.normal(size=d)}
        seq = qp.linear_drift(base, params["start"], params["drift"],
                              horizon)
    elif family == "alternating":
        params = {"first": rng.normal(size=d), "second": rng.normal(size=d)}
        seq = qp.alternating(base, params["first"], params["second"],
                             horizon)
    else:
        plane = rng.normal(size=(2, d))
        params = {"amplitude": float(rng.uniform(0.5, 1.5)),
                  "rate": float(rng.uniform(0.2, 1.0))}
        seq = qp.rotating_drift(base, horizon=horizon, plane=plane,
                                **params)
        e1 = plane[0] / np.linalg.norm(plane[0])
        e2 = plane[1] - (plane[1] @ e1) * e1
        params["plane"] = (e1, e2 / np.linalg.norm(e2))
    return seq, params


LINEAR_FAMILIES = ("fixed", "linear-drift", "alternating", "rotating")
TABLE_BASES = [BALL, qp.Box(-np.ones(10), np.ones(10)), qp.Simplex(10)]


@pytest.mark.parametrize("family", LINEAR_FAMILIES)
@pytest.mark.parametrize("base", TABLE_BASES,
                         ids=["ball-d2", "box-d10", "simplex-d10"])
def test_linear_table_matches_the_per_round_formula(family, base):
    # every row, gradient, value and constant equals the one computed
    # round by round, bit for bit
    rng = np.random.default_rng(31)
    x = geometry.sample(base, rng)[0]
    for horizon in (1, 2, 7, 500):
        seq, params = _random_linear(family, base, horizon, rng)
        coeff_at = linear_coeff_at(family, horizon, **params)
        for t in range(horizon + 1):
            c = coeff_at(max(t, 1))
            assert seq.grad(t, x).tobytes() == c.tobytes()
            assert seq.value(t, x) == float(c @ x)
        grad_bound, mean, variation = scalar_linear_constants(
            base, coeff_at, horizon)
        assert seq.grad_bound == grad_bound
        assert seq.mean_grad(x).tobytes() == mean.tobytes()
        assert seq.mean_value(x) == float(mean @ x)
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
    assert coeff_variation(qp.Simplex(2), table, len(table) - 1) == expect


@pytest.mark.parametrize("family, period", [
    ("fixed", 1), ("alternating", 2), ("linear-drift", 51), ("rotating", 51)])
def test_linear_tables_are_small_and_read_only(family, period):
    # only the drifting families hold a row per round
    seq, _ = _random_linear(family, BALL, 50, np.random.default_rng(2))
    assert seq.coeffs.shape == (period, 2)
    with pytest.raises(ValueError):
        seq.coeffs[0, 0] = 1.0
    with pytest.raises(ValueError):
        seq.grad(1, np.zeros(2))[0] = 1.0


def test_linear_families_reject_a_zero_horizon():
    for family in LINEAR_FAMILIES:
        with pytest.raises(ValueError, match="horizon"):
            _random_linear(family, BALL, 0, np.random.default_rng(3))
    for family in QUADRATIC_FAMILIES:
        with pytest.raises(ValueError, match="horizon"):
            _random_quadratic(family, BALL, 0, np.random.default_rng(3))


def _random_quadratic(family, base, horizon, rng):
    """A built-in quadratic sequence on random parameters, and its
    parameters."""
    d = base.dim
    if family == "fixed":
        params = {"target": rng.normal(size=d),
                  "scale": float(rng.uniform(0.5, 2.0))}
        seq = qp.fixed_quadratic(base, params["target"], horizon,
                                 scale=params["scale"])
    else:
        params = {"target0": rng.normal(size=d),
                  "target_drift": rng.normal(size=d),
                  "scale0": float(rng.uniform(0.5, 2.0)),
                  "scale_drift": float(rng.uniform(-0.4, 1.0))}
        seq = qp.quadratic_drift(base, horizon=horizon, **params)
    return seq, params


QUADRATIC_FAMILIES = ("fixed", "quadratic-drift")


@pytest.mark.parametrize("family", QUADRATIC_FAMILIES)
@pytest.mark.parametrize("base", [BALL, qp.Box(-np.ones(3), np.ones(3))],
                         ids=["ball-d2", "box-d3"])
def test_quadratic_tables_match_the_per_round_formula(family, base):
    # every row, value, gradient and constant but grad_bound equals the one
    # computed round by round, bit for bit
    rng = np.random.default_rng(41)
    x = geometry.sample(base, rng)[0]
    points = geometry.sample(base, rng, 5)
    for horizon in (1, 2, 7, 500):
        seq, params = _random_quadratic(family, base, horizon, rng)
        at = quadratic_at(family, horizon, **params)
        period = 1 if family == "fixed" else horizon + 1
        assert seq.scales.shape == (period,)
        assert seq.targets.shape == (period, base.dim)
        for t in range(horizon + 1):
            s, z = at(max(t, 1))
            assert seq.scales[max(t, 1) % period] == s
            assert seq.targets[max(t, 1) % period].tobytes() == z.tobytes()
            diff = x - z
            assert seq.value(t, x) == 0.5 * s * float(diff @ diff)
            assert seq.grad(t, x).tobytes() == (s * (x - z)).tobytes()
            stacked = np.array([s * (p - z) for p in points])
            assert seq.grad(t, points).tobytes() == stacked.tobytes()
        lipschitz, curvature, mean_value, mean_grad, variation = (
            scalar_quadratic_constants(base, family, at, horizon))
        assert seq.grad_lipschitz == lipschitz
        assert seq.mean_curvature == curvature
        assert seq.mean_value(x) == mean_value(x)
        assert seq.mean_grad(x).tobytes() == mean_grad(x).tobytes()
        assert qp.gradient_variation(seq) == variation
        with pytest.raises(ValueError):
            seq.targets[0, 0] = 1.0
        with pytest.raises(ValueError):
            seq.scales[0] = 1.0


def test_quadratic_variation_squares_like_python_floats():
    # a horizon-2 drift whose target stays at the origin has one variation
    # step, |s_2 - s_1| * sup ||x||; only the scale drifts whose step has a
    # libm square (Python's x ** 2) other than step * step are checked
    x_reach = qp.dual_norm(BALL, np.ones(2))
    checked = 0
    for drift in np.random.default_rng(5).uniform(0.1, 10.0, 20000).tolist():
        step = abs((1.0 + drift) - (1.0 + 0.5 * drift)) * x_reach
        if step ** 2 == step * step:
            continue
        seq = qp.quadratic_drift(BALL, np.zeros(2), np.zeros(2), 2,
                                 scale0=1.0, scale_drift=drift)
        assert qp.gradient_variation(seq) == step ** 2
        checked += 1
    assert checked


@pytest.mark.parametrize("family, key", [
    ("fixed", "target"), ("quadratic-drift", "target0"),
    ("quadratic-drift", "target_drift")])
def test_quadratic_families_keep_no_reference_to_their_inputs(family, key):
    seq, params = _random_quadratic(family, BALL, 9,
                                    np.random.default_rng(8))
    x = np.array([0.3, -0.2])

    def observed():
        return [(seq.value(t, x), seq.grad(t, x).tobytes(),
                 seq.grad(t, x[None]).tobytes()) for t in (1, 5, 9)] + [
                    seq.mean_value(x), seq.mean_grad(x).tobytes()]

    before = observed()
    params[key][:] = 7.0
    assert observed() == before


def test_gradient_variation_fixed_is_zero():
    seq = qp.fixed_linear(BALL, [0.4, -0.2], 50)
    assert qp.gradient_variation(seq) == 0.0
    seq_q = qp.fixed_quadratic(BALL, [0.1, 0.2], 50)
    assert qp.gradient_variation(seq_q) == 0.0


def test_gradient_variation_alternating_closed_form():
    c, cp = np.array([0.3, 0.1]), np.array([-0.2, 0.4])
    seq = qp.alternating(BALL, c, cp, horizon=10)
    expect = 9 * float((c - cp) @ (c - cp))
    assert qp.gradient_variation(seq) == pytest.approx(expect, rel=1e-12)
    assert qp.gradient_variation(seq) == pytest.approx(
        brute_force_variation(seq, BALL), rel=1e-9)


def test_gradient_variation_linear_drift_closed_form():
    u = np.array([0.0, 0.4])
    seq = qp.linear_drift(BALL, [0.5, 0.0], u, horizon=20)
    expect = 19 * float(u @ u) / 20**2
    assert qp.gradient_variation(seq) == pytest.approx(expect, rel=1e-12)
    assert qp.gradient_variation(seq) == pytest.approx(
        brute_force_variation(seq, BALL), rel=1e-9)


def test_gradient_variation_quadratic_certified_overestimate():
    seq = qp.quadratic_drift(BALL, [0.9, 0.0], [-0.4, 0.3], 15,
                             scale0=1.0, scale_drift=0.5)
    v = qp.gradient_variation(seq)
    assert v >= brute_force_variation(seq, BALL, n_samples=256) - 1e-12
    assert v >= 0.0


def test_gradient_variation_and_comparator_read_the_sequence_base():
    # neither takes a base set of its own: the supremum and the comparator
    # are over ``seq.base``, so no other set can be passed in
    seq = qp.fixed_linear(BALL, [-1.0, 0.0], 50)
    assert qp.gradient_variation(seq) == 0.0
    box = qp.Box(-3.0 * np.ones(2), 3.0 * np.ones(2))
    with pytest.raises(TypeError):
        qp.gradient_variation(seq, box)
    with pytest.raises(TypeError):
        qp.hindsight_comparator(seq, qp.empty_block(BALL), box)
    assert np.allclose(qp.hindsight_comparator(seq, qp.empty_block(BALL)),
                       [1.0, 0.0], atol=1e-9)


def test_gradient_variation_custom_without_bound_unsupported():
    seq = qp.custom_sequence(
        BALL, lambda t, x: float(x @ x), lambda t, x: 2 * x,
        horizon=5, grad_bound=2.0, grad_lipschitz=2.0)
    with pytest.raises(qp.UnsupportedFamilyError):
        qp.gradient_variation(seq)


def test_gradient_variation_additive_over_concatenation():
    c, cp = np.array([0.3, 0.1]), np.array([-0.2, 0.4])
    long = qp.alternating(BALL, c, cp, horizon=8)
    head = qp.alternating(BALL, c, cp, horizon=4)
    # the 4-round tail (starting with c' at its first round) is another
    # alternating sequence whose boundary round matches head's last loss,
    # so splitting only re-labels the t=5 term from one sum to the other
    tail = qp.alternating(BALL, cp, c, horizon=4)
    boundary = float((c - cp) @ (c - cp))
    assert (qp.gradient_variation(head) + boundary
            + qp.gradient_variation(tail)
            == pytest.approx(qp.gradient_variation(long), rel=1e-12))


def test_comparator_unconstrained_quadratic_projects_radially():
    seq = qp.fixed_quadratic(BALL, [2.0, 0.0], 10)
    block = qp.empty_block(BALL)
    x = qp.hindsight_comparator(seq, block)
    assert np.allclose(x, [1.0, 0.0], atol=1e-6)


def test_comparator_active_linear_constraint():
    seq = qp.fixed_linear(BALL, [-1.0, 0.0], 10)
    block = qp.linear_block(BALL, [[1.0, 0.0]], [0.3],
                            slater_point=[0.0, 0.0])
    x = qp.hindsight_comparator(seq, block)
    assert np.allclose(x, [0.3, 0.0], atol=1e-4)
    vals, _ = qp.constraint_eval(block, x)
    assert np.all(vals <= 1e-8)


def test_comparator_symmetric_inactive_constraint():
    seq = qp.fixed_quadratic(BALL, [0.0, 0.0], 10)
    block = qp.linear_block(BALL, [[0.0, 0.0]], [1.0])
    x = qp.hindsight_comparator(seq, block)
    assert np.allclose(x, [0.0, 0.0], atol=1e-6)


def test_comparator_matches_grid_oracle_on_random_instances():
    rng = np.random.default_rng(31)
    for trial in range(10):
        c = rng.uniform(-1, 1, size=2)
        b = float(rng.uniform(0.1, 0.6))
        seq = qp.fixed_linear(BALL, c, 10)
        block = qp.linear_block(BALL, [[1.0, 0.0]], [b],
                                slater_point=[0.0, 0.0])
        x = qp.hindsight_comparator(seq, block)
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
    block = qp.linear_block(BALL, [[1.0, 0.0], [-1.0, 0.0]],
                            [-2.0, -2.0])
    seq = qp.fixed_linear(BALL, [1.0, 0.0], 5)
    with pytest.raises((qp.InfeasibleError, qp.ConvergenceError)):
        qp.hindsight_comparator(seq, block)


def test_staged_comparator_names_the_row_no_point_satisfies():
    # a custom block 2 - x_1 <= 0 without a Slater point: the feasibility
    # probe ends at (1, 0), where the row still reads 1
    block = qp.ConstraintBlock(
        size=1, base=BALL,
        eval_fn=lambda x: (np.array([2.0 - x[0]]), np.array([[-1.0, 0.0]])),
        value_bounds=np.array([3.0]), lipschitz=np.ones(1), curvature=0.0)
    seq = qp.fixed_linear(BALL, [1.0, 0.0], 5)
    with pytest.raises(qp.InfeasibleError,
                       match="constraint 0 stays at 1.000e[+]00") as err:
        qp.hindsight_comparator(seq, block)
    assert err.value.constraint_index == 0


def test_staged_comparator_reports_a_stalled_solve(monkeypatch):
    # a custom sequence has no tables, so the staged path solves it: one
    # FISTA iteration cannot reach the projected target
    target = np.array([0.3, -0.6])
    seq = qp.custom_sequence(
        BALL, lambda t, x: float((x - target) @ (x - target)),
        lambda t, x: 2.0 * (x - target), horizon=5, grad_bound=4.0,
        grad_lipschitz=2.0,
        mean_value_fn=lambda x: float((x - target) @ (x - target)),
        mean_grad_fn=lambda x: 2.0 * (x - target), mean_curvature=2.0)
    block = qp.empty_block(BALL)
    assert np.allclose(qp.hindsight_comparator(seq, block), target,
                       atol=1e-6)
    monkeypatch.setattr(problems, "FISTA_MAX_ITER", 1)
    with pytest.raises(qp.ConvergenceError,
                       match="comparator solve stalled") as err:
        qp.hindsight_comparator(seq, block)
    assert err.value.residual > 1e-8


@pytest.mark.parametrize("name", ["golden-d2", "box-mixed-d3", "simplex-d10"])
def test_comparator_evaluates_the_block_once_per_new_point(name, monkeypatch):
    built = qp.build_scenario(qp.shipped_scenario(name, horizon=200))
    calls = {"eval": 0, "project": 0}

    def counted_eval(x):
        calls["eval"] += 1
        return qp.constraint_eval(built.block, x)

    project = geometry.project

    def counted_project(base, y):
        calls["project"] += 1
        return project(base, y)

    monkeypatch.setattr(geometry, "project", counted_project)
    # golden-d2 takes the dual solution, so the staged path is called
    # directly
    problems._staged_comparator(built.seq,
                                replace(built.block, eval_fn=counted_eval))
    # a FISTA iteration visits one projected point per backtracking
    # candidate and at most one extrapolated point, so it has at most
    # twice as many new points as projections; beyond one evaluation per
    # new point, each of the at most six penalty stages evaluates its start
    # and its result once more, and the pull toward the certificate once
    assert calls["project"] > 0
    assert calls["eval"] <= 2 * calls["project"] + 2 * 6 + 1


# a cap on one coordinate that binds at the unconstrained optimum
BINDING_CAPS = {"golden-d2": (0, 0.2), "box-mixed-d3": (0, 0.2),
                "simplex-d10": (6, 0.5)}


@pytest.mark.parametrize("name", sorted(BINDING_CAPS))
@pytest.mark.parametrize("kind", ["empty", "no-slater", "staged"])
def test_comparator_bytes_match_the_reference(name, kind):
    """The staged FISTA comparator against ``reference_comparator``.  The
    reference halves ``step_inv`` after every iteration where the
    comparator multiplies it by 0.95, so their bytes differ; the comparator
    is held to the reference's quality instead: feasible, an averaged loss
    no higher than the reference's up to 1e-10 relative, and both above the
    Lagrangian lower bound at the reference's last-stage multipliers.
    golden-d2 takes the dual solution in ``hindsight_comparator``, so the
    staged path is called directly (the dual solution is judged in
    ``test_closed_form_comparator_on_shipped_instances``)."""
    built = qp.build_scenario(qp.shipped_scenario(name, horizon=200))
    dim = built.base.dim
    if kind == "empty":
        block = qp.empty_block(built.base)
    elif kind == "no-slater":
        axis, cap = BINDING_CAPS[name]
        block = qp.linear_block(built.base, [np.eye(dim)[axis]],
                                [cap])
    else:
        block = built.block
    counts = {}
    expected = reference_comparator(built.seq, block, built.base,
                                    counts=counts)
    x = problems._staged_comparator(built.seq, block)
    violation = np.maximum(qp.constraint_eval(block, x)[0], 0.0)
    assert violation.max(initial=0.0) <= 1e-8
    value = built.seq.mean_value(x)
    reference = built.seq.mean_value(expected)
    assert value <= reference + 1e-10 * (1.0 + abs(reference))
    multipliers = (reference_stage_multipliers(built.seq, block, built.base,
                                               counts["stages"])
                   if "stages" in counts else np.zeros(block.size))
    bound = lagrangian_lower_bound(built.seq, block, built.base, multipliers)
    # weak duality, up to what a violation below 1e-8 can buy
    slack = 1e-12 * (1.0 + abs(bound))
    assert value >= bound - float(multipliers @ violation) - slack
    assert reference >= bound - slack
    # the configs reach every solve: the unconstrained one, the feasibility
    # probe, and penalty stages that restart
    assert ("probe" in counts) == (kind == "no-slater")
    assert ("stages" in counts) == (kind != "empty")
    if kind == "staged":
        assert counts["restarts"] > 0


@pytest.mark.parametrize("name", ["box-mixed-d3", "simplex-d10"])
def test_comparator_projects_at_most_0_7x_the_reference(name, monkeypatch):
    built = qp.build_scenario(qp.shipped_scenario(name, horizon=200))
    calls = {"library": 0, "reference": 0}

    def counting(key, project):
        def counted(base, y):
            calls[key] += 1
            return project(base, y)
        return counted

    # the library projects through ``geometry``, the reference through the
    # package namespace
    monkeypatch.setattr(geometry, "project",
                        counting("library", geometry.project))
    monkeypatch.setattr(qp, "project", counting("reference", qp.project))
    # box-mixed-d3 takes the dual path, so the staged path is called directly
    problems._staged_comparator(built.seq, built.block)
    reference_comparator(built.seq, built.block, built.base)
    assert 0 < calls["library"] <= 0.7 * calls["reference"]


@pytest.mark.parametrize("name", ["box-mixed-d3", "drift-rotate-d2"])
def test_comparator_builds_a_gradient_only_where_it_steps(name, monkeypatch):
    built = qp.build_scenario(qp.shipped_scenario(name, horizon=200))
    seq = built.seq
    calls = {"value": 0, "grad": 0, "project": 0, "solves": 0}

    def counted_value(x):
        calls["value"] += 1
        return seq.mean_value(x)

    def counted_grad(x):
        calls["grad"] += 1
        return seq.mean_grad(x)

    project, fista = geometry.project, problems._fista

    def counted_project(base, y):
        calls["project"] += 1
        return project(base, y)

    def counted_fista(*args, **kwargs):
        calls["solves"] += 1
        return fista(*args, **kwargs)

    counted = qp.custom_sequence(
        seq.base, seq.value, seq.grad, seq.horizon, seq.grad_bound,
        seq.grad_lipschitz, mean_value_fn=counted_value,
        mean_grad_fn=counted_grad, mean_curvature=seq.mean_curvature)
    # drift-rotate-d2 takes the dual solution, so the staged path is called
    # directly
    staged = problems._staged_comparator
    expected = staged(seq, built.block)
    monkeypatch.setattr(geometry, "project", counted_project)
    monkeypatch.setattr(problems, "_fista", counted_fista)
    x = staged(counted, built.block)
    assert x.tobytes() == expected.tobytes()
    # a backtracking candidate needs only its value.  Each iteration steps
    # from one point with one gradient and projects at least once, and a
    # solve builds at most one more (its start point's, or a restart's in
    # its last iteration); a gradient at every candidate would add one per
    # extrapolated point
    assert 0 < calls["grad"] <= calls["project"] + calls["solves"]
    assert calls["grad"] < calls["value"]


# ---------------------------------------------------------------------------
# the dual comparator on a linear loss on a ball: at most one linear cap,
# and mixed caps
# ---------------------------------------------------------------------------

CAP_KINDS = ("inactive", "active", "parallel", "zero-loss", "zero-cap",
             "tangent", "missing")


def _cap_instance(kind, dim, center, radius, coeffs, direction, u):
    """``(seq, block, base)``: a linear loss with mean ``coeffs`` on a ball
    under one cap ``<a, x> <= b`` of the given kind; ``u`` in [0, 1] places
    the cap.  Every kind but "tangent" and "missing" has a Slater point."""
    base = qp.Ball(center=np.asarray(center), radius=radius)
    c = np.asarray(coeffs)
    if kind == "zero-loss":
        c = np.zeros(dim)
    elif kind == "parallel":
        c = (2.0 * u - 1.0 + 0.1) * np.asarray(direction)
    a = np.zeros(dim) if kind == "zero-cap" else np.asarray(direction)
    norm_a = float(np.linalg.norm(a))
    x_ball = (base.center - radius * c / np.linalg.norm(c)
              if c.any() else base.center)
    lowest = float(a @ base.center) - radius * norm_a   # least a.x on the ball
    if kind == "inactive":
        b = float(a @ x_ball) + 0.01 + u
    elif kind == "active":
        # between the cap's least value and its value at the ball minimizer
        hi = float(a @ x_ball)
        assume(hi - lowest > 0.2 * radius * norm_a)
        b = lowest + (0.1 + 0.8 * u) * (hi - lowest)
    elif kind in ("parallel", "zero-loss"):
        b = lowest + (0.1 + 1.9 * u) * radius * norm_a
    elif kind == "zero-cap":
        b = 0.01 + u
    elif kind == "tangent":
        b = lowest
    else:
        b = lowest - 1e-3 - u
    slater = None
    if kind not in ("tangent", "missing"):
        # the ball point of least a.x, pulled inward: strictly feasible
        slater = (base.center - 0.95 * radius * a / norm_a if norm_a
                  else base.center)
        assume(float(a @ slater) - b < -1e-3)
    seq = qp.alternating(base, c + 0.25, c - 0.25, 40)
    block = qp.linear_block(base, [a], [b],
                            slater_point=slater)
    return seq, block, base


@st.composite
def _cap_instances(draw, kind):
    dim = draw(st.sampled_from([2, 3]))
    vec = st.lists(st.floats(-1, 1), min_size=dim, max_size=dim)
    center = draw(vec)
    coeffs = draw(vec.filter(lambda v: np.linalg.norm(v) > 0.05))
    direction = draw(vec.filter(lambda v: np.linalg.norm(v) > 0.05))
    return _cap_instance(kind, dim, center, draw(st.floats(0.2, 2.0)),
                         coeffs, direction, draw(st.floats(0, 1)))


def _assert_certified_answer(seq, block, base, x, nu):
    """A certified answer ``(x, nu)``: feasible, its averaged loss within
    1e-12 relative of the Lagrangian lower bound at ``nu``, and never
    beaten by the staged FISTA path at feas_tol 1e-10 by more than 1e-10
    relative, beyond what the staged point's own violation can buy (weak
    duality: ``F + nu . g`` is at least the bound there).  The staged path
    is held one-sided: its FISTA can stall above the optimum
    (``test_closed_form_comparator_on_pinned_caps``,
    ``test_dual_comparator_reaches_a_target_on_the_box_boundary``).
    Returns the averaged loss."""
    assert float(qp.constraint_eval(block, x)[0].max(initial=0.0)) <= 1e-8
    assert qp.contains(base, x)
    value = seq.mean_value(x)
    slack = 1e-12 * (1.0 + abs(value))
    bound = lagrangian_lower_bound(seq, block, base, nu)
    assert bound - slack <= value <= bound + slack
    staged = problems._staged_comparator(seq, block, feas_tol=1e-10)
    violation = np.maximum(qp.constraint_eval(block, staged)[0], 0.0)
    assert value <= (seq.mean_value(staged) + float(nu @ violation)
                     + 1e-10 * (1.0 + abs(value)))
    return value


def _assert_closed_form(kind, seq, block, base):
    """The dual solution on one linear cap instance: certified, taken by
    ``hindsight_comparator``, a certified answer and, where a Slater point
    exists, no worse than the reference FISTA comparator.  A tangent cap leaves one feasible point, where it
    touches the ball: ``hindsight_comparator`` returns it without a solve,
    and a certified dual solution is no better than it."""
    if kind == "missing":
        with pytest.raises(qp.InfeasibleError) as info:
            qp.hindsight_comparator(seq, block)
        assert info.value.constraint_index == 0
        with pytest.raises(qp.InfeasibleError):
            reference_comparator(seq, block, base)
        return
    x, nu = problems._dual_solution(seq, block)
    if kind == "tangent":
        a = block.A[0]
        touch = qp.hindsight_comparator(seq, block)
        assert np.allclose(touch, base.center - base.radius * a
                           / np.linalg.norm(a), rtol=0, atol=1e-12)
        gap = float(qp.constraint_eval(block, touch)[0][0])
        assert abs(gap) <= 1e-12
        if problems._certified(seq, block, x, nu):
            # weak duality at the touching point bounds the dual value
            value = seq.mean_value(x)
            assert value <= (seq.mean_value(touch) + nu[0] * gap
                             + 1e-12 * (1.0 + abs(value)))
        return
    assert problems._certified(seq, block, x, nu)
    assert qp.hindsight_comparator(seq, block).tobytes() == x.tobytes()
    value = _assert_certified_answer(seq, block, base, x, nu)
    reference = seq.mean_value(reference_comparator(seq, block, base))
    assert value <= reference + 1e-10 * (1.0 + abs(value))


@pytest.mark.parametrize("kind", CAP_KINDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_closed_form_comparator_on_random_caps(kind, data):
    _assert_closed_form(kind, *data.draw(_cap_instances(kind)))


@pytest.mark.parametrize("kind", ["inactive", "active"])
def test_closed_form_comparator_on_pinned_caps(kind):
    """Two caps on the unit ball where the staged path lands more than 1e-8
    above the optimum.  Under the inactive cap ``x + y <= -0.99`` its FISTA
    stalls at -0.99999982 against -1; under the nearly flat active cap
    ``-x_1 + 5.96e-8 x_2 <= -0.8`` its residual passes 1e-12 while the loss
    is still 3.6e-8 above the optimum."""
    if kind == "inactive":
        seq = qp.alternating(BALL, [0.25, 1.25], [-0.25, 0.75], 40)
        a, b = [1.0, 1.0], -0.99
    else:
        seq = qp.fixed_linear(BALL, [1.0, 0.0], 40)
        a, b = [-1.0, 5.96e-8], -0.8
    a = np.array(a)
    block = qp.linear_block(BALL, [a], [b],
                            slater_point=-0.95 * a / np.linalg.norm(a))
    _assert_closed_form(kind, seq, block, BALL)


@pytest.mark.parametrize("name", ["golden-d2", "drift-rotate-d2"])
@pytest.mark.parametrize("kind", ["empty", "no-slater", "staged"])
def test_closed_form_comparator_on_shipped_instances(name, kind):
    """The instances of ``test_comparator_bytes_match_the_reference`` that
    are linear on a ball take the dual solution, a certified answer that is
    not below the Lagrangian bound at all."""
    built = qp.build_scenario(qp.shipped_scenario(name, horizon=200))
    block = {"empty": qp.empty_block(built.base),
             "no-slater": qp.linear_block(built.base,
                                          [[1.0, 0.0]], [0.2]),
             "staged": built.block}[kind]
    x, nu = problems._dual_solution(built.seq, block)
    assert problems._certified(built.seq, block, x, nu)
    assert (qp.hindsight_comparator(built.seq, block).tobytes()
            == x.tobytes())
    value = _assert_certified_answer(built.seq, block, built.base, x, nu)
    assert lagrangian_lower_bound(built.seq, block, built.base, nu) <= value


def _mixed_cap_instance(rng):
    """``(seq, block, base)``: an alternating linear loss on a ball in d = 2
    to 4 under one to three linear and quadratic caps in random order, each
    strictly feasible at one shared Slater point inside the ball and cut
    between its value there and its value at the ball minimizer, or beyond
    it."""
    dim = int(rng.integers(2, 5))
    base = qp.Ball(center=rng.uniform(-1, 1, dim),
                   radius=float(rng.uniform(0.3, 2.0)))
    first, second = rng.uniform(-1, 1, (2, dim))
    seq = qp.alternating(base, first, second, 20)
    c = seq.mean_grad(base.center)
    free = base.center - base.radius * c / np.linalg.norm(c)
    direction = rng.standard_normal(dim)
    slater = base.center + (rng.uniform(0, 0.9) * base.radius * direction
                            / np.linalg.norm(direction))
    parts = []
    for kind in rng.choice(["linear", "quadratic"], size=rng.integers(1, 4)):
        row = rng.uniform(-1, 1, dim)
        if kind == "linear":
            at_slater, at_free, make = row @ slater, row @ free, qp.linear_block
        else:
            at_slater = (slater - row) @ (slater - row)
            at_free = (free - row) @ (free - row)
            make = qp.quadratic_block
        cut = rng.uniform(0.0, 1.5) * max(at_free - at_slater, 0.0)
        parts.append(make(base, [row], [at_slater + 0.02 + cut],
                          slater_point=slater))
    return seq, qp.stack_blocks(parts), base


def test_dual_comparator_on_linear_losses_under_mixed_caps():
    """Linear losses on a ball under one to three mixed caps: a certified
    dual solution is taken by ``hindsight_comparator`` and is a certified
    answer; a refused one leaves the answer to the staged path, byte for
    byte.  Seed 13 draws one refused
    instance (the 20th: three linear caps in d = 2, a flat Lagrangian whose
    least-squares multipliers are not all nonnegative), so both branches
    run."""
    rng = np.random.default_rng(13)
    for _ in range(20):
        seq, block, base = _mixed_cap_instance(rng)
        x, nu = problems._dual_solution(seq, block)
        chosen = qp.hindsight_comparator(seq, block)
        if problems._certified(seq, block, x, nu):
            assert chosen.tobytes() == x.tobytes()
            _assert_certified_answer(seq, block, base, x, nu)
        else:
            staged = problems._staged_comparator(seq, block)
            assert chosen.tobytes() == staged.tobytes()


# ---------------------------------------------------------------------------
# the dual comparator: a quadratic loss on a ball or a box under built-in caps
# ---------------------------------------------------------------------------


@st.composite
def _dual_instances(draw, family):
    """``(seq, block, base)``: a quadratic family on a ball or a box under
    zero to three linear and quadratic caps in any order, each strictly
    feasible at one shared Slater point inside the base set.  Each cap is
    cut between its value at that point and its value at the unconstrained
    optimum, or beyond it, so caps come active, inactive or both binding."""
    dim = draw(st.sampled_from([2, 3]))
    vec = st.lists(st.floats(-1, 1), min_size=dim, max_size=dim).map(np.array)
    if draw(st.booleans()):
        base = qp.Ball(center=draw(vec), radius=draw(st.floats(0.3, 2.0)))
    else:
        lower = draw(vec) - 0.5
        base = qp.Box(lower=lower, upper=lower + draw(
            st.lists(st.floats(0.3, 2.0), min_size=dim, max_size=dim)))
    middle = qp.center(base)
    target = middle + 2.0 * draw(vec)
    if family == "fixed":
        seq = qp.fixed_quadratic(base, target, 20,
                                 scale=draw(st.floats(0.2, 3.0)))
    else:
        seq = qp.quadratic_drift(base, target, draw(vec), 20,
                                 scale0=draw(st.floats(0.2, 3.0)),
                                 scale_drift=draw(st.floats(-0.1, 1.0)))
    free = qp.project(base, seq.mean_grad(np.zeros(dim))
                      / -seq.mean_curvature)
    slater = middle + 0.5 * (qp.project(base, middle + 2.0 * draw(vec))
                             - middle)
    parts = []
    for kind in draw(st.lists(st.sampled_from(["linear", "quadratic"]),
                              max_size=3)):
        row = draw(vec.filter(lambda v: np.linalg.norm(v) > 0.1))
        cut = draw(st.floats(0.0, 1.5))
        if kind == "linear":
            at_slater, at_free = row @ slater, row @ free
            parts.append(qp.linear_block(
                base, [row], [at_slater + 0.02 + cut * max(
                    at_free - at_slater, 0.0)], slater_point=slater))
        else:
            at_slater = float((slater - row) @ (slater - row))
            at_free = float((free - row) @ (free - row))
            parts.append(qp.quadratic_block(
                base, [row], [at_slater + 0.02 + cut * max(
                    at_free - at_slater, 0.0)], slater_point=slater))
    block = qp.stack_blocks(parts) if parts else qp.empty_block(base)
    return seq, block, base


@pytest.mark.parametrize("family", ["fixed", "drift"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_dual_comparator_on_random_caps(family, data):
    """The dual solution is certified, taken by ``hindsight_comparator``, a
    certified answer and no worse than the reference FISTA comparator."""
    seq, block, base = data.draw(_dual_instances(family))
    x, nu = problems._dual_solution(seq, block)
    assert problems._certified(seq, block, x, nu)
    assert qp.hindsight_comparator(seq, block).tobytes() == x.tobytes()
    value = _assert_certified_answer(seq, block, base, x, nu)
    reference = seq.mean_value(reference_comparator(seq, block, base))
    assert value <= reference + 1e-10 * (1.0 + abs(value))


def test_dual_comparator_reaches_a_target_on_the_box_boundary():
    """A target on the box's face under an inactive cap is its own
    comparator, with loss 0.  The staged path stalls 6.8e-8 short of it,
    even at feas_tol 1e-10: an extrapolated point beyond the face breaks
    the cap, the penalty throws the iterates to a far corner, and they
    creep back more slowly than the stall limit allows."""
    base = qp.Box(lower=-0.5 * np.ones(3), upper=np.array([0.5, 1.5, 0.5]))
    seq = qp.fixed_quadratic(base, [0.0, 1.5, 0.0], 20,
                             scale=0.5)
    block = qp.linear_block(base, [[0.0, 1.0, 1.0]], [1.52],
                            slater_point=[0.0, 0.5, 0.0])
    x = qp.hindsight_comparator(seq, block)
    assert x.tolist() == [0.0, 1.5, 0.0] and seq.mean_value(x) == 0.0


@pytest.mark.parametrize("name", ["active", "inactive", "golden-d2",
                                  "box-mixed-d3", "fixed-quadratic-ball"])
def test_dual_comparator_falls_back_when_its_multipliers_are_off(name,
                                                                 monkeypatch):
    """Negative control for the dual solution: multipliers ``1.1 nu + 0.01``
    leave a duality gap, so ``_certified`` refuses them and the staged
    path answers.  The golden-style caps hold a linear loss on a ball;
    golden-d2's loss is parallel to its cap's normal, so its answer comes
    from the flat Lagrangian; box-mixed-d3 has one active and one inactive
    cap, fixed-quadratic-ball one inactive cap."""
    if name in ("active", "inactive"):
        seq, base = qp.fixed_linear(BALL, [-1.0, -0.5], 10), BALL
        # the ball minimizer has x_1 = 0.894
        block = qp.linear_block(BALL, [[1.0, 0.0]],
                                [0.3 if name == "active" else 0.95],
                                slater_point=[0.0, 0.0])
    else:
        built = qp.build_scenario(qp.shipped_scenario(name, horizon=200))
        seq, block, base = built.seq, built.block, built.base
    solve = problems._dual_solution
    x, nu = solve(seq, block)
    assert problems._certified(seq, block, x, nu)
    if name in ("active", "inactive"):
        assert (nu[0] > 0) == (name == "active")
    off = 1.1 * nu + 0.01
    assert not problems._certified(seq, block, x, off)
    monkeypatch.setattr(problems, "_dual_solution",
                        lambda *args: (solve(*args)[0], off))
    staged = problems._staged_comparator(seq, block)
    assert (qp.hindsight_comparator(seq, block).tobytes()
            == staged.tobytes())


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
@pytest.mark.parametrize("shape", ["ball", "box"])
def test_dual_comparator_cap_missing_the_base_set_raises(kind, shape,
                                                         monkeypatch):
    """The row test raises before the dual Newton solve starts."""
    base = (BALL if shape == "ball"
            else qp.Box(lower=-np.ones(2), upper=np.ones(2)))
    fine = qp.linear_block(base, [[0.0, 1.0]], [0.5])
    missing = (qp.linear_block(base, [[1.0, 0.0]], [-2.0])
               if kind == "linear"
               else qp.quadratic_block(base, [[5.0, 0.0]], [1.0]))
    seq = qp.fixed_quadratic(base, [0.3, 0.9], 10)
    calls = []
    monkeypatch.setattr(problems, "_dual_solution",
                        lambda *args: calls.append(args))
    with pytest.raises(qp.InfeasibleError) as info:
        qp.hindsight_comparator(seq, qp.stack_blocks([fine, missing]))
    assert info.value.constraint_index == 1
    assert calls == []


def test_comparator_returns_the_point_where_a_cap_touches_the_ball():
    """A cap whose least value over the ball is 0 leaves one feasible point.
    On the unit ball under ``x_1 <= -1`` with the loss ``<(0, -1), x>``,
    where the staged path raised ``ConvergenceError``, that is (-1, 0); a
    quadratic cap touching the ball from outside gives its touching point
    too.  A cap 1e-9 inside the ball is not tangent: its answer lies on
    the small disc the cap cuts, 4.5e-5 from the touching point."""
    seq = qp.fixed_linear(BALL, [0.0, -1.0], 10)
    tangent = qp.linear_block(BALL, [[1.0, 0.0]], [-1.0])
    assert qp.hindsight_comparator(seq, tangent).tolist() == [-1.0, 0.0]
    outside = qp.quadratic_block(BALL, [[2.0, 0.0]], [1.0])
    assert qp.hindsight_comparator(seq, outside).tolist() == [1.0, 0.0]
    inside = qp.linear_block(BALL, [[1.0, 0.0]], [-1.0 + 1e-9])
    assert problems._check_rows_reach_base(inside) is None
    x = qp.hindsight_comparator(seq, inside)
    assert float(qp.constraint_eval(inside, x)[0][0]) <= 1e-8
    assert x[1] > 4e-5


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_comparator_of_coefficients_whose_squares_overflow():
    """golden-d2 on the coefficients (1e200, -1e200): the flat Lagrangian's
    ``w @ w`` overflows, and is measured without squaring, so the
    comparator is the ball point against the loss, where the run plays,
    and not the ball's center, which ``_certified`` refuses."""
    data = qp.shipped_scenario("golden-d2", horizon=50).to_dict()
    data["loss"] = {"family": "fixed", "coeffs": [1e200, -1e200]}
    cfg = qp.ScenarioConfig.from_dict(data)
    built = qp.build_scenario(cfg)
    x = qp.hindsight_comparator(built.seq, built.block)
    assert np.allclose(x, [-0.5**0.5, 0.5**0.5], rtol=0.0, atol=1e-12)
    x_dual, nu = problems._dual_solution(built.seq, built.block)
    assert x_dual.tobytes() == x.tobytes()
    assert not problems._certified(built.seq, built.block,
                                   built.base.center, nu)
    _, report = qp.run_scenario(cfg)
    # near 0 against the scale of 50 losses of size 1.4e200 each
    assert abs(report.regret) <= 1e-12 * 50 * np.hypot(1e200, 1e200)


def test_comparator_tangent_cap_names_the_row_that_fails_there():
    """Another row that exceeds 1e-6 at the one feasible point makes the
    instance infeasible, and the error names that row."""
    seq = qp.fixed_linear(BALL, [0.0, -1.0], 10)
    block = qp.stack_blocks([
        qp.quadratic_block(BALL, [[2.0, 0.0]], [1.0]),
        qp.linear_block(BALL, [[0.0, -1.0]], [-0.5])])
    with pytest.raises(qp.InfeasibleError) as info:
        qp.hindsight_comparator(seq, block)
    assert info.value.constraint_index == 1


def test_comparator_tangent_cap_on_a_box_takes_the_staged_path():
    """A linear cap tangent to a box touches a whole face, so the row test
    returns no point and a linear loss takes the staged path."""
    box = qp.Box(lower=-np.ones(2), upper=np.ones(2))
    seq = qp.fixed_linear(box, [0.0, -1.0], 10)
    block = qp.linear_block(box, [[1.0, 0.0]], [-1.0])
    assert problems._check_rows_reach_base(block) is None
    x = qp.hindsight_comparator(seq, block)
    assert x.tobytes() == problems._staged_comparator(seq, block).tobytes()
    assert np.allclose(x, [-1.0, 1.0], atol=1e-8)

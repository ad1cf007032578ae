"""Scenario configs, the shipped registry, sweeps, and CSV determinism."""
import filecmp
import math
import threading
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import queueprox as qp
from queueprox import harness
from queueprox.cli import main
from oracles import (SMALL_BLOCK_ROUNDS, SWEEP_DIGESTS, SWEEP_HORIZONS,
                     SWEEP_SEEDS, sweep_digest, sweep_templates)


def small_config(horizon=50, seed=0):
    return qp.shipped_scenario("golden-d2", horizon=horizon, seed=seed)


def test_config_round_trip_equality():
    cfg = small_config()
    assert qp.ScenarioConfig.from_dict(cfg.to_dict()) == cfg


def test_config_json_round_trip(tmp_path):
    cfg = small_config()
    path = tmp_path / "cfg.json"
    cfg.to_json(str(path))
    again = qp.ScenarioConfig.from_json(str(path))
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_config_rejects_unknown_fields():
    data = small_config().to_dict()
    data["step_size"] = 0.1
    with pytest.raises(qp.ConfigError) as err:
        qp.ScenarioConfig.from_dict(data)
    assert err.value.fields == ["step_size"]


def test_config_rejects_zero_horizon():
    data = small_config().to_dict()
    data["horizon"] = 0
    with pytest.raises(qp.ConfigError) as err:
        qp.ScenarioConfig.from_dict(data)
    assert "horizon" in err.value.fields


def test_config_rejects_simplex_variant_on_ball():
    data = small_config().to_dict()
    data["variant"] = "ompd-simplex"
    with pytest.raises(qp.ConfigError) as err:
        qp.ScenarioConfig.from_dict(data)
    assert "variant" in err.value.fields
    assert "geometry" in err.value.fields


def test_config_rejects_bad_v_cap():
    data = small_config().to_dict()
    data["v_cap"] = {"mode": "supplied", "value": -3.0}
    with pytest.raises(qp.ConfigError) as err:
        qp.ScenarioConfig.from_dict(data)
    assert "v_cap" in err.value.fields


def test_every_shipped_scenario_validates_and_builds():
    for name in qp.SHIPPED_SCENARIOS:
        cfg = qp.shipped_scenario(name, horizon=10)
        assert cfg.scenario_id == name
        cfg.validate()
        built = qp.build_scenario(cfg)
        assert built.seq.horizon == 10
        assert built.hp.v_cap >= 0.0


def test_shipped_scenario_unknown_name():
    with pytest.raises(qp.ConfigError):
        qp.shipped_scenario("golden-d3")


def test_fit_loglog_slope_linear_and_flat():
    horizons = [100, 1000, 10000]
    slope, offset = qp.fit_loglog_slope(horizons, [3.0 * t for t in horizons])
    assert slope == pytest.approx(1.0, abs=1e-6)
    assert offset == 0.0
    slope, offset = qp.fit_loglog_slope(horizons, [5.0, 5.0, 5.0])
    assert slope == pytest.approx(0.0, abs=1e-6)


def test_fit_loglog_slope_offsets_nonpositive_series():
    slope, offset = qp.fit_loglog_slope([10, 100], [-2.0, -2.0])
    assert offset == 3.0
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_loglog_slope_needs_two_points():
    with pytest.raises(ValueError):
        qp.fit_loglog_slope([100], [1.0])


def test_sweep_single_horizon_has_absent_slopes(tmp_path):
    spec = qp.SweepSpec(config=small_config(), horizons=(40,), seeds=(0, 1))
    result = qp.sweep(spec, out_dir=str(tmp_path))
    assert len(result.reports) == 2
    assert result.regret_slope is None
    assert result.violation_slope is None


def test_sweep_two_horizons_fits_slopes():
    spec = qp.SweepSpec(config=small_config(), horizons=(40, 80), seeds=(0,))
    result = qp.sweep(spec)
    assert len(result.reports) == 2
    assert result.regret_slope is not None
    assert result.violation_slope is not None
    assert result.horizons == (40, 80)


def test_sweep_spec_validation():
    with pytest.raises(qp.ConfigError):
        qp.SweepSpec(config=small_config(), horizons=(), seeds=(0,))
    with pytest.raises(qp.ConfigError):
        qp.SweepSpec(config=small_config(), horizons=(10, 0), seeds=(0,))
    with pytest.raises(qp.ConfigError):
        qp.SweepSpec(config=small_config(), horizons=(10,), seeds=())


def test_run_scenario_csv_replay_is_byte_identical(tmp_path):
    cfg = small_config(horizon=30)
    dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
    qp.run_scenario(cfg, out_dir=dir_a)
    qp.run_scenario(cfg, out_dir=dir_b)
    name = "golden-d2_T30_seed0.csv"
    assert filecmp.cmp(f"{dir_a}/{name}", f"{dir_b}/{name}", shallow=False)
    assert filecmp.cmp(f"{dir_a}/summary.csv", f"{dir_b}/summary.csv",
                       shallow=False)


def test_trace_metadata_stamped_by_run_scenario():
    cfg = small_config(horizon=20, seed=5)
    trace, report = qp.run_scenario(cfg)
    assert trace.scenario_id == "golden-d2"
    assert trace.seed == 5
    assert trace.config_hash == cfg.config_hash()
    assert report.horizon == 20


def test_sweep_runs_every_batch_on_the_calling_thread(monkeypatch):
    threads = []
    run_batch = harness.alg.run_batch

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(harness.alg, "run_batch", recording)
    before = threading.active_count()
    spec = qp.SweepSpec(config=small_config(), horizons=(20, 40), seeds=(0, 1))
    assert len(qp.sweep(spec).reports) == 4
    assert threads and threads == [threading.get_ident()] * len(threads)
    assert threading.active_count() == before


def _trace_bytes(trace):
    """Bytes of a full trace's arrays, each counted once."""
    arrays = [trace.anchors, trace.queues, trace.g_values, trace.losses,
              trace.alphas, trace.xis]
    if trace.decisions.base is not trace.anchors:
        arrays.append(trace.decisions)
    return sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
def test_sweep_batches_hold_at_most_one_trace_of_bytes(monkeypatch, name):
    # a batch's loss tables and lean outputs fit in the bytes of one full
    # trace at its horizon, and no finished batch's outputs stay alive
    # while the next batch runs
    held = []
    batches = []
    run_batch = harness.alg.run_batch

    def recording(variant, scenarios, horizon, probe_rounds=()):
        assert all(ref() is None for ref in held)
        summaries = run_batch(variant, scenarios, horizon, probe_rounds)
        outputs = {id(a.base if a.base is not None else a): (
                       a.base if a.base is not None else a).nbytes
                   for s in summaries
                   for a in (s.losses, s.g_values, s.final_queue, s.probes)
                   if a is not None}
        tables = sum(t.nbytes for sc in scenarios
                     for t in (sc.seq.coeffs, sc.seq.scales, sc.seq.targets)
                     if t is not None)
        trace = harness.alg.run(variant, scenarios[0], horizon)
        assert tables + sum(outputs.values()) <= _trace_bytes(trace)
        batches.append((horizon, len(scenarios)))
        held.extend(weakref.ref(s) for s in summaries)
        return summaries

    monkeypatch.setattr(harness.alg, "run_batch", recording)
    spec = qp.SweepSpec(config=sweep_templates()[name],
                        horizons=SWEEP_HORIZONS, seeds=SWEEP_SEEDS)
    assert len(qp.sweep(spec).reports) == 9
    # rotating drift's tables have T + 1 rows: its seeds go two at a time
    sizes = [2, 1] if name == "rotating-drift" else [3]
    assert batches == [(T, k) for T in SWEEP_HORIZONS for k in sizes]


def _bits(value):
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return np.asarray(value).tobytes()


def test_sweep_orders_unsorted_grid_and_matches_single_runs():
    spec = qp.SweepSpec(config=qp.shipped_scenario("alternating-d2"),
                        horizons=(60, 30, 60), seeds=(2, 0))
    result = qp.sweep(spec)
    cells = [(30, 0), (30, 2), (60, 0), (60, 0), (60, 2), (60, 2)]
    assert [(r.horizon, r.extras["seed"]) for r in result.reports] == cells
    for report, (T, seed) in zip(result.reports, cells):
        _, single = qp.run_scenario(replace(spec.config, horizon=T, seed=seed))
        for f in fields(single):
            a, b = getattr(report, f.name), getattr(single, f.name)
            if f.name == "extras":    # every extra but the wall time
                assert a.keys() == b.keys()
                a = [a[k] for k in a if k != "runtime_s"]
                b = [b[k] for k in b if k != "runtime_s"]
            assert _bits(a) == _bits(b), f.name


def test_sweep_summary_csv_replay_is_byte_identical(tmp_path):
    spec = qp.SweepSpec(config=small_config(), horizons=(30, 20), seeds=(1, 0))
    dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
    qp.sweep(spec, out_dir=dir_a)
    qp.sweep(spec, out_dir=dir_b)
    assert filecmp.cmp(f"{dir_a}/summary.csv", f"{dir_b}/summary.csv",
                       shallow=False)


@pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
def test_sweep_matches_frozen_digest(tmp_path, name):
    spec = qp.SweepSpec(config=sweep_templates()[name],
                        horizons=SWEEP_HORIZONS, seeds=SWEEP_SEEDS)
    result = qp.sweep(spec, out_dir=str(tmp_path))
    summary = (tmp_path / "summary.csv").read_bytes()
    assert sweep_digest(result, summary) == SWEEP_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
def test_sweep_digest_holds_in_small_blocks(tmp_path, name, monkeypatch):
    monkeypatch.setattr(qp.problems, "BLOCK_ROUNDS", SMALL_BLOCK_ROUNDS)
    test_sweep_matches_frozen_digest(tmp_path, name)


def test_write_shipped_configs_round_trip(tmp_path):
    paths = qp.write_shipped_configs(str(tmp_path))
    assert len(paths) == len(qp.SHIPPED_SCENARIOS)
    for name, path in zip(qp.SHIPPED_SCENARIOS, paths):
        assert qp.ScenarioConfig.from_json(path) == qp.shipped_scenario(name)


# every shipped config's hash, recorded before ``to_dict`` and ``from_dict``
# were derived from the dataclass fields
SHIPPED_CONFIG_HASHES = {
    "golden-d2": "9cb355f2feba",
    "fixed-quadratic-ball": "5a60dce4247d",
    "drift-rotate-d2": "a1247befbe9f",
    "alternating-d2": "c5f166d225dd",
    "box-mixed-d3": "245b4a10b61c",
    "simplex-d10": "931079891c37",
}


def test_shipped_config_hashes_hold():
    assert {name: qp.shipped_scenario(name).config_hash()
            for name in qp.SHIPPED_SCENARIOS} == SHIPPED_CONFIG_HASHES


def test_write_shipped_configs_matches_the_scenario_files(tmp_path):
    """The README runs ``scenarios/*.json``: they are the registry's bytes."""
    shipped = Path(__file__).resolve().parent.parent / "scenarios"
    paths = qp.write_shipped_configs(str(tmp_path))
    assert sorted(p.name for p in shipped.glob("*.json")) == sorted(
        Path(p).name for p in paths)
    for path in paths:
        assert Path(path).read_bytes() == (shipped / Path(path).name).read_bytes()


def test_unconstrained_config_runs_and_checks(tmp_path, capsys):
    """K = 0: the round CSV has no constraint columns, and every check
    passes."""
    cfg = replace(small_config(horizon=30), constraints=None)
    trace, report = qp.run_scenario(cfg, out_dir=str(tmp_path))
    assert trace.n_constraints == 0 and trace.queues.shape == (32, 0)
    rounds = tmp_path / "golden-d2_T30_seed0.csv"
    lines = rounds.read_text().splitlines()
    assert lines[0] == "t,loss,cum_loss,q_l1,q_l2,alpha,xi"
    assert len(lines) == 31
    path = tmp_path / "unconstrained.json"
    cfg.to_json(str(path))
    assert main(["check", "--config", str(path)]) == 0
    assert "error" not in capsys.readouterr().err


def test_rotate_schedule_without_random_plane_uses_the_first_two_axes():
    data = qp.shipped_scenario("drift-rotate-d2", horizon=40).to_dict()
    del data["loss"]["random_plane"]
    built = qp.build_scenario(qp.ScenarioConfig.from_dict(data))
    loss = data["loss"]
    fixed = qp.rotating_drift(built.base, loss["amplitude"],
                              loss["rate"], 40)
    x = qp.center(built.base)
    for t in (1, 2, 17, 40):
        assert np.array_equal(built.seq.grad(t, x), fixed.grad(t, x))
    assert np.array_equal(built.seq.grad(1, x), [loss["amplitude"], 0.0])


# ---------------------------------------------------------------------------
# config fuzzing: a malformed dict is a ConfigError, any other one runs soundly
# ---------------------------------------------------------------------------

# values of the wrong type or non-finite, by the kind of leaf they replace
_JUNK = {
    int: [2.7, "3", True, None, -1, 0],
    float: [math.nan, math.inf, -math.inf, True, False, "x", "0.7", None],
    list: [[math.nan], [math.inf], [1.0], [], "x", None, True, [True],
           ["0.5"]],
    str: ["ompd", "pd-baseline", "ompd-simplex", "euclidean", "entropic",
          "ball", "box", "simplex", "linear", "quadratic", "fixed",
          "alternating", "linear-drift", "quadratic-drift", "custom",
          "rotate", "line", "cubic", "exact", "supplied", "", ["ball"], 1,
          None],
}


def _leaves(node, path=()):
    """Paths to every leaf of a config dict: scalars and vectors; a matrix
    or a list of blocks is walked row by row."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list) and node and isinstance(node[0], (dict, list)):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


@st.composite
def _fuzzed_configs(draw):
    """A shipped scenario's dict at a small horizon with one to three leaves
    replaced or deleted.  A number is either scaled by 0.5 to 1.5 (an int
    moved by at most 1), which keeps every shipped instance feasible, or
    replaced by a value of the wrong type or a non-finite one; a vector
    likewise, entry by entry or whole."""
    name = draw(st.sampled_from(qp.SHIPPED_SCENARIOS))
    data = qp.shipped_scenario(name, horizon=draw(st.integers(1, 20)),
                               seed=draw(st.integers(0, 3))).to_dict()
    paths = list(_leaves(data))
    for path in draw(st.lists(st.sampled_from(paths), min_size=1,
                              max_size=3, unique=True)):
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]]
        kind = next((t for t in (bool, int, float, list, str)
                     if isinstance(value, t)), None)
        scale = st.floats(0.5, 1.5)
        if kind is None or draw(st.integers(0, 5)) == 0:
            if isinstance(parent, dict):
                del parent[path[-1]]
            continue
        if kind is bool:
            choices = st.booleans()
        elif kind is int:
            choices = st.integers(value - 1, value + 1)
        elif kind is float:
            choices = scale.map(lambda f, v=value: f * v)
        elif kind is list:
            choices = st.lists(scale, min_size=len(value),
                               max_size=len(value)).map(
                lambda fs, v=value: [f * x for f, x in zip(fs, v)])
        else:
            choices = st.nothing()
        junk = st.sampled_from(_JUNK[int if kind is bool else kind])
        parent[path[-1]] = draw(choices | junk)
    return data


@settings(max_examples=40, deadline=None)
@given(data=_fuzzed_configs())
def test_fuzzed_configs_fail_as_config_errors_or_run_soundly(data):
    """Every dict either raises ``ConfigError`` (from ``from_dict`` or the
    build) or runs with the violation certificate ``sum_t g_k(x_t) <=
    ||Q(T+1)||_2 / gamma`` holding, and the queue lemma too in the
    mirror-prox variants, whose queue it describes (the baseline feeds its
    queue the same round's constraint values)."""
    try:
        config = qp.ScenarioConfig.from_dict(data)
        trace, report = qp.run_scenario(config)
    except qp.ConfigError:
        return
    holds, _ = qp.violation_bound_check(trace)
    assert holds
    if config.variant != qp.VARIANT_BASELINE:
        assert qp.check_queue_lemma(trace).passed
    assert np.isfinite(report.regret)


# ---------------------------------------------------------------------------
# numeric fields take JSON numbers only
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, part, key, value", [
    ("drift-rotate-d2", "loss", "amplitude", "0.7"),
    ("golden-d2", "base", "radius", True),
    ("golden-d2", "constraints", "b", [True]),
    ("golden-d2", "base", "center", ["0", "0"]),
])
def test_numeric_fields_reject_strings_and_booleans(name, part, key, value):
    data = qp.shipped_scenario(name, horizon=5).to_dict()
    data[part][key] = value
    with pytest.raises(qp.ConfigError) as err:
        qp.run_scenario(qp.ScenarioConfig.from_dict(data))
    assert repr(key) in str(err.value)


def _is_json_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def _stringly_numbers(draw):
    """A shipped scenario's dict with one number, or one entry of a vector
    or matrix row, replaced by a boolean or a string that reads as a
    number."""
    name = draw(st.sampled_from(qp.SHIPPED_SCENARIOS))
    data = qp.shipped_scenario(name, horizon=5).to_dict()
    paths = []
    for path in _leaves(data):
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]]
        if _is_json_number(value):
            paths.append((parent, path[-1]))
        elif isinstance(value, list) and all(map(_is_json_number, value)):
            paths.extend((value, i) for i in range(len(value)))
    parent, key = draw(st.sampled_from(paths))
    parent[key] = draw(st.sampled_from([True, False, "0.7", "1", "0"]))
    return data


@settings(max_examples=40, deadline=None)
@given(data=_stringly_numbers())
def test_stringly_numbers_fail_as_config_errors(data):
    with pytest.raises(qp.ConfigError):
        qp.run_scenario(qp.ScenarioConfig.from_dict(data))

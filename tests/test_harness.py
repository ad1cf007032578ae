"""Scenario configs, the shipped registry, sweeps, and CSV determinism."""
import filecmp
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

import queueprox as qp
from queueprox import harness


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


def test_sweep_runs_every_cell_on_the_calling_thread(monkeypatch):
    threads = []
    run_scenario = harness.run_scenario

    def recording(config, out_dir=None):
        threads.append(threading.get_ident())
        return run_scenario(config, out_dir=out_dir)

    monkeypatch.setattr(harness, "run_scenario", recording)
    spec = qp.SweepSpec(config=small_config(), horizons=(20, 40), seeds=(0, 1))
    qp.sweep(spec)
    assert threads == [threading.get_ident()] * 4


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


def test_write_shipped_configs_round_trip(tmp_path):
    paths = qp.write_shipped_configs(str(tmp_path))
    assert len(paths) == len(qp.SHIPPED_SCENARIOS)
    for name, path in zip(qp.SHIPPED_SCENARIOS, paths):
        assert qp.ScenarioConfig.from_json(path) == qp.shipped_scenario(name)

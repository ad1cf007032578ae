"""The run / sweep / check entry points and their exit codes."""
import json

import pytest

import queueprox as qp
from queueprox.cli import _parse_int_list, main


@pytest.fixture
def golden_path(tmp_path):
    path = tmp_path / "golden.json"
    qp.shipped_scenario("golden-d2", horizon=40).to_json(str(path))
    return str(path)


def test_parse_int_list_forms():
    assert _parse_int_list("100,1000") == (100, 1000)
    assert _parse_int_list("0..3") == (0, 1, 2, 3)
    assert _parse_int_list(" 7 ") == (7,)


def test_run_prints_metrics_line(golden_path, capsys):
    assert main(["run", "--config", golden_path]) == 0
    out = capsys.readouterr().out
    assert "scenario=golden-d2" in out
    assert "regret=" in out and "queue_bound=" in out


def test_run_seed_override_and_out_dir(golden_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    assert main(["run", "--config", golden_path, "--seed", "3",
                 "--out", str(out_dir)]) == 0
    assert "seed=3" in capsys.readouterr().out
    assert (out_dir / "golden-d2_T40_seed3.csv").exists()
    assert (out_dir / "summary.csv").exists()


def test_sweep_prints_slopes(golden_path, capsys):
    assert main(["sweep", "--config", golden_path, "--T", "30,60",
                 "--seeds", "0,1"]) == 0
    out = capsys.readouterr().out
    assert out.count("scenario=golden-d2") == 4
    assert "regret_slope=" in out and "violation_slope=" in out


def test_sweep_single_horizon_reports_absent_slopes(golden_path, capsys):
    assert main(["sweep", "--config", golden_path, "--T", "30",
                 "--seeds", "0..2"]) == 0
    assert "regret_slope=absent" in capsys.readouterr().out


def test_check_all_lemmas_and_csv(golden_path, tmp_path, capsys):
    out_dir = tmp_path / "checks"
    assert main(["check", "--config", golden_path,
                 "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    for token in ("queue", "dpp", "pushback"):
        assert f"check={token}" in out
    assert "check=mixing skipped" in out
    lines = (out_dir / "checks.csv").read_text().splitlines()
    assert lines[0] == "check,rounds,samples,max_residual,pass"
    assert len(lines) == 5


def test_check_simplex_runs_every_certificate(tmp_path, capsys):
    path = tmp_path / "simplex.json"
    qp.shipped_scenario("simplex-d10", horizon=60).to_json(str(path))
    assert main(["check", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "skipped" not in out
    for token in ("queue", "dpp", "pushback", "mixing"):
        assert f"check={token}" in out


def test_check_subset_of_lemmas(golden_path, capsys):
    assert main(["check", "--config", golden_path,
                 "--lemmas", "queue,pushback"]) == 0
    out = capsys.readouterr().out
    assert "check=queue" in out and "check=pushback" in out
    assert "check=dpp" not in out


def test_check_rejects_unknown_lemma(golden_path, capsys):
    assert main(["check", "--config", golden_path,
                 "--lemmas", "bogus"]) == 2
    assert "unknown lemma tokens" in capsys.readouterr().err


def test_check_rejects_baseline_variant(tmp_path, capsys):
    data = qp.shipped_scenario("golden-d2", horizon=40).to_dict()
    data["variant"] = "pd-baseline"
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--config", str(path)]) == 2
    assert "baseline" in capsys.readouterr().err


def test_run_baseline_variant_works(tmp_path, capsys):
    data = qp.shipped_scenario("golden-d2", horizon=40).to_dict()
    data["variant"] = "pd-baseline"
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path)]) == 0
    assert "scenario=golden-d2" in capsys.readouterr().out


def test_missing_config_is_usage_error(capsys):
    assert main(["run", "--config", "/nonexistent.json"]) == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_config_is_usage_error(tmp_path, capsys):
    data = qp.shipped_scenario("golden-d2", horizon=40).to_dict()
    data["stepsize"] = 0.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path)]) == 2
    assert "unknown config fields" in capsys.readouterr().err


def test_infeasible_scenario_is_runtime_error(tmp_path, capsys):
    data = qp.shipped_scenario("golden-d2", horizon=10).to_dict()
    data["constraints"] = {"family": "linear",
                           "A": [[1.0, 0.0], [-1.0, 0.0]],
                           "b": [-2.0, -2.0]}
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


_DROP = object()


@pytest.mark.parametrize("section,key,value", [
    ("base", "center", _DROP),
    ("loss", "coeffs", _DROP),
    ("constraints", "A", _DROP),
    ("base", "radius", -1),
    (None, "horizon", True),
    (None, "seed", True),
], ids=["base-no-center", "loss-no-coeffs", "linear-no-A", "negative-radius",
        "bool-horizon", "bool-seed"])
def test_malformed_spec_is_usage_error(tmp_path, capsys, section, key, value):
    data = qp.shipped_scenario("golden-d2", horizon=10).to_dict()
    target = data if section is None else data[section]
    if value is _DROP:
        del target[key]
    else:
        target[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path)]) == 2
    assert (section or key) in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, float("nan"), float("inf")],
                         ids=["bool", "nan", "inf"])
def test_supplied_v_cap_must_be_a_finite_number(tmp_path, capsys, value):
    data = qp.shipped_scenario("golden-d2", horizon=10).to_dict()
    data["v_cap"] = {"mode": "supplied", "value": value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))     # NaN and Infinity, as JSON allows
    assert main(["run", "--config", str(path)]) == 2
    assert "v_cap" in capsys.readouterr().err

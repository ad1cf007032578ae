"""The run / sweep / check entry points and their exit codes."""
import hashlib
import json
import warnings

import pytest

import queueprox as qp
from queueprox import checks as chk
from queueprox.cli import _parse_int_list, main
from oracles import (CHECK_DIGESTS, CHECK_HORIZON, SMALL_BLOCK_ROUNDS,
                     SMALL_PROBE_FLOATS)


@pytest.fixture
def golden_path(tmp_path):
    path = tmp_path / "golden.json"
    qp.shipped_scenario("golden-d2", horizon=40).to_json(str(path))
    return str(path)


def test_every_exported_name_resolves():
    """A deleted function leaves no stale name in the package's ``__all__``."""
    missing = [name for name in qp.__all__ if not hasattr(qp, name)]
    assert missing == []


def test_parse_int_list_forms():
    assert _parse_int_list("100,1000", "--T") == (100, 1000)
    assert _parse_int_list("0..3", "--seeds") == (0, 1, 2, 3)
    assert _parse_int_list(" 7 ", "--T") == (7,)


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


@pytest.mark.parametrize("scenario", sorted(CHECK_DIGESTS))
def test_check_csv_is_frozen(tmp_path, scenario):
    path = tmp_path / "config.json"
    qp.shipped_scenario(scenario, horizon=CHECK_HORIZON).to_json(str(path))
    out_dir = tmp_path / "checks"
    assert main(["check", "--config", str(path), "--lemmas", "all",
                 "--out", str(out_dir)]) == 0
    data = (out_dir / "checks.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == CHECK_DIGESTS[scenario]


@pytest.mark.parametrize("scenario", sorted(CHECK_DIGESTS))
def test_check_csv_digest_holds_in_small_blocks(tmp_path, scenario,
                                                monkeypatch):
    monkeypatch.setattr(qp.problems, "BLOCK_ROUNDS", SMALL_BLOCK_ROUNDS)
    for budget in SMALL_PROBE_FLOATS:
        monkeypatch.setattr(chk, "PROBE_FLOATS", budget)
        (tmp_path / str(budget)).mkdir()
        test_check_csv_is_frozen(tmp_path / str(budget), scenario)


def _run_variants(name):
    """A shipped scenario's own variant, and the baseline off the simplex."""
    own = qp.shipped_scenario(name).variant
    return [own] if own == qp.VARIANT_SIMPLEX else [own, qp.VARIANT_BASELINE]


@pytest.mark.parametrize("command, scenario, variant", [
    pytest.param("check", name, None, id=name)
    for name in qp.SHIPPED_SCENARIOS
    if qp.shipped_scenario(name).variant != qp.VARIANT_BASELINE] + [
    pytest.param(command, name, variant, id=f"{command}-{variant}-{name}")
    for command in ("run", "sweep")
    for name in qp.SHIPPED_SCENARIOS for variant in _run_variants(name)])
def test_check_path_lets_no_warning_escape(tmp_path, command, scenario,
                                           variant, capsys):
    path = tmp_path / "config.json"
    data = qp.shipped_scenario(scenario).to_dict()
    data["variant"] = variant or data["variant"]
    path.write_text(json.dumps(data))
    extra = {"check": ["--lemmas", "all"], "run": [],
             "sweep": ["--T", "30,60", "--seeds", "0,1,2"]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(path), *extra]) == 0
    assert "FAIL" not in capsys.readouterr().out


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


@pytest.mark.parametrize("argv,content,named", [
    (["sweep", "--T", "abc", "--seeds", "0"], None, "--T"),
    (["sweep", "--T", "10..x", "--seeds", "0"], None, "--T"),
    (["sweep", "--T", "10", "--seeds", "abc"], None, "--seeds"),
    (["sweep", "--T", "10", "--seeds", "0..x"], None, "--seeds"),
    (["run"], b"5", "JSON object"),
    (["run"], b"null", "JSON object"),
    (["run"], b'{"scenario_id": ', "cannot read config"),
    (["run"], b'{"scenario_id": "\xff"}', "cannot read config"),
    (["run"], "directory", "cannot read config"),
], ids=["T-word", "T-range", "seeds-word", "seeds-range", "number-config",
        "null-config", "malformed-json", "non-utf8", "directory"])
def test_malformed_cli_input_is_usage_error(tmp_path, golden_path, capsys,
                                            argv, content, named):
    """Bad flag values and unreadable config files exit 2 with one
    ``error:`` line, not a traceback."""
    path = golden_path
    if content == "directory":
        path = str(tmp_path)
    elif content is not None:
        path = str(tmp_path / "bad.json")
        with open(path, "wb") as fh:
            fh.write(content)
    assert main([argv[0], "--config", path, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


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
    (None, "scenario_id", _DROP),
    (None, "geometry", ["euclidean"]),
    ("loss", "coeffs", [1.0]),
], ids=["base-no-center", "loss-no-coeffs", "linear-no-A", "negative-radius",
        "bool-horizon", "bool-seed", "no-scenario-id", "list-geometry",
        "loss-wrong-dimension"])
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


@pytest.mark.parametrize("scenario,key,value", [
    ("fixed-quadratic-ball", "scale", float("nan")),
    ("fixed-quadratic-ball", "scale", float("inf")),
    ("box-mixed-d3", "scale0", float("nan")),
    ("box-mixed-d3", "scale_drift", float("nan")),
    ("fixed-quadratic-ball", "scale", True),
    ("box-mixed-d3", "scale0", True),
    ("fixed-quadratic-ball", "target", [float("nan"), 0.0]),
    ("box-mixed-d3", "target_drift", [float("nan"), 0.0, 0.0]),
], ids=["fixed-nan", "fixed-inf", "drift-scale0-nan", "drift-scale_drift-nan",
        "fixed-bool", "drift-scale0-bool", "fixed-target-nan",
        "drift-target_drift-nan"])
def test_quadratic_loss_fields_must_be_finite_numbers(tmp_path, capsys,
                                                      scenario, key, value):
    data = qp.shipped_scenario(scenario, horizon=20).to_dict()
    data["loss"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))     # NaN and Infinity, as JSON allows
    assert main(["run", "--config", str(path)]) == 2
    assert "loss" in capsys.readouterr().err


@pytest.mark.parametrize("scenario,keys,value", [
    ("golden-d2", ("grad_lipschitz",), True),
    ("alternating-d2", ("grad_lipschitz",), True),
    ("alternating-d2", ("grad_lipschitz",), float("nan")),
    ("drift-rotate-d2", ("grad_lipschitz",), float("inf")),
    ("drift-rotate-d2", ("amplitude",), True),
    ("drift-rotate-d2", ("amplitude",), float("nan")),
    ("drift-rotate-d2", ("rate",), float("inf")),
    ("alternating-d2", ("random", "amplitude"), True),
    ("alternating-d2", ("random", "amplitude"), float("nan")),
    ("alternating-d2", ("random",), 5),
], ids=["fixed-lipschitz-bool", "alternating-lipschitz-bool",
        "alternating-lipschitz-nan", "rotate-lipschitz-inf",
        "rotate-amplitude-bool", "rotate-amplitude-nan", "rotate-rate-inf",
        "random-amplitude-bool", "random-amplitude-nan", "random-not-a-mapping"])
def test_linear_loss_fields_must_be_finite_numbers(tmp_path, capsys,
                                                   scenario, keys, value):
    data = qp.shipped_scenario(scenario, horizon=20).to_dict()
    target = data["loss"]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))     # NaN and Infinity, as JSON allows
    assert main(["run", "--config", str(path)]) == 2
    assert "loss" in capsys.readouterr().err


def test_non_finite_variation_is_usage_error(tmp_path, capsys):
    data = qp.shipped_scenario("alternating-d2", horizon=20).to_dict()
    data["loss"] = {"family": "alternating", "first": [float("nan"), 0.0],
                    "second": [0.0, 0.5]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path)]) == 2
    assert "loss" in capsys.readouterr().err


@pytest.mark.parametrize("loss, refused", [
    ({"family": "linear-drift", "start": [1e308, 0.0],
      "drift": [1e308, 0.0]}, "coeffs must be finite"),
    ({"family": "quadratic-drift", "target0": [0.0, 0.0],
      "target_drift": [1e300, 0.0], "scale0": 1e10},
     "grad_bound is not finite"),
], ids=["linear-drift-table", "quadratic-drift-grad-bound"])
def test_overflowing_loss_constants_are_usage_errors(tmp_path, capsys, loss,
                                                     refused):
    # finite config numbers whose table or constant overflows: refused when
    # the loss is built, with no numpy warning
    data = qp.shipped_scenario("golden-d2", horizon=50).to_dict()
    data["loss"] = loss
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(path)]) == 2
    assert refused in capsys.readouterr().err


@pytest.mark.parametrize("scenario,index,key,value", [
    ("golden-d2", None, "A", [[float("nan"), 0.0]]),
    ("golden-d2", None, "b", [float("inf")]),
    ("box-mixed-d3", 1, "centers", [[0.0, float("nan"), 0.0]]),
    ("box-mixed-d3", 1, "offsets", [float("-inf")]),
], ids=["linear-A-nan", "linear-b-inf", "quadratic-centers-nan",
        "quadratic-offsets-inf"])
def test_constraint_tables_must_be_finite(tmp_path, capsys, scenario, index,
                                          key, value):
    data = qp.shipped_scenario(scenario, horizon=20).to_dict()
    spec = data["constraints"] if index is None else data["constraints"][index]
    spec[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))     # NaN and Infinity, as JSON allows
    assert main(["run", "--config", str(path)]) == 2
    assert "constraints" in capsys.readouterr().err


@pytest.mark.parametrize("scenario,section,keys,value", [
    ("golden-d2", "loss", ("form",), "cubic"),
    ("drift-rotate-d2", "loss", ("schedule",), "bogus"),
    ("simplex-d10", "constraints", ("random", "amplitude"), float("nan")),
    ("simplex-d10", "constraints", ("random", "amplitude"), 1e308),
    ("simplex-d10", "constraints", ("random", "slater_margin"), True),
    ("simplex-d10", "constraints", ("random", "count"), 2.7),
    ("golden-d2", "base", ("radius",), float("nan")),
    ("golden-d2", "base", ("radius",), float("inf")),
    ("golden-d2", "base", ("center",), [float("nan"), 0.0]),
    ("box-mixed-d3", "base", ("upper",), [1.0, float("inf"), 1.0]),
    ("simplex-d10", "base", ("dim",), 2.7),
    ("simplex-d10", "base", ("dim",), "3"),
    ("fixed-quadratic-ball", "loss", ("scale",), 1e200),
    ("alternating-d2", "loss", ("grad_lipschitz",), 1e160),
], ids=["form-cubic", "schedule-bogus", "cap-amplitude-nan",
        "cap-amplitude-overflow", "cap-margin-bool", "cap-count-float",
        "radius-nan", "radius-inf", "center-nan", "box-upper-inf",
        "simplex-dim-float", "simplex-dim-string",
        "quadratic-scale-squared-overflows", "lipschitz-squared-overflows"])
def test_malformed_fields_fail_at_build_time(tmp_path, capsys, scenario,
                                             section, keys, value):
    """Unknown enumeration values, malformed random-cap parameters,
    non-finite or non-integer base sets and a loss whose weight schedule
    overflows are usage errors naming their section, raised before round
    1."""
    data = qp.shipped_scenario(scenario, horizon=10).to_dict()
    target = data[section]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))     # NaN and Infinity, as JSON allows
    assert main(["run", "--config", str(path)]) == 2
    assert section in capsys.readouterr().err

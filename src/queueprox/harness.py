"""Scenario configuration, benchmark runs, and sweep orchestration.

A scenario is a JSON-serializable description of one experiment: geometry,
base set, constraint block, loss family, horizon, seed, solver variant,
and how the variation cap is obtained.  Identical configs with identical
seeds reproduce byte-identical CSV output.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import algorithm as alg
from . import geometry as geo
from . import metrics as met
from . import problems as prob
from .errors import ConfigError, QueueproxError
from .trace import RunTrace

_VARIANTS = set(alg.VARIANTS)
_GEOMETRIES = {"euclidean", "entropic"}
_LOSS_FAMILIES = {"fixed", "linear-drift", "alternating", "quadratic-drift",
                  "custom"}
_CONSTRAINT_FAMILIES = {"linear", "quadratic"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment, fully determined together with its seed."""

    scenario_id: str
    geometry: str
    base: dict
    loss: dict
    horizon: int
    seed: int = 0
    variant: str = alg.VARIANT_GENERAL
    constraints: dict | list | None = None
    v_cap: dict = field(default_factory=lambda: {"mode": "exact"})
    out: str | None = None

    def to_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "geometry": self.geometry,
            "base": self.base,
            "constraints": self.constraints,
            "loss": self.loss,
            "horizon": self.horizon,
            "seed": self.seed,
            "variant": self.variant,
            "v_cap": self.v_cap,
            "out": self.out,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = {f: data[f] for f in (
            "scenario_id", "geometry", "base", "constraints", "loss",
            "horizon", "seed", "variant", "v_cap", "out") if f in data}
        unknown = set(data) - set(known)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}",
                              fields=sorted(unknown))
        cfg = cls(**known)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path: str) -> "ScenarioConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_json(self, path: str) -> None:
        with open(path, "w", newline="\n") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def validate(self) -> None:
        bad: list[str] = []
        if not self.scenario_id or not isinstance(self.scenario_id, str):
            bad.append("scenario_id")
        if self.geometry not in _GEOMETRIES:
            bad.append("geometry")
        if not _is_int(self.horizon) or self.horizon < 1:
            bad.append("horizon")
        if not _is_int(self.seed) or self.seed < 0:
            bad.append("seed")
        if self.variant not in _VARIANTS:
            bad.append("variant")
        base_kind = self.base.get("kind") if isinstance(self.base, dict) else None
        if base_kind not in {"ball", "box", "simplex"}:
            bad.append("base")
        mode = self.v_cap.get("mode") if isinstance(self.v_cap, dict) else None
        if mode not in {"exact", "supplied"}:
            bad.append("v_cap")
        elif mode == "supplied":
            value = self.v_cap.get("value")
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or not math.isfinite(value) or value < 0):
                bad.append("v_cap")
        if not isinstance(self.loss, dict) or \
                self.loss.get("family") not in _LOSS_FAMILIES:
            bad.append("loss")
        if self.constraints is not None:
            blocks = (self.constraints if isinstance(self.constraints, list)
                      else [self.constraints])
            for item in blocks:
                if not isinstance(item, dict) or \
                        item.get("family") not in _CONSTRAINT_FAMILIES:
                    bad.append("constraints")
                    break
        # pairing rules: the simplex variant runs the entropic pairing on the
        # simplex; the other variants need the euclidean pairing on ball/box
        if "geometry" not in bad and "base" not in bad and "variant" not in bad:
            if self.variant == alg.VARIANT_SIMPLEX:
                if self.geometry != "entropic" or base_kind != "simplex":
                    bad.extend(["variant", "geometry"])
            else:
                if self.geometry != "euclidean" or base_kind == "simplex":
                    bad.extend(["variant", "geometry"])
        if bad:
            raise ConfigError(f"invalid config fields: {sorted(set(bad))}",
                              fields=sorted(set(bad)))


def _build_base(config: ScenarioConfig) -> geo.BaseSet:
    spec = config.base
    kind = spec["kind"]
    if kind == "ball":
        return geo.Ball(center=np.asarray(spec["center"], dtype=float),
                        radius=float(spec["radius"]))
    if kind == "box":
        return geo.Box(lower=np.asarray(spec["lower"], dtype=float),
                       upper=np.asarray(spec["upper"], dtype=float))
    return geo.Simplex(int(spec["dim"]))


def _build_block(config: ScenarioConfig, geom, base, rng) -> prob.ConstraintBlock:
    if config.constraints is None:
        return prob.empty_block(base.dim)
    specs = (config.constraints if isinstance(config.constraints, list)
             else [config.constraints])
    blocks = []
    for spec in specs:
        family = spec["family"]
        if family == "linear":
            if "random" in spec:
                params = spec["random"]
                count = int(params.get("count", 1))
                margin = float(params.get("slater_margin", 0.2))
                amplitude = float(params.get("amplitude", 1.0))
                anchor = geo.center(base)
                A = rng.uniform(-amplitude, amplitude, size=(count, base.dim))
                b = A @ anchor + margin
                blocks.append(prob.linear_block(geom, base, A, b,
                                                slater_point=anchor))
            else:
                blocks.append(prob.linear_block(
                    geom, base, spec["A"], spec["b"],
                    slater_point=spec.get("slater_point")))
        else:
            blocks.append(prob.quadratic_block(
                geom, base, spec["centers"], spec["offsets"],
                slater_point=spec.get("slater_point")))
    return blocks[0] if len(blocks) == 1 else prob.stack_blocks(blocks)


def _unit(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _build_loss(config: ScenarioConfig, geom, base, rng) -> prob.LossSequence:
    spec = dict(config.loss)
    family = spec["family"]
    T = config.horizon
    if family == "fixed":
        if spec.get("form", "linear") == "quadratic":
            return prob.fixed_quadratic(geom, base, spec["target"], T,
                                        scale=float(spec.get("scale", 1.0)))
        return prob.fixed_linear(geom, base, spec["coeffs"], T,
                                 grad_lipschitz=float(spec.get("grad_lipschitz", 1.0)))
    if family == "linear-drift":
        if spec.get("schedule", "line") == "rotate":
            if spec.get("random_plane", False):
                plane = (_unit(rng, base.dim), _unit(rng, base.dim))
            else:
                plane = None
            return prob.rotating_drift(
                geom, base, amplitude=float(spec["amplitude"]),
                rate=float(spec["rate"]), horizon=T, plane=plane,
                grad_lipschitz=float(spec.get("grad_lipschitz", 1.0)))
        return prob.linear_drift(geom, base, spec["start"], spec["drift"], T,
                                 grad_lipschitz=float(spec.get("grad_lipschitz", 1.0)))
    if family == "alternating":
        if "random" in spec:
            amplitude = float(spec["random"].get("amplitude", 0.7))
            first = amplitude * _unit(rng, base.dim)
            second = amplitude * _unit(rng, base.dim)
        else:
            first, second = spec["first"], spec["second"]
        return prob.alternating(geom, base, first, second, T,
                                grad_lipschitz=float(spec.get("grad_lipschitz", 1.0)))
    if family == "quadratic-drift":
        return prob.quadratic_drift(
            geom, base, spec["target0"], spec.get("target_drift", np.zeros(base.dim)),
            T, scale0=float(spec.get("scale0", 1.0)),
            scale_drift=float(spec.get("scale_drift", 0.0)))
    raise ConfigError("custom losses cannot be built from config files",
                      fields=["loss"])


def _building(part: str, build, *args):
    """``build(*args)``, with a malformed ``part`` spec as a ConfigError."""
    try:
        return build(*args)
    except QueueproxError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {part} spec: {exc!r}",
                          fields=[part]) from exc


def build_scenario(config: ScenarioConfig) -> alg.Scenario:
    """Materialize geometry, base set, constraints, losses, and constants."""
    config.validate()
    base = _building("base", _build_base, config)
    geom = (geo.euclidean if config.geometry == "euclidean" else geo.entropic)(
        base.dim)
    rng = np.random.default_rng(config.seed)
    block = _building("constraints", _build_block, config, geom, base, rng)
    seq = _building("loss", _build_loss, config, geom, base, rng)
    if config.v_cap["mode"] == "supplied":
        v_cap = float(config.v_cap["value"])
    else:
        v_cap = prob.gradient_variation(seq)
    hp = alg.hyperparams_from_variation(
        v_cap, seq.grad_lipschitz, horizon=config.horizon,
        variant=config.variant)
    return alg.Scenario(geom=geom, base=base, block=block, seq=seq, hp=hp)


def run_scenario(
    config: ScenarioConfig,
    out_dir: str | None = None,
    variation_budget: int = 32,
) -> tuple[RunTrace, met.MetricsReport]:
    """Run one scenario end to end and optionally write its CSV files.

    Returns the trace and a metrics report with regret against the
    hindsight comparator, cumulative violations, the queue-certified
    violation bound, and both variation numbers.
    """
    built = build_scenario(config)
    started = time.perf_counter()
    trace = alg.run(config.variant, built, horizon=config.horizon)
    elapsed = time.perf_counter() - started
    trace.seed = config.seed
    trace.config_hash = config.config_hash()
    trace.scenario_id = config.scenario_id

    comparator = prob.hindsight_comparator(built.seq, built.block, built.base)
    v_emp = met.empirical_variation(trace, built.seq,
                                    sample_budget=variation_budget)
    queue_bound = float(np.linalg.norm(trace.final_queue)) / built.hp.gamma
    report = met.MetricsReport(
        scenario_id=config.scenario_id, horizon=config.horizon,
        regret=met.regret(trace, comparator, built.seq, built.block),
        violations=met.violation(trace),
        clipped_violations=met.clipped_violation(trace),
        queue_bound=queue_bound, v_cap=built.hp.v_cap, v_empirical=v_emp,
        extras={"runtime_s": elapsed, "comparator": comparator,
                "seed": config.seed},
    )

    target = out_dir if out_dir is not None else config.out
    if target:
        os.makedirs(target, exist_ok=True)
        name = f"{config.scenario_id}_T{config.horizon}_seed{config.seed}.csv"
        met.write_round_csv(trace, os.path.join(target, name))
        met.append_summary_row(report, os.path.join(target, "summary.csv"))
    return trace, report


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A grid of horizons and seeds over one scenario template."""

    config: ScenarioConfig
    horizons: tuple[int, ...]
    seeds: tuple[int, ...]

    def __post_init__(self):
        if not self.horizons or any(t < 1 for t in self.horizons):
            raise ConfigError("sweep horizons must be positive", fields=["horizons"])
        if not self.seeds:
            raise ConfigError("sweep needs at least one seed", fields=["seeds"])


@dataclass
class SweepResult:
    """Per-cell reports plus fitted growth slopes.

    Slopes are None ("absent") when the grid has fewer than two distinct
    horizons, since a one-point series cannot support a fit.
    """

    reports: list[met.MetricsReport]
    horizons: tuple[int, ...]
    seeds: tuple[int, ...]
    regret_slope: float | None
    regret_offset: float | None
    violation_slope: float | None
    violation_offset: float | None


def fit_loglog_slope(horizons, values) -> tuple[float, float]:
    """Least-squares slope of ``log(value + offset)`` against ``log T``.

    Values at or below zero get a positive offset ``1 + |min|`` applied to
    the whole series so the logarithm is defined; the offset used is
    returned alongside the slope.
    """
    horizons = np.asarray(horizons, dtype=float)
    values = np.asarray(values, dtype=float)
    if horizons.shape != values.shape or horizons.size < 2:
        raise ValueError("slope fit needs matching series of length >= 2")
    low = float(values.min())
    offset = 0.0 if low > 0 else 1.0 + abs(low)
    slope = float(np.polyfit(np.log(horizons), np.log(values + offset), 1)[0])
    return slope, offset


def thread_cap() -> int:
    """1: sweep runs its cells one at a time (read by bench run metadata)."""
    return 1


def sweep(spec: SweepSpec, out_dir: str | None = None) -> SweepResult:
    """Run every (horizon, seed) cell and fit growth slopes.

    Cells run one at a time in (T, seed) order.  Regret and worst
    cumulative violation are averaged over seeds at each horizon before
    the log-log fit.
    """
    reports = []
    for T, seed in sorted((T, s) for T in spec.horizons for s in spec.seeds):
        config = replace(spec.config, horizon=T, seed=seed, out=None)
        # index, not unpack: a name bound to the trace would keep it alive
        # while the next cell runs
        reports.append(run_scenario(config, out_dir=None)[1])

    distinct = sorted(set(spec.horizons))
    mean_regret = []
    mean_violation = []
    for T in distinct:
        rows = [r for r in reports if r.horizon == T]
        mean_regret.append(float(np.mean([r.regret for r in rows])))
        mean_violation.append(float(np.mean([r.max_violation for r in rows])))
    if len(distinct) < 2:
        regret_slope = regret_offset = None
        violation_slope = violation_offset = None
    else:
        regret_slope, regret_offset = fit_loglog_slope(distinct, mean_regret)
        violation_slope, violation_offset = fit_loglog_slope(distinct,
                                                             mean_violation)

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "summary.csv")
        for report in reports:
            met.append_summary_row(report, path)

    return SweepResult(
        reports=reports, horizons=spec.horizons, seeds=spec.seeds,
        regret_slope=regret_slope, regret_offset=regret_offset,
        violation_slope=violation_slope, violation_offset=violation_offset,
    )


# ---------------------------------------------------------------------------
# shipped scenarios
# ---------------------------------------------------------------------------


def _golden_d2(horizon=1000, seed=0) -> ScenarioConfig:
    return ScenarioConfig(
        scenario_id="golden-d2",
        geometry="euclidean",
        base={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        constraints={"family": "linear", "A": [[1.0, 0.0]], "b": [0.3],
                     "slater_point": [0.0, 0.0]},
        loss={"family": "fixed", "form": "linear", "coeffs": [-1.0, 0.0],
              "grad_lipschitz": 0.5},
        horizon=horizon, seed=seed,
        v_cap={"mode": "supplied", "value": 0.0},
    )


def _fixed_quadratic_ball(horizon=2000, seed=0) -> ScenarioConfig:
    return ScenarioConfig(
        scenario_id="fixed-quadratic-ball",
        geometry="euclidean",
        base={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        constraints={"family": "linear", "A": [[1.0, 0.0]], "b": [0.3],
                     "slater_point": [0.0, 0.0]},
        loss={"family": "fixed", "form": "quadratic", "target": [0.1, 0.55],
              "scale": 1.0},
        horizon=horizon, seed=seed,
    )


def _drift_rotate_d2(horizon=3000, seed=0) -> ScenarioConfig:
    return ScenarioConfig(
        scenario_id="drift-rotate-d2",
        geometry="euclidean",
        base={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        constraints={"family": "linear", "A": [[1.0, 0.0]], "b": [0.3],
                     "slater_point": [0.0, 0.0]},
        loss={"family": "linear-drift", "schedule": "rotate",
              "amplitude": 0.8, "rate": 0.6, "random_plane": True,
              "grad_lipschitz": 0.5},
        horizon=horizon, seed=seed,
    )


def _alternating_d2(horizon=3000, seed=0) -> ScenarioConfig:
    return ScenarioConfig(
        scenario_id="alternating-d2",
        geometry="euclidean",
        base={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        constraints={"family": "linear", "A": [[1.0, 0.0]], "b": [0.3],
                     "slater_point": [0.0, 0.0]},
        loss={"family": "alternating", "random": {"amplitude": 0.7},
              "grad_lipschitz": 0.5},
        horizon=horizon, seed=seed,
    )


def _box_mixed_d3(horizon=2000, seed=0) -> ScenarioConfig:
    return ScenarioConfig(
        scenario_id="box-mixed-d3",
        geometry="euclidean",
        base={"kind": "box", "lower": [-1.0, -1.0, -1.0],
              "upper": [1.0, 1.0, 1.0]},
        constraints=[
            {"family": "linear", "A": [[1.0, 1.0, 1.0]], "b": [1.0],
             "slater_point": [0.0, 0.0, 0.0]},
            {"family": "quadratic", "centers": [[0.0, 0.0, 0.0]],
             "offsets": [0.8], "slater_point": [0.0, 0.0, 0.0]},
        ],
        loss={"family": "quadratic-drift", "target0": [0.9, 0.9, 0.0],
              "target_drift": [-0.4, 0.3, 0.2], "scale0": 1.0,
              "scale_drift": 0.5},
        horizon=horizon, seed=seed,
    )


def _simplex_d10(horizon=3000, seed=0) -> ScenarioConfig:
    return ScenarioConfig(
        scenario_id="simplex-d10",
        geometry="entropic",
        base={"kind": "simplex", "dim": 10},
        constraints={"family": "linear",
                     "random": {"count": 2, "slater_margin": 0.15,
                                "amplitude": 1.0}},
        loss={"family": "alternating", "random": {"amplitude": 0.8},
              "grad_lipschitz": 0.5},
        horizon=horizon, seed=seed,
        variant=alg.VARIANT_SIMPLEX,
    )


_SHIPPED = {
    "golden-d2": _golden_d2,
    "fixed-quadratic-ball": _fixed_quadratic_ball,
    "drift-rotate-d2": _drift_rotate_d2,
    "alternating-d2": _alternating_d2,
    "box-mixed-d3": _box_mixed_d3,
    "simplex-d10": _simplex_d10,
}

SHIPPED_SCENARIOS = tuple(_SHIPPED)


def shipped_scenario(name: str, horizon: int | None = None,
                     seed: int | None = None) -> ScenarioConfig:
    """A shipped scenario config, optionally at a different horizon/seed."""
    if name not in _SHIPPED:
        raise ConfigError(f"unknown scenario {name!r}; shipped: "
                          f"{sorted(_SHIPPED)}", fields=["scenario_id"])
    kwargs = {}
    if horizon is not None:
        kwargs["horizon"] = horizon
    if seed is not None:
        kwargs["seed"] = seed
    return _SHIPPED[name](**kwargs)


def write_shipped_configs(directory: str) -> list[str]:
    """Write every shipped scenario to ``<directory>/<name>.json``."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name in SHIPPED_SCENARIOS:
        path = os.path.join(directory, f"{name}.json")
        shipped_scenario(name).to_json(path)
        paths.append(path)
    return paths

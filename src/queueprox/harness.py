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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import algorithm as alg
from . import geometry as geo
from . import metrics as met
from . import problems as prob
from .errors import ConfigError
from .trace import RunSummary, RunTrace

# tuples, not sets: a membership test on an unhashable JSON value (a list
# or an object) is then False, not a TypeError
_VARIANTS = tuple(alg.VARIANTS)
_GEOMETRIES = ("euclidean", "entropic")
_BASE_KINDS = ("ball", "box", "simplex")
_LOSS_FAMILIES = ("fixed", "linear-drift", "alternating", "quadratic-drift",
                  "custom")
_LOSS_FORMS = ("linear", "quadratic")          # of the "fixed" family
_LOSS_SCHEDULES = ("line", "rotate")           # of the "linear-drift" family
_CONSTRAINT_FAMILIES = ("linear", "quadratic")
_REQUIRED = ("scenario_id", "geometry", "base", "loss", "horizon")


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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("a config must be a JSON object, got "
                              f"{type(data).__name__}")
        names = {f.name for f in fields(cls)}
        known = {key: value for key, value in data.items() if key in names}
        unknown = set(data) - names
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}",
                              fields=sorted(unknown))
        missing = [f for f in _REQUIRED if f not in data]
        if missing:
            raise ConfigError(f"missing config fields: {missing}",
                              fields=missing)
        cfg = cls(**known)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path: str) -> "ScenarioConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)

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
        if base_kind not in _BASE_KINDS:
            bad.append("base")
        mode = self.v_cap.get("mode") if isinstance(self.v_cap, dict) else None
        if mode not in ("exact", "supplied"):
            bad.append("v_cap")
        elif mode == "supplied":
            value = self.v_cap.get("value")
            if not _is_number(value) or not math.isfinite(value) or value < 0:
                bad.append("v_cap")
        if (not isinstance(self.loss, dict)
                or self.loss.get("family") not in _LOSS_FAMILIES
                or self.loss.get("form", "linear") not in _LOSS_FORMS
                or self.loss.get("schedule", "line") not in _LOSS_SCHEDULES):
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
        return geo.Ball(center=_numbers(spec, "center"),
                        radius=_number(spec, "radius"))
    if kind == "box":
        return geo.Box(lower=_numbers(spec, "lower"),
                       upper=_numbers(spec, "upper"))
    if not _is_int(spec["dim"]):
        raise ValueError(f"field 'dim' must be an int, got {spec['dim']!r}")
    return geo.Simplex(spec["dim"])


def _build_block(config: ScenarioConfig, base, rng) -> prob.ConstraintBlock:
    if config.constraints is None:
        return prob.empty_block(base)
    specs = (config.constraints if isinstance(config.constraints, list)
             else [config.constraints])
    blocks = []
    for spec in specs:
        family = spec["family"]
        if family == "linear":
            if "random" in spec:
                params = spec["random"]
                count = params.get("count", 1)
                if not _is_int(count) or count < 1:
                    raise ValueError(f"field 'count' must be a positive int, "
                                     f"got {count!r}")
                margin = _number(params, "slater_margin", 0.2)
                amplitude = _number(params, "amplitude", 1.0)
                anchor = geo.center(base)
                A = rng.uniform(-amplitude, amplitude, size=(count, base.dim))
                b = A @ anchor + margin
                blocks.append(prob.linear_block(base, A, b,
                                                slater_point=anchor))
            else:
                blocks.append(prob.linear_block(
                    base, _numbers(spec, "A"), _numbers(spec, "b"),
                    slater_point=_numbers(spec, "slater_point", optional=True)))
        else:
            blocks.append(prob.quadratic_block(
                base, _numbers(spec, "centers"),
                _numbers(spec, "offsets"),
                slater_point=_numbers(spec, "slater_point", optional=True)))
    return blocks[0] if len(blocks) == 1 else prob.stack_blocks(blocks)


def _unit(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _build_loss(config: ScenarioConfig, base, rng) -> prob.LossSequence:
    spec = dict(config.loss)
    family = spec["family"]
    T = config.horizon
    if family == "fixed":
        if spec.get("form", "linear") == "quadratic":
            return prob.fixed_quadratic(base, _numbers(spec, "target"), T,
                                        scale=_number(spec, "scale", 1.0))
        return prob.fixed_linear(base, _numbers(spec, "coeffs"), T,
                                 grad_lipschitz=_number(spec, "grad_lipschitz", 1.0))
    if family == "linear-drift":
        if spec.get("schedule", "line") == "rotate":
            if spec.get("random_plane", False):
                plane = (_unit(rng, base.dim), _unit(rng, base.dim))
            else:
                plane = None
            return prob.rotating_drift(
                base, amplitude=_number(spec, "amplitude"),
                rate=_number(spec, "rate"), horizon=T, plane=plane,
                grad_lipschitz=_number(spec, "grad_lipschitz", 1.0))
        return prob.linear_drift(base, _numbers(spec, "start"),
                                 _numbers(spec, "drift"), T,
                                 grad_lipschitz=_number(spec, "grad_lipschitz", 1.0))
    if family == "alternating":
        if "random" in spec:
            amplitude = _number(spec["random"], "amplitude", 0.7)
            first = amplitude * _unit(rng, base.dim)
            second = amplitude * _unit(rng, base.dim)
        else:
            first, second = _numbers(spec, "first"), _numbers(spec, "second")
        return prob.alternating(base, first, second, T,
                                grad_lipschitz=_number(spec, "grad_lipschitz", 1.0))
    if family == "quadratic-drift":
        return prob.quadratic_drift(
            base, _numbers(spec, "target0"),
            _numbers(spec, "target_drift") if "target_drift" in spec
            else np.zeros(base.dim), T, scale0=_number(spec, "scale0", 1.0),
            scale_drift=_number(spec, "scale_drift", 0.0))
    raise ConfigError("custom losses cannot be built from config files",
                      fields=["loss"])


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a boolean or a string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(spec: dict, key: str, default: float | None = None) -> float:
    """``spec[key]`` as a finite float, or ``default`` when given and the
    key is absent; anything but a finite JSON number is malformed."""
    if not isinstance(spec, dict):
        raise TypeError(f"expected a mapping holding {key!r}, got {spec!r}")
    value = spec[key] if default is None else spec.get(key, default)
    if not _is_number(value) or not math.isfinite(value):
        raise ValueError(f"field {key!r} must be a finite number, "
                         f"got {value!r}")
    return float(value)


def _numbers(spec: dict, key: str, optional: bool = False):
    """``spec[key]``, a JSON number or a (nested) list of them, as a float
    array; ``None`` for an ``optional`` key that is absent or null.  A
    boolean, a string or any other entry is malformed."""
    value = spec.get(key) if optional else spec[key]
    if value is None and optional:
        return None
    entries = np.array(value, dtype=object)     # a ragged list stays lists
    if not all(map(_is_number, entries.flat)):
        raise ValueError(f"field {key!r} must hold only numbers, "
                         f"got {value!r}")
    return entries.astype(float)


def _building(part: str, build, *args):
    """``build(*args)``, with a malformed ``part`` spec, one of the wrong
    dimension included, as a ConfigError."""
    try:
        return build(*args)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed {part} spec: {exc!r}",
                          fields=[part]) from exc


def build_scenario(config: ScenarioConfig) -> alg.Scenario:
    """Materialize the base set, constraints, losses, and constants.

    The base set decides the geometry; ``config.geometry``, which
    ``validate`` has checked against it, is not read here.
    """
    config.validate()
    base = _building("base", _build_base, config)
    rng = np.random.default_rng(config.seed)
    block = _building("constraints", _build_block, config, base, rng)
    seq = _building("loss", _build_loss, config, base, rng)
    if config.v_cap["mode"] == "supplied":
        v_cap = float(config.v_cap["value"])
    else:
        v_cap = _building("loss", prob.gradient_variation, seq)
    hp = _building("loss", alg.hyperparams_from_variation, v_cap,
                   seq.grad_lipschitz, config.horizon, config.variant)
    return alg.Scenario(block=block, seq=seq, hp=hp)


def run_scenario(
    config: ScenarioConfig,
    out_dir: str | None = None,
) -> tuple[RunTrace, met.MetricsReport]:
    """Run one scenario end to end and optionally write its CSV files.

    Returns the trace and a metrics report with regret against the
    hindsight comparator, cumulative violations, the queue-certified
    violation bound, and both variation numbers.  ``runtime_s`` in the
    report's extras is the wall time of ``algorithm.run``.
    """
    built = build_scenario(config)
    started = time.perf_counter()
    trace = alg.run(config.variant, built, horizon=config.horizon)
    elapsed = time.perf_counter() - started
    trace.seed = config.seed
    trace.config_hash = config.config_hash()
    trace.scenario_id = config.scenario_id

    summary = alg.summarize(trace, built.seq, met.probe_rounds(trace.horizon))
    report = _report(config, built, summary, elapsed)

    target = out_dir if out_dir is not None else config.out
    if target:
        os.makedirs(target, exist_ok=True)
        name = f"{config.scenario_id}_T{config.horizon}_seed{config.seed}.csv"
        met.write_round_csv(trace, os.path.join(target, name))
        met.append_summary_row(report, os.path.join(target, "summary.csv"))
    return trace, report


def _report(config: ScenarioConfig, built: alg.Scenario,
            summary: RunSummary, runtime_s: float) -> met.MetricsReport:
    """The metrics report of one run from its summary: regret against the
    hindsight comparator, cumulative violations, the queue-certified bound
    ``||Q(T+1)||_2 / gamma`` and the variation estimate at the summary's
    probes."""
    comparator = prob.hindsight_comparator(built.seq, built.block)
    return met.MetricsReport(
        scenario_id=config.scenario_id, horizon=config.horizon,
        regret=met.regret(summary, comparator, built.seq, built.block),
        violations=met.violation(summary),
        queue_bound=float(np.linalg.norm(summary.final_queue)) / built.hp.gamma,
        v_cap=built.hp.v_cap,
        v_empirical=met.probe_variation(built.seq, summary.probes,
                                        summary.horizon),
        extras={"runtime_s": runtime_s, "comparator": comparator,
                "seed": config.seed},
    )


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
    """1: sweep starts no thread; it steps the cells of a batch together on
    the calling thread (read by bench run metadata)."""
    return 1


def _batch_size(variant: str, built: alg.Scenario, horizon: int,
                n_probes: int) -> int:
    """How many cells like ``built`` one batch may hold: as many as keep
    their loss tables and lean outputs (losses, constraint values, final
    queue and probes) within the bytes of one full ``RunTrace`` at
    ``horizon``, and at least one."""
    seq, d, K = built.seq, built.base.dim, built.block.size
    T = horizon
    decisions = 0 if variant == alg.VARIANT_BASELINE else T * d
    trace = 8 * (decisions + (T + 1) * d + (T + 2) * K + (T + 1) * K + 3 * T)
    tables = sum(table.nbytes for table in (seq.coeffs, seq.scales, seq.targets)
                 if table is not None)
    probes = 0 if seq.coeffs is not None else (n_probes + 1) * d
    lean = 8 * (T + (T + 1) * K + K + probes)
    return max(1, trace // (tables + lean))


def sweep(spec: SweepSpec, out_dir: str | None = None) -> SweepResult:
    """Run every (horizon, seed) cell and fit growth slopes.

    Cells are taken in (T, seed) order, on the calling thread.  The seeds of
    one horizon run as batches through ``algorithm.run_batch``, which
    steps a batch's cells together and keeps only what their reports read.
    A batch holds as many cells as keep their loss tables and lean outputs
    within the bytes of one full ``RunTrace`` at that horizon
    (``_batch_size``, sized from the batch's first cell, which is built
    first; no cell is built before its batch starts).  Each report equals,
    bit for bit, the one ``run_scenario`` gives for its cell, except for
    ``runtime_s``, which is the wall time of its batch's loop.  Regret and
    worst cumulative violation are averaged over seeds at each horizon
    before the log-log fit.
    """
    cells = sorted((T, s) for T in spec.horizons for s in spec.seeds)
    reports = []
    while len(reports) < len(cells):
        T = cells[len(reports)][0]
        configs = [replace(spec.config, horizon=T, seed=seed, out=None)
                   for horizon, seed in cells[len(reports):] if horizon == T]
        rounds = met.probe_rounds(T)
        built = [build_scenario(configs[0])]
        size = _batch_size(spec.config.variant, built[0], T, len(rounds))
        built += [build_scenario(config) for config in configs[1:size]]
        started = time.perf_counter()
        summaries = alg.run_batch(spec.config.variant, built, T, rounds)
        elapsed = time.perf_counter() - started
        reports += [_report(config, cell, summary, elapsed)
                    for config, cell, summary in zip(configs, built, summaries)]
        # drop the batch's tables and outputs before the next one is built
        del built, summaries

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

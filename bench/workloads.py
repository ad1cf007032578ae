"""Seeded inputs and one pass of each benchmark workload.

A workload turns the benchmark seed into scenario configs; queueprox only
ever sees those configs.  One pass then runs them through the public API
(``harness.sweep``, ``harness.run_scenario``, ``cli.main``) and hands
every output to the correctness gate.  Every pass of one run repeats the
same work on the same inputs, so pass times are comparable.

Functions are looked up as module attributes at call time
(``harness.sweep``, not a name imported once), so the traced run can wrap
them from outside.
"""
from __future__ import annotations

import contextlib
import io
import os
from dataclasses import replace

import numpy as np

from queueprox import cli, harness
from queueprox.harness import ScenarioConfig, SweepSpec

import gate as gt

CHECK_TOKENS = ("queue", "dpp", "pushback", "mixing")


def _from_template(name: str, **fields) -> ScenarioConfig:
    """A shipped scenario with some fields redrawn, validated like a file."""
    return ScenarioConfig.from_dict(
        {**harness.shipped_scenario(name).to_dict(), **fields})


def _jitter(rng, values, width) -> list[float]:
    """``values`` moved by up to ``width`` (scalar or per coordinate)."""
    width = np.broadcast_to(np.asarray(width, dtype=float), len(values))
    return (np.asarray(values) + rng.uniform(-width, width)).tolist()


def _linear_cap(dim: int, b: float) -> dict:
    """The shipped ``x_1 <= b`` constraint with its Slater point at 0."""
    return {"family": "linear", "A": [[1.0] + [0.0] * (dim - 1)], "b": [b],
            "slater_point": [0.0] * dim}


def round_csv(directory: str) -> bytes:
    """Bytes of the one per-round CSV that ``run_scenario`` wrote here."""
    names = [n for n in os.listdir(directory)
             if n.endswith(".csv") and n != "summary.csv"]
    if len(names) != 1:
        raise RuntimeError(f"expected one round CSV in {directory}, "
                           f"found {sorted(names)}")
    with open(os.path.join(directory, names[0]), "rb") as fh:
        return fh.read()


def run_and_check(gate: gt.Gate, label: str, config: ScenarioConfig,
                  out_dir: str):
    """``run_scenario`` with CSV output, gated; returns (report, csv)."""
    report = data = None
    with gate.op(label) as problems:
        trace, report = harness.run_scenario(config, out_dir=out_dir)
        data = round_csv(out_dir)
        problems += gt.report_problems(report)
        problems += gt.trace_problems(trace)
        problems += gt.csv_problems(data, config.horizon)
    return report, data


def check_cli(gate: gt.Gate, label: str, argv: list[str], out_dir: str):
    """``queueprox check`` through ``cli.main``, gated on exit code and CSV."""
    with gate.op(label) as problems:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", out_dir])
        if code != 0:
            problems.append(f"exit code {code}")
        with open(os.path.join(out_dir, "checks.csv"), "rb") as fh:
            problems += gt.check_csv_problems(fh.read(), CHECK_TOKENS)


class SweepGrowth:
    """Criterion-05-shaped horizon x seed grids through ``harness.sweep``."""

    name = "sweep-growth"
    horizons = (100, 300, 1000)
    seeds = (0, 1, 2)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        alternating = _from_template(
            "alternating-d2",
            constraints=_linear_cap(2, float(rng.uniform(0.25, 0.35))),
            loss={"family": "alternating", "grad_lipschitz": 0.5,
                  "random": {"amplitude": float(rng.uniform(0.6, 0.8))}})
        drift = _from_template(
            "drift-rotate-d2",
            constraints=_linear_cap(2, float(rng.uniform(0.25, 0.35))),
            loss={"family": "linear-drift", "schedule": "rotate",
                  "random_plane": True, "grad_lipschitz": 0.5, "rate": 0.6,
                  "amplitude": float(rng.uniform(0.7, 0.9))})
        baseline = ScenarioConfig.from_dict(
            {**alternating.to_dict(), "variant": "pd-baseline"})
        self.specs = [SweepSpec(config=c, horizons=self.horizons,
                                seeds=self.seeds)
                      for c in (alternating, drift, baseline)]
        self.sweep_cells = len(self.horizons) * len(self.seeds)

    @staticmethod
    def _cell(spec: SweepSpec, horizon: int, seed: int) -> ScenarioConfig:
        """The config ``sweep`` runs for one cell of its grid."""
        return replace(spec.config, horizon=horizon, seed=seed, out=None)

    def configs(self) -> list[ScenarioConfig]:
        return [self._cell(s, t, k)
                for s in self.specs for t in s.horizons for k in s.seeds]

    def replay_configs(self, number: int) -> list[ScenarioConfig]:
        """One cell of every grid; over any three passes in a row each grid
        has every horizon replayed once."""
        return [self._cell(spec, self.horizons[(number + j) % 3],
                           self.seeds[number % 3])
                for j, spec in enumerate(self.specs)]

    def run_pass(self, gate: gt.Gate, out_dir: str) -> dict:
        outputs = {}
        for spec in self.specs:
            label = f"sweep {spec.config.scenario_id}/{spec.config.variant}"
            result = None
            with gate.op(label) as problems:
                result = harness.sweep(spec)
                problems += gt.sweep_problems(result)
            for report in result.reports if result else ():
                seed = report.extras["seed"]
                with gate.op(f"{label} T={report.horizon} seed={seed}"
                             ) as problems:
                    problems += gt.report_problems(report)
                cell = self._cell(spec, report.horizon, seed)
                outputs[cell.config_hash()] = (report, None)
        return outputs


class AuditEuclidean:
    """Quadratic-loss runs with CSV output, then ``check`` on the box one.

    The box config's draws stay within about 1% of the shipped values.
    Over wider draws (caps +-5%, targets +-0.1) the comparator's staged
    FISTA took about a third of its usual projections on roughly one box
    in 18, seemingly at random, which cut the pass by 15% and spread six
    runs by 0.2; within 1% that happened once in over 100 boxes.
    """

    name = "audit-euclidean"
    horizon = 500
    n_groups = 2

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.groups = []
        for i in range(self.n_groups):
            box = _from_template(
                "box-mixed-d3", horizon=self.horizon, seed=seed,
                constraints=[
                    {"family": "linear", "A": [[1.0, 1.0, 1.0]],
                     "b": [float(rng.uniform(0.995, 1.005))],
                     "slater_point": [0.0, 0.0, 0.0]},
                    {"family": "quadratic", "centers": [[0.0, 0.0, 0.0]],
                     "offsets": [float(rng.uniform(0.895, 0.905))],
                     "slater_point": [0.0, 0.0, 0.0]}],
                loss={"family": "quadratic-drift",
                      "target0": _jitter(rng, [0.9, 0.9, 0.1],
                                         [0.01, 0.01, 0.005]),
                      "target_drift": _jitter(rng, [-0.4, 0.3, 0.2],
                                              [0.01, 0.01, 0.005]),
                      "scale0": float(rng.uniform(0.99, 1.01)),
                      "scale_drift": float(rng.uniform(0.49, 0.51))})
            ball = _from_template(
                "fixed-quadratic-ball", horizon=self.horizon, seed=seed,
                constraints=_linear_cap(2, float(rng.uniform(0.25, 0.35))),
                loss={"family": "fixed", "form": "quadratic",
                      "target": _jitter(rng, [0.1, 0.55], 0.05),
                      "scale": float(rng.uniform(0.8, 1.2))})
            path = os.path.join(workdir, f"box-{i}.json")
            box.to_json(path)
            self.groups.append((box, ball, path))
        self.sweep_cells = 0

    def configs(self) -> list[ScenarioConfig]:
        return [c for box, ball, _ in self.groups for c in (box, ball)]

    def replay_configs(self, number: int) -> list[ScenarioConfig]:
        configs = self.configs()
        return [configs[number % len(configs)]]

    def run_pass(self, gate: gt.Gate, out_dir: str) -> dict:
        outputs = {}
        for i, (box, ball, path) in enumerate(self.groups):
            for config in (box, ball):
                label = f"run {config.scenario_id} seed={config.seed}"
                target = os.path.join(out_dir, f"{config.scenario_id}-{i}")
                outputs[config.config_hash()] = run_and_check(
                    gate, label, config, target)
            check_cli(gate, f"check {path}", ["check", "--config", path],
                      os.path.join(out_dir, f"check-{i}"))
        return outputs


class CertifySimplex:
    """``queueprox check --lemmas all`` on simplex-d10-shaped configs."""

    name = "certify-simplex"
    horizon = 2000

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        config = _from_template(
            "simplex-d10", horizon=self.horizon,
            constraints={"family": "linear", "random": {
                "count": 2, "slater_margin": float(rng.uniform(0.13, 0.17)),
                "amplitude": float(rng.uniform(0.9, 1.1))}},
            loss={"family": "alternating", "grad_lipschitz": 0.5,
                  "random": {"amplitude": float(rng.uniform(0.7, 0.9))}})
        self.path = os.path.join(workdir, "simplex.json")
        config.to_json(self.path)
        self.config = config
        self.sweep_cells = 0

    def configs(self) -> list[ScenarioConfig]:
        return [self.config]

    def replay_configs(self, number: int) -> list[ScenarioConfig]:
        return [self.config]

    def run_pass(self, gate: gt.Gate, out_dir: str) -> dict:
        check_cli(gate, f"check {self.path}",
                  ["check", "--lemmas", "all", "--config", self.path],
                  os.path.join(out_dir, "check"))
        return {}


WORKLOADS = {w.name: w for w in (SweepGrowth, AuditEuclidean, CertifySimplex)}


def replay(workload, gate: gt.Gate, out_dir: str, number: int,
           pass_outputs: dict, reference: dict) -> None:
    """Rerun the replay cells of pass ``number`` alone; compare outputs.

    A replayed report must equal the one the pass produced, bit for bit.
    Its CSV must equal the pass's CSV when the pass wrote one, and
    otherwise the CSV of this run's first replay of the same cell.
    """
    for i, config in enumerate(workload.replay_configs(number)):
        label = (f"replay {config.scenario_id}/{config.variant} "
                 f"T={config.horizon} seed={config.seed}")
        key = config.config_hash()
        report, data = run_and_check(gate, label, config,
                                     os.path.join(out_dir, str(i)))
        if data is None:
            continue
        earlier_report, earlier_csv = pass_outputs.get(key, (None, None))
        with gate.op(f"{label} matches") as problems:
            if earlier_report is not None:
                problems += gt.same_report(report, earlier_report)
            problems += gt.same_bytes(
                data, earlier_csv if earlier_csv is not None
                else reference.setdefault(key, data))

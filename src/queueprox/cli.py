"""Command-line entry points: run, sweep, and check.

Exit codes: 0 on success (all checks passing, for ``check``), 1 when a run
fails or any requested check fails, 2 on usage errors including malformed
configs.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import algorithm as alg
from . import checks as chk
from . import geometry as geo
from .errors import ConfigError, QueueproxError
from .harness import (ScenarioConfig, SweepSpec, build_scenario, run_scenario,
                      sweep)

CHECK_TOKENS = ("queue", "dpp", "pushback", "mixing")


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    """Parse "100,1000" or "0..4" (inclusive range) into ints; anything
    else is a ``ConfigError`` naming ``flag``."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"{flag} must be a comma list or a lo..hi range "
                          f"of integers, got {text!r}") from None


def _report_line(report) -> str:
    return (
        f"scenario={report.scenario_id} T={report.horizon} "
        f"seed={report.extras.get('seed', '?')} "
        f"regret={report.regret:.6g} "
        f"max_violation={report.max_violation:.6g} "
        f"queue_bound={report.queue_bound:.6g} "
        f"v_cap={report.v_cap:.6g} v_empirical={report.v_empirical:.6g} "
        f"runtime_s={report.extras.get('runtime_s', float('nan')):.3f}"
    )


def _cmd_run(args) -> int:
    config = ScenarioConfig.from_json(args.config)
    if args.seed is not None:
        config = ScenarioConfig.from_dict(
            {**config.to_dict(), "seed": args.seed})
    _, report = run_scenario(config, out_dir=args.out)
    print(_report_line(report))
    return 0


def _cmd_sweep(args) -> int:
    config = ScenarioConfig.from_json(args.config)
    spec = SweepSpec(config=config, horizons=_parse_int_list(args.T, "--T"),
                     seeds=_parse_int_list(args.seeds, "--seeds"))
    result = sweep(spec, out_dir=args.out)
    for report in result.reports:
        print(_report_line(report))
    if result.regret_slope is None:
        print("regret_slope=absent violation_slope=absent "
              "(need two distinct horizons)")
    else:
        print(f"regret_slope={result.regret_slope:.4f} "
              f"(offset={result.regret_offset:.6g})")
        print(f"violation_slope={result.violation_slope:.4f} "
              f"(offset={result.violation_offset:.6g})")
    return 0


def _skipped(check: str, reason: str) -> chk.CheckReport:
    return chk.CheckReport(check=check, rounds=0, samples=0,
                           max_residual=0.0, passed=True, tolerance=0.0,
                           notes={"skipped": reason})


def _cmd_check(args) -> int:
    tokens = (CHECK_TOKENS if args.lemmas == "all"
              else tuple(tok.strip() for tok in args.lemmas.split(",")))
    unknown = [tok for tok in tokens if tok not in CHECK_TOKENS]
    if unknown:
        raise ConfigError(f"unknown lemma tokens: {unknown}; choose from "
                          f"{', '.join(CHECK_TOKENS)} or all")
    config = ScenarioConfig.from_json(args.config)
    if config.variant == alg.VARIANT_BASELINE:
        raise ConfigError(
            "checks certify the mirror-prox variants; the baseline makes "
            "no such guarantees", fields=["variant"])

    # the checks need the trace only: no comparator, variation audit or CSV
    built = build_scenario(config)
    trace = alg.run(config.variant, built, horizon=config.horizon)
    rng = np.random.default_rng(config.seed + 104_729)

    reports = []
    for token in tokens:
        if token == "queue":
            reports.append(chk.check_queue_lemma(trace))
        elif token == "dpp":
            reports.append(chk.check_dpp_over_trace(
                trace, built.seq, built.block, built.base, seed=config.seed))
        elif token == "pushback":
            reports.append(chk.check_pushback(built.base, seed=config.seed))
        elif token == "mixing":
            if config.variant != alg.VARIANT_SIMPLEX:
                reports.append(_skipped(
                    "mixing", "mixing applies to the simplex variant"))
            else:
                z_points = geo.sample(built.base, rng, 20)
                reports.append(chk.check_mixing(
                    trace.anchors[:trace.horizon], trace.nu,
                    trace.dim, z_points))

    for report in reports:
        if "skipped" in report.notes:
            print(f"check={report.check} skipped ({report.notes['skipped']})")
        else:
            print(report)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        chk.write_check_csv(reports, os.path.join(args.out, "checks.csv"))
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="queueprox",
        description="Constrained online convex optimization with queue-"
                    "certified violation bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and print metrics")
    p_run.add_argument("--config", required=True, help="scenario JSON path")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--out", default=None,
                       help="directory for round and summary CSVs")
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a grid of horizons and seeds")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--T", required=True,
                         help="horizons, e.g. 100,1000 or 100..105")
    p_sweep.add_argument("--seeds", required=True,
                         help="seeds, e.g. 0,1,2 or 0..4")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_check = sub.add_parser(
        "check", help="verify per-round certificates on a fresh run")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--lemmas", default="all",
                         help="all or a comma list of: "
                              + ",".join(CHECK_TOKENS))
    p_check.add_argument("--out", default=None,
                         help="directory for the check CSV")
    p_check.set_defaults(handler=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QueueproxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

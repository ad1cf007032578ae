"""Benchmark of queueprox: seeded workloads measured end to end.

Run from the repository root:

    python3 bench/run.py --workload sweep-growth --seed 0 --seconds 10 --trace 0

A run first pins itself to one vCPU (see ``pin_to_one_vcpu``).  With
``--trace 0`` it makes one memory pass under tracemalloc, then repeats
timed passes until ``--seconds`` of pass time is spent, takes the time
the hypervisor stole off each pass's wall time, and reports medians over
the passes; then it times a fresh interpreter's set-up several times.
With
``--trace 1`` it alternates untraced and traced passes until
``--seconds`` is spent, and reports per-layer spans and call counts
instead; the run fails if the trace's call-count invariants break, its
counts differ between passes or its top-level spans cover less than
``MIN_COVERAGE`` of a pass.  Every operation's output goes through the
correctness gate; a negative control checks that the gate catches
corrupted outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units come from ``BENCHMARK.json``.  A fuller record (run metadata,
config hashes, pass times, gate notes, trace invariants) is written to
``.bench_work/results/``, and the spans of the last traced pass to
``.bench_work/spans/``.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import gc
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import typing

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("sweep-growth", "audit-euclidean", "certify-simplex")
MIN_TIMED_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 7
MIN_COVERAGE = 0.9


def load_program():
    """Import queueprox from this checkout's ``src``, or exit non-zero."""
    sys.path.insert(0, SRC)
    try:
        import queueprox
    except ImportError as exc:
        sys.exit(f"error: cannot import queueprox from {SRC}: {exc}")
    if not os.path.abspath(queueprox.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: queueprox was imported from {queueprox.__file__}, "
                 f"not from {SRC}")


def pin_to_one_vcpu() -> int | None:
    """Keep this process, its threads and its children on one vCPU.

    ``sweep``'s worker threads take turns holding the GIL, and on a
    quiet machine the kernel already keeps them on one vCPU.  When the
    hypervisor steals time, it spreads them over both, and then a hand-off
    waits whenever either vCPU is stolen; that delay cannot be told
    apart from the program's own.  On one vCPU the only steal that can
    delay a pass is that vCPU's, which ``stolen_s`` takes off.  Returns
    the vCPU, or None where affinity cannot be set.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        for tid in os.listdir("/proc/self/task"):
            os.sched_setaffinity(int(tid), {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def fresh_dir(parent: str) -> str:
    return tempfile.mkdtemp(dir=parent)


def setup_probe(workload: str, seed: int, directory: str) -> None:
    """What a fresh interpreter does before its first pass can start."""
    load_program()
    import workloads
    from queueprox import harness
    config = workloads.WORKLOADS[workload](seed, directory).configs()[0]
    harness.build_scenario(config)


def vcpu_ticks() -> list[tuple[int, int, int]]:
    """(busy, idle, steal) clock ticks of each vCPU so far, from
    ``/proc/stat``; empty where the kernel does not report them."""
    rows = []
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                name, *fields = line.split()
                if name.startswith("cpu") and name != "cpu":
                    (user, nice, system, idle, iowait, irq, softirq,
                     steal) = map(int, fields[:8])
                    rows.append((user + nice + system + irq + softirq,
                                 idle + iowait, steal))
    except (OSError, ValueError):
        return []
    return rows


def stolen_s(before, after) -> float:
    """Seconds the hypervisor kept busy vCPUs from running between two
    ``vcpu_ticks`` readings.

    An idle vCPU also accrues steal (the guest polls before it halts),
    which delays nothing, so each vCPU's steal is weighted by the share
    of its own time it was busy.
    """
    total = 0.0
    for (b0, i0, s0), (b1, i1, s1) in zip(before, after):
        busy, idle = b1 - b0, i1 - i0
        if busy + idle > 0:
            total += (s1 - s0) * busy / (busy + idle)
    return total / os.sysconf("SC_CLK_TCK")


class PassTimes(typing.NamedTuple):
    wall: float    # wall seconds
    cpu: float     # process CPU seconds
    stolen: float  # seconds stolen from busy vCPUs meanwhile, by stolen_s


def timed(fn):
    """Run ``fn()``; return its result and its ``PassTimes``."""
    ticks = vcpu_ticks()
    started, cpu = time.perf_counter(), time.process_time()
    result = fn()
    wall, cpu = time.perf_counter() - started, time.process_time() - cpu
    return result, PassTimes(wall, cpu, stolen_s(ticks, vcpu_ticks()))


def time_setup(args, tmp: str) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters doing the set-up, as measured and
    less the time stolen from busy vCPUs meanwhile.

    Each child prints the system-wide monotonic clock and the vCPU tick
    counts when its set-up is done, so the time runs from its spawn to
    that point and leaves out the interpreter's exit and the 50 ms steps
    in which ``subprocess`` polls a child it waits for with a timeout.
    """
    raw, unstolen = [], []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, os.path.abspath(__file__),
                "--workload", args.workload, "--seed", str(args.seed),
                "--setup-probe", fresh_dir(tmp)]
        ticks = vcpu_ticks()
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        child = subprocess.run(argv, timeout=120, capture_output=True,
                               text=True)
        if child.returncode != 0:
            sys.exit(f"error: the set-up child exited with code "
                     f"{child.returncode}:\n{child.stderr}")
        done = json.loads(child.stdout.splitlines()[-1])
        raw.append(done["clock"] - started)
        unstolen.append(raw[-1] - stolen_s(ticks, done["ticks"]))
    return raw, unstolen


def one_pass(workload, gate, tmp: str, number: int, reference: dict,
             tracer=None):
    """Pass ``number``, timed, then its replay cells, untimed.

    Returns the pass's ``PassTimes``, and with a tracer its spans too;
    those of the replay are dropped.
    """
    import workloads
    out_dir = fresh_dir(tmp)
    gc.collect()
    outputs, times = timed(lambda: workload.run_pass(gate, out_dir))
    spans = tracer.collect() if tracer is not None else None
    workloads.replay(workload, gate, fresh_dir(tmp), number, outputs,
                     reference)
    if tracer is not None:
        tracer.collect()
    shutil.rmtree(out_dir)
    return times, spans


def negative_control(workload, tmp: str):
    """Corrupt real outputs and count how many the gate catches."""
    import gate as gt
    import workloads
    from queueprox import harness

    control = gt.Gate()
    config = workload.replay_configs(0)[0]
    out_dir = fresh_dir(tmp)
    trace, report = harness.run_scenario(config, out_dir=out_dir)
    data = workloads.round_csv(out_dir)

    last_digit = max(data.rfind(d) for d in b"0123456789")
    flipped = bytearray(data)
    flipped[last_digit] = ord("1") if data[last_digit] != ord("1") else ord("2")
    negative_queue = copy.deepcopy(trace)
    negative_queue.queues[-1, 0] = -1e-3
    beyond_bound = dataclasses.replace(report, violations=(
        report.violations - report.violations.max() + report.queue_bound + 1e-6))
    cases = {
        "CSV with one digit changed": gt.same_bytes(bytes(flipped), data),
        "CSV missing its last row": gt.csv_problems(
            data[:data.rstrip(b"\n").rfind(b"\n") + 1], config.horizon),
        "trace with a negative final queue": gt.trace_problems(negative_queue),
        "report beyond the queue bound": gt.report_problems(beyond_bound),
        "report with NaN regret": gt.report_problems(
            dataclasses.replace(report, regret=float("nan"))),
        "report with v_empirical above v_cap": gt.report_problems(
            dataclasses.replace(report,
                                v_empirical=2.0 * report.v_cap + 1e-6)),
        "replay one ulp off": gt.same_report(
            dataclasses.replace(report,
                                regret=np.nextafter(report.regret, np.inf)),
            report),
        "sweep with a NaN slope": gt.sweep_problems(
            harness.SweepResult(reports=[], horizons=(), seeds=(),
                                regret_slope=float("nan"), regret_offset=0.0,
                                violation_slope=0.0, violation_offset=0.0)),
    }
    for label, problems in cases.items():
        with control.op(label) as found:
            found += problems
    return control


def metric_specs(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def metadata(workload) -> dict:
    import queueprox
    from queueprox import harness
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, env={
                **os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
        if git.returncode == 0:
            commit = git.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "queueprox", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    cpu_model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), cpu_model)
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "queueprox": queueprox.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        # what sweep itself works out for its grid; None if never called
        "sweep_workers": (min(harness.thread_cap(), workload.sweep_cells)
                          if workload.sweep_cells else None),
        "OPMP_THREADS": os.environ.get("OPMP_THREADS", "unset"),
    }


def measure(args, workload, gate, tmp: str, record: dict) -> dict:
    """End-to-end metrics, measured with tracing off."""
    import workloads
    reference: dict = {}
    gc.collect()
    started = time.perf_counter()
    tracemalloc.start()
    try:
        outputs = workload.run_pass(gate, fresh_dir(tmp))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record["memory_pass_s"] = time.perf_counter() - started
    workloads.replay(workload, gate, fresh_dir(tmp), 0, outputs, reference)

    passes: list[PassTimes] = []
    while len(passes) < MIN_TIMED_PASSES or sum(
            p.wall for p in passes) < args.seconds:
        times, _ = one_pass(workload, gate, tmp, len(passes) + 1, reference)
        passes.append(times)
    raw_setups, setups = time_setup(args, tmp)
    record.update(
        pass_wall_s=[p.wall for p in passes],
        pass_cpu_s=[p.cpu for p in passes],
        pass_stolen_s=[p.stolen for p in passes],
        raw_wall_s=statistics.median(p.wall for p in passes),
        setup_raw_s=raw_setups, setup_s=setups)
    return {"wall_s": statistics.median(p.wall - p.stolen for p in passes),
            "cpu_s": statistics.median(p.cpu for p in passes),
            "setup_s": statistics.median(setups),
            "peak_mem_mb": peak / 1e6}


def measure_traced(args, workload, gate, tmp: str, record: dict) -> dict:
    """Per-layer metrics from traced passes, alternated with untraced ones,
    so that the overhead ratio compares passes taken side by side."""
    import tracer as tr
    reference: dict = {}
    untraced: list[float] = []
    passes = []
    tracer = tr.Tracer()
    while (len(passes) < MIN_TRACED_PASSES
           or sum(untraced) + sum(p[0] for p in passes) < args.seconds):
        number = len(untraced) + len(passes)
        times, _ = one_pass(workload, gate, tmp, number, reference)
        untraced.append(times.wall)
        tracer.install()
        try:
            times, (spans, extras) = one_pass(
                workload, gate, tmp, number + 1, reference, tracer=tracer)
        finally:
            tracer.uninstall()
        passes.append((times.wall, spans,
                       *tr.layer_metrics(spans, extras, times.wall)))

    _, spans, metrics, invariants = passes[-1]
    for key in metrics:
        if key.endswith("_s") or key in ("trace.coverage",
                                         "algorithm.run.us_per_round"):
            metrics[key] = statistics.median(p[2][key] for p in passes)
    metrics["trace.overhead_ratio"] = (
        statistics.median(p[0] for p in passes) / statistics.median(untraced))
    counts = [{k: v for k, v in p[2].items()
               if k.endswith((".calls", ".rounds", ".bytes"))} for p in passes]
    record["untraced_wall_s"] = untraced
    record["traced_wall_s"] = [p[0] for p in passes]
    record["counts_repeat"] = all(c == counts[0] for c in counts)
    record["invariants"] = {k: {"observed": a, "expected": b, "holds": a == b}
                            for k, (a, b) in invariants.items()}
    os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
    span_file = os.path.join(
        WORK, "spans", f"{args.workload}-seed{args.seed}.npz")
    tr.write_spans(span_file, spans)
    record["spans_file"] = os.path.relpath(span_file, ROOT)
    return metrics


def trace_problems(record: dict, metrics: dict) -> list[str]:
    """Why a traced run's layer figures cannot be trusted, if they cannot."""
    problems = [f"invariant {name}: {c['observed']} vs {c['expected']}"
                for name, c in record["invariants"].items() if not c["holds"]]
    if not record["counts_repeat"]:
        problems.append("call counts differ between traced passes")
    if not metrics["trace.coverage"] >= MIN_COVERAGE:
        problems.append(f"top-level spans cover {metrics['trace.coverage']:.3f}"
                        f" of the traced pass, below {MIN_COVERAGE}")
    return problems


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="count the corrupted outputs of the negative "
                             "control as operations, so the run must fail")
    parser.add_argument("--setup-probe", metavar="DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.setup_probe)
        print(json.dumps({"clock": time.clock_gettime(time.CLOCK_MONOTONIC),
                          "ticks": vcpu_ticks()}))
        return 0
    vcpu = pin_to_one_vcpu()
    load_program()
    units = metric_specs(bool(args.trace))
    import gate as gt
    import workloads

    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "pinned_vcpu": vcpu}
    gate = gt.Gate()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
        record["config_hashes"] = [
            [f"{c.scenario_id}/{c.variant}/T{c.horizon}/seed{c.seed}",
             c.config_hash()] for c in workload.configs()]
        measured = (measure_traced if args.trace else measure)(
            args, workload, gate, tmp, record)
        control = negative_control(workload, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if set(measured) != set(units):
        sys.exit(f"error: measured metrics {sorted(measured)} do not match "
                 f"BENCHMARK.json {sorted(units)}")
    attempted, failed = gate.attempted, gate.failed
    if args.negative_control:
        attempted += control.attempted
        failed += control.failed
    control_holds = control.failed == control.attempted
    untrusted = trace_problems(record, measured) if args.trace else []
    correct = failed == 0 and control_holds and not untrusted
    record.update(
        metadata=metadata(workload),
        trace_problems=untrusted,
        attempted=attempted, failed=failed, correct=correct,
        error_rate=failed / attempted,
        gate_notes=gate.notes[:20],
        negative_control=f"{control.failed}/{control.attempted} corrupted "
                         f"outputs caught",
        metrics=measured)
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2, default=float)
        fh.write("\n")

    for note in gate.notes[:5]:
        print(f"FAILED {note}")
    if not control_holds:
        print(f"negative control: only {record['negative_control']}")
    for name, check in record.get("invariants", {}).items():
        print(f"invariant {name}: {check['observed']} vs {check['expected']}")
    for problem in untrusted:
        print(f"trace: {problem}")
    print(f"{args.workload} seed={args.seed} error_rate="
          f"{record['error_rate']:.3g} ({failed}/{attempted}) "
          f"{record['negative_control']}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": measured[k], "unit": units[k]}
                    for k in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

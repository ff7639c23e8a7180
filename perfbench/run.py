"""replab benchmark: one workload, measured end to end or traced by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload value --seed 1 --seconds 15 --trace 0

Workloads (BENCHMARK.json says why each was chosen): value, density,
repeat-walk, cli-session.  Each is a closed loop with a single client in
this one process: a pass replays the workload's seeded op list, one op at a
time, and passes repeat while the next one still fits in --seconds (at
least one pass).  Every op's output is compared with perfbench/golden.json;
a mismatch, an exception or an unexpected exit code counts as failed.

Op and pass times are in refs, reference-loop units from refclock.py, which
follow the work done rather than a shared host's drifting CPU speed; the
wall-clock figures are printed next to them, less the time the reference
clock's own sampling took.  setup_s is the set-up time of a fresh
interpreter (setup_probe.py: starting up, importing replab and building the
inputs) relative to that of a fixed reference start-up (REFERENCE_STARTUP),
in seconds at NOMINAL_REFERENCE_S per reference start-up: the median over
SETUP_PROBES pairs of one reference start-up and one probe.  The host's
phases slow process start-up and imports more than the reference loop, so
the loop cannot stand in for them; the reference start-up does the same
kind of work.  The probes and reference start-ups are the only processes
the benchmark starts; each ends before the next starts, and none runs
while passes are measured.

--trace 0 reports the end-to-end metrics.  --trace 1 runs untraced passes
for half of --seconds, then installs the span wrappers (tracing.py) and
runs at least two traced passes for the other half.  It reports the
per-layer metrics per pass (the median over traced passes for times), the
tracing overhead, and counts the run as incorrect unless every count is
identical across the traced passes.  Spans are written to
.bench_build/perfbench/spans-<workload>-<seed>.jsonl.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics ({name: {"value", "unit"}}).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 10
# Interpreter start-up and stdlib imports that replab's own import also
# does, fixed for good; it prints time.monotonic_ns() when done.
REFERENCE_STARTUP = ("import argparse, dataclasses, fractions, hashlib, inspect, itertools, "
                     "json, pathlib, tempfile, typing, zipfile, time; "
                     "print(time.monotonic_ns())")
# A round figure near the reference start-up's time on the 2-core x86 host
# (Python 3.11) the benchmark was written on, 0.09-0.13 s as its speed
# drifted.  Only a fixed scale: it never changes.
NOMINAL_REFERENCE_S = 0.1
WORKLOADS = ("value", "density", "repeat-walk", "cli-session")

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_ref": "ref",
    "peak_rss_mb": "MB",
}
# Printed for reading, not reported: per-op percentiles move with the seed.
# A library workload's median op sits between two unlike ops, and
# cli-session's 90th percentile falls in the sparse gap between cache hits
# and misses, so across ten seeds they spread by up to 14% where solve_ref
# spreads by under 5%.
EXTRA_UNITS = {
    "request_p50_ref": "ref",
    "request_p90_ref": "ref",
    "solve_s": "s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "requests_per_s": "1/s",
}


class Phase:
    """Measurements of consecutive passes under one setting, each time both
    in refs and in wall-clock seconds."""

    def __init__(self):
        self.pass_ref: list[float] = []
        self.pass_s: list[float] = []
        self.latency_ref: list[float] = []
        self.latency_s: list[float] = []
        self.by_kind: dict[str, list[tuple[float, float]]] = {"hit": [], "miss": []}
        self.attempted = 0
        self.failed = 0

    def metrics(self) -> dict:
        return {
            "solve_ref": statistics.median(self.pass_ref),
            "request_p50_ref": statistics.median(self.latency_ref),
            "request_p90_ref": percentile(self.latency_ref, 90),
            "solve_s": statistics.median(self.pass_s),
            "request_p50_ms": statistics.median(self.latency_s) * 1e3,
            "request_p90_ms": percentile(self.latency_s, 90) * 1e3,
            "requests_per_s": len(self.latency_s) / sum(self.pass_s),
        }


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_passes(workload, golden: dict, clock, seconds: float, min_passes: int,
               tracer=None, on_pass=None) -> Phase:
    """Replay the workload's ops pass after pass while the next pass is
    expected to fit in seconds."""
    phase = Phase()
    start = time.perf_counter()
    while (len(phase.pass_s) < min_passes
           or time.perf_counter() - start + phase.pass_s[-1] <= seconds):
        gc.collect()
        workload.begin_pass()
        first_span = len(tracer.spans) if tracer else 0
        pass_s, pass_ref = clock.wall(), clock.now()
        for op in workload.ops:
            phase.attempted += 1
            if tracer:
                tracer.op += 1
            t0, r0 = clock.wall(), clock.now()
            try:
                result = op.run()
                elapsed, refs = clock.wall() - t0, clock.now() - r0
                digest = op.digest(result)
            except (Exception, SystemExit):  # SystemExit: a request argparse rejects
                phase.failed += 1
                print(f"FAILED {op.key}: raised\n{traceback.format_exc()}", file=sys.stderr)
                continue
            phase.latency_s.append(elapsed)
            phase.latency_ref.append(refs)
            if op.kind:
                phase.by_kind[op.kind].append((refs, elapsed))
            if digest != golden.get(op.key):
                phase.failed += 1
                print(f"FAILED {op.key}: output differs from golden: "
                      f"{json.dumps(digest)[:300]}", file=sys.stderr)
        phase.pass_ref.append(clock.now() - pass_ref)
        phase.pass_s.append(clock.wall() - pass_s)
        facts = workload.end_pass()
        if on_pass:
            on_pass(first_span, facts)
    return phase


def start_up(argv: list[str]) -> int:
    """Nanoseconds from starting argv to the monotonic_ns() it prints last."""
    start = time.monotonic_ns()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return int(done.stdout.split()[-1]) - start


def measure_setup(workload: str, seed: int, count: int) -> list[float]:
    """count set-up times, each scaled by the reference start-up run just
    before it, in seconds at NOMINAL_REFERENCE_S per reference start-up."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    reference = [sys.executable, "-c", REFERENCE_STARTUP]
    samples = []
    for _ in range(count):
        base = start_up(reference)
        samples.append(start_up(probe) / base * NOMINAL_REFERENCE_S)
    return samples


def report(name: str, value, unit: str) -> None:
    print(f"  {name:34s} {value!r:>24} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import replab
    except ImportError as exc:
        print(f"error: cannot import replab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(replab.__file__).resolve().parent.parent != SRC:
        print(f"error: replab resolved to {replab.__file__}, not under {SRC}",
              file=sys.stderr)
        return 2
    try:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {GOLDEN}: {exc}", file=sys.stderr)
        return 2

    import refclock
    import tracing
    import workloads

    WORK.mkdir(parents=True, exist_ok=True)
    # half the set-ups run before the passes and half after them, a run
    # apart, so that they sample more than one phase of the host's speed
    setup = [] if args.trace else measure_setup(args.workload, args.seed, SETUP_PROBES // 2)
    workload = workloads.build(args.workload, args.seed, WORK / f"run-{args.workload}")
    try:
        with refclock.RefClock() as clock:
            if args.trace:
                result = traced_run(workload, golden, clock, args, tracing)
            else:
                phase = run_passes(workload, golden, clock, args.seconds, 1)
    finally:
        workload.close()
    if not args.trace:
        setup += measure_setup(args.workload, args.seed, SETUP_PROBES - len(setup))
        result = untraced_result(workload.name, phase, setup, clock, args.seed)
    print(json.dumps(result, sort_keys=True))
    return 0


def untraced_result(name: str, phase: Phase, setup: list[float], clock,
                    seed: int) -> dict:
    values = dict(phase.metrics(), setup_s=statistics.median(setup),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    kinds = "".join(f", {len(v)} {k}" for k, v in phase.by_kind.items() if v)
    print(f"workload {name}, seed {seed}: {len(phase.pass_s)} passes, "
          f"{len(phase.latency_s)} requests{kinds}, {len(setup)} set-ups, "
          f"{clock.samples} reference samples taking {clock.handler_s:.3f} s, "
          f"{clock.handler_s / (clock.handler_s + sum(phase.pass_s)):.1%} of the wall time")
    for metric, unit in END_TO_END_UNITS.items():
        report(metric, values[metric], unit)
    for metric, unit in EXTRA_UNITS.items():
        report(metric, values[metric], unit)
    for kind, latencies in phase.by_kind.items():
        if latencies:
            report(f"{kind}_p50_ref", statistics.median(r for r, _ in latencies), "ref")
            report(f"{kind}_p50_ms", statistics.median(s for _, s in latencies) * 1e3, "ms")
    report("failed_ratio", phase.failed / phase.attempted, "ratio")
    return {"correct": phase.failed == 0, "attempted": phase.attempted,
            "failed": phase.failed,
            "metrics": {metric: {"value": values[metric], "unit": unit}
                        for metric, unit in END_TO_END_UNITS.items()}}


def traced_run(workload, golden: dict, clock, args, tracing) -> dict:
    plain = run_passes(workload, golden, clock, args.seconds / 2, 1)
    tracer = tracing.Tracer(clock.now)
    per_pass: list[dict] = []
    tracer.install()
    try:
        traced = run_passes(
            workload, golden, clock, args.seconds / 2, 2, tracer,
            lambda first, facts: per_pass.append(
                tracing.layer_metrics(tracer.spans, first, facts)))
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"spans-{workload.name}-{args.seed}.jsonl")

    values, steady = {}, True
    for name in tracing.PER_LAYER_UNITS:
        series = [m[name] for m in per_pass]
        if tracing.is_count(name):
            values[name] = series[0]
            if len(set(series)) != 1:
                steady = False
                print(f"FAILED count {name} differs between passes: {series}",
                      file=sys.stderr)
        else:
            values[name] = statistics.median(series)
    before, after = plain.metrics(), traced.metrics()
    units = dict(tracing.PER_LAYER_UNITS, **tracing.OVERHEAD_UNITS)
    values["trace.overhead_solve_ref"] = after["solve_ref"] - before["solve_ref"]
    values["trace.overhead_p50_ref"] = after["request_p50_ref"] - before["request_p50_ref"]

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    print(f"workload {workload.name}, seed {args.seed}: {len(plain.pass_s)} untraced and "
          f"{len(traced.pass_s)} traced passes; solve_ref {before['solve_ref']!r} "
          f"untraced, {after['solve_ref']!r} traced")
    for name, unit in units.items():
        share = ""
        if unit == "ref" and not name.startswith("trace."):
            share = f"  ({values[name] / after['solve_ref']:.1%} of traced solve_ref)"
        report(name, values[name], unit + share)
    report("failed_ratio", failed / attempted, "ratio")
    return {"correct": failed == 0 and steady, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


if __name__ == "__main__":
    sys.exit(main())

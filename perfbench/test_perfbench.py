"""Checks of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from replab import cli, search, structures  # noqa: E402

GOLDEN = json.loads(run.GOLDEN.read_text(encoding="utf-8"))


class WallClock:
    now = wall = staticmethod(time.perf_counter)


def cli_session(tmp_path):
    return workloads.build("cli-session", 3, tmp_path)


def test_golden_outputs_pass(tmp_path):
    phase = run.run_passes(cli_session(tmp_path), GOLDEN, WallClock, 0, 1)
    assert phase.attempted == 118 and phase.failed == 0


def test_altered_golden_entry_counts_as_failure(tmp_path):
    workload = cli_session(tmp_path)
    key = next(op.key for op in workload.ops if op.kind == "miss")
    altered = dict(GOLDEN, **{key: dict(GOLDEN[key], stdout=GOLDEN[key]["stdout"] + " ")})
    phase = run.run_passes(workload, altered, WallClock, 0, 1)
    assert phase.failed == sum(op.key == key for op in workload.ops) == 1


def test_unexpected_exit_code_counts_as_failure(tmp_path):
    workload = workloads.Workload("broken", [workloads.Op(
        "cli:verify thm-answer-game --n 1",
        lambda: workloads.run_cli("verify thm-answer-game --n 1".split()),
        workloads.cli_digest)])
    golden = {"cli:verify thm-answer-game --n 1": {"exit": 0, "stdout": ""}}
    assert run.run_passes(workload, golden, WallClock, 0, 1).failed == 1


def test_request_argparse_rejects_counts_as_failure():
    argv = "value --preset anticorr --q 3 --no-such-flag".split()
    workload = workloads.Workload("broken", [workloads.Op(
        "cli:bad", lambda: workloads.run_cli(argv), workloads.cli_digest)])
    assert run.run_passes(workload, {}, WallClock, 0, 1).failed == 1


def test_inputs_depend_only_on_seed(tmp_path):
    def keys(seed):
        return [op.key for op in workloads.build("cli-session", seed, tmp_path).ops]
    assert keys(5) == keys(5) != keys(6)
    assert len(set(keys(5))) > 28 and sum(k.endswith("[miss]") for k in keys(5)) == 28


def test_wrappers_reach_every_importer_and_come_off():
    originals = (search.max_free, structures.max_free, cli.exact_value)
    tracer = tracing.Tracer(WallClock.now)
    tracer.install()
    try:
        assert search.max_free is structures.max_free is not originals[0]
        assert cli.exact_value is not originals[2]
    finally:
        tracer.uninstall()
    assert (search.max_free, structures.max_free, cli.exact_value) == originals


def test_traced_counts_repeat_and_self_times_add_up(tmp_path):
    workload = cli_session(tmp_path)
    tracer = tracing.Tracer(WallClock.now)
    per_pass = []
    tracer.install()
    try:
        run.run_passes(workload, GOLDEN, WallClock, 0, 2, tracer,
                       lambda first, facts: per_pass.append(
                           tracing.layer_metrics(tracer.spans, first, facts)))
    finally:
        tracer.uninstall()
        workload.close()
    counts = [{k: v for k, v in m.items() if tracing.is_count(k)} for m in per_pass]
    assert len(counts) == 2 and counts[0] == counts[1]
    assert counts[0]["cache.misses"] == 28 and counts[0]["cache.hits"] == 84
    assert counts[0]["cli.main.calls"] == 118 and counts[0]["cache.bytes"] > 0
    roots = sum(s.end - s.start for s in tracer.spans if s.parent == -1)
    assert abs(sum(tracing.self_times(tracer.spans)) - roots) < 1e-6 * roots


def test_refclock_counts_reference_loops():
    with refclock.RefClock() as clock:
        start = clock.now()
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            refclock.reference()
        loops = clock.now() - start
    assert clock.samples > 0 and loops > 10
    assert 0 < clock.handler_s < 0.3


def test_setup_is_timed_against_the_reference_start_up():
    [setup] = run.measure_setup("repeat-walk", 1, 1)
    assert 0.2 * run.NOMINAL_REFERENCE_S < setup < 20 * run.NOMINAL_REFERENCE_S


def test_reported_metrics_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = dict(tracing.PER_LAYER_UNITS, **tracing.OVERHEAD_UNITS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer
    assert tuple(w["name"] for w in bench["workloads"]) == run.WORKLOADS

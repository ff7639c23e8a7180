"""Measure the benchmark's baseline and check that it is steady.

Usage (from the repository root):

    python3 perfbench/baseline.py

Runs every workload of BENCHMARK.json once per seed (1..SEEDS) for
run_seconds, then once more traced with seed 1, and writes to
perfbench/baseline.json each printed figure's median, quartiles
(statistics.quantiles, n=4) and spread ((q3 - q1) / median) with the sample
count, nproc and the Python version.  It exits non-zero if a run is
incorrect or an end-to-end spread reaches a third of its bound.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's result line and every figure it printed."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.splitlines()
    figures = {}
    for line in lines[:-1]:
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3:
            figures[parts[0]] = float(parts[1])
    return json.loads(lines[-1]), figures


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values),
            "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "run_seconds": seconds, "seeds": list(range(1, SEEDS + 1)),
           "workloads": {}}
    ok = True
    for entry in bench["workloads"]:
        name = entry["name"]
        runs = [run_once(name, seed, seconds, 0) for seed in out["seeds"]]
        traced, traced_figures = run_once(name, 1, seconds, 1)
        ok &= traced["correct"] and all(r["correct"] for r, _ in runs)
        figures = {key: summary([f[key] for _, f in runs]) for key in runs[0][1]}
        out["workloads"][name] = {
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "end_to_end": figures,
            "traced_seed_1": traced_figures,
        }
        for metric, bound in bounds.items():
            spread = figures[metric]["spread"]
            steady = spread < bound / 3
            ok &= steady
            print(f"{name:12s} {metric:16s} median {figures[metric]['median']:12.4f} "
                  f"spread {spread:.3f} bound {bound}{'' if steady else '  NOT STEADY'}")
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    (HERE / "baseline.json").write_text(text, encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

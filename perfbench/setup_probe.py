"""Time one workload's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints time.monotonic_ns() once the workload's inputs are built, up to its
first timed op.  CLOCK_MONOTONIC is system-wide on Linux, so the parent,
which read it just before starting this process, gets the time taken by
interpreter start-up, importing replab and building the inputs.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the src path above)


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    workload = workloads.build(name, seed, ROOT / ".bench_build" / "perfbench" / "probe")
    workload.begin_pass()
    done = time.monotonic_ns()
    workload.close()
    print(done)


if __name__ == "__main__":
    main()

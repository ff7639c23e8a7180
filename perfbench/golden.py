"""Regenerate perfbench/golden.json from the current source tree.

Usage: python3 perfbench/golden.py

golden.json pins the outputs every benchmark pass is checked against: for
each library op its exact value and a sha256 of its lex-first witness, and
for each CLI request its exit code and exact stdout, both as a cache miss
and as a cache hit.  It was written at the commit that introduced the
benchmark; a change that is meant to keep outputs identical must not need
to rewrite it.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the src path above)


def library_goldens() -> dict:
    out = {}
    for name in ("value", "density", "repeat-walk"):
        workload = workloads.build(name, 0, None)
        workload.begin_pass()
        for op in workload.ops:
            digest = op.digest(op.run())
            if out.setdefault(op.key, digest) != digest:
                raise SystemExit(f"{op.key}: two ops under one key disagree")
    return out


def cli_goldens() -> dict:
    out = {}
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for n, query in enumerate(workloads.CACHED_QUERIES):
            for variant, flags in enumerate(((),) + workloads.HIT_FLAGS):
                cache = ["--cache-dir", f"{tmp}/{n}-{variant}"]
                words = query.split() + list(flags)
                for kind in ("miss", "hit"):
                    result = workloads.run_cli(words + cache)
                    out[workloads.cli_key(" ".join(words), kind)] = workloads.cli_digest(result)
        requests = list(workloads.UNCACHED_REQUESTS)
        requests += [workloads.fuzz_request(s) for s in workloads.FUZZ_SEEDS]
        for request in requests:
            out[workloads.cli_key(request, None)] = workloads.cli_digest(
                workloads.run_cli(request.split()))
    return out


def main() -> None:
    golden = dict(library_goldens(), **cli_goldens())
    bad = {k: v for k, v in golden.items() if v.get("exit", 0) != 0}
    if bad:
        raise SystemExit(f"requests with a non-zero exit: {sorted(bad)}")
    text = json.dumps(golden, sort_keys=True, indent=1) + "\n"
    (HERE / "golden.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(golden)} entries to {HERE / 'golden.json'}")


if __name__ == "__main__":
    main()

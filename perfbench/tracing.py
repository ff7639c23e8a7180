"""Spans around replab's public entry points, for the traced run only.

install() replaces each entry point with a wrapper that records a span
(name, start, end, parent span, op id, attributes).  A function is replaced
in every replab module that holds it, so calls through re-imported names
(replab.structures.max_free, replab.cli.exact_value, ...) and calls between
modules are all seen.  Methods are replaced on their class.  uninstall()
puts the originals back; the untraced run never calls install().

Span times come from the run's RefClock, in reference loops (refclock.py).
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children; calls are synchronous
and single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict

from replab import cache, cli, forbidden, games, records, search, structures
from replab.repetition import RepeatedGame


def _game_attrs(args, kwargs, result) -> dict:
    game = args[0] if args else kwargs["game"]
    return {"tuples": len(game.support), "repeated": isinstance(game, RepeatedGame)}


def _points_attrs(args, kwargs, result) -> dict:
    points = args[2] if len(args) > 2 else kwargs["points"]
    return {"points": len(points)}


def _configs_attrs(args, kwargs, result) -> dict:
    return {"configs": len(result.edges)}


def _hypergraph_attrs(args, kwargs, result) -> dict:
    h = args[0] if args else kwargs["h"]
    return {"points": h.size, "edges": len(h.edges)}


# (owner, attribute, span name, attribute function or None)
TARGETS = (
    (games, "exact_value", "games.exact_value", _game_attrs),
    (games, "evaluate", "games.evaluate", _game_attrs),
    (forbidden, "check_winning_set_free", "forbidden.check_winning_set_free", _game_attrs),
    (forbidden, "compute_eq", "forbidden.compute_eq", None),
    (forbidden, "forbidden_hypergraph", "forbidden.hypergraph", _configs_attrs),
    (forbidden, "find_forbidden", "forbidden.find", _points_attrs),
    (structures, "r_line", "structures.density", None),
    (structures, "r_square", "structures.density", None),
    (structures, "r_corner", "structures.density", None),
    (structures, "r_grid", "structures.density", None),
    (structures.StructureFamily, "to_hypergraph", "structures.to_hypergraph", _configs_attrs),
    (search, "max_free", "search.max_free", _hypergraph_attrs),
    (search, "verify_free", "search.verify_free", None),
    (cache.ResultsCache, "get", "cache.get", lambda a, k, r: {"hit": r is not None}),
    (cache.ResultsCache, "put", "cache.put", None),
    (records.DensityRecord, "to_json", "records", None),
    (records.DensityRecord, "from_json", "records", None),
    (records.DensityRecord, "report_lines", "records", None),
    (records.ValueRecord, "to_json", "records", None),
    (records.ValueRecord, "from_json", "records", None),
    (records.ValueRecord, "report_lines", "records", None),
    (cli, "main", "cli.main", lambda a, k, r: {"exit": r}),
)

# Per-layer metrics with their units, in report order.
PER_LAYER_UNITS = {
    "games.exact_value.calls": "count",
    "games.exact_value.self_ref": "ref",
    "games.evaluate.self_ref": "ref",
    "games.support_tuples": "count",
    "repetition.tuples_walked": "count",
    "repetition.walk_self_ref": "ref",
    "forbidden.compute_eq.self_ref": "ref",
    "forbidden.hypergraph.self_ref": "ref",
    "forbidden.configs": "count",
    "forbidden.find.calls": "count",
    "forbidden.find.self_ref": "ref",
    "forbidden.find.points": "count",
    "structures.density.self_ref": "ref",
    "structures.to_hypergraph.self_ref": "ref",
    "structures.configs": "count",
    "search.max_free.calls": "count",
    "search.max_free.self_ref": "ref",
    "search.points": "count",
    "search.edges": "count",
    "search.verify_free.self_ref": "ref",
    "cache.get.calls": "count",
    "cache.get.self_ref": "ref",
    "cache.put.calls": "count",
    "cache.put.self_ref": "ref",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.bytes": "bytes",
    "records.self_ref": "ref",
    "cli.main.calls": "count",
    "cli.main.self_ref": "ref",
    "cli.exit_nonzero": "count",
}
# Traced minus untraced figures of the same run.
OVERHEAD_UNITS = {
    "trace.overhead_solve_ref": "ref",
    "trace.overhead_p50_ref": "ref",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name: str, parent: int, op: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.attrs: dict | None = None

    def to_json(self) -> dict:
        return {"name": self.name, "start_ref": self.start, "end_ref": self.end,
                "parent": self.parent, "op": self.op, "attrs": self.attrs}


class Tracer:
    """Collects spans; op is the id shared by every span of the current op."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, attrs):
        spans, stack, now = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = now()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "replab" or name.startswith("replab.")]
        for owner, attr, name, attrs in TARGETS:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__, attrs))
                else:
                    wrapped = self._wrap(name, raw, attrs)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json(), sort_keys=True) + "\n")


def self_times(spans: list[Span], first: int = 0) -> list[float]:
    """Self time of spans[first:], in refs."""
    own = [s.end - s.start for s in spans[first:]]
    for s in spans[first:]:
        if s.parent >= first:
            own[s.parent - first] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], first: int, facts: dict) -> dict:
    """Per-layer metrics of the spans recorded from index first on (one
    pass), plus the workload's own per-pass facts such as cache.bytes."""
    self_ref: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sums: dict[str, float] = defaultdict(int)
    for span, own in zip(spans[first:], self_times(spans, first)):
        self_ref[span.name] += own
        calls[span.name] += 1
        a = span.attrs or {}
        if span.name in ("games.exact_value", "games.evaluate"):
            sums["games.support_tuples"] += a["tuples"]
        if a.get("repeated"):
            sums["repetition.tuples_walked"] += a["tuples"]
            sums["repetition.walk_self_ref"] += own
        if span.name == "forbidden.hypergraph":
            sums["forbidden.configs"] += a["configs"]
        elif span.name == "forbidden.find":
            sums["forbidden.find.points"] += a["points"]
        elif span.name == "structures.to_hypergraph":
            sums["structures.configs"] += a["configs"]
        elif span.name == "search.max_free":
            sums["search.points"] += a["points"]
            sums["search.edges"] += a["edges"]
        elif span.name == "cache.get":
            sums["cache.hits" if a["hit"] else "cache.misses"] += 1
        elif span.name == "cli.main" and a["exit"] != 0:
            sums["cli.exit_nonzero"] += 1
    gets = calls["cache.get"]
    sums["cache.hit_ratio"] = sums["cache.hits"] / gets if gets else 0.0
    sums["cache.bytes"] = facts.get("cache.bytes", 0)
    out = {}
    for metric in PER_LAYER_UNITS:
        layer, _, kind = metric.rpartition(".")
        if kind == "self_ref":
            out[metric] = self_ref[layer]
        elif kind == "calls":
            out[metric] = calls[layer]
        else:
            out[metric] = sums[metric]
    return out


def is_count(metric: str) -> bool:
    """Deterministic metrics: everything but times."""
    return PER_LAYER_UNITS[metric] != "ref"

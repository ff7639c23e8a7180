"""Append-only JSON results cache.

Records live under a cache root (the REPLAB_CACHE environment variable, or
.replab-cache in the working directory) as one JSON file per record plus an
index.json mapping canonical keys to file names.  The cache is append-only:
putting a record under an existing key returns the stored record unchanged,
so earlier results are never silently overwritten; rechecking is the
caller's job via verifiers.  A cache file that does not parse as JSON
raises SchemaError naming the file.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .errors import SchemaError


def canonical_key(kind: str, params: dict) -> str:
    """Stable string key for a query: kind plus sorted parameters."""
    return json.dumps([kind, params], sort_keys=True, separators=(",", ":"))


def _read_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise SchemaError(f"corrupt cache file {path}: {exc}") from exc


class ResultsCache:
    def __init__(self, root: str | os.PathLike | None = None):
        if root is None:
            root = os.environ.get("REPLAB_CACHE") or ".replab-cache"
        self.root = Path(root)
        self.index_path = self.root / "index.json"
        self.records_dir = self.root / "records"

    def _load_index(self) -> dict:
        if not self.index_path.exists():
            return {}
        return _read_json(self.index_path)

    def _store_index(self, index: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.index_path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(index, fh, sort_keys=True, indent=1)
        tmp.replace(self.index_path)

    def get(self, key: str) -> dict | None:
        index = self._load_index()
        name = index.get(key)
        if name is None:
            return None
        return _read_json(self.records_dir / name)

    def put(self, key: str, record: dict) -> tuple[dict, bool]:
        """Store a record unless the key already exists.

        Returns (stored record, True) on a fresh write and (existing record,
        False) when the key was already present; the new record is discarded
        in that case."""
        index = self._load_index()
        if key in index:
            existing = self.get(key)
            assert existing is not None
            return existing, False
        name = hashlib.sha256(key.encode("utf-8")).hexdigest()[:20] + ".json"
        self.records_dir.mkdir(parents=True, exist_ok=True)
        with open(self.records_dir / name, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True, indent=1)
        index[key] = name
        self._store_index(index)
        return record, True

    def keys(self) -> list[str]:
        return sorted(self._load_index())

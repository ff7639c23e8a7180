"""Append-only JSON results cache.

Records live under a cache root (the REPLAB_CACHE environment variable, or
.replab-cache in the working directory), one file per key and no index:
records/<sha256(key)[:20]>.json holds {"key": key, "record": record}.  Each
write goes to a per-process temporary file renamed into place, so readers
never see a partial file and concurrent writers each leave a complete one;
records are deterministic functions of their key, so the last writer wins
harmlessly.  Putting a record under an existing key returns the stored
record unchanged; rechecking is the caller's job via verifiers.  A cache
file that cannot be read, is not JSON, or is not the record of the key
looked up raises SchemaError naming the file, and so does a record that
cannot be written, whose temporary file is removed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path

from .errors import SchemaError

# Part of every key: bumping it retires all records written before.
SCHEMA_VERSION = 1


def canonical_key(kind: str, params: dict) -> str:
    """Stable string key for a query: schema version, kind and sorted
    parameters."""
    return json.dumps([SCHEMA_VERSION, kind, params], sort_keys=True,
                      separators=(",", ":"))


def _read_record(path: Path, key: str) -> dict | None:
    """The record stored in path under key, or None if there is no file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, ValueError) as exc:  # unreadable, not JSON, or not UTF-8
        raise SchemaError(f"corrupt cache file {path}: {exc}") from exc
    if not (isinstance(doc, dict) and doc.get("key") == key
            and isinstance(doc.get("record"), dict)):
        raise SchemaError(f"corrupt cache file {path}: not a record of {key}")
    return doc["record"]


class ResultsCache:
    def __init__(self, root: str | os.PathLike | None = None):
        if root is None:
            root = os.environ.get("REPLAB_CACHE") or ".replab-cache"
        self.root = Path(root)
        self.records_dir = self.root / "records"

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:20]
        return self.records_dir / f"{digest}.json"

    def get(self, key: str) -> dict | None:
        return _read_record(self._path(key), key)

    def put(self, key: str, record: dict) -> tuple[dict, bool]:
        """Store a record unless the key already exists.

        Returns (stored record, True) on a fresh write and (existing record,
        False) when the key was already present; the new record is discarded
        in that case."""
        path = self._path(key)
        existing = _read_record(path, key)
        if existing is not None:
            return existing, False
        try:
            self.records_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SchemaError(f"cannot write {exc.filename}: {exc.strerror}") from exc
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({"key": key, "record": record}, fh, sort_keys=True, indent=1)
            os.replace(tmp, path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
            raise SchemaError(f"cannot write {path}: {exc.strerror}") from exc
        return record, True


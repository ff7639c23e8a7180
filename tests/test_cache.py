"""Append-only results cache behaviour."""

import errno
import hashlib
import json
import multiprocessing
import os

import pytest

from replab.cache import ResultsCache, canonical_key
from replab.cli import main
from replab.errors import SchemaError


def test_canonical_key_is_order_insensitive():
    assert canonical_key("density", {"q": 2, "n": 3}) == \
        canonical_key("density", {"n": 3, "q": 2})
    assert canonical_key("density", {"q": 2}) != canonical_key("value", {"q": 2})


def test_put_get_round_trip(tmp_path):
    cache = ResultsCache(tmp_path / "cache")
    key = canonical_key("value", {"q": 3})
    assert cache.get(key) is None
    stored, fresh = cache.put(key, {"value": "2/3"})
    assert fresh and stored == {"value": "2/3"}
    assert cache.get(key) == {"value": "2/3"}


def test_put_is_append_only(tmp_path):
    cache = ResultsCache(tmp_path / "cache")
    key = canonical_key("value", {"q": 3})
    cache.put(key, {"value": "2/3"})
    stored, fresh = cache.put(key, {"value": "1/1"})
    assert not fresh
    assert stored == {"value": "2/3"}
    assert cache.get(key) == {"value": "2/3"}


def test_layout_on_disk(tmp_path):
    root = tmp_path / "cache"
    cache = ResultsCache(root)
    key = canonical_key("density", {"n": 1})
    cache.put(key, {"value": "3/4"})
    path, = (p for p in root.rglob("*") if p.is_file())
    assert path.parent == root / "records"
    assert path.name == hashlib.sha256(key.encode()).hexdigest()[:20] + ".json"
    assert json.loads(path.read_text()) == {"key": key, "record": {"value": "3/4"}}


def test_root_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPLAB_CACHE", str(tmp_path / "envcache"))
    cache = ResultsCache()
    assert cache.root == tmp_path / "envcache"
    monkeypatch.delenv("REPLAB_CACHE")
    assert str(ResultsCache().root) == ".replab-cache"


def test_failed_write_is_a_schema_error_and_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    def read_only_replace(src, dst):
        raise OSError(errno.EROFS, os.strerror(errno.EROFS), str(src), None, str(dst))

    monkeypatch.setattr(os, "replace", read_only_replace)
    root = tmp_path / "cache"
    key = canonical_key("value", {"q": 3})
    with pytest.raises(SchemaError, match="cannot write .*Read-only file system"):
        ResultsCache(root).put(key, {"value": "2/3"})
    assert list((root / "records").iterdir()) == []
    # the CLI maps it to exit 2, as it does a records directory it cannot make
    assert main(["value", "--preset", "anticorr", "--q", "2", "--cache-dir", str(root)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert list((root / "records").iterdir()) == []


def _put_keys(root, keys):
    cache = ResultsCache(root)
    for key in keys:
        cache.put(key, {"key": key})


def _run_workers(root, key_lists):
    ctx = multiprocessing.get_context("spawn")
    workers = [ctx.Process(target=_put_keys, args=(root, keys), daemon=True)
               for keys in key_lists]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=120)
    return [w.exitcode for w in workers]


def test_concurrent_writers_keep_every_key(tmp_path):
    keys = [[canonical_key("value", {"worker": w, "i": i}) for i in range(40)]
            for w in range(4)]
    assert _run_workers(tmp_path / "cache", keys) == [0] * 4
    cache = ResultsCache(tmp_path / "cache")
    assert all(cache.get(k) == {"key": k} for ks in keys for k in ks)


def test_concurrent_writers_of_one_key(tmp_path):
    key = canonical_key("value", {"q": 3})
    assert _run_workers(tmp_path / "cache", [[key]] * 4) == [0] * 4
    cache = ResultsCache(tmp_path / "cache")
    assert cache.get(key) == {"key": key}
    assert [p.name for p in (tmp_path / "cache").rglob("*") if p.is_file()] == \
        [hashlib.sha256(key.encode()).hexdigest()[:20] + ".json"]

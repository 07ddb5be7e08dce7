"""DiskCache robustness: corrupt entries, orphaned tempfiles, concurrency.

* corrupted/truncated entries are unlinked on decode failure (so
  ``contains`` stops lying and the next ``put`` repairs the entry);
* orphaned ``*.tmp`` files from interrupted ``put``s are visible in
  ``stats()``, removed by ``clear()``, and age-reaped by ``reap_tmp``;
  a ``put`` that fails leaves none behind;
* a root an older store wrote (with its ``store_metrics.json`` sidecar),
  or no root at all, reads as a plain cache;
* ``CACHE_VERSION`` and the ``REPRO_CACHE*`` environment scope the store;
* a multi-process stress test: concurrent put/get on one root (what the
  executor's ``--jobs N`` workers do) must never produce a torn read or a
  stray tempfile.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time

import pytest

from repro.utils import diskcache
from repro.utils.diskcache import DiskCache


def _orphan_tmp(cache: DiskCache, age_s: float = 0.0, payload: bytes = b"partial") -> str:
    """Plant a fake interrupted-put tempfile under the cache root."""
    sub = cache.root / "ab"
    sub.mkdir(parents=True, exist_ok=True)
    path = sub / f"orphan-{age_s}.tmp"
    path.write_bytes(payload)
    if age_s:
        old = time.time() - age_s
        os.utime(path, (old, old))
    return str(path)


class TestCorruptEntries:
    def test_corrupt_entry_unlinked_and_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(("k",), {"value": 1})
        path = cache._path(cache.key_hash(("k",)))
        path.write_bytes(b"not a pickle")
        assert cache.get(("k",), default="miss") == "miss"
        # The bad file is gone: contains() stops reporting a phantom hit
        # and future lookups don't re-pay the failed unpickle.
        assert not path.exists()
        assert not cache.contains(("k",))
        assert cache.corrupt_dropped == 1

    def test_truncated_entry_unlinked(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(("k",), list(range(1000)))
        path = cache._path(cache.key_hash(("k",)))
        path.write_bytes(path.read_bytes()[:20])  # torn write
        assert cache.get(("k",)) is None
        assert not path.exists()

    def test_next_put_repairs(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(("k",), "good")
        path = cache._path(cache.key_hash(("k",)))
        path.write_bytes(b"\x80garbage")
        assert cache.get(("k",)) is None
        cache.put(("k",), "repaired")
        assert cache.get(("k",)) == "repaired"

    def test_missing_file_is_plain_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get(("absent",), default=42) == 42
        assert cache.corrupt_dropped == 0


class TestTmpOrphans:
    def test_stats_counts_orphans(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(("k",), 1)
        _orphan_tmp(cache)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["tmp_files"] == 1
        assert stats["tmp_bytes"] > 0

    def test_clear_removes_orphans(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(("k",), 1)
        _orphan_tmp(cache)
        assert cache.clear() == 2
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["tmp_files"] == 0

    def test_reap_tmp_age_guard(self, tmp_path):
        cache = DiskCache(tmp_path)
        _orphan_tmp(cache, age_s=7200.0)
        fresh = _orphan_tmp(cache, age_s=0.0)
        assert cache.reap_tmp(min_age_s=3600.0) == 1
        # A live writer's tempfile survives the reaper.
        assert os.path.exists(fresh)

    def test_failed_put_leaves_no_tempfile(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(("k",), "old")
        with pytest.raises(Exception):
            cache.put(("k",), lambda: None)  # lambdas do not pickle
        assert list(tmp_path.glob("*/*.tmp")) == []
        # The entry the failed put would have replaced is intact.
        assert cache.get(("k",)) == "old"


class TestRoots:
    def test_metrics_file_not_an_entry(self, tmp_path):
        # An older store kept hit/miss totals in a sidecar at the root;
        # the plain cache neither counts, clears nor reaps it.
        cache = DiskCache(tmp_path)
        cache.put(("k",), 1)
        sidecar = tmp_path / "store_metrics.json"
        sidecar.write_text('{"hits": 3, "misses": 1}\n')
        old = time.time() - 7200.0
        os.utime(sidecar, (old, old))
        assert cache.stats()["entries"] == 1
        assert cache.reap_tmp() == 0
        assert cache.clear() == 1
        assert sidecar.exists()

    def test_missing_root_reads_empty_and_is_not_created(self, tmp_path):
        cache = DiskCache(tmp_path / "never")
        stats = cache.stats()
        assert (stats["entries"], stats["bytes"], stats["tmp_files"]) == (0, 0, 0)
        assert cache.reap_tmp() == 0 and cache.clear() == 0
        assert cache.get(("k",)) is None and not cache.contains(("k",))
        assert not (tmp_path / "never").exists()

    def test_cache_version_scopes_every_key(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)
        cache.put(("k",), "v1")
        monkeypatch.setattr(diskcache, "CACHE_VERSION", diskcache.CACHE_VERSION + 1)
        assert cache.get(("k",)) is None
        cache.put(("k",), "v2")
        assert cache.get(("k",)) == "v2"
        monkeypatch.undo()
        assert cache.get(("k",)) == "v1"

    def test_default_cache_follows_environment(self, tmp_path, monkeypatch):
        monkeypatch.setattr(diskcache, "_default", None)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-root"))
        monkeypatch.setenv("REPRO_CACHE", "0")
        cache = diskcache.get_default_cache()
        assert cache.root == tmp_path / "env-root" and not cache.enabled
        assert diskcache.get_default_cache() is cache  # built once
        # configure_cache replaces it for the whole process.
        other = diskcache.configure_cache(tmp_path / "other")
        assert diskcache.get_default_cache() is other and other.enabled


# ---------------------------------------------------------------------------
# Multi-process stress: many writers, one root.
_N_KEYS = 17


def _expected(k: int) -> list[int]:
    return [k * j for j in range(800)]


def _stress_worker(root: str, n_ops: int, errors) -> None:
    try:
        cache = DiskCache(root)
        for i in range(n_ops):
            k = i % _N_KEYS
            value = cache.get(("stress", k))
            # Atomic writes + corrupt-unlink mean a reader sees either
            # nothing (a miss) or the complete, correct value — never a
            # torn read.
            if value is not None and value != _expected(k):
                errors.put(f"torn read for key {k}")
                return
            cache.put(("stress", k), _expected(k))
    except BaseException as exc:  # noqa: BLE001 — report into the queue
        errors.put(f"{type(exc).__name__}: {exc}")


def test_multiprocess_stress_no_torn_reads(tmp_path):
    errors = multiprocessing.Queue()
    procs = [
        multiprocessing.Process(
            target=_stress_worker, args=(str(tmp_path), 60, errors)
        )
        for _ in range(4)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    assert errors.empty(), errors.get()
    # The final population is consistent: every key stored once, no
    # stranded tempfiles, every entry readable and correct.
    cache = DiskCache(tmp_path)
    stats = cache.stats()
    assert stats["entries"] == _N_KEYS
    assert stats["tmp_files"] == 0
    for path in cache.root.glob("*/*.pkl"):
        with open(path, "rb") as fh:
            pickle.load(fh)  # every file unpickles cleanly
    for k in range(_N_KEYS):
        assert cache.get(("stress", k)) == _expected(k)

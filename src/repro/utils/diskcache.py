"""Content-addressed on-disk cache for expensive intermediates.

The experiment runner (``repro.runner``) and the library's own hot spots
(topology construction, BFS distance matrices) share this store: values are
pickled under ``<root>/<hh>/<hash>.pkl`` where ``hash`` is the SHA-256 of a
canonical-JSON encoding of the key, so identical work is computed once and
reused across processes and across runs.

Environment knobs
-----------------

``REPRO_CACHE_DIR``
    Cache root (default ``~/.cache/repro``).
``REPRO_CACHE=0``
    Disable the cache entirely (every lookup misses, nothing is written).

Writes are atomic (tempfile + rename), so concurrent worker processes of
the parallel executor can share one cache root safely: the worst case under
a race is the same value pickled twice.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

#: Bump to invalidate every cached artifact after a change to the cached
#: computations themselves (graph generators, BFS, experiment semantics).
CACHE_VERSION = 1

_MISS = object()


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-encodable canonical form.

    Tuples and lists are identified (both become JSON arrays), dict keys are
    stringified and sorted by the JSON encoder, and sets are sorted.  Any
    other type must provide a stable ``repr`` via str() — restricted here to
    primitives to keep hashes trustworthy.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips floats exactly; avoids JSON locale surprises.
        return {"__f__": repr(obj)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(json.dumps(_canonical(x)) for x in obj)}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, bytes):
        return {"__b__": obj.hex()}
    raise TypeError(f"unhashable cache-key component: {type(obj).__name__}")


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of the canonical-JSON form of ``obj``.

    Stable across processes, Python versions, and dict insertion orders —
    the property spec hashes and cache keys rely on.
    """
    payload = json.dumps(
        _canonical(obj), sort_keys=True, separators=(",", ":")
    ).encode()
    return hashlib.sha256(payload).hexdigest()


class DiskCache:
    """A content-addressed pickle store with hit/miss accounting."""

    def __init__(self, root: str | os.PathLike, enabled: bool = True) -> None:
        self.root = Path(root)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.corrupt_dropped = 0

    # -- key handling -------------------------------------------------------
    def key_hash(self, key: Any) -> str:
        return stable_hash((CACHE_VERSION, key))

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.pkl"

    # -- store API ----------------------------------------------------------
    def get(self, key: Any, default: Any = None) -> Any:
        """Return the cached value for ``key`` (or ``default`` on a miss).

        A corrupted or truncated entry (a torn write from a crashed
        process, a pickle from an incompatible class layout) is unlinked
        on the spot: leaving it on disk would make ``contains`` keep
        reporting a hit while every lookup re-pays the failed unpickle.
        Removing it lets the next ``put`` repair the entry.
        """
        if not self.enabled:
            self.misses += 1
            return default
        path = self._path(self.key_hash(key))
        try:
            fh = open(path, "rb")
        except OSError:
            self.misses += 1
            return default
        try:
            with fh:
                value = pickle.load(fh)
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            self.corrupt_dropped += 1
            self.misses += 1
            return default
        self.hits += 1
        return value

    def contains(self, key: Any) -> bool:
        return self.enabled and self._path(self.key_hash(key)).exists()

    def put(self, key: Any, value: Any) -> None:
        """Store ``value`` under ``key`` (atomic; no-op when disabled)."""
        if not self.enabled:
            return
        path = self._path(self.key_hash(key))
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def memoize(self, key: Any, builder: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building and storing on miss."""
        value = self.get(key, _MISS)
        if value is not _MISS:
            return value
        value = builder()
        self.put(key, value)
        return value

    # -- maintenance --------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Entry count / on-disk size / orphaned tempfiles / session counters."""
        n, size = 0, 0
        tmp_n, tmp_size = 0, 0
        if self.root.is_dir():
            for path in self.root.glob("*/*.pkl"):
                n += 1
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
            # Interrupted put()s leave mkstemp files behind; count them so
            # the store's real footprint (and the need to reap) is visible.
            for path in self.root.glob("*/*.tmp"):
                tmp_n += 1
                try:
                    tmp_size += path.stat().st_size
                except OSError:
                    pass
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "entries": n,
            "bytes": size,
            "tmp_files": tmp_n,
            "tmp_bytes": tmp_size,
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_corrupt_dropped": self.corrupt_dropped,
        }

    def clear(self) -> int:
        """Delete every cache entry and orphaned tempfile; returns the count."""
        removed = 0
        if self.root.is_dir():
            for pattern in ("*/*.pkl", "*/*.tmp"):
                for path in self.root.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed

    def reap_tmp(self, min_age_s: float = 3600.0) -> int:
        """Remove orphaned ``put`` tempfiles at least ``min_age_s`` old.

        An interrupted ``put`` (killed worker, power loss between
        ``mkstemp`` and ``os.replace``) strands a ``*.tmp`` file that no
        lookup will ever read.  ``repro cache stats`` calls this with the
        default hour; the age guard keeps a tempfile a *live* concurrent
        writer is still filling safe from the reaper.  Returns the number
        removed.
        """
        reaped = 0
        if self.root.is_dir():
            cutoff = time.time() - min_age_s
            for path in self.root.glob("*/*.tmp"):
                try:
                    if path.stat().st_mtime <= cutoff:
                        path.unlink()
                        reaped += 1
                except OSError:
                    pass
        return reaped


# ---------------------------------------------------------------------------
# Process-wide default cache (configured from the environment; the CLI and
# the parallel executor's worker initializer override it explicitly).
_default: DiskCache | None = None


def default_cache_dir() -> str:
    return os.environ.get(
        "REPRO_CACHE_DIR", os.path.join(os.path.expanduser("~"), ".cache", "repro")
    )


def get_default_cache() -> DiskCache:
    global _default
    if _default is None:
        enabled = os.environ.get("REPRO_CACHE", "1") != "0"
        _default = DiskCache(default_cache_dir(), enabled=enabled)
    return _default


def configure_cache(root: str | os.PathLike | None = None, enabled: bool = True) -> DiskCache:
    """Replace the process-wide default cache (CLI / worker entry points)."""
    global _default
    _default = DiskCache(root if root is not None else default_cache_dir(), enabled=enabled)
    return _default

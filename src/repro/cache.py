"""Content-addressed artifact cache for expensive offline stages.

Training the cross-camera association models (:func:`repro.runtime.
pipeline.train_models`) is deterministic in (scenario, seed, training
knobs) yet the experiment harness re-fits the same models at 10+ call
sites. This module caches such artifacts on disk, keyed by the SHA-256
of their canonically pickled inputs plus a code-version salt, so a warm
rerun of the full report skips every fit.

Each entry is a framed file (:mod:`repro.framed`) holding the pickled
value under this module's :data:`MAGIC`: concurrent pool workers racing
on the same key each write a complete entry and the rename picks a
winner, so readers never observe a torn file. A damaged entry (bad
magic, digest or pickle) is counted and treated as a miss, never an
error.

Activation is ambient: ``with use_cache(cache): ...`` installs the cache
in a :class:`~contextvars.ContextVar` that :func:`train_models` consults,
so every call site gains caching without threading a parameter through
the experiment harnesses. Context variables do not cross process
boundaries — pool workers activate their own instance over the shared
cache directory.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass
import hashlib
import os
import pickle
from typing import Any, Iterator, Optional

from repro.framed import read_framed, write_framed
from repro.obs.registry import MetricsRegistry, get_registry

MAGIC = b"repro-cache-v1\n"

#: Bump to invalidate every previously cached artifact after a code
#: change that alters what :func:`train_models` (or any other cached
#: producer) computes for identical inputs. Version 2: the models read
#: their fit-time KNN caches, fit token and source indexes unguarded, so
#: entries pickled before those fields existed must miss.
ARTIFACT_VERSION = 2


def default_cache_root() -> str:
    """The on-disk cache location: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time summary of one cache directory."""

    root: str
    entries: int
    total_bytes: int
    hits: int
    misses: int
    puts: int
    corrupt: int


class ArtifactCache:
    """A content-addressed pickle store under one root directory.

    Entries are sharded as ``root/<hex[:2]>/<hex>.pkl``. The instance
    keeps process-local hit/miss/put/corrupt counts and mirrors them
    into ``cache_*_total`` counters on its metrics registry.
    """

    def __init__(
        self, root: str, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.root = str(root)
        self.registry = registry if registry is not None else get_registry()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0

    # -- keys ----------------------------------------------------------
    def key_for(self, **parts: Any) -> str:
        """SHA-256 over the canonical pickle of keyword parts.

        Parts are sorted by name and pickled at a pinned protocol, so the
        key is stable across processes for identically constructed
        inputs; the :data:`ARTIFACT_VERSION` salt invalidates everything
        at once when cached semantics change.
        """
        payload = pickle.dumps(sorted(parts.items()), protocol=4)
        digest = hashlib.sha256()
        digest.update(f"repro-cache-key-v{ARTIFACT_VERSION}\n".encode("ascii"))
        digest.update(payload)
        return digest.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.pkl")

    # -- read/write ----------------------------------------------------
    def get(self, key: str) -> Optional[Any]:
        """The cached value, or None on miss (absent *or* corrupt entry)."""
        try:
            _, payload = read_framed(self._path(key), MAGIC)
            value = pickle.loads(payload)
        except OSError:
            self._miss()
            return None
        except Exception:  # FramedFileError, or pickle's zoo of types
            self.corrupt += 1
            self.registry.counter("cache_corrupt_total").inc()
            self._miss()
            return None
        self.hits += 1
        self.registry.counter("cache_hits_total").inc()
        return value

    def put(self, key: str, value: Any) -> None:
        """Atomically store ``value`` as a framed file."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_framed(
            path, MAGIC, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        )
        self.puts += 1
        self.registry.counter("cache_puts_total").inc()

    def _miss(self) -> None:
        self.misses += 1
        self.registry.counter("cache_misses_total").inc()

    # -- maintenance ---------------------------------------------------
    def entry_paths(self) -> Iterator[str]:
        """Every stored entry file, in sorted order."""
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".pkl"):
                    yield os.path.join(shard_dir, name)

    def stats(self) -> CacheStats:
        """Entry count / total bytes on disk + this process's counters."""
        entries = 0
        total = 0
        for path in self.entry_paths():
            entries += 1
            try:
                total += os.path.getsize(path)
            except OSError:
                continue
        return CacheStats(
            root=self.root,
            entries=entries,
            total_bytes=total,
            hits=self.hits,
            misses=self.misses,
            puts=self.puts,
            corrupt=self.corrupt,
        )

    def clear(self) -> int:
        """Delete every entry (and empty shard dirs); returns the count."""
        removed = 0
        for path in list(self.entry_paths()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                continue
        if os.path.isdir(self.root):
            for shard in os.listdir(self.root):
                shard_dir = os.path.join(self.root, shard)
                if os.path.isdir(shard_dir) and not os.listdir(shard_dir):
                    os.rmdir(shard_dir)
        return removed


# ----------------------------------------------------------------------
# Ambient activation
# ----------------------------------------------------------------------

_ACTIVE_CACHE: ContextVar[Optional[ArtifactCache]] = ContextVar(
    "repro_active_cache", default=None
)


def get_active_cache() -> Optional[ArtifactCache]:
    """The cache installed by the innermost :func:`use_cache`, if any."""
    return _ACTIVE_CACHE.get()


@contextlib.contextmanager
def use_cache(cache: ArtifactCache) -> Iterator[ArtifactCache]:
    """Install ``cache`` as the ambient artifact cache for this context."""
    token = _ACTIVE_CACHE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE_CACHE.reset(token)

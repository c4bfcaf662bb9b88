"""In-memory storage backend for fast tests.

``mem://<namespace>`` stores live in a process-global registry: every
:class:`MemoryBackend` (and therefore every ``ResultsStore``) opened on
the same URL in one process shares one namespace, so thread-pool writers
genuinely race on shared state.  The commit log is the per-commit
``commits/`` objects of :class:`StorageBackend`, so fast tests exercise
exactly the ``index()`` path every other backend runs, snapshot
compaction included.

State never leaves the process: a forked/spawned worker opening the same
URL sees an empty namespace, which is why ``process_shared`` is False and
the scenario runner refuses process executors for ``mem://`` stores.
"""

from __future__ import annotations

import threading
import time

from repro.scenarios.backends.base import StorageBackend

__all__ = ["MemoryBackend"]


class _Namespace:
    """One shared ``mem://`` keyspace: key -> (bytes, mtime)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.objects: dict[str, tuple[bytes, float]] = {}
        self._clock = 0.0

    def now(self) -> float:
        # strictly increasing so newest-first orderings (checkpoint GC)
        # are deterministic even for back-to-back writes
        self._clock = max(self._clock + 1e-6, time.time())
        return self._clock


_REGISTRY: dict[str, _Namespace] = {}
_REGISTRY_LOCK = threading.Lock()


class MemoryBackend(StorageBackend):
    """Dictionary-backed storage shared per namespace within one process."""

    scheme = "mem"
    process_shared = False

    def __init__(self, namespace: str) -> None:
        if not namespace:
            raise ValueError("mem:// store URLs need a namespace (mem://<name>)")
        self.namespace = namespace
        self.url = f"mem://{namespace}"
        with _REGISTRY_LOCK:
            self._ns = _REGISTRY.setdefault(namespace, _Namespace())

    @classmethod
    def drop(cls, namespace: str) -> None:
        """Forget a namespace entirely (test cleanup)."""
        with _REGISTRY_LOCK:
            _REGISTRY.pop(namespace, None)

    # ------------------------------------------------------------------ #
    def _get(self, key: str) -> bytes:
        with self._ns.lock:
            try:
                return self._ns.objects[key][0]
            except KeyError:
                raise FileNotFoundError(f"{self.url}/{key}") from None

    def _put(self, key: str, data: bytes) -> None:
        data = bytes(data)  # snapshot: callers may mutate their buffer later
        with self._ns.lock:
            self._ns.objects[key] = (data, self._ns.now())

    def _exists(self, key: str) -> bool:
        with self._ns.lock:
            return key in self._ns.objects

    def _delete(self, key: str) -> bool:
        with self._ns.lock:
            return self._ns.objects.pop(key, None) is not None

    def _list(self, prefix: str) -> list[str]:
        with self._ns.lock:
            return sorted(k for k in self._ns.objects if k.startswith(prefix))

    def _mtime(self, key: str) -> float:
        with self._ns.lock:
            try:
                return self._ns.objects[key][1]
            except KeyError:
                raise FileNotFoundError(f"{self.url}/{key}") from None

"""In-memory storage backend for fast tests.

``mem://<namespace>`` stores live in a process-global registry: every
:class:`MemoryBackend` (and therefore every ``ResultsStore``) opened on
the same URL in one process shares one namespace, so thread-pool writers
genuinely race on shared state.  The commit log is the per-commit
``commits/`` objects of :class:`StorageBackend`, so fast tests exercise
exactly the ``index()`` path every other backend runs, snapshot
compaction included.  A namespace keeps its keys sorted (a listing
first merges in the keys put since the previous one), so a listing
bisects to its prefix and walks only the keys under it, as ``file://``
walks only the prefix's subtree and S3 lists by prefix on the server.

State never leaves the process: a forked/spawned worker opening the same
URL sees an empty namespace, which is why ``process_shared`` is False and
the scenario runner refuses process executors for ``mem://`` stores.
"""

from __future__ import annotations

import bisect
import threading
import time

from repro.scenarios.backends.base import StorageBackend

__all__ = ["MemoryBackend"]


class _Namespace:
    """One shared ``mem://`` keyspace: key -> (bytes, mtime), and its keys
    in sorted order (all guarded by ``lock``)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.objects: dict[str, tuple[bytes, float]] = {}
        #: the keys in sorted order, but for the ``_unsorted`` ones first put
        #: since the last listing: that listing merges them in, so a put
        #: shifts no list
        self._sorted: list[str] = []
        self._unsorted: set[str] = set()
        self._clock = 0.0

    def add_key(self, key: str) -> None:
        """Track a key that is not in ``objects`` yet."""
        self._unsorted.add(key)

    def remove_key(self, key: str) -> None:
        """Stop tracking a key just removed from ``objects``."""
        if key in self._unsorted:
            self._unsorted.remove(key)
        else:
            del self._sorted[bisect.bisect_left(self._sorted, key)]

    def sorted_keys(self) -> list[str]:
        if self._unsorted:
            # a sorted run and a short tail: the sort is about one merge pass
            self._sorted.extend(self._unsorted)
            self._sorted.sort()
            self._unsorted.clear()
        return self._sorted

    def now(self) -> float:
        # strictly increasing so newest-first orderings (list_checkpoints)
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
            if key not in self._ns.objects:
                self._ns.add_key(key)
            self._ns.objects[key] = (data, self._ns.now())

    def _exists(self, key: str) -> bool:
        with self._ns.lock:
            return key in self._ns.objects

    def _delete(self, key: str) -> bool:
        with self._ns.lock:
            if self._ns.objects.pop(key, None) is None:
                return False
            self._ns.remove_key(key)
            return True

    def _list(self, prefix: str) -> list[str]:
        with self._ns.lock:
            keys = self._ns.sorted_keys()
            start = bisect.bisect_left(keys, prefix)
            # the keys from `start` on that start with the prefix come first
            end = bisect.bisect_left(keys, True, start, key=lambda k: not k.startswith(prefix))
            return keys[start:end]

    def _mtime(self, key: str) -> float:
        with self._ns.lock:
            try:
                return self._ns.objects[key][1]
            except KeyError:
                raise FileNotFoundError(f"{self.url}/{key}") from None

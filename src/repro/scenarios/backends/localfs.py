"""Local-filesystem storage backend.

Keys map 1:1 onto files under the root directory; puts go through the
shared unique-temp-name + ``os.replace`` machinery, so a reader never
sees a torn object and any number of processes may share one directory.
The commit log is the per-commit ``commits/`` objects every backend uses
(:class:`~repro.scenarios.backends.base.StorageBackend`): nothing here
relies on ``O_APPEND`` being atomic, so the store is as safe on a network
filesystem as its ``rename`` is.

Stores written before the log moved to ``commits/`` may still hold a
``manifest.log`` / ``manifest-segments/`` pair; neither is read any more
— ``ResultsStore.reindex()`` re-derives those records from the entries.
"""

from __future__ import annotations

import os
import urllib.parse
from pathlib import Path, PurePosixPath

from repro.scenarios import serialize
from repro.scenarios.backends.base import StorageBackend, validate_key

__all__ = ["LocalFSBackend"]


class LocalFSBackend(StorageBackend):
    """Directory-backed storage: one file per key, atomic rename puts."""

    scheme = "file"
    process_shared = True

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root).absolute()
        self.root.mkdir(parents=True, exist_ok=True)
        # percent-encode so the URL survives the unquote in
        # backend_from_url even for paths containing '#', '?' or '%xx' —
        # a worker reopening a non-round-tripping URL would silently
        # commit its results into a *different* directory
        self.url = f"file://{urllib.parse.quote(self.root.as_posix())}"

    @property
    def local_root(self) -> Path:
        return self.root

    # ------------------------------------------------------------------ #
    def _path(self, key: str) -> Path:
        # the public ops applied the shared key grammar, which rejects
        # traversal segments outright — comparing resolved paths would be
        # too late (Path.absolute() does not normalize '..' away)
        return self.root / PurePosixPath(key)

    def _get(self, key: str) -> bytes:
        return self._path(key).read_bytes()

    def _put(self, key: str, data: bytes) -> None:
        serialize.atomic_write(self._path(key), lambda fh: fh.write(bytes(data)))

    def _exists(self, key: str) -> bool:
        return self._path(key).is_file()

    def _delete(self, key: str) -> bool:
        try:
            self._path(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def _list(self, prefix: str) -> list[str]:
        # a directory-shaped prefix narrows the scan to that subtree, so
        # commit-log and snapshot listings don't walk the whole store
        base = self.root
        if "/" in prefix:
            rel = prefix.rpartition("/")[0]
            try:
                base = self.root / PurePosixPath(validate_key(rel))
            except ValueError:
                base = self.root
            else:
                if not base.is_dir():
                    return []
        keys: list[str] = []
        for path in base.rglob("*"):
            if not path.is_file() or path.name.endswith(".tmp"):
                continue  # in-flight atomic_write temp files are not objects
            key = path.relative_to(self.root).as_posix()
            if key.startswith(prefix):
                keys.append(key)
        return sorted(keys)

    def _mtime(self, key: str) -> float:
        return self._path(key).stat().st_mtime

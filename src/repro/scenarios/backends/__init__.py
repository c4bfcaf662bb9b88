"""Pluggable storage backends for the scenario results store.

The :class:`~repro.scenarios.store.ResultsStore` talks to storage only
through the :class:`StorageBackend` interface; where the bytes live is
selected by URL scheme:

========================================  =====================================
URL                                       backend
========================================  =====================================
``file:///abs/path`` (or a plain path)    :class:`LocalFSBackend` — one file
                                          per key under a directory, atomic
                                          rename puts
``mem://<namespace>``                     :class:`MemoryBackend` — in-process
                                          dictionary shared per namespace;
                                          fast tests
``s3://bucket/prefix?endpoint=...``       :class:`ObjectStoreBackend` — an
                                          S3-style put/get/list/delete API
                                          against the bundled in-process
                                          :class:`FakeObjectServer`
                                          (directory endpoint) or a real
                                          service via boto3 (http endpoint,
                                          config only)
========================================  =====================================

All three satisfy one behavioural contract and share one commit log —
per-commit ``commits/`` objects folded into ``commit-snapshots/``,
implemented once on :class:`StorageBackend` (see
:mod:`repro.scenarios.backends.base`) — asserted uniformly by
``tests/scenarios/test_backend_contract.py``.
"""

from __future__ import annotations

import re
import urllib.parse

from repro.scenarios.backends.base import (
    COMMIT_LOG_PREFIX,
    DEFAULT_COMPACT_GRACE,
    SNAPSHOT_PREFIX,
    BlobRef,
    StorageBackend,
)
from repro.scenarios.backends.faults import (
    FaultInjectingBackend,
    FaultRule,
    InjectedCrash,
)
from repro.scenarios.backends.localfs import LocalFSBackend
from repro.scenarios.backends.memory import MemoryBackend
from repro.scenarios.backends.objectstore import (
    ENDPOINT_ENV,
    FakeObjectServer,
    ObjectStoreBackend,
)
from repro.scenarios.backends.retry import (
    TransientStorageError,
    call_with_retries,
    is_transient,
)

__all__ = [
    "StorageBackend",
    "BlobRef",
    "COMMIT_LOG_PREFIX",
    "SNAPSHOT_PREFIX",
    "DEFAULT_COMPACT_GRACE",
    "LocalFSBackend",
    "MemoryBackend",
    "ObjectStoreBackend",
    "FakeObjectServer",
    "ENDPOINT_ENV",
    "FaultInjectingBackend",
    "FaultRule",
    "InjectedCrash",
    "TransientStorageError",
    "call_with_retries",
    "is_transient",
    "BACKEND_SCHEMES",
    "StoreURLError",
    "is_store_url",
    "backend_from_url",
]

#: URL schemes ``ResultsStore.open`` accepts
BACKEND_SCHEMES = ("file", "mem", "s3")

_URL_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*://")


class StoreURLError(ValueError):
    """A store URL that cannot be parsed into a backend."""


def is_store_url(target: object) -> bool:
    """Whether ``target`` is a URL string (vs. a plain filesystem path)."""
    return isinstance(target, str) and bool(_URL_RE.match(target))


def backend_from_url(url: str) -> StorageBackend:
    """Build the backend a store URL selects.

    Raises :class:`StoreURLError` for unknown schemes and malformed URLs;
    the message always names the three supported forms so a typo'd
    ``--store`` flag is self-explaining.
    """
    if not is_store_url(url):
        raise StoreURLError(
            f"not a store URL: {url!r} (expected file:///path, "
            "mem://namespace or s3://bucket/prefix[?endpoint=...])"
        )
    split = urllib.parse.urlsplit(url)
    scheme = split.scheme.lower()
    try:
        if scheme == "file":
            if split.netloc not in ("", "localhost"):
                raise StoreURLError(
                    f"file:// store URLs must be local (got host {split.netloc!r})"
                )
            if not split.path:
                raise StoreURLError("file:// store URLs need a path (file:///abs/path)")
            return LocalFSBackend(urllib.parse.unquote(split.path))
        if scheme == "mem":
            namespace = split.netloc + split.path.rstrip("/")
            return MemoryBackend(namespace)
        if scheme == "s3":
            query = urllib.parse.parse_qs(split.query)
            endpoint = query.get("endpoint", [None])[0]
            return ObjectStoreBackend(
                bucket=split.netloc, prefix=split.path, endpoint=endpoint
            )
    except StoreURLError:
        raise
    except ValueError as exc:
        raise StoreURLError(f"bad store URL {url!r}: {exc}") from exc
    raise StoreURLError(
        f"unknown store URL scheme {scheme!r} in {url!r} "
        f"(supported: {', '.join(s + '://' for s in BACKEND_SCHEMES)})"
    )

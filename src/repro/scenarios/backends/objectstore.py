"""S3-style object-store backend and the bundled in-process fake server.

``s3://bucket/prefix?endpoint=...`` stores speak a minimal S3-shaped
client API — ``put_object``/``get_object``/``list_objects``/
``delete_object``/``head_object``, whole objects only, no appends, no
renames — which is the honest common denominator of real object stores,
and all the commit log of :class:`StorageBackend` needs: per-commit
objects merged at ``index()`` time, compacted into immutable snapshot
checkpoints as the log grows (see :mod:`repro.scenarios.backends.base`).
Each primitive of :class:`ObjectStoreBackend` is one client call, one
attempt: the retry that absorbs a throttle or a 5xx is the base class's
public operation around it, never a second layer here.

Endpoints
---------
The endpoint is resolved from the URL's ``?endpoint=`` query parameter,
falling back to the ``REPRO_S3_ENDPOINT`` environment variable:

* a **directory path** selects the bundled :class:`FakeObjectServer`, an
  in-process implementation persisting objects as individual files under
  that directory.  No network, no credentials; because each object is one
  atomically-replaced file, any number of processes pointing at the same
  endpoint directory share one consistent object store — which is what
  the multi-writer stress tests and the quick-bench sweep run against;
* an **http(s) URL** selects a real S3-compatible service via ``boto3``.
  That wiring is configuration only: the library does not depend on
  boto3, and a clear error tells you to install it (plus the usual AWS
  credential environment) when an http endpoint is requested without it.

The resolved endpoint is baked into the backend's canonical ``url``, so
worker processes reconstruct the exact same store from the URL alone.
"""

from __future__ import annotations

import os
import re
import urllib.parse
from pathlib import Path
from typing import cast

from repro.scenarios import serialize
from repro.scenarios.backends.base import StorageBackend, validate_key

__all__ = ["ObjectStoreBackend", "FakeObjectServer", "ENDPOINT_ENV"]

#: environment variable consulted when an s3:// URL has no ?endpoint=
ENDPOINT_ENV = "REPRO_S3_ENDPOINT"

#: S3-style bucket names: lowercase/digits/dot/dash, must start and end
#: alphanumeric (notably excludes '.', '..' and anything with a slash)
_BUCKET_RE = re.compile(r"[a-z0-9][a-z0-9.-]*[a-z0-9]|[a-z0-9]")


class FakeObjectServer:
    """In-process S3-style object server persisting to a local directory.

    Layout: ``<root>/<bucket>/<percent-encoded key>`` — keys are flattened
    into single file names (``/`` encodes to ``%2F``), so listing a bucket
    is one directory scan and every object write is one atomic
    ``os.replace``.  The server keeps no in-memory state at all, which is
    what makes one endpoint directory shareable across processes.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root).absolute()
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _quote(key: str) -> str:
        return urllib.parse.quote(key, safe="")

    def _object_path(self, bucket: str, key: str) -> Path:
        # S3-ish bucket-name rules, tight enough that a bucket can never
        # be a traversal segment ('..') or hide path separators
        if not _BUCKET_RE.fullmatch(bucket):
            raise ValueError(f"invalid bucket name {bucket!r}")
        if not key:
            raise ValueError("object keys must be non-empty")
        name = self._quote(key)
        if name in (".", ".."):  # '.'/'..' survive percent-encoding
            raise ValueError(f"invalid object key {key!r}")
        return self.root / bucket / name

    # ------------------------------------------------------------------ #
    # the S3-shaped surface
    # ------------------------------------------------------------------ #
    def put_object(self, bucket: str, key: str, body: bytes) -> None:
        path = self._object_path(bucket, key)
        serialize.atomic_write(path, lambda fh: fh.write(bytes(body)))

    def get_object(self, bucket: str, key: str) -> bytes:
        try:
            return self._object_path(bucket, key).read_bytes()
        except FileNotFoundError:
            raise FileNotFoundError(f"s3://{bucket}/{key} (no such object)") from None

    def head_object(self, bucket: str, key: str) -> dict[str, float] | None:
        try:
            stat = self._object_path(bucket, key).stat()
        except FileNotFoundError:
            return None
        return {"size": stat.st_size, "mtime": stat.st_mtime}

    def delete_object(self, bucket: str, key: str) -> bool:
        try:
            self._object_path(bucket, key).unlink()
            return True
        except FileNotFoundError:
            return False

    def list_objects(self, bucket: str, prefix: str = "") -> list[str]:
        bucket_dir = self.root / bucket
        if not bucket_dir.is_dir():
            return []
        keys: list[str] = []
        for path in bucket_dir.iterdir():
            if not path.is_file() or path.name.endswith(".tmp"):
                continue  # skip in-flight atomic_write temp files
            key = urllib.parse.unquote(path.name)
            if key.startswith(prefix):
                keys.append(key)
        return sorted(keys)


class _Boto3Client:
    """Thin adapter presenting a real S3 service through the fake's API.

    Config-only wiring: constructed exclusively when an http(s) endpoint
    is given, and imports boto3 lazily so the library itself never
    depends on it.
    """

    def __init__(self, endpoint_url: str) -> None:
        try:
            import boto3  # type: ignore[import-not-found]
        except ImportError as exc:  # pragma: no cover - boto3 never bundled
            raise RuntimeError(
                f"s3 endpoint {endpoint_url!r} is a real object-store URL, "
                "which needs the optional boto3 dependency (pip install "
                "boto3) and AWS-style credentials in the environment; the "
                "bundled fake server is selected with a directory endpoint "
                "instead"
            ) from exc
        self._s3 = boto3.client("s3", endpoint_url=endpoint_url)  # pragma: no cover

    # pragma-no-cover block: exercised only against a live S3 service
    def put_object(self, bucket: str, key: str, body: bytes) -> None:  # pragma: no cover
        self._s3.put_object(Bucket=bucket, Key=key, Body=bytes(body))

    def get_object(self, bucket: str, key: str) -> bytes:  # pragma: no cover
        try:
            return cast(bytes, self._s3.get_object(Bucket=bucket, Key=key)["Body"].read())
        except self._s3.exceptions.NoSuchKey:
            raise FileNotFoundError(f"s3://{bucket}/{key} (no such object)") from None

    def head_object(self, bucket: str, key: str) -> dict[str, float] | None:  # pragma: no cover
        try:
            head = self._s3.head_object(Bucket=bucket, Key=key)
        except self._s3.exceptions.ClientError as exc:
            # only a definite miss maps to absent; throttles/permission
            # errors must propagate, or exists() would report a present
            # object as missing and break the store's no-downgrade guard
            status = exc.response.get("ResponseMetadata", {}).get("HTTPStatusCode")
            if status == 404:
                return None
            raise
        return {"size": head["ContentLength"], "mtime": head["LastModified"].timestamp()}

    def delete_object(self, bucket: str, key: str) -> bool:  # pragma: no cover
        # S3 DELETE is idempotent and reports nothing, but the backend
        # contract's removed-flag feeds compaction reporting — head first
        existed = self.head_object(bucket, key) is not None
        self._s3.delete_object(Bucket=bucket, Key=key)
        return existed

    def list_objects(self, bucket: str, prefix: str = "") -> list[str]:  # pragma: no cover
        keys: list[str] = []
        paginator = self._s3.get_paginator("list_objects_v2")
        for page in paginator.paginate(Bucket=bucket, Prefix=prefix):
            keys.extend(item["Key"] for item in page.get("Contents", []))
        return sorted(keys)


def client_for_endpoint(endpoint: str) -> FakeObjectServer | _Boto3Client:
    """Resolve an endpoint string into an object-store client."""
    if endpoint.startswith(("http://", "https://")):
        return _Boto3Client(endpoint)
    return FakeObjectServer(endpoint)


class ObjectStoreBackend(StorageBackend):
    """Store keys namespaced under ``<prefix>/`` inside one bucket."""

    scheme = "s3"
    process_shared = True

    def __init__(self, bucket: str, prefix: str = "", endpoint: str | None = None) -> None:
        if not bucket:
            raise ValueError("s3:// store URLs need a bucket (s3://bucket/prefix)")
        if not _BUCKET_RE.fullmatch(bucket):
            raise ValueError(
                f"invalid bucket name {bucket!r} (lowercase letters, digits, "
                "'.', '-'; must start and end alphanumeric)"
            )
        endpoint = endpoint or os.environ.get(ENDPOINT_ENV, "")
        if not endpoint:
            raise ValueError(
                "s3:// store URLs need an endpoint: pass "
                "s3://bucket/prefix?endpoint=<dir-or-http-url> or set "
                f"{ENDPOINT_ENV} (a directory selects the bundled in-process "
                "fake server; an http(s) URL selects a real service via boto3)"
            )
        self.bucket = bucket
        self.prefix = prefix.strip("/")
        if self.prefix:
            validate_key(self.prefix)
        if not endpoint.startswith(("http://", "https://")):
            endpoint = str(Path(endpoint).absolute())
        self.endpoint = endpoint
        self.client = client_for_endpoint(endpoint)
        query = urllib.parse.urlencode({"endpoint": endpoint})
        path = f"/{self.prefix}" if self.prefix else ""
        self.url = f"s3://{bucket}{path}?{query}"

    def _full_key(self, key: str) -> str:
        return f"{self.prefix}/{key}" if self.prefix else key

    # ------------------------------------------------------------------ #
    def _get(self, key: str) -> bytes:
        return self.client.get_object(self.bucket, self._full_key(key))

    def _put(self, key: str, data: bytes) -> None:
        self.client.put_object(self.bucket, self._full_key(key), bytes(data))

    def _exists(self, key: str) -> bool:
        return self.client.head_object(self.bucket, self._full_key(key)) is not None

    def _delete(self, key: str) -> bool:
        return bool(self.client.delete_object(self.bucket, self._full_key(key)))

    def _list(self, prefix: str) -> list[str]:
        # prefixes are not keys (trailing '/' is fine); compose directly
        base = f"{self.prefix}/" if self.prefix else ""
        return [key[len(base):] for key in self.client.list_objects(self.bucket, base + prefix)]

    def _mtime(self, key: str) -> float:
        head = self.client.head_object(self.bucket, self._full_key(key))
        if head is None:
            raise FileNotFoundError(f"{self.url}/{key}")
        return float(head["mtime"])

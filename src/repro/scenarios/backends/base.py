"""The storage-backend contract the results store is written against.

A :class:`StorageBackend` is a flat, URL-addressed object namespace: keys
are POSIX-style relative strings (``"<hash16>/entry.json"``), values are
whole byte blobs.  The store only ever relies on four semantic guarantees,
which every backend must provide and which
``tests/scenarios/test_backend_contract.py`` asserts uniformly:

1. **wholesale atomic put** — a reader never observes a partially written
   object; concurrent writers of one key race whole objects and the last
   one wins intact;
2. **read-your-writes visibility** — after ``put`` returns, any backend
   instance opened on the same URL (including in another process for
   process-shared backends) sees the new bytes;
3. **durable commit records** — :meth:`StorageBackend.append_commit`
   never loses *other* writers' records to a concurrent append;
4. **listing** reflects completed puts only (no temp artifacts).

Notably *absent* from the contract is an atomic multi-writer append
primitive: local filesystems have one (``O_APPEND``), object stores do
not, so the commit log does not use one anywhere.  Every backend commits
through the concrete log methods of :class:`StorageBackend`, written
against its own ``get``/``put``/``list``/``delete``/``mtime``: each
commit record is its own immutable object under ``commits/`` and the log
is merged at read time — the lock-free multi-writer semantics of the
sharded store need nothing beyond a plain object API, and a wrapper that
intercepts the object operations (fault injection) sees the log too.

Primitives vs public operations
-------------------------------
A backend implements six single-attempt *primitives* (``_get``/``_put``/
``_exists``/``_delete``/``_list``/``_mtime``) that talk to the medium and
nothing else.  The six public operations are concrete here and never
overridden: each validates the key, runs the primitive under one bounded
retry (:func:`~repro.scenarios.backends.retry.call_with_retries`) and,
for ``delete``, applies the ``missing_ok`` rule.  Absorbing a transient
storage error is thus the backend's job, done once, below every caller:
store, lease protocol, event sink and commit log inherit one budget, and
nothing above retries a storage operation again.

Log lifecycle
-------------
A long-lived log accumulates one object per commit forever, so
``commit_records()`` (the path ``ResultsStore.index()`` exercises)
degrades to O(total commits ever) object reads.  :meth:`compact` folds
the log into a single immutable ``commit-snapshots/snapshot-<seq>.json``
checkpoint object whose name records the last folded commit key; after a
compaction the merge is one snapshot read plus the un-folded tail.  The
fold is crash-safe by construction:

1. the snapshot (union of every existing snapshot plus the current
   tail, keyed per record) is written and verified readable *first*;
2. only then are the folded objects deleted — and only those older than
   a **grace window**, so a reader that picked up an older snapshot can
   still visit the tail objects it is about to read;
3. a compactor that dies between (1) and (2) leaves only folded objects
   whose record keys the snapshot already carries — the merge skips
   them by key, so duplicates are harmless and the next compaction
   simply finishes the deletion.

Records fold *keyed*: every commit record keeps the key of the log
object it arrived in, and the merge orders records by their embedded
``created_at_unix`` (falling back to the key's wall-clock stamp) with
the key as tiebreak — writers on skewed clocks cannot invert
first-appearance or most-recent-wins semantics.

What a record holds
-------------------
The log is agnostic about record content beyond ``spec_hash``,
``status`` and ``created_at_unix``; the store appends its full index
record per commit (``repro.scenarios.store.index_record``: status, wall
time, tags, result aggregates, dotted spec fields), so a snapshot plus
the un-folded tail answers filtered queries as well as discovery and
there is no second, derived index object to fold, fingerprint or collect.
"""

from __future__ import annotations

import json
import time
import uuid
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any, ClassVar

from repro.scenarios.backends.retry import call_with_retries

__all__ = [
    "StorageBackend",
    "BlobRef",
    "COMMIT_LOG_PREFIX",
    "SNAPSHOT_PREFIX",
    "DEFAULT_COMPACT_GRACE",
    "validate_key",
    "snapshot_key_for",
    "read_snapshot",
    "write_snapshot",
    "load_snapshots",
    "snapshot_union",
]

#: key prefix of per-commit log objects (one immutable object per commit)
COMMIT_LOG_PREFIX = "commits/"

#: key prefix of folded commit-log snapshot checkpoint objects
SNAPSHOT_PREFIX = "commit-snapshots/"

#: seconds a folded log object survives after its snapshot is durable —
#: long enough for any in-flight reader that saw an older snapshot to
#: finish its tail scan before the objects it is visiting disappear
DEFAULT_COMPACT_GRACE = 60.0

_SNAPSHOT_VERSION = 1

#: bounded re-scans when a racing compactor deletes tail objects mid-merge
_MERGE_ATTEMPTS = 5

#: ``(record_key, record)`` pairs as stored inside snapshot objects
Pairs = list[tuple[str, Any]]


def validate_key(key: str) -> str:
    """Enforce the contract's key grammar: relative POSIX paths only.

    The public object operations of :class:`StorageBackend` call this
    before any backend primitive runs, so a key that is valid on one
    backend is valid on all — and traversal segments (``..``), absolute
    keys and empty segments can never escape a filesystem-backed root.
    """
    if not key or key.startswith("/") or any(
        part in ("", ".", "..") for part in key.split("/")
    ):
        raise ValueError(
            f"invalid storage key {key!r}: keys are relative POSIX paths "
            "without empty, '.' or '..' segments"
        )
    return key


# --------------------------------------------------------------------------- #
# commit-log snapshots
# --------------------------------------------------------------------------- #
def _seq_of(key: str) -> str:
    """The monotonic sequence token embedded in a log-object key.

    ``commits/<stamp>-<rand>.json`` and
    ``commit-snapshots/snapshot-<seq>.json`` both reduce to their
    ``<stamp>-<rand>`` token, so snapshots and the objects they fold sort
    on one axis.
    """
    name = key.rsplit("/", 1)[-1]
    name = name.rsplit(".", 1)[0]  # strip the extension only (stamps contain '.')
    return name.removeprefix("snapshot-")


def snapshot_key_for(seq: str) -> str:
    """Snapshot object key recording ``seq`` (the last folded commit key)."""
    return f"{SNAPSHOT_PREFIX}snapshot-{seq}.json"


def record_stamp(key: str, record: object) -> float:
    """Commit time of one record: ``created_at_unix`` when the record
    carries it, else the wall-clock stamp embedded in its log-object key."""
    stamp: object = record.get("created_at_unix") if isinstance(record, dict) else None
    if isinstance(stamp, (int, float)) and not isinstance(stamp, bool):
        return float(stamp)
    try:
        return float(_seq_of(key).split("-", 1)[0])
    except ValueError:
        return 0.0


def _pair_order(pair: tuple[str, Any]) -> tuple[float, str]:
    key, record = pair
    return (record_stamp(key, record), key)


def read_snapshot(backend: StorageBackend, key: str) -> Pairs | None:
    """``[(record_key, record), ...]`` of one snapshot object, or ``None``
    when the object is missing/foreign/torn (racing compactors)."""
    try:
        doc = json.loads(backend.get(key))
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        return None
    if not isinstance(doc, dict) or doc.get("version") != _SNAPSHOT_VERSION:
        return None
    pairs = doc.get("records")
    if not isinstance(pairs, list):
        return None
    return [(str(k), rec) for k, rec in pairs]


def write_snapshot(backend: StorageBackend, key: str, pairs: Pairs) -> None:
    """Write one snapshot object and verify it reads back whole.

    The verification gates the compactor's delete phase: folded objects
    are only ever removed once their records are provably readable from
    the snapshot.
    """
    body = json.dumps(
        {"version": _SNAPSHOT_VERSION, "records": [[k, rec] for k, rec in pairs]},
        sort_keys=True,
    ).encode("utf-8")
    backend.put(key, body)
    check = read_snapshot(backend, key)
    if check is None or len(check) != len(pairs):
        raise RuntimeError(
            f"commit-log snapshot {backend.url}/{key} did not verify after "
            "write; folded objects were NOT deleted"
        )


def load_snapshots(backend: StorageBackend) -> list[tuple[str, Pairs]]:
    """``[(snapshot_key, pairs), ...]`` for every readable snapshot,
    oldest first (so record order survives repeated folds)."""
    snaps: list[tuple[str, Pairs]] = []
    for key in backend.list(SNAPSHOT_PREFIX):
        pairs = read_snapshot(backend, key)
        if pairs is None:
            continue  # deleted/torn by a racing compactor
        snaps.append((key, pairs))
    return snaps


def _union(snaps: list[tuple[str, Pairs]]) -> dict[str, Any]:
    """Record-key -> record union over loaded snapshots; duplicate keys
    across racing snapshots collapse to their first appearance."""
    folded: dict[str, Any] = {}
    for _, pairs in snaps:
        for k, rec in pairs:
            folded.setdefault(k, rec)
    return folded


def snapshot_union(backend: StorageBackend) -> tuple[dict[str, Any], list[str]]:
    """``({record_key: record}, [snapshot keys])`` over every readable
    snapshot object."""
    snaps = load_snapshots(backend)
    return _union(snaps), [key for key, _ in snaps]


def _aged_record_keys(
    backend: StorageBackend, snaps: list[tuple[str, Pairs]], grace_seconds: float
) -> tuple[set[str], bool]:
    """``(record keys safe to delete, whether the newest snapshot aged)``.

    A folded log object may only disappear once the snapshot holding its
    record has been durable for the full grace window — the window is
    measured from the *fold*, not from the object's own creation, so an
    in-flight reader that picked an older snapshot always gets grace
    seconds to finish its tail scan.  ``grace_seconds <= 0`` waives the
    window explicitly (tests, the CLI's immediate cleanup).
    """
    if not snaps:
        return set(), False
    newest_key = snaps[-1][0]
    if grace_seconds <= 0:
        return {k for _, pairs in snaps for k, _ in pairs}, True
    cutoff = time.time() - float(grace_seconds)
    aged: set[str] = set()
    newest_aged = False
    for key, pairs in snaps:
        try:
            mtime = backend.mtime(key)
        except FileNotFoundError:
            continue  # collected by a racing compactor
        if mtime <= cutoff:
            aged.update(k for k, _ in pairs)
            if key == newest_key:
                newest_aged = True
    return aged, newest_aged


class BlobRef:
    """Handle to one object of a backend, duck-typing the slice of
    :class:`pathlib.Path` the serializer and checkpoint hooks consume
    (``exists``/``read_bytes``/``write_bytes``/``unlink``/``name``).

    Deliberately *not* ``os.PathLike``: nothing downstream may assume the
    object lives on a local filesystem.
    """

    __slots__ = ("backend", "key")

    def __init__(self, backend: "StorageBackend", key: str) -> None:
        self.backend = backend
        self.key = key

    @property
    def name(self) -> str:
        return self.key.rsplit("/", 1)[-1]

    def exists(self) -> bool:
        return self.backend.exists(self.key)

    def read_bytes(self) -> bytes:
        return self.backend.get(self.key)

    def write_bytes(self, data: bytes) -> None:
        self.backend.put(self.key, bytes(data))

    def unlink(self, missing_ok: bool = False) -> None:
        self.backend.delete(self.key, missing_ok=missing_ok)

    def mtime(self) -> float:
        return self.backend.mtime(self.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlobRef({self.backend.url!r}, {self.key!r})"

    def __str__(self) -> str:
        return f"{self.backend.url}/{self.key}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BlobRef)
            and other.backend is self.backend
            and other.key == self.key
        )

    def __hash__(self) -> int:
        return hash((id(self.backend), self.key))


class StorageBackend(ABC):
    """Abstract flat object store the :class:`ResultsStore` is built on."""

    #: URL scheme this backend registers under (``file``/``mem``/``s3``)
    scheme: ClassVar[str]
    #: whether two processes opening the same URL share state (memory
    #: backends do not; the runner refuses process executors for those)
    process_shared: ClassVar[bool] = True

    #: canonical round-trippable URL (safe to ship to worker processes)
    url: str

    # ------------------------------------------------------------------ #
    # primitives: one attempt against the medium, no validation, no retry
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _get(self, key: str) -> bytes:
        """Whole object bytes; raises :class:`FileNotFoundError` on a miss."""

    @abstractmethod
    def _put(self, key: str, data: bytes) -> None:
        """Atomically (re)write one whole object."""

    @abstractmethod
    def _exists(self, key: str) -> bool:
        """Whether the object exists."""

    @abstractmethod
    def _delete(self, key: str) -> bool:
        """Remove one object if present; returns whether anything was removed."""

    @abstractmethod
    def _list(self, prefix: str) -> list[str]:
        """Sorted keys starting with ``prefix`` (completed puts only)."""

    @abstractmethod
    def _mtime(self, key: str) -> float:
        """Last-modified time of the object; :class:`FileNotFoundError` on a miss."""

    # ------------------------------------------------------------------ #
    # object operations: key grammar + one bounded retry, written once
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> bytes:
        """Whole object bytes; raises :class:`FileNotFoundError` on a miss."""
        return call_with_retries(self._get, validate_key(key))

    def put(self, key: str, data: bytes) -> None:
        """Atomically (re)write one whole object."""
        call_with_retries(self._put, validate_key(key), data)

    def exists(self, key: str) -> bool:
        """Whether the object exists."""
        return call_with_retries(self._exists, validate_key(key))

    def delete(self, key: str, missing_ok: bool = True) -> bool:
        """Remove one object; returns whether anything was removed.

        ``missing_ok=False`` raises :class:`FileNotFoundError` on a miss.
        """
        removed = call_with_retries(self._delete, validate_key(key))
        if not removed and not missing_ok:
            raise FileNotFoundError(f"{self.url}/{key}")
        return removed

    def list(self, prefix: str = "") -> list[str]:
        """Sorted keys starting with ``prefix`` (completed puts only)."""
        # prefixes are not keys (empty, or a trailing '/', is fine)
        return call_with_retries(self._list, prefix)

    def mtime(self, key: str) -> float:
        """Last-modified time of the object (seconds since the epoch)."""
        return call_with_retries(self._mtime, validate_key(key))

    # ------------------------------------------------------------------ #
    # commit log: concrete on every backend, composed from the object
    # operations above (so a wrapper intercepting those sees the log too)
    # ------------------------------------------------------------------ #
    def append_commit(self, record: dict[str, Any]) -> None:
        """Durably append one commit record to the store's log.

        The record becomes one immutable ``commits/`` object whose name
        embeds a zero-padded wall-clock timestamp plus a random suffix, so
        two racing writers can never clobber each other — the merge happens
        at read time in :meth:`commit_records`.
        """
        stamp = f"{time.time():017.6f}"
        key = f"{COMMIT_LOG_PREFIX}{stamp}-{uuid.uuid4().hex[:12]}.json"
        self.put(key, json.dumps(record, sort_keys=True).encode("utf-8"))

    def _merged_pairs(self) -> Pairs:
        """Snapshot records + un-folded tail, as ordered (key, record) pairs.

        A racing compactor may fold-and-delete tail objects after we
        picked our snapshots — their records live in a *newer* snapshot.
        That race is visible either as a tail read miss or (when the
        delete landed before our tail listing) as a changed snapshot
        listing, so both trigger a bounded re-scan rather than a loss.
        """
        last = _MERGE_ATTEMPTS - 1
        for attempt in range(_MERGE_ATTEMPTS):
            snap_keys = self.list(SNAPSHOT_PREFIX)
            folded: dict[str, Any] = {}
            for skey in snap_keys:
                pairs = read_snapshot(self, skey)
                if pairs is None:
                    continue  # deleted/torn by a racing compactor
                for k, rec in pairs:
                    folded.setdefault(k, rec)
            tail: Pairs = []
            racing = False
            for key in self.list(COMMIT_LOG_PREFIX):
                if key in folded:
                    continue  # crashed compactor's leftover; already in a snapshot
                try:
                    tail.append((key, json.loads(self.get(key))))
                except FileNotFoundError:
                    racing = True
                    if attempt < last:
                        break
                except json.JSONDecodeError:
                    continue  # foreign or torn object
            if self.list(SNAPSHOT_PREFIX) != snap_keys:
                racing = True  # a fold completed somewhere mid-scan
            if racing and attempt < last:
                continue
            pairs = list(folded.items()) + tail
            pairs.sort(key=_pair_order)
            return pairs
        return []  # pragma: no cover - loop always returns

    def commit_records(self) -> list[dict[str, Any]]:
        """All commit records, oldest first (duplicates preserved).

        Ordered by true commit time (``created_at_unix``, key stamp as
        fallback, key as tiebreak), not by lexicographic key order — a
        writer on a skewed clock stamps a misleading key but cannot
        reorder the log.
        """
        return [rec for _, rec in self._merged_pairs()]

    def commit_log_tail_count(self) -> int:
        """Commit records not yet folded into a snapshot — the number of
        log reads :meth:`commit_records` pays beyond the snapshot, which
        is what the store's auto-compaction thresholds on."""
        folded, _ = snapshot_union(self)
        return sum(1 for key in self.list(COMMIT_LOG_PREFIX) if key not in folded)

    def compact(self, grace_seconds: float = DEFAULT_COMPACT_GRACE) -> dict[str, Any]:
        """Fold the commit log into one snapshot checkpoint object.

        Fold first, verify the snapshot is readable, then delete folded
        objects older than ``grace_seconds``.  Safe to race with
        appenders and other compactors: no commit record is ever lost,
        and a crashed compactor leaves only duplicates the merge dedupes
        by record key.  Returns a report dict (``snapshot``,
        ``total_records``, ``folded_records``, ``deleted_objects``,
        ``kept_for_grace``).
        """
        snaps = load_snapshots(self)
        folded = _union(snaps)
        tail: Pairs = []
        for key in self.list(COMMIT_LOG_PREFIX):
            if key in folded:
                continue
            try:
                tail.append((key, json.loads(self.get(key))))
            except (FileNotFoundError, json.JSONDecodeError):
                continue  # racing compactor / foreign object
        merged = list(folded.items()) + tail
        merged.sort(key=_pair_order)
        report: dict[str, Any] = {
            "url": self.url,
            "snapshot": None,
            "total_records": len(merged),
            "folded_records": len(tail),
            "deleted_objects": 0,
            "kept_for_grace": 0,
        }
        if not merged:
            return report
        # the snapshot's name records the last folded commit key (max seq
        # over old snapshots and the tail), so a newer snapshot always
        # supersedes every snapshot it absorbed; fold + verify FIRST,
        # unless the fold would be a no-op
        snapshot_keys = [key for key, _ in snaps]
        seq = max([_seq_of(k) for k in snapshot_keys] + [_seq_of(k) for k, _ in tail])
        snap_key = snapshot_key_for(seq)
        if tail or snapshot_keys != [snap_key]:
            write_snapshot(self, snap_key, merged)
            snaps = [(k, p) for k, p in snaps if k != snap_key] + [(snap_key, merged)]
            report["snapshot"] = snap_key
        # ...then delete what the snapshots supersede — but only records
        # whose snapshot has been durable past the grace window, so a
        # reader mid-merge on an older snapshot never loses its tail.
        # An object appended after our scan is the next compaction's
        # business; a crashed run here leaves only key-deduped leftovers.
        merged_keys = {k for k, _ in merged}
        aged_keys, newest_aged = _aged_record_keys(self, snaps, float(grace_seconds))
        for key in self.list(COMMIT_LOG_PREFIX):
            if key in aged_keys:
                if self.delete(key, missing_ok=True):
                    report["deleted_objects"] += 1
            elif key in merged_keys:
                report["kept_for_grace"] += 1
        # ...and the snapshots this fold absorbed, once their successor has
        # aged past the same window (a reader may still be merging through one)
        for key in snapshot_keys:
            if key == snap_key:
                continue
            if newest_aged:
                if self.delete(key, missing_ok=True):
                    report["deleted_objects"] += 1
            else:
                report["kept_for_grace"] += 1
        return report

    def clear_commit_log(self) -> None:
        """Drop the commit log — snapshots included (entries stay;
        ``reindex`` rebuilds everything from the ``entry.json`` objects)."""
        for key in self.list(COMMIT_LOG_PREFIX) + self.list(SNAPSHOT_PREFIX):
            self.delete(key, missing_ok=True)

    # ------------------------------------------------------------------ #
    def ref(self, key: str) -> BlobRef:
        return BlobRef(self, key)

    @property
    def local_root(self) -> Path | None:
        """The backing :class:`~pathlib.Path` for filesystem backends,
        ``None`` for everything else (callers must use refs then)."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.url!r})"

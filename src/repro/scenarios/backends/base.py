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
The log has one reader, :meth:`StorageBackend._scan_log`: list and read the
snapshots, list and read the un-folded tail, and re-scan (bounded) when a
racing fold shows.  :meth:`~StorageBackend.commit_records` orders what it
read, :meth:`~StorageBackend.commit_log_tail_count` counts its tail and
:meth:`~StorageBackend.compact` folds it; a ``ResultsStore`` log read
folds the very scan it answers from when the tail has grown long, so a
read that folds scans once.  A long-lived log accumulates one object
per commit forever, so an un-folded log costs O(total commits ever) object
reads; the fold writes a single ``commit-snapshots/snapshot-<seq>.json``
checkpoint object whose name records the last folded commit key, after
which a scan is one snapshot read plus the un-folded tail.  A snapshot's
key is not proof of its content: a fold of several snapshots and no tail
rewrites the newest key with the union of their records.  So a scan gets
every listed snapshot and tail object, and a backend instance decodes each
once per distinct content: a repeated read compares the bytes with those
its last scan decoded under that key and reuses the records, and a read of
exactly the keys and bytes of the last scan reuses its commit order (and
``ResultsStore`` its index) too; a record is copied only when a read hands it out.
The fold is crash-safe by construction:

1. the snapshot (union of every existing snapshot plus the current
   tail, keyed per record) is written and verified readable *first*;
2. only then are the folded objects deleted — and only those older than
   a **grace window**, so a reader that picked up an older snapshot can
   still visit the tail objects it is about to read;
3. a compactor that dies between (1) and (2) leaves only folded objects
   whose record keys the snapshot already carries — the scan skips
   them by key, so duplicates are harmless and the next compaction
   simply finishes the deletion.

Records fold *keyed*: every commit record keeps the key of the log
object it arrived in, and the scan orders records by their embedded
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

import copy
import json
import time
import uuid
from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence
from pathlib import Path
from types import MappingProxyType
from typing import Any, ClassVar, NamedTuple

from repro.scenarios.backends.retry import call_with_retries

__all__ = [
    "StorageBackend",
    "BlobRef",
    "COMMIT_LOG_PREFIX",
    "SNAPSHOT_PREFIX",
    "DEFAULT_COMPACT_GRACE",
    "validate_key",
    "encode_object",
    "decode_object",
    "snapshot_key_for",
    "read_snapshot",
    "write_snapshot",
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

#: bounded re-scans when a racing compactor deletes tail objects mid-scan
_SCAN_ATTEMPTS = 5

#: ``(record_key, record)`` pairs as stored inside snapshot objects
Pairs = list[tuple[str, Any]]

#: one record of a scan's commit order: ``(record_key, record, members)``
_Ordered = tuple[str, dict[str, Any], tuple[str, ...] | None]


class _LogScan(NamedTuple):
    """One read of the commit log (:meth:`StorageBackend._scan_log`), shared: never mutate it."""

    #: ``(snapshot_key, pairs)`` of every readable snapshot, oldest first
    snapshots: list[tuple[str, Pairs]]
    #: every record of the snapshots and the tail, in commit order: the same
    #: object on every scan of an unchanged log (:func:`_detached` copies out)
    order: Sequence[_Ordered]
    #: the keys of the un-folded ``commits/`` objects read, in key order
    tail: list[str]
    #: the ``commits/`` keys listed, folded leftovers included
    listed: list[str]


def validate_key(key: str) -> str:
    """Enforce the contract's key grammar: relative POSIX paths only.

    The public object operations of :class:`StorageBackend` call this
    before any backend primitive runs, so a key that is valid on one
    backend is valid on all — and traversal segments (``..``), absolute
    keys and empty segments can never escape a filesystem-backed root.
    """
    wrapped = f"/{key}/"  # an empty key or a leading '/' shows as '//' too
    if "//" in wrapped or "/./" in wrapped or "/../" in wrapped:
        raise ValueError(
            f"invalid storage key {key!r}: keys are relative POSIX paths "
            "without empty, '.' or '..' segments"
        )
    return key


def encode_object(obj: object) -> bytes:
    """The store's one JSON object format: compact (no indent, which keeps
    ``json.dumps`` on its C encoder), sorted keys, UTF-8 and a trailing
    newline, so every object is also one event-log line."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def decode_object(raw: bytes) -> dict[str, Any] | None:
    """The JSON object ``raw`` holds, or ``None`` when the bytes are torn,
    not UTF-8, or hold anything but an object (foreign)."""
    try:
        obj = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    return obj if isinstance(obj, dict) else None


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


def _pair_order(pair: tuple[Any, ...]) -> tuple[float, str]:
    """Commit order of one ``(key, record, ...)``: ``created_at_unix`` when
    the record carries it, else the wall-clock stamp embedded in its
    log-object key; the key breaks ties."""
    key, record = pair[0], pair[1]
    stamp: object = record.get("created_at_unix") if isinstance(record, dict) else None
    if isinstance(stamp, (int, float)) and not isinstance(stamp, bool):
        return (float(stamp), key)
    try:
        return (float(_seq_of(key).split("-", 1)[0]), key)
    except ValueError:
        return (0.0, key)


def read_snapshot(backend: StorageBackend, key: str) -> Pairs | None:
    """``[(record_key, record), ...]`` of one snapshot object, or ``None``
    when the object is missing/foreign/torn (racing compactors)."""
    try:
        raw = backend.get(key)
    except OSError:
        return None
    return _parse_snapshot(raw)


def _parse_snapshot(raw: bytes) -> Pairs | None:
    """The pairs of one snapshot object's bytes (:func:`read_snapshot`), or
    ``None`` when they are not a UTF-8 JSON snapshot.  Only dict records
    are kept: a pair of any other shape is foreign."""
    doc = decode_object(raw)
    if doc is None or doc.get("version") != _SNAPSHOT_VERSION:
        return None
    pairs = doc.get("records")
    if not isinstance(pairs, list):
        return None
    return [
        (str(pair[0]), pair[1])
        for pair in pairs
        if isinstance(pair, list) and len(pair) == 2 and isinstance(pair[1], dict)
    ]


class _Decoded(NamedTuple):
    """One log object as a scan decoded it (:meth:`StorageBackend._scan_log`):
    a snapshot's pairs, or the one pair of a ``commits/`` object."""

    #: the bytes the pairs were decoded from
    raw: bytes
    pairs: Pairs
    #: per pair, :func:`_members_to_copy` of its record
    members: list[tuple[str, ...] | None]


class _LogMemo(NamedTuple):
    """What a backend instance's last clean scan decoded."""

    #: every object that scan read, by key
    objects: Mapping[str, _Decoded]
    #: its records in commit order (shared with ``objects``: never mutated)
    order: Sequence[_Ordered]


#: the memo of an instance that has not scanned cleanly
_NO_MEMO = _LogMemo(MappingProxyType({}), ())


def _decoded(memo: _LogMemo, key: str, raw: bytes) -> _Decoded | None:
    """``key``'s object as ``memo`` holds it when ``raw`` are the bytes it
    was decoded from, else decoded afresh (a ``commits/`` object is one
    pair); ``None`` when torn or foreign."""
    known = memo.objects.get(key)
    if known is not None and known.raw == raw:
        return known
    if key.startswith(SNAPSHOT_PREFIX):
        pairs = _parse_snapshot(raw)
    else:
        record = decode_object(raw)
        pairs = None if record is None else [(key, record)]
    if pairs is None:
        return None
    return _Decoded(raw, pairs, [_members_to_copy(r) for _, r in pairs])


def _members_to_copy(record: dict[str, Any]) -> tuple[str, ...] | None:
    """The keys of ``record``'s list- and dict-valued members, or ``None``
    when one of them holds a list or dict itself (copy the record whole)."""
    members = tuple(k for k, v in record.items() if isinstance(v, (list, dict)))
    for key in members:
        value = record[key]
        items = value.values() if isinstance(value, dict) else value
        if any(isinstance(item, (list, dict)) for item in items):
            return None
    return members


def _detached(record: dict[str, Any], members: tuple[str, ...] | None) -> dict[str, Any]:
    """A copy of a memoised record that shares no list or dict with it, so
    a caller mutating what a read handed out cannot change the next read."""
    if members is None:
        return copy.deepcopy(record)
    out = record.copy()
    for key in members:
        out[key] = out[key].copy()
    return out


def write_snapshot(backend: StorageBackend, key: str, pairs: Pairs) -> None:
    """Write one snapshot object and verify it reads back whole.

    The verification gates the compactor's delete phase: folded objects
    are only ever removed once their records are provably readable from
    the snapshot.
    """
    body = encode_object({"version": _SNAPSHOT_VERSION, "records": [[k, rec] for k, rec in pairs]})
    backend.put(key, body)
    check = read_snapshot(backend, key)
    if check is None or len(check) != len(pairs):
        raise RuntimeError(
            f"commit-log snapshot {backend.url}/{key} did not verify after "
            "write; folded objects were NOT deleted"
        )


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

    #: what the last clean :meth:`_scan_log` decoded; each scan assigns a
    #: new memo of the keys it read and never mutates one, so this empty
    #: class-level default is never shared state
    _log_memo: _LogMemo = _NO_MEMO

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
        self.put(key, encode_object(record))

    def _scan_log(self) -> _LogScan:
        """The one read of the commit log: the snapshots, then the tail.

        Snapshot records and the un-folded ``commits/`` objects merge into
        commit order.  A racing compactor may
        fold-and-delete tail objects after we picked our snapshots — their
        records live in a *newer* snapshot.  That race is visible either as
        a tail read miss or (when the delete landed before our tail
        listing) as a changed snapshot listing, so both trigger a bounded
        re-scan rather than a loss.

        Every listed object is got, but its bytes are decoded only when
        they differ from the bytes this instance's last clean scan decoded
        under that key (a fold may rewrite the newest snapshot key with a
        superset, and a torn object may become whole); a scan that read
        exactly the keys and bytes of that scan reuses its commit order.
        A scan that ended racing or met a torn or foreign object leaves the
        instance remembering nothing.  The scan copies nothing: ``order``
        and ``snapshots`` carry the remembered records themselves, which
        nothing may mutate, so an unchanged log is ordered and decoded once
        per instance.  Only dict records are read; anything else is foreign.
        """
        last = _SCAN_ATTEMPTS - 1
        for attempt in range(_SCAN_ATTEMPTS):
            memo = self._log_memo
            read: dict[str, _Decoded] = {}
            clean = True
            snap_keys = self.list(SNAPSHOT_PREFIX)
            snapshots: list[tuple[str, Pairs]] = []
            folded: dict[str, _Ordered] = {}
            for skey in snap_keys:
                try:
                    snap = _decoded(memo, skey, self.get(skey))
                except OSError:
                    snap = None  # deleted by a racing compactor
                if snap is None:
                    clean = False  # ...or torn by one, or foreign
                    continue
                read[skey] = snap
                snapshots.append((skey, snap.pairs))
                for (k, rec), members in zip(snap.pairs, snap.members):
                    if k not in folded:
                        folded[k] = (k, rec, members)
            listed = self.list(COMMIT_LOG_PREFIX)
            tail: list[_Ordered] = []
            racing = False
            for key in listed:
                if key in folded:
                    continue  # crashed compactor's leftover; already in a snapshot
                try:
                    obj = _decoded(memo, key, self.get(key))
                except FileNotFoundError:
                    racing = True
                    if attempt < last:
                        break
                    continue
                if obj is None:
                    clean = False  # foreign or torn object
                    continue
                read[key] = obj
                tail.append((key, obj.pairs[0][1], obj.members[0]))
            if self.list(SNAPSHOT_PREFIX) != snap_keys:
                racing = True  # a fold completed somewhere mid-scan
            if not racing or attempt == last:
                break
        if len(read) == len(memo.objects) and all(
            memo.objects.get(k) is obj for k, obj in read.items()
        ):
            order = memo.order  # the very keys and bytes of the last clean scan
        else:
            order = sorted([*folded.values(), *tail], key=_pair_order)
        self._log_memo = _LogMemo(read, order) if clean and not racing else _NO_MEMO
        return _LogScan(snapshots, order, [k for k, _, _ in tail], listed)

    def commit_records(self) -> list[dict[str, Any]]:
        """All commit records, oldest first (duplicates preserved).

        Ordered by true commit time (``created_at_unix``, key stamp as
        fallback, key as tiebreak), not by lexicographic key order — a
        writer on a skewed clock stamps a misleading key but cannot
        reorder the log.
        """
        return [_detached(rec, members) for _, rec, members in self._scan_log().order]

    def commit_log_tail_count(self) -> int:
        """Commit records not yet folded into a snapshot — the number of
        log reads a scan pays beyond the snapshot, which is what the
        store's auto-compaction thresholds on."""
        return len(self._scan_log().tail)

    def compact(self, grace_seconds: float = DEFAULT_COMPACT_GRACE) -> dict[str, Any]:
        """Fold the commit log into one snapshot checkpoint object.

        Fold first, verify the snapshot is readable, then delete folded
        objects older than ``grace_seconds``.  Safe to race with
        appenders and other compactors: no commit record is ever lost,
        and a crashed compactor leaves only duplicates the scan dedupes
        by record key.  Returns a report dict (``snapshot``,
        ``total_records``, ``folded_records``, ``deleted_objects``,
        ``kept_for_grace``).
        """
        return self._fold(self._scan_log(), grace_seconds)

    def _fold(
        self, scan: _LogScan, grace_seconds: float = DEFAULT_COMPACT_GRACE
    ) -> dict[str, Any]:
        """:meth:`compact` over a scan already read (a ``ResultsStore`` log read
        folds the scan it answers from)."""
        snaps, tail = scan.snapshots, scan.tail
        merged = [(k, rec) for k, rec, _ in scan.order]  # shared records: written, not copied
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
        seq = max([_seq_of(k) for k in snapshot_keys] + [_seq_of(k) for k in tail])
        snap_key = snapshot_key_for(seq)
        if tail or snapshot_keys != [snap_key]:
            write_snapshot(self, snap_key, merged)
            snaps = [(k, p) for k, p in snaps if k != snap_key] + [(snap_key, merged)]
            report["snapshot"] = snap_key
        # ...then delete what the snapshots supersede — but only records
        # whose snapshot has been durable past the grace window, so a
        # reader mid-scan on an older snapshot never loses its tail.  The
        # scan's own listing is the delete list: an object appended since
        # is in no snapshot we know (never aged; the next compaction's
        # business), one a racing compactor removed is a no-op delete, and
        # a crashed run here leaves only key-deduped leftovers.
        merged_keys = {k for k, _ in merged}
        aged_keys, newest_aged = _aged_record_keys(self, snaps, float(grace_seconds))
        for key in scan.listed:
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

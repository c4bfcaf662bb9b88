"""Sharded, concurrent-safe, provenance-tracked results store (layout v2).

Storage is pluggable: every byte the store reads or writes flows through a
:class:`~repro.scenarios.backends.StorageBackend` selected by URL scheme —
``ResultsStore.open("file:///runs")`` keeps one file per key in a directory,
``"mem://name"`` holds everything in process memory for fast tests, and
``"s3://bucket/prefix?endpoint=..."`` speaks an S3-style put/get/list/delete
API (bundled in-process fake server, or a real service via configuration).
Constructing ``ResultsStore("runs")`` with a plain path remains equivalent
to the ``file://`` form.

Key layout (identical across backends)::

    commits/<stamp>-<rand>.json # the commit log: one immutable object per
                                # commit, holding its index record
    commit-snapshots/snapshot-<seq>.json  # compacted commit-log checkpoint
    leases/<hash16>/...         # claim/lease coordination state (lease.py)
    events/<worker>.jsonl       # per-worker structured event feed (lease
                                # lifecycle + per-iteration solve progress,
                                # batched via StoreEventSink; read only
                                # through EventTailer — events() is one
                                # poll of a fresh tailer)
    events/<worker>.jsonl.<n>   # its later segments (n = 000001, ...): the
                                # sink seals an object past
                                # EVENT_SEGMENT_BYTES and continues in the
                                # next, so the bytes put per event are bounded
    <hash16>/                   # one key prefix per scenario content hash
      entry.json                # the manifest entry, committed atomically;
                                # it carries the ScenarioSpec that produced it
      result.npz                # solve scenarios: serialized TimeIterationResult
      payload.json              # experiment scenarios: JSON result payload
      checkpoint.npz            # transient: deleted once the completed
                                # entry is committed (compact() removes
                                # what a crash in between leaves)

Concurrency model — no locks anywhere:

* The authoritative record for a scenario is its ``entry.json``, written
  with the backend's wholesale-atomic put.  Entries are keyed by the spec
  *content hash*, so two writers racing on the same hash are writing the
  same computation's result and last-writer-wins is safe; writers on
  different hashes touch disjoint keys.
* The commit log is the store's index: a commit's record
  (:func:`index_record` — status, wall time, tags, result aggregates and
  the dotted spec fields) answers discovery, the suite scheduler's wall
  times and :meth:`ResultsStore.query` without opening any ``entry.json``.
  On every backend a commit is its own immutable ``commits/*`` object and
  the log is *merged at read time* — no atomic-append primitive is
  needed, only the plain object API.  Every read of the log — ``entries``,
  ``resolve_hash``, ``wall_times``, ``query``, the drain's scan, ``status``
  and ``report`` — is one :meth:`ResultsStore.index_records` call, one
  scan of the log.  Long-lived logs are folded into an immutable
  ``commit-snapshots/`` checkpoint (:meth:`ResultsStore.compact`; the
  fold alone runs inside :meth:`ResultsStore.index_records`, over the
  scan it just read, once the un-folded tail passes
  :attr:`ResultsStore.auto_compact_tail` records), so reading the log
  stays one snapshot read plus the un-folded tail however many commits
  the store has absorbed.  The
  log is derived data: it may contain duplicates (re-runs) and may miss a
  hash after a crash between entry write and log append;
  :meth:`ResultsStore.reindex` (also retried automatically on hash lookup
  misses) repairs that from the ``entry.json`` objects, and
  :meth:`ResultsStore.index` always re-reads ``entry.json`` per hash, so
  the log is never trusted for entry content.
* Commits are status-aware: a failed/interrupted entry never overwrites
  a completed entry whose result object is still present, so a racing
  writer hitting a transient error cannot hide finished work.

Every entry records *provenance*: the spec content hash, wall time,
iteration summary, library/numpy/python versions, hostname and a creation
timestamp — enough to answer "where did this number come from and under
which code was it produced".
"""

from __future__ import annotations

import json
import os
import platform
import time
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, cast

import numpy as np

from repro.core.time_iteration import TimeIterationResult
from repro.scenarios import serialize
from repro.scenarios.backends import (
    BlobRef,
    LocalFSBackend,
    StorageBackend,
    backend_from_url,
    is_store_url,
)
from repro.scenarios.spec import ScenarioSpec, flatten_index_fields
from repro.utils.logging import get_logger

if TYPE_CHECKING:
    from repro.parallel.tracing import Event

__all__ = [
    "EVENT_SEGMENT_BYTES",
    "EventTailer",
    "ResultsStore",
    "StoreEventSink",
    "index_record",
    "parse_event_lines",
    "parse_predicate",
]

logger = get_logger("scenarios.store")

_DIR_HASH_CHARS = 16

#: keys of an entry copied onto its commit-log record (enough for discovery
#: and wall-time-aware scheduling without opening any entry.json)
_LOG_FIELDS = ("spec_hash", "name", "kind", "status", "wall_time", "created_at_unix")

#: entry-level result aggregates the commit-log record carries alongside
#: the log fields and the dotted spec fields
_INDEX_AGGREGATES = ("converged", "iterations", "final_error", "resumed", "points_per_state")

#: comparison operators ``parse_predicate`` recognises, longest first so
#: ``<=`` is never mis-split as ``<`` followed by ``=...``
_PREDICATE_OPS = ("<=", ">=", "!=", "==", "<", ">", "=")


def parse_predicate(text: str) -> tuple[str, str, Any]:
    """Parse ``"field<op>value"`` into ``(field, op, value)``.

    ``value`` is decoded as JSON when possible (numbers, booleans,
    ``null``, quoted strings) and kept as a raw string otherwise, so
    ``tau_labor>0.25`` compares numerically while ``status=completed``
    compares as text.  ``=`` is normalised to ``==``.
    """
    for op in _PREDICATE_OPS:
        field, sep, raw = str(text).partition(op)
        if not sep:
            continue
        field, raw = field.strip(), raw.strip()
        if not field or not raw:
            break
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        return field, ("==" if op == "=" else op), value
    raise ValueError(
        f"malformed predicate {text!r} (expected field<op>value with one of "
        + ", ".join(_PREDICATE_OPS[:-1])
        + ")"
    )


def _resolve_predicate_field(record: dict[str, Any], field: str) -> str | None:
    """The record key a predicate field names, or ``None`` when absent.

    Exact (dotted) keys win; a bare field like ``tau_labor`` is tried
    against the ``calibration.``/``solver.``/``params.`` groups and must
    be unambiguous within the record.
    """
    if field in record:
        return field
    present = [
        f"{group}.{field}"
        for group in ("calibration", "solver", "params")
        if f"{group}.{field}" in record
    ]
    if len(present) > 1:
        raise ValueError(
            f"field {field!r} is ambiguous (matches {', '.join(present)}); "
            "use the dotted form"
        )
    return present[0] if present else None


def _predicate_matches(record: dict[str, Any], field: str, op: str, value: Any) -> bool:
    key = _resolve_predicate_field(record, field)
    if key is None:
        return False
    actual = record[key]
    if op == "==":
        return actual == value
    if op == "!=":
        return actual != value
    # ordering comparisons only between two numbers or two strings — a
    # range predicate over mixed/None/bool values silently matching would
    # be worse than matching nothing
    numeric = (
        isinstance(actual, (int, float))
        and not isinstance(actual, bool)
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    )
    if not numeric and not (isinstance(actual, str) and isinstance(value, str)):
        return False
    if op == "<":
        return actual < value
    if op == "<=":
        return actual <= value
    if op == ">":
        return actual > value
    return actual >= value


def _winning_records(records: Iterable[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """hash -> the log record whose entry state should be live.

    Mirrors the store's no-downgrade commit rule: per hash the last
    *completed* record wins (a later failed/interrupted re-run never
    overwrites completed work), and non-completed records only stand in
    while no completed record exists.
    """
    winners: dict[str, dict[str, Any]] = {}
    completed: set[str] = set()
    for rec in records:
        h = rec.get("spec_hash")
        if not h:
            continue
        if rec.get("status") == "completed":
            winners[h] = rec
            completed.add(h)
        elif h not in completed:
            winners[h] = rec
    return winners


def record_wall_times(records: Mapping[str, Mapping[str, Any]]) -> dict[str, float]:
    """hash -> the positive wall time of each :meth:`ResultsStore.index_records` record."""
    times: dict[str, float] = {}
    for h, rec in records.items():
        wall = rec.get("wall_time")
        if isinstance(wall, (int, float)) and not isinstance(wall, bool) and wall > 0:
            times[h] = float(wall)
    return times


def index_record(entry: Mapping[str, Any]) -> dict[str, Any]:
    """The commit-log record of one entry — what the store indexes.

    Carries the log fields, ``tags``, the result aggregates in
    :data:`_INDEX_AGGREGATES` the entry has, and the dotted spec fields
    (``calibration.beta``, ``solver.grid_level``, ``params.dim``) the
    query engine filters on.  Pure: built from the entry dict alone, so
    the record appended at commit time and the one
    :meth:`ResultsStore.reindex` rebuilds from ``entry.json`` are the same.
    """
    record: dict[str, Any] = {k: entry[k] for k in _LOG_FIELDS if k in entry}
    record["tags"] = list(entry.get("tags", ()))
    record.update({k: entry[k] for k in _INDEX_AGGREGATES if k in entry})
    record.update(
        flatten_index_fields(
            entry.get("calibration", {}), entry.get("solver", {}), entry.get("params", {})
        )
    )
    return record


def _provenance() -> dict[str, Any]:
    import repro

    return {
        "library_version": repro.__version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "hostname": platform.node(),
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "created_at_unix": time.time(),
    }


def _json_bytes(data: object) -> bytes:
    # compact separators keep json.dumps on the C encoder (an indent selects
    # the pure-Python one); show/query --json pretty-print on the way out
    return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


class ResultsStore:
    """Scenario results sharded one key prefix per hash, on any backend."""

    ENTRY_FILE = "entry.json"
    LEASE_PREFIX = "leases"
    EVENTS_PREFIX = "events"

    #: un-folded commit records :meth:`index_records` tolerates before
    #: folding the log into a snapshot (see :meth:`compact`)
    auto_compact_tail = 512

    def __init__(self, root: StorageBackend | str | os.PathLike[str]) -> None:
        """Open a store on a backend, URL, or plain local path.

        ``root`` may be a :class:`StorageBackend` instance, a store URL
        (``file://``/``mem://``/``s3://`` — see
        :func:`repro.scenarios.backends.backend_from_url`) or a local
        filesystem path (the historical form, equivalent to ``file://``).
        """
        if isinstance(root, StorageBackend):
            self.backend = root
        elif is_store_url(root):
            self.backend = backend_from_url(root)
        else:
            self.backend = LocalFSBackend(root)
        #: backing directory for file:// stores, ``None`` otherwise
        self.root = self.backend.local_root

    @classmethod
    def open(cls, url: StorageBackend | str | os.PathLike[str]) -> "ResultsStore":
        """Open a store from a URL (or plain path); see :meth:`__init__`."""
        return cls(url)

    @property
    def url(self) -> str:
        """Canonical store URL (round-trips through :meth:`open`)."""
        return self.backend.url

    # ------------------------------------------------------------------ #
    # keys and refs (backend-agnostic)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _hash_of(spec_or_hash: ScenarioSpec | str) -> str:
        if isinstance(spec_or_hash, ScenarioSpec):
            return spec_or_hash.content_hash()
        return str(spec_or_hash)

    def scenario_key(self, spec_or_hash: ScenarioSpec | str) -> str:
        return self._hash_of(spec_or_hash)[:_DIR_HASH_CHARS]

    def entry_key(self, spec_or_hash: ScenarioSpec | str) -> str:
        return f"{self.scenario_key(spec_or_hash)}/{self.ENTRY_FILE}"

    def result_key(self, spec_or_hash: ScenarioSpec | str) -> str:
        return f"{self.scenario_key(spec_or_hash)}/result.npz"

    def payload_key(self, spec_or_hash: ScenarioSpec | str) -> str:
        return f"{self.scenario_key(spec_or_hash)}/payload.json"

    def checkpoint_key(self, spec_or_hash: ScenarioSpec | str) -> str:
        return f"{self.scenario_key(spec_or_hash)}/checkpoint.npz"

    # lease-protocol keys live under leases/<hash16>/ — two slashes, so
    # _entry_keys' single-slash filter and the per-scenario prefix scans
    # never mistake coordination state for scenario data
    def lease_key(self, spec_or_hash: ScenarioSpec | str) -> str:
        return f"{self.LEASE_PREFIX}/{self.scenario_key(spec_or_hash)}/lease.json"

    def attempts_key(self, spec_or_hash: ScenarioSpec | str) -> str:
        return f"{self.LEASE_PREFIX}/{self.scenario_key(spec_or_hash)}/attempts.json"

    def parked_key(self, spec_or_hash: ScenarioSpec | str) -> str:
        return f"{self.LEASE_PREFIX}/{self.scenario_key(spec_or_hash)}/parked.json"

    def result_ref(self, spec_or_hash: ScenarioSpec | str) -> BlobRef:
        return self.backend.ref(self.result_key(spec_or_hash))

    def checkpoint_ref(self, spec_or_hash: ScenarioSpec | str) -> BlobRef:
        return self.backend.ref(self.checkpoint_key(spec_or_hash))

    # ------------------------------------------------------------------ #
    # lease/coordination state (read side; the protocol itself lives in
    # repro.scenarios.lease)
    # ------------------------------------------------------------------ #
    def _lease_records(self, *names: str) -> dict[str, list[dict[str, Any]]]:
        """name -> the parsed ``leases/<hash16>/<name>`` records, from one
        listing; each record gains a ``scenario`` field carrying the hash16
        its key encodes.  Unreadable, torn and foreign (not a JSON object)
        records are skipped — a record vanishing mid-scan is normal
        operation, not corruption."""
        out: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
        for key in self.backend.list(f"{self.LEASE_PREFIX}/"):
            name = key.rsplit("/", 1)[-1]
            if name not in out:
                continue
            try:
                record = json.loads(self.backend.get(key))
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue
            if not isinstance(record, dict):
                continue
            record["scenario"] = key.split("/")[1]
            out[name].append(record)
        return {name: sorted(recs, key=lambda r: r["scenario"]) for name, recs in out.items()}

    def leases(self) -> list[dict[str, Any]]:
        """All live lease records (``leases/<hash16>/lease.json``), parsed."""
        return self._lease_records("lease.json")["lease.json"]

    def parked(self) -> list[dict[str, Any]]:
        """All parked-scenario records (retry budget exhausted), parsed."""
        return self._lease_records("parked.json")["parked.json"]

    # ------------------------------------------------------------------ #
    # structured events (read side; emitted through StoreEventSink)
    # ------------------------------------------------------------------ #
    @classmethod
    def event_key(cls, worker: str, segment: int = 0) -> str:
        """Key of one segment of a worker's event log (:meth:`parse_event_key` inverts).

        Segment 0 is ``events/<worker>.jsonl``; segment ``n`` appends
        ``.<n>`` *after* the extension, because worker ids may contain dots
        themselves (``--worker-id`` is free text) and a number inside the
        id's own dotted suffix could not be told from the id.
        """
        return f"{cls.EVENTS_PREFIX}/{worker}.jsonl" + (f".{segment:06d}" if segment else "")

    @classmethod
    def parse_event_key(cls, key: str) -> tuple[str, int] | None:
        """``(worker, segment)`` of an event-log key, ``None`` for anything else."""
        name = key[len(cls.EVENTS_PREFIX) + 1 :]
        if name.endswith(".jsonl"):
            return name[: -len(".jsonl")], 0
        worker, sep, number = name.rpartition(".jsonl.")
        return (worker, int(number)) if sep and number.isdigit() else None

    def event_segments(self) -> dict[str, dict[int, str]]:
        """worker id -> ``{segment number: key}`` in segment order (one listing)."""
        found: dict[str, dict[int, str]] = {}
        for key in self.backend.list(f"{self.EVENTS_PREFIX}/"):
            parsed = self.parse_event_key(key)
            if parsed is not None:
                found.setdefault(parsed[0], {})[parsed[1]] = key
        return {worker: dict(sorted(segments.items())) for worker, segments in found.items()}

    def events(self) -> list[dict[str, Any]]:
        """Every persisted event across all workers, time-ordered.

        The first poll of a fresh :class:`EventTailer`: the merged
        solve-progress + lease-protocol feed ``status`` and ``report`` read.
        """
        return EventTailer(self).poll()

    # ------------------------------------------------------------------ #
    # committing and indexing entries
    # ------------------------------------------------------------------ #
    def commit_entry(self, entry: dict[str, Any]) -> dict[str, Any]:
        """Commit one entry: atomic ``entry.json`` put + one log append.

        Safe to call from any number of writers; per hash the last
        writer wins wholesale (entries are content-addressed, so
        concurrent writers of one hash carry the same computation).
        """
        if "spec_hash" not in entry:
            raise ValueError("manifest entry needs a spec_hash")
        entry = dict(entry)
        if entry.get("status") != "completed":
            existing = self.entry(entry["spec_hash"])
            if existing is not None and self.entry_is_complete(existing):
                # never downgrade: a failed/interrupted re-run (a racing
                # second host hitting a transient error) must not
                # hide a completed entry whose result is still readable
                return existing
        self.backend.put(self.entry_key(entry["spec_hash"]), _json_bytes(entry))
        self.backend.append_commit(index_record(entry))
        return entry

    def log_records(self) -> list[dict[str, Any]]:
        """The raw commit log, oldest first (may contain duplicates)."""
        return self.backend.commit_records()

    def index(self) -> dict[str, dict[str, Any]]:
        """hash -> entry for the hashes of :meth:`index_records`, in their order.

        The log supplies the hash set (one scan of it, folded when its tail
        has grown long); each entry is then re-read from its authoritative
        ``entry.json`` (the log record is never trusted for content).
        Hashes whose entry object vanished (pruned directory) are dropped.
        """
        return {h: entry for h in self.index_records() if (entry := self.entry(h)) is not None}

    def compact(self, grace_seconds: float | None = None) -> dict[str, Any]:
        """Fold the commit log into one immutable snapshot checkpoint, and
        delete the checkpoints of completed scenarios.

        After a compaction, reading the log costs one snapshot object
        read plus the un-folded tail instead of O(total commits ever).
        Crash-safe and race-safe: the snapshot is written and verified
        *before* anything is deleted, folded objects only disappear once
        their snapshot has aged past the grace window (``None`` keeps
        the backend's default, generous enough for in-flight readers),
        and a compactor dying mid-way leaves only duplicates the log scan
        dedupes by key.

        The commit path deletes a solve's checkpoint right after its
        completed entry lands; a crash between the two leaves the
        checkpoint behind, and this is where it goes: every checkpoint
        whose scenario's winning record is ``completed`` is deleted, every
        other one stays resumable.  Returns the backend's report dict plus
        ``checkpoints_deleted``.
        """
        if grace_seconds is None:
            report = self.backend.compact()
        else:
            report = self.backend.compact(float(grace_seconds))
        report["checkpoints_deleted"] = sum(
            self.backend.delete(info["key"])
            for info in self.list_checkpoints()
            if info["status"] == "completed"
        )
        return report

    def _entry_keys(self) -> list[str]:
        """All ``<hash16>/entry.json`` keys actually present on the backend."""
        return [
            key
            for key in self.backend.list()
            if key.count("/") == 1 and key.endswith(f"/{self.ENTRY_FILE}")
        ]

    def reindex(self) -> dict[str, dict[str, Any]]:
        """Self-heal the log from the ``entry.json`` objects, then index.

        Covers the crash window between an entry write and its log append
        (and stores assembled by copying scenario directories around): any
        entry object whose hash is missing from the log is re-appended with
        its :func:`index_record`.  A hash the log has is left as it is.
        """
        logged = {rec.get("spec_hash") for rec in self.log_records()}
        for key in sorted(self._entry_keys()):
            try:
                entry = json.loads(self.backend.get(key))
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue
            if not isinstance(entry, dict):
                continue
            h = entry.get("spec_hash")
            if h and h not in logged:
                logged.add(h)
                self.backend.append_commit(index_record(entry))
        return self.index()

    def entries(self) -> list[dict[str, Any]]:
        """All committed entries, oldest first."""
        entries = list(self.index().values())
        entries.sort(key=lambda e: e.get("created_at_unix", 0.0))
        return entries

    def entry(self, spec_or_hash: ScenarioSpec | str) -> dict[str, Any] | None:
        """The committed entry for this hash (one object read, no log scan)."""
        try:
            entry = json.loads(self.backend.get(self.entry_key(spec_or_hash)))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None  # torn by an unkillable non-atomic writer; treat as absent
        return entry if isinstance(entry, dict) else None  # foreign; absent too

    def resolve_hash(self, prefix: str) -> str:
        """Expand a (unique) hash prefix to the full spec hash.

        A miss triggers one :meth:`reindex` retry, so entries whose log
        record was lost (a writer crashed between the entry put and the
        log put) are still found as long as their ``entry.json`` exists.
        """
        prefix = str(prefix)
        if len(prefix) >= 64:
            # a full-length hash is validated too: a typo'd 64-char hash
            # must fail here with the clean KeyError, not later as a bare
            # FileNotFoundError from whatever backend key it composes
            entry = self.entry(prefix)
            if entry is not None and entry.get("spec_hash") == prefix:
                return prefix
            if prefix in self.index_records() or prefix in self.reindex():
                return prefix
            raise KeyError(f"no store entry matches hash {prefix!r}")
        matches = sorted(h for h in self.index_records() if h.startswith(prefix))
        if not matches:
            matches = sorted(h for h in self.reindex() if h.startswith(prefix))
        if not matches:
            raise KeyError(f"no store entry matches hash prefix {prefix!r}")
        if len(matches) > 1:
            raise KeyError(
                f"hash prefix {prefix!r} is ambiguous: "
                + ", ".join(m[:16] for m in matches)
            )
        return matches[0]

    def wall_times(self) -> dict[str, float]:
        """hash -> most recent recorded wall time, from the commit log.

        What the drain's longest-first order reads (from the records of its
        scan pass, through :func:`record_wall_times`).  A *completed*
        record always beats interrupted/failed ones — a re-run killed
        after one iteration must not overwrite a full solve's recorded
        300s with its 2s partial and invert the order.  Partial times
        still stand in when no completed run exists (they are a lower
        bound on the scenario's true cost).  No ``entry.json`` object is
        opened for this.
        """
        return record_wall_times(self.index_records())

    # ------------------------------------------------------------------ #
    # queries over the commit log
    # ------------------------------------------------------------------ #
    def index_records(self) -> dict[str, dict[str, Any]]:
        """hash -> its winning commit record (see :func:`index_record`), in
        log order of each hash's first appearance.

        One scan of the log — one snapshot read plus the un-folded tail —
        and no ``entry.json`` read: a commit is fully queryable the moment
        it lands, compacted or not.  When the scan's tail has outgrown
        :attr:`auto_compact_tail`, that same scan is folded into a snapshot
        so the *next* read stays cheap: the fold only (a read must not pay
        :meth:`compact`'s checkpoint listing), best-effort housekeeping that
        never fails the read itself.  A hash whose scenario directory was
        pruned keeps its record — the log does not know — until the log is
        rebuilt (``clear_commit_log`` + :meth:`reindex`).
        """
        scan = self.backend._scan_log()
        if len(scan.tail) > self.auto_compact_tail:
            try:
                report = self.backend._fold(scan)
                logger.info(
                    "auto-compacted %s: %d record(s) -> %s",
                    self.url,
                    report["total_records"],
                    report["snapshot"],
                )
            except Exception as exc:  # repro: allow[broad-except] -- never fail the read
                logger.warning("auto-compaction of %s failed: %s", self.url, exc)
        return _winning_records(rec for _, rec in scan.merged)

    def query(
        self,
        where: Iterable[str | tuple[str, str, Any]] = (),
        status: str | None = None,
        hash_prefix: str | None = None,
    ) -> list[dict[str, Any]]:
        """Filtered commit records (the ``repro-scenarios query`` engine).

        ``where`` is a conjunction of predicates — ``"field<op>value"``
        strings (see :func:`parse_predicate`) or pre-parsed
        ``(field, op, value)`` triples.  Bare field names search the
        ``calibration.``/``solver.``/``params.`` groups; ``status`` and
        ``hash_prefix`` are convenience filters for the two most common
        axes.  Returns matching records oldest-first (creation time, then
        hash).  Cost is :meth:`index_records`' — O(snapshot + un-folded
        tail) backend reads, no per-entry objects.
        """
        predicates = [
            parse_predicate(w) if isinstance(w, str) else (w[0], w[1], w[2]) for w in where
        ]
        hash_prefix = str(hash_prefix) if hash_prefix else ""
        matches: list[dict[str, Any]] = []
        for h, rec in self.index_records().items():
            if not h.startswith(hash_prefix):
                continue
            if status is not None and rec.get("status") != status:
                continue
            if all(_predicate_matches(rec, f, op, v) for f, op, v in predicates):
                matches.append(rec)
        matches.sort(key=lambda r: (r.get("created_at_unix") or 0.0, r.get("spec_hash") or ""))
        return matches

    def entry_is_complete(self, entry: dict[str, Any] | None) -> bool:
        """Whether an entry denotes a completed, readable result.

        Takes the entry (possibly from a caller-held index snapshot, so
        batch scans need not re-read per spec) and verifies the
        result/payload object it points at actually exists.
        """
        if entry is None or entry.get("status") != "completed":
            return False
        kind = entry.get("kind", "solve")
        target = (
            self.result_key(entry["spec_hash"])
            if kind == "solve"
            else self.payload_key(entry["spec_hash"])
        )
        return self.backend.exists(target)

    def has(self, spec_or_hash: ScenarioSpec | str) -> bool:
        """Whether a *completed* result for this spec hash is stored."""
        return self.entry_is_complete(self.entry(spec_or_hash))

    # ------------------------------------------------------------------ #
    # writing results
    # ------------------------------------------------------------------ #
    def save_spec(self, spec: ScenarioSpec) -> None:
        """Does nothing: a spec is stored once, in its entry (:meth:`load_spec`)
        (benchmarks/ledger/layers.py, frozen, still wraps this name)."""

    def _base_entry(self, spec: ScenarioSpec, status: str, wall_time: float) -> dict[str, Any]:
        return {
            "spec_hash": spec.content_hash(),
            "name": spec.name,
            "kind": spec.kind,
            "tags": list(spec.tags),
            "status": status,
            "wall_time": float(wall_time),
            # the entry is the one stored copy of the spec: load_spec and
            # diff rebuild it from here, reindex its commit record
            "calibration": dict(spec.calibration),
            "solver": dict(spec.solver),
            "params": dict(spec.params),
            **_provenance(),
        }

    def write_result(
        self,
        spec: ScenarioSpec,
        result: TimeIterationResult,
        wall_time: float,
        resumed: bool = False,
    ) -> dict[str, Any]:
        """Persist a solve result and build its manifest entry (which carries the spec).

        The entry is *returned, not committed* — the scenario runner's
        worker commits it (``commit_entry``) once everything the entry
        points at is stored.
        """
        serialize.save_result(
            self.result_ref(spec), result, extra_meta={"spec_hash": spec.content_hash()}
        )
        entry = self._base_entry(spec, "completed", wall_time)
        entry.update(
            {
                "resumed": bool(resumed),
                "converged": bool(result.converged),
                "iterations": int(result.iterations),
                "final_error": float(result.final_error),
                "points_per_state": [int(p) for p in result.policy.points_per_state],
                "iteration_records": [
                    {
                        "iteration": r.iteration,
                        "policy_change_linf": r.policy_change_linf,
                        "wall_time": r.wall_time,
                        "total_points": r.total_points,
                    }
                    for r in result.records
                ],
            }
        )
        return entry

    def write_payload(
        self, spec: ScenarioSpec, payload: dict[str, Any], wall_time: float
    ) -> dict[str, Any]:
        """Persist an experiment-scenario JSON payload; returns the entry."""
        self.backend.put(self.payload_key(spec), _json_bytes(payload))
        return self._base_entry(spec, "completed", wall_time)

    def failure_entry(
        self,
        spec: ScenarioSpec,
        status: str,
        wall_time: float,
        error: str,
        tb: str | None = None,
    ) -> dict[str, Any]:
        """Manifest entry for a failed/interrupted scenario (results untouched).

        ``error`` is the one-line summary; ``tb`` optionally carries the
        full formatted traceback so ``repro-scenarios show`` can explain a
        failure without anyone re-running or digging through worker logs.
        """
        entry = self._base_entry(spec, status, wall_time)
        entry["error"] = error
        if tb:
            entry["traceback"] = str(tb)
        return entry

    # ------------------------------------------------------------------ #
    # reading results
    # ------------------------------------------------------------------ #
    def load_result(self, spec_or_hash: ScenarioSpec | str) -> TimeIterationResult:
        return serialize.load_result(self.result_ref(spec_or_hash))

    def load_payload(self, spec_or_hash: ScenarioSpec | str) -> dict[str, Any]:
        return cast(
            "dict[str, Any]", json.loads(self.backend.get(self.payload_key(spec_or_hash)))
        )

    def load_spec(self, spec_or_hash: ScenarioSpec | str) -> ScenarioSpec:
        """The spec a stored entry was written for, rebuilt from its ``entry.json``
        (one get; ``FileNotFoundError`` when there is no entry)."""
        return ScenarioSpec.from_dict(json.loads(self.backend.get(self.entry_key(spec_or_hash))))

    # ------------------------------------------------------------------ #
    # checkpoints (deleted by the commit path and by compact())
    # ------------------------------------------------------------------ #
    def list_checkpoints(self, with_progress: bool = False) -> list[dict[str, Any]]:
        """Stored checkpoints, newest first, annotated with entry status.

        Each item carries the checkpoint key/mtime and, when the
        scenario's entry exists, its hash, name and status.
        ``with_progress=True`` additionally reads each checkpoint's
        metadata (no array, no surplus) to report the iteration it would
        resume from (the ``resume`` CLI).
        Routed entirely through the backend — no filesystem layout is
        assumed, so the listing works identically for ``mem://`` and
        ``s3://`` stores.
        """
        infos: list[dict[str, Any]] = []
        index_by_dir: dict[str, dict[str, Any]] | None = None
        for key in self.backend.list():
            if key.count("/") != 1 or not key.endswith("/checkpoint.npz"):
                continue
            directory = key.split("/", 1)[0]
            if index_by_dir is None:
                # one commit-log scan annotates every checkpoint — records
                # carry hash/name/status, so a store with hundreds of
                # checkpoints costs zero per-scenario entry reads here
                index_by_dir = {
                    h[:_DIR_HASH_CHARS]: rec for h, rec in self.index_records().items()
                }
            entry = index_by_dir.get(directory) or self.entry(directory) or {}
            try:
                mtime = self.backend.mtime(key)
            except FileNotFoundError:
                continue  # a concurrent commit or compact removed it mid-scan
            info: dict[str, Any] = {
                "key": key,
                "path": str(self.root / key) if self.root is not None else f"{self.url}/{key}",
                "directory": directory,
                "mtime": mtime,
                "spec_hash": entry.get("spec_hash", directory),
                "name": entry.get("name", "?"),
                "status": entry.get("status", "unknown"),
            }
            if with_progress:
                try:
                    meta = serialize.load_meta(self.backend.ref(key))
                    info["iterations_done"] = len(meta["records"])
                except Exception:  # repro: allow[broad-except] -- reported, never fatal
                    info["iterations_done"] = None
            infos.append(info)
        # newest-first by mtime — but mtime is upload-time with coarse
        # granularity on object stores, so within an mtime tie the key is
        # the tiebreak and every call lists the same order
        infos.sort(key=lambda i: (i["mtime"], i["key"]), reverse=True)
        return infos


def parse_event_lines(raw: bytes) -> list[dict[str, Any]]:
    """Parse an ``events/*.jsonl`` blob into event dicts, tolerantly.

    Only *complete* lines (terminated by a newline) are parsed: a torn
    trailing line — a whole-object put racing the read on a transport
    without atomic visibility — is skipped and picked up whole on the
    next read.  Unparseable or non-dict lines are dropped rather than
    failing the feed.
    """
    events: list[dict[str, Any]] = []
    text = raw.decode("utf-8", errors="replace")
    complete, sep, _tail = text.rpartition("\n")
    if not sep:
        return events
    for line in complete.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(event, dict):
            events.append(event)
    return events


class EventTailer:
    """The one reader of the store's ``events/*`` objects.

    Each :meth:`poll` lists the event objects, re-reads only the bytes
    past the per-object offset remembered from the previous poll, and
    returns the newly completed lines merged time-ordered across workers
    (timestamp, then worker id, then a worker's own order, its segments in
    segment order).  Only bytes up to the last newline advance the offset,
    so a torn trailing line (a writer's whole-object put racing the read
    on a non-atomic transport) is simply re-read on the next poll.

    The :class:`StoreEventSink` contract is that an event object only ever
    *grows* (new sinks load the worker's last segment as their head) and is
    never written again once the worker's next segment exists, so a segment
    read after the listing showed its successor is not fetched again: a poll
    costs one ``list`` plus one ``get`` per worker.  If a live object does
    shrink — someone cleared the feed — the tailer starts it over from byte
    zero and re-emits it.

    :attr:`logs` is what the last poll listed and read per worker,
    ``{worker: {"segments": n, "bytes": b}}`` (``status --json``'s
    ``event_logs``).
    """

    def __init__(self, store: ResultsStore) -> None:
        self.store = store
        self.offsets: dict[str, int] = {}
        self.logs: dict[str, dict[str, int]] = {}
        self._sizes: dict[str, int] = {}  # bytes of each object as last read
        self._consumed: set[str] = set()  # sealed segments read to their end

    def poll(self) -> list[dict[str, Any]]:
        """New complete events since the last poll, time-ordered."""
        fresh: list[tuple[float, str, int, dict[str, Any]]] = []
        listing = self.store.event_segments()
        self._consumed.intersection_update(
            key for segments in listing.values() for key in segments.values()
        )
        self.logs = {}
        for worker, segments in listing.items():
            live = max(segments)
            for segment, key in segments.items():
                if key in self._consumed:
                    continue
                try:
                    raw = self.store.backend.get(key)
                except FileNotFoundError:
                    continue  # deleted between list and get
                if segment < live:
                    self._consumed.add(key)  # its successor was listed before this read
                self._sizes[key] = len(raw)
                offset = self.offsets.get(key, 0)
                if len(raw) < offset:
                    offset = 0  # the object shrank: replay it from the start
                chunk = raw[offset:]
                cut = chunk.rfind(b"\n")
                self.offsets[key] = offset + cut + 1  # a torn tail waits for its newline
                for event in parse_event_lines(chunk[: cut + 1]):
                    stamp = float(event.get("timestamp", 0.0))
                    fresh.append((stamp, worker, len(fresh), event))
            self.logs[worker] = {
                "segments": len(segments),
                "bytes": sum(self._sizes.get(key, 0) for key in segments.values()),
            }
        fresh.sort(key=lambda item: item[:3])
        return [item[3] for item in fresh]


#: Size past which :class:`StoreEventSink` seals the object it is appending
#: to; every flush re-puts that object, so this bounds the bytes put per
#: flush.  16 KiB is ~40 drained units (three ~140-byte lease events each,
#: one flush): a put averages 8 KiB (131 KiB unsegmented, on a 640-unit drain)
#: and that drain leaves 17 objects per worker for ``status``/``report`` to read.
EVENT_SEGMENT_BYTES = 16 * 1024

#: buffered events, and seconds since the last flush, at which
#: :class:`StoreEventSink` flushes its buffer on the next event
EVENT_FLUSH_EVENTS = 25
EVENT_FLUSH_SECONDS = 2.0


class StoreEventSink:
    """Event sink persisting one worker's feed as ``events/<worker>.jsonl[.<n>]``.

    Object stores have no append primitive, so the sink re-puts the whole
    current event-log object — the last put always leaves a complete,
    readable JSONL object, which is exactly what :class:`EventTailer`'s
    byte offsets rely on (an object only ever *grows*).  So that
    a put stays small however long the worker lives, an object that has
    passed :data:`EVENT_SEGMENT_BYTES` is sealed — never written again —
    and the feed continues in the worker's next segment
    (:meth:`ResultsStore.event_key`); readers concatenate a worker's
    segments in order.

    Writes are **batched**: high-frequency solve-progress events
    (``iteration``/``refined``/``heartbeat``) are buffered and flushed
    once :data:`EVENT_FLUSH_EVENTS` events or :data:`EVENT_FLUSH_SECONDS`
    seconds (on ``clock``) accumulate,
    so a 200-iteration solve costs a handful of object puts instead of
    200.  What opens a solve after its claim (``solve-started``) and what
    closes a unit (``converged``/``solve-finished``/``committed``/
    ``released``/``healed``) is buffered too: a micro-unit costs one put.  The
    kinds that say who holds or gave up what (``claimed``/``stolen``/
    ``retry``/``parked``/``abandoned``/``heartbeat-missed``)
    flush at once and carry the buffer out, and a worker (like the batch runner
    at task end) calls :meth:`flush` before every sleep and at exit: an event is
    in the store no later than the moment its worker next claims, blocks or exits.

    A sink opened for a worker id that already has an event log *appends*
    to it (the worker's last segment is loaded as the immutable head, or
    left sealed when it is already full), so a restarted worker or several
    sequential in-process tasks sharing one id never clobber earlier
    events.
    """

    #: kinds buffered for batched flushing; everything else flushes now
    BUFFERED_KINDS = frozenset(
        {"solve-started", "iteration", "refined", "heartbeat", "converged", "solve-finished"}
        | {"committed", "released", "healed"}
    )

    def __init__(
        self, store: ResultsStore, worker_id: str, clock: Callable[[], float] = time.time
    ) -> None:
        self.store = store
        self.worker = str(worker_id).replace("/", "-")
        self.clock = clock
        segments = store.event_segments()
        self._segment = max(segments.get(self.worker, {}), default=0)
        try:
            head = store.backend.get(self.key)
            # keep only whole lines of the existing log as the head; an
            # (impossible-under-contract) torn tail must not glue itself
            # onto the first new event line
            self._head = head[: head.rfind(b"\n") + 1]
        except FileNotFoundError:
            self._head = b""
        self._seal_if_full()
        self._pending: list[str] = []
        self._last_flush = float(clock())

    @property
    def key(self) -> str:
        """Key of the segment being appended to."""
        return self.store.event_key(self.worker, self._segment)

    def _seal_if_full(self) -> None:
        if len(self._head) >= EVENT_SEGMENT_BYTES:
            self._segment += 1
            self._head = b""

    def __call__(self, event: "Event") -> None:
        self._pending.append(json.dumps(event.to_dict(), sort_keys=True))
        if (
            event.kind not in self.BUFFERED_KINDS
            or len(self._pending) >= EVENT_FLUSH_EVENTS
            or float(self.clock()) - self._last_flush >= EVENT_FLUSH_SECONDS
        ):
            self.flush()

    def flush(self) -> None:
        """Persist any buffered events (one put of the current segment)."""
        if not self._pending:
            return
        self._head += ("\n".join(self._pending) + "\n").encode("utf-8")
        self._pending.clear()
        self.store.backend.put(self.key, self._head)
        self._seal_if_full()
        self._last_flush = float(self.clock())

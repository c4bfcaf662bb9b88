"""Backend-conformance suite: one contract, asserted against all backends.

Every test here is parametrized over ``file://``, ``mem://`` and
``s3://`` store URLs (the ``any_store_url`` fixture), so the storage
contract the :class:`ResultsStore` depends on — wholesale-atomic puts,
read-your-writes visibility, durable commit records, last-writer-wins
per hash, no-downgrade of completed entries, reindex self-healing,
checkpoint cleanup by compaction and kill/resume — is pinned down once and must hold
identically for every backend, current and future.
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import sys
import threading
import time
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.parallel.tracing import EventRecorder
from repro.scenarios import (
    ResultsStore,
    ScenarioSpec,
    ScenarioSuite,
    StoreURLError,
    backend_from_url,
    run_suite,
    run_worker,
)
from repro.scenarios import store as store_module
from repro.scenarios.__main__ import main as cli_main
from repro.scenarios.backends import (
    COMMIT_LOG_PREFIX,
    SNAPSHOT_PREFIX,
    FaultInjectingBackend,
    LocalFSBackend,
    MemoryBackend,
    ObjectStoreBackend,
)
from repro.scenarios.backends import base as base_module
from repro.scenarios.backends.base import (
    decode_object,
    encode_object,
    read_snapshot,
    snapshot_key_for,
    validate_key,
    write_snapshot,
)
from repro.scenarios.batching import solve_batch_and_commit
from repro.scenarios.diff import diff_entries
from repro.scenarios.lease import LeaseManager
from repro.scenarios.store import EventTailer, StoreEventSink, index_record

# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #


def _payload_spec(i: int, name: str | None = None) -> ScenarioSpec:
    return ScenarioSpec(
        name or f"contract-{i}",
        kind="ablations",
        params={"which": "partition", "total_processes": 2 ** (1 + i)},
    )


def _tiny_solve_spec(name="tiny", **calibration) -> ScenarioSpec:
    cal = {"num_generations": 4, "num_states": 1, "beta": 0.8}
    cal.update(calibration)
    return ScenarioSpec(
        name,
        calibration=cal,
        solver={"grid_level": 2, "tolerance": 1e-3, "max_iterations": 12},
    )


@contextlib.contextmanager
def _recorded_ops(backend):
    """Record ``(op, key)`` of every ``get`` and ``list`` one backend
    instance makes while the block runs."""
    ops: list = []
    for name in ("get", "list"):

        def op(key="", _name=name, _real=getattr(backend, name)):
            ops.append((_name, key))
            return _real(key)

        setattr(backend, name, op)
    try:
        yield ops
    finally:
        del backend.get, backend.list


@pytest.fixture
def short_switches():
    """Switch threads every 10 us while a test runs, to widen races."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def backend(any_store_url):
    return backend_from_url(any_store_url)


@pytest.fixture
def store(any_store_url):
    return ResultsStore.open(any_store_url)


# --------------------------------------------------------------------------- #
# raw object contract
# --------------------------------------------------------------------------- #
class TestObjectContract:
    def test_put_get_round_trip_and_wholesale_overwrite(self, backend):
        backend.put("a/blob.bin", b"first contents")
        assert backend.get("a/blob.bin") == b"first contents"
        backend.put("a/blob.bin", b"2nd")
        assert backend.get("a/blob.bin") == b"2nd"  # replaced whole, no residue

    def test_get_missing_raises_filenotfound(self, backend):
        with pytest.raises(FileNotFoundError):
            backend.get("nope/missing.bin")

    def test_exists_and_delete_semantics(self, backend):
        assert not backend.exists("k")
        backend.put("k", b"x")
        assert backend.exists("k")
        assert backend.delete("k") is True
        assert not backend.exists("k")
        assert backend.delete("k", missing_ok=True) is False
        with pytest.raises(FileNotFoundError):
            backend.delete("k", missing_ok=False)

    def test_mtime_exists_and_missing_raises(self, backend):
        backend.put("stamped", b"x")
        assert backend.mtime("stamped") > 0
        with pytest.raises(FileNotFoundError):
            backend.mtime("never-written")

    def test_list_is_sorted_and_prefix_filtered(self, backend):
        for key in ("b/2", "a/1", "a/2", "c"):
            backend.put(key, b"x")
        assert backend.list() == ["a/1", "a/2", "b/2", "c"]
        assert backend.list("a/") == ["a/1", "a/2"]
        assert backend.list("zz") == []
        # keys either side of "a/" in sort order: '-' < '/' < '0' < 'b'
        for key in ("ab", "a0", "a-x"):
            backend.put(key, b"x")
        backend.put("a/1", b"overwritten")  # an overwrite is not a second key
        assert backend.list() == ["a-x", "a/1", "a/2", "a0", "ab", "b/2", "c"]
        assert backend.list("a") == ["a-x", "a/1", "a/2", "a0", "ab"]
        assert backend.list("a/") == ["a/1", "a/2"]
        assert backend.list("ab") == ["ab"]
        assert backend.list("a0") == ["a0"]
        # prefixes that sort between two keys match nothing
        assert backend.list("a/15") == []
        assert backend.list("b/3") == []
        assert backend.list("bb") == []
        backend.delete("a/2")
        backend.delete("ab")
        assert backend.list("a/") == ["a/1"]
        assert backend.list("ab") == []
        assert backend.list("") == ["a-x", "a/1", "a0", "b/2", "c"]

    def test_visibility_across_instances(self, backend, any_store_url):
        # read-your-writes through a *separate* handle on the same URL —
        # what a runner worker reopening the store URL relies on
        backend.put("shared/entry.json", b"{}")
        other = backend_from_url(any_store_url)
        assert other.exists("shared/entry.json")
        assert other.get("shared/entry.json") == b"{}"
        other.put("shared/entry.json", b"{'v':2}")
        assert backend.get("shared/entry.json") == b"{'v':2}"

    def test_concurrent_same_key_puts_land_whole(self, backend):
        # the atomicity half of "atomic commit visibility": racing writers
        # of one key must produce one of the written values, never a splice
        blobs = [bytes([65 + i]) * 100_000 for i in range(8)]
        threads = [
            threading.Thread(target=backend.put, args=("contended.bin", blob))
            for blob in blobs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert backend.get("contended.bin") in blobs

    def test_racing_puts_and_deletes_keep_the_listing_exact(self, backend, short_switches):
        # writers put, overwrite and delete their own keys while a reader
        # lists: every listing is sorted and duplicate-free, and the last
        # one is exactly the keys still present
        errors: list = []
        done = threading.Event()

        def write(w):
            keys = [f"k/{w}/{i:02d}" for i in range(12)]
            for key in keys + keys[::2]:
                backend.put(key, b"x")
            for key in keys[1::2]:
                backend.delete(key)

        def read():
            while not done.is_set():
                listed = backend.list("k/")
                if listed != sorted(set(listed)):  # pragma: no cover - contract violation
                    errors.append(listed)

        reader = threading.Thread(target=read)
        writers = [threading.Thread(target=write, args=(w,)) for w in range(6)]
        reader.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join(timeout=60)
        done.set()
        reader.join(timeout=60)
        assert not reader.is_alive() and not any(t.is_alive() for t in writers)
        assert not errors
        assert backend.list("k/") == [f"k/{w}/{i:02d}" for w in range(6) for i in range(0, 12, 2)]

    def test_traversal_keys_are_rejected(self, backend, tmp_path):
        # the shared key grammar holds on every backend: '..'/absolute/
        # empty-segment keys are rejected outright, so a key can never
        # read or write outside a filesystem-backed store root
        outside = tmp_path / "outside-sentinel.txt"
        for key in (
            "../outside-sentinel.txt",
            "../../etc/hostname",
            "/abs/path",
            "a//b",
            "a/./b",
            "",
        ):
            with pytest.raises(ValueError, match="key"):
                backend.put(key, b"escape")
            with pytest.raises(ValueError, match="key"):
                backend.get(key)
            # every object operation rejects uniformly, so code exercised
            # on one backend cannot silently pass malformed keys on another
            with pytest.raises(ValueError, match="key"):
                backend.exists(key)
            with pytest.raises(ValueError, match="key"):
                backend.delete(key)
            with pytest.raises(ValueError, match="key"):
                backend.mtime(key)
        assert not outside.exists()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["a", ".", "..", "/", ""]), max_size=8).map("".join))
    @example("")
    @example("a/")
    @example("...")
    @example("a/./.")
    @example("../..")
    def test_the_key_grammar_is_the_segment_rule(self, key):
        """A key is valid iff it is non-empty, relative, and splits on '/'
        into no empty, '.' or '..' segment."""
        bad_segment = any(part in ("", ".", "..") for part in key.split("/"))
        if not key or key.startswith("/") or bad_segment:
            with pytest.raises(ValueError, match="invalid storage key"):
                validate_key(key)
        else:
            assert validate_key(key) == key

    @pytest.mark.parametrize(
        "cls", [LocalFSBackend, MemoryBackend, ObjectStoreBackend, FaultInjectingBackend]
    )
    def test_public_ops_are_the_base_class_template(self, cls):
        # retry is structural: a backend implements the six single-attempt
        # primitives and inherits the public ops (key grammar + one retry)
        for op in ("get", "put", "exists", "delete", "list", "mtime"):
            assert op not in vars(cls), f"{cls.__name__} overrides {op}()"
            assert f"_{op}" in vars(cls)

    def test_invalid_key_is_rejected_before_any_primitive_runs(self, backend):
        # the harness logs every primitive it runs (and only through those
        # reaches the inner backend's): an empty trail means none ran
        harness = FaultInjectingBackend(backend)
        for op in ("get", "exists", "delete", "mtime"):
            with pytest.raises(ValueError, match="key"):
                getattr(harness, op)("../escape")
        with pytest.raises(ValueError, match="key"):
            harness.put("../escape", b"")
        assert harness.ops == []

    def test_blob_ref_round_trip(self, backend):
        ref = backend.ref("dir/obj.npz")
        assert ref.name == "obj.npz"
        assert not ref.exists()
        ref.write_bytes(b"payload")
        assert ref.exists() and ref.read_bytes() == b"payload"
        assert ref.mtime() > 0
        ref.unlink()
        assert not ref.exists()
        ref.unlink(missing_ok=True)  # idempotent
        with pytest.raises(FileNotFoundError):
            ref.unlink(missing_ok=False)


class TestCommitLogContract:
    def test_append_then_read_preserves_order_and_duplicates(self, backend):
        records = [{"spec_hash": f"h{i}", "status": "completed"} for i in range(5)]
        records.append(dict(records[0]))  # duplicates are part of the contract
        for rec in records:
            backend.append_commit(rec)
        assert backend.commit_records() == records

    def test_concurrent_appends_lose_nothing(self, backend):
        # 16 threads, one commit each: every record must come out whole —
        # O_APPEND interleaving for file://, per-commit objects elsewhere
        def append(i):
            backend.append_commit({"spec_hash": f"hash-{i:02d}", "wall_time": float(i)})

        threads = [threading.Thread(target=append, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        got = backend.commit_records()
        assert sorted(rec["spec_hash"] for rec in got) == [f"hash-{i:02d}" for i in range(16)]

    def test_clear_commit_log_drops_records_only(self, backend):
        backend.put("keep/entry.json", b"{}")
        backend.append_commit({"spec_hash": "h"})
        backend.clear_commit_log()
        assert backend.commit_records() == []
        assert backend.exists("keep/entry.json")


# --------------------------------------------------------------------------- #
# commit-log compaction: snapshot checkpoints fold the log
# --------------------------------------------------------------------------- #
class TestCompactionContract:
    """The :meth:`compact` half of the commit-log contract, uniformly on
    ``file://``, ``mem://`` and ``s3://`` (one log implementation, per-commit
    objects, three transports)."""

    @staticmethod
    def _records(n, start=0):
        return [
            {"spec_hash": f"hash-{i:04d}", "status": "completed", "wall_time": float(i + 1)}
            for i in range(start, start + n)
        ]

    def test_compact_preserves_records_and_resets_the_tail(self, backend):
        records = self._records(6)
        for rec in records:
            backend.append_commit(rec)
        assert backend.commit_log_tail_count() == 6
        report = backend.compact(grace_seconds=0)
        assert report["snapshot"] is not None
        assert report["snapshot"].startswith(SNAPSHOT_PREFIX)
        assert report["folded_records"] == 6 and report["total_records"] == 6
        assert backend.commit_records() == records  # content and order intact
        assert backend.commit_log_tail_count() == 0
        # appends after the fold are the new tail, read after the snapshot
        extra = self._records(2, start=6)
        for rec in extra:
            backend.append_commit(rec)
        assert backend.commit_log_tail_count() == 2
        assert backend.commit_records() == records + extra

    def test_double_compaction_is_idempotent(self, backend):
        records = self._records(4)
        for rec in records:
            backend.append_commit(rec)
        first = backend.compact(grace_seconds=0)
        again = backend.compact(grace_seconds=0)
        assert first["folded_records"] == 4
        assert again["folded_records"] == 0 and again["snapshot"] is None
        assert backend.commit_records() == records
        assert backend.list(SNAPSHOT_PREFIX) == [first["snapshot"]]

    def test_repeated_folds_accumulate_into_one_snapshot(self, backend):
        records = []
        for round_ in range(3):
            batch = self._records(3, start=3 * round_)
            for rec in batch:
                backend.append_commit(rec)
            records += batch
            backend.compact(grace_seconds=0)
            assert backend.commit_records() == records
            # older snapshots are superseded and collected
            assert len(backend.list(SNAPSHOT_PREFIX)) == 1

    def test_crash_between_fold_and_delete_self_heals(self, backend):
        """Fold-first ordering: a compactor that dies after writing the
        snapshot but before deleting the folded objects leaves only
        duplicates the merge dedupes by key — and the next compaction
        finishes the deletion."""
        records = self._records(5)
        for rec in records:
            backend.append_commit(rec)
        # an infinite grace window IS the crash: snapshot durable, folded
        # objects still present
        report = backend.compact(grace_seconds=1e9)
        assert report["snapshot"] is not None
        assert report["deleted_objects"] == 0 and report["kept_for_grace"] > 0
        assert backend.commit_records() == records  # no duplicates surface
        assert backend.commit_log_tail_count() == 0  # folded, just not deleted
        healed = backend.compact(grace_seconds=0)
        assert healed["deleted_objects"] > 0
        assert backend.commit_records() == records
        assert backend.compact(grace_seconds=0)["deleted_objects"] == 0

    def test_compactor_racing_appenders_loses_nothing(self, backend):
        """Appenders hammer the log while a compactor folds it repeatedly;
        every record must survive into the final snapshot."""
        per_thread, threads = 12, 4
        stop = threading.Event()

        def append_batch(tid):
            for i in range(per_thread):
                backend.append_commit({"spec_hash": f"race-{tid}-{i:03d}"})

        def compact_loop():
            while not stop.is_set():
                # a small grace keeps tail objects visible to readers that
                # raced the fold; the final compact below cleans up
                backend.compact(grace_seconds=0.05)

        workers = [
            threading.Thread(target=append_batch, args=(tid,)) for tid in range(threads)
        ]
        compactor = threading.Thread(target=compact_loop)
        compactor.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        stop.set()
        compactor.join()
        time.sleep(0.06)  # let the last grace window lapse
        backend.compact(grace_seconds=0)
        got = sorted(rec["spec_hash"] for rec in backend.commit_records())
        want = sorted(
            f"race-{tid}-{i:03d}" for tid in range(threads) for i in range(per_thread)
        )
        assert got == want
        assert backend.commit_log_tail_count() == 0

    def test_concurrent_readers_see_whole_log_during_compaction(self, backend):
        records = self._records(30)
        for rec in records:
            backend.append_commit(rec)
        errors = []

        def read_loop():
            for _ in range(20):
                seen = {rec["spec_hash"] for rec in backend.commit_records()}
                missing = {rec["spec_hash"] for rec in records} - seen
                if missing:  # pragma: no cover - only on contract violation
                    errors.append(missing)

        reader = threading.Thread(target=read_loop)
        reader.start()
        backend.compact(grace_seconds=0.05)
        backend.compact(grace_seconds=0)
        reader.join()
        assert not errors, f"readers lost records mid-compaction: {errors[:3]}"

    def test_clear_commit_log_drops_snapshots_too(self, backend):
        for rec in self._records(3):
            backend.append_commit(rec)
        backend.compact(grace_seconds=0)
        assert backend.list(SNAPSHOT_PREFIX) != []
        backend.clear_commit_log()
        assert backend.commit_records() == []
        assert backend.list(SNAPSHOT_PREFIX) == []
        assert backend.commit_log_tail_count() == 0

    def test_compact_on_empty_log_is_a_noop(self, backend):
        report = backend.compact(grace_seconds=0)
        assert report["snapshot"] is None
        assert report["total_records"] == 0 and report["deleted_objects"] == 0
        assert backend.commit_records() == []

    def test_skewed_clock_stamps_do_not_reorder_records(self, store):
        """Satellite regression: lexicographic key order embeds a writer's
        wall clock, so a skewed-fast writer used to jump the queue.  The
        merge orders by the record-level ``created_at_unix`` instead."""
        backend = store.backend
        early = {"spec_hash": "h-early", "status": "completed",
                 "wall_time": 10.0, "created_at_unix": 100.0}
        late = {"spec_hash": "h-late", "status": "completed",
                "wall_time": 20.0, "created_at_unix": 200.0}
        # the skewed-fast writer stamps a huge wall clock into its KEY
        backend.put(
            f"{COMMIT_LOG_PREFIX}{9999999999.0:017.6f}-skewed.json",
            json.dumps(early).encode(),
        )
        backend.put(
            f"{COMMIT_LOG_PREFIX}{1000000000.0:017.6f}-ontime.json",
            json.dumps(late).encode(),
        )
        assert backend.commit_records() == [early, late]
        assert list(store.index_records()) == ["h-early", "h-late"]  # true first-appearance
        # "most recent completed wins": same hash, inverted key order
        rerun = {"spec_hash": "h-early", "status": "completed",
                 "wall_time": 30.0, "created_at_unix": 300.0}
        backend.put(
            f"{COMMIT_LOG_PREFIX}{1000000001.0:017.6f}-ontime2.json",
            json.dumps(rerun).encode(),
        )
        assert store.wall_times()["h-early"] == 30.0
        # the ordering survives folding into a snapshot
        backend.compact(grace_seconds=0)
        assert backend.commit_records() == [early, late, rerun]
        assert store.wall_times()["h-early"] == 30.0


# --------------------------------------------------------------------------- #
# store-level contract
# --------------------------------------------------------------------------- #
class TestStoreContract:
    def test_commit_is_visible_to_fresh_store(self, store, any_store_url):
        spec = _payload_spec(0)
        store.commit_entry(store.write_payload(spec, {"ok": True}, wall_time=1.0))
        fresh = ResultsStore.open(any_store_url)
        assert fresh.has(spec)
        assert set(fresh.index()) == {spec.content_hash()}
        assert fresh.load_payload(spec) == {"ok": True}
        assert fresh.load_spec(spec) == spec

    def test_entries_and_query_sort_a_null_creation_time_as_zero(self, store):
        """Oldest first, ties on the hash: an entry whose ``created_at_unix``
        is null (or absent) sorts as time 0 in ``entries`` as in ``query``."""
        for h, created in (("h-b", 5.0), ("h-c", None), ("h-a", None), ("h-0", 0.0)):
            store.commit_entry({"spec_hash": h, "status": "failed", "created_at_unix": created})
        order = ["h-0", "h-a", "h-c", "h-b"]
        assert [e["spec_hash"] for e in store.entries()] == order
        assert [r["spec_hash"] for r in store.query()] == order

    def test_last_writer_wins_per_hash(self, store):
        spec = _payload_spec(0)
        store.commit_entry(store.write_payload(spec, {"worker": 1}, wall_time=1.0))
        store.commit_entry(store.write_payload(spec, {"worker": 2}, wall_time=2.0))
        assert store.load_payload(spec) == {"worker": 2}
        assert store.entry(spec)["wall_time"] == 2.0
        # the log keeps both commits; wall_times reports the latest
        assert store.wall_times()[spec.content_hash()] == 2.0

    def test_no_downgrade_of_completed_entries(self, store):
        spec = _payload_spec(0)
        store.commit_entry(store.write_payload(spec, {"ok": True}, wall_time=1.0))
        returned = store.commit_entry(
            store.failure_entry(spec, "failed", 0.1, "transient error")
        )
        assert returned["status"] == "completed"  # the existing entry won
        assert store.entry(spec)["status"] == "completed"
        assert store.has(spec)

    def test_reindex_self_heals_a_lost_log(self, store, any_store_url):
        specs = [_payload_spec(i) for i in range(3)]
        for spec in specs:
            store.commit_entry(store.write_payload(spec, {"i": spec.name}, wall_time=1.0))
        store.backend.clear_commit_log()
        assert store.index() == {}  # log-based discovery finds nothing
        assert store.has(specs[0])  # ...but direct entry reads still work
        healed = ResultsStore.open(any_store_url).reindex()
        assert set(healed) == {s.content_hash() for s in specs}

    def test_resolve_hash_auto_reindexes_on_miss(self, store):
        spec = _payload_spec(0)
        store.commit_entry(store.write_payload(spec, {}, wall_time=1.0))
        store.backend.clear_commit_log()
        assert store.resolve_hash(spec.content_hash()[:12]) == spec.content_hash()

    def test_wall_times_completed_beats_later_partial(self, store):
        # satellite regression: wall_times flows through the backend's
        # commit log, not os.path — and keeps its status-aware semantics
        spec = _payload_spec(0)
        store.commit_entry(store.write_payload(spec, {}, wall_time=30.0))
        store.commit_entry(store.failure_entry(spec, "interrupted", 2.0, "killed"))
        assert store.wall_times()[spec.content_hash()] == 30.0
        other = _payload_spec(1)
        store.commit_entry(store.failure_entry(other, "interrupted", 4.0, "killed"))
        assert store.wall_times()[other.content_hash()] == 4.0  # partial stands in

    def test_compact_deletes_the_checkpoints_of_completed_scenarios_only(self, store):
        # a crash between a commit and its checkpoint delete leaves this one
        done = _payload_spec(0, name="done")
        store.commit_entry(store.write_payload(done, {}, wall_time=1.0))
        store.checkpoint_ref(done).write_bytes(b"stale")
        halted = _payload_spec(1, name="halted")
        store.commit_entry(store.failure_entry(halted, "interrupted", 1.0, "killed"))
        store.checkpoint_ref(halted).write_bytes(b"resumable")
        assert store.compact(grace_seconds=0)["checkpoints_deleted"] == 1
        assert not store.checkpoint_ref(done).exists()
        assert [i["directory"] for i in store.list_checkpoints()] == [store.scenario_key(halted)]
        assert store.compact(grace_seconds=0)["checkpoints_deleted"] == 0
        assert store.checkpoint_ref(halted).exists()

    def test_compact_keeps_failed_and_uncommitted_checkpoints(self, store):
        # a failed solve may be retried from its checkpoint, and a solve
        # killed before its first commit (or still running) has no record
        done = _payload_spec(0, name="done")
        store.commit_entry(store.write_payload(done, {}, wall_time=1.0))
        store.checkpoint_ref(done).write_bytes(b"stale")
        failed = _payload_spec(1, name="failed")
        store.commit_entry(store.failure_entry(failed, "failed", 1.0, "boom"))
        store.checkpoint_ref(failed).write_bytes(b"resumable")
        running = _payload_spec(2, name="running")
        store.checkpoint_ref(running).write_bytes(b"in flight")
        statuses = {i["directory"]: i["status"] for i in store.list_checkpoints()}
        assert statuses[store.scenario_key(failed)] == "failed"
        assert statuses[store.scenario_key(running)] == "unknown"
        assert store.compact(grace_seconds=0)["checkpoints_deleted"] == 1
        assert sorted(i["directory"] for i in store.list_checkpoints()) == sorted(
            store.scenario_key(spec) for spec in (failed, running)
        )
        # the same scenario completing later makes its checkpoint stale
        store.commit_entry(store.write_payload(failed, {}, wall_time=2.0))
        assert store.compact(grace_seconds=0)["checkpoints_deleted"] == 1
        assert [i["directory"] for i in store.list_checkpoints()] == [
            store.scenario_key(running)
        ]

    def test_solve_kill_resume_round_trip(self, store):
        # checkpoints flow through the backend: a killed solve resumes
        # from its stored checkpoint identically on every backend
        suite = ScenarioSuite("one", [_tiny_solve_spec("kill-me")])
        broken = run_suite(suite, store, interrupt_after=1)
        assert broken.count("interrupted") == 1
        listed = store.list_checkpoints(with_progress=True)
        assert len(listed) == 1 and listed[0]["iterations_done"] == 1
        fixed = run_suite(suite, store)
        assert fixed.count("completed") == 1
        entry = store.entry(suite[0])
        assert entry["resumed"] is True
        assert store.load_result(suite[0]).converged
        # a completed run leaves no checkpoint: the commit path deleted it,
        # and nothing after the drains lists or deletes anything
        assert store.list_checkpoints() == []

    def test_skip_by_hash_across_store_reopen(self, store, any_store_url):
        suite = ScenarioSuite("exp", [_payload_spec(0), _payload_spec(1)])
        assert run_suite(suite, store).count("completed") == 2
        again = run_suite(suite, ResultsStore.open(any_store_url))
        assert again.count("skipped") == 2

    def test_show_lists_entries(self, store, capsys):
        spec = _payload_spec(0)
        store.commit_entry(store.write_payload(spec, {}, wall_time=1.0))
        assert cli_main(["show", "--store", store.url]) == 0
        text = capsys.readouterr().out
        assert spec.name in text and f"store {store.url}: 1 entry(ies)" in text

    def test_resolve_full_length_hash_is_validated(self, store):
        """Satellite regression: a mistyped full-length hash must raise the
        clean KeyError at resolve time, not surface later as a bare
        FileNotFoundError from whatever backend key it composes."""
        spec = _payload_spec(0)
        store.commit_entry(store.write_payload(spec, {}, wall_time=1.0))
        full = spec.content_hash()
        assert store.resolve_hash(full) == full
        with pytest.raises(KeyError, match="no store entry matches"):
            store.resolve_hash("f" * 64)
        # a 64-char hash colliding with a real entry's 16-char directory
        # prefix but differing beyond it is a miss too
        impostor = full[:16] + "f" * 48
        if impostor != full:
            with pytest.raises(KeyError, match="no store entry matches"):
                store.resolve_hash(impostor)
        # ...and a full hash whose log record was lost still resolves
        # through the reindex retry, exactly like prefixes do
        store.backend.clear_commit_log()
        assert store.resolve_hash(full) == full

    def test_reindex_after_clear_recovers_everything_post_compaction(
        self, store, any_store_url
    ):
        """Snapshot-aware self-healing: compact, drop the whole log
        (snapshot included), and reindex must still recover every entry
        from the authoritative ``entry.json`` objects."""
        specs = [_payload_spec(i) for i in range(4)]
        for spec in specs:
            store.commit_entry(store.write_payload(spec, {"i": spec.name}, wall_time=1.0))
        store.compact(grace_seconds=0)
        store.backend.clear_commit_log()
        assert store.index() == {}
        healed = ResultsStore.open(any_store_url).reindex()
        assert set(healed) == {s.content_hash() for s in specs}
        # and the healed log compacts cleanly again
        store.compact(grace_seconds=0)
        assert set(store.index()) == {s.content_hash() for s in specs}

    def test_list_checkpoints_breaks_mtime_ties_on_the_key(self, store_url_for):
        """``list_checkpoints`` is newest-first by backend mtime, which is
        coarse upload-time on object stores.  Within a same-tick tie the key
        decides, so every call lists the same order whatever order the
        checkpoints were written in; across *distinct* mtimes recency rules."""
        store = ResultsStore.open(store_url_for("file"))
        halted = [_payload_spec(i, name=f"tied-{i}") for i in range(3)]
        for spec in halted:
            store.commit_entry(store.failure_entry(spec, "interrupted", 1.0, "killed"))
        stamp = time.time() - 60

        def write_tied_checkpoints(specs):
            for spec in specs:
                store.checkpoint_ref(spec).write_bytes(b"resumable")
                # coarse object-store clock: all three land on one mtime tick
                os.utime(store.root / store.checkpoint_key(spec), (stamp, stamp))

        expected = sorted((store.scenario_key(spec) for spec in halted), reverse=True)
        for order in (halted, halted[::-1], halted[1:] + halted[:1]):
            write_tied_checkpoints(order)
            assert [i["directory"] for i in store.list_checkpoints()] == expected
        # ...but a genuinely fresher checkpoint outranks the tied ones
        fresh = _payload_spec(9, name="fresh")
        store.commit_entry(store.failure_entry(fresh, "interrupted", 1.0, "killed"))
        store.checkpoint_ref(fresh).write_bytes(b"resumable")
        assert [i["directory"] for i in store.list_checkpoints()] == [
            store.scenario_key(fresh)
        ] + expected


class TestStoreCompaction:
    """Store-level compaction: O(tail) indexing and auto-compaction."""

    def _fill(self, store, hashes=10, commits_per_hash=100):
        specs = [_payload_spec(i) for i in range(hashes)]
        for spec in specs:
            store.commit_entry(store.write_payload(spec, {"i": spec.name}, wall_time=1.0))
        # simulate a long-lived store: re-run commit records accumulate in
        # the log without rewriting the entries
        for spec in specs:
            base = store.entry(spec)
            for rerun in range(commits_per_hash - 1):
                store.backend.append_commit(
                    {
                        "spec_hash": spec.content_hash(),
                        "name": spec.name,
                        "kind": spec.kind,
                        "status": "completed",
                        "wall_time": 1.0 + rerun,
                        "created_at_unix": base["created_at_unix"] + rerun + 1,
                    }
                )
        return specs

    def test_index_after_compaction_is_one_snapshot_plus_tail(self, store):
        """Acceptance: 1,000 committed records index through ONE snapshot
        object plus the un-folded tail — object ``get`` calls drop from
        O(total commits ever) to O(tail)."""
        store.auto_compact_tail = 10_000  # no fold: count the uncompacted baseline honestly
        specs = self._fill(store, hashes=10, commits_per_hash=100)
        backend = store.backend
        counted = {"get": 0}
        original_get = backend.get

        def counting_get(key):
            counted["get"] += 1
            return original_get(key)

        backend.get = counting_get
        expected = {s.content_hash() for s in specs}
        assert set(store.index()) == expected
        baseline = counted["get"]
        assert baseline >= 1000  # one read per commit object, plus entries

        report = store.compact(grace_seconds=0)
        assert report["total_records"] == 1000
        counted["get"] = 0
        assert set(store.index()) == expected
        compacted = counted["get"]
        # one snapshot read + 10 entry.json reads (+0 tail objects)
        assert compacted <= 1 + len(specs) + 2
        assert compacted < baseline / 20

        # fresh appends are read individually again — O(tail), not O(total)
        store.commit_entry(store.write_payload(specs[0], {"rerun": True}, wall_time=2.0))
        counted["get"] = 0
        assert set(store.index()) == expected
        assert counted["get"] <= 1 + 1 + len(specs) + 2

    def test_index_auto_compacts_past_the_tail_threshold(self, store):
        store.auto_compact_tail = 8
        specs = [_payload_spec(i) for i in range(3)]
        for spec in specs:
            store.commit_entry(store.write_payload(spec, {}, wall_time=1.0))
        assert store.backend.commit_log_tail_count() == 3
        store.index()  # under threshold: no compaction
        assert store.backend.commit_log_tail_count() == 3
        for i, spec in enumerate(specs * 2):
            # re-run commits of the same hashes land in the log as-is
            store.backend.append_commit(
                {"spec_hash": spec.content_hash(), "status": "completed",
                 "wall_time": 2.0 + i}
            )
        assert store.backend.commit_log_tail_count() == 9
        assert set(store.index()) == {s.content_hash() for s in specs}
        # 9 > 8: index folded the log as housekeeping (grace window keeps
        # the folded objects around; the tail count is what matters)
        assert store.backend.commit_log_tail_count() == 0
        assert len(store.log_records()) == 9

    def test_a_read_scans_the_log_once(self, store):
        """On a folded snapshot plus an un-folded tail, ``index_records()``
        lists ``commits/`` once and gets the snapshot and each tail object
        once; its second ``commit-snapshots/`` listing checks for a racing
        fold."""
        specs = [_payload_spec(i) for i in range(6)]
        for spec in specs[:4]:
            store.commit_entry(store.write_payload(spec, {}, wall_time=1.0))
        snapshot = store.compact(grace_seconds=0)["snapshot"]
        for spec in specs[4:]:
            store.commit_entry(store.write_payload(spec, {}, wall_time=1.0))
        tail = store.backend.list(COMMIT_LOG_PREFIX)
        assert len(tail) == 2
        with _recorded_ops(store.backend) as ops:
            records = store.index_records()
        assert list(records) == [spec.content_hash() for spec in specs]
        assert sorted(ops) == sorted(
            [("list", COMMIT_LOG_PREFIX), ("list", SNAPSHOT_PREFIX), ("list", SNAPSHOT_PREFIX)]
            + [("get", snapshot)]
            + [("get", key) for key in tail]
        )

    def test_a_read_that_folds_reads_each_commit_once(self, store):
        """A read whose tail passes ``auto_compact_tail`` folds the scan it
        answers from: each commit object is got once, ``commits/`` listed
        once, and the only snapshot get is the new snapshot's verify."""
        store.auto_compact_tail = 4
        specs = [_payload_spec(i) for i in range(6)]
        for spec in specs:
            store.commit_entry(store.write_payload(spec, {}, wall_time=1.0))
        commits = store.backend.list(COMMIT_LOG_PREFIX)
        with _recorded_ops(store.backend) as ops:
            records = store.index_records()
        [snapshot] = store.backend.list(SNAPSHOT_PREFIX)
        assert list(records) == [spec.content_hash() for spec in specs]
        assert sorted(key for op, key in ops if op == "get") == sorted(commits + [snapshot])
        assert ops.count(("list", COMMIT_LOG_PREFIX)) == 1
        assert store.backend.commit_log_tail_count() == 0

    def test_auto_compaction_folds_the_log_only(self, store_url_for, monkeypatch):
        """The class constant governs every store opened, and the fold a read
        triggers lists nothing but the log: a leftover checkpoint of a
        completed scenario waits for an explicit ``compact()``."""
        monkeypatch.setattr(ResultsStore, "auto_compact_tail", 2)
        store = ResultsStore.open(store_url_for("mem", name="auto-fold"))
        specs = [_payload_spec(i) for i in range(3)]
        for spec in specs:
            store.commit_entry(store.write_payload(spec, {}, wall_time=1.0))
        store.checkpoint_ref(specs[0]).write_bytes(b"stale")
        prefixes: list = []
        real_list = store.backend.list

        def recording_list(prefix=""):
            prefixes.append(prefix)
            return real_list(prefix)

        store.backend.list = recording_list
        assert len(store.index_records()) == 3
        assert store.backend.commit_log_tail_count() == 0  # 3 > 2: folded
        assert "" not in prefixes  # no listing of the whole store
        assert store.checkpoint_ref(specs[0]).exists()
        assert store.compact()["checkpoints_deleted"] == 1

    def test_kill_resume_survives_a_compacted_store(self, store):
        """Compaction between the kill and the resume must not disturb
        checkpoints or skip-by-hash discovery."""
        suite = ScenarioSuite("one", [_tiny_solve_spec("compact-kill")])
        broken = run_suite(suite, store, interrupt_after=1)
        assert broken.count("interrupted") == 1
        store.compact(grace_seconds=0)
        assert len(store.list_checkpoints()) == 1  # checkpoint untouched
        fixed = run_suite(suite, store)
        assert fixed.count("completed") == 1
        assert store.entry(suite[0])["resumed"] is True
        store.compact(grace_seconds=0)
        assert run_suite(suite, store).count("skipped") == 1

    def test_cli_compact_reports_and_is_idempotent(self, store_url_for, capsys):
        url = store_url_for("s3", name="cli-compact")
        store = ResultsStore.open(url)
        for i in range(3):
            spec = _payload_spec(i)
            store.commit_entry(store.write_payload(spec, {}, wall_time=1.0))
        assert cli_main(["compact", "--store", url, "--grace", "0"]) == 0
        out = capsys.readouterr().out
        assert "folded 3 record(s)" in out and "snapshot-" in out
        assert store.backend.list(COMMIT_LOG_PREFIX) == []
        assert cli_main(["compact", "--store", url, "--grace", "0"]) == 0
        assert "nothing to compact (3 record(s))" in capsys.readouterr().out
        assert cli_main(["compact", "--store", url, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_records"] == 3 and report["snapshot"] is None
        # show still answers through the snapshot
        assert cli_main(["show", "--store", url]) == 0
        assert "3 entry(ies)" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# a repeated read of an unchanged log decodes no log object again
# --------------------------------------------------------------------------- #
@contextlib.contextmanager
def _recorded_decodes(monkeypatch):
    """Record the argument of every ``json.loads`` in ``backends.base``."""
    decoded: list = []

    def loads(raw):
        decoded.append(raw)
        return json.loads(raw)

    fake = types.SimpleNamespace(
        loads=loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError
    )
    with monkeypatch.context() as patch:
        patch.setattr(base_module, "json", fake)
        yield decoded


def _foreign_snapshot(backend, seq: str, pairs) -> str:
    """Write a snapshot holding ``pairs`` under the key of ``seq``."""
    key = snapshot_key_for(seq)
    write_snapshot(backend, key, pairs)
    return key


@contextlib.contextmanager
def _recorded_sorts(monkeypatch):
    """Count the records a scan puts through the commit-order sort key."""
    keyed: list = []

    def order(pair):
        keyed.append(pair[0])
        return real(pair)

    real = base_module._pair_order
    with monkeypatch.context() as patch:
        patch.setattr(base_module, "_pair_order", order)
        yield keyed


@contextlib.contextmanager
def _recorded_indexing(monkeypatch):
    """Record every commit order the store puts through ``_winning_records``."""
    orders: list = []

    def winning(order):
        orders.append(order)
        return real(order)

    real = store_module._winning_records
    with monkeypatch.context() as patch:
        patch.setattr(store_module, "_winning_records", winning)
        yield orders


def _brute_force_winners(store) -> dict:
    """``_winning_records`` over a fresh copy of every commit record."""
    order = [("", rec, None) for rec in store.log_records()]
    return {h: rec for h, (_, rec, _) in store_module._winning_records(order).items()}


def _mutate(records) -> None:
    """Change every record in place: its scalars and its nested lists and dicts."""
    for rec in records:
        for value in rec.values():
            if isinstance(value, list):
                value.append("mutated")
            elif isinstance(value, dict):
                value["mutated"] = True
        rec["status"] = "mutated"
        rec.pop("wall_time")


#: what each reader of a store hands out, as a list of records
_READERS = {
    "index_records": lambda store, specs: list(store.index_records().values()),
    "commit_records": lambda store, specs: store.backend.commit_records(),
    "query": lambda store, specs: store.query(),
    "entries": lambda store, specs: store.entries(),
    "run_suite": lambda store, specs: [
        outcome.entry
        for outcome in run_suite(ScenarioSuite("mutated", specs), store).outcomes
        if outcome.status == "skipped"
    ],
}

_TAIL_KEY = "commits/0000001001.000000-000000000000.json"


class TestSnapshotMemo:
    """A backend instance decodes each snapshot and tail object content
    once: a repeated read reuses the parsed records while the bytes are
    unchanged (and the commit order while every key and byte is, and a
    store its index of that order), and hands out records that do not
    alias what it keeps."""

    def _fill(self, store, n=4, tail=2):
        specs = [_payload_spec(i).with_overrides(tags=("t",)) for i in range(n + tail)]
        for spec in specs[:n]:
            store.commit_entry(store.write_payload(spec, {}, wall_time=1.0))
        store.compact(grace_seconds=0)
        for spec in specs[n:]:
            store.commit_entry(store.write_payload(spec, {}, wall_time=2.0))
        return specs

    def test_a_second_read_of_an_unchanged_log_decodes_no_snapshot(self, store, monkeypatch):
        specs = self._fill(store)
        [snapshot] = store.backend.list(SNAPSHOT_PREFIX)
        snapshot_bytes = store.backend.get(snapshot)
        with _recorded_decodes(monkeypatch) as decoded:
            first = store.index_records()
        assert snapshot_bytes in decoded and len(decoded) == 3  # the snapshot + 2 tail
        with _recorded_decodes(monkeypatch) as decoded, _recorded_sorts(monkeypatch) as keyed:
            second = store.index_records()
        assert second == first and list(second) == [s.content_hash() for s in specs]
        assert decoded == [] and keyed == []  # the snapshot and the tail alike
        # a fresh instance on the same URL has parsed nothing yet
        fresh = ResultsStore.open(store.url)
        with _recorded_decodes(monkeypatch) as decoded:
            assert fresh.index_records() == first
        assert snapshot_bytes in decoded
        # one new commit costs one decode
        late = _payload_spec(9).with_overrides(tags=("t",))
        store.commit_entry(store.write_payload(late, {}, wall_time=3.0))
        with _recorded_decodes(monkeypatch) as decoded:
            third = store.index_records()
        assert [json.loads(raw)["spec_hash"] for raw in decoded] == [late.content_hash()]
        assert list(third) == [*second, late.content_hash()]

    def test_a_tail_key_rewritten_with_other_bytes_is_read_fresh(self, backend):
        backend.put(_TAIL_KEY, b'{"spec_hash": "h-1", "status": "failed"}')
        assert backend.commit_records() == [{"spec_hash": "h-1", "status": "failed"}]
        backend.put(_TAIL_KEY, b'{"spec_hash": "h-1", "status": "completed"}')
        assert backend.commit_records() == [{"spec_hash": "h-1", "status": "completed"}]

    @pytest.mark.parametrize("body", [b'{"spec_hash": "h-2", "sta', b"[1, 2]", b"\x80\x81"])
    def test_a_torn_tail_object_is_skipped_until_it_is_whole(self, backend, body):
        first = {"spec_hash": "h-1", "created_at_unix": 1.0}
        backend.append_commit(first)
        backend.put(_TAIL_KEY, body)
        for _ in range(2):
            assert backend.commit_records() == [first]
            assert not backend._log_memo.objects  # nothing kept from a torn read
        backend.put(_TAIL_KEY, b'{"spec_hash": "h-2", "created_at_unix": 2.0}')
        assert backend.commit_records() == [first, {"spec_hash": "h-2", "created_at_unix": 2.0}]
        assert set(backend._log_memo.objects) == set(backend.list(COMMIT_LOG_PREFIX))

    def test_a_fold_rewriting_the_newest_key_is_read_fresh(self, backend):
        """Two snapshots and no tail: the fold rewrites the newest key with
        the union of both, and a scan of this same instance sees the union."""
        old = ("commits/0000001000.000000-000000000000.json", {"spec_hash": "h-old"})
        new = ("commits/0000002000.000000-000000000000.json", {"spec_hash": "h-new"})
        _foreign_snapshot(backend, "0000001000.000000-000000000000", [old])
        newest = _foreign_snapshot(backend, "0000002000.000000-000000000000", [new])
        assert backend.commit_records() == [old[1], new[1]]
        report = backend.compact(grace_seconds=0)  # scans (and remembers) first
        assert report["snapshot"] == newest and report["folded_records"] == 0
        assert backend.list(SNAPSHOT_PREFIX) == [newest]
        assert backend.commit_records() == [old[1], new[1]]
        assert read_snapshot(backend, newest) == [old, new]

    def test_a_put_under_a_remembered_key_is_read_fresh(self, backend):
        first = ("commits/0000001000.000000-000000000000.json", {"spec_hash": "h-1"})
        second = ("commits/0000001001.000000-000000000000.json", {"spec_hash": "h-2"})
        key = _foreign_snapshot(backend, "0000001001.000000-000000000000", [first])
        assert backend.commit_records() == [first[1]]
        write_snapshot(backend, key, [first, second])
        assert backend.commit_records() == [first[1], second[1]]
        # torn bytes under the remembered key: unreadable, not the old records
        backend.put(key, b'{"version": 1, "records": [["commits/')
        assert backend.commit_records() == []
        write_snapshot(backend, key, [second])
        assert backend.commit_records() == [second[1]]
        backend.put(key, b"\x80\x81")
        assert backend.commit_records() == []

    @pytest.mark.parametrize("reader", sorted(_READERS))
    def test_mutating_what_a_read_returned_leaves_the_next_read_unchanged(self, store, reader):
        specs = self._fill(store, n=4, tail=2)
        pristine = {name: copy.deepcopy(read(store, specs)) for name, read in _READERS.items()}
        handed = _READERS[reader](store, specs)
        assert len(handed) == 6 and all(rec["tags"] == ["t"] for rec in handed)
        _mutate(handed)
        assert {name: read(store, specs) for name, read in _READERS.items()} == pristine

    def test_an_unchanged_log_is_indexed_once(self, store, monkeypatch):
        specs = self._fill(store)
        first = store.index_records()
        with _recorded_indexing(monkeypatch) as orders:
            assert store.index_records() == first
            assert [r["spec_hash"] for r in store.query()] == [s.content_hash() for s in specs]
            assert len(store.query(where=["which=partition"], status="completed")) == len(specs)
            assert set(store.wall_times()) == set(first)
            assert list(store.index()) == list(first)
            assert store.resolve_hash(specs[0].content_hash()[:12]) == specs[0].content_hash()
        assert orders == []

    @pytest.mark.parametrize(
        "change", ["second-store-commit", "fold", "rewritten-tail", "racing-scan"]
    )
    def test_a_changed_log_is_indexed_afresh(self, store, monkeypatch, change):
        """Whatever changes the log, the next read indexes the new commit
        order: its records equal a brute-force index of the log."""
        self._fill(store)
        stale = store.index_records()
        other = ResultsStore.open(store.url)
        late = _payload_spec(9).with_overrides(tags=("t",))
        with monkeypatch.context() as patch:
            if change == "second-store-commit":
                other.commit_entry(other.write_payload(late, {}, wall_time=3.0))
            elif change == "fold":
                other.backend.compact(grace_seconds=0)
            elif change == "rewritten-tail":
                key = store.backend.list(COMMIT_LOG_PREFIX)[-1]
                record = json.loads(store.backend.get(key))
                store.backend.put(key, encode_object({**record, "status": "failed"}))
            else:  # a commit lands and a fold deletes the tail this scan listed
                listing, tail_listings = store.backend.list, []

                def list_then_fold(prefix=""):
                    keys = listing(prefix)
                    if prefix == COMMIT_LOG_PREFIX:
                        tail_listings.append(keys)
                        if len(tail_listings) == 1:
                            other.commit_entry(other.write_payload(late, {}, wall_time=3.0))
                            other.backend.compact(grace_seconds=0)
                    return keys

                patch.setattr(store.backend, "list", list_then_fold)
            with _recorded_indexing(monkeypatch) as orders:
                index = store.index_records()
            if change == "racing-scan":
                assert len(tail_listings) == 2 and tail_listings[1] == []  # re-scanned
        assert len(orders) == 1
        assert list(index) == list(_brute_force_winners(store))
        assert index == _brute_force_winners(store)
        assert (index != stale) == (change != "fold")
        with _recorded_indexing(monkeypatch) as orders:
            assert store.index_records() == index
            assert store.query() == sorted(index.values(), key=store_module._created_order)
        assert orders == []

    def test_a_record_nesting_containers_is_copied_whole(self, backend):
        record = {"spec_hash": "h", "nested": {"grid": [[1, 2]]}, "tags": ["t"]}
        pair = ("commits/0000001000.000000-000000000000.json", record)
        _foreign_snapshot(backend, "0000001000.000000-000000000000", [pair])
        [rec] = backend.commit_records()
        rec["nested"]["grid"][0].append(3)
        rec["tags"].append("u")
        assert backend.commit_records() == [pair[1]]

    def test_readers_sharing_one_instance_with_a_compactor_lose_nothing(
        self, backend, short_switches
    ):
        """Readers and a folding writer share one backend instance, so its
        memo: each read holds every record appended before it began, whole."""
        appended: list = []
        errors: list = []
        done = threading.Event()

        def fold():
            for round_ in range(6):
                for i in range(4):
                    record = {
                        "spec_hash": f"h-{round_}-{i}",
                        "tags": [round_],
                        "created_at_unix": float(4 * round_ + i),  # commit order = append order
                    }
                    backend.append_commit(record)
                    appended.append(record)
                backend.compact(grace_seconds=0)

        def read():
            while not done.is_set():
                before = list(appended)
                seen = backend.commit_records()
                for rec in seen:
                    rec["tags"].append("mutated")
                hashes = {rec["spec_hash"] for rec in seen}
                missing = [rec for rec in before if rec["spec_hash"] not in hashes]
                if missing:  # pragma: no cover - contract violation
                    errors.append(missing)

        readers = [threading.Thread(target=read) for _ in range(3)]
        for t in readers:
            t.start()
        folder = threading.Thread(target=fold)
        folder.start()
        folder.join(timeout=60)
        done.set()
        for t in readers:
            t.join(timeout=60)
        assert not folder.is_alive() and not any(t.is_alive() for t in readers)
        assert not errors
        assert backend.commit_records() == appended

    def test_after_a_fold_collects_old_snapshots_only_listed_keys_are_kept(
        self, store, any_store_url
    ):
        self._fill(store, n=2, tail=0)
        other = ResultsStore.open(any_store_url)
        other.commit_entry(other.write_payload(_payload_spec(9), {}, wall_time=3.0))
        other.compact(grace_seconds=10_000)  # the first snapshot survives for grace
        store.index_records()
        assert len(store.backend.list(SNAPSHOT_PREFIX)) == 2
        assert set(store.backend._log_memo.objects) == set(store.backend.list(SNAPSHOT_PREFIX))
        store.compact(grace_seconds=0)
        late = _payload_spec(8)
        store.commit_entry(store.write_payload(late, {}, wall_time=4.0))
        assert list(store.index_records())[-1] == late.content_hash()
        [snapshot] = store.backend.list(SNAPSHOT_PREFIX)
        [tail] = store.backend.list(COMMIT_LOG_PREFIX)
        assert set(store.backend._log_memo.objects) == {snapshot, tail}


# --------------------------------------------------------------------------- #
# torn and foreign objects are skipped, not raised
# --------------------------------------------------------------------------- #
class TestForeignObjects:
    """An object that is not UTF-8, or is JSON but not an object, under the
    log's prefixes, in an ``entry.json`` or in a lease record reads as torn
    or foreign: every reader skips it."""

    NOT_UTF8 = b"\x80\x81"

    def _commit(self, store, n=3):
        specs = [_payload_spec(i) for i in range(n)]
        for i, spec in enumerate(specs):
            store.commit_entry(store.write_payload(spec, {}, wall_time=1.0 + i))
        return [spec.content_hash() for spec in specs]

    def _reads_cleanly(self, store, hashes, capsys):
        assert [rec["spec_hash"] for rec in store.log_records()] == hashes
        assert list(store.index_records()) == hashes
        assert set(store.wall_times()) == set(hashes)
        assert [rec["spec_hash"] for rec in store.query(status="completed")] == hashes
        assert cli_main(["status", "--store", store.url]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("body", [NOT_UTF8, b"[1, 2]", b'"text"', b"7"])
    def test_a_foreign_commit_object_is_skipped(self, store, body, capsys):
        hashes = self._commit(store)
        store.backend.put(f"{COMMIT_LOG_PREFIX}0000000001.000000-0000000000ff.json", body)
        self._reads_cleanly(store, hashes, capsys)
        assert store.backend.commit_log_tail_count() == len(hashes)

    @pytest.mark.parametrize("body", [NOT_UTF8, b"[1, 2]"])
    def test_a_foreign_snapshot_object_is_skipped(self, store, body, capsys):
        hashes = self._commit(store)
        key = snapshot_key_for("0000000001.000000-0000000000ff")
        store.backend.put(key, body)
        self._reads_cleanly(store, hashes, capsys)
        assert read_snapshot(store.backend, key) is None

    def test_a_snapshot_keeps_only_its_dict_records(self, store, capsys):
        hashes = self._commit(store)
        key = snapshot_key_for("0000000001.000000-0000000000ff")
        records = [["commits/x.json", [1, 2]], ["commits/y.json", "text"], [1], "pair", 3]
        store.backend.put(key, json.dumps({"version": 1, "records": records}).encode())
        assert read_snapshot(store.backend, key) == []
        self._reads_cleanly(store, hashes, capsys)

    @pytest.mark.parametrize("body", [NOT_UTF8, b"[]"])
    def test_a_foreign_entry_object_reads_as_absent(self, store, body):
        hashes = self._commit(store)
        spec = _payload_spec(0)
        store.backend.put(store.entry_key(spec), body)
        assert store.entry(spec) is None and not store.has(spec)
        assert set(store.reindex()) == set(hashes[1:])
        assert set(store.index()) == set(hashes[1:])

    @pytest.mark.parametrize("body", [NOT_UTF8, b"[]", b"null"])
    def test_a_foreign_lease_record_is_skipped(self, store, body, capsys):
        hashes = self._commit(store)
        store.backend.put(f"{store.LEASE_PREFIX}/{hashes[0][:16]}/lease.json", body)
        store.backend.put(f"{store.LEASE_PREFIX}/{hashes[1][:16]}/parked.json", body)
        store.backend.put(f"{store.LEASE_PREFIX}/{hashes[2][:16]}/attempts.json", body)
        assert store.leases() == [] and store.parked() == []
        self._reads_cleanly(store, hashes, capsys)
        # a failing scenario over a foreign attempts.json: its failure is
        # recorded, it is parked and its lease is given back
        failing = ScenarioSpec("failing", kind="ablations", params={"which": "no-such-ablation"})
        store.backend.put(store.attempts_key(failing), body)
        report = run_worker([failing], store, worker_id="w", max_attempts=1, sleep=lambda s: None)
        assert report.parked == [store.scenario_key(failing)]
        assert store.entry(failing)["status"] == "failed"
        assert [rec["scenario"] for rec in store.parked()] == [store.scenario_key(failing)]
        assert store.leases() == [] and not store.backend.exists(store.lease_key(failing))


# --------------------------------------------------------------------------- #
# every store JSON object is written in one format
# --------------------------------------------------------------------------- #
def test_every_store_json_object_is_written_in_the_one_format(store):
    """After a drain with a failure, a park, a fold and event flushes, every
    JSON object and every event line is exactly ``encode_object`` of what
    ``decode_object`` reads from it."""
    failing = ScenarioSpec("failing", kind="ablations", params={"which": "no-such-ablation"})
    specs = [_payload_spec(i) for i in range(3)]
    report = run_worker(
        [*specs, failing], store, worker_id="w", max_attempts=2, sleep=lambda s: None
    )
    assert len(report.completed) == 3 and report.parked == [store.scenario_key(failing)]
    store.compact(grace_seconds=0)
    store.commit_entry(store.write_payload(_payload_spec(3), {"late": 1.5}, wall_time=1.0))
    LeaseManager(store, "holder").try_claim(_payload_spec(4))

    keys = store.backend.list()
    kinds = {
        "entry": [k for k in keys if k.endswith("/entry.json")],
        "payload": [k for k in keys if k.endswith("/payload.json")],
        "commit": [k for k in keys if k.startswith(COMMIT_LOG_PREFIX)],
        "snapshot": [k for k in keys if k.startswith(SNAPSHOT_PREFIX)],
        "lease": [k for k in keys if k.startswith(f"{store.LEASE_PREFIX}/")],
        "events": [k for k in keys if k.startswith("events/")],
    }
    assert all(kinds.values()), kinds
    assert {k.rsplit("/", 1)[-1] for k in kinds["lease"]} == {
        "lease.json",
        "attempts.json",
        "parked.json",
    }
    for key in [k for kind, found in kinds.items() if kind != "events" for k in found]:
        raw = store.backend.get(key)
        assert raw == encode_object(decode_object(raw)), key
    lines = [line for k in kinds["events"] for line in store.backend.get(k).splitlines(True)]
    assert len(lines) > 3 and all(line == encode_object(decode_object(line)) for line in lines)


# --------------------------------------------------------------------------- #
# the commit record is the index record: queries answer from the log
# --------------------------------------------------------------------------- #
@contextlib.contextmanager
def _counting_gets(backend):
    """Count ``get`` calls on one backend instance while the block runs
    (``entry_gets``: those of ``*/entry.json``)."""
    counted = {"get": 0, "entry_gets": 0}
    original_get = backend.get

    def counting_get(key):
        counted["get"] += 1
        if key.endswith("/entry.json"):
            counted["entry_gets"] += 1
        return original_get(key)

    backend.get = counting_get
    try:
        yield counted
    finally:
        backend.get = original_get


class TestQueryIndex:
    """Conformance of ``index_record`` commit records + the ``query()`` path."""

    def _commit_payloads(self, store, n, wall=lambda i: float(i + 1)):
        specs = [_payload_spec(i) for i in range(n)]
        for i, spec in enumerate(specs):
            store.commit_entry(store.write_payload(spec, {"i": i}, wall_time=wall(i)))
        return specs

    def test_index_record_is_the_one_definition_of_the_format(
        self, store, solved_small_olg
    ):
        solve = _tiny_solve_spec("fmt-solve").with_overrides(tags=("a", "b"))
        payload = _payload_spec(3, name="fmt-payload")
        failed = _payload_spec(4, name="fmt-failed")
        entries = [
            store.write_result(solve, solved_small_olg[1], wall_time=2.5, resumed=True),
            store.write_payload(payload, {"ok": 1}, wall_time=0.25),
            store.failure_entry(failed, "failed", 0.5, "boom", tb="Traceback ..."),
        ]
        aggregates = ("converged", "iterations", "final_error", "resumed", "points_per_state")
        for entry, spec in zip(entries, (solve, payload, failed)):
            expected = {
                "spec_hash": spec.content_hash(),
                "name": spec.name,
                "kind": spec.kind,
                "status": entry["status"],
                "wall_time": entry["wall_time"],
                "created_at_unix": entry["created_at_unix"],
                "tags": list(spec.tags),
                **{k: entry[k] for k in aggregates if k in entry},
                **{f"calibration.{k}": v for k, v in spec.calibration.items()},
                **{f"solver.{k}": v for k, v in spec.solver.items()},
                **{f"params.{k}": v for k, v in spec.params.items()},
            }
            record = index_record(entry)
            assert record == expected
            assert json.loads(json.dumps(record)) == record
            # ...and it is what a commit appends, verbatim
            store.commit_entry(entry)
            assert store.log_records()[-1] == record
        assert set(aggregates) <= set(index_record(entries[0]))
        assert not set(aggregates) & set(index_record(entries[1]))

    def test_fold_keeps_full_records_and_writes_no_sidecar(self, store):
        self._commit_payloads(store, 5)
        report = store.compact(grace_seconds=0)
        assert "index_snapshot" not in report and "index_records" not in report
        assert store.backend.list("index-snapshots/") == []
        [snap_key] = store.backend.list(SNAPSHOT_PREFIX)
        pairs = read_snapshot(store.backend, snap_key)
        assert snap_key == report["snapshot"] and len(pairs) == 5
        for i, (_key, rec) in enumerate(pairs):
            assert rec["status"] == "completed"
            assert rec["params.total_processes"] == 2 ** (1 + i)
            assert rec["tags"] == []
            assert rec["wall_time"] == float(i + 1)

    def test_query_matches_full_index_scan(self, store):
        specs = self._commit_payloads(store, 6)
        store.commit_entry(
            store.failure_entry(_payload_spec(6), "interrupted", 0.5, "killed")
        )
        store.compact(grace_seconds=0)
        ground_truth = {
            h
            for h, e in store.index().items()
            if e.get("status") == "completed"
            and e.get("params", {}).get("total_processes", 0) > 4
        }
        hits = store.query(where=["total_processes>4"], status="completed")
        assert {r["spec_hash"] for r in hits} == ground_truth
        assert len(hits) == 4  # 2**(1+i) > 4 for i in 2..5
        # conjunctions, dotted fields, !=, string equality and hash prefix
        assert store.query(where=["params.total_processes>=8", "total_processes<=16"])
        assert all(
            r["params.which"] == "partition" for r in store.query(where=["which=partition"])
        )
        assert not store.query(where=["which!=partition"])
        some = specs[0].content_hash()
        assert [r["spec_hash"] for r in store.query(hash_prefix=some[:12])] == [some]
        # unknown fields match nothing; malformed predicates raise
        assert store.query(where=["no_such_field>1"]) == []
        with pytest.raises(ValueError):
            store.query(where=["no-operator-here"])

    def test_unfolded_tail_is_visible_to_queries(self, store):
        self._commit_payloads(store, 2)
        store.compact(grace_seconds=0)
        # a commit after the fold must be queryable immediately...
        late = _payload_spec(7)
        store.commit_entry(store.write_payload(late, {}, wall_time=9.0))
        hits = store.query(where=["total_processes=256"])
        assert [r["spec_hash"] for r in hits] == [late.content_hash()]
        # ...and so must a re-commit of an already-folded hash (the
        # folded record loses to the winning tail record)
        redo = _payload_spec(0)
        store.commit_entry(store.write_payload(redo, {"rerun": True}, wall_time=77.0))
        rec = next(
            r for r in store.query() if r["spec_hash"] == redo.content_hash()
        )
        assert rec["wall_time"] == 77.0
        assert store.wall_times()[redo.content_hash()] == 77.0

    def test_racing_compactors_leave_snapshots_that_union(self, store, any_store_url):
        """Two compactors folding at different times leave snapshots whose
        records union by key under the grace-window protocol; queries see
        every commit throughout."""
        specs = self._commit_payloads(store, 2)
        store.compact(grace_seconds=10_000)  # everything kept for grace
        late = _payload_spec(5)
        other = ResultsStore.open(any_store_url)
        other.commit_entry(other.write_payload(late, {}, wall_time=3.0))
        other.compact(grace_seconds=10_000)
        assert len(store.backend.list(SNAPSHOT_PREFIX)) == 2
        expected = {s.content_hash() for s in specs} | {late.content_hash()}
        assert {r["spec_hash"] for r in store.query(status="completed")} == expected
        assert len(store.query(where=["total_processes>=4"])) == 2
        # once the grace window is waived the superseded snapshot is GC'd
        store.compact(grace_seconds=0)
        assert len(store.backend.list(SNAPSHOT_PREFIX)) == 1
        assert store.backend.list(COMMIT_LOG_PREFIX) == []
        assert {r["spec_hash"] for r in store.query(status="completed")} == expected
        assert len(store.query(where=["total_processes>=4"])) == 2

    def test_store_written_before_full_records_reads_its_log_fields(self, store):
        """A store from before the commit record carried the index fields:
        six-field log records (two folded, one in the tail) and an
        ``index-snapshots/`` sidecar nobody reads any more.  Everything the
        six fields answer works; ``reindex`` leaves logged hashes alone."""
        specs = [_payload_spec(i, name=f"old-{i}") for i in range(3)]
        thin = []
        for i, spec in enumerate(specs):
            entry = store.write_payload(spec, {"i": i}, wall_time=float(i + 1))
            entry["directory"] = store.scenario_key(spec)
            store.backend.put(store.entry_key(spec), json.dumps(entry).encode())
            thin.append(
                {
                    k: entry[k]
                    for k in ("spec_hash", "name", "kind", "status", "wall_time", "created_at_unix")
                }
            )
        folded = [(f"commits/{1000 + i:017.6f}-{'0' * 12}.json", thin[i]) for i in range(2)]
        seq = folded[-1][0][len("commits/") : -len(".json")]
        write_snapshot(store.backend, snapshot_key_for(seq), folded)
        store.backend.append_commit(thin[2])
        sidecar = f"index-snapshots/index-{seq}.json"
        write_snapshot(store.backend, sidecar, [(r["spec_hash"], r) for r in thin[:2]])

        hashes = [spec.content_hash() for spec in specs]
        assert store.index_records() == dict(zip(hashes, thin))
        assert all(store.has(spec) for spec in specs)
        assert run_suite(ScenarioSuite("old", specs), store).count("skipped") == 3
        assert store.wall_times() == dict(zip(hashes, (1.0, 2.0, 3.0)))
        assert [r["spec_hash"] for r in store.query(status="completed")] == hashes
        assert store.query(where=["total_processes>0"]) == []  # no spec fields
        assert set(store.reindex()) == set(hashes)
        assert len(store.log_records()) == 3  # every hash is logged: nothing re-appended
        store.backend.clear_commit_log()  # a rebuilt log carries full records
        assert set(store.reindex()) == set(hashes)
        assert [r["spec_hash"] for r in store.query(where=["total_processes>0"])] == hashes
        assert store.backend.exists(sidecar)  # inert: safe to delete by hand

    def test_query_on_uncompacted_store_reads_no_entries(self, store):
        """No read path opens ``entry.json`` — not even with nothing folded."""
        store.auto_compact_tail = 10_000  # no fold below this many tail records
        specs = [
            ScenarioSpec(f"u{i}", kind="ablations", params={"which": "partition", "i": i})
            for i in range(100)
        ]
        for i, spec in enumerate(specs):
            store.commit_entry(store.write_payload(spec, {"i": i}, wall_time=1.0 + i))
        assert store.backend.list(SNAPSHOT_PREFIX) == []
        with _counting_gets(store.backend) as counted:
            assert len(store.query(where=["i>=90"])) == 10
            assert len(store.index_records()) == 100
            assert len(store.wall_times()) == 100
            assert run_suite(ScenarioSuite("all", specs), store).count("skipped") == 100
        assert counted["entry_gets"] == 0 and counted["get"] > 0

    def test_query_on_compacted_store_is_o_snapshot_plus_tail(self, store):
        """Acceptance: a filtered query on a 1,000-entry compacted store
        costs O(index snapshot + tail) gets — no per-entry reads."""
        store.auto_compact_tail = 10_000  # no fold below this many tail records
        specs = [
            ScenarioSpec(
                f"q{i}",
                kind="ablations",
                params={"which": "partition", "total_processes": 2, "i": i},
            )
            for i in range(1000)
        ]
        for i, spec in enumerate(specs):
            store.commit_entry(
                store.write_payload(spec, {"i": i}, wall_time=float(i % 10 + 1))
            )
        store.compact(grace_seconds=0)
        with _counting_gets(store.backend) as counted:
            hits = store.query(where=["i>=990"], status="completed")
        assert len(hits) == 10
        assert counted["entry_gets"] == 0  # served entirely from the snapshot
        assert counted["get"] <= 8  # commit snapshot + slack
        # consistent with the ground truth of a full entry scan
        expected = {
            h for h, e in store.index().items() if e.get("params", {}).get("i", -1) >= 990
        }
        assert {r["spec_hash"] for r in hits} == expected
        # a fresh tail commit costs O(tail) extra, still no entry reads
        store.commit_entry(store.write_payload(specs[0], {"rerun": True}, wall_time=42.0))
        with _counting_gets(store.backend) as counted:
            assert len(store.query(where=["i>=990"])) == 10
        assert counted["entry_gets"] == 0 and counted["get"] <= 10

    def test_cli_query_subcommand(self, store_url_for, capsys):
        url = store_url_for("s3", name="cli-query")
        store = ResultsStore.open(url)
        self._commit_payloads(store, 4)
        store.compact(grace_seconds=0)
        code = cli_main(
            ["query", "--store", url, "--where", "total_processes>4",
             "--status", "completed", "--json"]
        )
        assert code == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 2  # 8 and 16
        assert {r["params.total_processes"] for r in records} == {8, 16}
        assert cli_main(["query", "--store", url, "--where", "total_processes=8"]) == 0
        out = capsys.readouterr().out
        assert "1 matching entry(ies)" in out and "contract-2" in out
        assert cli_main(["query", "--store", url, "--where", "bogus"]) == 2
        assert "malformed predicate" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# event-log segments: the bytes put per event are bounded
# --------------------------------------------------------------------------- #
class _Ticker:
    """Clock advancing one second per reading, so feeds are reproducible."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def _emit(store, worker: str, count: int, clock: _Ticker | None = None) -> _Ticker:
    """Push ``count`` immediately-flushed events through a fresh sink."""
    clock = clock or _Ticker()
    recorder = EventRecorder(clock=clock)
    recorder.subscribe(StoreEventSink(store, worker))
    for i in range(count):
        recorder.emit("claimed", worker, f"scenario-{i:04d}", padding="x" * 64)
    return clock


class TestEventSegments:
    SMALL = 1024  # a handful of ~200-byte events per segment

    @pytest.mark.parametrize(
        "worker", ["w1", "runner-node-7.cluster.example.org-4242", "a.jsonl.000003"]
    )
    def test_event_keys_round_trip_awkward_worker_ids(self, store, worker, monkeypatch):
        for segment in (0, 1, 12):
            key = store.event_key(worker, segment)
            assert store.parse_event_key(key) == (worker, segment)
        assert store.event_key(worker) == f"events/{worker}.jsonl"  # the pre-segment key
        assert store.parse_event_key("events/not-an-event-log.txt") is None
        monkeypatch.setattr(store_module, "EVENT_SEGMENT_BYTES", self.SMALL)
        _emit(store, worker, 12)
        assert len(store.event_segments()[worker]) > 1
        tailer = EventTailer(store)
        assert [e["worker"] for e in tailer.poll()] == [worker] * 12
        assert list(tailer.logs) == [worker]
        assert tailer.logs[worker]["segments"] == len(store.event_segments()[worker])

    def test_rolled_log_reads_like_one_that_never_rolled(
        self, store, store_url_for, monkeypatch
    ):
        whole = ResultsStore.open(store_url_for("mem", name="never-rolled"))
        _emit(whole, "w1", 40)
        assert list(whole.event_segments()["w1"]) == [0]
        monkeypatch.setattr(store_module, "EVENT_SEGMENT_BYTES", self.SMALL)
        _emit(store, "w1", 40)
        segments = store.event_segments()["w1"]
        assert len(segments) >= 4 and list(segments) == list(range(len(segments)))
        assert store.events() == whole.events()
        # every put stayed within one segment plus the event that sealed it
        assert all(len(store.backend.get(key)) < self.SMALL + 256 for key in segments.values())

    def test_reopened_sink_appends_after_the_last_segment(self, store, monkeypatch):
        monkeypatch.setattr(store_module, "EVENT_SEGMENT_BYTES", self.SMALL)
        clock = _emit(store, "w1", 14)
        before = {key: store.backend.get(key) for key in store.event_segments()["w1"].values()}
        _emit(store, "w1", 3, clock)  # a restarted worker, same id
        after = store.event_segments()["w1"]
        last = max(before)
        for key, raw in before.items():
            if key != last:
                assert store.backend.get(key) == raw  # sealed segments untouched
        assert store.backend.get(last).startswith(before[last])
        assert len(after) >= len(before)
        stamps = [e["timestamp"] for e in store.events() if e["worker"] == "w1"]
        assert stamps == [float(i) for i in range(1, 18)]

    def test_old_single_object_log_reads_back_and_is_left_alone(self, store):
        # what the pre-segment sink wrote: one object, far past the segment size
        lines = [
            json.dumps({"kind": "claimed", "worker": "old", "timestamp": float(i), "n": i})
            for i in range(400)
        ]
        raw = ("\n".join(lines) + "\n").encode()
        assert len(raw) > store_module.EVENT_SEGMENT_BYTES
        store.backend.put("events/old.jsonl", raw)
        assert [e["n"] for e in store.events()] == list(range(400))
        recorder = EventRecorder(clock=lambda: 1000.0)
        recorder.subscribe(StoreEventSink(store, "old"))
        recorder.emit("committed", "old", "s")  # buffered: rides out with the claim
        recorder.emit("claimed", "old", "s")
        assert store.backend.get("events/old.jsonl") == raw  # not re-put
        assert list(store.event_segments()["old"]) == [0, 1]
        assert [e.get("n", e["kind"]) for e in store.events()] == [
            *range(400),
            "committed",
            "claimed",
        ]

    def test_tailer_reads_across_rollovers_and_skips_consumed_segments(
        self, store, monkeypatch
    ):
        monkeypatch.setattr(store_module, "EVENT_SEGMENT_BYTES", self.SMALL)
        gets: list = []
        real_get = store.backend.get

        def counting_get(key):
            gets.append(key)
            return real_get(key)

        monkeypatch.setattr(store.backend, "get", counting_get)
        recorder = EventRecorder(clock=_Ticker())
        recorder.subscribe(StoreEventSink(store, "w1"))
        tailer = EventTailer(store)
        seen: list = []
        rollovers = 0
        for burst in range(6):
            for i in range(5):
                recorder.emit("claimed", "w1", f"s-{burst}-{i}", padding="x" * 64)
            segments = store.event_segments()["w1"]
            rollovers = len(segments) - 1
            del gets[:]
            seen += tailer.poll()
            del gets[:]
            assert tailer.poll() == []  # nothing new: one get, of the live segment
            assert gets == [segments[max(segments)]]
        assert rollovers >= 2
        assert [e["timestamp"] for e in seen] == [float(i) for i in range(1, 31)]


# --------------------------------------------------------------------------- #
# objects written by older versions (indented JSON) stay readable
# --------------------------------------------------------------------------- #
class TestIndentedLegacyObjects:
    def test_indented_entry_spec_payload_still_serve_every_reader(self, store):
        specs = [_payload_spec(i) for i in range(3)]
        for i, spec in enumerate(specs):
            store.commit_entry(store.write_payload(spec, {"i": i}, wall_time=1.0 + i))
        for spec in specs:  # rewrite each object the way json.dumps(indent=2) laid it out
            for key in (store.entry_key(spec), store.payload_key(spec)):
                data = json.loads(store.backend.get(key))
                legacy = (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()
                assert legacy != store.backend.get(key) and b"\n  " in legacy
                store.backend.put(key, legacy)
        for i, spec in enumerate(specs):
            assert store.entry(spec)["status"] == "completed"
            assert store.load_spec(spec) == spec
            assert store.load_payload(spec) == {"i": i}
        assert [r["name"] for r in store.query(where=["total_processes>=4"])] == [
            "contract-1",
            "contract-2",
        ]
        assert store.compact()["total_records"] == 3
        assert len(store.query(status="completed")) == 3
        # the no-downgrade guard reads the indented entry too
        kept = store.commit_entry(store.failure_entry(specs[0], "failed", 0.1, "blip"))
        assert kept["status"] == "completed"
        report = run_suite(ScenarioSuite("again", specs), store)
        assert report.count("skipped") == 3


# --------------------------------------------------------------------------- #
# a scenario's spec is stored once, in its entry.json
# --------------------------------------------------------------------------- #
class TestSpecInTheEntry:
    def test_a_drained_suite_keeps_each_spec_in_its_entry_only(self, store, any_store_url):
        done = _payload_spec(0, name="done")
        failed = ScenarioSpec("failed", kind="ablations", params={"which": "no-such-ablation"})
        # the spec itself is fine; its solver config does not build
        broken = _tiny_solve_spec("broken").with_overrides(solver={"tolerance": -1.0})
        specs = [done, failed, broken]
        report = run_worker(specs, store, worker_id="w", max_attempts=1, sleep=lambda s: None)
        assert report.completed == [store.scenario_key(done)] and len(report.parked) == 2
        assert [store.entry(spec)["status"] for spec in specs] == ["completed", "failed", "failed"]
        assert not [key for key in store.backend.list() if key.endswith("/spec.json")]
        assert not any("directory" in store.entry(spec) for spec in specs)

        fresh = ResultsStore.open(any_store_url)
        for spec in specs:
            with _recorded_ops(fresh.backend) as ops:
                assert fresh.load_spec(spec.content_hash()) == spec
            assert ops == [("get", fresh.entry_key(spec))]
        hashes = [spec.content_hash() for spec in specs]
        with _recorded_ops(fresh.backend) as ops:
            payloads = diff_entries(fresh, hashes[0], hashes[1])
            mixed = diff_entries(fresh, hashes[0], hashes[2])
        assert not [key for _op, key in ops if key.endswith("/spec.json")]
        assert payloads["params"] == {
            "added": {},
            "removed": {"total_processes": 2},
            "changed": {"which": {"a": "partition", "b": "no-such-ablation"}},
        }
        assert mixed["params"]["removed"] == dict(done.params)
        assert mixed["calibration"]["added"] == dict(broken.calibration)
        assert mixed["solver"]["added"] == dict(broken.solver)
        assert mixed["policy"] == {"skipped": "kinds are not both 'solve'"}

    def test_a_store_holding_older_spec_objects_reads_unchanged(self, store):
        # stores written before the entry was the one copy also hold a
        # <hash16>/spec.json per scenario and a `directory` field per entry
        done = [_payload_spec(i, name=f"done-{i}") for i in range(2)]
        halted = _tiny_solve_spec("halted")
        for i, spec in enumerate(done):
            store.commit_entry(store.write_payload(spec, {"i": i}, wall_time=1.0 + i))
        [entry] = solve_batch_and_commit([halted], store, interrupt_after=1)
        assert entry["status"] == "interrupted" and store.checkpoint_ref(halted).exists()
        specs = [*done, halted]
        hashes = [spec.content_hash() for spec in specs]

        def reads():
            return (
                diff_entries(store, hashes[0], hashes[1]),
                diff_entries(store, hashes[1], hashes[2]),
                store.list_checkpoints(),
                [store.load_spec(h) for h in hashes],
            )

        before = reads()
        for spec in specs:
            key = store.scenario_key(spec)
            entry = {**store.entry(spec), "directory": key}
            store.backend.put(store.entry_key(spec), json.dumps(entry).encode())
            older = {"spec_hash": spec.content_hash(), **spec.to_dict()}
            store.backend.put(f"{key}/spec.json", json.dumps(older).encode())
        assert reads() == before
        assert before[2][0]["name"] == "halted" and before[3] == specs
        report = store.compact()
        assert report["total_records"] == 3 and report["checkpoints_deleted"] == 0
        assert reads() == before
        assert all(store.backend.exists(f"{store.scenario_key(s)}/spec.json") for s in specs)


# --------------------------------------------------------------------------- #
# backend-specific layout properties (asserted, not assumed)
# --------------------------------------------------------------------------- #
class TestLogLayouts:
    def test_merged_log_backends_write_one_object_per_commit(self, store):
        hashes = set()
        for i in range(3):
            spec = _payload_spec(i)
            store.commit_entry(store.write_payload(spec, {}, wall_time=1.0))
            hashes.add(spec.content_hash())
            # exactly one immutable commits/*.json object per commit...
            log_objects = store.backend.list(COMMIT_LOG_PREFIX)
            assert len(log_objects) == i + 1
            assert all(key.endswith(".json") for key in log_objects)
            # ...next to one authoritative entry.json per hash
            entry = json.loads(store.backend.get(store.entry_key(spec)))
            assert entry["spec_hash"] == spec.content_hash()
        # and no other log: nothing appended anywhere outside commits/
        assert not [key for key in store.backend.list() if key.startswith("manifest")]
        assert {rec["spec_hash"] for rec in store.log_records()} == hashes
        assert set(store.index()) == hashes

    def test_older_file_store_reads_folded_history_and_reindexes_the_rest(self, tmp_path):
        """A ``file://`` store written before the log moved to ``commits/``:
        what compaction had folded is still indexed (record keys are opaque
        strings), the un-folded ``manifest.log`` is not read, nothing that
        matters depended on it, and one ``reindex()`` re-derives it."""
        root = tmp_path / "old-store"
        store = ResultsStore(root)
        specs = [_payload_spec(i) for i in range(4)]
        for spec in specs:
            store.commit_entry(store.write_payload(spec, {"i": spec.name}, wall_time=1.0))
        records = store.log_records()
        assert [rec["spec_hash"] for rec in records] == [s.content_hash() for s in specs]
        # rewrite the log by hand in the old layout: two records folded
        # under segment-style keys, two un-folded JSONL lines
        store.backend.clear_commit_log()
        segment = "manifest-segments/0001700000000.000000-0123456789ab.jsonl"
        (root / "commit-snapshots").mkdir()
        (root / "commit-snapshots" / "snapshot-0001700000000.000000-0123456789ab.json").write_text(
            json.dumps(
                {
                    "version": 1,
                    "records": [[f"{segment}#{i:08d}", rec] for i, rec in enumerate(records[:2])],
                }
            )
        )
        (root / "manifest.log").write_text(
            "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records[2:])
        )

        old = ResultsStore(root)
        folded, unfolded = specs[:2], specs[2:]
        assert list(old.index_records()) == [s.content_hash() for s in folded]
        assert set(old.index()) == {s.content_hash() for s in folded}
        assert set(old.wall_times()) == {s.content_hash() for s in folded}
        # has() and the worker's skip scan read entry.json, never the log
        assert all(old.has(spec) for spec in specs)
        drained = run_worker(ScenarioSuite("again", specs), old, worker_id="w-old")
        assert len(drained.already_done) == 4 and drained.claims == 0
        # hash lookups already retry through reindex...
        assert old.resolve_hash(unfolded[0].content_hash()[:12]) == unfolded[0].content_hash()
        # ...and one reindex() recovers every un-folded hash for good
        assert set(old.reindex()) == {s.content_hash() for s in specs}
        assert set(ResultsStore(root).index()) == {s.content_hash() for s in specs}
        assert run_suite(ScenarioSuite("again", specs), old).count("skipped") == 4
        # the old snapshot folds together with the new tail
        report = old.compact(grace_seconds=0)
        assert report["total_records"] == 4
        assert {rec["spec_hash"] for rec in old.log_records()} == {
            s.content_hash() for s in specs
        }

    def test_file_url_round_trips_awkward_path_characters(self, tmp_path):
        # '#', spaces and '%xx' in directory names must survive the
        # url-build/urlsplit/unquote round trip: a worker reopening a
        # non-round-tripping URL would commit into a different directory
        for dirname in ("runs#1", "with space", "odd%20name"):
            store = ResultsStore(tmp_path / dirname)
            spec = _payload_spec(0)
            store.commit_entry(store.write_payload(spec, {"ok": 1}, wall_time=1.0))
            reopened = ResultsStore.open(store.url)
            assert reopened.root == store.root, dirname
            assert reopened.load_payload(spec) == {"ok": 1}


# --------------------------------------------------------------------------- #
# URL parsing and process-safety guards
# --------------------------------------------------------------------------- #
class TestStoreURLErrors:
    @pytest.mark.parametrize(
        "url, message",
        [
            ("ftp://somewhere/store", "unknown store URL scheme"),
            ("not-a-url-at-all://", "unknown store URL scheme"),
            ("plain/relative/path", "not a store URL"),
            ("mem://", "namespace"),
            ("s3:///only-a-prefix?endpoint=/tmp/e", "bucket"),
            ("file://remotehost/share/store", "must be local"),
        ],
    )
    def test_malformed_urls_raise_store_url_error(self, url, message):
        with pytest.raises(StoreURLError, match=message):
            backend_from_url(url)

    def test_traversal_bucket_names_are_rejected(self, tmp_path):
        # a bucket of '..' must not escape the fake server's endpoint
        # directory — rejected at URL parse time and at the server
        from repro.scenarios import FakeObjectServer

        with pytest.raises(StoreURLError, match="bucket"):
            backend_from_url(f"s3://../escape?endpoint={tmp_path / 'srv'}")
        server = FakeObjectServer(tmp_path / "srv")
        for bucket in ("..", ".", "UPPER", "has/slash", "-edge"):
            with pytest.raises(ValueError, match="bucket"):
                server.put_object(bucket, "k", b"x")
        assert sorted(p.name for p in (tmp_path / "srv").iterdir()) == []

    def test_s3_without_endpoint_names_the_env_var(self, monkeypatch):
        monkeypatch.delenv("REPRO_S3_ENDPOINT", raising=False)
        with pytest.raises(StoreURLError, match="REPRO_S3_ENDPOINT"):
            backend_from_url("s3://bucket/prefix")

    def test_s3_endpoint_falls_back_to_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_S3_ENDPOINT", str(tmp_path / "ep"))
        backend = backend_from_url("s3://bucket/prefix")
        # the resolved endpoint is baked into the canonical URL, so
        # worker processes need no environment of their own
        assert "endpoint=" in backend.url
        backend.put("x", b"1")
        assert backend_from_url(backend.url).get("x") == b"1"

    def test_results_store_open_propagates(self):
        with pytest.raises(StoreURLError):
            ResultsStore.open("bogus://x")
        assert issubclass(StoreURLError, ValueError)

    def test_cli_reports_bad_store_url_as_usage_error(self, capsys):
        assert cli_main(["show", "--store", "bogus://x"]) == 2
        assert "unknown store URL scheme" in capsys.readouterr().err

    def test_real_s3_endpoint_is_config_only_boto3_wiring(self):
        # config-only wiring: an http endpoint selects the boto3-backed
        # client (never the bundled fake); without the optional boto3
        # dependency that request fails with a self-explaining error
        try:
            import boto3  # noqa: F401
        except ImportError:
            with pytest.raises(RuntimeError, match="boto3"):
                backend_from_url("s3://bucket/p?endpoint=https://s3.example.com")
        else:
            backend = backend_from_url("s3://bucket/p?endpoint=https://s3.example.com")
            assert type(backend.client).__name__ == "_Boto3Client"


class TestProcessSafetyGuard:
    def test_mem_store_refuses_process_executor(self, store_url_for):
        store = ResultsStore.open(store_url_for("mem"))
        suite = ScenarioSuite("one", [_payload_spec(0)])
        with pytest.raises(ValueError, match="in-process only"):
            run_suite(suite, store, executor="processes")

    def test_cli_reports_mem_processes_as_usage_error(self, capsys):
        # same clean exit-2 path as a typo'd --store URL, not a traceback
        from repro.scenarios import MemoryBackend

        code = cli_main(
            ["run", "smoke", "--store", "mem://cli-guard", "--executor", "processes"]
        )
        MemoryBackend.drop("cli-guard")
        assert code == 2
        assert "in-process only" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["file", "s3"])
    def test_process_shared_backends_accept_process_executor(self, scheme, store_url_for):
        store = ResultsStore.open(store_url_for(scheme))
        suite = ScenarioSuite("pair", [_payload_spec(0), _payload_spec(1)])
        report = run_suite(suite, store, executor="processes", num_workers=2)
        assert report.ok and report.count("completed") == 2


class TestEnvSelectedDefaultBackend:
    def test_batch_runs_on_env_selected_backend(self, env_store_url):
        # the fixture honours REPRO_STORE_URL: under CI's mem:// leg this
        # whole batch runs against the in-memory backend
        store = ResultsStore.open(env_store_url("batch"))
        suite = ScenarioSuite("exp", [_payload_spec(0), _payload_spec(1)])
        report = run_suite(suite, store)
        assert report.ok and report.count("completed") == 2
        assert run_suite(suite, store).count("skipped") == 2
        assert set(store.index()) == set(suite.hashes())

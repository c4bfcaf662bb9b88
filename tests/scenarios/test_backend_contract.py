"""Backend-conformance suite: one contract, asserted against all backends.

Every test here is parametrized over ``file://``, ``mem://`` and
``s3://`` store URLs (the ``any_store_url`` fixture), so the storage
contract the :class:`ResultsStore` depends on — wholesale-atomic puts,
read-your-writes visibility, durable commit records, last-writer-wins
per hash, no-downgrade of completed entries, reindex self-healing,
checkpoint GC and kill/resume — is pinned down once and must hold
identically for every backend, current and future.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time

import pytest

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
from repro.scenarios.backends.base import load_snapshots, snapshot_key_for, write_snapshot
from repro.scenarios.report import EventTailer
from repro.scenarios.store import StoreEventSink, index_record

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
        assert store.known_hashes() == ["h-early", "h-late"]  # true first-appearance
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

    def test_checkpoint_gc_policies(self, store):
        done = _payload_spec(0, name="done")
        store.commit_entry(store.write_payload(done, {}, wall_time=1.0))
        store.checkpoint_ref(done).write_bytes(b"stale")
        halted = []
        for i in range(1, 4):
            spec = _payload_spec(i, name=f"halted-{i}")
            store.commit_entry(store.failure_entry(spec, "interrupted", 1.0, "killed"))
            store.checkpoint_ref(spec).write_bytes(b"resumable")
            halted.append(spec)
            time.sleep(0.01)  # distinct mtimes for the newest-first ordering
        # completed checkpoints are always stale; resumable ones survive
        removed = store.gc_checkpoints()
        assert [p.name for p in removed] == ["checkpoint.npz"]
        assert len(store.list_checkpoints()) == 3
        # keep_last_n caps survivors at the newest
        removed = store.gc_checkpoints(keep_last_n=1)
        assert len(removed) == 2
        survivors = store.list_checkpoints()
        assert len(survivors) == 1
        assert survivors[0]["directory"] == store.scenario_key(halted[-1])
        # keep_on_failure=False drops the rest
        assert len(store.gc_checkpoints(keep_on_failure=False)) == 1
        assert store.list_checkpoints() == []

    def test_gc_scoped_to_hashes(self, store):
        mine, other = _payload_spec(0, name="mine"), _payload_spec(1, name="other")
        for spec in (mine, other):
            store.commit_entry(store.failure_entry(spec, "interrupted", 1.0, "killed"))
            store.checkpoint_ref(spec).write_bytes(b"resumable")
        removed = store.gc_checkpoints(keep_on_failure=False, hashes=[mine.content_hash()])
        assert len(removed) == 1
        assert store.checkpoint_ref(other).exists()

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
        assert not store.checkpoint_ref(suite[0]).exists()  # dropped post-commit

    def test_skip_by_hash_across_store_reopen(self, store, any_store_url):
        suite = ScenarioSuite("exp", [_payload_spec(0), _payload_spec(1)])
        assert run_suite(suite, store).count("completed") == 2
        again = run_suite(suite, ResultsStore.open(any_store_url))
        assert again.count("skipped") == 2

    def test_describe_lists_entries(self, store):
        spec = _payload_spec(0)
        store.commit_entry(store.write_payload(spec, {}, wall_time=1.0))
        text = store.describe()
        assert spec.name in text and store.url in text

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

    def test_checkpoint_gc_ties_break_on_the_key(self, store_url_for):
        """``keep_last_n`` orders by backend mtime, which is coarse
        upload-time on object stores.  Within a same-tick tie the key
        decides, so every call keeps the same survivor; across *distinct*
        mtimes recency still rules."""
        store = ResultsStore.open(store_url_for("file"))
        halted = [_payload_spec(i, name=f"tied-{i}") for i in range(3)]
        for spec in halted:
            store.commit_entry(store.failure_entry(spec, "interrupted", 1.0, "killed"))
        stamp = time.time() - 60

        def write_tied_checkpoints():
            for spec in halted:
                store.checkpoint_ref(spec).write_bytes(b"resumable")
                # coarse object-store clock: all three land on one mtime tick
                os.utime(store.root / store.checkpoint_key(spec), (stamp, stamp))

        expected = max(store.scenario_key(spec) for spec in halted)
        for _ in range(3):
            write_tied_checkpoints()
            assert store.list_checkpoints()[0]["directory"] == expected
            assert len(store.gc_checkpoints(keep_last_n=1)) == 2
            assert [i["directory"] for i in store.list_checkpoints()] == [expected]
        # ...but a genuinely fresher checkpoint outranks the tied ones
        fresh = _payload_spec(9, name="fresh")
        store.commit_entry(store.failure_entry(fresh, "interrupted", 1.0, "killed"))
        store.checkpoint_ref(fresh).write_bytes(b"resumable")
        write_tied_checkpoints()
        assert store.list_checkpoints()[0]["directory"] == store.scenario_key(fresh)
        store.gc_checkpoints(keep_last_n=1)
        assert [i["directory"] for i in store.list_checkpoints()] == [
            store.scenario_key(fresh)
        ]

    def test_auto_compact_tail_env_typo_does_not_crash_open(
        self, store_url_for, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE_AUTO_COMPACT_TAIL", "off")
        store = ResultsStore.open(store_url_for("file", name="env-typo"))
        assert store.auto_compact_tail == 512  # fell back to the default


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
        store.auto_compact_tail = 0  # count the uncompacted baseline honestly
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

    def test_auto_compact_threshold_from_environment(self, store_url_for, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_AUTO_COMPACT_TAIL", "7")
        store = ResultsStore.open(store_url_for("file", name="env-thresh"))
        assert store.auto_compact_tail == 7
        monkeypatch.setenv("REPRO_STORE_AUTO_COMPACT_TAIL", "0")
        disabled = ResultsStore.open(store_url_for("file", name="env-off"))
        assert disabled.auto_compact_tail == 0

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
        [(snap_key, pairs)] = load_snapshots(store.backend)
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

    def test_store_written_before_full_records_needs_one_reindex(self, store):
        """A store from before the commit record carried the index fields:
        six-field log records (two folded, one in the tail) and an
        ``index-snapshots/`` sidecar nobody reads any more."""
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
        assert store.query(where=["total_processes>0"]) == []  # no spec fields yet
        assert set(store.reindex()) == set(hashes)
        assert [r["spec_hash"] for r in store.query(where=["total_processes>0"])] == hashes
        assert len(store.log_records()) == 6  # exactly one full record per hash
        store.reindex()
        assert len(store.log_records()) == 6
        assert store.backend.exists(sidecar)  # inert: safe to delete by hand

    def test_query_on_uncompacted_store_reads_no_entries(self, store):
        """No read path opens ``entry.json`` — not even with nothing folded."""
        store.auto_compact_tail = 0
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
        store.auto_compact_tail = 0
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

    def test_negative_env_values_warn_once(self, store_url_for, monkeypatch, caplog):
        import logging

        from repro.scenarios.backends import retry

        monkeypatch.setenv("REPRO_STORE_AUTO_COMPACT_TAIL", "-512")
        with caplog.at_level(logging.WARNING):
            store = ResultsStore.open(store_url_for("file", name="env-neg"))
        assert store.auto_compact_tail == 0
        assert sum("clamping negative" in r.message for r in caplog.records) == 1
        caplog.clear()
        retry._parse_knob.cache_clear()  # the memo is per process, not per test
        monkeypatch.setenv(retry.RETRIES_ENV, "-3")
        monkeypatch.setenv(retry.RETRY_BASE_ENV, "-0.5")
        seen: list = []

        def blip():
            seen.append(1)
            raise retry.TransientStorageError("blip")

        with caplog.at_level(logging.WARNING):
            for _ in range(5):  # once per distinct bad value, not per operation
                with pytest.raises(retry.TransientStorageError):
                    retry.call_with_retries(blip)
        assert len(seen) == 5  # "-3" clamps to 0 retries
        assert sum("clamping negative" in r.message for r in caplog.records) == 2
        caplog.clear()
        # changing the variable mid-process still takes effect, and a new
        # bad value gets its own single warning
        monkeypatch.setenv(retry.RETRIES_ENV, "2")
        monkeypatch.setenv(retry.RETRY_BASE_ENV, "fast")
        del seen[:]
        with caplog.at_level(logging.WARNING):
            for _ in range(2):
                with pytest.raises(retry.TransientStorageError):
                    retry.call_with_retries(blip, sleep=lambda _s: None)
        assert len(seen) == 6
        assert sum("ignoring non-float" in r.message for r in caplog.records) == 1


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
        assert [len(events) for events in store.worker_events().values()] == [12]
        assert set(store.worker_events()) == {worker}

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
        stamps = [e["timestamp"] for e in store.worker_events()["w1"]]
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
            for key in (store.entry_key(spec), store.spec_key(spec), store.payload_key(spec)):
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
            entry = json.loads(store.entry_ref(spec).read_bytes())
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
        assert old.known_hashes() == [s.content_hash() for s in folded]
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

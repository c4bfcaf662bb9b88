"""Sharded store layout v2: concurrent writers, GC, scheduling."""

from __future__ import annotations

import time

import pytest

from repro.parallel.executor import EXECUTOR_KINDS, make_executor
from repro.scenarios import (
    ResultsStore,
    ScenarioSpec,
    ScenarioSuite,
    backend_from_url,
    run_suite,
    schedule_longest_first,
)


def _tiny_solve_spec(name="tiny", **calibration):
    cal = {"num_generations": 4, "num_states": 1, "beta": 0.8}
    cal.update(calibration)
    return ScenarioSpec(
        name,
        calibration=cal,
        solver={"grid_level": 2, "tolerance": 1e-3, "max_iterations": 12},
    )


def _payload_spec(i: int, name: str | None = None) -> ScenarioSpec:
    return ScenarioSpec(
        name or f"stress-{i}",
        kind="ablations",
        params={"which": "partition", "total_processes": 2 ** (1 + i)},
    )


def _stress_commit(args) -> str:
    """Worker body of the multi-writer stress test (top-level: must pickle)."""
    store_url, spec_dict, worker_id = args
    store = ResultsStore.open(store_url)
    spec = ScenarioSpec.from_dict(spec_dict)
    entry = store.write_payload(
        spec,
        {"worker": worker_id, "params": dict(spec.params)},
        wall_time=0.001 * (worker_id + 1),
    )
    store.commit_entry(entry)
    return spec.content_hash()


def _log_task(args) -> int:
    """Worker body of the commit-log stress test (top-level: must pickle).

    ``("append", url, writer, count)`` appends ``count`` commit records;
    ``("compact", url, total)`` folds the log over and over, deleting what
    it folded at once, until a fold has seen ``total`` records — so it
    runs from before the first append until after the last.
    """
    kind, store_url, *rest = args
    backend = backend_from_url(store_url)
    if kind == "append":
        writer, count = rest
        for i in range(count):
            backend.append_commit({"spec_hash": f"w{writer}-{i:04d}", "status": "completed"})
        return count
    (total,) = rest
    folds = 0
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        report = backend.compact(grace_seconds=0)
        folds += report["snapshot"] is not None
        if report["total_records"] >= total:
            break
    return folds


def _stress_tasks(store_url: str):
    """12 commit tasks: 8 distinct hashes plus 4 same-hash contenders."""
    distinct = [_payload_spec(i) for i in range(8)]
    contended = [_payload_spec(i, name=f"twin-{i}") for i in range(4)]  # same hashes as 0-3
    tasks = [
        (store_url, spec.to_dict(), worker_id)
        for worker_id, spec in enumerate(distinct + contended)
    ]
    return tasks, {s.content_hash() for s in distinct}


def _assert_store_uncorrupted(store: ResultsStore, expected: set) -> None:
    index = store.index()
    assert set(index) == expected  # nothing lost, nothing invented
    for h, entry in index.items():
        assert entry["spec_hash"] == h
        assert entry["status"] == "completed"
        assert store.has(h)
        payload = store.load_payload(h)  # readable, not torn
        assert payload["params"] == dict(store.load_spec(h).params)
    # every surviving commit record is whole JSON: one object each
    for rec in store.log_records():
        assert rec["spec_hash"] in expected


class TestConcurrentWriters:
    @pytest.mark.parametrize("scheme", ["file", "s3"])
    def test_process_pool_fills_one_store(self, scheme, store_url_for):
        # 12 commits from a process pool into ONE store, on every
        # process-shared backend.  No locks anywhere — every entry must
        # come out committed, readable and uncorrupted.
        store_url = store_url_for(scheme)
        tasks, expected = _stress_tasks(store_url)
        make_executor("processes", 4).map(_stress_commit, tasks)
        _assert_store_uncorrupted(ResultsStore.open(store_url), expected)

    def test_two_appending_processes_and_a_compactor_lose_no_commit(self, store_url_for):
        # the property O_APPEND + log rotation used to carry on file://:
        # racing writer processes interleave whole records, and a fold
        # running underneath them drops none of them
        store_url = store_url_for("file")
        per_writer = 200
        folds, *appended = make_executor("processes", 3).map(
            _log_task,
            [("compact", store_url, 2 * per_writer)]
            + [("append", store_url, writer, per_writer) for writer in range(2)],
        )
        assert appended == [per_writer, per_writer]
        assert folds >= 2  # it did fold while the appenders were running
        backend = backend_from_url(store_url)
        backend.compact(grace_seconds=0)
        got = sorted(rec["spec_hash"] for rec in backend.commit_records())
        assert got == sorted(f"w{w}-{i:04d}" for w in range(2) for i in range(per_writer))
        assert backend.commit_log_tail_count() == 0
        assert backend.list("commits/") == []  # all of it folded, none left behind

    def test_thread_pool_fills_memory_store(self, store_url_for):
        # the same 12-commit stress against mem:// with threads (memory
        # is in-process only): contended log appends all survive
        # and index() merges the per-commit objects correctly
        store_url = store_url_for("mem")
        tasks, expected = _stress_tasks(store_url)
        make_executor("threads", 4).map(_stress_commit, tasks)
        store = ResultsStore.open(store_url)
        assert len(store.backend.list("commits/")) == 12  # one object per commit
        _assert_store_uncorrupted(store, expected)

    def test_failure_commit_never_downgrades_completed_entry(self, tmp_path):
        # a racing writer hitting a transient error must not hide the
        # valid result another writer already committed for the same hash
        spec = _payload_spec(0)
        store = ResultsStore(tmp_path / "store")
        completed = store.write_payload(spec, {"ok": True}, wall_time=1.0)
        store.commit_entry(completed)
        failed = store.failure_entry(spec, "failed", 0.1, "transient OOM")
        returned = store.commit_entry(failed)
        assert returned["status"] == "completed"  # the existing entry won
        assert store.entry(spec)["status"] == "completed"
        assert store.has(spec)
        # a fresh completed commit still replaces (content-addressed)
        store.commit_entry(store.write_payload(spec, {"ok": "again"}, wall_time=2.0))
        assert store.entry(spec)["wall_time"] == 2.0

    @pytest.mark.parametrize("scheme", ["file", "s3"])
    def test_same_hash_two_writers_last_wins_whole(self, scheme, store_url_for):
        store_url = store_url_for(scheme)
        spec = _payload_spec(0)
        make_executor("processes", 2).map(
            _stress_commit, [(store_url, spec.to_dict(), w) for w in range(2)]
        )
        store = ResultsStore.open(store_url)
        entry = store.entry(spec)
        assert entry["status"] == "completed"
        payload = store.load_payload(spec)
        assert payload["worker"] in (0, 1)  # one writer won wholesale

    @pytest.mark.parametrize("scheme", ["file", "s3"])
    def test_run_suite_process_pool_batch_of_8(self, scheme, store_url_for):
        # the acceptance scenario: a process-pool batch of >= 8 scenarios
        # fills one store with no lost or corrupt entries, on both
        # process-shared backends (workers reopen the store by URL)
        suite = ScenarioSuite("stress", [_payload_spec(i) for i in range(8)])
        store = ResultsStore.open(store_url_for(scheme))
        report = run_suite(suite, store, executor="processes", num_workers=4)
        assert report.ok and report.count("completed") == 8
        index = store.index()
        assert set(index) == set(suite.hashes())
        for spec in suite:
            assert store.load_payload(spec)["result"]["which"] == "partition"


class TestCheckpointGC:
    def _interrupted_store(self, tmp_path, names):
        suite = ScenarioSuite(
            "gc", [_tiny_solve_spec(n, tau_labor=0.1 + 0.01 * i) for i, n in enumerate(names)]
        )
        store = ResultsStore(tmp_path / "store")
        report = run_suite(suite, store, interrupt_after=1)
        assert report.count("interrupted") == len(names)
        return store, suite

    def test_default_policy_keeps_resumable_checkpoints(self, tmp_path):
        store, suite = self._interrupted_store(tmp_path, ["x", "y"])
        assert len(store.list_checkpoints()) == 2
        removed = store.gc_checkpoints()  # keep_on_failure defaults to True
        assert removed == []
        assert len(store.list_checkpoints()) == 2

    def test_drop_on_failure(self, tmp_path):
        store, suite = self._interrupted_store(tmp_path, ["x", "y"])
        removed = store.gc_checkpoints(keep_on_failure=False)
        assert len(removed) == 2
        assert store.list_checkpoints() == []

    def test_keep_last_n_caps_survivors(self, tmp_path):
        store, suite = self._interrupted_store(tmp_path, ["x", "y", "z"])
        removed = store.gc_checkpoints(keep_last_n=1)
        assert len(removed) == 2
        survivors = store.list_checkpoints()
        assert len(survivors) == 1
        # the newest checkpoint is the one kept
        assert survivors[0]["status"] == "interrupted"

    def test_completed_checkpoints_are_always_stale(self, tmp_path):
        suite = ScenarioSuite("one", [_tiny_solve_spec("done")])
        store = ResultsStore(tmp_path / "store")
        run_suite(suite, store)
        # plant a stale checkpoint next to the committed result
        store.checkpoint_ref(suite[0]).write_bytes(b"stale")
        removed = store.gc_checkpoints()
        assert [p.name for p in removed] == ["checkpoint.npz"]

    def test_run_suite_applies_gc_policy(self, tmp_path):
        suite = ScenarioSuite("one", [_tiny_solve_spec("nuke")])
        store = ResultsStore(tmp_path / "store")
        run_suite(suite, store, interrupt_after=1, keep_on_failure=False)
        assert store.list_checkpoints() == []
        # without its checkpoint the re-run starts over (and completes)
        report = run_suite(suite, store)
        assert report.count("completed") == 1
        assert store.entry(suite[0])["resumed"] is False

    def test_gc_rejects_negative_keep(self, tmp_path):
        with pytest.raises(ValueError, match="keep_last_n"):
            ResultsStore(tmp_path / "s").gc_checkpoints(keep_last_n=-1)


class TestWallTimes:
    def test_completed_record_beats_later_partial(self, tmp_path):
        # force re-run killed after one iteration must not let its tiny
        # partial wall time shadow the completed run's full wall time
        suite = ScenarioSuite("one", [_tiny_solve_spec("churn")])
        store = ResultsStore(tmp_path / "store")
        run_suite(suite, store)
        full = store.wall_times()[suite[0].content_hash()]
        report = run_suite(suite, store, force=True, interrupt_after=1)
        assert report.count("interrupted") == 1  # the run itself was killed
        # ...but the committed entry is not downgraded: the completed
        # result is still on disk and still the store's answer for the hash
        assert store.entry(suite[0])["status"] == "completed"
        assert store.has(suite[0])
        assert store.wall_times()[suite[0].content_hash()] == full

    def test_partial_time_stands_in_when_never_completed(self, tmp_path):
        suite = ScenarioSuite("one", [_tiny_solve_spec("never-done")])
        store = ResultsStore(tmp_path / "store")
        run_suite(suite, store, interrupt_after=1)
        assert store.wall_times()[suite[0].content_hash()] > 0


class TestLongestFirstScheduling:
    def test_recorded_wall_times_win(self):
        quick = _tiny_solve_spec("quick", tau_labor=0.10)
        slow = _tiny_solve_spec("slow", tau_labor=0.20)
        medium = _tiny_solve_spec("medium", tau_labor=0.30)
        times = {
            quick.content_hash(): 1.0,
            slow.content_hash(): 30.0,
            medium.content_hash(): 5.0,
        }
        ordered = schedule_longest_first([quick, medium, slow], times)
        assert [s.name for s in ordered] == ["slow", "medium", "quick"]

    def test_heuristic_fallback_for_unseen_hashes(self):
        small = ScenarioSpec(
            "small",
            calibration={"num_generations": 4, "num_states": 1},
            solver={"grid_level": 2, "max_iterations": 10},
        )
        big = ScenarioSpec(
            "big",
            calibration={"num_generations": 6, "num_states": 4},
            solver={"grid_level": 4, "max_iterations": 50},
        )
        assert big.estimated_cost() > small.estimated_cost()
        ordered = schedule_longest_first([small, big], {})
        assert [s.name for s in ordered] == ["big", "small"]

    def test_mixed_population_scales_heuristics_into_seconds(self):
        # 'seen' ran in 2s; 'unseen' has ~the same spec-size cost, so its
        # scaled estimate lands near 2s — far below 'huge' at 100s
        seen = _tiny_solve_spec("seen", tau_labor=0.10)
        unseen = _tiny_solve_spec("unseen", tau_labor=0.20)
        huge = _tiny_solve_spec("huge", tau_labor=0.30)
        times = {seen.content_hash(): 2.0, huge.content_hash(): 100.0}
        ordered = schedule_longest_first([unseen, seen, huge], times)
        assert ordered[0].name == "huge"
        assert {ordered[1].name, ordered[2].name} == {"seen", "unseen"}

    def test_runner_dispatches_longest_first(self, tmp_path):
        # fresh store, no wall times: the heuristic puts the bigger solve
        # first and the serial executor's progress lines reflect that order
        small = _tiny_solve_spec("small-job")
        big = _tiny_solve_spec("big-job")
        big = ScenarioSpec(
            "big-job",
            calibration=dict(big.calibration),
            solver={**dict(big.solver), "max_iterations": 20},
        )
        lines = []
        store = ResultsStore(tmp_path / "store")
        run_suite(ScenarioSuite("two", [small, big]), store, progress=lines.append)
        completed = [ln for ln in lines if ln.startswith("completed")]
        assert "big-job" in completed[0] and "small-job" in completed[1]

    def test_fifo_schedule_keeps_suite_order(self, tmp_path):
        small = _tiny_solve_spec("first")
        big = ScenarioSpec(
            "second",
            calibration={"num_generations": 4, "num_states": 1, "beta": 0.8},
            solver={"grid_level": 2, "tolerance": 1e-3, "max_iterations": 20},
        )
        lines = []
        store = ResultsStore(tmp_path / "store")
        run_suite(
            ScenarioSuite("two", [small, big]), store, schedule="fifo", progress=lines.append
        )
        completed = [ln for ln in lines if ln.startswith("completed")]
        assert "first" in completed[0] and "second" in completed[1]

    def test_unknown_schedule_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown schedule"):
            run_suite(
                ScenarioSuite("one", [_tiny_solve_spec()]),
                ResultsStore(tmp_path / "s"),
                schedule="random",
            )


class TestExecutorDispatchContract:
    def test_every_backend_declares_dispatch_order(self):
        expected = {"serial": True, "threads": True, "processes": True, "stealing": False}
        for kind in EXECUTOR_KINDS:
            assert make_executor(kind, 2).dispatches_in_order is expected[kind]

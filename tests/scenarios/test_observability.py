"""Solve-progress telemetry: event vocabulary, batching sink, tail, report.

The observability pillar end to end: the solver emits the
``solve-started``/``iteration``/``converged``/``solve-finished``
vocabulary through a thread-safe :class:`EventRecorder`, the
:class:`StoreEventSink` batches the high-frequency kinds into whole-object
puts, ``status --follow`` tails the persisted feed incrementally (byte
offsets, torn-line tolerance) across all three storage backends, and
``report`` joins entries + events into self-contained markdown/HTML.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver
from repro.olg.calibration import small_calibration
from repro.olg.model import OLGModel
from repro.olg import solver as olg_solver
from repro.parallel.tracing import (
    EVENT_KINDS,
    LEASE_EVENT_KINDS,
    SOLVE_EVENT_KINDS,
    SOLVER_TOTALS,
    Event,
    EventRecorder,
)
from repro.scenarios import ResultsStore, ScenarioSpec, ScenarioSuite, run_suite, serialize
from repro.scenarios.__main__ import main as cli_main
from repro.scenarios.checkpoint import InterruptingCheckpoint, SimulatedKill, SolveCheckpoint
from repro.scenarios.lease import run_worker
from repro.scenarios.report import (
    ProgressBoard,
    _progress_section,
    estimate_eta,
    follow,
    gather_run_data,
    render_report,
)
from repro.scenarios import store as store_module
from repro.scenarios.store import (
    EVENT_FLUSH_SECONDS,
    EventTailer,
    StoreEventSink,
    parse_event_lines,
)


def _tiny_solve_spec(name="tiny", **calibration):
    cal = {"num_generations": 4, "num_states": 1, "beta": 0.8}
    cal.update(calibration)
    return ScenarioSpec(
        name,
        calibration=cal,
        solver={"grid_level": 2, "tolerance": 1e-3, "max_iterations": 12},
    )


@pytest.fixture(scope="module")
def solve_problem():
    cal = small_calibration(num_generations=4, num_states=2, beta=0.8)
    model = OLGModel(cal)
    config = TimeIterationConfig(grid_level=2, tolerance=2e-3, max_iterations=20)
    return model, config


# --------------------------------------------------------------------------- #
# vocabulary + envelope
# --------------------------------------------------------------------------- #
class TestVocabulary:
    def test_solve_kinds_extend_the_lease_vocabulary(self):
        assert SOLVE_EVENT_KINDS == (
            "solve-started",
            "iteration",
            "refined",
            "converged",
            "solve-finished",
        )
        assert EVENT_KINDS == LEASE_EVENT_KINDS + SOLVE_EVENT_KINDS
        assert len(set(EVENT_KINDS)) == len(EVENT_KINDS)

    def test_detail_keys_cannot_shadow_the_envelope(self):
        # regression: a detail key named like an envelope field used to
        # silently overwrite the envelope in the serialized dict
        event = Event(
            kind="claimed",
            worker="w1",
            scenario="abc",
            timestamp=10.0,
            detail={"kind": "evil", "timestamp": 99.0, "detail_kind": "nested"},
        )
        out = event.to_dict()
        assert out["kind"] == "claimed"
        assert out["timestamp"] == 10.0
        assert out["detail_timestamp"] == 99.0
        # the prefixed name was taken, so the colliding key escalates
        assert out["detail_kind"] == "nested"
        assert out["detail_detail_kind"] == "evil"

    def test_emit_is_thread_safe(self):
        recorder = EventRecorder()
        seen: list = []
        recorder.subscribe(seen.append)
        threads = [
            threading.Thread(
                target=lambda w=w: [
                    recorder.emit("iteration", f"w{w}", "s", iteration=i)
                    for i in range(50)
                ]
            )
            for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(recorder.events) == 400
        assert len(seen) == 400
        # no torn interleavings: every event reached the sink exactly once
        assert sorted(id(e) for e in seen) == sorted(id(e) for e in recorder.events)


# --------------------------------------------------------------------------- #
# solver emission
# --------------------------------------------------------------------------- #
class TestSolverEmission:
    def test_solve_emits_the_full_vocabulary(self, solve_problem):
        model, config = solve_problem
        recorder = EventRecorder()
        result = TimeIterationSolver(model, config).solve(
            events=recorder, worker="w0", scenario="abc123"
        )
        kinds = [e.kind for e in recorder.events]
        assert kinds[0] == "solve-started"
        assert kinds[-1] == "solve-finished"
        assert result.converged and "converged" in kinds
        iterations = recorder.by_kind("iteration")
        assert len(iterations) == result.iterations
        for n, event in enumerate(iterations, start=1):
            assert event.worker == "w0" and event.scenario == "abc123"
            assert event.detail["iteration"] == n
            assert event.detail["error_linf"] > 0.0
            assert event.detail["error_l2"] > 0.0
            assert event.detail["points"] > 0
            assert event.detail["wall_time"] >= 0.0
        started = recorder.by_kind("solve-started")[0].detail
        assert started["start_iteration"] == 0 and started["resumed"] is False
        finished = recorder.by_kind("solve-finished")[0].detail
        assert finished["iterations"] == result.iterations
        assert finished["new_iterations"] == result.iterations
        assert finished["converged"] is True

    def test_solve_finished_carries_the_point_solver_totals_of_this_solve(self, monkeypatch):
        # 12 generations: from the fourth pass the youngest saver, whose
        # steady-state saving is negative, sits on the borrowing floor, a
        # root; a cap of three Newton iterations leaves rows stalled
        monkeypatch.setattr(olg_solver, "MAX_ITERATIONS", 3)
        model = OLGModel(small_calibration(num_generations=12, num_states=2))
        solver = TimeIterationSolver(model, TimeIterationConfig(grid_level=2, max_iterations=5))
        totals = []
        for _ in range(2):  # the second solve reports its own work, not the model's running sum
            recorder = EventRecorder()
            solver.solve(events=recorder)
            assert [e.kind for e in recorder.events].count("solve-finished") == 1
            assert all("solver" not in e.detail for e in recorder.by_kind("iteration"))
            totals.append(recorder.by_kind("solve-finished")[0].detail["solver"])
        assert totals[0] == totals[1]
        assert tuple(totals[0]) == SOLVER_TOTALS == tuple(model.system.totals)
        assert totals[0]["rows"] == 5 * 2 * 23  # iterations x shock states x grid points
        assert 0 < totals[0]["stalled"] < totals[0]["rows"]
        assert totals[0]["residual_calls"] > 0
        # one Newton batch per iteration: the shock states are rows of it
        assert totals[0]["newton_runs"] == 5
        assert model.solver_totals()["rows"] == 2 * totals[0]["rows"]

    def test_resumed_solve_reports_resume_point(self, tmp_path, solve_problem):
        model, config = solve_problem
        path = tmp_path / "resume.npz"
        killer = InterruptingCheckpoint(path, config=config, interrupt_after=2)
        with pytest.raises(SimulatedKill):
            TimeIterationSolver(model, config).solve(checkpoint=killer)
        recorder = EventRecorder()
        result = TimeIterationSolver(model, config).solve(
            checkpoint=SolveCheckpoint(path, config=config), events=recorder
        )
        started = recorder.by_kind("solve-started")[0].detail
        assert started["resumed"] is True and started["start_iteration"] == 2
        iterations = recorder.by_kind("iteration")
        assert iterations[0].detail["iteration"] == 3
        finished = recorder.by_kind("solve-finished")[0].detail
        assert finished["iterations"] == result.iterations
        assert finished["new_iterations"] == result.iterations - 2

    def test_already_converged_resume_emits_no_iterations(self, tmp_path, solve_problem):
        model, config = solve_problem
        path = tmp_path / "done.npz"
        # a finished checkpoint: what a hook whose final state was due leaves
        serialize.save_result(path, TimeIterationSolver(model, config).solve())
        recorder = EventRecorder()
        TimeIterationSolver(model, config).solve(
            checkpoint=SolveCheckpoint(path, config=config), events=recorder
        )
        kinds = [e.kind for e in recorder.events]
        assert kinds == ["solve-started", "solve-finished"]
        assert recorder.events[-1].detail["new_iterations"] == 0


# --------------------------------------------------------------------------- #
# store sink: batching + append
# --------------------------------------------------------------------------- #
class TestStoreEventSink:
    def _counting_store(self, url):
        store = ResultsStore(url)
        puts: list = []
        real_put = store.backend.put

        def counting_put(key, data):
            puts.append(key)
            return real_put(key, data)

        store.backend.put = counting_put
        return store, puts

    def test_iteration_events_are_batched(self, any_store_url):
        store, puts = self._counting_store(any_store_url)
        recorder = EventRecorder(clock=lambda: 0.0)
        sink = StoreEventSink(store, "w1", clock=lambda: 0.0)  # the 2 s flush never comes due
        recorder.subscribe(sink)
        for i in range(100):
            recorder.emit("iteration", "w1", "s", iteration=i)
        sink.flush()
        event_puts = [k for k in puts if k.startswith("events/")]
        # 100 buffered events, a flush per EVENT_FLUSH_EVENTS = 25 -> exactly 4 puts, not 100
        assert len(event_puts) == 4
        assert len(store.events()) == 100

    def test_boundary_kinds_flush_immediately(self, store_url_for):
        store, puts = self._counting_store(store_url_for("file"))
        recorder = EventRecorder()
        sink = StoreEventSink(store, "w1", clock=lambda: 0.0)
        recorder.subscribe(sink)
        recorder.emit("iteration", "w1", "s", iteration=1)
        assert not [k for k in puts if k.startswith("events/")]  # buffered
        recorder.emit("claimed", "w1", "s")
        assert len([k for k in puts if k.startswith("events/")]) == 1
        assert [e["kind"] for e in store.events()] == ["iteration", "claimed"]

    def test_buffered_events_flush_once_the_interval_passes(self, store_url_for):
        store, puts = self._counting_store(store_url_for("file"))
        now = [0.0]
        sink = StoreEventSink(store, "w1", clock=lambda: now[0])
        recorder = EventRecorder(clock=lambda: now[0])
        recorder.subscribe(sink)
        recorder.emit("iteration", "w1", "s", iteration=1)
        now[0] = EVENT_FLUSH_SECONDS - 0.1
        recorder.emit("iteration", "w1", "s", iteration=2)
        assert not [k for k in puts if k.startswith("events/")]  # still buffered
        now[0] = EVENT_FLUSH_SECONDS
        recorder.emit("iteration", "w1", "s", iteration=3)  # carries all three out
        assert len([k for k in puts if k.startswith("events/")]) == 1
        assert [e["iteration"] for e in store.events()] == [1, 2, 3]
        # the interval restarts at that flush
        recorder.emit("iteration", "w1", "s", iteration=4)
        assert len([k for k in puts if k.startswith("events/")]) == 1

    def test_reopened_sink_appends_instead_of_clobbering(self, any_store_url):
        store = ResultsStore(any_store_url)
        recorder = EventRecorder()
        first = StoreEventSink(store, "w1")
        recorder.subscribe(first)
        recorder.emit("claimed", "w1", "s1")
        second = StoreEventSink(store, "w1")  # e.g. a restarted worker
        second(recorder.emit("committed", "w1", "s2"))
        second.flush()
        assert [e["kind"] for e in store.events()] == ["claimed", "committed"]

    def test_parse_event_lines_skips_torn_tail(self):
        whole = json.dumps({"kind": "claimed", "timestamp": 1.0}) + "\n"
        torn = (whole + '{"kind": "iterat').encode()
        assert [e["kind"] for e in parse_event_lines(torn)] == ["claimed"]
        assert parse_event_lines(b"no newline at all") == []
        assert parse_event_lines(b"garbage\n" + whole.encode()) == [
            {"kind": "claimed", "timestamp": 1.0}
        ]
        # a line that is not UTF-8 is dropped like a torn one
        mixed = whole.encode() + b'{"kind": "\xff"}\n' + whole.encode()
        assert [e["kind"] for e in parse_event_lines(mixed)] == ["claimed", "claimed"]


# --------------------------------------------------------------------------- #
# live tail
# --------------------------------------------------------------------------- #
class TestEventTailer:
    def test_offsets_resume_across_polls(self, any_store_url):
        store = ResultsStore(any_store_url)
        key = "events/w1.jsonl"
        line1 = json.dumps({"kind": "claimed", "worker": "w1", "timestamp": 1.0})
        line2 = json.dumps({"kind": "iteration", "worker": "w1", "timestamp": 2.0})
        store.backend.put(key, (line1 + "\n").encode())
        tailer = EventTailer(store)
        assert [e["kind"] for e in tailer.poll()] == ["claimed"]
        assert tailer.poll() == []  # nothing new
        # grow the object with one complete and one torn line
        store.backend.put(key, (line1 + "\n" + line2 + "\n" + '{"kind": "to').encode())
        assert [e["kind"] for e in tailer.poll()] == ["iteration"]
        # the torn line completes -> surfaced on the next poll, exactly once
        line3 = json.dumps({"kind": "torn-no-more", "timestamp": 3.0})
        store.backend.put(key, (line1 + "\n" + line2 + "\n" + line3 + "\n").encode())
        assert [e["kind"] for e in tailer.poll()] == ["torn-no-more"]
        assert tailer.poll() == []

    def test_merged_feed_is_time_ordered_across_workers(self, store_url_for):
        store = ResultsStore(store_url_for("mem"))
        for worker, stamps in (("wa", (1.0, 4.0)), ("wb", (2.0, 3.0))):
            lines = "".join(
                json.dumps({"kind": "heartbeat", "worker": worker, "timestamp": t}) + "\n"
                for t in stamps
            )
            store.backend.put(f"events/{worker}.jsonl", lines.encode())
        stamps = [e["timestamp"] for e in EventTailer(store).poll()]
        assert stamps == sorted(stamps) == [1.0, 2.0, 3.0, 4.0]

    def test_a_shrunk_object_is_replayed_from_the_start(self, any_store_url):
        store = ResultsStore(any_store_url)
        key = "events/w1.jsonl"

        def put(*kinds):
            lines = [
                json.dumps({"kind": k, "worker": "w1", "timestamp": float(i)})
                for i, k in enumerate(kinds)
            ]
            store.backend.put(key, ("\n".join(lines) + "\n").encode())

        put("claimed", "iteration", "committed")
        tailer = EventTailer(store)
        assert len(tailer.poll()) == 3
        put("claimed")  # someone cleared the feed and a worker wrote again
        assert [e["kind"] for e in tailer.poll()] == ["claimed"]
        assert tailer.poll() == []

    def test_logs_count_every_listed_segment_on_every_poll(self, store_url_for, monkeypatch):
        monkeypatch.setattr(store_module, "EVENT_SEGMENT_BYTES", 1024)
        store = ResultsStore(store_url_for("mem"))
        recorder = EventRecorder()
        recorder.subscribe(StoreEventSink(store, "w1"))
        tailer = EventTailer(store)
        for burst in range(3):
            for i in range(8):
                recorder.emit("claimed", "w1", f"s-{burst}-{i}", padding="x" * 64)
            tailer.poll()
            segments = store.event_segments()["w1"]
            size = sum(len(store.backend.get(key)) for key in segments.values())
            # sealed segments read on an earlier poll still count, unfetched
            assert tailer.logs == {"w1": {"segments": len(segments), "bytes": size}}
        assert len(segments) > 2

    def test_follow_surfaces_new_event_within_one_poll(self, any_store_url):
        store = ResultsStore(any_store_url)
        recorder = EventRecorder()
        sink = StoreEventSink(store, "w1")
        recorder.subscribe(sink)
        recorder.emit("claimed", "w1", "s1")

        lines: list = []

        def sleep_then_emit(_seconds):
            # a solver makes progress between the two poll cycles
            recorder.emit(
                "iteration", "w1", "s1",
                iteration=1, error=0.5, error_linf=0.5, points=3, wall_time=0.1,
            )
            sink.flush()

        streamed = follow(
            store, poll=0.01, out=lines.append, sleep=sleep_then_emit, max_polls=2
        )
        text = "\n".join(lines)
        assert streamed == 2
        assert "claimed" in text
        assert "iter=1" in text and "err=5.000e-01" in text


# --------------------------------------------------------------------------- #
# progress + ETA
# --------------------------------------------------------------------------- #
class TestProgressAndEta:
    def _geometric_progress(self, factor=0.5, n=8, tolerance=1e-6):
        errors = [1.0 * factor**i for i in range(1, n + 1)]
        return {
            "status": "running",
            "iteration": n,
            "error": errors[-1],
            "tolerance": tolerance,
            "max_iterations": 100,
            "samples": [(i + 1, e, 0.1) for i, e in enumerate(errors)],
        }

    def test_eta_from_contraction_rate(self):
        import math

        progress = self._geometric_progress(factor=0.5, n=8, tolerance=1e-6)
        eta = estimate_eta(progress)
        expected = math.log(progress["tolerance"] / progress["error"]) / math.log(0.5)
        assert eta is not None
        assert abs(eta["iterations_left"] - expected) <= 1.0
        assert eta["seconds_left"] == pytest.approx(0.1 * eta["iterations_left"], rel=0.2)
        assert eta["rate"] < 0.0

    def test_eta_none_when_not_contracting(self):
        flat = {
            "status": "running",
            "iteration": 5,
            "error": 0.5,
            "tolerance": 1e-6,
            "samples": [(i, 0.5, 0.1) for i in range(1, 6)],
        }
        assert estimate_eta(flat) is None
        assert estimate_eta({"samples": [], "tolerance": 1e-6, "error": 0.5}) is None

    def test_eta_zero_once_below_tolerance(self):
        progress = self._geometric_progress(tolerance=1.0)
        eta = estimate_eta(progress)
        assert eta == {"iterations_left": 0, "seconds_left": 0.0, "rate": None}

    def test_eta_clamped_for_non_contracting_series(self):
        # satellite regression: a stalled series fits a float-noise slope
        # of ~-1e-16, which used to extrapolate a 10^15-iteration "ETA";
        # a growing (diverging-member) series used to yield negative ones.
        # Both must clamp to n/a (None), with or without a budget.
        stalled = {
            "status": "running",
            "iteration": 6,
            "error": 1e-2,
            "tolerance": 1e-4,
            "samples": [(i, 1e-2, 0.1) for i in range(1, 7)],
        }
        assert estimate_eta(stalled) is None
        growing = dict(
            stalled,
            error=1e-3 * 2.0**6,
            samples=[(i, 1e-3 * 2.0**i, 0.1) for i in range(1, 7)],
        )
        assert estimate_eta(growing) is None
        assert estimate_eta(dict(growing, max_iterations=100)) is None

    def test_eta_none_for_non_finite_inputs(self):
        # NaN slips through every <=-style guard and inf survives the
        # positivity check — both used to reach math.log/math.ceil and
        # crash or poison the fit
        nan = float("nan")
        inf = float("inf")
        base = {
            "status": "running",
            "iteration": 3,
            "tolerance": 1e-4,
            "samples": [(1, 1e-1, 0.1), (2, 1e-2, 0.1), (3, nan, 0.1)],
            "error": nan,
        }
        assert estimate_eta(base) is None
        assert estimate_eta(dict(base, error=inf)) is None
        assert estimate_eta(dict(base, error=1e-2, tolerance=-1.0)) is None
        assert estimate_eta(dict(base, error=1e-2, tolerance=nan)) is None
        # non-finite samples are filtered, not fatal: the finite prefix
        # still contracts, so a real ETA comes back
        healthy_tail = dict(
            base,
            error=1e-3,
            samples=[(1, 1e-1, 0.1), (2, 1e-2, 0.1), (3, 1e-3, 0.1), (4, inf, 0.1)],
        )
        eta = estimate_eta(healthy_tail)
        assert eta is not None and eta["iterations_left"] > 0
        # and the progress table renders an ETA-less record's row with no ETA
        record = dict(base, points=10, eta=estimate_eta(base))
        _title, _kind, (headers, rows) = _progress_section({"s" * 16: record})
        assert dict(zip(headers, rows[0]))["ETA"] == "-"

    def test_board_tracks_scenario_lifecycle(self):
        board = ProgressBoard()
        for event in [
            {"kind": "claimed", "worker": "w1", "scenario": "abc", "timestamp": 1.0},
            {
                "kind": "solve-started", "worker": "w1", "scenario": "abc",
                "timestamp": 2.0, "start_iteration": 0, "tolerance": 1e-3,
                "max_iterations": 12,
            },
            {
                "kind": "iteration", "worker": "w1", "scenario": "abc",
                "timestamp": 3.0, "iteration": 1, "error": 0.25,
                "error_linf": 0.25, "points": 7, "wall_time": 0.1,
            },
            {"kind": "committed", "worker": "w1", "scenario": "abc", "timestamp": 4.0},
        ]:
            board.update(event)
        snap = board.snapshot()["abc"]
        assert snap["status"] == "completed"
        assert snap["iteration"] == 1 and snap["error"] == 0.25
        assert snap["tolerance"] == 1e-3 and snap["points"] == 7


# --------------------------------------------------------------------------- #
# fleet integration + reports
# --------------------------------------------------------------------------- #
class TestFleetAndReport:
    def test_worker_persists_solve_progress_events(self, env_store_url):
        store = ResultsStore(env_store_url())
        suite = ScenarioSuite("tiny", [_tiny_solve_spec("tiny-lo", tau_labor=0.1)])
        report = run_worker(suite, store, worker_id="wA", progress=lambda *_: None)
        assert len(report.completed) == 1
        kinds = {e["kind"] for e in store.events()}
        assert {"claimed", "solve-started", "iteration", "converged",
                "solve-finished", "committed", "released"} <= kinds
        scenario = store.scenario_key(suite[0])
        iterations = [e for e in store.events() if e["kind"] == "iteration"]
        assert iterations and all(e["scenario"] == scenario for e in iterations)

    def _mixed_store(self, url):
        """Completed + failed + parked + in-flight, like a real drain."""
        store = ResultsStore(url)
        suite = ScenarioSuite(
            "tiny",
            [_tiny_solve_spec("tiny-lo", tau_labor=0.1),
             _tiny_solve_spec("tiny-hi", tau_labor=0.2)],
        )
        run_suite(suite, store, progress=lambda *_: None)
        failed_spec = _tiny_solve_spec("tiny-bad", tau_labor=0.3)
        store.commit_entry(
            store.failure_entry(
                failed_spec, "failed", 0.5, "solver diverged",
                tb="Traceback (most recent call last):\n  boom\n",
            )
        )
        parked_spec = _tiny_solve_spec("tiny-parked", tau_labor=0.4)
        store.backend.put(
            store.parked_key(parked_spec),
            json.dumps({"attempts": 3, "error": "always diverges"}).encode(),
        )
        # an in-flight scenario: claimed + progressing, no terminal event yet
        recorder = EventRecorder()
        sink = StoreEventSink(store, "w-inflight")
        recorder.subscribe(sink)
        inflight = store.scenario_key(_tiny_solve_spec("tiny-live", tau_labor=0.5))
        recorder.emit("claimed", "w-inflight", inflight)
        recorder.emit(
            "solve-started", "w-inflight", inflight,
            start_iteration=0, resumed=False, tolerance=1e-3, max_iterations=12,
        )
        for i in (1, 2, 3):
            recorder.emit(
                "iteration", "w-inflight", inflight,
                iteration=i, error=0.5**i, error_linf=0.5**i, points=7,
                wall_time=0.05,
            )
        sink.flush()
        return store, inflight

    def test_gather_joins_entries_events_and_parked(self, any_store_url):
        store, inflight = self._mixed_store(any_store_url)
        data = gather_run_data(store)
        assert data["status_counts"] == {"completed": 2, "failed": 1}
        assert len(data["parked"]) == 1
        assert data["progress"][inflight]["status"] == "running"
        assert data["progress"][inflight]["eta"] is not None
        assert data["event_counts"]["iteration"] >= 3
        assert "w-inflight" in data["workers"]
        assert any(s["open"] for s in data["spans"])  # the live claim
        assert len(data["convergence"]) == 3  # 2 from entries + 1 from events

    @staticmethod
    def _feeds_store(store_url_for, feeds):
        """A store holding one event log per worker of ``feeds``, all on scenario s1."""
        store = ResultsStore(store_url_for("mem"))
        for worker, events in feeds.items():
            lines = "".join(
                json.dumps(dict(e, worker=worker, scenario="s1")) + "\n" for e in events
            )
            store.backend.put(store.event_key(worker), lines.encode())
        return store

    def test_a_steal_ends_the_dead_holders_span(self, store_url_for):
        store = self._feeds_store(
            store_url_for,
            {
                "A": [{"kind": "claimed", "timestamp": 0.0}],
                "B": [
                    {"kind": "stolen", "timestamp": 10.0, "previous_worker": "A"},
                    {"kind": "committed", "timestamp": 12.0},
                    {"kind": "released", "timestamp": 12.0},
                ],
            },
        )
        data = gather_run_data(store)
        assert [
            (s["worker"], s["kind"], s["start"], s["end"], s["outcome"], s["open"])
            for s in data["spans"]
        ] == [
            ("A", "claim", 0.0, 10.0, "stolen", False),
            ("B", "steal", 10.0, 12.0, "committed", False),
        ]
        assert data["makespan"] == 12.0
        assert data["busy_time"] == {"A": 10.0, "B": 2.0}
        assert data["utilization"] == pytest.approx(0.5)
        html = render_report(store, "html")
        assert "fill='#805ad5'><title>s1 (claim, stolen)</title>" in html
        assert "stolen from=purple" in html

    def test_no_holds_leave_utilization_unknown(self, store_url_for):
        data = gather_run_data(ResultsStore(store_url_for("mem")))
        assert data["spans"] == [] and data["workers"] == []
        assert data["utilization"] is None and data["makespan"] == 0.0
        assert data["busy_time"] == {}

    def test_one_worker_holding_throughout_is_fully_utilized(self, store_url_for):
        store = self._feeds_store(
            store_url_for,
            {"A": [{"kind": "claimed", "timestamp": 3.0}, {"kind": "committed", "timestamp": 7.0}]},
        )
        data = gather_run_data(store)
        assert data["makespan"] == 4.0 and data["busy_time"] == {"A": 4.0}
        assert data["utilization"] == 1.0

    def test_markdown_report_covers_every_section(self, store_url_for):
        store, inflight = self._mixed_store(store_url_for("file"))
        md = render_report(store, "md")
        for heading in (
            "# Scenario run report", "## Suite summary", "## Scenarios",
            "## Solve progress", "## Convergence", "## Slowest scenarios",
            "## Fleet timeline", "## Events by kind", "## Parked scenarios",
            "## Failures",
        ):
            assert heading in md
        assert "solver diverged" in md and "always diverges" in md
        assert inflight in md
        # the finished solves show their point-solver totals, the live one does not yet
        assert "rows / stalled / residual calls" in md
        finished = [e["solver"] for e in store.events() if e["kind"] == "solve-finished"]
        assert len(finished) == 2
        for solver in finished:
            cells = (solver[k] for k in ("rows", "stalled", "residual_calls"))
            assert f"| {' / '.join(map(str, cells))} |" in md
            # Newton runs per iteration, residual calls per run
            per_run = solver["residual_calls"] / solver["newton_runs"]
            assert f"| 1.0 | {per_run:.1f} |" in md
        assert "Newton runs per iteration | residual calls per run" in md
        assert "| - / - / - | - | - |" in md
        assert any(ch in md for ch in "▁▂▃▄▅▆▇█")  # sparkline trajectories

    def test_html_report_is_self_contained(self, any_store_url):
        store, inflight = self._mixed_store(any_store_url)
        html = render_report(store, "html")
        assert html.startswith("<!DOCTYPE html>")
        assert html.count("<svg") >= 4  # 3 convergence curves + timeline
        assert "polyline" in html and "Fleet timeline" in html
        assert "status-failed" in html and "<pre>Traceback" in html
        # self-contained: no scripts, no external fetches of any kind
        assert "<script" not in html and "href=" not in html and "src=" not in html
        assert "http" not in html.replace("http://www.w3.org/2000/svg", "")


class TestCLI:
    def test_status_json_reports_progress_and_event_counts(self, tmp_path, capsys):
        store_url = f"file://{(tmp_path / 'store').as_posix()}"
        store = ResultsStore(store_url)
        suite = ScenarioSuite("tiny", [_tiny_solve_spec("tiny-lo", tau_labor=0.1)])
        run_worker(suite, store, worker_id="wA", progress=lambda *_: None)
        capsys.readouterr()
        assert cli_main(["status", "--store", store_url, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"]["iteration"] >= 1
        assert payload["events_total"] > 0
        progress = payload["progress"][store.scenario_key(suite[0])]
        assert progress["status"] == "completed"
        assert progress["iteration"] >= 1 and progress["error"] is not None
        # the worker's event log, sized from the read status already does
        raw = store.backend.get("events/wA.jsonl")
        assert payload["event_logs"] == {"wA": {"segments": 1, "bytes": len(raw)}}
        assert cli_main(["status", "--store", store_url]) == 0
        cells = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert ["wA", "1", str(len(raw))] in cells  # the Event logs row: segments, bytes

    def test_status_follow_streams_one_bounded_cycle(self, tmp_path, capsys):
        store_url = f"file://{(tmp_path / 'store').as_posix()}"
        store = ResultsStore(store_url)
        recorder = EventRecorder()
        sink = StoreEventSink(store, "w1")
        recorder.subscribe(sink)
        recorder.emit("claimed", "w1", "abc")
        assert (
            cli_main(
                ["status", "--store", store_url, "--follow",
                 "--poll", "0.01", "--max-polls", "1"]
            )
            == 0
        )
        assert "claimed" in capsys.readouterr().out

    def test_report_cli_writes_html_file(self, tmp_path, capsys):
        store_url = f"file://{(tmp_path / 'store').as_posix()}"
        suite = ScenarioSuite("tiny", [_tiny_solve_spec("tiny-lo", tau_labor=0.1)])
        run_suite(suite, ResultsStore(store_url), progress=lambda *_: None)
        out = tmp_path / "report.html"
        assert (
            cli_main(["report", "--store", store_url, "--format", "html",
                      "-o", str(out)])
            == 0
        )
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>") and "<svg" in html

    def test_report_cli_markdown_to_stdout(self, tmp_path, capsys):
        store_url = f"file://{(tmp_path / 'store').as_posix()}"
        suite = ScenarioSuite("tiny", [_tiny_solve_spec("tiny-lo", tau_labor=0.1)])
        run_suite(suite, ResultsStore(store_url), progress=lambda *_: None)
        capsys.readouterr()
        assert cli_main(["report", "--store", store_url]) == 0
        assert "# Scenario run report" in capsys.readouterr().out

    def test_report_and_status_render_an_older_stores_solver_totals(self, tmp_path, capsys):
        """A ``solve-finished`` written when rows were still polished and pinned carries two more
        keys."""
        store_url = f"file://{(tmp_path / 'store').as_posix()}"
        recorder = EventRecorder()
        sink = StoreEventSink(ResultsStore(store_url), "w-old")
        recorder.subscribe(sink)
        recorder.emit("solve-started", "w-old", "abc", start_iteration=0, max_iterations=5)
        recorder.emit("iteration", "w-old", "abc", iteration=1, error=0.5, points=7, wall_time=0.1)
        older = {"rows": 14, "stalled": 5, "pinned": 2, "polished": 3, "residual_calls": 40,
                 "newton_runs": 1}
        recorder.emit(
            "solve-finished", "w-old", "abc",
            iterations=1, new_iterations=1, converged=False, wall_time=0.1, solver=older,
        )
        sink.flush()  # a solve's closing events ride out with whatever flushes next
        assert cli_main(["report", "--store", store_url]) == 0
        assert "| 14 / 5 / 40 | 1.0 | 40.0 |" in capsys.readouterr().out
        assert cli_main(["status", "--store", store_url]) == 0
        assert "abc" in capsys.readouterr().out
        assert cli_main(["status", "--store", store_url, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["progress"]["abc"]["solver"] == older

"""Fault-injection tests of the claim/lease worker-fleet protocol.

Deterministic crash, drop and clock-skew scenarios driven through
:class:`~repro.scenarios.backends.FaultInjectingBackend` and injectable
clocks — no real kill -9, no sleeps longer than a heartbeat interval.
The acceptance test (kill a lease-holding worker mid-solve, peer steals
after TTL and resumes the dead worker's checkpoint bit-exactly) runs
over all three backends via ``any_store_url``.
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.time_iteration import TimeIterationSolver
from repro.parallel.tracing import LEASE_EVENT_KINDS, EventRecorder
from repro.scenarios import (
    ResultsStore,
    ScenarioSpec,
    ScenarioSuite,
    run_suite,
    run_worker,
    solve_batch_and_commit,
)
from repro.scenarios import lease as lease_module
from repro.scenarios.__main__ import main as cli_main
from repro.scenarios.backends import (
    FaultInjectingBackend,
    InjectedCrash,
    TransientStorageError,
    backend_from_url,
    call_with_retries,
    is_transient,
    retry,
)
from repro.scenarios.checkpoint import CHECKPOINT_SECONDS, SolveAbandoned, SolveCheckpoint
from repro.scenarios.lease import (
    DEFAULT_TTL,
    HeldLease,
    LeaseHeartbeat,
    LeaseLost,
    LeaseManager,
)
from repro.scenarios.store import StoreEventSink


def _tiny_solve_spec(name="tiny", **calibration) -> ScenarioSpec:
    cal = {"num_generations": 4, "num_states": 1, "beta": 0.8}
    cal.update(calibration)
    return ScenarioSpec(
        name,
        calibration=cal,
        solver={"grid_level": 2, "tolerance": 1e-3, "max_iterations": 12},
    )


def _payload_spec(i: int, name: str | None = None) -> ScenarioSpec:
    return ScenarioSpec(
        name or f"lease-{i}",
        kind="ablations",
        params={"which": "partition", "total_processes": 2 ** (1 + i)},
    )


def _broken_spec(name="broken") -> ScenarioSpec:
    """A spec whose adapter deterministically raises (unknown ablation)."""
    return ScenarioSpec(name, kind="ablations", params={"which": "no-such-ablation"})


class _Clock:
    """Settable fake clock: ``clock()`` returns ``now`` until advanced."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = float(now)

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += float(dt)


def _paced(clock: _Clock) -> EventRecorder:
    """Events (pass as ``events=``) under which every iteration takes one
    checkpoint interval on ``clock``: each iteration boundary is due a write."""
    events = EventRecorder(clock=clock)
    events.subscribe(lambda e: e.kind == "iteration" and clock.advance(CHECKPOINT_SECONDS))
    return events


def _manager(store, worker, clock, ttl=10.0, events=None) -> LeaseManager:
    return LeaseManager(store, worker, ttl=ttl, clock=clock, events=events)


# --------------------------------------------------------------------------- #
# claim / renew / release / steal mechanics
# --------------------------------------------------------------------------- #
class TestClaimProtocol:
    def test_claim_renew_release_roundtrip(self, any_store_url):
        store = ResultsStore.open(any_store_url)
        clock = _Clock()
        events = EventRecorder(clock=clock)
        m = _manager(store, "w1", clock, events=events)
        spec = _payload_spec(0)
        lease = m.try_claim(spec)
        assert lease is not None and lease.epoch == 1
        assert lease.worker == "w1"
        # the lease is a real object on the backend, under leases/<hash16>/
        assert store.backend.exists(store.lease_key(spec))
        clock.advance(3.0)
        renewed = m.renew(lease)
        assert renewed.renewed_at == clock.now
        assert m.release(renewed) is True
        assert store.leases() == []
        assert [e.kind for e in events.events] == ["claimed", "heartbeat", "released"]
        assert all(e.kind in LEASE_EVENT_KINDS for e in events.events)

    def test_healthy_lease_is_not_claimable(self, store_url_for):
        store = ResultsStore.open(store_url_for("mem"))
        clock = _Clock()
        spec = _payload_spec(0)
        assert _manager(store, "w1", clock).try_claim(spec) is not None
        # a peer sharing the same clock sees a fresh renewal: no steal
        assert _manager(store, "w2", clock).try_claim(spec) is None

    def test_expired_lease_is_stolen_with_epoch_bump(self, any_store_url):
        store = ResultsStore.open(any_store_url)
        clock = _Clock()
        events = EventRecorder(clock=clock)
        spec = _payload_spec(0)
        m1 = _manager(store, "w1", clock, ttl=5.0)
        lease1 = m1.try_claim(spec)
        assert lease1 is not None
        clock.advance(5.1)  # past the TTL: w1 looks dead to everyone
        m2 = _manager(store, "w2", clock, ttl=5.0, events=events)
        lease2 = m2.try_claim(spec)
        assert lease2 is not None and lease2.worker == "w2"
        assert lease2.epoch == lease1.epoch + 1
        assert events.by_kind("stolen")
        # the superseded holder's renewal now fails: split-brain impossible
        with pytest.raises(LeaseLost):
            m1.renew(lease1)

    def test_lost_put_race_detected_by_read_back(self, store_url_for):
        # drop the claim put: the read-back sees no lease (as if a peer's
        # racing put had overwritten ours) and try_claim reports defeat
        backend = FaultInjectingBackend(backend_from_url(store_url_for("mem")))
        store = ResultsStore(backend)
        rule = backend.add_rule(op="put", substring="lease.json", action="drop", times=1)
        clock = _Clock()
        assert _manager(store, "w1", clock).try_claim(_payload_spec(0)) is None
        assert rule.fired == 1
        # next claim goes through untouched
        assert _manager(store, "w1", clock).try_claim(_payload_spec(0)) is not None

    def test_release_of_stolen_lease_is_a_noop(self, store_url_for):
        store = ResultsStore.open(store_url_for("mem"))
        clock = _Clock()
        spec = _payload_spec(0)
        m1 = _manager(store, "w1", clock, ttl=2.0)
        lease1 = m1.try_claim(spec)
        clock.advance(2.1)
        m2 = _manager(store, "w2", clock, ttl=2.0)
        lease2 = m2.try_claim(spec)
        assert lease2 is not None
        # w1 releasing must not delete w2's lease
        assert m1.release(lease1) is False
        assert store.backend.exists(store.lease_key(spec))

    def test_torn_lease_object_is_claimable(self, store_url_for):
        store = ResultsStore.open(store_url_for("mem"))
        spec = _payload_spec(0)
        store.backend.put(store.lease_key(spec), b"{not json")
        assert _manager(store, "w1", _Clock()).try_claim(spec) is not None

    def test_the_environment_sets_no_lease_ttl(self, store_url_for, monkeypatch):
        # the TTL is a constant: the variable an older tree read changes nothing
        monkeypatch.setenv("REPRO_LEASE_TTL", "90")
        store = ResultsStore.open(store_url_for("mem"))
        assert LeaseManager(store, "w1").ttl == DEFAULT_TTL == lease_module.default_ttl()


# --------------------------------------------------------------------------- #
# clock skew (satellite: skewed workers)
# --------------------------------------------------------------------------- #
class TestClockSkew:
    def test_slow_clocked_peer_never_steals_healthy_lease(self, store_url_for):
        store = ResultsStore.open(store_url_for("mem"))
        owner_clock, slow_clock = _Clock(1000.0), _Clock(900.0)  # peer 100s behind
        spec = _payload_spec(0)
        owner = _manager(store, "owner", owner_clock, ttl=5.0)
        lease = owner.try_claim(spec)
        assert lease is not None
        # however long the slow peer waits short of skew+ttl, the lease's
        # renewed_at stays in the peer's future: age is negative, no steal
        peer = _manager(store, "slow-peer", slow_clock, ttl=5.0)
        for _ in range(3):
            slow_clock.advance(30.0)
            assert peer.try_claim(spec) is None
        # and renewals keep pushing the steal horizon out
        owner_clock.advance(90.0)
        owner.renew(lease)
        slow_clock.advance(14.0)  # peer now at 1004 < renewed_at 1090
        assert peer.try_claim(spec) is None

    def test_fast_clocked_owner_lease_still_expires_for_peers(self, store_url_for):
        store = ResultsStore.open(store_url_for("mem"))
        fast_clock, peer_clock = _Clock(1100.0), _Clock(1000.0)  # owner 100s ahead
        spec = _payload_spec(0)
        owner = _manager(store, "fast-owner", fast_clock, ttl=5.0)
        assert owner.try_claim(spec) is not None
        # owner dies at t=1000 (peer frame); lease stamped renewed_at=1100.
        # It is unstealable for skew+ttl, not forever:
        peer = _manager(store, "peer", peer_clock, ttl=5.0)
        peer_clock.advance(100.0)  # reaches the owner's stamp
        assert peer.try_claim(spec) is None  # age 0 < ttl
        peer_clock.advance(5.1)  # skew + ttl elapsed
        stolen = peer.try_claim(spec)
        assert stolen is not None and stolen.epoch == 2


# --------------------------------------------------------------------------- #
# heartbeat
# --------------------------------------------------------------------------- #
class TestHeartbeat:
    """Driven by ``tick()`` under a fake clock: no thread, no sleep."""

    def _two_held(self, store, clock, ttl, events=None):
        manager = _manager(store, "w1", clock, ttl=ttl, events=events)
        heartbeat = LeaseHeartbeat(manager)  # never started: tick() is all its thread does
        specs = [_payload_spec(0), _payload_spec(1)]
        held = [heartbeat.hold(manager.try_claim(spec)) for spec in specs]
        return manager, heartbeat, specs, held

    def test_each_tick_renews_every_held_lease_once(self, store_url_for):
        store = ResultsStore.open(store_url_for("mem"))
        clock = _Clock()
        events = EventRecorder(clock=clock)
        manager, heartbeat, specs, held = self._two_held(store, clock, 9.0, events)
        assert heartbeat.interval == 3.0  # TTL/3 unless told otherwise
        for n in (1, 2, 3):
            clock.advance(3.0)
            heartbeat.tick()
            assert len(events.by_kind("heartbeat")) == 2 * n
            for handle, spec in zip(held, specs):
                assert handle.lease.renewed_at == manager.read(spec).renewed_at == clock.now
                assert not handle.abort_requested()
        heartbeat.drop(held[0])
        clock.advance(3.0)
        heartbeat.tick()
        assert len(events.by_kind("heartbeat")) == 7
        assert manager.read(specs[0]).renewed_at == clock.now - 3.0
        # drop() never releases: that is the owner's explicit decision
        assert store.backend.exists(store.lease_key(specs[0]))

    def test_stolen_lease_aborts_its_own_handle_and_no_other(self, store_url_for):
        store = ResultsStore.open(store_url_for("mem"))
        clock = _Clock()
        events = EventRecorder(clock=clock)
        _manager_, heartbeat, specs, held = self._two_held(store, clock, 5.0, events)
        clock.advance(5.1)
        assert _manager(store, "thief", clock, ttl=5.0).try_claim(specs[0]) is not None
        heartbeat.tick()
        assert held[0].abort_requested() and not held[1].abort_requested()
        [missed] = events.by_kind("heartbeat-missed")
        assert missed.scenario == store.scenario_key(specs[0])
        assert missed.detail["reason"] == "lease-lost"
        heartbeat.tick()  # a lost lease is not renewed again; the other one is
        assert len(events.by_kind("heartbeat-missed")) == 1
        assert [e.scenario for e in events.by_kind("heartbeat")] == [
            store.scenario_key(specs[1])
        ] * 2

    def test_renewals_erroring_past_the_ttl_abort_that_lease_only(self, store_url_for, monkeypatch):
        monkeypatch.setattr(retry, "DEFAULT_RETRIES", 0)
        backend = FaultInjectingBackend(backend_from_url(store_url_for("mem")))
        store = ResultsStore(backend)
        clock = _Clock()
        events = EventRecorder(clock=clock)
        _manager_, heartbeat, specs, held = self._two_held(store, clock, 5.0, events)
        backend.add_rule(op="get", substring=store.lease_key(specs[0]), times=None)
        clock.advance(3.0)
        heartbeat.tick()  # one failed renewal inside the TTL: keep solving
        assert not held[0].abort_requested() and not events.by_kind("heartbeat-missed")
        clock.advance(3.0)
        heartbeat.tick()  # 6 s since the last success > TTL: peers may have stolen it
        assert held[0].abort_requested() and not held[1].abort_requested()
        [missed] = events.by_kind("heartbeat-missed")
        assert missed.scenario == store.scenario_key(specs[0])
        assert missed.detail["reason"] == "renew-deadline-exceeded"
        assert missed.detail["stale_for"] == 6.0
        assert held[1].lease.renewed_at == clock.now

    def test_drop_waits_for_the_renewal_in_flight_and_release_is_final(self, store_url_for):
        backend = FaultInjectingBackend(backend_from_url(store_url_for("mem")))
        store = ResultsStore(backend)
        manager = _manager(store, "w1", _Clock())
        spec = _payload_spec(0)
        heartbeat = LeaseHeartbeat(manager)
        handle = heartbeat.hold(manager.try_claim(spec))
        inside, go, dropped = threading.Event(), threading.Event(), threading.Event()
        backend.add_rule(
            op="put",
            substring="lease.json",
            action="call",
            callback=lambda inner, op, key: (inside.set(), go.wait(5.0)),
        )
        ticker = threading.Thread(target=heartbeat.tick)
        dropper = threading.Thread(target=lambda: (heartbeat.drop(handle), dropped.set()))
        ticker.start()
        assert inside.wait(5.0)  # the renewal is inside the backend's put
        dropper.start()
        assert not dropped.wait(0.05)  # ...and drop() does not return under it
        go.set()
        ticker.join(5.0)
        dropper.join(5.0)
        assert dropped.is_set()
        assert manager.release(handle.lease) is True
        heartbeat.tick()  # nothing held: nothing written
        key = store.lease_key(spec)
        assert [op for op, k in backend.ops if k == key][-2:] == ["get", "delete"]
        assert not store.backend.exists(key)

    def test_released_leases_stay_released_under_a_racing_heartbeat(self, store_url_for):
        # three holders churn hold -> drop -> release against a heartbeat
        # ticking as fast as it can: a renewal slipping past drop() would put
        # a released lease back
        store = ResultsStore.open(store_url_for("mem"))
        manager = _manager(store, "w1", time.monotonic, ttl=10.0)
        heartbeat = LeaseHeartbeat(manager, interval=1e-4)
        lost: list = []

        def churn(first: int) -> None:
            for i in range(first, first + 40):
                lease = manager.try_claim(_payload_spec(i))
                handle = heartbeat.hold(lease)
                deadline = time.monotonic() + 5.0
                while handle.lease is lease and time.monotonic() < deadline:
                    pass  # until the heartbeat is renewing this very lease
                heartbeat.drop(handle)
                if handle.abort_requested() or not manager.release(handle.lease):
                    lost.append(i)

        holders = [threading.Thread(target=churn, args=(100 * n,)) for n in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            heartbeat.start()
            for thread in holders:
                thread.start()
            for thread in holders:
                thread.join(30.0)
        finally:
            heartbeat.stop()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in holders)
        assert lost == [] and store.leases() == []

    @pytest.mark.parametrize("crash", [False, True], ids=["drained", "crashed"])
    def test_a_drain_starts_one_thread_and_leaves_none_running(
        self, store_url_for, monkeypatch, crash
    ):
        from repro.experiments import table1

        started: list = []
        real_start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start", lambda self: (started.append(self.name), real_start(self))
        )
        real_adapter, calls = table1.run_scenario, []

        def adapter(params):
            calls.append(params)
            if crash and len(calls) == 50:
                raise InjectedCrash("killed inside the last unit")
            return real_adapter(params)

        monkeypatch.setattr(table1, "run_scenario", adapter)
        store = ResultsStore.open(store_url_for("mem"))
        baseline = threading.active_count()
        if crash:
            with pytest.raises(InjectedCrash):
                run_worker(_micro_specs(50), store, worker_id="w1")
            assert [lease["worker"] for lease in store.leases()] == ["w1"]  # left to steal
        else:
            assert len(run_worker(_micro_specs(50), store, worker_id="w1").completed) == 50
            assert store.leases() == []
        assert started == ["lease-heartbeat-w1"] and len(calls) == 50
        assert threading.active_count() == baseline

    def test_abort_hook_abandons_before_writing(self, tmp_path):
        # the checkpoint polls abort() before every write: a worker whose
        # lease is gone must not clobber the thief's newer checkpoint
        ckpt = SolveCheckpoint(tmp_path / "x.npz", abort=lambda: True)
        with pytest.raises(SolveAbandoned):
            ckpt.on_iteration(None, [1], False, None)
        assert not (tmp_path / "x.npz").exists()


# --------------------------------------------------------------------------- #
# the acceptance test: kill -> steal -> resume, bit-exact
# --------------------------------------------------------------------------- #
class TestKillStealResume:
    def test_killed_worker_is_stolen_and_resumed_bit_exactly(
        self, any_store_url, store_url_for
    ):
        spec = _tiny_solve_spec("kill-steal", tau_labor=0.17)
        suite = ScenarioSuite("one", [spec])

        # worker A dies (uncatchable InjectedCrash, the in-process stand-in
        # for kill -9) while persisting its second checkpoint — its clock
        # passes one interval per iteration, so that is iteration 2: lease
        # and checkpoint stay behind, nothing was committed or released
        crashing = FaultInjectingBackend(backend_from_url(any_store_url))
        crashing.add_rule(
            op="put", substring="checkpoint", action="crash", after=1, times=1
        )
        store_a = ResultsStore(crashing)
        clock_a = _Clock(1000.0)
        with pytest.raises(InjectedCrash):
            run_worker(
                suite,
                store_a,
                worker_id="victim",
                ttl=30.0,
                heartbeat_interval=1000.0,  # no renewals interfere mid-test
                events=_paced(clock_a),
                clock=clock_a,
            )
        store = ResultsStore.open(any_store_url)
        assert store.entry(spec) is None  # nothing committed
        assert store.checkpoint_ref(spec).exists()
        [left_behind] = store.leases()
        assert left_behind["worker"] == "victim"

        # worker B's clock is past the victim's TTL: it steals (epoch 2)
        # and resumes from the dead worker's checkpoint
        clock_b = _Clock(clock_a.now + 30.0 + 1.0)
        report = run_worker(
            suite,
            store,
            worker_id="thief",
            ttl=30.0,
            heartbeat_interval=1000.0,
            clock=clock_b,
        )
        assert report.completed and report.steals == 1
        entry = store.entry(spec)
        assert entry["status"] == "completed" and entry["resumed"] is True
        assert store.leases() == []  # released after commit

        # bit-exactness: the stolen-and-resumed solve equals an
        # uninterrupted solve of the same spec in a pristine store
        fresh = ResultsStore.open(store_url_for("mem", name="uninterrupted"))
        assert run_suite(suite, fresh).ok
        a, b = store.load_result(spec), fresh.load_result(spec)
        assert a.iterations == b.iterations
        assert np.array_equal(a.error_history(), b.error_history())

    def test_victim_dying_inside_its_first_interval_is_stolen_and_solved_cold(
        self, any_store_url, store_url_for
    ):
        spec = _tiny_solve_spec("kill-early", tau_labor=0.17)
        suite = ScenarioSuite("one", [spec])
        # the victim's clock never reaches one interval: it dies storing its
        # result having written no checkpoint at all
        crashing = FaultInjectingBackend(backend_from_url(any_store_url))
        crashing.add_rule(op="put", substring="/result.npz", action="crash", times=1)
        store_a = ResultsStore(crashing)
        with pytest.raises(InjectedCrash):
            run_worker(
                suite,
                store_a,
                worker_id="victim",
                ttl=30.0,
                heartbeat_interval=1000.0,
                clock=_Clock(1000.0),
            )
        assert ("put", store_a.checkpoint_key(spec)) not in crashing.ops
        store = ResultsStore.open(any_store_url)
        assert store.entry(spec) is None and not store.checkpoint_ref(spec).exists()
        assert [lease["worker"] for lease in store.leases()] == ["victim"]

        report = run_worker(
            suite,
            store,
            worker_id="thief",
            ttl=30.0,
            heartbeat_interval=1000.0,
            clock=_Clock(1000.0 + 30.0 + 1.0),
        )
        assert report.completed and report.steals == 1
        entry = store.entry(spec)
        # nothing to resume: a cold solve
        assert entry["status"] == "completed" and entry["resumed"] is False
        fresh = ResultsStore.open(store_url_for("mem", name="uninterrupted"))
        assert run_suite(suite, fresh).ok
        a, b = store.load_result(spec), fresh.load_result(spec)
        assert np.array_equal(a.error_history(), b.error_history())
        for got, want in zip(a.policy, b.policy):
            assert np.array_equal(got.interpolant.surplus, want.interpolant.surplus)

    def test_crash_between_commit_and_release_is_healed(self, any_store_url):
        # the crash-safe release ordering: entry committed first, lease
        # deleted second.  Crash in between and the suite still converges
        # to zero lease objects via the expiry + heal path.
        spec = _payload_spec(0, name="heal-me")
        suite = ScenarioSuite("one", [spec])
        crashing = FaultInjectingBackend(backend_from_url(any_store_url))
        crashing.add_rule(
            op="delete", substring="lease.json", action="crash", times=1
        )
        clock_a = _Clock(1000.0)
        with pytest.raises(InjectedCrash):
            run_worker(
                ScenarioSuite("one", [spec]),
                ResultsStore(crashing),
                worker_id="victim",
                ttl=10.0,
                heartbeat_interval=1000.0,
                clock=clock_a,
            )
        store = ResultsStore.open(any_store_url)
        assert store.entry_is_complete(store.entry(spec))  # commit landed
        assert len(store.leases()) == 1  # ...but the lease survived

        clock_b = _Clock(1000.0 + 10.0 + 1.0)
        report = run_worker(
            suite,
            store,
            worker_id="healer",
            ttl=10.0,
            heartbeat_interval=1000.0,
            clock=clock_b,
        )
        assert report.healed == 1 and report.already_done == [
            store.scenario_key(spec)
        ]
        assert report.claims == 0  # nothing was re-solved
        assert store.leases() == []


    def test_crash_between_entry_and_log_record_is_healed_by_reindex(self, any_store_url):
        # the commit log is composed from the wrapper's own object ops, so
        # a rule can kill a writer between the authoritative entry.json
        # put and the commits/ put that advertises it
        spec = _payload_spec(0, name="unlogged")
        crashing = FaultInjectingBackend(backend_from_url(any_store_url))
        rule = crashing.add_rule(op="put", substring="commits/", action="crash")
        victim = ResultsStore(crashing)
        with pytest.raises(InjectedCrash):
            victim.commit_entry(victim.write_payload(spec, {"ok": 1}, wall_time=1.0))
        assert rule.fired == 1
        store = ResultsStore.open(any_store_url)
        assert store.has(spec)  # the entry landed whole...
        assert store.log_records() == [] and store.index() == {}  # ...unlogged
        assert set(store.reindex()) == {spec.content_hash()}
        assert [rec["spec_hash"] for rec in store.log_records()] == [spec.content_hash()]
        # the healed record is the full commit record, not a discovery stub
        hits = store.query(where=["params.total_processes=2"])
        assert [rec["spec_hash"] for rec in hits] == [spec.content_hash()]


# --------------------------------------------------------------------------- #
# retry budget, parking, failed-entry tracebacks
# --------------------------------------------------------------------------- #
class TestFailureHandling:
    def test_permanently_failing_scenario_is_parked(self, store_url_for):
        store = ResultsStore.open(store_url_for("mem"))
        suite = ScenarioSuite("one", [_broken_spec()])
        clock = _Clock()
        report = run_worker(
            suite,
            store,
            worker_id="w1",
            max_attempts=2,
            clock=clock,
            sleep=lambda seconds: None,
            heartbeat_interval=1000.0,
        )
        assert report.parked == [store.scenario_key(_broken_spec())]
        assert report.claims == 2  # exactly the attempt budget
        [parked] = store.parked()
        assert parked["attempts"] == 2
        assert "no-such-ablation" in parked["error"]
        assert store.leases() == []  # released between attempts and at parking
        kinds = [e.kind for e in report.events.events]
        assert "retry" in kinds and "parked" in kinds
        # a second worker skips the parked scenario outright
        second = run_worker(suite, store, worker_id="w2", clock=clock)
        assert second.claims == 0 and second.parked

    def test_retry_parked_clears_the_budget(self, store_url_for):
        store = ResultsStore.open(store_url_for("mem"))
        broken = ScenarioSuite("one", [_broken_spec()])
        clock = _Clock()
        run_worker(broken, store, worker_id="w1", max_attempts=1, clock=clock)
        assert store.parked()
        report = run_worker(
            broken,
            store,
            worker_id="w2",
            max_attempts=1,
            clock=clock,
            retry_parked=True,
        )
        assert report.claims == 1  # re-attempted after unparking
        assert store.parked()  # ...and parked again (still broken)

    def test_failed_entry_records_traceback_and_show_prints_it(
        self, store_url_for, capsys
    ):
        url = store_url_for("file")
        store = ResultsStore.open(url)
        report = run_suite(ScenarioSuite("one", [_broken_spec()]), store)
        assert report.count("failed") == 1
        entry = store.entry(_broken_spec())
        assert "Traceback (most recent call last)" in entry["traceback"]
        assert "no-such-ablation" in entry["traceback"]
        assert cli_main(["show", "--store", url]) == 0
        out = capsys.readouterr().out
        assert "Traceback (most recent call last)" in out
        assert "traceback of broken" in out

    def test_failure_backoff_grows_exponentially(self, store_url_for):
        store = ResultsStore.open(store_url_for("mem"))
        delays: list = []
        run_worker(
            ScenarioSuite("one", [_broken_spec()]),
            store,
            worker_id="w1",
            max_attempts=3,
            clock=_Clock(),
            sleep=delays.append,
            rng=lambda: 0.5,  # jitter multiplier pinned to 1.0
        )
        # one backoff after each non-final failed attempt, doubling
        assert delays == [lease_module.FAILURE_BACKOFF, 2 * lease_module.FAILURE_BACKOFF]


# --------------------------------------------------------------------------- #
# transient-error retry (satellite: bounded retry + backoff everywhere)
# --------------------------------------------------------------------------- #
class TestTransientRetries:
    def test_transient_classification(self):
        assert is_transient(ConnectionError("reset"))
        assert is_transient(TimeoutError("slow"))
        assert is_transient(TransientStorageError("throttle"))
        assert not is_transient(FileNotFoundError("absent is an answer"))
        assert not is_transient(ValueError("a bug, not weather"))

    def test_botocore_shaped_throttles_and_5xx_are_transient(self):
        class ClientError(Exception):
            def __init__(self, status, code):
                super().__init__(code)
                self.response = {
                    "ResponseMetadata": {"HTTPStatusCode": status},
                    "Error": {"Code": code},
                }

        assert is_transient(ClientError(503, "ServiceUnavailable"))
        assert is_transient(ClientError(429, "TooManyRequests"))
        assert is_transient(ClientError(400, "SlowDown"))  # the code alone suffices
        assert not is_transient(ClientError(403, "AccessDenied"))
        assert not is_transient(ClientError(404, "NoSuchKey"))

    def test_backoff_doubles_from_the_default_base_with_jitter(self, monkeypatch):
        monkeypatch.setattr(retry, "DEFAULT_RETRY_BASE", 0.1)

        def always_down():
            raise ConnectionError("down")

        monkeypatch.setattr(retry, "DEFAULT_RETRIES", 3)
        for jitter, factor in ((0.5, 1.0), (0.0, 0.5)):
            slept: list = []
            with pytest.raises(ConnectionError):
                call_with_retries(always_down, sleep=slept.append, rng=lambda: jitter)
            assert slept == pytest.approx([0.1 * factor, 0.2 * factor, 0.4 * factor])

    def test_call_with_retries_absorbs_transient_blips(self, monkeypatch):
        monkeypatch.setattr(retry, "DEFAULT_RETRIES", 3)
        monkeypatch.setattr(retry, "DEFAULT_RETRY_BASE", 0.0)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise ConnectionError("blip")
            return "ok"

        assert call_with_retries(flaky, sleep=lambda s: None) == "ok"
        assert calls["n"] == 3

    def test_retry_budget_exhaustion_reraises(self, monkeypatch):
        monkeypatch.setattr(retry, "DEFAULT_RETRIES", 2)
        monkeypatch.setattr(retry, "DEFAULT_RETRY_BASE", 0.0)

        def always_down():
            raise TimeoutError("still down")

        with pytest.raises(TimeoutError):
            call_with_retries(always_down, sleep=lambda s: None)

    def test_non_transient_errors_are_never_retried(self, monkeypatch):
        monkeypatch.setattr(retry, "DEFAULT_RETRIES", 5)
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            call_with_retries(broken)
        assert calls["n"] == 1

    def test_default_budget_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(retry, "DEFAULT_RETRIES", 5)
        monkeypatch.setattr(retry, "DEFAULT_RETRY_BASE", 0.0)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 5:
                raise ConnectionError("blip")
            return "ok"

        assert call_with_retries(flaky, sleep=lambda s: None) == "ok"
        assert calls["n"] == 6

    def test_objectstore_ops_retry_through_the_wrapper(
        self, store_url_for, monkeypatch
    ):
        # the s3 backend's client calls run under call_with_retries: two
        # injected transient failures on the same op are absorbed
        monkeypatch.setattr(retry, "DEFAULT_RETRIES", 3)
        monkeypatch.setattr(retry, "DEFAULT_RETRY_BASE", 0.0)
        backend = backend_from_url(store_url_for("s3"))
        fails = {"n": 0}
        real_put = backend.client.put_object

        def flaky_put(bucket, key, body):
            if fails["n"] < 2:
                fails["n"] += 1
                raise ConnectionError("s3 blip")
            return real_put(bucket, key, body)

        monkeypatch.setattr(backend.client, "put_object", flaky_put)
        backend.put("a/entry.json", b"{}")
        assert fails["n"] == 2
        assert backend.get("a/entry.json") == b"{}"

    def test_lease_ops_survive_transient_store_blips(self, store_url_for, monkeypatch):
        monkeypatch.setattr(retry, "DEFAULT_RETRIES", 3)
        monkeypatch.setattr(retry, "DEFAULT_RETRY_BASE", 0.0)
        backend = FaultInjectingBackend(backend_from_url(store_url_for("mem")))
        store = ResultsStore(backend)
        rule = backend.add_rule(
            op="put",
            substring="lease.json",
            action="error",
            exc=lambda: ConnectionError("blip"),
            times=2,
        )
        m = LeaseManager(store, "w1", ttl=5.0, clock=_Clock())
        assert m.try_claim(_payload_spec(0)) is not None
        assert rule.fired == 2


# one driver per caller that used to carry (or lack) its own retry wrapper:
# ``prepare(store)`` runs healthy and returns the zero-arg operation under test
def _entry_put(store):
    entry = store.failure_entry(_payload_spec(0), "failed", 0.0, "boom")
    return lambda: store.commit_entry(entry)


def _checkpoint_put(store):
    spec = _tiny_solve_spec().with_overrides(solver={"max_iterations": 1})
    config = spec.build_config()
    clock = _Clock()
    checkpoint = SolveCheckpoint(store.checkpoint_ref(spec), config=config, clock=clock)
    solver = TimeIterationSolver(spec.build_model(), config)

    def solve():
        checkpoint.delete()  # start from p^0 each time: one iteration, one checkpoint put
        solver.solve(checkpoint=checkpoint, events=_paced(clock))

    return solve


def _sink_flush(store):
    sink = StoreEventSink(store, "w1")
    recorder = EventRecorder()
    recorder.subscribe(sink)

    def flush():
        recorder.emit("heartbeat", "w1", "scenario")  # a buffered kind
        sink.flush()

    return flush


def _lease_get(store):
    manager = _manager(store, "w1", _Clock())
    spec = _payload_spec(0)
    assert manager.try_claim(spec) is not None
    return lambda: manager.read(spec)


_RETRIED_BELOW_THE_CALLER = {
    "entry-put": ("put", "/entry.json", _entry_put),
    "checkpoint-put": ("put", "/checkpoint.npz", _checkpoint_put),
    "event-sink-flush": ("put", "events/", _sink_flush),
    "lease-get": ("get", "leases/", _lease_get),
}


class TestRetryIsTheBackendsJob:
    @pytest.mark.parametrize("case", sorted(_RETRIED_BELOW_THE_CALLER))
    def test_injected_blip_is_absorbed_below_every_caller(
        self, case, any_store_url, monkeypatch
    ):
        monkeypatch.setattr(retry, "DEFAULT_RETRIES", 2)
        monkeypatch.setattr(retry, "DEFAULT_RETRY_BASE", 0.0)
        op, substring, prepare = _RETRIED_BELOW_THE_CALLER[case]
        backend = FaultInjectingBackend(backend_from_url(any_store_url))
        run = prepare(ResultsStore(backend))
        # one blip: the backend's own public op retries it away
        blip = backend.add_rule(op=op, substring=substring, action="error", times=1)
        run()
        assert blip.fired == 1
        # a store that stays down: the original exception, after exactly
        # 1 + DEFAULT_RETRIES attempts of the one failing op
        backend.clear_rules()
        down = backend.add_rule(op=op, substring=substring, action="error", times=None)
        with pytest.raises(TransientStorageError, match="injected transient fault"):
            run()
        assert down.fired == 3

    def test_crashes_and_misses_are_never_retried(self, store_url_for, monkeypatch):
        monkeypatch.setattr(retry, "DEFAULT_RETRIES", 3)
        monkeypatch.setattr(retry, "DEFAULT_RETRY_BASE", 0.0)
        backend = FaultInjectingBackend(backend_from_url(store_url_for("mem")))
        crash = backend.add_rule(op="put", substring="x", action="crash", times=None)
        with pytest.raises(InjectedCrash):
            backend.put("x", b"")
        bug = backend.add_rule(
            op="get", substring="x", action="error", exc=lambda: ValueError("bug"), times=None
        )
        with pytest.raises(ValueError):
            backend.get("x")
        assert (crash.fired, bug.fired) == (1, 1)
        backend.clear_rules()
        with pytest.raises(FileNotFoundError):
            backend.get("x")
        assert backend.ops.count(("get", "x")) == 2  # the ValueError one, then one miss

    @pytest.mark.parametrize("retries", [3, 0])
    def test_one_lease_read_on_a_down_s3_endpoint_costs_one_budget(
        self, retries, store_url_for, monkeypatch
    ):
        # the layers used to nest (lease._call around the objectstore
        # wrapper): 16 client attempts for a documented budget of 4
        monkeypatch.setattr(retry, "DEFAULT_RETRIES", retries)
        monkeypatch.setattr(retry, "DEFAULT_RETRY_BASE", 0.0)
        store = ResultsStore.open(store_url_for("s3"))
        attempts = []

        def down(bucket, key):
            attempts.append(key)
            raise ConnectionError("endpoint down")

        monkeypatch.setattr(store.backend.client, "get_object", down)
        with pytest.raises(ConnectionError):
            _manager(store, "w1", _Clock()).read(_payload_spec(0))
        assert len(attempts) == 1 + retries


# --------------------------------------------------------------------------- #
# what a unit costs the store on its checkpoint key
# --------------------------------------------------------------------------- #
class TestCheckpointTraffic:
    def test_a_unit_shorter_than_one_interval_reads_once_and_deletes_once(self, any_store_url):
        backend = FaultInjectingBackend(backend_from_url(any_store_url))
        store = ResultsStore(backend)
        spec = _tiny_solve_spec("quiet")
        report = run_worker(ScenarioSuite("one", [spec]), store, worker_id="w1", clock=_Clock())
        assert report.completed
        # one get at the start (a miss: the answer), one delete at the commit;
        # the solve's only serialisation is its result
        checkpoint, result = store.checkpoint_key(spec), store.result_key(spec)
        assert [op for op, key in backend.ops if key == checkpoint] == ["get", "delete"]
        assert [op for op, key in backend.ops if key == result].count("put") == 1

    def test_checkpoint_vanishing_under_the_read_is_a_cold_start(self, store_url_for):
        backend = FaultInjectingBackend(backend_from_url(store_url_for("mem")))
        store = ResultsStore(backend)
        spec = _tiny_solve_spec("vanish")
        [entry] = solve_batch_and_commit([spec], store, interrupt_after=1)
        assert entry["status"] == "interrupted" and store.checkpoint_ref(spec).exists()
        # a thief's commit removes the object after the member was built,
        # just as the solve reads it
        backend.add_rule(
            op="get",
            substring="/checkpoint.npz",
            action="call",
            callback=lambda inner, op, key: inner.delete(key),
        )
        [entry] = solve_batch_and_commit([spec], store)
        assert entry["status"] == "completed" and entry["resumed"] is False


# --------------------------------------------------------------------------- #
# fleet drain: multiple workers, one store (exactly-once-effective)
# --------------------------------------------------------------------------- #
class TestFleetDrain:
    def test_two_workers_drain_one_suite(self, store_url_for):
        store = ResultsStore.open(store_url_for("mem"))
        suite = ScenarioSuite("drain", [_payload_spec(i) for i in range(8)])
        reports: dict = {}

        def drain(worker_id: str) -> None:
            reports[worker_id] = run_worker(suite, store, worker_id=worker_id, ttl=10.0, poll=0.01)

        threads = [
            threading.Thread(target=drain, args=(f"w{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        index = store.index()
        assert len(index) == 8  # every scenario exactly one committed entry
        assert all(e["status"] == "completed" for e in index.values())
        assert store.leases() == []  # fully drained: no lease objects remain
        covered = set()
        for report in reports.values():
            covered.update(report.completed)
            covered.update(report.already_done)
        assert covered == set(store.scenario_key(s) for s in suite)

    def test_worker_skips_scenarios_completed_by_others(self, store_url_for):
        store = ResultsStore.open(store_url_for("mem"))
        suite = ScenarioSuite("half", [_payload_spec(i) for i in range(4)])
        run_suite(suite, store)  # a prior batch finished everything
        report = run_worker(suite, store, worker_id="late", clock=_Clock())
        assert report.claims == 0
        assert len(report.already_done) == 4


# --------------------------------------------------------------------------- #
# groups: every drain stacks its same-topology solves; the claim routine is one
# --------------------------------------------------------------------------- #
def _other_topology(spec: ScenarioSpec) -> ScenarioSpec:
    """The spec one generation older: a grid of another dimension, so never in its group."""
    return spec.with_overrides(calibration={"num_generations": 5})


def _batched_starts(report) -> dict:
    return {e.scenario: e.detail["batched"] for e in report.events.by_kind("solve-started")}


class TestGroupDrain:
    def _mixed_suite(self) -> ScenarioSuite:
        adaptive = _tiny_solve_spec("ada", tau_labor=0.12).with_overrides(
            solver={
                "adaptive": True,
                "max_refine_level": 3,
                "max_points_per_state": 40,
                "max_iterations": 3,
            }
        )
        return ScenarioSuite(
            "mixed",
            [
                _tiny_solve_spec("pair-a", tau_labor=0.1),
                _tiny_solve_spec("pair-b", tau_labor=0.2),
                adaptive,
                _payload_spec(0),
            ],
        )

    def test_mixed_suite_drains_one_stacked_pair_and_two_singles(self, store_url_for):
        suite = self._mixed_suite()
        store = ResultsStore.open(store_url_for("mem", name="mixed"))
        lines: list = []
        report = run_worker(
            suite,
            store,
            worker_id="w",
            clock=_Clock(),
            heartbeat_interval=1000.0,
            progress=lines.append,
        )
        # one lease claimed and released per member, whatever its group
        kinds = [e.kind for e in report.events.events]
        assert report.claims == kinds.count("claimed") == kinds.count("released") == 4
        assert len(report.completed) == 4 and store.leases() == []
        key = store.scenario_key
        # the pair iterates stacked; the adaptive solve steps alone; the
        # payload scenario has no iterations
        assert _batched_starts(report) == {
            key(suite[0]): True,
            key(suite[1]): True,
            key(suite[2]): False,
        }
        claims = [line for line in lines if line.startswith("claim ")]
        assert [line.endswith("(batched)") for line in claims] == [True, True, False, False]
        # each member commits what its solve alone commits
        alone = ResultsStore.open(store_url_for("mem", name="alone"))
        for spec in suite:
            [entry] = solve_batch_and_commit([spec], alone)
            stacked = store.entry(spec)
            assert entry["status"] == stacked["status"] == "completed"
            assert entry.get("iterations") == stacked.get("iterations")

    def test_a_gamma_pair_runs_as_two_singles_with_its_solo_bits(self, store_url_for):
        # risk aversion is part of the Euler system's structure: one grid, two
        # systems, so the drain never stacks the pair
        specs = [_tiny_solve_spec("gamma-2"), _tiny_solve_spec("gamma-3", gamma=3.0)]
        store = ResultsStore.open(store_url_for("mem"))
        lines: list = []
        report = run_worker(
            specs,
            store,
            worker_id="w",
            clock=_Clock(),
            heartbeat_interval=1000.0,
            progress=lines.append,
        )
        assert sorted(report.completed) == sorted(store.scenario_key(s) for s in specs)
        assert _batched_starts(report) == {store.scenario_key(s): False for s in specs}
        assert not any(line.endswith("(batched)") for line in lines)
        for spec in specs:
            solo = TimeIterationSolver(spec.build_model(), spec.build_config()).solve()
            result = store.load_result(spec)
            assert result.iterations == solo.iterations
            assert np.array_equal(result.error_history(), solo.error_history())
            for got, want in zip(result.policy, solo.policy):
                assert np.array_equal(got.interpolant.surplus, want.interpolant.surplus)

    @pytest.mark.parametrize("grouped", [False, True], ids=["singles", "group"])
    def test_lost_lease_abandons_one_member_the_rest_commit(
        self, store_url_for, monkeypatch, grouped
    ):
        store = ResultsStore.open(store_url_for("mem"))
        lost = _tiny_solve_spec("lost", tau_labor=0.1)
        kept = _tiny_solve_spec("kept", tau_labor=0.2)
        if not grouped:
            kept = _other_topology(kept)  # a group of one each
        victim = store.scenario_key(lost)
        monkeypatch.setattr(
            HeldLease, "abort_requested", lambda self: self.lease.scenario == victim
        )
        report = run_worker(
            [lost, kept],
            store,
            worker_id="w",
            clock=_Clock(),
            heartbeat_interval=1000.0,
            max_claims=2,  # the abandoned lease stays (it is the thief's): stop rescanning
        )
        assert set(_batched_starts(report).values()) == {grouped}
        assert report.abandoned == 1 and report.completed == [store.scenario_key(kept)]
        assert store.entry(lost) is None  # nothing committed for the abandoned member
        assert store.entry(kept)["status"] == "completed"
        [abandoned] = report.events.by_kind("abandoned")
        assert abandoned.scenario == victim
        # the hook's SolveAbandoned reaches the worker with its reason text
        assert "solve abandoned at iteration 1" in abandoned.detail["reason"]

    def test_failed_group_member_backs_off_before_its_retry(self, store_url_for):
        # a member that commits a `failed` entry is retried with the same
        # exponential backoff whether it was claimed alone or in a group
        from repro.scenarios import serialize

        store = ResultsStore.open(store_url_for("mem"))
        good, bad = _tiny_solve_spec("good", tau_labor=0.1), _tiny_solve_spec("bad", tau_labor=0.2)
        # a checkpoint written under another configuration: refused on every load
        other = bad.with_overrides(solver={"max_iterations": 1})
        foreign = TimeIterationSolver(other.build_model(), other.build_config()).solve()
        serialize.save_result(store.checkpoint_ref(bad), foreign)
        delays: list = []
        report = run_worker(
            [good, bad],
            store,
            worker_id="w",
            max_attempts=3,
            clock=_Clock(),
            heartbeat_interval=1000.0,
            sleep=delays.append,
            rng=lambda: 0.5,  # jitter multiplier pinned to 1.0
        )
        assert report.parked == [store.scenario_key(bad)] and report.claims == 4
        assert "different solver configuration" in store.entry(bad)["error"]
        assert store.entry(good)["status"] == "completed"
        # one backoff after each non-final failed attempt, doubling
        assert delays == [lease_module.FAILURE_BACKOFF, 2 * lease_module.FAILURE_BACKOFF]

    def test_a_group_is_worked_in_its_longest_members_place(self, store_url_for):
        # longest-first: the lone wider economy is claimed before the pair
        store = ResultsStore.open(store_url_for("mem"))
        pair = [_tiny_solve_spec(f"p{i}", tau_labor=0.1 + 0.1 * i) for i in range(2)]
        wide = _other_topology(_tiny_solve_spec("wide"))
        assert wide.estimated_cost() > pair[0].estimated_cost()
        lines: list = []
        run_worker(
            [pair[0], pair[1], wide],
            store,
            worker_id="w",
            clock=_Clock(),
            heartbeat_interval=1000.0,
            progress=lines.append,
        )
        claims = [line.split()[1] for line in lines if line.startswith("claim ")]
        assert claims == ["wide", "p0", "p1"]

    def test_a_drain_builds_each_model_once_across_a_rescan(self, store_url_for, monkeypatch):
        # grouping reads signatures without building models: each spec's
        # model is built once, by its solve, also when a rescan regroups it
        built: list = []
        real = ScenarioSpec.build_model

        def counting(spec):
            built.append(spec.name)
            return real(spec)

        monkeypatch.setattr(ScenarioSpec, "build_model", counting)
        store = ResultsStore.open(store_url_for("mem"))
        specs = [_tiny_solve_spec(f"m{i}", tau_labor=0.1 + 0.05 * i) for i in range(3)]
        clock = _Clock()
        # a peer holds the last one: the first pass solves the other two,
        # then the drain rescans until the peer's lease expires and steals it
        assert _manager(store, "peer", clock, ttl=5.0).try_claim(specs[2]) is not None
        waits: list = []

        def sleep(seconds):
            waits.append(seconds)
            clock.advance(10.0)

        report = run_worker(
            specs,
            store,
            worker_id="w",
            clock=clock,
            sleep=sleep,
            heartbeat_interval=1000.0,
        )
        assert sorted(report.completed) == sorted(store.scenario_key(s) for s in specs)
        assert report.steals == 1 and len(waits) == 1  # the rescan happened
        assert sorted(built) == ["m0", "m1", "m2"]

    @pytest.mark.parametrize(
        "rank, members, claims, stacks",
        [
            (0, 5, ["s0", "s1", "s2", "s3", "s4"], [3, 2]),  # half, rounded up, then the rest
            (1, 4, ["s2", "s3", "s0", "s1"], [2, 2]),  # the second drain starts at share two
        ],
    )
    def test_drains_started_together_each_stack_their_share(
        self, store_url_for, rank, members, claims, stacks
    ):
        # one of two drains started together on a same-topology suite
        # stacks its share of the group first, then what is still free
        specs = [_tiny_solve_spec(f"s{i}", tau_labor=0.05 + 0.05 * i) for i in range(members)]
        store = ResultsStore.open(store_url_for("mem"))
        lines: list = []
        lease_module._drain(
            specs,
            store,
            worker_id="w",
            clock=_Clock(),
            heartbeat_interval=1000.0,
            progress=lines.append,
            rank=rank,
            drains=2,
        )
        steps = [line.split()[:2] for line in lines if line.startswith(("claim ", "done "))]
        expected = [kind for size in stacks for kind in ["claim"] * size + ["done"] * size]
        assert [kind for kind, _name in steps] == expected
        assert [name for kind, name in steps if kind == "claim"] == claims
        assert all(line.endswith("(batched)") for line in lines if line.startswith("claim "))

    def test_thread_drains_commit_each_scenario_once(self, store_url_for, monkeypatch):
        # two drains in one process split one same-topology suite through
        # leases; whatever group each stacks, each spec's model is built
        # once in all and the bits are the solo solve's
        built: list = []
        real = ScenarioSpec.build_model

        def counting(spec):
            built.append(spec.name)
            return real(spec)

        monkeypatch.setattr(ScenarioSpec, "build_model", counting)
        specs = [_tiny_solve_spec(f"t{i}", tau_labor=0.05 + 0.05 * i) for i in range(4)]
        store = ResultsStore.open(store_url_for("mem"))
        report = run_suite(ScenarioSuite("pairs", specs), store, executor="threads", num_workers=2)
        assert report.count("completed") == 4
        assert sorted(built) == ["t0", "t1", "t2", "t3"]
        monkeypatch.undo()
        logged = [record["spec_hash"] for record in store.log_records()]
        assert sorted(logged) == sorted(spec.content_hash() for spec in specs)
        started = [e["scenario"] for e in store.events() if e["kind"] == "solve-started"]
        assert sorted(started) == sorted(store.scenario_key(spec) for spec in specs)
        for spec in specs:
            solo = TimeIterationSolver(spec.build_model(), spec.build_config()).solve()
            result = store.load_result(spec)
            assert result.iterations == solo.iterations
            assert np.array_equal(result.error_history(), solo.error_history())
            for got, want in zip(result.policy, solo.policy):
                assert np.array_equal(got.interpolant.surplus, want.interpolant.surplus)


# --------------------------------------------------------------------------- #
# what a drained unit costs: one hash per spec, event bytes linear in units
# --------------------------------------------------------------------------- #
def _micro_specs(count: int) -> list:
    return [
        ScenarioSpec(
            f"micro-{i}", kind="table1", params={"dim": 2, "levels": [2], "num_states": 1 + i}
        )
        for i in range(count)
    ]


class TestDrainCost:
    def test_a_drain_hashes_each_spec_exactly_once(self, store_url_for, monkeypatch):
        import hashlib
        import types

        from repro.scenarios import spec as spec_module

        digests: list = []

        def counting_sha256(data):
            digests.append(len(data))
            return hashlib.sha256(data)

        monkeypatch.setattr(spec_module, "hashlib", types.SimpleNamespace(sha256=counting_sha256))
        specs = _micro_specs(50)
        backend = FaultInjectingBackend(backend_from_url(store_url_for("mem")))  # for .ops
        store = ResultsStore(backend)
        report = run_worker(specs, store, worker_id="hash-once")
        assert report.claims == 50 and not report.parked
        assert all(store.entry(spec)["status"] == "completed" for spec in specs)
        assert len(digests) == 50
        assert sum(op == "put" and key.endswith("/spec.json") for op, key in backend.ops) == 50

    def test_failed_and_interrupted_entries_keep_their_spec_put_once(self, store_url_for):
        backend = FaultInjectingBackend(backend_from_url(store_url_for("mem")))
        store = ResultsStore(backend)
        specs = [_payload_spec(0), _broken_spec(), _tiny_solve_spec()]
        entries = solve_batch_and_commit(specs, store, interrupt_after=1)
        assert [e["status"] for e in entries] == ["completed", "failed", "interrupted"]
        for spec in specs:
            assert backend.ops.count(("put", store.spec_key(spec))) == 1
            assert store.load_spec(spec) == spec  # what `diff` reads on any entry

    def test_event_bytes_put_grow_linearly_with_units_drained(self, store_url_for):
        def event_bytes_put(units: int) -> int:
            store = ResultsStore.open(store_url_for("mem", name=f"linear-{units}"))
            real_put, sizes = store.backend.put, []

            def counting_put(key, data):
                if key.startswith("events/"):
                    sizes.append(len(data))
                return real_put(key, data)

            store.backend.put = counting_put
            report = run_worker(_micro_specs(units), store, worker_id="linear")
            assert report.claims == units and len(store.events()) == 3 * units
            return sum(sizes)

        # re-putting one ever-growing log made this ratio ~4
        assert event_bytes_put(300) <= 2.3 * event_bytes_put(150)


@contextlib.contextmanager
def _recorded_ops(backend):
    """Record ``(op, key)`` of every public object op on one backend instance
    while the block runs; the put of a ``commits/`` object is the unit's
    ``append_commit``."""
    ops: list = []
    names = ("get", "put", "exists", "delete", "list", "mtime")
    originals = {name: getattr(backend, name) for name in names}

    def recording(name):
        def op(key, *args, **kwargs):
            commit = name == "put" and key.startswith("commits/")
            ops.append(("append_commit", "commits/") if commit else (name, key))
            return originals[name](key, *args, **kwargs)

        return op

    for name in names:
        setattr(backend, name, recording(name))
    try:
        yield ops
    finally:
        for name in names:
            delattr(backend, name)


class TestUnitOps:
    """What a drained unit costs the backend, op by op — and nothing else.

    A scan pass reads the ``leases/`` listing and the commit log once each,
    so a pending unit costs the scan nothing of its own and a completed one
    the ``exists`` of its result."""

    WORK = [
        ("get", "entry.json"),  # a peer may have committed it since the scan
        ("get", "lease.json"),
        ("put", "lease.json"),
        ("get", "lease.json"),  # the claim's read-back
        ("get", "entry.json"),  # ...and, under the lease, whether a peer finished it meanwhile
        ("put", "events"),  # `claimed`, carrying out the previous unit's closing events
        ("put", "spec.json"),
        ("put", "payload.json"),
        ("put", "entry.json"),
        ("append_commit", "commits/"),
        ("get", "lease.json"),  # release verifies the holder
        ("delete", "lease.json"),
    ]

    @staticmethod
    def _per_unit(ops, store, specs):
        """The recorded ops that belong to a unit — on a key carrying its
        hash, an event put, a commit — as ``(unit or None, (op, what))``."""
        unit_of = {store.scenario_key(spec): i for i, spec in enumerate(specs)}
        out = []
        for op, key in ops:
            hashes = [part for part in key.split("/") if part in unit_of]
            if hashes:
                out.append((unit_of[hashes[0]], (op, key.rsplit("/", 1)[-1])))
            elif (op, key.split("/")[0]) == ("put", "events"):
                out.append((None, (op, "events")))
            elif op == "append_commit":
                out.append((None, (op, key)))
        return out

    def test_a_first_try_unit_and_an_already_completed_one(self, store_url_for):
        store = ResultsStore.open(store_url_for("mem"))
        specs = _micro_specs(3)
        with _recorded_ops(store.backend) as ops:
            report = run_worker(specs, store, worker_id="w1")
        assert len(report.completed) == 3
        seen = self._per_unit(ops, store, specs)
        # the scan pass touches no unit's keys; then each is worked in turn
        assert [what for _unit, what in seen] == self.WORK * 3 + [("put", "events")]
        # ... one unit per block of 12, each unit once
        blocks = [{unit for unit, _what in seen[i : i + 12]} - {None} for i in (0, 12, 24)]
        assert sorted(blocks, key=min) == [{0}, {1}, {2}]
        # one scan pass: the drained suite ends the loop before a second listing
        assert ops.count(("list", "leases/")) == 1
        # 3 event puts for 3 units + the exit flush of the last one's committed/released
        kinds = [e["kind"] for e in store.events()]
        assert kinds == ["claimed", "committed", "released"] * 3

        with _recorded_ops(store.backend) as ops:
            again = run_worker(specs, store, worker_id="w2")
        assert again.claims == 0 and len(again.already_done) == 3
        seen = self._per_unit(ops, store, specs)
        assert [what for _unit, what in seen] == [("exists", "payload.json")] * 3
        assert ops.count(("list", "leases/")) == 1
        assert not any(op in ("put", "delete") for op, _key in ops)

    def test_retry_parked_on_a_clean_store_deletes_nothing(self, store_url_for):
        store = ResultsStore.open(store_url_for("mem"))
        specs = _micro_specs(3)
        with _recorded_ops(store.backend) as ops:
            report = run_worker(specs, store, worker_id="w1", retry_parked=True)
        assert len(report.completed) == 3
        # the unit's own lease is all a first-try success deletes
        assert [key for op, key in ops if op == "delete"] == [store.lease_key(s) for s in specs]
        with _recorded_ops(store.backend) as ops:
            run_worker(specs, store, worker_id="w2", retry_parked=True)
        assert not [key for op, key in ops if op == "delete"]

    def test_a_commit_missing_from_the_log_is_found_by_the_entry_read(self, store_url_for):
        # the scan reads the log only, so it sees this unit pending; the
        # entry read before the claim books it done.  Without that read
        # try_claim would find the entry complete and give the lease back on
        # every pass, and the drain would wait for a peer forever
        store = ResultsStore.open(store_url_for("mem"))
        [spec] = _micro_specs(1)
        run_worker([spec], store, worker_id="w1")
        store.backend.clear_commit_log()

        def no_wait(seconds):
            raise AssertionError(f"the drain waited {seconds}s for a finished unit")

        again = run_worker([spec], store, worker_id="w2", sleep=no_wait)
        assert again.claims == 0 and again.already_done == [store.scenario_key(spec)]

    def test_success_after_a_recorded_failure_clears_the_budget(self, store_url_for, monkeypatch):
        from repro.experiments import table1

        real_adapter, calls = table1.run_scenario, []

        def flaky(params):
            calls.append(params)
            if len(calls) == 1:
                raise RuntimeError("first attempt fails")
            return real_adapter(params)

        monkeypatch.setattr(table1, "run_scenario", flaky)
        store = ResultsStore.open(store_url_for("mem"))
        [spec] = _micro_specs(1)
        with _recorded_ops(store.backend) as ops:
            report = run_worker([spec], store, worker_id="w1", sleep=lambda seconds: None)
        assert report.claims == 2 and len(report.completed) == 1
        attempts, parked = store.attempts_key(spec), store.parked_key(spec)
        assert ops.count(("put", attempts)) == 1
        # the second attempt read a (failed) entry before it claimed: it clears
        assert ops.count(("delete", attempts)) == ops.count(("delete", parked)) == 1
        assert not store.backend.exists(attempts)

    def test_a_peer_failing_between_our_entry_read_and_our_claim_leaves_a_stray_count(
        self, store_url_for
    ):
        # the one window of "no entry read, so nothing to clear": benign,
        # because the stray object sits beside a *completed* entry and the
        # scan tests completion first
        backend = FaultInjectingBackend(backend_from_url(store_url_for("mem")))
        store = ResultsStore(backend)
        [spec] = _micro_specs(1)

        def peer_fails_and_releases(inner, op, key):
            peer = ResultsStore(inner)
            peer.save_spec(spec)
            peer.commit_entry(peer.failure_entry(spec, "failed", 0.1, "boom"))
            LeaseManager(peer, "peer").record_failure(spec, "boom")

        backend.add_rule(
            op="get", substring="/lease.json", action="call", callback=peer_fails_and_releases
        )
        report = run_worker([spec], store, worker_id="w1")
        assert len(report.completed) == 1
        assert store.entry(spec)["status"] == "completed"
        assert store.backend.exists(store.attempts_key(spec))  # the stray count
        del backend.ops[:]
        late = run_worker([spec], store, worker_id="w2")
        assert late.claims == 0 and late.already_done == [store.scenario_key(spec)]
        assert not any("attempts.json" in key for _op, key in backend.ops)  # never consulted
        assert store.leases() == [] and store.parked() == []


class TestEventContract:
    """An event is in the store no later than the moment its worker next
    claims, blocks or exits — read here through a *second* store handle."""

    @staticmethod
    def _stored(url) -> list:
        return [(e["kind"], e["scenario"]) for e in ResultsStore.open(url).events()]

    @pytest.mark.parametrize("crash", [False, True], ids=["returns", "raises"])
    def test_claimed_is_visible_in_its_own_unit_the_closing_events_in_the_next(
        self, store_url_for, monkeypatch, crash
    ):
        from repro.experiments import table1

        url = store_url_for("mem")
        store = ResultsStore.open(url)
        specs = _micro_specs(3)
        key_of = {spec.params["num_states"]: store.scenario_key(spec) for spec in specs}
        real_adapter, worked = table1.run_scenario, []

        def adapter(params):
            me = key_of[params["num_states"]]
            stored = self._stored(url)
            assert stored[-1] == ("claimed", me)  # who holds what, now
            closed = [(kind, key) for key in worked for kind in ("committed", "released")]
            assert [e for e in stored if e[0] != "claimed"] == closed
            worked.append(me)
            if crash and len(worked) == 3:
                raise InjectedCrash("killed inside the third unit")
            return real_adapter(params)

        monkeypatch.setattr(table1, "run_scenario", adapter)
        if crash:
            with pytest.raises(InjectedCrash):
                run_worker(specs, store, worker_id="w1")
            worked.pop()  # the third unit closed nothing
        else:
            run_worker(specs, store, worker_id="w1")
        assert len(worked) == (2 if crash else 3)
        closing = [e for e in self._stored(url) if e[0] != "claimed"]
        assert closing == [(kind, key) for key in worked for kind in ("committed", "released")]

    def test_the_sink_flushes_on_the_drain_clock(self, store_url_for):
        # every iteration of a paced drain takes a checkpoint interval on its
        # clock, longer than EVENT_FLUSH_SECONDS, so each is stored at once;
        # solve-started rides with the first, not in a put of its own
        store = ResultsStore.open(store_url_for("mem"))
        spec = _tiny_solve_spec("paced")
        real_put, flushed = store.backend.put, []

        def put(key, data):
            if key.startswith("events/"):
                kinds = [json.loads(line)["kind"] for line in data.decode().splitlines()]
                flushed.append(kinds[sum(map(len, flushed)) :])
            return real_put(key, data)

        store.backend.put = put
        clock = _Clock()
        run_worker(
            [spec],
            store,
            worker_id="w",
            clock=clock,
            events=_paced(clock),
            heartbeat_interval=1000.0,
        )
        iterations = store.entry(spec)["iterations"]
        assert flushed == [
            ["claimed"],
            ["solve-started", "iteration"],
            *[["iteration"]] * (iterations - 1),
            ["converged", "solve-finished", "committed", "released"],
        ]

    def test_nothing_is_pending_when_the_worker_sleeps(self, store_url_for):
        url = store_url_for("mem")
        store = ResultsStore.open(url)
        clock = _Clock()
        free, held, broken = _payload_spec(0), _payload_spec(1), _broken_spec()
        assert _manager(store, "peer", clock, ttl=10.0).try_claim(held) is not None
        events = EventRecorder(clock=clock)
        slept: list = []

        def sleep(seconds):
            # poll wait or retry backoff: everything emitted so far is stored
            assert len(self._stored(url)) == len(events.events)
            slept.append((seconds, events.events[-1].kind))
            if seconds == 0.25:
                clock.advance(10.1)  # the peer's lease expires during the poll wait

        report = run_worker(
            [free, held, broken],
            store,
            worker_id="w1",
            ttl=10.0,
            max_attempts=2,
            poll=0.25,
            rng=lambda: 0.5,
            events=events,
            clock=clock,
            sleep=sleep,
            heartbeat_interval=1000.0,
        )
        assert len(report.completed) == 2 and report.steals == 1 and len(report.parked) == 1
        # one backoff (after `retry` + `released`), then one poll wait with
        # only the peer's scenario left, then the steal
        assert slept == [(lease_module.FAILURE_BACKOFF, "released"), (0.25, "released")]
        assert len(self._stored(url)) == len(events.events)


# --------------------------------------------------------------------------- #
# events and the status CLI (satellite: structured lease/progress events)
# --------------------------------------------------------------------------- #
class TestEventsAndStatus:
    def test_worker_persists_structured_events(self, store_url_for):
        store = ResultsStore.open(store_url_for("file"))
        suite = ScenarioSuite("one", [_payload_spec(0)])
        run_worker(suite, store, worker_id="emitter", clock=_Clock())
        raw = store.backend.get("events/emitter.jsonl").decode()
        events = [json.loads(line) for line in raw.strip().splitlines()]
        assert [e["kind"] for e in events] == ["claimed", "committed", "released"]
        for event in events:
            assert event["worker"] == "emitter"
            assert event["scenario"] == store.scenario_key(_payload_spec(0))
            assert event["kind"] in LEASE_EVENT_KINDS

    def test_event_recorder_drops_broken_sinks(self):
        recorder = EventRecorder(clock=_Clock())
        seen: list = []

        def broken(event):
            raise RuntimeError("sink died")

        recorder.subscribe(broken)
        recorder.subscribe(seen.append)
        recorder.emit("claimed", "w1", "abc")
        recorder.emit("committed", "w1", "abc")
        assert len(recorder.events) == 2  # the recorder itself never fails
        assert len(seen) == 2  # healthy sinks keep receiving

    def test_status_cli_lists_workers_and_leases(self, store_url_for, capsys):
        url = store_url_for("file")
        store = ResultsStore.open(url)
        spec = _payload_spec(0)
        m = LeaseManager(store, "fleet-worker-1", ttl=60.0)
        assert m.try_claim(spec) is not None
        assert cli_main(["status", "--store", url]) == 0
        out = capsys.readouterr().out
        assert "fleet-worker-1" in out
        assert store.scenario_key(spec) in out
        # machine-readable form round-trips
        assert cli_main(["status", "--store", url, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["leases"][0]["worker"] == "fleet-worker-1"

    def test_work_cli_drains_a_suite(self, store_url_for, capsys):
        url = store_url_for("file")
        code = cli_main(
            [
                "work",
                "fleet",
                "--store",
                url,
                "--ttl",
                "30",
                "--max-claims",
                "2",
                "--worker-id",
                "cli-worker",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cli-worker" in out or "claim" in out
        store = ResultsStore.open(url)
        completed = [
            e for e in store.index().values() if e["status"] == "completed"
        ]
        assert len(completed) == 2  # the claim budget
        assert store.leases() == []

"""Cooperative claim/lease protocol: the one way a suite is drained.

Any number of ``repro-scenarios work --store URL`` processes — on one host
or many — drain one scenario suite against one shared store, coordinating
*only* through the :class:`~repro.scenarios.backends.StorageBackend`
object API they already use for results.  No lock server, no queue
broker: the protocol needs exactly the contract's whole-object atomic
``put``/``get``/``delete``.  ``repro-scenarios run`` is the same drain:
:func:`~repro.scenarios.runner.run_suite` hosts one per executor worker.

A drain scans the suite once per pass — one ``leases/`` listing and one
commit-log read — skips what is complete or parked, and works the rest
longest-first (:func:`schedule_longest_first`), its solve scenarios
grouped by :func:`~repro.scenarios.batching.topology_signature` so that
each group iterates stacked.

Protocol
--------
A worker claims scenario ``<hash16>`` by putting
``leases/<hash16>/lease.json`` — worker id, epoch counter, acquired and
renewed timestamps, TTL — and *reading it back*: on a plain object store
two racing claimants can both put, but last-writer-wins means at most one
read-back shows the reader's own (worker, epoch) pair, which demotes the
race to the rare window between a loser's put and the winner's.  Even a
genuine double-claim (both read back before the other's put lands) is
**safe, not just unlikely**: results are content-addressed and committed
through the store's idempotent, no-downgrade ``commit_entry``, so two
workers solving the same scenario commit the same bytes — the protocol
only wastes the duplicated compute, and the loser's next heartbeat sees
the foreign (worker, epoch) and abandons via :class:`LeaseLost`.

A worker's one background :class:`LeaseHeartbeat` thread renews every
lease it holds once per TTL/3.  Peers treat a lease whose ``renewed_at``
is older than its TTL (by the *peer's* clock) as expired and steal it
with an epoch bump; the thief then resumes from whatever checkpoint the
dead worker last wrote, or from ``p^0`` when the victim died inside its
first checkpoint interval (steal-then-resume, bit-exact either way by the
checkpoint contract).  Expiry compares a peer timestamp against an owner
timestamp, so clock skew shifts *when* a dead worker's lease becomes
stealable (skew + TTL) but can never make a *healthy* lease stealable by
a slow-clocked peer — its ``now - renewed_at`` only shrinks.

Failure handling:

* **Crash-safe release ordering** — a finishing worker commits the entry
  *first* and deletes its lease *second*.  Crashing between the two
  leaves a lease on a completed scenario; any peer's pending scan heals
  that (checks the entry is complete, waits out the TTL, deletes the
  lease) so a drained suite ends with zero lease objects.
* **Graceful degradation** — the backend's object operations absorb
  transient storage errors themselves (bounded retry + backoff/jitter,
  :mod:`repro.scenarios.backends.retry`), so the protocol calls them
  plainly and one blip is a stall, not a spurious abandon.  A worker
  whose renewals keep failing past its own TTL deadline *stops solving
  and abandons* rather than split-brain: by then peers may legitimately
  consider the lease expired.
* **Retry budget + parking** — failed scenarios are retried after a
  jittered exponential backoff (:data:`FAILURE_BACKOFF` seconds before
  the first retry, doubling); after ``max_attempts`` recorded failures (shared
  via ``leases/<hash16>/attempts.json``, last-writer-wins — an undercount
  merely buys an extra attempt) the scenario is *parked*
  (``leases/<hash16>/parked.json``) so a permanently broken spec cannot
  spin the fleet forever; :func:`unpark` (``--retry-parked``, and every
  ``run``) clears what the ``leases/`` listing shows.

Every protocol step emits a structured :class:`~repro.parallel.tracing.Event`
(``claimed``/``stolen``/``heartbeat-missed``/...), mirrored to ``events/<worker_id>.jsonl``
for ``repro-scenarios status`` by the time its worker next claims, blocks or exits.
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import threading
import time
import uuid
from collections import defaultdict
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.parallel.tracing import EventRecorder
from repro.scenarios.backends.base import decode_object, encode_object
from repro.scenarios.backends.retry import backoff
from repro.scenarios.batching import partition_by_topology, solve_batch_and_commit
from repro.scenarios.checkpoint import SolveAbandoned
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import ResultsStore, StoreEventSink, record_wall_times
from repro.utils.logging import get_logger

__all__ = [
    "DEFAULT_TTL",
    "DEFAULT_MAX_ATTEMPTS",
    "Lease",
    "LeaseLost",
    "LeaseManager",
    "HeldLease",
    "LeaseHeartbeat",
    "WorkReport",
    "run_worker",
    "default_worker_id",
    "schedule_longest_first",
]

logger = get_logger("scenarios.lease")

#: default lease time-to-live in seconds.  Renewals run every TTL/3, so a
#: lease survives two missed heartbeats; a dead worker's scenario is
#: stealable ~TTL after its last renewal.
DEFAULT_TTL = 30.0


def default_ttl() -> float:
    """Always :data:`DEFAULT_TTL`: no environment variable sets the TTL
    (benchmarks/ledger/run.py, frozen, still records it)."""
    return DEFAULT_TTL


#: recorded failures before a scenario is parked as permanently failing
DEFAULT_MAX_ATTEMPTS = 3

#: seconds a drain waits (before jitter) after a scenario's first failed
#: attempt; each further one doubles it (:func:`repro.scenarios.backends.retry.backoff`)
FAILURE_BACKOFF = 0.5


class LeaseLost(SolveAbandoned):
    """This worker's lease was stolen, superseded or could not be renewed.

    Subclasses :class:`SolveAbandoned`, so a heartbeat-driven abort
    surfaces through the solver's checkpoint hook with the same
    propagate-uncommitted semantics the runner already honours.
    """


def default_worker_id() -> str:
    """``<host>-<pid>-<rand>`` — unique per call, readable in listings."""
    host = platform.node().split(".")[0].replace("/", "-") or "worker"
    return f"{host}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def schedule_longest_first(
    specs: Sequence[ScenarioSpec], wall_times: Mapping[str, float]
) -> list[ScenarioSpec]:
    """Order specs by expected wall time, longest first: the order a drain claims in.

    The same proportional-load idea as the paper's state-space
    partitioning: claiming the longest tasks first minimises the makespan
    tail when the suite is wider than the fleet.

    ``wall_times`` maps spec content hash -> recorded seconds (what
    :func:`~repro.scenarios.store.record_wall_times` reads off the commit
    records).  Hashes the store has never timed fall back to
    :meth:`ScenarioSpec.estimated_cost`; when at least one recorded time
    exists, heuristic costs are rescaled into pseudo-seconds with the
    median seconds-per-cost-unit of the recorded specs, so the two
    populations sort on one comparable axis.  This is the classic LPT
    (longest-processing-time) list-scheduling order; the sort is stable, so
    ties keep suite order and schedules are deterministic.
    """
    costs = [spec.estimated_cost() for spec in specs]
    recorded = [
        (wall_times[spec.content_hash()], cost)
        for spec, cost in zip(specs, costs)
        if spec.content_hash() in wall_times
    ]
    scale = (
        statistics.median(wall / cost for wall, cost in recorded if cost > 0)
        if any(cost > 0 for _, cost in recorded)
        else None
    )

    def expected_seconds(spec: ScenarioSpec, cost: float) -> float:
        wall = wall_times.get(spec.content_hash())
        if wall is not None:
            return float(wall)
        return float(cost * scale) if scale is not None else float(cost)

    ranked = sorted(zip(specs, costs), key=lambda pair: -expected_seconds(*pair))
    return [spec for spec, _ in ranked]


@dataclass(frozen=True)
class Lease:
    """One claim on one scenario, as stored in ``leases/<hash16>/lease.json``."""

    scenario: str  # the hash16 scenario key
    worker: str
    epoch: int  # bumped on every steal; (worker, epoch) identifies one holder
    acquired_at: float
    renewed_at: float
    ttl: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "worker": self.worker,
            "epoch": int(self.epoch),
            "acquired_at": float(self.acquired_at),
            "renewed_at": float(self.renewed_at),
            "ttl": float(self.ttl),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Lease":
        return cls(
            scenario=str(data["scenario"]),
            worker=str(data["worker"]),
            epoch=int(data["epoch"]),
            acquired_at=float(data["acquired_at"]),
            renewed_at=float(data["renewed_at"]),
            ttl=float(data["ttl"]),
        )

    def same_holder(self, other: "Lease | None") -> bool:
        return (
            other is not None
            and other.worker == self.worker
            and other.epoch == self.epoch
        )

    def age(self, now: float) -> float:
        return now - self.renewed_at

    def expired(self, now: float) -> bool:
        """Whether a peer reading this lease at ``now`` may steal it."""
        return self.age(now) > self.ttl


class LeaseManager:
    """Claim/renew/release/steal operations of one worker against one store.

    All timestamps compare the *caller's* ``clock`` against timestamps
    written by other workers' clocks — see the module docstring for why
    that is skew-tolerant.  ``clock`` is injectable so the fault-injection
    tests drive the protocol deterministically.
    """

    def __init__(
        self,
        store: ResultsStore,
        worker_id: str,
        ttl: float = DEFAULT_TTL,
        clock: Callable[[], float] = time.time,
        events: EventRecorder | None = None,
    ) -> None:
        if ttl <= 0:
            raise ValueError("ttl must be > 0")
        self.store = store
        self.worker_id = str(worker_id)
        self.ttl = float(ttl)
        self.clock = clock
        self.events = events

    # ------------------------------------------------------------------ #
    def _emit(self, kind: str, scenario: str = "", **detail: Any) -> None:
        if self.events is not None:
            self.events.emit(kind, self.worker_id, scenario, **detail)

    def read(self, spec_or_hash: ScenarioSpec | str) -> Lease | None:
        """The current lease on a scenario, or ``None`` (absent/torn)."""
        try:
            raw = self.store.backend.get(self.store.lease_key(spec_or_hash))
        except FileNotFoundError:
            return None
        try:
            return Lease.from_dict(decode_object(raw) or {})
        except (ValueError, KeyError, TypeError):
            # a torn/garbled lease protects nobody; claimable immediately
            return None

    def _put(self, lease: Lease) -> None:
        self.store.backend.put(self.store.lease_key(lease.scenario), encode_object(lease.to_dict()))

    # ------------------------------------------------------------------ #
    # the protocol
    # ------------------------------------------------------------------ #
    def try_claim(self, spec_or_hash: ScenarioSpec | str) -> Lease | None:
        """Claim a scenario; returns the held lease, or ``None``.

        ``None`` means the scenario is validly held by a live peer, this
        worker lost the last-writer-wins race on the put (the read-back
        showed a foreign (worker, epoch)), or it is already complete.  A
        steal of an expired lease bumps the epoch, which is what
        invalidates the previous holder's renewals.

        Completion is read under the new lease, before the claim is
        announced: a holder commits before it releases, so a peer that
        finished the scenario after the caller last looked is seen here,
        and the lease is given back unannounced instead of the scenario
        being solved twice.
        """
        scenario = self.store.scenario_key(spec_or_hash)
        current = self.read(scenario)
        now = self.clock()
        if current is not None and not current.expired(now):
            return None
        epoch = 1 if current is None else current.epoch + 1
        lease = Lease(
            scenario=scenario,
            worker=self.worker_id,
            epoch=epoch,
            acquired_at=now,
            renewed_at=now,
            ttl=self.ttl,
        )
        self._put(lease)
        if not lease.same_holder(self.read(scenario)):
            return None  # a racing claimant overwrote us; they own it
        if self.store.has(scenario):
            self.store.backend.delete(self.store.lease_key(scenario))
            return None
        if current is None:
            self._emit("claimed", scenario, epoch=epoch)
        else:
            self._emit(
                "stolen",
                scenario,
                epoch=epoch,
                previous_worker=current.worker,
                stale_for=now - current.renewed_at,
            )
        return lease

    def renew(self, lease: Lease) -> Lease:
        """Refresh ``renewed_at``; raises :class:`LeaseLost` when superseded."""
        current = self.read(lease.scenario)
        if not lease.same_holder(current):
            raise LeaseLost(
                f"lease on {lease.scenario} now held by "
                f"{current.worker!r} epoch {current.epoch}"
                if current is not None
                else f"lease on {lease.scenario} vanished"
            )
        renewed = replace(lease, renewed_at=self.clock())
        self._put(renewed)
        if not renewed.same_holder(self.read(lease.scenario)):
            raise LeaseLost(f"lease on {lease.scenario} overwritten during renewal")
        self._emit("heartbeat", lease.scenario, epoch=lease.epoch)
        return renewed

    def release(self, lease: Lease) -> bool:
        """Delete the lease if this worker still holds it (read-verify first).

        Callers must have committed the scenario's entry *before* calling
        this — commit-then-release is what makes a crash in between
        recoverable (the expiry path heals the leftover lease).
        """
        if not lease.same_holder(self.read(lease.scenario)):
            return False  # stolen meanwhile; the lease is not ours to delete
        self.store.backend.delete(self.store.lease_key(lease.scenario))
        self._emit("released", lease.scenario, epoch=lease.epoch)
        return True

    def heal_completed(self, spec_or_hash: ScenarioSpec | str) -> bool:
        """Remove a leftover lease from a *completed* scenario.

        Heals the crash window between commit and release: once the
        leftover lease has expired (or is this worker's own), any peer
        scanning for pending work deletes it, so a fully drained suite
        converges to zero lease objects.  The caller checks completion;
        this only enforces the expiry/ownership rule.
        """
        scenario = self.store.scenario_key(spec_or_hash)
        current = self.read(scenario)
        if current is None:
            return False
        if current.worker != self.worker_id and not current.expired(self.clock()):
            return False  # possibly a live duplicate-solver; let it finish
        self.store.backend.delete(self.store.lease_key(scenario))
        self._emit("healed", scenario, previous_worker=current.worker)
        return True

    # ------------------------------------------------------------------ #
    # retry budget and parking
    # ------------------------------------------------------------------ #
    def attempts(self, spec_or_hash: ScenarioSpec | str) -> int:
        try:
            record = decode_object(self.store.backend.get(self.store.attempts_key(spec_or_hash)))
            return int((record or {}).get("count", 0))
        except (FileNotFoundError, ValueError, TypeError):
            return 0

    def record_failure(self, spec_or_hash: ScenarioSpec | str, error: str) -> int:
        """Bump the shared failure count; returns the new count.

        Read-modify-write without CAS: two workers recording one failure
        each may write the same count (an undercount), which merely buys
        the scenario one extra attempt — the budget stays bounded.
        """
        scenario = self.store.scenario_key(spec_or_hash)
        count = self.attempts(scenario) + 1
        key = self.store.attempts_key(scenario)
        record: dict[str, Any] = {
            "count": count,
            "last_error": str(error),
            "last_worker": self.worker_id,
            "updated_at": float(self.clock()),
        }
        self.store.backend.put(key, encode_object(record))
        return count

    def park(self, spec_or_hash: ScenarioSpec | str, attempts: int, error: str) -> None:
        """Mark a scenario permanently failing; workers stop claiming it."""
        scenario = self.store.scenario_key(spec_or_hash)
        key = self.store.parked_key(scenario)
        record: dict[str, Any] = {
            "worker": self.worker_id,
            "attempts": int(attempts),
            "error": str(error),
            "parked_at": float(self.clock()),
        }
        self.store.backend.put(key, encode_object(record))
        self._emit("parked", scenario, attempts=attempts, error=str(error))

    def clear_attempts(self, spec_or_hash: ScenarioSpec | str) -> None:
        """Drop the failure count and any parking (on success after a failure).

        Both are written only after a non-completed entry was committed,
        so a worker that read *no* entry before it claimed skips this on
        success.  One benign window: a peer fails and releases between
        that read and the claim, and its ``attempts.json`` (``parked.json``
        on a last attempt) stays beside a *completed* entry — which the
        scan never consults, because completed entries are tested first.
        """
        for key in (
            self.store.attempts_key(spec_or_hash),
            self.store.parked_key(spec_or_hash),
        ):
            self.store.backend.delete(key)


def _listing(store: ResultsStore) -> defaultdict[str, set[str]]:
    """Object name (``lease.json``, ``attempts.json``, ``parked.json``) -> the
    hash16s that have one under ``leases/<hash16>/``: one listing, no reads."""
    held: defaultdict[str, set[str]] = defaultdict(set)
    for key in store.backend.list(f"{store.LEASE_PREFIX}/"):
        _prefix, scenario, name = key.split("/", 2)
        held[name].add(scenario)
    return held


def unpark(store: ResultsStore, scenarios: Iterable[str]) -> None:
    """``--retry-parked``: drop the failure counts and parking of ``scenarios`` (hash16s).

    One ``leases/`` listing, then a delete per record it shows — none at
    all on a store where nothing failed.
    """
    held, wanted = _listing(store), set(scenarios)
    for name, key_of in (("attempts.json", store.attempts_key), ("parked.json", store.parked_key)):
        for scenario in held[name] & wanted:
            store.backend.delete(key_of(scenario))


@dataclass(eq=False)
class HeldLease:
    """One lease under a :class:`LeaseHeartbeat`, as its holder sees it."""

    lease: Lease  # replaced by each successful renewal
    last_ok: float  # manager clock at the claim or the last successful renewal
    lost: bool = False

    def abort_requested(self) -> bool:
        return self.lost


class LeaseHeartbeat:
    """One worker's background renewal thread, for every lease it holds.

    Every ``interval`` (the manager's TTL/3) :meth:`tick` renews each lease
    between its :meth:`hold` and its :meth:`drop` once.  Two ways to lose
    one:

    * a renewal reads back a foreign (worker, epoch) — stolen or
      superseded — raising :class:`LeaseLost` immediately;
    * renewals keep *erroring* (store unreachable) past the lease's own
      TTL since the last success — by then peers may consider the lease
      expired, so continuing to solve would split-brain.

    Either way that lease's :meth:`HeldLease.abort_requested`, and no
    other's, flips to ``True``; the solve's checkpoint hook polls it each
    iteration and abandons uncommitted.  A renewal runs under the lock
    :meth:`hold` and :meth:`drop` take: once :meth:`drop` returns none is
    in flight or can start, so none can put the lease back after
    ``release`` deleted it.  Nothing here releases a lease — that is the
    owner's explicit, post-commit decision — and :meth:`tick` is all the
    daemon thread does, so tests drive renewals without the thread.
    """

    def __init__(self, manager: LeaseManager) -> None:
        self.manager = manager
        self.interval = manager.ttl / 3.0
        self._held: list[HeldLease] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{manager.worker_id}", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Stop renewing and join; every lease object stays in the store."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=10.0)

    def hold(self, lease: Lease) -> HeldLease:
        """Renew ``lease`` on every tick from now on (the first <= ``interval`` away)."""
        handle = HeldLease(lease, last_ok=self.manager.clock())
        with self._lock:
            self._held.append(handle)
        return handle

    def drop(self, handle: HeldLease) -> None:
        """Stop renewing; returns once no renewal of that lease is running."""
        with self._lock:
            self._held.remove(handle)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.tick()

    def tick(self) -> None:
        """Renew every held lease once."""
        with self._lock:
            for handle in self._held:
                if not handle.lost:
                    self._renew(handle)

    def _renew(self, handle: HeldLease) -> None:
        manager, scenario = self.manager, handle.lease.scenario
        try:
            handle.lease = manager.renew(handle.lease)
            handle.last_ok = manager.clock()
            return
        except LeaseLost as exc:
            detail: dict[str, Any] = {"reason": "lease-lost", "detail_msg": str(exc)}
        except Exception as exc:  # repro: allow[broad-except] -- store outage; keep renewing
            stale = manager.clock() - handle.last_ok
            logger.warning(
                "renewal of %s failed (%.1fs since last success): %s", scenario, stale, exc
            )
            if stale <= handle.lease.ttl:
                return
            # peers may already consider us dead; abandon, never
            # split-brain against a legitimate thief
            detail = {"reason": "renew-deadline-exceeded", "stale_for": stale}
        manager._emit("heartbeat-missed", scenario, **detail)
        handle.lost = True


@dataclass
class WorkReport:
    """What one :func:`run_worker` drain accomplished."""

    worker_id: str
    completed: list[str] = field(default_factory=list)  # hash16s this worker committed
    already_done: list[str] = field(default_factory=list)  # complete before we got there
    parked: list[str] = field(default_factory=list)
    claims: int = 0
    steals: int = 0
    abandoned: int = 0
    healed: int = 0
    events: EventRecorder | None = None

    def summary(self) -> str:
        parts = [
            f"{len(self.completed)} completed",
            f"{self.claims} claim(s)",
        ]
        if self.steals:
            parts.append(f"{self.steals} stolen")
        if self.abandoned:
            parts.append(f"{self.abandoned} abandoned")
        if self.parked:
            parts.append(f"{len(self.parked)} parked")
        if self.healed:
            parts.append(f"{self.healed} lease(s) healed")
        return f"worker {self.worker_id}: " + ", ".join(parts)


def run_worker(
    suite: Iterable[ScenarioSpec],
    store: ResultsStore | str,
    *,
    worker_id: str | None = None,
    ttl: float = DEFAULT_TTL,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    poll: float = 0.5,
    max_claims: int | None = None,
    retry_parked: bool = False,
    events: EventRecorder | None = None,
    clock: Callable[[], float] = time.time,
    sleep: Callable[[float], None] = time.sleep,
    rng: Callable[[], float] = random.random,
    progress: Callable[[str], object] | None = None,
) -> WorkReport:
    """Drain one suite cooperatively: claim -> solve -> commit -> release.

    The worker loops over the suite's unfinished scenarios longest-first
    (:func:`schedule_longest_first`, so expensive solves spread across the
    fleet early) in *groups*, claiming each
    member through :class:`LeaseManager` — one lease per scenario, all of
    them renewed by the one :class:`LeaseHeartbeat` thread this call starts
    and stops.  The claimed members of a group run through the one
    :func:`~repro.scenarios.batching.solve_batch_and_commit` path — which
    resumes from any checkpoint already in the store, including one left
    by a dead worker whose lease this one stole — with each held lease's
    ``abort_requested`` wired into that member's checkpoint hook: a member
    whose lease is lost is abandoned uncommitted while the rest keep
    solving.  Scenarios held by live peers are revisited every ``poll``
    seconds until the suite is fully drained (every scenario completed or
    parked), then the worker exits.

    A group is pending solve scenarios with one
    :func:`~repro.scenarios.batching.topology_signature` — one structure
    key and grid level, so only calibration scalars differ — up to a cap
    on the grid points one stack carries
    (:func:`~repro.scenarios.batching.partition_by_topology`); they
    iterate stacked, and everything else, adaptive and structural sweeps
    included, is a group of one.  A group is worked where its longest
    member comes in the longest-first order.  A member's bits do not
    depend on its group.  Each member's entry is
    committed the moment that member finishes; the group's leases are
    released when the group is done, so a worker killed mid-stack leaves
    the leases of its whole group until their TTL runs out.  Grouping
    builds no model: a claimed spec builds its model once, for its solve.

    ``clock``/``sleep``/``rng`` are injectable for the deterministic
    fault-injection tests (``clock`` times the leases *and* every member's
    checkpoint cadence); real fleets keep the defaults.  The heartbeat
    thread renews every ``ttl / 3`` seconds of real time.
    """
    return _drain(**locals()).report  # every argument above, passed on unchanged


def _drain(
    suite: Iterable[ScenarioSpec],
    store: ResultsStore | str,
    *,
    interrupt_after: int | None = None,
    worker_id: str | None = None,
    ttl: float = DEFAULT_TTL,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    poll: float = 0.5,
    max_claims: int | None = None,
    retry_parked: bool = False,
    events: EventRecorder | None = None,
    clock: Callable[[], float] = time.time,
    sleep: Callable[[float], None] = time.sleep,
    rng: Callable[[], float] = random.random,
    progress: Callable[[str], object] | None = None,
    claim_lock: AbstractContextManager[object] = nullcontext(),
    rank: int = 0,
    drains: int = 1,
) -> "_Drain":
    """:func:`run_worker`, returning the finished :class:`_Drain`; the drains
    :func:`~repro.scenarios.runner.run_suite` hosts also pass ``run
    --interrupt-after``, how many ``drains`` it starts together on the suite
    and this one's ``rank`` among them (from 0) and, when they share a
    process, one ``claim_lock``."""
    if not isinstance(store, ResultsStore):
        store = ResultsStore.open(store)
    worker_id = worker_id or default_worker_id()
    if events is None:
        events = EventRecorder(clock=clock)
    sink = StoreEventSink(store, worker_id, clock=clock)
    events.subscribe(sink)
    manager = LeaseManager(store, worker_id, ttl=ttl, clock=clock, events=events)
    report = WorkReport(worker_id=worker_id, events=events)

    # dedupe by scenario key: identical content is one unit of work
    specs: dict[str, ScenarioSpec] = {}
    for spec in suite:
        specs.setdefault(store.scenario_key(spec), spec)
    if retry_parked:
        unpark(store, specs)
    heartbeat = LeaseHeartbeat(manager)

    def pause(seconds: float) -> None:
        sink.flush()  # nothing stays buffered while the worker blocks
        sleep(seconds)

    drain = _Drain(
        store=store,
        manager=manager,
        heartbeat=heartbeat,
        report=report,
        events=events,
        say=progress if progress is not None else (lambda line: None),
        max_attempts=max_attempts,
        max_claims=max_claims,
        sleep=pause,
        rng=rng,
        interrupt_after=interrupt_after,
        claim_lock=claim_lock,
        rank=rank,
        drains=drains,
    )
    heartbeat.start()
    try:
        drain.run(specs, poll=poll)
        return drain
    finally:
        # also on InjectedCrash / KeyboardInterrupt: die like kill -9 would — stop
        # renewing, leave every lease and checkpoint for a peer to steal — then
        # persist the batched tail of the feed (kill -9 loses it; readers tolerate that)
        heartbeat.stop()
        sink.flush()


@dataclass
class _Drain:
    """One drain — a :func:`run_worker` call or one of the drains
    :func:`~repro.scenarios.runner.run_suite` hosts: what its scan loop and
    its claim routine share."""

    store: ResultsStore
    manager: LeaseManager
    heartbeat: LeaseHeartbeat
    report: WorkReport
    events: EventRecorder
    say: Callable[[str], object]
    max_attempts: int
    max_claims: int | None
    sleep: Callable[[float], None]
    rng: Callable[[], float]
    interrupt_after: int | None
    claim_lock: AbstractContextManager[object]
    #: this drain's rank among the ``drains`` its host started together on
    #: the suite: each claims its share of a group, starting at its rank
    rank: int = 0
    drains: int = 1
    done: set[str] = field(default_factory=set)
    listed: defaultdict[str, set[str]] = field(default_factory=lambda: defaultdict(set))
    #: hash16 -> (completed | skipped | interrupted | failed, its entry or commit
    #: record): how each scenario ended for this drain, which run_suite reports
    outcomes: dict[str, tuple[str, dict[str, Any]]] = field(default_factory=dict)

    def _claims_spent(self) -> bool:
        return self.max_claims is not None and self.report.claims >= self.max_claims

    def _already_done(self, scenario: str, entry: dict[str, Any]) -> None:
        """A peer completed it: heal the commit-then-crash window, count it once.

        An expired lease left on a completed scenario is deleted by whoever
        notices (:meth:`LeaseManager.heal_completed`, if this pass listed one).
        """
        if scenario in self.listed["lease.json"] and self.manager.heal_completed(scenario):
            self.report.healed += 1
        self.report.already_done.append(scenario)
        self.outcomes[scenario] = ("skipped", entry)
        self.done.add(scenario)

    def run(self, specs: dict[str, ScenarioSpec], *, poll: float) -> None:
        """Scan for unfinished scenarios, group them by topology, work the groups; until drained.

        A pass with work left lists ``leases/`` (parking) and reads the
        commit log (completion, wall times) once each; a commit missing
        from the log is caught by :meth:`work_group`'s entry read.
        """
        store, report = self.store, self.report
        while True:
            todo = {key: spec for key, spec in specs.items() if key not in self.done}
            if not todo:
                return
            self.listed = _listing(store)
            records = store.index_records()
            pending: list[ScenarioSpec] = []
            for scenario, spec in todo.items():
                record = records.get(spec.content_hash())
                if record and store.entry_is_complete(record):
                    self._already_done(scenario, record)
                elif scenario in self.listed["parked.json"]:
                    report.parked.append(scenario)
                    self.outcomes[scenario] = ("failed", record or {})
                    self.done.add(scenario)
                else:
                    pending.append(spec)
            if not pending:
                return

            pending = schedule_longest_first(pending, record_wall_times(records))
            units = partition_by_topology(pending, self.drains)
            # the r-th drain starts at the r-th longest unit, as list
            # scheduling deals the first units out, and no two race for one
            start = self.rank % len(units)
            progressed = False
            for group in units[start:] + units[:start]:
                if self._claims_spent():
                    self.say(f"worker {report.worker_id}: claim budget ({self.max_claims}) spent")
                    return
                progressed = self.work_group(group) or progressed
            if not progressed:
                # everything unfinished is held by live peers (or their leases
                # have not expired yet); wait out a poll interval and rescan
                self.sleep(max(poll, 0.01))

    def work_group(self, group: list[ScenarioSpec]) -> bool:
        """Claim, solve, commit and release one group; returns whether we progressed.

        The one claim -> heartbeat -> solve -> commit -> release/park/retry
        routine.  Every member gets its own lease, held under the worker's
        :class:`LeaseHeartbeat`; members a peer validly holds are simply
        left out.  Entries are committed per member inside
        :func:`~repro.scenarios.batching.solve_batch_and_commit` the moment
        each member finishes, so the commit-then-release ordering holds per
        member (the entry lands before this routine releases its lease).
        A member the ``interrupt_after`` hook killed is released and ends
        for this drain with no attempt recorded: its next run resumes it.
        """
        store, manager, report, say = self.store, self.manager, self.report, self.say
        worker_id = report.worker_id
        # key, spec and whether an earlier attempt left an entry, per claimed member
        claimed: list[tuple[str, ScenarioSpec, bool]] = []
        held: list[HeldLease] = []
        progressed = False
        for spec in group:
            scenario = store.scenario_key(spec)
            before = store.entry(scenario)
            if before and store.entry_is_complete(before):
                # a peer committed it since this pass's scan (or its commit
                # record is missing from the log): don't waste a claim (and
                # a re-solve) on a finished scenario
                self._already_done(scenario, before)
                progressed = True  # rescan immediately
                continue
            if self._claims_spent():
                break
            with self.claim_lock:
                lease = manager.try_claim(spec)
            if lease is None:
                continue  # validly held by a peer, lost the put race, or finished meanwhile
            report.claims += 1
            progressed = True
            stolen = lease.epoch > 1
            if stolen:
                report.steals += 1
            say(
                f"{'steal' if stolen else 'claim'} {spec.name} [{scenario}] "
                f"epoch={lease.epoch}{' (batched)' if len(group) > 1 else ''}"
            )
            held.append(self.heartbeat.hold(lease))
            claimed.append((scenario, spec, before is not None))
        if not claimed:
            return progressed
        try:
            entries = solve_batch_and_commit(
                [spec for _scenario, spec, _tried in claimed],
                store,
                interrupt_after=self.interrupt_after,
                aborts=[handle.abort_requested for handle in held],
                events=self.events,
                worker_id=worker_id,
                clock=manager.clock,
            )
        finally:
            # before any release below: a renewal landing after it would put the lease back
            for handle in held:
                self.heartbeat.drop(handle)
        for (scenario, spec, tried), handle, entry in zip(claimed, held, entries):
            if isinstance(entry, SolveAbandoned):
                # nothing committed; the new holder owns the scenario
                report.abandoned += 1
                self.events.emit("abandoned", worker_id, scenario, reason=str(entry))
                say(f"abandon {spec.name} [{scenario}]: {entry}")
            elif entry["status"] == "completed":
                self.events.emit(
                    "committed",
                    worker_id,
                    scenario,
                    wall_time=entry.get("wall_time", 0.0),
                    resumed=bool(entry.get("resumed", False)),
                )
                if tried:
                    manager.clear_attempts(scenario)
                manager.release(handle.lease)
                report.completed.append(scenario)
                self.outcomes[scenario] = ("completed", entry)
                self.done.add(scenario)
                say(f"done  {spec.name} [{scenario}] ({entry.get('wall_time', 0.0):.2f}s)")
            elif entry["status"] == "interrupted":
                manager.release(handle.lease)
                self.outcomes[scenario] = ("interrupted", entry)
                self.done.add(scenario)
                say(f"interrupted {spec.name} [{scenario}]")
            else:
                count = manager.record_failure(scenario, entry.get("error", entry["status"]))
                self.outcomes[scenario] = ("failed", entry)
                if count >= self.max_attempts:
                    manager.park(scenario, attempts=count, error=entry.get("error", ""))
                    report.parked.append(scenario)
                    self.done.add(scenario)
                    say(f"park  {spec.name} [{scenario}] after {count} attempt(s)")
                else:
                    self.events.emit("retry", worker_id, scenario, attempt=count)
                    say(f"retry {spec.name} [{scenario}] (attempt {count}/{self.max_attempts})")
                # release either way: commit-entry-then-release ordering
                # holds (the failed entry is committed), and holding the
                # lease through the backoff would only serialize the fleet
                manager.release(handle.lease)
                if count < self.max_attempts:
                    self.sleep(backoff(FAILURE_BACKOFF, count - 1, self.rng))
        return progressed

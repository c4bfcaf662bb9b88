"""Structured events: the observability primitive of solves and fleets.

The module records *point-in-time* structured :class:`Event` s — what the
scenario worker fleet emits its lease-protocol lifecycle through (``claimed``,
``stolen``, ``heartbeat-missed``, ``committed``, ...) and the solver
emits its per-iteration progress through (``solve-started``,
``iteration``, ``refined``, ``converged``, ``solve-finished``).  An
:class:`EventRecorder` collects them in order and fans each one out to
subscribed sinks (a progress printer, a store-backed event log), so any
observer can follow a long fleet run as it executes; ``repro-scenarios
status --follow`` tails the persisted feed live and ``repro-scenarios
report`` joins it with store entries into an HTML/markdown run report,
whose fleet timeline, busy time and utilization are the claim-to-outcome
holds it reads off the lease events.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Event",
    "EventRecorder",
    "LEASE_EVENT_KINDS",
    "SOLVE_EVENT_KINDS",
    "EVENT_KINDS",
    "SOLVER_TOTALS",
]

#: the lease-protocol lifecycle vocabulary the scenario worker fleet emits
LEASE_EVENT_KINDS = (
    "claimed",        # a fresh lease was acquired
    "stolen",         # an expired lease was taken over (epoch bump)
    "released",       # a lease was deleted by its owner
    "heartbeat",      # a successful background renewal
    "heartbeat-missed",  # renewal failed; the worker abandons the solve
    "committed",      # the scenario's entry was committed to the store
    "retry",          # a transient failure; the scenario re-enters the queue
    "parked",         # the per-scenario retry budget is exhausted
    "abandoned",      # the solve stopped because the lease was lost
    "healed",         # a stale lease on a completed scenario was removed
)

#: the solve-progress vocabulary the time-iteration driver emits: how far
#: along a claimed scenario's solve is, whether it is contracting, and
#: where the wall time goes (one ``iteration`` event per completed
#: iteration, carrying the iteration number, l∞/l2 policy change, grid
#: point count and per-iteration wall time)
SOLVE_EVENT_KINDS = (
    "solve-started",   # a solve began (detail: from which iteration; ``batched`` = in a stack)
    "iteration",       # one time-iteration step completed
    "refined",         # adaptive refinement grew the grids this iteration
    "converged",       # the convergence metric dropped below tolerance
    "solve-finished",  # the solve returned (converged or exhausted; ``solver``: SOLVER_TOTALS)
)

#: the per-solve point-solver totals ``solve-finished`` carries under
#: ``solver`` for a model that counts them (once per solve, never per
#: iteration): grid-point systems solved, those Newton left stalled (they
#: keep its best iterate; a saver on the borrowing floor is a root, not a
#: stall), the vectorised residual calls of the Newton runs the model took
#: part in and the number of those runs (one per iteration when a pass
#: solves all shock states in one batch)
SOLVER_TOTALS = ("rows", "stalled", "residual_calls", "newton_runs")

#: the full structured-event vocabulary (lease protocol + solve progress)
EVENT_KINDS = LEASE_EVENT_KINDS + SOLVE_EVENT_KINDS


#: envelope fields of every serialized event; detail keys may not shadow them
_ENVELOPE_FIELDS = ("kind", "worker", "scenario", "timestamp")


@dataclass
class Event:
    """One structured point-in-time event (JSON-able via :meth:`to_dict`)."""

    kind: str
    worker: str
    scenario: str = ""  # spec content hash ("" for worker-level events)
    timestamp: float = 0.0
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # detail keys are flattened next to the envelope for readable
        # JSONL, so a detail key named like an envelope field would
        # silently overwrite it — namespace those under a ``detail_``
        # prefix instead (kept unique with extra underscores in the
        # pathological case where the prefixed name is taken too)
        out = {
            "kind": self.kind,
            "worker": self.worker,
            "scenario": self.scenario,
            "timestamp": self.timestamp,
        }
        for key, value in self.detail.items():
            if key in _ENVELOPE_FIELDS:
                key = f"detail_{key}"
                while key in self.detail or key in out:
                    key = f"detail_{key}"
            out[key] = value
        return out


@dataclass
class EventRecorder:
    """Collects :class:`Event` s in emission order and fans them out.

    Sinks subscribed via :meth:`subscribe` receive every event as it is
    emitted; a sink that raises is dropped from the fan-out for the rest
    of the run (observability must never take the worker down with it).

    :meth:`emit` is thread-safe: the lease-protocol heartbeat runs on a
    daemon thread and emits concurrently with the solve thread's progress
    events, so the event append *and* the sink fan-out are serialized
    under one lock — sinks observe a consistent total order and need no
    locking of their own.
    """

    events: list = field(default_factory=list)
    clock: "object" = field(default=time.time, repr=False)
    _sinks: list = field(default_factory=list, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def subscribe(self, sink) -> None:
        """Register ``sink(event)`` to receive every subsequent event."""
        with self._lock:
            self._sinks.append(sink)

    def emit(self, kind: str, worker: str, scenario: str = "", **detail) -> Event:
        event = Event(
            kind=kind,
            worker=str(worker),
            scenario=str(scenario),
            timestamp=float(self.clock()),
            detail=dict(detail),
        )
        with self._lock:
            self.events.append(event)
            for sink in list(self._sinks):
                try:
                    sink(event)
                except Exception:  # repro: allow[broad-except] -- drop broken sink, keep solving
                    self._sinks.remove(sink)
        return event

    def by_kind(self, kind: str) -> list:
        return [e for e in self.events if e.kind == kind]

    def workers(self) -> list:
        return sorted({e.worker for e in self.events})

"""The suite runner: ``repro-scenarios run`` as a host for the one drain.

``run_suite`` schedules nothing itself.  It runs the lease drain of
:mod:`repro.scenarios.lease` — what ``work`` runs — once in this thread
(``serial``) or ``num_workers`` times through an executor of
:mod:`repro.parallel.executor` (``processes`` reopens the store from its
URL, so ``mem://`` stores refuse it).  Each drain skips what the commit
log has completed, claims the rest longest-first under a lease (a
duplicate hash runs once; sibling drains split the suite) and commits its
own entries, so finished work outlives the parent.  A failure parks for
this run (``max_attempts=1``); every run first clears the suite's parked
records (:func:`repro.scenarios.lease.unpark`), so the next run retries
it.  An interrupted solve resumes from its checkpoint on the next run; a
completed one has had its checkpoint deleted by the commit path.  The
parent then reports one :class:`RunOutcome` per scenario from what the
drains returned, and touches the store no further.
"""

from __future__ import annotations

import threading
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field

from repro.parallel.executor import EXECUTOR_KINDS, make_executor
from repro.scenarios.batching import EXPERIMENT_ADAPTERS, solve_batch_and_commit
from repro.scenarios.checkpoint import SolveAbandoned
from repro.scenarios.lease import _drain, default_worker_id, unpark
from repro.scenarios.spec import ScenarioSpec, ScenarioSuite
from repro.scenarios.store import ResultsStore

__all__ = [
    "RunOutcome",
    "SuiteReport",
    "run_suite",
    "solve_and_commit",
    "EXPERIMENT_ADAPTERS",
]

#: how a scenario can end, best first: the order outcomes are merged and summarised in
_STATUSES = ("completed", "skipped", "interrupted", "failed")

#: seconds a hosted drain waits before rescanning when every scenario it has
#: left is held by a sibling drain (``run_worker``'s ``poll``)
_POLL = 0.1


@dataclass
class RunOutcome:
    """What happened to one scenario of a batch."""

    spec: ScenarioSpec
    status: str  # one of _STATUSES
    wall_time: float = 0.0
    entry: dict | None = None
    error: str | None = None


@dataclass
class SuiteReport:
    """Aggregate outcome of one ``run_suite`` call."""

    suite_name: str
    outcomes: list = field(default_factory=list)

    def count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def ok(self) -> bool:
        return all(o.status in ("completed", "skipped") for o in self.outcomes)

    def summary(self) -> str:
        parts = [f"{self.count(status)} {status}" for status in _STATUSES if self.count(status)]
        return f"suite {self.suite_name!r}: " + (", ".join(parts) if parts else "nothing to do")


def solve_and_commit(
    spec: ScenarioSpec,
    store: ResultsStore,
    *,
    interrupt_after: int | None = None,
    abort=None,
    events=None,
    worker_id: str = "",
) -> dict:
    """Run one scenario against ``store`` and commit its manifest entry.

    A group of one through
    :func:`repro.scenarios.batching.solve_batch_and_commit` (see there for
    what is persisted, resumed, emitted and committed); returns the
    committed entry.  ``abort`` is the scenario's abort hook: when it
    fires, :class:`SolveAbandoned` *propagates uncommitted*.
    """
    [entry] = solve_batch_and_commit(
        [spec],
        store,
        interrupt_after=interrupt_after,
        aborts=[abort],
        events=events,
        worker_id=worker_id,
    )
    if isinstance(entry, SolveAbandoned):
        raise entry
    return entry


def _hosted_drain(task: tuple) -> dict:
    """One drain of a suite; top-level, so the process executor can pickle it.

    ``task`` is ``(specs, store or its URL, interrupt_after, rank, drains,
    claim_lock)``: this drain is number ``rank`` (from 0) of the ``drains``
    the run starts.  Returns plain data — each scenario's
    ``(status, entry)`` and the drain's progress lines — since the drain's
    :class:`~repro.scenarios.lease.WorkReport` holds its event recorder,
    which does not pickle.
    """
    specs, store, interrupt_after, rank, drains, claim_lock = task
    lines: list[str] = []
    drain = _drain(
        specs,
        store,
        interrupt_after=interrupt_after,
        worker_id=default_worker_id(),
        max_attempts=1,
        poll=_POLL,
        progress=lines.append,
        claim_lock=claim_lock,
        rank=rank,
        drains=drains,
    )
    return {"outcomes": drain.outcomes, "lines": lines}


def run_suite(
    suite: ScenarioSuite,
    store: ResultsStore,
    executor: str = "serial",
    num_workers: int = 2,
    interrupt_after: int | None = None,
    batch_topology: bool = True,
    progress=None,
) -> SuiteReport:
    """Run every scenario of ``suite`` whose hash is not in ``store`` yet.

    Parameters
    ----------
    suite, store
        The expanded suite and the results store to fill.
    executor, num_workers
        The drains' host (one of
        :data:`repro.parallel.executor.EXECUTOR_KINDS`): ``serial`` runs
        one drain in this thread; the others run ``num_workers`` drains
        through that executor.  ``processes`` gives real parallelism
        across scenarios; its drains open the store from its URL.  Each
        drain stacks its ``1 / num_workers`` share of a group, and
        the r-th starts its claims at the r-th longest unit of work.
    interrupt_after
        Testing/demo hook: kill each solve after N iterations (leaving a
        checkpoint), as ``--interrupt-after`` in the CLI.
    batch_topology
        Kept for callers that still pass ``True``; ``False`` raises
        :class:`ValueError`.  Every drain claims the solve scenarios with
        one :func:`repro.scenarios.batching.topology_signature` together
        and iterates them stacked, with the
        same checkpoints, events and per-hash commits as a group of one: a
        member's bits do not depend on its group.
    progress
        Optional ``callable(str)`` receiving the drains' lines (claims,
        ``done``, parks, interrupts), drain by drain, once the run is over.
    """
    if not batch_topology:
        raise ValueError("a drain always stacks same-topology solves: batch_topology must be True")
    if executor not in EXECUTOR_KINDS:
        raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTOR_KINDS}")
    if executor == "processes" and not store.backend.process_shared:
        # a worker process would open the URL onto its own empty state and
        # its committed results would silently vanish with the process
        raise ValueError(
            f"store {store.url} is in-process only; the 'processes' "
            "executor needs a process-shared backend (file:// or s3://)"
        )
    specs = list(suite)
    keys = [store.scenario_key(spec) for spec in specs]
    # once, before any drain starts: a drain clearing parked records itself
    # could retry what a sibling parked during this very run
    unpark(store, keys)
    drains = 1 if executor == "serial" else num_workers
    claim_lock: AbstractContextManager[object]
    if executor == "processes":
        # a worker process gets the specs pickled and the store as its URL
        target, claim_lock = store.url, nullcontext()
    else:
        # drains sharing this process share the spec objects and the store,
        # and claim under one lock: threads switch at every store operation,
        # so two drains walking one order would otherwise both read a free
        # lease before either put its own, and both solve the scenario
        target, claim_lock = store, threading.Lock()
    tasks = [(specs, target, interrupt_after, rank, drains, claim_lock) for rank in range(drains)]
    if executor == "serial":
        summaries = [_hosted_drain(tasks[0])]
    else:
        summaries = make_executor(executor, drains).map(_hosted_drain, tasks)

    say = progress if progress is not None else (lambda line: None)
    best: dict[str, tuple[str, dict]] = {}
    for summary in summaries:
        for line in summary["lines"]:
            say(line)
        for scenario, outcome in summary["outcomes"].items():
            # a drain that completed a scenario beats a sibling that then skipped it
            best[scenario] = min(
                best.get(scenario, outcome), outcome, key=lambda o: _STATUSES.index(o[0])
            )
    report = SuiteReport(suite.name)
    reported: set[str] = set()
    for spec, scenario in zip(specs, keys):
        status, entry = best[scenario]
        twin = scenario in reported  # shares the content hash, and so the result, of one above
        if twin and status == "completed":
            status = "skipped"
        reported.add(scenario)
        wall = 0.0 if twin or status == "skipped" else float(entry.get("wall_time", 0.0))
        report.outcomes.append(
            RunOutcome(spec, status, wall_time=wall, entry=entry, error=entry.get("error"))
        )
    return report

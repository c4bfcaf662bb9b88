"""Batch runner dispatching scenario suites across executors.

``run_suite`` expands a :class:`~repro.scenarios.spec.ScenarioSuite`,
skips every scenario whose content hash already has a completed result in
the :class:`~repro.scenarios.store.ResultsStore`, orders the remainder
longest-first (see :func:`schedule_longest_first`) and dispatches them
through the map-style executors of :mod:`repro.parallel.executor`
(``serial``/``threads``/``processes``/``stealing``).  Scenario tasks are
plain dictionaries and the worker entry point is a module-level function,
so the process-pool backend works out of the box.

The sharded store (layout v2) is multi-writer safe, so each worker
*commits its own manifest entry* the moment its result files are stored:
a worker that finishes makes its work durable without depending on the
parent surviving, and several hosts can fill one store concurrently.
Workers receive the store's canonical *URL* (not a path) and reopen it
through whatever storage backend the scheme selects, so batches run
unchanged against ``file://``, ``mem://`` and ``s3://`` stores — except
that process executors are refused for in-process-only backends
(``mem://``), whose state a worker process could not share.
Solve scenarios checkpoint through
:class:`~repro.scenarios.checkpoint.SolveCheckpoint` into the store, which
makes every scenario of a batch individually resumable: re-run the same
suite after a crash and completed scenarios are skipped by hash while the
interrupted one resumes from its last checkpoint, if its clock left one.
After the batch the parent applies the checkpoint GC policy
(``keep_last_n`` / ``keep_on_failure``).

Experiment scenarios (kinds in
:data:`repro.scenarios.spec.EXPERIMENT_KINDS`) run through thin
``run_scenario`` adapters in :mod:`repro.experiments`, storing their
JSON payloads with the same provenance manifest.
"""

from __future__ import annotations

import os
import platform
import statistics
from dataclasses import dataclass, field

from repro.parallel.executor import EXECUTOR_KINDS, make_executor
from repro.parallel.scheduler import longest_first_order
from repro.parallel.tracing import EventRecorder
from repro.scenarios.batching import (
    EXPERIMENT_ADAPTERS,
    partition_by_topology,
    solve_batch_and_commit,
)
from repro.scenarios.checkpoint import SolveAbandoned
from repro.scenarios.spec import ScenarioSpec, ScenarioSuite
from repro.scenarios.store import ResultsStore, StoreEventSink
from repro.utils.logging import get_logger

__all__ = [
    "RunOutcome",
    "SuiteReport",
    "run_suite",
    "solve_and_commit",
    "schedule_longest_first",
    "EXPERIMENT_ADAPTERS",
    "SCHEDULE_KINDS",
]

logger = get_logger("scenarios.runner")

#: dispatch orders accepted by run_suite (and the CLI --schedule flag)
SCHEDULE_KINDS = ("longest-first", "fifo")


@dataclass
class RunOutcome:
    """What happened to one scenario of a batch."""

    spec: ScenarioSpec
    status: str  # "completed" | "skipped" | "interrupted" | "failed"
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
        parts = [
            f"{self.count(status)} {status}"
            for status in ("completed", "skipped", "interrupted", "failed")
            if self.count(status)
        ]
        return f"suite {self.suite_name!r}: " + (", ".join(parts) if parts else "nothing to do")


def schedule_longest_first(specs, wall_times: dict) -> list:
    """Order specs by expected wall time, longest first.

    The same proportional-load idea as the paper's state-space
    partitioning: dispatching the longest tasks first minimises the
    makespan tail when the suite is wider than the worker pool.

    ``wall_times`` maps spec content hash -> recorded seconds (from
    :meth:`~repro.scenarios.store.ResultsStore.wall_times`).  Hashes the
    store has never timed fall back to :meth:`ScenarioSpec.estimated_cost`;
    when at least one recorded time exists, heuristic costs are rescaled
    into pseudo-seconds with the median seconds-per-cost-unit of the
    recorded specs, so the two populations sort on one comparable axis.
    The sort is stable: ties keep suite order.
    """
    specs = list(specs)
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

    order = longest_first_order(
        expected_seconds(spec, cost) for spec, cost in zip(specs, costs)
    )
    return [specs[i] for i in order]


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


def _execute_task(task: dict) -> list:
    """Run one group of scenarios; top-level so the process executor can pickle it.

    Thin task-dict adapter over
    :func:`~repro.scenarios.batching.solve_batch_and_commit` (``"specs"``
    holds the group's spec dicts); returns one entry per spec.  Committing
    in the worker is safe — entry files are per-hash and the log append is
    atomic — and makes finished work durable even if the parent dies
    before the batch barrier.

    Every task emits solve-progress events into the store's
    ``events/runner-<host>-<pid>.jsonl`` feed (one object per OS worker;
    sequential tasks in one process append to the same feed), so batch
    runs are observable through ``status --follow`` and ``report``
    exactly like lease-fleet drains.
    """
    specs = [ScenarioSpec.from_dict(data) for data in task["specs"]]
    store = ResultsStore.open(task["store_url"])
    host = platform.node().split(".")[0].replace("/", "-") or "host"
    worker_id = f"runner-{host}-{os.getpid()}"
    events = EventRecorder()
    sink = StoreEventSink(store, worker_id)
    events.subscribe(sink)
    try:
        return solve_batch_and_commit(
            specs,
            store,
            interrupt_after=task.get("interrupt_after"),
            events=events,
            worker_id=worker_id,
        )
    finally:
        sink.flush()


def run_suite(
    suite: ScenarioSuite,
    store: ResultsStore,
    executor: str = "serial",
    num_workers: int = 2,
    force: bool = False,
    interrupt_after: int | None = None,
    schedule: str = "longest-first",
    keep_last_n: int | None = None,
    keep_on_failure: bool = True,
    batch_topology: bool = False,
    progress=None,
) -> SuiteReport:
    """Run every scenario of ``suite`` whose hash is not in ``store`` yet.

    Parameters
    ----------
    suite, store
        The expanded suite and the results store to fill.
    executor, num_workers
        Scenario-level dispatch backend (one of
        :data:`repro.parallel.executor.EXECUTOR_KINDS`) and its worker
        count.  ``processes`` gives real parallelism across scenarios;
        specs and tasks are plain data, so they pickle, and the sharded
        store lets every worker commit its own entry.
    force
        Re-run scenarios even when the store already has their hash.
    interrupt_after
        Testing/demo hook: kill each solve after N iterations (leaving a
        checkpoint), as ``--interrupt-after`` in the CLI.
    schedule
        ``"longest-first"`` (default) feeds prior wall times from the
        store — falling back to spec-size heuristics for unseen hashes —
        into :func:`schedule_longest_first`; ``"fifo"`` keeps suite order.
    keep_last_n, keep_on_failure
        Checkpoint GC policy applied after the batch (see
        :meth:`~repro.scenarios.store.ResultsStore.gc_checkpoints`).  The
        defaults keep every resumable checkpoint.
    batch_topology
        Opt-in group size: by default every scenario is a task of its own;
        with this flag pending solve scenarios that share a grid topology
        (see :func:`repro.scenarios.batching.partition_by_topology`) go
        into one task and iterate stacked — one shared grid, per-member
        convergence masking.  The code path, checkpoints, telemetry events
        and per-hash entry commits are the same.  A group of one is the
        default solve bit for bit; a stacked group runs the same row solves
        in one Newton, for which the contract stays solver tolerance (BLAS
        blocking may depend on what shares a call).  Off by default.
    progress
        Optional ``callable(str)`` receiving one line per scenario.
    """
    if executor not in EXECUTOR_KINDS:
        raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTOR_KINDS}")
    if schedule not in SCHEDULE_KINDS:
        raise ValueError(f"unknown schedule {schedule!r}; expected one of {SCHEDULE_KINDS}")
    if executor == "processes" and not store.backend.process_shared:
        # a worker process would open the URL onto its own empty state and
        # its committed results would silently vanish with the process
        raise ValueError(
            f"store {store.url} is in-process only; the 'processes' "
            "executor needs a process-shared backend (file:// or s3://)"
        )
    say = progress if progress is not None else (lambda line: None)
    report = SuiteReport(suite.name)
    pending = []
    pending_hashes: set = set()
    deferred = []
    # one commit-log read for the whole scan — its records carry the
    # status/kind the completeness check needs, so skipping costs no
    # entry.json reads however large the store is
    known = store.index_records()
    for spec in suite:
        spec_hash = spec.content_hash()
        entry = known.get(spec_hash)
        if not force and store.entry_is_complete(entry):
            say(f"skip  {spec.name} [{spec.short_hash}] (already in store)")
            report.outcomes.append(
                RunOutcome(spec, "skipped", wall_time=0.0, entry=entry)
            )
        elif spec_hash in pending_hashes:
            # identical content already queued this batch: running it twice
            # would race two workers on one scenario directory
            say(f"skip  {spec.name} [{spec.short_hash}] (duplicate of a queued scenario)")
            deferred.append(spec)
        else:
            pending.append(spec)
            pending_hashes.add(spec_hash)
    mapper = make_executor(executor, num_workers)
    if schedule == "longest-first" and len(pending) > 1:
        pending = schedule_longest_first(pending, store.wall_times())
        if not getattr(mapper, "dispatches_in_order", False):
            # e.g. the work-stealing backend seeds per-worker blocks, so
            # the longest-first order only biases, not fixes, start order
            logger.info(
                "executor %r does not dispatch in order; longest-first "
                "schedule is approximate",
                executor,
            )
    if batch_topology and len(pending) > 1:
        groups, singles = partition_by_topology(pending)
    else:
        groups, singles = [], pending
    task_specs = groups + [[spec] for spec in singles]  # one spec list per task
    tasks = [
        {
            "specs": [spec.to_dict() for spec in specs],
            "store_url": store.url,
            "interrupt_after": interrupt_after,
        }
        for specs in task_specs
    ]
    nested = mapper.map(_execute_task, tasks) if tasks else []
    # flatten back to one (spec, entry) stream; an abandoned member (its
    # SolveAbandoned instead of an entry) committed nothing — report it as failed
    pending = [spec for specs in task_specs for spec in specs]
    entries = [
        entry
        if isinstance(entry, dict)
        else {
            "spec_hash": spec.content_hash(),
            "status": "failed",
            "wall_time": 0.0,
            "error": f"abandoned without committing: {entry}",
        }
        for specs, group_entries in zip(task_specs, nested)
        for spec, entry in zip(specs, group_entries)
    ]
    # workers committed their own entries; the parent only reports and GCs
    committed = {entry["spec_hash"]: entry for entry in entries}
    for spec, entry in zip(pending, entries):
        status = entry["status"]
        say(f"{status:<5} {spec.name} [{spec.short_hash}] ({entry['wall_time']:.2f}s)")
        report.outcomes.append(
            RunOutcome(
                spec,
                status,
                wall_time=float(entry.get("wall_time", 0.0)),
                entry=entry,
                error=entry.get("error"),
            )
        )
    for spec in deferred:
        # resolved by the queued twin (results are keyed by content hash):
        # report "skipped" only if the twin actually produced a result,
        # otherwise mirror its failure so report.ok does not lie
        entry = committed.get(spec.content_hash())
        twin_status = entry.get("status") if entry else "failed"
        status = "skipped" if twin_status == "completed" else twin_status
        report.outcomes.append(
            RunOutcome(
                spec,
                status,
                wall_time=0.0,
                entry=entry,
                error=entry.get("error") if entry else "duplicate of a scenario that never ran",
            )
        )
    # GC only this suite's checkpoint directories: a concurrent batch's
    # in-flight checkpoints (other hashes) are never this batch's business
    removed = store.gc_checkpoints(
        keep_last_n=keep_last_n, keep_on_failure=keep_on_failure, hashes=suite.hashes()
    )
    for path in removed:
        logger.info("gc: removed checkpoint %s", path)
    return report

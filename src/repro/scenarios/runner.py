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
interrupted one resumes from its last checkpoint.  After the batch the
parent applies the checkpoint GC policy (``keep_last_n`` /
``keep_on_failure``).

Experiment scenarios (kinds in
:data:`repro.scenarios.spec.EXPERIMENT_KINDS`) run through thin
``run_scenario`` adapters in :mod:`repro.experiments`, storing their
JSON payloads with the same provenance manifest.
"""

from __future__ import annotations

import importlib
import os
import platform
import statistics
import time
import traceback
from dataclasses import dataclass, field

from repro.parallel.executor import EXECUTOR_KINDS, make_executor
from repro.parallel.scheduler import longest_first_order
from repro.scenarios.checkpoint import (
    InterruptingCheckpoint,
    SimulatedKill,
    SolveAbandoned,
    SolveCheckpoint,
)
from repro.scenarios.spec import ScenarioSpec, ScenarioSuite
from repro.scenarios.store import ResultsStore
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

#: kind -> "module:function" of the experiment adapters (resolved lazily so
#: importing the scenarios package stays cheap and cycle-free).
EXPERIMENT_ADAPTERS = {
    "table1": "repro.experiments.table1:run_scenario",
    "table2": "repro.experiments.table2_fig6:run_scenario",
    "fig7": "repro.experiments.fig7:run_scenario",
    "fig8": "repro.experiments.fig8:run_scenario",
    "fig9": "repro.experiments.fig9:run_scenario",
    "ablations": "repro.experiments.ablations:run_scenario",
}

#: dispatch orders accepted by run_suite (and the CLI --schedule flag)
SCHEDULE_KINDS = ("longest-first", "fifo")


def _resolve_adapter(kind: str):
    target = EXPERIMENT_ADAPTERS[kind]
    module_name, func_name = target.split(":")
    return getattr(importlib.import_module(module_name), func_name)


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
    checkpoint_every: int = 1,
    point_executor: str = "serial",
    point_workers: int = 1,
    interrupt_after: int | None = None,
    abort=None,
    events=None,
    worker_id: str = "",
) -> dict:
    """Run one scenario against ``store`` and commit its manifest entry.

    The single solve-and-commit path shared by the batch runner's worker
    function (:func:`run_suite` via ``_execute_task``) and the lease-based
    fleet worker (:func:`repro.scenarios.lease.run_worker`): persists the
    spec, runs the solve (resuming from an existing checkpoint — including
    one left behind by a dead worker whose lease was stolen) or the
    experiment adapter, commits the entry (``completed``/``interrupted``/
    ``failed``) and returns it.  Failed entries carry the full formatted
    traceback under ``entry["traceback"]``.

    ``abort`` is forwarded to :class:`SolveCheckpoint`; when it fires,
    :class:`SolveAbandoned` *propagates uncommitted* — an abandoning
    worker no longer owns the scenario and must not write an entry the
    rightful owner's result would have to out-rank.

    ``events``/``worker_id`` wire solve-progress telemetry through the
    time-iteration driver: when an
    :class:`~repro.parallel.tracing.EventRecorder` is given, solve
    scenarios emit ``solve-started``/``iteration``/``refined``/
    ``converged``/``solve-finished`` events attributed to ``worker_id``
    and the scenario's hash16 key (experiment scenarios emit nothing —
    they have no iteration structure).
    """
    # persist the spec up front so even interrupted/failed entries can be
    # inspected and diffed (spec deltas explain *why* a variant failed)
    store.save_spec(spec)
    t0 = time.perf_counter()
    try:
        if spec.kind == "solve":
            entry = _execute_solve(
                spec,
                store,
                t0,
                checkpoint_every=checkpoint_every,
                point_executor=point_executor,
                point_workers=point_workers,
                interrupt_after=interrupt_after,
                abort=abort,
                events=events,
                worker_id=worker_id,
            )
        else:
            adapter = _resolve_adapter(spec.kind)
            payload = {"params": dict(spec.params), "result": adapter(dict(spec.params))}
            entry = store.write_payload(spec, payload, time.perf_counter() - t0)
    except SolveAbandoned:
        raise
    except SimulatedKill as exc:
        # the --interrupt-after testing hook only; a genuine KeyboardInterrupt
        # (user Ctrl-C) propagates and stops the whole batch — the on-disk
        # checkpoints make the next identical invocation resume
        entry = store.failure_entry(spec, "interrupted", time.perf_counter() - t0, str(exc))
    except Exception as exc:  # repro: allow[broad-except] -- failure recorded; batch continues
        logger.warning("scenario %s failed: %s", spec.name, exc)
        entry = store.failure_entry(
            spec,
            "failed",
            time.perf_counter() - t0,
            "".join(traceback.format_exception_only(type(exc), exc)).strip(),
            tb=traceback.format_exc(),
        )
    store.commit_entry(entry)
    if entry["status"] == "completed" and spec.kind == "solve":
        # safe to drop only now that the committed entry points at the
        # result; missing_ok because a concurrent same-hash writer or
        # another batch's GC may have removed it first
        store.checkpoint_ref(spec).unlink(missing_ok=True)
    return entry


def _execute_task(task: dict) -> dict:
    """Run one scenario; top-level so the process executor can pickle it.

    Thin task-dict adapter over :func:`solve_and_commit`.  Committing in
    the worker is safe — entry files are per-hash and the log append is
    atomic — and makes finished work durable even if the parent dies
    before the batch barrier.

    Every task emits solve-progress events into the store's
    ``events/runner-<host>-<pid>.jsonl`` feed (one object per OS worker;
    sequential tasks in one process append to the same feed), so batch
    runs are observable through ``status --follow`` and ``report``
    exactly like lease-fleet drains.
    """
    from repro.parallel.tracing import EventRecorder
    from repro.scenarios.store import StoreEventSink

    spec = ScenarioSpec.from_dict(task["spec"])
    store = ResultsStore.open(task["store_url"])
    host = platform.node().split(".")[0].replace("/", "-") or "host"
    worker_id = f"runner-{host}-{os.getpid()}"
    events = EventRecorder()
    sink = StoreEventSink(store, worker_id)
    events.subscribe(sink)
    try:
        return solve_and_commit(
            spec,
            store,
            checkpoint_every=int(task.get("checkpoint_every", 1)),
            point_executor=task.get("point_executor", "serial"),
            point_workers=int(task.get("point_workers", 1)),
            interrupt_after=task.get("interrupt_after"),
            events=events,
            worker_id=worker_id,
        )
    finally:
        sink.flush()


def _execute_batch_task(task: dict) -> list:
    """Run one topology group through the batched solver; returns entries.

    The batched counterpart of :func:`_execute_task` (same pickle-friendly
    task-dict shape, ``"batch"`` holding the member spec dicts): every
    member's entry is committed individually inside
    :func:`repro.scenarios.batching.solve_batch_and_commit`, so partial
    progress is durable even if the parent dies at the batch barrier.
    """
    from repro.parallel.tracing import EventRecorder
    from repro.scenarios.batching import solve_batch_and_commit
    from repro.scenarios.store import StoreEventSink

    specs = [ScenarioSpec.from_dict(data) for data in task["batch"]]
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
            checkpoint_every=int(task.get("checkpoint_every", 1)),
            interrupt_after=task.get("interrupt_after"),
            events=events,
            worker_id=worker_id,
        )
    finally:
        sink.flush()


def _execute_any_task(task: dict) -> list:
    """Uniform executor entry point: always returns a list of entries."""
    if "batch" in task:
        return _execute_batch_task(task)
    return [_execute_task(task)]


def _execute_solve(
    spec: ScenarioSpec,
    store: ResultsStore,
    t0: float,
    *,
    checkpoint_every: int = 1,
    point_executor: str = "serial",
    point_workers: int = 1,
    interrupt_after: int | None = None,
    abort=None,
    events=None,
    worker_id: str = "",
) -> dict:
    config = spec.build_config()
    model = spec.build_model()
    # "serial" means no executor: the driver hands whole grids to the model
    executor = None
    if point_executor != "serial":
        executor = make_executor(point_executor, point_workers)
    from repro.core.time_iteration import TimeIterationSolver

    solver = TimeIterationSolver(model, config, executor=executor)
    # a BlobRef: checkpoints flow through the store's backend, so kill/
    # resume works identically for file://, mem:// and s3:// stores
    ckpt_path = store.checkpoint_ref(spec)
    if interrupt_after:
        checkpoint = InterruptingCheckpoint(
            ckpt_path,
            every=checkpoint_every,
            config=config,
            interrupt_after=int(interrupt_after),
        )
    else:
        checkpoint = SolveCheckpoint(
            ckpt_path, every=checkpoint_every, config=config, abort=abort
        )
    resumed = checkpoint.exists()
    result = solver.solve(
        checkpoint=checkpoint,
        events=events,
        worker=worker_id,
        scenario=store.scenario_key(spec),
    )
    return store.write_result(spec, result, time.perf_counter() - t0, resumed=resumed)


def run_suite(
    suite: ScenarioSuite,
    store: ResultsStore,
    executor: str = "serial",
    num_workers: int = 2,
    point_executor: str = "serial",
    point_workers: int = 1,
    checkpoint_every: int = 1,
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
    point_executor, point_workers
        Dispatch *inside* each solve.  ``serial`` (the default) passes no
        executor: a state's whole grid goes to the model's vectorized point
        solve.  Any other kind solves the grid points one task each through
        that executor (the paper's per-point dispatch).
    checkpoint_every
        Persist a solve checkpoint every N iterations.
    force
        Re-run scenarios even when the store already has their hash.
    interrupt_after
        Testing/demo hook: kill each solve after N iterations (after
        checkpointing), as ``--interrupt-after`` in the CLI.
    schedule
        ``"longest-first"`` (default) feeds prior wall times from the
        store — falling back to spec-size heuristics for unseen hashes —
        into :func:`schedule_longest_first`; ``"fifo"`` keeps suite order.
    keep_last_n, keep_on_failure
        Checkpoint GC policy applied after the batch (see
        :meth:`~repro.scenarios.store.ResultsStore.gc_checkpoints`).  The
        defaults keep every resumable checkpoint.
    batch_topology
        Opt-in: group pending solve scenarios that share a grid topology
        (see :func:`repro.scenarios.batching.partition_by_topology`) and
        run each group through the batched multi-scenario solver — one
        shared grid, per-member convergence masking — instead of one
        solve per task.  Checkpoints, telemetry events and per-hash entry
        commits are unchanged.  A group of one is the default solve bit for
        bit; a stacked group runs the same row solves in one Newton, for
        which the contract stays solver tolerance (BLAS blocking may depend
        on what shares a call).  Off by default.
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
    # one secondary-index snapshot for the whole scan — thin records carry
    # the status/kind the completeness check needs, so skipping costs no
    # entry.json reads however large the store is
    known = store.index_records(hydrate=False)
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
    def _single_task(spec: ScenarioSpec) -> dict:
        return {
            "spec": spec.to_dict(),
            "store_url": store.url,
            "checkpoint_every": int(checkpoint_every),
            "point_executor": point_executor,
            "point_workers": int(point_workers),
            "interrupt_after": interrupt_after,
        }

    tasks = []
    task_specs: list = []  # one spec list per task, aligned with `tasks`
    if batch_topology and len(pending) > 1:
        from repro.scenarios.batching import partition_by_topology

        groups, singles = partition_by_topology(pending)
        for group in groups:
            tasks.append(
                {
                    "batch": [spec.to_dict() for spec in group],
                    "store_url": store.url,
                    "checkpoint_every": int(checkpoint_every),
                    "interrupt_after": interrupt_after,
                }
            )
            task_specs.append(list(group))
        for spec in singles:
            tasks.append(_single_task(spec))
            task_specs.append([spec])
    else:
        for spec in pending:
            tasks.append(_single_task(spec))
            task_specs.append([spec])
    nested = mapper.map(_execute_any_task, tasks) if tasks else []
    # flatten batch results back to one (spec, entry) stream; an abandoned
    # batch member (None entry) committed nothing — report it as failed
    pending = [spec for specs in task_specs for spec in specs]
    entries = [
        entry
        if entry is not None
        else {
            "spec_hash": spec.content_hash(),
            "status": "failed",
            "wall_time": 0.0,
            "error": "abandoned without committing",
        }
        for specs, batch in zip(task_specs, nested)
        for spec, entry in zip(specs, batch)
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

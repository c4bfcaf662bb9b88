"""The one solve-and-commit, over a group of scenarios.

:func:`solve_batch_and_commit` is the single path from specs to committed
entries, shared by the batch runner (:func:`repro.scenarios.runner.run_suite`)
and the lease workers (:func:`repro.scenarios.lease.run_worker`): solve
scenarios become members of ONE
:class:`repro.core.batched.BatchedTimeIterationSolver` loop, experiment
scenarios run their adapter and commit in place.  Callers decide group
size only: by default every scenario is a group of one; with the opt-in
``batch_topology`` flag they group solve scenarios by
:func:`topology_signature` (sweeps routinely hold many that differ only in
calibration scalars — same generations, shock count, grid level), and a
group of at least two runs stacked — one shared grid, one stacked Newton
per iteration.

The store contract does not depend on group size: every scenario keeps
its own checkpoint (written at its own iteration boundaries on the
checkpoint clock, so kill/resume works member by member), its own
telemetry events, and its own ``entry.json`` committed individually *the
moment that scenario finishes* (converged members drop out of a stack
early).  Members the loop cannot stack — adaptive configs, checkpoints
from another grid — step alone inside the same loop.
"""

from __future__ import annotations

import importlib
import time
import traceback

from repro.core.batched import BatchedTimeIterationSolver, BatchMember
from repro.core.batched import batch_topology as _core_signature
from repro.scenarios.checkpoint import (
    InterruptingCheckpoint,
    SimulatedKill,
    SolveAbandoned,
    SolveCheckpoint,
)
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import ResultsStore
from repro.utils.logging import get_logger

__all__ = [
    "EXPERIMENT_ADAPTERS",
    "topology_signature",
    "partition_by_topology",
    "solve_batch_and_commit",
]

logger = get_logger("scenarios.batching")

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


def _resolve_adapter(kind: str):
    target = EXPERIMENT_ADAPTERS[kind]
    module_name, func_name = target.split(":")
    return getattr(importlib.import_module(module_name), func_name)


def topology_signature(spec: ScenarioSpec):
    """Grid-topology signature of a spec, or ``None`` when unbatchable.

    ``None`` for experiment kinds and adaptive solves; otherwise the
    hashable tuple of :func:`repro.core.batched.batch_topology` — specs
    with equal signatures may share one stack.
    """
    if spec.kind != "solve":
        return None
    try:
        return _core_signature(spec.build_model(), spec.build_config())
    except Exception:  # repro: allow[broad-except] -- a broken spec surfaces when it runs
        return None


def partition_by_topology(specs) -> tuple[list, list]:
    """Split specs into stackable topology groups and singles.

    Returns ``(groups, singles)``: ``groups`` is a list of spec lists, one
    per signature shared by at least two specs (suite order preserved
    within each group); everything else — unbatchable specs and signature
    singletons — lands in ``singles``, also in suite order.
    """
    by_sig: dict = {}
    for spec in specs:
        sig = topology_signature(spec)
        if sig is not None:
            by_sig.setdefault(sig, []).append(spec)
    groups = [members for members in by_sig.values() if len(members) > 1]
    grouped = {id(s) for g in groups for s in g}
    singles = [s for s in specs if id(s) not in grouped]
    return groups, singles


def solve_batch_and_commit(
    specs,
    store: ResultsStore,
    *,
    interrupt_after: int | None = None,
    aborts=None,
    events=None,
    worker_id: str = "",
    clock=time.monotonic,
) -> list:
    """Run a group of scenarios against ``store``, committing each one's entry.

    Every committed entry gets its spec stored beside it once — with the
    result when completed, by the failure path when interrupted/failed (so
    those can be diffed too: spec deltas explain *why* a variant failed).
    Runs experiment kinds through their adapter, solves the ``solve`` kinds
    as the members of one time-iteration loop — each with its own
    :class:`SolveCheckpoint` (resuming from any checkpoint already in the
    store, including one left behind by a dead worker whose lease was
    stolen) and its own telemetry attribution (``events`` receives
    ``solve-started``/``iteration``/``refined``/``converged``/
    ``solve-finished`` under ``worker_id`` and the scenario's hash16 key;
    experiment scenarios have no iteration structure and emit nothing) —
    and commits each scenario's ``entry.json`` (``completed``/
    ``interrupted``/``failed``, the latter with the formatted traceback
    under ``entry["traceback"]``) the moment that scenario is done, not at
    the group barrier.  A failure ends one scenario, never the group.

    ``aborts`` is an optional list of per-spec zero-arg abort callables,
    forwarded to :class:`SolveCheckpoint` (the lease workers pass each
    held lease's ``abort_requested``); a member whose abort fires is abandoned
    *uncommitted* — an abandoning worker no longer owns the scenario and
    must not write an entry the rightful owner's result would have to
    out-rank — while the rest of the group keeps solving.  ``clock`` times
    every member's checkpoint cadence (a test seam; workers pass their lease clock).

    Returns one item per spec, in order: the committed entry, or for an
    abandoned member the :class:`SolveAbandoned` its hook raised.
    """
    specs = list(specs)
    if aborts is None:
        aborts = [None] * len(specs)
    if len(aborts) != len(specs):
        raise ValueError("need one abort hook (or None) per spec")
    if len({spec.content_hash() for spec in specs}) != len(specs):
        raise ValueError("batched specs must have distinct content hashes")

    t0 = time.perf_counter()
    done: list = [None] * len(specs)  # by position in ``specs``
    position: dict = {}  # member key -> position
    checkpoints: dict = {}  # member key -> its checkpoint hook

    def commit(i: int, entry: dict) -> None:
        store.commit_entry(entry)
        if entry["status"] == "completed" and specs[i].kind == "solve":
            # safe to drop only now that the committed entry points at the
            # result; missing_ok because a concurrent same-hash writer or
            # another batch's GC may have removed it first
            store.checkpoint_ref(specs[i]).unlink(missing_ok=True)
        done[i] = entry

    def failure(i: int, exc: BaseException) -> dict:
        spec, wall = specs[i], time.perf_counter() - t0
        store.save_spec(spec)
        if isinstance(exc, SimulatedKill):
            return store.failure_entry(spec, "interrupted", wall, str(exc))
        logger.warning("scenario %s failed: %s", spec.name, exc)
        return store.failure_entry(
            spec,
            "failed",
            wall,
            "".join(traceback.format_exception_only(type(exc), exc)).strip(),
            tb="".join(traceback.format_exception(type(exc), exc, exc.__traceback__)),
        )

    def run_experiment(spec: ScenarioSpec) -> dict:
        started = time.perf_counter()
        result = _resolve_adapter(spec.kind)(dict(spec.params))
        payload = {"params": dict(spec.params), "result": result}
        return store.write_payload(spec, payload, time.perf_counter() - started)

    def member_of(spec: ScenarioSpec, abort) -> BatchMember:
        config = spec.build_config()
        # a BlobRef: checkpoints flow through the store's backend, so kill/
        # resume works identically for file://, mem:// and s3:// stores
        ref = store.checkpoint_ref(spec)
        if interrupt_after:
            checkpoint = InterruptingCheckpoint(
                ref, config=config, interrupt_after=int(interrupt_after), clock=clock
            )
        else:
            checkpoint = SolveCheckpoint(ref, config=config, abort=abort, clock=clock)
        scenario = store.scenario_key(spec)
        checkpoints[scenario] = checkpoint
        return BatchMember(
            key=scenario,
            model=spec.build_model(),
            config=config,
            checkpoint=checkpoint,
            events=events,
            worker=worker_id,
            scenario=scenario,
        )

    def on_member_complete(key: str, outcome) -> None:
        i = position[key]
        if isinstance(outcome.exception, SolveAbandoned):
            # propagate-uncommitted: the scenario belongs to whoever stole
            # the claim; they resume from our last checkpoint
            done[i] = outcome.exception
        elif outcome.result is None:
            commit(i, failure(i, outcome.exception))
        else:
            wall = time.perf_counter() - t0
            try:
                entry = store.write_result(
                    specs[i], outcome.result, wall, resumed=checkpoints[key].resumed
                )
            except Exception as exc:  # repro: allow[broad-except] -- recorded; group continues
                entry = failure(i, exc)
            commit(i, entry)

    members: list[BatchMember] = []
    for i, (spec, abort) in enumerate(zip(specs, aborts)):
        try:
            if spec.kind == "solve":
                members.append(member_of(spec, abort))
                position[members[-1].key] = i
            else:
                commit(i, run_experiment(spec))
        except Exception as exc:  # repro: allow[broad-except] -- failure recorded; group continues
            commit(i, failure(i, exc))
    if members:
        try:
            BatchedTimeIterationSolver(members, on_member_complete=on_member_complete).solve()
        except (SimulatedKill, Exception) as exc:  # repro: allow[broad-except] -- recorded below
            # SimulatedKill is the --interrupt-after testing hook only (a
            # genuine Ctrl-C propagates and stops everything): the next run
            # resumes every member from its last persisted iteration.
            # Anything else here broke the stacked pass itself.
            for i in position.values():
                if done[i] is None:
                    commit(i, failure(i, exc))
    return done

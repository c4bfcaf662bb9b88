"""The one solve-and-commit, over a group of scenarios.

:func:`solve_batch_and_commit` is the single path from specs to committed
entries, taken by the lease drain that both ``work``
(:func:`repro.scenarios.lease.run_worker`) and ``run``
(:func:`repro.scenarios.runner.run_suite`) run: solve
scenarios become members of ONE
:class:`repro.core.batched.BatchedTimeIterationSolver` loop, experiment
scenarios run their adapter and commit in place.

Which solves share a stack is decided here, once:
:func:`topology_signature`, a spec's
:func:`repro.olg.euler.structure_key` and grid level.  A drain claims the
units :func:`partition_by_topology` makes of its pending specs, and the
loop stacks each unit whole.  Sweeps routinely hold many solves that
differ only in calibration scalars — discount factor, tax rates, shock
process — and those stack: one shared grid, one stacked Newton per
iteration.  Adaptive solves do not stack (each refines its own grids), and
neither do solves that differ in structure (generations, shock count,
retirement age, efficiency profile, ``gamma``, consumption floor,
``theta``): a sweep over those runs as singles.  A member's bits do not
depend on its group: a stacked member commits the surpluses and iteration
history of its solo solve.

The store contract does not depend on group size either: every scenario
keeps its own checkpoint (written at its own iteration boundaries on the
checkpoint clock, so kill/resume works member by member), its own
telemetry events, and its own ``entry.json`` committed individually *the
moment that scenario finishes* (converged members drop out of a stack
early).  Costs grow with the group: a residual call's memory and per-row
basis-pass cost grow with the rows it carries (so a stack carries at most
``_STACK_POINTS`` grid points, until the row-blocked residual call of
ROADMAP.md's open items bounds them), a stack runs on one worker (so the
drains one host starts together each claim their share of a group, see
:mod:`repro.scenarios.lease`), and a worker killed mid-stack leaves every
lease of its stack until the TTL lets a peer steal it.

A spec's signature is read off its calibration and solver config, so
grouping builds no model: each claimed solve builds its model once, for
its member.
"""

from __future__ import annotations

import importlib
import math
import time
import traceback

from repro.core.batched import BatchedTimeIterationSolver, BatchMember
from repro.grids.regular import regular_grid_size
from repro.scenarios.checkpoint import (
    InterruptingCheckpoint,
    SimulatedKill,
    SolveAbandoned,
    SolveCheckpoint,
)
from repro.scenarios.spec import EXPERIMENT_ADAPTERS, ScenarioSpec
from repro.scenarios.store import ResultsStore
from repro.utils.logging import get_logger

__all__ = [
    "EXPERIMENT_ADAPTERS",
    "topology_signature",
    "partition_by_topology",
    "solve_batch_and_commit",
]

logger = get_logger("scenarios.batching")

def _resolve_adapter(kind: str):
    target = EXPERIMENT_ADAPTERS[kind]
    module_name, func_name = target.split(":")
    return getattr(importlib.import_module(module_name), func_name)


#: Grid points a stack carries in all: its members times the points of their
#: shared grid.  Until the row-blocked residual call (ROADMAP.md's open
#: items) bounds a call's working set, a stack's basis pass costs more per
#: row the more rows it carries, and past about this size that outweighs the
#: fixed costs stacking saves.  Four solves of 6 generations / 2 states,
#: one drain, 2-core Xeon, OpenBLAS on 1 thread: level 3 (4 x 61 = 244
#: points) ran 10-20% faster stacked, level 4 (4 x 241 = 964 points) 14%
#: slower.  A stack is also what one worker claims whole.
_STACK_POINTS = 256


def topology_signature(spec: ScenarioSpec):
    """Which solves may share a stack: ``(structure_key(calibration), grid_level)``.

    Specs with equal signatures share one regular grid and one
    :class:`~repro.olg.euler.EulerSystem`
    (:func:`repro.olg.euler.structure_key`); they differ at most in the
    calibration scalars the system keeps per model.  ``None`` for
    experiment kinds, adaptive solves and specs whose calibration or config
    does not build (the error surfaces when the spec runs).  It is read off
    the calibration and config, without building the model.
    """
    if spec.kind != "solve":
        return None
    from repro.olg.euler import structure_key

    try:
        calibration, config = spec.build_calibration(), spec.build_config()
    except Exception:  # repro: allow[broad-except] -- a broken spec surfaces when it runs
        return None
    if config.adaptive:
        return None
    return structure_key(calibration), int(config.grid_level)


def partition_by_topology(specs, drains: int = 1) -> list[list[ScenarioSpec]]:
    """The claim units of ``specs``: each a stack, or a spec alone, in the order given.

    Specs sharing a :func:`topology_signature` fill stacks of at most
    ``_STACK_POINTS`` grid points in all; a stack is split in ``drains``
    shares, one per drain started together on the suite, so none idles
    meanwhile.  Everything else — unbatchable specs and what is left alone
    — is a unit of one.  A unit comes where its first spec comes in
    ``specs``, so a longest-first order of specs is a longest-first order
    of units.
    """
    by_sig: dict = {}
    for spec in specs:
        sig = topology_signature(spec)
        if sig is not None:
            by_sig.setdefault(sig, []).append(spec)
    unit_of: dict = {}  # id of a stacked spec -> its unit
    for ((generations, *_), level), members in by_sig.items():
        # a state holds the savings of the A - 1 ages that save
        size = max(1, _STACK_POINTS // regular_grid_size(generations - 1, level))
        for stack in (members[i : i + size] for i in range(0, len(members), size)):
            share = math.ceil(len(stack) / drains)
            for unit in (stack[i : i + share] for i in range(0, len(stack), share)):
                unit_of.update(dict.fromkeys(map(id, unit), unit))
    units = [unit_of.get(id(spec), [spec]) for spec in specs]
    return [unit for spec, unit in zip(specs, units) if unit[0] is spec]


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

    Every committed entry carries its spec, completed or not (so
    interrupted and failed entries can be diffed too: spec deltas explain
    *why* a variant failed).
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
            # result; missing_ok because a concurrent same-hash writer or a
            # compact may have removed it first
            store.checkpoint_ref(specs[i]).unlink(missing_ok=True)
        done[i] = entry

    def failure(i: int, exc: BaseException) -> dict:
        spec, wall = specs[i], time.perf_counter() - t0
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
        except Exception as exc:  # repro: allow[broad-except] -- recorded below
            # this broke the stacked pass itself (a member's own hook, the
            # --interrupt-after kill included, ends that member only; a
            # genuine Ctrl-C propagates and stops everything)
            for i in position.values():
                if done[i] is None:
                    commit(i, failure(i, exc))
    return done

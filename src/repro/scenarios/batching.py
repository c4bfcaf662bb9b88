"""Batch-aware dispatch of topology-sharing solve scenarios.

Sweep suites routinely hold many solve scenarios that differ only in
calibration scalars — same generations, shock count, grid level.  With the
opt-in ``batch_topology`` flag of :func:`repro.scenarios.runner.run_suite`
and :func:`repro.scenarios.lease.run_worker`, such scenarios are grouped by
:func:`topology_signature` and solved together through
:class:`repro.core.batched.BatchedTimeIterationSolver` — one shared grid,
one stacked Newton per iteration — instead of one solve at a time.

The store contract is unchanged: every member keeps its own checkpoint
(written at the same per-iteration boundary as a sequential solve, so
kill/resume works member by member), its own telemetry events, and its own
``entry.json`` committed individually *the moment that member finishes*
(converged members drop out of the batch early).  The default
per-scenario solve is a batch of one — same code, same bits — so batching
only adds the cross-scenario stacking.  Members the batched driver cannot
take — adaptive configs, checkpoints from another grid — fall back to a
per-scenario solve of their own.
"""

from __future__ import annotations

import time
import traceback

from repro.core.batched import BatchedTimeIterationSolver, BatchMember
from repro.core.batched import batch_topology as _core_signature
from repro.scenarios.checkpoint import (
    InterruptingCheckpoint,
    SimulatedKill,
    SolveCheckpoint,
)
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import ResultsStore
from repro.utils.logging import get_logger

__all__ = [
    "topology_signature",
    "partition_by_topology",
    "solve_batch_and_commit",
]

logger = get_logger("scenarios.batching")


def topology_signature(spec: ScenarioSpec):
    """Grid-topology signature of a spec, or ``None`` when unbatchable.

    ``None`` for experiment kinds and adaptive solves; otherwise the
    hashable tuple of :func:`repro.core.batched.batch_topology` — specs
    with equal signatures may share one batched driver.
    """
    if spec.kind != "solve":
        return None
    try:
        config = spec.build_config()
        if config.adaptive:
            return None
        return _core_signature(spec.build_model(), config)
    except Exception:  # repro: allow[broad-except] -- a broken spec surfaces when it runs
        return None


def partition_by_topology(specs) -> tuple[list, list]:
    """Split specs into batchable topology groups and sequential singles.

    Returns ``(groups, singles)``: ``groups`` is a list of spec lists, one
    per signature shared by at least two specs (suite order preserved
    within each group); everything else — unbatchable specs and signature
    singletons — lands in ``singles``, also in suite order.
    """
    by_sig: dict = {}
    sigs = []
    for spec in specs:
        sig = topology_signature(spec)
        sigs.append(sig)
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
    checkpoint_every: int = 1,
    interrupt_after: int | None = None,
    aborts=None,
    events=None,
    worker_id: str = "",
) -> list:
    """Solve a topology group in one batch, committing each member's entry.

    The batched twin of :func:`repro.scenarios.runner.solve_and_commit`:
    each spec gets its own :class:`SolveCheckpoint` (resuming from any
    checkpoint already in the store), its own telemetry attribution and
    its own committed ``entry.json`` — written the moment that member
    converges, falls back, or fails, not at the batch barrier.

    ``aborts`` is an optional list of per-member zero-arg abort callables
    (the lease workers pass each member's heartbeat); a member whose abort
    fires is abandoned *uncommitted*, exactly like the sequential path,
    while the rest of the batch keeps solving.

    Returns one committed entry per spec, in order — ``None`` for
    abandoned members, which committed nothing.
    """
    specs = list(specs)
    if aborts is None:
        aborts = [None] * len(specs)
    if len(aborts) != len(specs):
        raise ValueError("need one abort hook (or None) per spec")
    keys = [spec.content_hash() for spec in specs]
    if len(set(keys)) != len(keys):
        raise ValueError("batched specs must have distinct content hashes")

    t0 = time.perf_counter()
    members = []
    resumed = {}
    by_key = {}
    for spec, key, abort in zip(specs, keys, aborts):
        store.save_spec(spec)
        config = spec.build_config()
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
        resumed[key] = checkpoint.exists()
        by_key[key] = spec
        members.append(
            BatchMember(
                key=key,
                model=spec.build_model(),
                config=config,
                checkpoint=checkpoint,
                events=events,
                worker=worker_id,
                scenario=store.scenario_key(spec),
            )
        )

    entries: dict = {}

    def commit(key: str, outcome) -> None:
        spec = by_key[key]
        wall = time.perf_counter() - t0
        if outcome.abandoned:
            # propagate-uncommitted: the scenario belongs to whoever stole
            # the claim; they resume from our last checkpoint
            entries[key] = None
            return
        if outcome.result is not None:
            entry = store.write_result(spec, outcome.result, wall, resumed=resumed[key])
            store.commit_entry(entry)
            if entry["status"] == "completed":
                store.checkpoint_ref(spec).unlink(missing_ok=True)
        else:
            entry = store.failure_entry(
                spec, "failed", wall, outcome.error or "batched solve failed",
                tb=outcome.traceback,
            )
            store.commit_entry(entry)
        entries[key] = entry

    solver = BatchedTimeIterationSolver(members, on_member_complete=commit)
    try:
        solver.solve()
    except SimulatedKill as exc:
        # the --interrupt-after testing hook (or a genuine Ctrl-C surfacing
        # through it): every still-running member checkpointed its last
        # completed iteration, so each resumes individually on the next run
        for spec, key in zip(specs, keys):
            if key not in entries:
                entry = store.failure_entry(
                    spec, "interrupted", time.perf_counter() - t0, str(exc)
                )
                store.commit_entry(entry)
                entries[key] = entry
    except Exception as exc:  # repro: allow[broad-except] -- one bad batch must not kill the suite
        logger.warning("batched solve failed: %s", exc)
        message = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        tb = traceback.format_exc()
        for spec, key in zip(specs, keys):
            if key not in entries:
                entry = store.failure_entry(
                    spec, "failed", time.perf_counter() - t0, message, tb=tb
                )
                store.commit_entry(entry)
                entries[key] = entry
    return [entries.get(key) for key in keys]

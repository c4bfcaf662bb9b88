"""Batched multi-scenario time iteration (one grid, many calibrations).

Sweep scenarios that share a grid topology — same state dimension, shock
count, policy count, grid level, kernel, no adaptivity — can run their time
iterations in lockstep over ONE shared regular grid: every iteration solves
a ``(n_scenarios, n_points)`` batch of equilibrium systems (stacked through
:meth:`repro.olg.model.OLGModel.stacked_group` when available), fits all
members' policies with one stacked hierarchization per shock state, and
masks members out of the batch as they converge.

Per-member contracts are preserved: each member keeps its own convergence
tolerance/metric/iteration cap, its own :class:`IterationRecord` history,
its own checkpoint hook (called after every iteration, exactly like the
sequential driver) and its own telemetry events.  A member that is not
stacked with others (a batch of one, a structural mismatch) gets its
per-state update from the same :func:`~repro.core.time_iteration.solve_points`
the sequential driver uses, so it returns the same bits as
:class:`TimeIterationSolver` on that member.  Members that cannot be
batched — adaptive configs, checkpoints from a different grid, non-finite
iterates — fall back to a :class:`TimeIterationSolver` of their own.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.policy import PolicySet, StatePolicy
from repro.core.time_iteration import (
    IterationRecord,
    TimeIterationConfig,
    TimeIterationModel,
    TimeIterationResult,
    TimeIterationSolver,
    initial_policy,
    record_iteration,
    solve_points,
)
from repro.grids.hierarchize import hierarchize
from repro.grids.regular import regular_sparse_grid
from repro.utils.logging import get_logger

__all__ = [
    "BatchMember",
    "MemberOutcome",
    "BatchedTimeIterationSolver",
    "batch_topology",
]

logger = get_logger("core.batched")


def batch_topology(model: TimeIterationModel, config: TimeIterationConfig):
    """Grid-topology signature deciding which solves may share a batch.

    Returns ``None`` for configurations that cannot be batched (adaptive
    refinement re-shapes grids per member); otherwise a hashable tuple —
    members with equal signatures run on one shared regular grid.
    """
    if config.adaptive:
        return None
    return (
        int(model.state_dim),
        int(model.num_states),
        int(model.num_policies),
        int(config.grid_level),
        str(config.kernel),
    )


@dataclass
class BatchMember:
    """One scenario's solve inside a batched run."""

    key: str
    model: TimeIterationModel
    config: TimeIterationConfig
    checkpoint: object | None = None
    events: object | None = None
    worker: str = ""
    scenario: str = ""


@dataclass
class MemberOutcome:
    """Terminal state of one member of a batched run."""

    result: TimeIterationResult | None
    fallback: bool = False
    fallback_reason: str | None = None
    abandoned: bool = False
    error: str | None = None
    traceback: str | None = None


class _AbandonedMember(Exception):
    """Internal marker: a member's checkpoint hook abandoned the solve."""

    def __init__(self, cause: BaseException) -> None:
        self.cause = cause


@dataclass
class _MemberState:
    member: BatchMember
    X: np.ndarray
    policy: PolicySet
    records: list[IterationRecord]
    start_iteration: int
    resumed: bool
    converged: bool = False
    passes: int = 0
    values: list[np.ndarray] = field(default_factory=list)

    @property
    def iteration(self) -> int:
        return self.start_iteration + self.passes


class BatchedTimeIterationSolver:
    """Runs several topology-sharing time iterations as one batch.

    Parameters
    ----------
    members
        The member solves.  All non-fallback members must share one
        :func:`batch_topology` signature; members whose configuration or
        checkpoint cannot be batched are solved sequentially instead
        (reported via :attr:`MemberOutcome.fallback`).
    on_member_complete
        Optional callback ``(key, outcome)`` invoked the moment a member
        finishes (converged, hit its iteration cap, or fell back), so
        callers can commit results eagerly instead of waiting for the
        whole batch.
    """

    def __init__(self, members: list[BatchMember], on_member_complete=None) -> None:
        if not members:
            raise ValueError("BatchedTimeIterationSolver needs at least one member")
        keys = [m.key for m in members]
        if len(set(keys)) != len(keys):
            raise ValueError("member keys must be unique")
        self.members = list(members)
        self.on_member_complete = on_member_complete
        self._group_cache: tuple[tuple[str, ...], object | None] | None = None

    # ------------------------------------------------------------------ #
    # member setup
    # ------------------------------------------------------------------ #
    def _emit(self, member: BatchMember, kind: str, **detail) -> None:
        if member.events is not None:
            member.events.emit(kind, member.worker, member.scenario, **detail)

    def _initial_state(self, member: BatchMember, grid) -> _MemberState:
        """Build (or resume) a member's iterate on the shared grid.

        Raises ``ValueError`` when the member's checkpoint was written on a
        different grid (refinement disagreement) — the caller turns that
        into a sequential fallback.
        """
        model = member.model
        X = model.domain.from_unit(grid.points)
        records: list[IterationRecord] = []
        resumed = False
        converged = False
        policy: PolicySet | None = None
        if member.checkpoint is not None:
            state = member.checkpoint.load()
            if state is not None:
                resumed = True
                records = list(state.records)
                converged = bool(state.converged)
                policy = self._reanchor(state.policy, grid)
        if policy is None:
            policy = initial_policy(model, grid, X, member.config.kernel)
        return _MemberState(
            member=member,
            X=X,
            policy=policy,
            records=records,
            start_iteration=records[-1].iteration if records else 0,
            resumed=resumed,
            converged=converged,
        )

    @staticmethod
    def _reanchor(policy: PolicySet, grid) -> PolicySet:
        """Move a deserialized policy onto the shared grid object.

        The points must match exactly (same regular grid, just a different
        object after the checkpoint round-trip); rebuilding via
        ``from_surplus`` keeps evaluations bit-identical while letting all
        members share the grid-attached caches.
        """
        policies = []
        for sp in policy:
            if not np.array_equal(sp.grid.points, grid.points):
                raise ValueError("checkpoint grid does not match the shared grid")
            policies.append(
                StatePolicy.from_surplus(
                    sp.state,
                    grid,
                    sp.interpolant.surplus,
                    sp.nodal_values,
                    sp.interpolant.domain,
                    kernel=sp.interpolant.kernel,
                )
            )
        return PolicySet(policies)

    # ------------------------------------------------------------------ #
    # batched point solves
    # ------------------------------------------------------------------ #
    def _group_solver(self, active: list[_MemberState]):
        """Cross-member stacked solver, rebuilt when membership changes."""
        key = tuple(ms.member.key for ms in active)
        if self._group_cache is not None and self._group_cache[0] == key:
            return self._group_cache[1]
        group = None
        models = [ms.member.model for ms in active]
        cls = type(models[0])
        if len(models) > 1 and all(type(m) is cls for m in models) and hasattr(
            cls, "stacked_group"
        ):
            try:
                group = cls.stacked_group(models, [ms.X.shape[0] for ms in active])
            except ValueError as exc:
                logger.info("stacked group unavailable (%s); per-member batching", exc)
        self._group_cache = (key, group)
        return group

    def _solve_pass(self, active: list[_MemberState], num_states: int) -> None:
        """One lockstep sweep: fill ``ms.values`` for every active member."""
        group = self._group_solver(active)
        for ms in active:
            ms.values = []
        for z in range(num_states):
            # every member's policy sits on the shared grid, so its nodal
            # values are what values_on_grid returns for it
            guesses = [
                ms.policy[z].nodal_values if ms.member.config.warm_start else None
                for ms in active
            ]
            if group is not None:
                blocks = group.solve_points(
                    z, [ms.X for ms in active], [ms.policy for ms in active], guesses
                )
            else:
                blocks = [
                    solve_points(ms.member.model, z, ms.X, ms.policy, guess)
                    for ms, guess in zip(active, guesses)
                ]
            for ms, block in zip(active, blocks):
                ms.values.append(np.asarray(block, dtype=float))

    def _fit_pass(self, active: list[_MemberState], grid, num_states: int) -> dict:
        """Stacked hierarchization: one fit per shock state for all members."""
        new_policies: dict[str, list[StatePolicy]] = {ms.member.key: [] for ms in active}
        for z in range(num_states):
            for ms in active:
                damping = ms.member.config.damping
                if damping < 1.0:
                    ms.values[z] = damping * ms.values[z] + (
                        1.0 - damping
                    ) * ms.policy[z].nodal_values
            stacked = np.concatenate([ms.values[z] for ms in active], axis=1)
            surplus = hierarchize(grid, stacked)
            col = 0
            for ms in active:
                width = ms.values[z].shape[1]
                new_policies[ms.member.key].append(
                    StatePolicy.from_surplus(
                        z,
                        grid,
                        surplus[:, col : col + width],
                        ms.values[z],
                        ms.member.model.domain,
                        kernel=ms.member.config.kernel,
                    )
                )
                col += width
        return new_policies

    # ------------------------------------------------------------------ #
    # the batched solve
    # ------------------------------------------------------------------ #
    def solve(self) -> dict[str, MemberOutcome]:
        """Run all members to completion; returns one outcome per key."""
        outcomes: dict[str, MemberOutcome] = {}
        fallback: list[tuple[BatchMember, str]] = []

        batchable: list[BatchMember] = []
        topologies = {}
        for member in self.members:
            sig = batch_topology(member.model, member.config)
            if sig is None:
                fallback.append((member, "adaptive refinement"))
            else:
                topologies.setdefault(sig, []).append(member)
        if topologies:
            # one batch per driver: the scenarios layer partitions suites by
            # signature, so a mixed set here means the caller skipped that —
            # batch the largest group, fall back the rest
            sig = max(topologies, key=lambda s: len(topologies[s]))
            batchable = topologies.pop(sig)
            for others in topologies.values():
                fallback.extend((m, "topology mismatch") for m in others)

        states: list[_MemberState] = []
        if batchable:
            model = batchable[0].model
            config = batchable[0].config
            grid = regular_sparse_grid(model.state_dim, config.grid_level)
            for member in batchable:
                try:
                    ms = self._initial_state(member, grid)
                except ValueError as exc:
                    fallback.append((member, str(exc)))
                    continue
                self._emit(
                    member,
                    "solve-started",
                    start_iteration=ms.start_iteration,
                    resumed=ms.resumed,
                    tolerance=float(member.config.tolerance),
                    max_iterations=int(member.config.max_iterations),
                    metric=member.config.convergence_metric,
                    adaptive=False,
                    grid_level=int(member.config.grid_level),
                    batched=True,
                )
                if ms.converged:
                    # resumed from an already-converged checkpoint
                    self._emit(
                        member,
                        "solve-finished",
                        iterations=len(ms.records),
                        new_iterations=0,
                        converged=True,
                        wall_time=0.0,
                    )
                    self._finish(
                        outcomes,
                        member.key,
                        MemberOutcome(
                            TimeIterationResult(
                                policy=ms.policy,
                                records=ms.records,
                                converged=True,
                                config=member.config,
                            )
                        ),
                    )
                    continue
                states.append(ms)

            self._run_batch(states, grid, model.num_states, outcomes, fallback)

        for member, reason in fallback:
            outcomes[member.key] = self._solve_fallback(member, reason)
            if self.on_member_complete is not None:
                self.on_member_complete(member.key, outcomes[member.key])
        return outcomes

    def _run_batch(
        self,
        states: list[_MemberState],
        grid,
        num_states: int,
        outcomes: dict[str, MemberOutcome],
        fallback: list[tuple[BatchMember, str]],
    ) -> None:
        active = list(states)
        while active:
            t0 = time.perf_counter()
            self._solve_pass(active, num_states)
            solve_wall = time.perf_counter() - t0

            diverged = [
                ms
                for ms in active
                if not all(np.all(np.isfinite(v)) for v in ms.values)
            ]
            for ms in diverged:
                active.remove(ms)
                fallback.append((ms.member, "non-finite iterate"))
            if not active:
                break

            t1 = time.perf_counter()
            new_policies = self._fit_pass(active, grid, num_states)
            fit_wall = time.perf_counter() - t1
            shared_wall = (solve_wall + fit_wall) / len(active)

            still_active: list[_MemberState] = []
            for ms in active:
                member = ms.member
                cfg = member.config
                new_policy = PolicySet(new_policies[member.key])
                ms.passes += 1
                iteration = ms.iteration
                sections = {"solve": solve_wall / len(active), "fit": fit_wall / len(active)}
                emit = partial(self._emit, member)
                record, metric_value = record_iteration(
                    emit, cfg, iteration, new_policy, ms.policy, shared_wall, sections
                )
                ms.records.append(record)
                ms.policy = new_policy
                converged = bool(metric_value < cfg.tolerance)
                if converged:
                    self._emit(
                        member,
                        "converged",
                        iteration=int(iteration),
                        error=float(metric_value),
                    )
                try:
                    if member.checkpoint is not None:
                        member.checkpoint.on_iteration(
                            ms.policy, ms.records, converged, cfg
                        )
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    # deferred import: repro.core must not pull the scenario
                    # layer in at module load (checkpoint imports core)
                    from repro.scenarios.checkpoint import SolveAbandoned

                    # isinstance, not a name compare: LeaseLost subclasses
                    # SolveAbandoned and must take the abandon path too
                    if isinstance(exc, SolveAbandoned):
                        self._finish(
                            outcomes,
                            member.key,
                            MemberOutcome(None, abandoned=True),
                        )
                        continue
                    raise
                if converged or iteration >= cfg.max_iterations:
                    self._complete_member(ms, converged, outcomes)
                else:
                    still_active.append(ms)
            active = still_active

    def _complete_member(
        self, ms: _MemberState, converged: bool, outcomes: dict[str, MemberOutcome]
    ) -> None:
        member = ms.member
        if member.checkpoint is not None:
            member.checkpoint.on_complete(ms.policy, ms.records, converged, member.config)
        self._emit(
            member,
            "solve-finished",
            iterations=len(ms.records),
            new_iterations=ms.passes,
            converged=converged,
            wall_time=float(sum(r.wall_time for r in ms.records[-ms.passes :]))
            if ms.passes
            else 0.0,
        )
        self._finish(
            outcomes,
            member.key,
            MemberOutcome(
                TimeIterationResult(
                    policy=ms.policy,
                    records=ms.records,
                    converged=converged,
                    config=member.config,
                )
            ),
        )

    def _finish(self, outcomes: dict, key: str, outcome: MemberOutcome) -> None:
        outcomes[key] = outcome
        if self.on_member_complete is not None:
            self.on_member_complete(key, outcome)

    def _solve_fallback(self, member: BatchMember, reason: str) -> MemberOutcome:
        """Per-scenario solve with the sequential driver (adaptive grids, foreign checkpoints)."""
        logger.info("batch fallback for %s: %s", member.key, reason)
        solver = TimeIterationSolver(member.model, member.config)
        try:
            result = solver.solve(
                checkpoint=member.checkpoint,
                events=member.events,
                worker=member.worker,
                scenario=member.scenario,
            )
        except KeyboardInterrupt:
            raise
        except Exception as exc:  # repro: allow[broad-except] -- failure lands in the outcome
            from repro.scenarios.checkpoint import SolveAbandoned

            # isinstance, not a name compare: a LeaseLost (SolveAbandoned
            # subclass) must abandon, never be recorded as a plain failure
            # that a later commit could race the lease thief with
            if isinstance(exc, SolveAbandoned):
                return MemberOutcome(
                    None, fallback=True, fallback_reason=reason, abandoned=True
                )
            # one bad member must not take down the other fallbacks: report
            # the failure in the outcome (mirrors the per-scenario error
            # handling of the sequential runner)
            return MemberOutcome(
                None,
                fallback=True,
                fallback_reason=reason,
                error="".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip(),
                traceback=traceback.format_exc(),
            )
        return MemberOutcome(result, fallback=True, fallback_reason=reason)

"""The time-iteration loop (paper Algorithm 1) over a group of members.

There is one loop.  A *member* is one solve — a model, its configuration
and optionally a checkpoint hook, an event sink, a warm start — and every
pass of :meth:`BatchedTimeIterationSolver.solve` updates each active member
once, then runs the same per-member block for all of them: iteration
record and ``iteration`` event, equilibrium errors, ``refined``,
``converged``, the checkpoint hook, completion.  A single solve is a group
of one (:meth:`repro.core.time_iteration.TimeIterationSolver.solve`).

Every update is :func:`repro.core.time_iteration.update`, the pass of
Algorithm 1 over a list of members.  Two or more members that share a grid
topology — state dimension, shock count, policy count, grid level; no
adaptivity — form a *stack*: they iterate in lockstep on ONE shared
regular grid, every pass one ``update`` call — a ``(n_members, n_states,
n_points)`` batch of equilibrium systems in one point solve (through
:meth:`repro.olg.model.OLGModel.stacked_group` when available), all
members' policies in one hierarchization per shock state — and drop out as
they converge.  Every other member is a list of one, through its own
:meth:`~repro.core.time_iteration.TimeIterationSolver.step`: a group of
one, and — reported as :attr:`MemberOutcome.fallback_reason` — an adaptive
configuration, a topology minority, a start policy on another grid.  A
non-finite iterate is no reason to leave the stack: an update is a
deterministic function of the previous iterate, so redoing it alone returns
the same bits; the member stays and ends, unconverged, at its iteration cap.

Either way each member has its own tolerance/metric/iteration cap, record
history, checkpoint hook (called after every iteration) and events.  An
exception from a member's own hooks or alone step ends that member only
and rides on its outcome; what it means (a failure, an abandoned claim) is
the caller's call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.core.policy import PolicySet, StatePolicy
from repro.core.time_iteration import (
    IterationRecord,
    TimeIterationConfig,
    TimeIterationModel,
    TimeIterationResult,
    TimeIterationSolver,
    update,
)

# the fit is in ``update``; benchmarks/ledger/test_ledger.py (frozen) reads the name here
from repro.grids.hierarchize import hierarchize  # noqa: F401
from repro.utils.logging import get_logger
from repro.utils.timing import WallClock

__all__ = [
    "BatchMember",
    "MemberOutcome",
    "BatchedTimeIterationSolver",
    "batch_topology",
]

logger = get_logger("core.batched")


def batch_topology(model: TimeIterationModel, config: TimeIterationConfig):
    """Grid-topology signature deciding which solves may share a stack.

    Returns ``None`` for configurations that cannot be stacked (adaptive
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
    )


def _solver_totals(model: TimeIterationModel) -> dict:
    """The model's running point-solve totals (optional ``solver_totals()``), else none."""
    totals = getattr(model, "solver_totals", None)
    return totals() if totals is not None else {}


@dataclass
class BatchMember:
    """One solve inside a group: what :meth:`TimeIterationSolver.solve` takes, per member.

    ``solver`` is the member's step provider, ``TimeIterationSolver(model,
    config)`` when omitted.
    """

    key: str
    model: TimeIterationModel
    config: TimeIterationConfig
    checkpoint: object | None = None
    events: object | None = None
    worker: str = ""
    scenario: str = ""
    initial_policy: PolicySet | None = None
    error_sample: np.ndarray | None = None
    solver: TimeIterationSolver | None = None


@dataclass
class MemberOutcome:
    """Terminal state of one member: its result, or the exception that ended it."""

    result: TimeIterationResult | None
    fallback_reason: str | None = None  # why a member that could have been stacked ran alone
    exception: Exception | None = None  # carries its message and ``__traceback__``

    @property
    def fallback(self) -> bool:
        return self.fallback_reason is not None


@dataclass
class _MemberState:
    member: BatchMember
    solver: TimeIterationSolver
    policy: PolicySet
    records: list[IterationRecord]
    resumed: bool
    converged: bool
    loaded: int  # records that came with the checkpoint
    totals_before: dict  # the model's point-solve totals when this solve started
    reason: str | None = None  # why the member never joined the stack
    stacked: bool = False
    update: tuple[PolicySet, float, dict] | None = None  # this pass: policy, wall, sections

    @property
    def iteration(self) -> int:
        return self.records[-1].iteration if self.records else 0

    def emit(self, kind: str, **detail) -> None:
        member = self.member
        if member.events is not None:
            member.events.emit(kind, member.worker, member.scenario, **detail)


class BatchedTimeIterationSolver:
    """Runs the time iterations of a group of members to completion.

    Parameters
    ----------
    members
        The member solves, with unique keys.  Members sharing the most
        common :func:`batch_topology` signature are stacked when there are
        at least two of them; the rest step alone (see the module
        docstring).
    on_member_complete
        Optional callback ``(key, outcome)`` invoked the moment a member
        finishes (converged, hit its iteration cap, or was ended by an
        exception of its own), so callers can commit results eagerly
        instead of waiting for the whole group.
    """

    def __init__(self, members: list[BatchMember], on_member_complete=None) -> None:
        if not members:
            raise ValueError("BatchedTimeIterationSolver needs at least one member")
        keys = [m.key for m in members]
        if len(set(keys)) != len(keys):
            raise ValueError("member keys must be unique")
        self.members = list(members)
        self.on_member_complete = on_member_complete
        self._outcomes: dict[str, MemberOutcome] = {}
        self._group_cache: tuple[tuple[str, ...], object | None] | None = None

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def solve(self) -> dict[str, MemberOutcome]:
        """Run all members to completion; returns one outcome per key."""
        self._outcomes.clear()
        active = self._start()
        while active:
            stack = [ms for ms in active if ms.stacked]
            if stack:
                self._stacked_update(stack)
            for ms in active:
                with self._own(ms.member, ms.reason):
                    if not ms.stacked:
                        self._alone_update(ms)
                    self._advance(ms)
            active = [ms for ms in active if ms.member.key not in self._outcomes]
        return self._outcomes

    @contextmanager
    def _own(self, member: BatchMember, reason: str | None = None):
        """What the member's own hooks, model or alone step raise ends that member only."""
        try:
            yield
        except Exception as exc:  # rides on the member's outcome, for the caller to judge
            if member.key in self._outcomes:
                raise  # on_member_complete failed: the caller's error, not the member's
            self._finish(member, MemberOutcome(None, reason, exception=exc))

    def _finish(self, member: BatchMember, outcome: MemberOutcome) -> None:
        if outcome.fallback:
            logger.info("member %s ran unstacked: %s", member.key, outcome.fallback_reason)
        self._outcomes[member.key] = outcome
        if self.on_member_complete is not None:
            self.on_member_complete(member.key, outcome)

    # ------------------------------------------------------------------ #
    # start: resume or initial policy, stack formation, solve-started
    # ------------------------------------------------------------------ #
    def _start(self) -> list[_MemberState]:
        states: list[_MemberState] = []
        for member in self.members:
            with self._own(member):
                states.append(self._load(member))
        self._form_stack(states)
        active = []
        for ms in states:
            cfg = ms.member.config
            with self._own(ms.member, ms.reason):
                ms.emit(
                    "solve-started",
                    start_iteration=ms.iteration,
                    resumed=ms.resumed,
                    tolerance=float(cfg.tolerance),
                    max_iterations=int(cfg.max_iterations),
                    metric=cfg.convergence_metric,
                    adaptive=bool(cfg.adaptive),
                    grid_level=int(cfg.grid_level),
                    batched=ms.stacked,
                )
                if ms.converged or ms.iteration >= cfg.max_iterations:
                    self._complete(ms)  # the checkpoint left nothing to iterate
                else:
                    active.append(ms)
        return active

    @staticmethod
    def _load(member: BatchMember) -> _MemberState:
        """The member's starting iterate: its checkpoint's, else its warm start, else ``p^0``."""
        solver = member.solver or TimeIterationSolver(member.model, member.config)
        state = member.checkpoint.load() if member.checkpoint is not None else None
        if state is not None:
            policy, records = state.policy, list(state.records)
        else:
            policy, records = member.initial_policy, []
        return _MemberState(
            member=member,
            solver=solver,
            policy=policy if policy is not None else solver.initial_policy(),
            records=records,
            resumed=state is not None,
            converged=bool(state.converged) if state is not None else False,
            loaded=len(records),
            totals_before=_solver_totals(member.model),
        )

    def _form_stack(self, states: list[_MemberState]) -> None:
        """Stack the members of the most common topology; say why the others step alone."""
        by_signature: dict = {}
        for ms in states:
            signature = batch_topology(ms.member.model, ms.member.config)
            if signature is None:
                ms.reason = "adaptive refinement"
            else:
                by_signature.setdefault(signature, []).append(ms)
        # callers group by signature (the scenarios layer partitions suites),
        # so a mixed set means the caller skipped that: stack the largest
        candidates = max(by_signature.values(), key=len, default=[])
        for others in by_signature.values():
            if others is not candidates:
                for ms in others:
                    ms.reason = "topology mismatch"
        if len(candidates) < 2:
            return
        first = candidates[0].solver
        grid = first._regular_grid(first.config.grid_level)
        stack = []
        for ms in candidates:
            try:
                ms.policy = self._reanchor(ms.policy, grid)
            except ValueError as exc:
                ms.reason = str(exc)
            else:
                stack.append(ms)
        if len(stack) >= 2:
            for ms in stack:
                ms.stacked = True
                ms.solver._grid_cache = first._grid_cache  # update() hands them this grid

    @staticmethod
    def _reanchor(policy: PolicySet, grid) -> PolicySet:
        """Move a policy onto the shared grid object.

        The points must match exactly (the same regular grid, just another
        object — a member's own, or one from a checkpoint round-trip);
        rebuilding via ``from_surplus`` keeps evaluations bit-identical
        while letting all members share the grid-attached caches.
        """
        policies = []
        for sp in policy:
            if not np.array_equal(sp.grid.points, grid.points):
                raise ValueError("checkpoint grid does not match the shared grid")
            policies.append(
                StatePolicy.from_surplus(
                    sp.state, grid, sp.interpolant.surplus, sp.nodal_values, sp.interpolant.domain
                )
            )
        return PolicySet(policies)

    # ------------------------------------------------------------------ #
    # the update: one pass, alone or as a stack
    # ------------------------------------------------------------------ #
    def _alone_update(self, ms: _MemberState) -> None:
        """One :meth:`TimeIterationSolver.step` of the member's own."""
        clock = WallClock()
        t0 = time.perf_counter()
        new_policy = ms.solver.step(ms.policy, clock)
        ms.update = (new_policy, time.perf_counter() - t0, clock.as_dict())

    def _stacked_update(self, stack: list[_MemberState]) -> None:
        """One lockstep pass of the stack; every member books an equal share of its wall."""
        clock = WallClock()
        t0 = time.perf_counter()
        members = [(ms.solver, ms.policy) for ms in stack]
        new_policies = update(members, self._group_solver(stack), clock)
        share = 1.0 / len(stack)
        wall = (time.perf_counter() - t0) * share
        for ms, new_policy in zip(stack, new_policies):
            sections = {name: seconds * share for name, seconds in clock.sections.items()}
            ms.update = (new_policy, wall, sections)

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
                # a member's rows: the shared grid's points, once per shock state
                group = cls.stacked_group(models, [ms.policy.total_points for ms in active])
            except ValueError as exc:
                logger.info("stacked group unavailable (%s); per-member batching", exc)
        self._group_cache = (key, group)
        return group

    # ------------------------------------------------------------------ #
    # after the update: the one per-member block
    # ------------------------------------------------------------------ #
    def _advance(self, ms: _MemberState) -> None:
        """Book the member's update of this pass; complete the member when it is done."""
        member, cfg = ms.member, ms.member.config
        new_policy, wall, sections = ms.update
        iteration = ms.iteration + 1
        change = new_policy.distance(ms.policy)
        metric_value = change[cfg.convergence_metric]
        record = IterationRecord(
            iteration=iteration,
            policy_change_linf=change["linf"],
            policy_change_l2=change["l2"],
            policy_change_rel_linf=change["rel_linf"],
            policy_change_rel_l2=change["rel_l2"],
            points_per_state=new_policy.points_per_state,
            wall_time=wall,
            sections=sections,
        )
        ms.emit(
            "iteration",
            iteration=int(iteration),
            error_linf=float(change["linf"]),
            error_l2=float(change["l2"]),
            error=float(metric_value),
            points=int(record.total_points),
            wall_time=float(wall),
        )
        if member.error_sample is not None and hasattr(member.model, "equilibrium_errors"):
            record.equilibrium_errors = member.model.equilibrium_errors(
                new_policy, member.error_sample
            )
        if cfg.adaptive and ms.records and record.total_points != ms.records[-1].total_points:
            ms.emit(
                "refined",
                iteration=int(iteration),
                points_before=int(ms.records[-1].total_points),
                points_after=int(record.total_points),
            )
        ms.records.append(record)
        ms.policy = new_policy
        ms.converged = bool(metric_value < cfg.tolerance)
        if ms.converged:
            ms.emit("converged", iteration=int(iteration), error=float(metric_value))
        if member.checkpoint is not None:
            member.checkpoint.on_iteration(ms.policy, ms.records, ms.converged, cfg)
        if ms.converged or iteration >= cfg.max_iterations:
            self._complete(ms)

    def _complete(self, ms: _MemberState) -> None:
        member, cfg = ms.member, ms.member.config
        new = ms.records[ms.loaded :]
        if member.checkpoint is not None:
            member.checkpoint.on_complete(ms.policy, ms.records, ms.converged, cfg)
        ms.emit(
            "solve-finished",
            iterations=len(ms.records),
            new_iterations=len(new),
            converged=ms.converged,
            wall_time=float(sum(r.wall_time for r in new)),
            solver={
                name: total - ms.totals_before.get(name, 0)
                for name, total in _solver_totals(member.model).items()
            },
        )
        result = TimeIterationResult(
            policy=ms.policy, records=ms.records, converged=ms.converged, config=cfg
        )
        self._finish(member, MemberOutcome(result, ms.reason))

"""The time-iteration loop (paper Algorithm 1) over a group of members.

There is one loop.  A *member* is one solve — a model, its configuration
and optionally a checkpoint hook, an event sink, a warm start — and every
pass of :meth:`BatchedTimeIterationSolver.solve` updates each active member
once, then runs the same per-member block for all of them: iteration
record and ``iteration`` event, equilibrium errors, ``refined``,
``converged``, the checkpoint hook, completion.  A single solve is a group
of one (:meth:`repro.core.time_iteration.TimeIterationSolver.solve`).

Every update is :func:`repro.core.time_iteration.update`, the pass of
Algorithm 1 over a list of members, and the loop stacks whatever it is
given: two or more members iterate in lockstep, every pass one ``update``
call over the members still active — on the first one's regular grid, a
``(n_members, n_states, n_points)`` batch of equilibrium systems in one
point solve (through the group the pass builds with the model class's
``stacked_group`` when it has one, e.g.
:meth:`repro.olg.model.OLGModel.stacked_group`; per member otherwise), all
members' policies in one hierarchization per shock state — and drop out as
they converge.  A group of one is a stack of one, and the only place an
adaptive solve runs.  Which solves share a stack is the caller's decision
(the scenario drain groups by
:func:`repro.scenarios.batching.topology_signature`); the constructor
refuses a group that cannot share one.  A non-finite iterate is no reason
to leave the stack: an update is a deterministic function of the previous
iterate, so redoing it alone returns the same bits; the member stays and
ends, unconverged, at its iteration cap.

Each member has its own tolerance/metric/iteration cap, record history,
checkpoint hook (called after every iteration) and events.  An exception
from a member's own hooks ends that member only and rides on its outcome;
what it means (a failure, an abandoned claim) is the caller's call.
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
from repro.utils.timing import WallClock

__all__ = ["BatchMember", "MemberOutcome", "BatchedTimeIterationSolver"]


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
    exception: Exception | None = None  # carries its message and ``__traceback__``

    #: always ``False``: every member runs in the stack it is given
    #: (benchmarks/ledger/layers.py, frozen, still counts it)
    fallback = False


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
    update: tuple[PolicySet, float, dict] | None = None  # this pass: policy, wall, sections

    @property
    def iteration(self) -> int:
        return self.records[-1].iteration if self.records else 0

    def emit(self, kind: str, **detail) -> None:
        member = self.member
        if member.events is not None:
            member.events.emit(kind, member.worker, member.scenario, **detail)


class BatchedTimeIterationSolver:
    """Runs the time iterations of a group of members, stacked, to completion.

    Parameters
    ----------
    members
        The member solves, with unique keys.  Two or more iterate as one
        stack (see the module docstring), so they must share one regular
        grid and one structure: adaptive members, members on different
        grids (state dimension, shock count, level) and models their class's
        ``stacked_group`` refuses raise ``ValueError`` here, before any
        member loads a checkpoint or emits an event.
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
        if len(self.members) > 1:
            if any(m.config.adaptive for m in self.members):
                raise ValueError("adaptive solves do not stack: each refines its own grids")
            grids = {(m.model.state_dim, m.model.num_states, m.config.grid_level) for m in members}
            if len(grids) > 1:
                raise ValueError(f"the members of a stack need one grid, got {sorted(grids)}")
            stacked_group = getattr(type(members[0].model), "stacked_group", None)
            if stacked_group is not None:  # the model class's own structural check, on no rows
                stacked_group([m.model for m in members], [0] * len(members))

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def solve(self) -> dict[str, MemberOutcome]:
        """Run all members to completion; returns one outcome per key."""
        self._outcomes.clear()
        active = self._start()
        while active:
            self._update(active)
            for ms in active:
                with self._own(ms.member):
                    self._advance(ms)
            active = [ms for ms in active if ms.member.key not in self._outcomes]
        return self._outcomes

    @contextmanager
    def _own(self, member: BatchMember):
        """What the member's own hooks or model raise ends that member only."""
        try:
            yield
        except Exception as exc:  # rides on the member's outcome, for the caller to judge
            if member.key in self._outcomes:
                raise  # on_member_complete failed: the caller's error, not the member's
            self._finish(member, MemberOutcome(None, exception=exc))

    def _finish(self, member: BatchMember, outcome: MemberOutcome) -> None:
        self._outcomes[member.key] = outcome
        if self.on_member_complete is not None:
            self.on_member_complete(member.key, outcome)

    # ------------------------------------------------------------------ #
    # start: resume or initial policy, the shared grid, solve-started
    # ------------------------------------------------------------------ #
    def _start(self) -> list[_MemberState]:
        """Load every member; re-anchor a stack's start policies onto its first member's grid."""
        states: list[_MemberState] = []
        for member in self.members:
            with self._own(member):
                states.append(self._load(member))
        stacked = len(self.members) > 1
        active = []
        for ms in states:
            cfg = ms.member.config
            with self._own(ms.member):
                if stacked:  # one grid object, so the first pass reads them in one basis pass
                    grid = states[0].solver._regular_grid(cfg.grid_level)
                    ms.policy = self._reanchor(ms.policy, grid)
                ms.emit(
                    "solve-started",
                    start_iteration=ms.iteration,
                    resumed=ms.resumed,
                    tolerance=float(cfg.tolerance),
                    max_iterations=int(cfg.max_iterations),
                    metric=cfg.convergence_metric,
                    adaptive=bool(cfg.adaptive),
                    grid_level=int(cfg.grid_level),
                    batched=stacked,
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

    @staticmethod
    def _reanchor(policy: PolicySet, grid) -> PolicySet:
        """Move a policy onto the shared grid object.

        The points must match exactly (the same regular grid, just another
        object — a member's own, or one from a checkpoint round-trip);
        rebuilding via ``from_surplus`` keeps evaluations bit-identical
        while letting all members share the grid-attached caches.  A start
        policy on another grid ends its member with this ``ValueError``.
        """
        policies = []
        for sp in policy:
            if not np.array_equal(sp.grid.points, grid.points):
                raise ValueError("start policy grid does not match the shared grid")
            policies.append(
                StatePolicy.from_surplus(
                    sp.state, grid, sp.interpolant.surplus, sp.nodal_values, sp.interpolant.domain
                )
            )
        return PolicySet(policies)

    # ------------------------------------------------------------------ #
    # the update: one pass of the stack
    # ------------------------------------------------------------------ #
    def _update(self, stack: list[_MemberState]) -> None:
        """One lockstep pass of the active members, one ``update`` call that decides their
        grid and group solver; every member books an equal share of its wall."""
        clock = WallClock()
        t0 = time.perf_counter()
        new_policies = update([(ms.solver, ms.policy) for ms in stack], clock)
        share = 1.0 / len(stack)
        wall = (time.perf_counter() - t0) * share
        for ms, new_policy in zip(stack, new_policies):
            sections = {name: seconds * share for name, seconds in clock.sections.items()}
            ms.update = (new_policy, wall, sections)

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
        self._finish(member, MemberOutcome(result))

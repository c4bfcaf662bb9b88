"""The (parallel) time iteration algorithm (paper Algorithm 1, Sec. IV).

Time iteration computes a time-invariant policy function by repeatedly
solving the period-to-period equilibrium conditions on a grid, taking the
previous iterate as next period's policy, until the policy stops changing.

This module holds the algorithm's pass, model-agnostic: the
:class:`TimeIterationModel` protocol (the stochastic OLG model of
:mod:`repro.olg` is the paper's application; tests also use small synthetic
models), the configuration and record types, :class:`TimeIterationSolver`
— one member: a model, its configuration, its grids — and :func:`update`,
the one pass every caller runs: the grid points of every shock state of
every member are rows of one point solve (the shock state is a per-row
argument of the model's vectorized ``solve_points_batch``), an adaptive
member adds one point solve per refinement round, and one hierarchization
per shock state fits the result.  A solo step
(:meth:`TimeIterationSolver.step`) is that pass on a list of one; a stack
of :mod:`repro.core.batched` is the same pass on several members, which
decides what they share itself: the first member's grid objects and,
when the model class has ``stacked_group``, a group solver built from the
pass's own row counts.  This module is model-agnostic: which models
may share a stack is the caller's decision (for OLG solves, their
``structure_key`` and grid level).  Fig. 7 times that point solve over the rows of a first
step (:func:`repro.experiments.fig7.step_rows`).
The iteration loop itself — start or resume, convergence, checkpoints,
events — exists once, in :mod:`repro.core.batched`, over a group of
members; :meth:`TimeIterationSolver.solve` runs it on a group of one.

In the non-adaptive configuration every state and every iteration uses the
*same* regular sparse grid, so the solver keeps one cached
:class:`~repro.grids.grid.SparseGrid` per ``(dim, level)`` and reuses it
across states and iterations.  Because the grid object is shared and never
mutated, its attached caches — the hierarchization ancestor structure and
the compressed kernel representation — are built exactly once per solve
instead of once per state per iteration.  (An adaptive step copies the
previous state grid before refining it, which starts a fresh cache epoch.)
Consequently the policies of a non-adaptive result share one grid object
across states; callers who want to refine a returned policy's grid should
refine a ``grid.copy()`` (as the adaptive step itself does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.core.policy import PolicySet, StatePolicy, values_on_grid
from repro.grids.adaptive import refine
from repro.grids.domain import BoxDomain
from repro.grids.grid import SparseGrid
from repro.grids.hierarchize import hierarchize
from repro.grids.regular import regular_sparse_grid
from repro.utils.timing import WallClock

__all__ = [
    "TimeIterationModel",
    "TimeIterationConfig",
    "IterationRecord",
    "TimeIterationResult",
    "TimeIterationSolver",
    "update",
]


class TimeIterationModel(Protocol):
    """Protocol a model must satisfy to be solved by time iteration."""

    @property
    def num_states(self) -> int:
        """Number of discrete shock states ``Ns``."""

    @property
    def state_dim(self) -> int:
        """Dimension ``d`` of the continuous state."""

    @property
    def num_policies(self) -> int:
        """Number of policy coefficients approximated per grid point."""

    @property
    def domain(self) -> BoxDomain:
        """Box of the continuous state."""

    def initial_policy_values(self, z: int, X: np.ndarray) -> np.ndarray:
        """Initial-guess nodal policy values at points ``X`` for state ``z``."""

    def solve_points_batch(
        self, z, X: np.ndarray, policy_next: PolicySet, guesses: np.ndarray | None = None
    ) -> np.ndarray:
        """Solve the equilibrium conditions at every row of ``X``: ``z`` is one state for all
        rows or an int array with one state per row.  Called once per pass for the rows of
        all shock states, and once per refinement round."""

    def equilibrium_errors(self, policy: PolicySet, sample: np.ndarray) -> dict:
        """Residual-based accuracy metrics of a candidate policy (optional)."""

    # Optional: ``solver_totals()`` returning the model's running point-solve
    # counts by name; a solve reports their growth on ``solve-finished``.


#: the entries of :meth:`repro.core.policy.PolicySet.distance` a solve can stop on
CONVERGENCE_METRICS = ("linf", "l2", "rel_linf", "rel_l2")


@dataclass
class TimeIterationConfig:
    """Configuration of the time iteration driver.

    Parameters
    ----------
    grid_level
        Level of the initial regular sparse grid per state, ``>= 1``.
    tolerance
        Convergence tolerance on the policy change, ``>= 0``.
    max_iterations
        Iteration cap, ``>= 1`` (time iteration converges only linearly,
        paper Fig. 9).
    adaptive
        Whether to adaptively refine the per-state grids inside each step.
    refine_epsilon
        Surplus threshold for adaptive refinement, ``>= 0``.
    max_refine_level
        Cap on the 1-D refinement level (the paper uses ``L_max = 6``).
    max_points_per_state
        Refinement of a state stops once its grid has reached this many
        points; the last round may overshoot (a round is never cut short:
        that would break the grid's hierarchical consistency).
    convergence_metric
        Which entry of :meth:`repro.core.policy.PolicySet.distance` stops
        the iteration: ``"rel_linf"`` (default; scale-free, robust when
        value functions dwarf savings), ``"linf"``, ``"l2"`` or ``"rel_l2"``.
    """

    grid_level: int = 2
    tolerance: float = 1e-4
    max_iterations: int = 100
    convergence_metric: str = "rel_linf"
    adaptive: bool = False
    refine_epsilon: float = 1e-2
    max_refine_level: int = 6
    max_points_per_state: int = 2_000

    def __post_init__(self) -> None:
        metric = self.convergence_metric
        if metric not in CONVERGENCE_METRICS:
            raise ValueError(f"convergence_metric {metric!r} is not one of {CONVERGENCE_METRICS}")
        if not self.tolerance >= 0.0:  # NaN or < 0 never stops, and would run to the cap
            raise ValueError(f"tolerance {self.tolerance!r} is not >= 0")
        if self.max_iterations < 1:  # would commit a solve that never iterated
            raise ValueError(f"max_iterations {self.max_iterations!r} is not >= 1")
        if self.grid_level < 1:  # the first grid of the solve would fail to build
            raise ValueError(f"grid_level {self.grid_level!r} is not >= 1")
        if not self.refine_epsilon >= 0.0:  # < 0 fails after a pass; NaN never refines
            raise ValueError(f"refine_epsilon {self.refine_epsilon!r} is not >= 0")


@dataclass
class IterationRecord:
    """Per-iteration diagnostics collected by the driver."""

    iteration: int
    policy_change_linf: float
    policy_change_l2: float
    points_per_state: list[int]
    wall_time: float
    policy_change_rel_linf: float = float("nan")
    policy_change_rel_l2: float = float("nan")
    sections: dict[str, float] = field(default_factory=dict)
    equilibrium_errors: dict = field(default_factory=dict)

    @property
    def total_points(self) -> int:
        return int(sum(self.points_per_state))


@dataclass
class TimeIterationResult:
    """Outcome of a time iteration run."""

    policy: PolicySet
    records: list[IterationRecord]
    converged: bool
    config: TimeIterationConfig

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def final_error(self) -> float:
        return self.records[-1].policy_change_linf if self.records else float("nan")

    def error_history(self, metric: str = "linf") -> np.ndarray:
        """Policy-change history (the series plotted in Fig. 9, right panel).

        ``metric`` is one of ``linf``, ``l2``, ``rel_linf``, ``rel_l2``.
        """
        key = f"policy_change_{metric}"
        return np.asarray([getattr(r, key) for r in self.records], dtype=float)

    def cumulative_time(self) -> np.ndarray:
        """Cumulative wall time per iteration (Fig. 9, left panel x-axis)."""
        return np.cumsum([r.wall_time for r in self.records])


def update(members, clock: WallClock | None = None) -> list[PolicySet]:
    """One pass of Algorithm 1 over ``members``, a list of ``(solver, policy_next)`` pairs.

    The pass decides the stack itself: every member iterates on the first
    member's grid objects (its own, for a list of one), each member's points
    in its own box, and every grid point of every shock state of every member
    is a row of ONE point solve — for two or more members, the group the
    model class's ``stacked_group`` builds from this pass's row counts, when
    the class has one; each member's ``solve_points_batch`` otherwise.  An
    adaptive member, always alone, then pays one more point solve per
    refinement round, over the new points of all its states.  One
    hierarchization per shock state, all members' columns side by side,
    finishes the pass.
    """
    clock = clock or WallClock()
    solvers, policies_next = zip(*members)
    models = [solver.model for solver in solvers]
    with clock.section("grid"):
        grids = solvers[0]._todays_grids(policies_next[0])
        boxes = [[model.domain.from_unit(grid.points) for grid in grids] for model in models]
    with clock.section("solve"):
        sizes = [len(grid) for grid in grids]
        # rows are state-major: every point in state 0, then in state 1, ...
        states = np.repeat(np.arange(len(grids)), sizes)
        rows = [np.concatenate(box) for box in boxes]
        guesses = [
            np.concatenate([values_on_grid(*args) for args in zip(policy_next, grids, box)])
            for policy_next, box in zip(policies_next, boxes)
        ]
        stacked_group = getattr(type(models[0]), "stacked_group", None)
        if len(members) > 1 and stacked_group is not None:
            group = stacked_group(models, [len(X) for X in rows])
            blocks = group.solve_points(np.tile(states, len(members)), rows, policies_next, guesses)
        else:
            blocks = [
                model.solve_points_batch(states, X, policy_next, guess)
                for model, X, policy_next, guess in zip(models, rows, policies_next, guesses)
            ]
        cuts = np.cumsum(sizes)[:-1]
        values = [np.split(np.asarray(block, dtype=float), cuts) for block in blocks]
    if solvers[0].config.adaptive:
        _refine(solvers[0], policies_next[0], grids, values[0], clock)
    with clock.section("fit"):
        policies: list[list[StatePolicy]] = [[] for _ in members]
        for z, grid in enumerate(grids):
            surplus = hierarchize(grid, np.concatenate([v[z] for v in values], axis=1))
            widths = np.cumsum([v[z].shape[1] for v in values])[:-1]
            columns = np.split(surplus, widths, axis=1)
            for model, v, own, fitted in zip(models, values, columns, policies):
                fitted.append(StatePolicy.from_surplus(z, grid, own, v[z], model.domain))
    return [PolicySet(fitted) for fitted in policies]


def _refine(solver, policy_next: PolicySet, grids: list, values: list, clock: WallClock) -> None:
    """Refine one member's state grids, in place, until no surplus exceeds the threshold.

    A round hierarchizes and refines every state still open (below the
    point cap, grown by the previous round), then solves the new points of
    all of them in ONE ``solve_points_batch`` call.  Each coefficient's surplus
    is taken relative to the magnitude of that coefficient's nodal values,
    so the large value functions do not drown out the savings (the paper's
    ``g(alpha) >= epsilon`` criterion, per approximated function).
    """
    cfg, model = solver.config, solver.model
    open_states = list(range(len(grids)))
    while True:
        new_rows: dict[int, np.ndarray] = {}
        for z in open_states:
            grid = grids[z]
            if len(grid) >= cfg.max_points_per_state:
                continue
            with clock.section("fit"):
                surplus = hierarchize(grid, values[z]) / (1.0 + np.max(np.abs(values[z]), axis=0))
            with clock.section("grid"):
                added = refine(grid, surplus, cfg.refine_epsilon, max_level=cfg.max_refine_level)
            if added.size:
                new_rows[z] = added
        open_states = list(new_rows)  # a state that added nothing, or sits at the cap, is done
        if not open_states:
            break
        with clock.section("solve"):
            sizes = [len(added) for added in new_rows.values()]
            new_points = np.concatenate([grids[z].points[added] for z, added in new_rows.items()])
            X_new = model.domain.from_unit(new_points)
            z_new = np.repeat(open_states, sizes)
            solved = np.asarray(model.solve_points_batch(z_new, X_new, policy_next), dtype=float)
        for z, block in zip(new_rows, np.split(solved, np.cumsum(sizes)[:-1])):
            values[z] = np.concatenate([values[z], block])  # refine appends its rows


class TimeIterationSolver:
    """One member of Algorithm 1: a model, its configuration (the default when omitted),
    its grids and its step."""

    def __init__(
        self, model: TimeIterationModel, config: TimeIterationConfig | None = None
    ) -> None:
        self.model = model
        self.config = config or TimeIterationConfig()
        # regular grids only (adaptive steps work on per-iteration copies)
        self._grid_cache: dict[tuple[int, int], SparseGrid] = {}

    def _regular_grid(self, level: int) -> SparseGrid:
        """Shared regular grid for the model's state dimension.

        Policies returned by the solver reference this shared object; if a
        caller mutated it (e.g. refined a returned policy's grid to
        continue adaptively), ``version`` is no longer 0 and the cache
        entry is rebuilt so later solves still start from the configured
        regular grid.
        """
        key = (self.model.state_dim, level)
        grid = self._grid_cache.get(key)
        if grid is None or grid.version != 0:
            grid = self._grid_cache[key] = regular_sparse_grid(*key)
        return grid

    def _todays_grids(self, policy_next: PolicySet) -> list[SparseGrid]:
        """Today's grid object of each shock state: the shared regular grid or, adaptive, a
        copy of each previous state grid (refined regions stay).  A stack's pass uses its
        first member's; each member maps the points into its own box."""
        if self.config.adaptive:
            return [prev.grid.copy() for prev in policy_next]
        return [self._regular_grid(self.config.grid_level)] * self.model.num_states

    def initial_policy(self) -> PolicySet:
        """Build the initial guess ``p^0`` on regular grids."""
        model = self.model
        grid = self._regular_grid(self.config.grid_level)
        X = model.domain.from_unit(grid.points)
        policies = []
        for z in range(model.num_states):
            values = np.atleast_2d(np.asarray(model.initial_policy_values(z, X), dtype=float))
            policies.append(StatePolicy.from_values(z, grid, values, model.domain))
        return PolicySet(policies)

    def step(self, policy_next: PolicySet, clock: WallClock | None = None) -> PolicySet:
        """One time-iteration step: :func:`update` on a list of one."""
        return update([(self, policy_next)], clock=clock)[0]

    # ------------------------------------------------------------------ #
    # full solve
    # ------------------------------------------------------------------ #
    def solve(
        self,
        initial_policy: PolicySet | None = None,
        error_sample: np.ndarray | None = None,
        checkpoint=None,
        events=None,
        worker: str = "",
        scenario: str = "",
    ) -> TimeIterationResult:
        """Iterate until the policy change drops below the tolerance.

        A group of one through the loop of
        :class:`repro.core.batched.BatchedTimeIterationSolver`: returns the
        member's result, or re-raises what ended it (a hook's exception
        keeps its type and message).

        Parameters
        ----------
        initial_policy
            Optional warm start (e.g. the result of a coarser run — the
            paper restarts level-4 grids from level-2 solutions).
        error_sample
            Optional fixed sample of states at which model-specific
            equilibrium errors are recorded every iteration (used by the
            Fig. 9 experiment).
        events, worker, scenario
            Optional solve-progress telemetry: when ``events`` (an
            :class:`~repro.parallel.tracing.EventRecorder`-shaped object
            with an ``emit(kind, worker, scenario, **detail)`` method) is
            given, the loop emits the
            :data:`~repro.parallel.tracing.SOLVE_EVENT_KINDS` vocabulary —
            ``solve-started`` (start iteration, tolerance, iteration cap,
            ``batched``: whether the member is one of a stack of two or
            more, here always ``False``),
            one ``iteration`` event per completed step (iteration number,
            l∞/l2 policy change, grid point count, per-iteration wall
            time), ``refined`` when adaptive refinement grew the grids,
            ``converged`` the moment the metric drops below tolerance and
            ``solve-finished`` on return (with ``solver``: what the model's
            ``solver_totals()`` grew by over this solve) — attributed to
            ``worker`` / ``scenario``.  Emission is pure observability: it never
            changes the iterates and adds one in-memory append (plus
            whatever subscribed sinks do) per iteration.
        checkpoint
            Optional checkpoint hook (duck-typed: ``core`` does not import
            the scenario engine, whose ``SolveCheckpoint`` is the concrete
            implementation).  The
            hook must provide ``load()`` returning ``None`` or an object
            with ``policy``/``records``/``converged`` attributes,
            ``on_iteration(policy, records, converged, config)`` called
            after every completed iteration, and
            ``on_complete(policy, records, converged, config)`` called
            once at the end (``config`` is this solver's configuration, so
            hooks persist the true provenance even when constructed
            without one).  When ``load()`` yields a saved state the solve resumes
            from it (``initial_policy`` is ignored) and — because every
            iteration is a deterministic function of the previous policy —
            produces the same iterates as an uninterrupted run.
        """
        from repro.core.batched import BatchedTimeIterationSolver, BatchMember

        member = BatchMember(
            key=scenario,
            model=self.model,
            config=self.config,
            checkpoint=checkpoint,
            events=events,
            worker=worker,
            scenario=scenario,
            initial_policy=initial_policy,
            error_sample=error_sample,
            solver=self,
        )
        outcome = BatchedTimeIterationSolver([member]).solve()[member.key]
        if outcome.exception is not None:
            raise outcome.exception
        return outcome.result

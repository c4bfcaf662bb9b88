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
of :mod:`repro.core.batched` is the same pass on several members and a
group solver.  Dispatching points one by one (the work-stealing thread
scheduler, a simulated cluster) is an argument of :func:`solve_points`,
which Fig. 7 times directly.
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

from repro.core.policy import PolicySet, StatePolicy
from repro.grids.adaptive import append_rows, refine
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
    "solve_points",
    "update",
    "values_on_grid",
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

    def solve_point(
        self, z: int, x: np.ndarray, policy_next: PolicySet, guess: np.ndarray | None = None
    ) -> np.ndarray:
        """Solve the equilibrium conditions at one point, returning the policy values."""

    def equilibrium_errors(
        self, policy: PolicySet, sample: np.ndarray, rng=None
    ) -> dict:
        """Residual-based accuracy metrics of a candidate policy (optional)."""

    # Optional: ``solve_points_batch(z, X, policy_next, guesses=None)`` solving
    # every row of ``X`` in one call, ``z`` being one state for all rows or an
    # int array with one state per row; used instead of ``solve_point``, once
    # per pass for the rows of all shock states (and once per refinement round).
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
        Level of the initial regular sparse grid per state.
    tolerance
        Convergence tolerance on the sup-norm policy change.
    max_iterations
        Iteration cap (time iteration converges only linearly, paper Fig. 9).
    adaptive
        Whether to adaptively refine the per-state grids inside each step.
    refine_epsilon
        Surplus threshold for adaptive refinement.
    max_refine_level
        Cap on the 1-D refinement level (the paper uses ``L_max = 6``).
    max_points_per_state
        Refinement of a state stops once its grid has reached this many
        points; the last round may overshoot (a round is never cut short:
        that would break the grid's hierarchical consistency).
    kernel
        Interpolation kernel used when evaluating next-period policies.
    damping
        Convex-combination damping of the policy update, in ``(0, 1]``
        (1.0 = undamped).
    warm_start
        Reuse the previous iterate's values as the nonlinear solver's guess.
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
    kernel: str = "cuda"
    damping: float = 1.0
    warm_start: bool = True
    verbose: bool = False

    def __post_init__(self) -> None:
        metric = self.convergence_metric
        if metric not in CONVERGENCE_METRICS:
            raise ValueError(f"convergence_metric {metric!r} is not one of {CONVERGENCE_METRICS}")
        if not 0.0 < self.damping <= 1.0:  # 0 would return the initial guess as "converged"
            raise ValueError(f"damping {self.damping!r} is not in (0, 1]")


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


def values_on_grid(prev: StatePolicy, grid: SparseGrid, X: np.ndarray) -> np.ndarray:
    """The previous iterate ``prev`` at today's grid points ``X``.

    Its stored nodal values when ``grid`` has exactly ``prev``'s points —
    every non-adaptive iteration, and an adaptive step before it refines —
    so warm starts and damping see the bits the last step produced; an
    interpolation otherwise (a restart from another level, a refined grid).
    """
    if prev.grid is grid or np.array_equal(prev.grid.points, grid.points):
        return prev.nodal_values
    return np.atleast_2d(prev(X))


def solve_points(
    model: TimeIterationModel,
    z,
    X: np.ndarray,
    policy_next: PolicySet,
    guesses: np.ndarray | None,
    executor=None,
) -> np.ndarray:
    """Solve the equilibrium system at each row of ``X``, in state ``z`` or states ``z[row]``.

    Without an executor the whole block goes to the model's
    ``solve_points_batch`` when it has one.  Otherwise the rows are solved
    one ``solve_point`` at a time, through ``executor.map`` when given
    (results may come back in any order).
    """
    if executor is None and hasattr(model, "solve_points_batch"):
        return np.atleast_2d(
            np.asarray(model.solve_points_batch(z, X, policy_next, guesses), dtype=float)
        )
    states = np.broadcast_to(z, X.shape[:1])

    def solve_row(row: int):
        guess = None if guesses is None else guesses[row]
        values = model.solve_point(int(states[row]), X[row], policy_next, guess)
        return row, np.asarray(values, dtype=float)

    mapper = executor.map if executor is not None else map
    out = np.empty((X.shape[0], model.num_policies), dtype=float)
    for row, values in mapper(solve_row, range(X.shape[0])):
        out[row] = values
    return out


def update(members, group=None, clock: WallClock | None = None) -> list[PolicySet]:
    """One pass of Algorithm 1 over ``members``, a list of ``(solver, policy_next)`` pairs.

    Every grid point of every shock state of every member is a row of ONE
    point solve — ``group.solve_points`` when the caller holds a stacked
    group solver for exactly these members, :func:`solve_points` per member
    otherwise.  An adaptive member then pays one more point solve per
    refinement round, over the new points of all its states.  Damping and
    one hierarchization per shock state, all members' columns side by side,
    finish the pass.  The members of one call sit on the same grid objects:
    a list of one, or a stack (its solvers share one grid cache).
    """
    clock = clock or WallClock()
    with clock.section("grid"):
        grids = [solver._todays_grids(policy_next) for solver, policy_next in members]
    with clock.section("solve"):
        sizes = [[len(X) for _, X in gs] for gs in grids]
        # rows are state-major: every point in state 0, then in state 1, ...
        states = [np.repeat(np.arange(len(n)), n) for n in sizes]
        rows = [np.concatenate([X for _, X in gs]) for gs in grids]
        guesses = [
            np.concatenate([values_on_grid(prev, *g) for prev, g in zip(policy_next, gs)])
            if solver.config.warm_start
            else None
            for (solver, policy_next), gs in zip(members, grids)
        ]
        if group is not None:
            policies_next = [policy_next for _, policy_next in members]
            blocks = group.solve_points(np.concatenate(states), rows, policies_next, guesses)
        else:
            blocks = [
                solve_points(solver.model, z, X, policy_next, guess)
                for (solver, policy_next), z, X, guess in zip(members, states, rows, guesses)
            ]
        values = [
            np.split(np.asarray(block, dtype=float), np.cumsum(n)[:-1])
            for block, n in zip(blocks, sizes)
        ]
    for (solver, policy_next), gs, v in zip(members, grids, values):
        if solver.config.adaptive:
            _refine(solver, policy_next, gs, v, clock)
    with clock.section("fit"):
        policies: list[list[StatePolicy]] = [[] for _ in members]
        for z, (grid, _) in enumerate(grids[0]):
            if any(gs[z][0] is not grid for gs in grids):
                raise ValueError("the members of one update must share their grid objects")
            for (solver, policy_next), gs, v in zip(members, grids, values):
                damping = solver.config.damping
                if damping < 1.0:
                    v[z] = damping * v[z] + (1.0 - damping) * values_on_grid(policy_next[z], *gs[z])
            surplus = hierarchize(grid, np.concatenate([v[z] for v in values], axis=1))
            widths = np.cumsum([v[z].shape[1] for v in values])[:-1]
            columns = np.split(surplus, widths, axis=1)
            for (solver, _), v, own, fitted in zip(members, values, columns, policies):
                domain, kernel = solver.model.domain, solver.config.kernel
                fitted.append(StatePolicy.from_surplus(z, grid, own, v[z], domain, kernel=kernel))
    return [PolicySet(fitted) for fitted in policies]


def _refine(solver, policy_next: PolicySet, grids: list, values: list, clock: WallClock) -> None:
    """Refine one member's state grids, in place, until no surplus exceeds the threshold.

    A round hierarchizes and refines every state still open (below the
    point cap, grown by the previous round), then solves the new points of
    all of them in ONE :func:`solve_points` call.  Each coefficient's surplus
    is taken relative to the magnitude of that coefficient's nodal values,
    so the large value functions do not drown out the savings (the paper's
    ``g(alpha) >= epsilon`` criterion, per approximated function).
    """
    cfg, model = solver.config, solver.model
    open_states = list(range(len(grids)))
    while True:
        new_rows: dict[int, np.ndarray] = {}
        for z in open_states:
            grid = grids[z][0]
            if len(grid) >= cfg.max_points_per_state:
                continue
            with clock.section("fit"):
                surplus = hierarchize(grid, values[z]) / (1.0 + np.max(np.abs(values[z]), axis=0))
            with clock.section("grid"):
                added = refine(grid, surplus, cfg.refine_epsilon, max_level=cfg.max_refine_level)
            if added.size:
                new_rows[z] = added
                grids[z] = (grid, model.domain.from_unit(grid.points))
        open_states = list(new_rows)  # a state that added nothing, or sits at the cap, is done
        if not open_states:
            break
        with clock.section("solve"):
            sizes = [len(added) for added in new_rows.values()]
            X_new = np.concatenate([grids[z][1][added] for z, added in new_rows.items()])
            solved = solve_points(model, np.repeat(open_states, sizes), X_new, policy_next, None)
        for (z, added), block in zip(new_rows.items(), np.split(solved, np.cumsum(sizes)[:-1])):
            values[z] = append_rows(values[z], added, block, len(grids[z][0]))


class TimeIterationSolver:
    """One member of Algorithm 1: a model, its configuration (the default when omitted),
    its grids and its step."""

    def __init__(
        self, model: TimeIterationModel, config: TimeIterationConfig | None = None
    ) -> None:
        self.model = model
        self.config = config or TimeIterationConfig()
        # regular grids only (adaptive steps work on per-iteration copies);
        # the members of a stack share one cache
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

    def _todays_grids(self, policy_next: PolicySet) -> list[tuple[SparseGrid, np.ndarray]]:
        """Today's grid of each shock state with its points in the model's box: the shared
        regular grid or, adaptive, a copy of each previous state grid (refined regions stay)."""
        if self.config.adaptive:
            grids = [prev.grid.copy() for prev in policy_next]
        else:
            grids = [self._regular_grid(self.config.grid_level)] * self.model.num_states
        return [(grid, self.model.domain.from_unit(grid.points)) for grid in grids]

    def initial_policy(self) -> PolicySet:
        """Build the initial guess ``p^0`` on regular grids."""
        model, kernel = self.model, self.config.kernel
        grid = self._regular_grid(self.config.grid_level)
        X = model.domain.from_unit(grid.points)
        policies = []
        for z in range(model.num_states):
            values = np.atleast_2d(np.asarray(model.initial_policy_values(z, X), dtype=float))
            policies.append(StatePolicy.from_values(z, grid, values, model.domain, kernel=kernel))
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
            ``batched``: whether the member starts in a stack),
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

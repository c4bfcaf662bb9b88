"""The (parallel) time iteration algorithm (paper Algorithm 1, Sec. IV).

Time iteration computes a time-invariant policy function by repeatedly
solving the period-to-period equilibrium conditions on a grid, taking the
previous iterate as next period's policy, until the policy stops changing.

This module holds one member's side of the algorithm, model-agnostic: the
:class:`TimeIterationModel` protocol (the stochastic OLG model of
:mod:`repro.olg` is the paper's application; tests also use small synthetic
models), the configuration and record types, and :class:`TimeIterationSolver`
with the per-member update :meth:`~TimeIterationSolver.step`.  By default the
grids of all shock states go to the model's vectorized point solve
(``solve_points_batch``) in one call, the shock state being a per-row
argument; passing an executor dispatches the grid points one by one, state
by state, instead, so the same step runs on the work-stealing thread
scheduler or on a simulated heterogeneous cluster.  The iteration
loop itself — start or resume, convergence, checkpoints, events — exists
once, in :mod:`repro.core.batched`, over a group of members;
:meth:`TimeIterationSolver.solve` runs it on a group of one.

In the non-adaptive configuration every state and every iteration uses the
*same* regular sparse grid, so the solver keeps one cached
:class:`~repro.grids.grid.SparseGrid` per ``(dim, level)`` and reuses it
across states and iterations.  Because the grid object is shared and never
mutated, its attached caches — the hierarchization ancestor structure and
the compressed kernel representation — are built exactly once per solve
instead of once per state per iteration.  (The adaptive path copies the
previous state grid before refining it, which starts a fresh cache epoch.)
Consequently the policies of a non-adaptive result share one grid object
across states; callers who want to refine a returned policy's grid should
refine a ``grid.copy()`` (as the adaptive path itself does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.core.policy import PolicySet, StatePolicy
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
    "solve_points",
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
    # int array with one state per row; used instead of ``solve_point`` when no
    # executor is given, once per step for the rows of all shock states.
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
        Hard cap on the per-state grid size.
    kernel
        Interpolation kernel used when evaluating next-period policies.
    damping
        Convex-combination damping of the policy update (1.0 = undamped).
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


class TimeIterationSolver:
    """One member of Algorithm 1: a :class:`TimeIterationModel`, its configuration, its step.

    Parameters
    ----------
    model
        The economic model.
    config
        Driver configuration.
    executor
        Optional object with a ``map(fn, items) -> list`` method; when
        given, grid points are solved one ``solve_point`` per task through
        it (e.g. :class:`repro.parallel.scheduler.WorkStealingScheduler` or
        a :class:`repro.parallel.mpi_sim.SimClusterExecutor`), state by
        state.  Without one the model's vectorized ``solve_points_batch``
        solves the grids of all shock states in one call (see
        :meth:`step`).
    """

    def __init__(
        self,
        model: TimeIterationModel,
        config: TimeIterationConfig | None = None,
        executor=None,
    ) -> None:
        self.model = model
        self.config = config or TimeIterationConfig()
        self.executor = executor
        # Regular grids and their domain-mapped points, reused across states
        # and iterations (never mutated, so the grids' ancestor/compression
        # caches are shared as well).  Adaptive steps work on per-iteration
        # copies, which are deliberately not cached here.
        self._grid_cache: dict[tuple[int, int], tuple[SparseGrid, np.ndarray]] = {}

    def _regular_grid(self, level: int) -> tuple[SparseGrid, np.ndarray]:
        """Shared regular grid for the model's state dimension and its points in the box.

        Policies returned by the solver reference this shared object; if a
        caller mutated it (e.g. refined a returned policy's grid to
        continue adaptively), ``version`` is no longer 0 and the cache
        entry is rebuilt so later solves still start from the configured
        regular grid.
        """
        key = (self.model.state_dim, level)
        entry = self._grid_cache.get(key)
        if entry is None or entry[0].version != 0:
            grid = regular_sparse_grid(*key)
            X = self.model.domain.from_unit(grid.points)
            X.flags.writeable = False
            entry = self._grid_cache[key] = (grid, X)
        return entry

    # ------------------------------------------------------------------ #
    # policy initialisation
    # ------------------------------------------------------------------ #
    def initial_policy(self) -> PolicySet:
        """Build the initial guess ``p^0`` on regular grids."""
        model, kernel = self.model, self.config.kernel
        grid, X = self._regular_grid(self.config.grid_level)
        policies = []
        for z in range(model.num_states):
            values = np.atleast_2d(np.asarray(model.initial_policy_values(z, X), dtype=float))
            policies.append(StatePolicy.from_values(z, grid, values, model.domain, kernel=kernel))
        return PolicySet(policies)

    # ------------------------------------------------------------------ #
    # one time step
    # ------------------------------------------------------------------ #
    def step(self, policy_next: PolicySet, clock: WallClock | None = None) -> PolicySet:
        """One time-iteration step: update today's policy given ``policy_next``.

        On the shared regular grid ONE :func:`solve_points` call solves the
        points of all shock states (the state is a per-row argument); adaptive
        steps, whose states own their grids, and steps with an executor go
        state by state through the same call.
        """
        cfg = self.config
        model = self.model
        clock = clock or WallClock()
        if cfg.adaptive or self.executor is not None:
            solved = [self._solve_state(z, policy_next, clock) for z in range(model.num_states)]
        else:
            with clock.section("grid"):
                grid, X = self._regular_grid(cfg.grid_level)
            with clock.section("solve"):
                guesses = None
                if cfg.warm_start:
                    guesses = np.concatenate([values_on_grid(p, grid, X) for p in policy_next])
                # rows are state-major: every point in state 0, then in state 1, ...
                z = np.repeat(np.arange(model.num_states), len(X))
                rows = np.tile(X, (model.num_states, 1))
                values = solve_points(model, z, rows, policy_next, guesses)
            solved = [(grid, X, block) for block in np.split(values, model.num_states)]
        policies = []
        for z, (grid, X, values) in enumerate(solved):
            with clock.section("fit"):
                if cfg.damping < 1.0:
                    old = values_on_grid(policy_next[z], grid, X)
                    values = cfg.damping * values + (1.0 - cfg.damping) * old
                policy = StatePolicy.from_values(z, grid, values, model.domain, kernel=cfg.kernel)
            policies.append(policy)
        return PolicySet(policies)

    def _solve_state(self, z: int, policy_next: PolicySet, clock: WallClock):
        """Grid, its points in the box and the solved values of shock state ``z`` alone."""
        cfg, model = self.config, self.model
        with clock.section("grid"):
            prev = policy_next[z]
            if cfg.adaptive:
                # restart from the previous state grid (keeps refined regions)
                grid = prev.grid.copy()
                X = model.domain.from_unit(grid.points)
            else:
                # shared cached grid: ancestor structure and compression
                # are reused across states and iterations
                grid, X = self._regular_grid(cfg.grid_level)
        with clock.section("solve"):
            guesses = values_on_grid(prev, grid, X) if cfg.warm_start else None
            values = solve_points(model, z, X, policy_next, guesses, self.executor)
        if cfg.adaptive:
            values = self._adaptive_loop(z, grid, values, policy_next, clock)
            X = model.domain.from_unit(grid.points)
        return grid, X, values

    def _adaptive_loop(
        self,
        z: int,
        grid: SparseGrid,
        values: np.ndarray,
        policy_next: PolicySet,
        clock: WallClock,
    ) -> np.ndarray:
        """Refine the state grid until no surplus exceeds the threshold.

        The refinement indicator normalises each coefficient's surplus by
        the magnitude of that coefficient's nodal values, so the large-scale
        value functions do not drown out the savings functions (the paper's
        ``g(alpha) >= epsilon`` criterion applied per approximated function).
        """
        cfg = self.config

        def relative_indicator(surplus: np.ndarray) -> np.ndarray:
            scale = 1.0 + np.max(np.abs(values), axis=0)
            return np.max(np.abs(np.atleast_2d(surplus)) / scale, axis=1)

        while len(grid) < cfg.max_points_per_state:
            with clock.section("fit"):
                surplus = hierarchize(grid, values)
            with clock.section("grid"):
                new_rows = refine(
                    grid,
                    surplus,
                    cfg.refine_epsilon,
                    indicator=relative_indicator,
                    max_level=cfg.max_refine_level,
                )
            if new_rows.size == 0:
                break
            X_new = self.model.domain.from_unit(grid.points[new_rows])
            with clock.section("solve"):
                new_values = solve_points(
                    self.model, z, X_new, policy_next, None, self.executor
                )
            grown = np.zeros((len(grid), values.shape[1]), dtype=float)
            grown[: values.shape[0]] = values
            grown[new_rows] = new_values
            values = grown
        return values

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

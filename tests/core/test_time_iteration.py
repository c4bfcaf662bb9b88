"""Tests for the time iteration driver, using a synthetic contraction model.

The synthetic model's update is a linear contraction whose fixed point is
known in closed form and is exactly representable on a level-2 sparse grid,
so the driver's convergence and bookkeeping and the per-point dispatch of
``solve_points`` can be verified precisely and cheaply (no nonlinear solves involved).
"""

import numpy as np
import pytest

from repro.core.policy import PolicySet
from repro.core.time_iteration import (
    TimeIterationConfig,
    TimeIterationSolver,
    solve_points,
)
from repro.grids.domain import BoxDomain
from repro.parallel.executor import SerialExecutor, ThreadPoolMapExecutor
from repro.parallel.scheduler import WorkStealingScheduler


class ContractionModel:
    """p(z, x) <- base_z(x) + c * mean_z' p_next(z', x); fixed point known."""

    def __init__(self, num_states=2, dim=2, contraction=0.5):
        self._num_states = num_states
        self._dim = dim
        self.contraction = contraction
        self._domain = BoxDomain.cube(dim, 0.0, 1.0)
        self.solve_calls = 0

    # protocol ---------------------------------------------------------
    @property
    def num_states(self):
        return self._num_states

    @property
    def state_dim(self):
        return self._dim

    @property
    def num_policies(self):
        return 2

    @property
    def domain(self):
        return self._domain

    def base(self, z, X):
        X = np.atleast_2d(X)
        a = (z + 1.0) * (0.5 * X[:, 0] + 0.25 * X[:, 1])
        b = np.full(X.shape[0], float(z) + 1.0)
        return np.stack([a, b], axis=1)

    def fixed_point(self, z, X):
        """Closed-form fixed point of the contraction."""
        X = np.atleast_2d(X)
        c = self.contraction
        mean_base = np.mean(
            [self.base(s, X) for s in range(self._num_states)], axis=0
        )
        return self.base(z, X) + c / (1.0 - c) * mean_base

    def initial_policy_values(self, z, X):
        return np.zeros((np.atleast_2d(X).shape[0], 2))

    def solve_point(self, z, x, policy_next, guess=None):
        self.solve_calls += 1
        x = np.asarray(x, dtype=float)
        mean_next = np.mean(
            [np.asarray(policy_next.evaluate(s, x)).reshape(-1) for s in range(self._num_states)],
            axis=0,
        )
        return self.base(z, x[None, :])[0] + self.contraction * mean_next

    def equilibrium_errors(self, policy, sample, rng=None):
        errs = []
        for z in range(self._num_states):
            diff = np.abs(np.atleast_2d(policy.evaluate(z, sample)) - self.fixed_point(z, sample))
            errs.append(diff.max())
        return {"linf": float(max(errs)), "l2": float(np.mean(errs))}


class TestConvergence:
    def test_converges_to_analytic_fixed_point(self):
        model = ContractionModel()
        config = TimeIterationConfig(grid_level=2, tolerance=1e-8, max_iterations=80)
        result = TimeIterationSolver(model, config).solve()
        assert result.converged
        sample = model.domain.sample(25, rng=0)
        for z in range(model.num_states):
            np.testing.assert_allclose(
                np.atleast_2d(result.policy.evaluate(z, sample)),
                model.fixed_point(z, sample),
                atol=1e-5,
            )

    def test_error_history_is_decreasing_tail(self):
        model = ContractionModel()
        config = TimeIterationConfig(grid_level=2, tolerance=1e-10, max_iterations=40)
        result = TimeIterationSolver(model, config).solve()
        history = result.error_history("rel_linf")
        assert history[-1] < history[2]

    def test_linear_convergence_rate(self):
        """The contraction factor shows up as the asymptotic error ratio."""
        model = ContractionModel(contraction=0.5)
        config = TimeIterationConfig(grid_level=2, tolerance=1e-12, max_iterations=30)
        result = TimeIterationSolver(model, config).solve()
        history = result.error_history("linf")
        ratios = history[5:15] / history[4:14]
        assert np.median(ratios) == pytest.approx(0.5, abs=0.1)

    def test_max_iterations_respected(self):
        model = ContractionModel()
        config = TimeIterationConfig(grid_level=2, tolerance=0.0, max_iterations=3)
        result = TimeIterationSolver(model, config).solve()
        assert not result.converged
        assert result.iterations == 3

    @pytest.mark.parametrize("metric", ["rel_inf", "per_state_linf"])
    def test_unknown_convergence_metric_is_rejected(self, metric):
        # "per_state_linf" is an entry of PolicySet.distance too, but a list
        with pytest.raises(ValueError, match=metric):
            TimeIterationConfig(convergence_metric=metric)

    @pytest.mark.parametrize("damping", [0.0, 0, -0.5, 1.5, float("nan")])
    def test_damping_outside_the_unit_interval_is_rejected(self, damping):
        # 0 returned the untouched initial guess as "converged" after one iteration
        with pytest.raises(ValueError, match="damping"):
            TimeIterationConfig(grid_level=2, damping=damping)

    def test_damping_still_converges(self):
        model = ContractionModel()
        config = TimeIterationConfig(
            grid_level=2, tolerance=1e-6, max_iterations=120, damping=0.7
        )
        result = TimeIterationSolver(model, config).solve()
        assert result.converged

    def test_equilibrium_errors_recorded(self):
        model = ContractionModel()
        config = TimeIterationConfig(grid_level=2, tolerance=1e-6, max_iterations=50)
        sample = model.domain.sample(10, rng=1)
        result = TimeIterationSolver(model, config).solve(error_sample=sample)
        assert all("linf" in r.equilibrium_errors for r in result.records)
        errors = [r.equilibrium_errors["linf"] for r in result.records]
        assert errors[-1] < errors[0]


class TestBookkeeping:
    def test_records_have_time_and_points(self):
        model = ContractionModel()
        config = TimeIterationConfig(grid_level=2, tolerance=1e-4, max_iterations=30)
        result = TimeIterationSolver(model, config).solve()
        for record in result.records:
            assert record.wall_time >= 0.0
            assert record.total_points == sum(record.points_per_state)
            assert len(record.points_per_state) == model.num_states
        assert result.cumulative_time().shape == (result.iterations,)
        assert np.all(np.diff(result.cumulative_time()) >= 0)

    def test_initial_policy_shapes(self):
        model = ContractionModel(num_states=3)
        solver = TimeIterationSolver(model, TimeIterationConfig(grid_level=2))
        policy = solver.initial_policy()
        assert isinstance(policy, PolicySet)
        assert policy.num_states == 3
        assert policy.num_policies == 2

    def test_warm_start_passes_guesses(self):
        model = ContractionModel()
        config = TimeIterationConfig(grid_level=2, tolerance=1e-4, max_iterations=5,
                                     warm_start=True)
        result = TimeIterationSolver(model, config).solve()
        assert result.iterations >= 1

    def test_solve_with_initial_policy_continues(self):
        model = ContractionModel()
        config = TimeIterationConfig(grid_level=2, tolerance=1e-4, max_iterations=40)
        first = TimeIterationSolver(model, config).solve()
        tighter = TimeIterationConfig(grid_level=2, tolerance=1e-8, max_iterations=40)
        second = TimeIterationSolver(model, tighter).solve(initial_policy=first.policy)
        assert second.converged
        assert second.iterations <= first.iterations + 40


class TestExecutors:
    @pytest.mark.parametrize(
        "executor",
        [SerialExecutor(), ThreadPoolMapExecutor(3), WorkStealingScheduler(3)],
        ids=["serial", "threads", "stealing"],
    )
    def test_same_points_for_all_executors(self, executor):
        """Per-point dispatch is ``solve_points(executor=)``: at the solved policy, the
        rows of a pass (state-major) come back at the fixed point from every executor."""
        model = ContractionModel()
        config = TimeIterationConfig(grid_level=2, tolerance=1e-8, max_iterations=60)
        result = TimeIterationSolver(model, config).solve()
        assert result.converged
        sample = model.domain.sample(10, rng=5)
        z, rows = np.repeat([0, 1], len(sample)), np.tile(sample, (2, 1))
        calls = model.solve_calls
        values = solve_points(model, z, rows, result.policy, None, executor)
        assert model.solve_calls == calls + len(rows)
        np.testing.assert_array_equal(values, solve_points(model, z, rows, result.policy, None))
        for state, block in enumerate(np.split(values, 2)):
            np.testing.assert_allclose(block, model.fixed_point(state, sample), atol=1e-5)


class TestAdaptive:
    def test_adaptive_config_runs(self):
        model = ContractionModel()
        config = TimeIterationConfig(
            grid_level=2,
            tolerance=1e-6,
            max_iterations=40,
            adaptive=True,
            refine_epsilon=1e-3,
            max_refine_level=4,
            max_points_per_state=200,
        )
        result = TimeIterationSolver(model, config).solve()
        assert result.converged
        # the synthetic fixed point is multilinear, so little refinement is needed,
        # but the grids must never shrink below the initial level-2 size
        assert all(p >= 5 for p in result.policy.points_per_state)

"""End-to-end integration tests: solve a small OLG economy and use the result.

These tests exercise the whole stack together: calibration -> model ->
time iteration -> policy evaluation through the compressed kernels -> accuracy
diagnostics -> forward simulation.
"""

import numpy as np

from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver
from repro.experiments.fig7 import solve_row_blocks
from repro.olg.calibration import small_calibration
from repro.olg.model import OLGModel
from repro.olg.simulation import simulate_economy


class TestSmallEconomySolve:
    def test_time_iteration_converges(self, solved_small_olg):
        model, result = solved_small_olg
        assert result.converged
        assert result.iterations >= 3
        history = result.error_history("rel_linf")
        assert history[-1] < history[0]

    def test_policy_is_economically_sensible(self, solved_small_olg):
        """Savings non-negative at grid points, finite everywhere.

        Away from the grid the piecewise-linear interpolant may undershoot
        slightly, so only a small negative tolerance is allowed there.
        """
        model, result = solved_small_olg
        for z in range(model.num_states):
            policy = result.policy[z]
            nodal_savings = policy.nodal_values[:, : model.num_savers]
            assert np.all(nodal_savings >= -1e-10)
        sample = model.sample_states(15, rng=0)
        for z in range(model.num_states):
            values = np.atleast_2d(result.policy.evaluate(z, sample))
            savings = values[:, : model.num_savers]
            assert np.all(savings >= -0.1)
            assert np.all(np.isfinite(values))

    def test_euler_errors_reasonable_on_interior_sample(self, solved_small_olg):
        model, result = solved_small_olg
        lower, upper = model.domain.lower, model.domain.upper
        margin = 0.25 * (upper - lower)
        inner = model.domain.__class__(lower + margin, upper - margin)
        errors = model.equilibrium_errors(result.policy, inner.sample(20, rng=1))
        # coarse level-2 grids: errors are sizeable but bounded
        assert errors["l2"] < 0.5
        assert np.isfinite(errors["mean_log10"])

    def test_higher_productivity_state_has_higher_wage(self, solved_small_olg):
        model, _ = solved_small_olg
        k = float(model.steady_state.capital)
        wages = [model.system.environment(z, 0, k).prices.wage for z in range(model.num_states)]
        productivities = model.calibration.shocks.label("productivity")
        assert np.argmax(wages) == np.argmax(productivities)

    def test_simulation_stays_bounded(self, solved_small_olg):
        model, result = solved_small_olg
        sim = simulate_economy(model, result.policy, periods=150, rng=4, burn_in=30)
        assert model.domain.contains(sim.states).all()
        assert sim.capital.std() < sim.capital.mean()  # no explosive dynamics


class TestExecutorEquivalence:
    def test_threaded_point_solves_match_serial_and_the_batch(self):
        """Row blocks on threads must not change the numerical result."""
        cal = small_calibration(num_generations=4, num_states=2, beta=0.8)
        model = OLGModel(cal)
        config = TimeIterationConfig(grid_level=2, tolerance=1e-3, max_iterations=6)
        policy = TimeIterationSolver(model, config).solve().policy
        # the rows of the next pass, state-major: one solve_point per row, the
        # one vectorized call, and three row blocks on threads, each on its own model
        X = model.domain.from_unit(policy[0].grid.points)
        z, rows = np.repeat(np.arange(model.num_states), len(X)), np.tile(X, (model.num_states, 1))
        batch = model.solve_points_batch(z, rows, policy)
        serial = np.array([model.solve_point(int(s), x, policy) for s, x in zip(z, rows)])
        threaded = solve_row_blocks([OLGModel(cal) for _ in range(3)], z, rows, policy)
        np.testing.assert_allclose(threaded, serial, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(serial, batch, rtol=1e-6, atol=1e-8)


class TestStochasticTaxes:
    def test_tax_regimes_change_policies(self):
        """With stochastic labor taxes, savings differ across tax states."""
        cal = small_calibration(
            num_generations=4, num_states=1, beta=0.8, stochastic_taxes=True
        )
        model = OLGModel(cal)
        assert model.num_states == 2
        config = TimeIterationConfig(grid_level=2, tolerance=2e-3, max_iterations=20)
        result = TimeIterationSolver(model, config).solve()
        x = 0.5 * (model.domain.lower + model.domain.upper)
        low_tax = np.asarray(result.policy.evaluate(0, x)).reshape(-1)
        high_tax = np.asarray(result.policy.evaluate(1, x)).reshape(-1)
        # policies must differ across the tax regimes
        assert np.max(np.abs(low_tax - high_tax)) > 1e-4


class TestWarmStartAcrossLevels:
    def test_level3_restart_from_level2(self):
        """The paper restarts finer grids from coarser solutions (Sec. V-C)."""
        cal = small_calibration(num_generations=4, num_states=2, beta=0.8)
        model = OLGModel(cal)
        coarse_cfg = TimeIterationConfig(grid_level=2, tolerance=2e-3, max_iterations=25)
        coarse = TimeIterationSolver(model, coarse_cfg).solve()
        fine_cfg = TimeIterationConfig(grid_level=3, tolerance=2e-3, max_iterations=12)
        fine = TimeIterationSolver(model, fine_cfg).solve(initial_policy=coarse.policy)
        assert fine.policy.points_per_state[0] > coarse.policy.points_per_state[0]
        # warm-started fine solve should converge within the iteration budget
        assert fine.converged

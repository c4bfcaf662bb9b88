"""Tests for the OLG model's economics (states, budgets, Euler equations)."""

import numpy as np
import pytest

from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver
from repro.olg.calibration import small_calibration
from repro.olg import solver as solver_module
from repro.olg.euler import _pinned
from repro.olg.model import OLGModel
from repro.olg.solver import NewtonSolver
from repro.utils.timing import WallClock


@pytest.fixture(scope="module")
def model():
    return OLGModel(small_calibration(num_generations=5, num_states=2, beta=0.8))


@pytest.fixture(scope="module")
def initial_policy(model):
    solver = TimeIterationSolver(model, TimeIterationConfig(grid_level=2))
    return solver.initial_policy()


class TestDimensions:
    def test_protocol_dimensions(self, model):
        A = model.calibration.num_generations
        assert model.state_dim == A - 1
        assert model.num_savers == A - 1
        assert model.num_policies == 2 * (A - 1)
        assert model.num_states == 2
        assert model.domain.dim == model.state_dim

    def test_domain_contains_steady_state(self, model):
        ss = model.steady_state
        assert model.domain.lower[0] < ss.capital < model.domain.upper[0]


class TestStatePacking:
    def test_unpack_residual_oldest_holding(self, model):
        x = np.array([1.0, 0.2, 0.3, 0.1])
        K, holdings = model.unpack_state(x)
        assert K == 1.0
        assert holdings[0] == 0.0                       # newborns own nothing
        np.testing.assert_allclose(holdings[1:4], [0.2, 0.3, 0.1])
        assert holdings[4] == pytest.approx(1.0 - 0.6)  # residual of the oldest

    def test_unpack_floors_negative_residual(self, model):
        x = np.array([0.3, 0.2, 0.3, 0.1])
        _, holdings = model.unpack_state(x)
        assert holdings[-1] == 0.0

    def test_pack_next_state_aggregates_savings(self, model):
        savings = np.array([0.1, 0.2, 0.3, 0.15])
        x_next = model.pack_next_state(savings)
        assert x_next[0] == pytest.approx(min(savings.sum(), model.domain.upper[0]))
        np.testing.assert_allclose(x_next[1:], savings[:3])

    def test_pack_clips_to_domain(self, model):
        savings = np.full(model.num_savers, 1e6)
        x_next = model.pack_next_state(savings)
        assert np.all(x_next <= model.domain.upper + 1e-12)


class TestEnvironment:
    def test_incomes_by_age(self, model):
        env = model.environment(0, K=1.0)
        cal = model.calibration
        # workers earn after-tax wages, retirees the pension (+ transfer)
        tau_l = cal.shocks.label("tau_labor")[0]
        for age in range(cal.retirement_age):
            expected = (1 - tau_l) * env.prices.wage * cal.efficiency[age]
            assert env.incomes[age] == pytest.approx(
                expected + env.budget.lump_sum_transfer
            )
        for age in range(cal.retirement_age, cal.num_generations):
            assert env.incomes[age] == pytest.approx(
                env.budget.pension_benefit + env.budget.lump_sum_transfer
            )

    def test_gross_return_definition(self, model):
        env = model.environment(1, K=1.0)
        tau_c = model.calibration.shocks.label("tau_capital")[1]
        assert env.gross_return == pytest.approx(
            1.0 + (1.0 - tau_c) * env.prices.return_net
        )

    def test_productivity_states_differ(self, model):
        low = model.environment(0, K=1.0)
        high = model.environment(1, K=1.0)
        assert high.prices.wage > low.prices.wage


class TestConsumption:
    def test_goods_market_identity(self, model):
        """C + K' = output + (1 - delta) K at an interior state.

        Aggregate consumption plus next-period capital equals production
        plus undepreciated capital — the economy-wide resource constraint,
        provided the state is internally consistent (holdings sum to K).
        """
        z = 0
        cal = model.calibration
        ss = model.steady_state
        K = ss.capital
        holdings_mid = np.maximum(ss.profile.holdings[1 : cal.num_generations - 1], 0.0)
        # make the state internally consistent: rescale so total holdings = K
        x = np.concatenate([[K], holdings_mid])
        K_state, holdings = model.unpack_state(x)
        env = model.environment(z, K_state)
        savings = np.maximum(ss.profile.savings[: model.num_savers], 0.0)
        consumption = model.consumption_today(env, holdings, savings)
        delta = cal.shocks.label("depreciation")[z]
        lhs = consumption.sum() + savings.sum()
        rhs = env.prices.output + (1.0 - delta) * K_state
        # capital taxes are rebated and labor taxes become pensions, so the
        # identity holds up to the consistency of the holdings decomposition
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_oldest_consumes_everything(self, model):
        x = 0.5 * (model.domain.lower + model.domain.upper)
        K, holdings = model.unpack_state(x)
        env = model.environment(0, K)
        savings = np.full(model.num_savers, 0.05)
        consumption = model.consumption_today(env, holdings, savings)
        assert consumption[-1] == pytest.approx(
            env.gross_return * holdings[-1] + env.incomes[-1]
        )


class TestEulerEquations:
    def test_residual_shape(self, model, initial_policy):
        x = 0.5 * (model.domain.lower + model.domain.upper)
        res = model.euler_residuals(0, x, np.full(model.num_savers, 0.1), initial_policy)
        assert res.shape == (model.num_savers,)

    def test_solution_has_zero_residual(self, model, initial_policy):
        x = 0.5 * (model.domain.lower + model.domain.upper)
        out = model.solve_point(0, x, initial_policy)
        savings = out[: model.num_savers]
        res = model.euler_residuals(0, x, savings, initial_policy)
        assert np.max(np.abs(res)) < 1e-6

    def test_residual_monotone_in_savings(self, model, initial_policy):
        """Saving more raises marginal utility today: the residual increases."""
        x = 0.5 * (model.domain.lower + model.domain.upper)
        base = np.full(model.num_savers, 0.05)
        lo = model.euler_residuals(0, x, base, initial_policy)
        hi = model.euler_residuals(0, x, base * 3.0, initial_policy)
        assert hi[0] > lo[0]

    def test_solve_point_returns_policies_and_values(self, model, initial_policy):
        x = 0.5 * (model.domain.lower + model.domain.upper)
        out = model.solve_point(1, x, initial_policy)
        assert out.shape == (model.num_policies,)
        savings = out[: model.num_savers]
        values = out[model.num_savers :]
        assert np.all(savings >= 0.0)
        assert np.all(np.isfinite(values))

    def test_warm_start_guess_used(self, model, initial_policy):
        x = 0.5 * (model.domain.lower + model.domain.upper)
        cold = model.solve_point(0, x, initial_policy)
        warm = model.solve_point(0, x, initial_policy, guess=cold)
        np.testing.assert_allclose(warm[: model.num_savers], cold[: model.num_savers], rtol=1e-5)

    def test_equilibrium_errors_structure(self, model, initial_policy):
        sample = model.sample_states(5, rng=0)
        errs = model.equilibrium_errors(initial_policy, sample)
        for key in ("linf", "l2", "mean_log10", "num_evaluations"):
            assert key in errs
        assert errs["linf"] >= errs["l2"] >= 0.0


class TestPolishRule:
    """A stalled row is polished with scipy unless a saver is pinned on a clip bound."""

    @staticmethod
    def _steps(monkeypatch, steps: int, **newton):
        """Level-2 time-iteration steps; the model and the start of every scipy polish."""
        model = OLGModel(
            small_calibration(num_generations=5, num_states=2, beta=0.8),
            solver=NewtonSolver(**newton),
        )
        starts = []
        root = solver_module.optimize.root

        def counted(fun, x0, **kwargs):
            starts.append(np.array(x0))
            return root(fun, x0, **kwargs)

        # the module attribute is how repro.olg.solver reaches scipy
        monkeypatch.setattr(solver_module.optimize, "root", counted)
        solver = TimeIterationSolver(model, TimeIterationConfig(grid_level=2))
        policy = solver.initial_policy()
        for _ in range(steps):
            policy = solver.step(policy, WallClock())
        return model, starts

    def test_pinned_rows_are_not_polished(self, monkeypatch):
        model, starts = self._steps(monkeypatch, steps=1)
        totals = model.solver_totals()
        assert totals["rows"] == 18
        assert totals["stalled"] == totals["pinned"] > 0  # the infeasible K_min nodes
        assert totals["polished"] == len(starts) == 0

    def test_interior_stalled_rows_are_still_polished(self, monkeypatch):
        # one Newton iteration leaves every row short of tolerance, most of
        # them at an interior iterate
        model, starts = self._steps(monkeypatch, steps=2, max_iterations=1)
        totals = model.solver_totals()
        assert totals["stalled"] == totals["rows"] == 36
        assert totals["pinned"] > 0
        assert totals["polished"] == len(starts) == totals["stalled"] - totals["pinned"]
        assert not any(_pinned(x0) for x0 in starts)

    def test_no_fallback_polishes_nothing(self, monkeypatch):
        model, starts = self._steps(
            monkeypatch, steps=1, max_iterations=1, use_scipy_fallback=False
        )
        totals = model.solver_totals()
        assert totals["stalled"] == totals["rows"] and totals["pinned"] == 0
        assert totals["polished"] == len(starts) == 0

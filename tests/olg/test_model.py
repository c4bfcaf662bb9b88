"""Tests for the OLG model's economics (states, budgets, Euler equations)."""

import itertools

import numpy as np
import pytest

from repro.core.policy import PolicySet, StatePolicy
from repro.core.time_iteration import (
    TimeIterationConfig,
    TimeIterationSolver,
    solve_points,
    values_on_grid,
)
from repro.grids.adaptive import refine
from repro.grids.hierarchize import hierarchize
from repro.olg.calibration import small_calibration
from repro.olg.euler import _LOG_SAVINGS_FLOOR, _pinned, _savings
from repro.olg.model import OLGModel
from repro.olg.solver import NewtonSolver
from repro.parallel.tracing import SOLVER_TOTALS
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

    @pytest.mark.parametrize("generations", [3, 5, 6, 8, 10, 12, 16])
    def test_domain_contains_steady_state(self, generations):
        """Every age's box holds its (clipped) steady-state holding, strictly where it is > 0."""
        model = OLGModel(small_calibration(num_generations=generations, num_states=2))
        held = np.maximum(model.steady_state.profile.holdings[1:], 0.0)
        lower, upper = model.domain.lower, model.domain.upper
        assert np.all(lower <= held) and np.all(held < upper)
        assert np.all(lower[held > 0] < held[held > 0])
        assert lower.sum() < model.steady_state.capital < upper.sum()


class TestStatePacking:
    def test_unpack_is_the_holdings_of_every_age_but_the_newborn(self, model):
        x = np.array([0.2, 0.3, 0.1, 0.4])
        _, holdings = model.unpack_state(x)
        assert holdings[0] == 0.0                       # newborns own nothing
        assert np.array_equal(holdings[1:], x)

    def test_unpack_capital_is_the_sum_of_the_state(self, model):
        x = np.array([0.2, 0.3, 0.1, 0.0])              # an oldest age without assets is a state
        K, holdings = model.unpack_state(x)
        assert K == x.sum() == holdings.sum()

    def test_pack_next_state_is_the_clipped_savings(self, model):
        savings = np.array([0.1, 0.2, 0.3, 0.15])
        x_next = model.pack_next_state(savings)
        assert np.array_equal(x_next, np.clip(savings, model.domain.lower, model.domain.upper))
        inside = 0.5 * (model.domain.lower + model.domain.upper)
        assert np.array_equal(model.pack_next_state(inside), inside)

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
        plus undepreciated capital — the economy-wide resource constraint;
        the holdings sum to K at every state by construction.
        """
        z = 0
        cal = model.calibration
        ss = model.steady_state
        x = np.maximum(ss.profile.holdings[1:], 0.0)
        K_state, holdings = model.unpack_state(x)
        env = model.environment(z, K_state)
        savings = np.maximum(ss.profile.savings[: model.num_savers], 0.0)
        consumption = model.consumption_today(env, holdings, savings)
        delta = cal.shocks.label("depreciation")[z]
        lhs = consumption.sum() + savings.sum()
        rhs = env.prices.output + (1.0 - delta) * K_state
        # capital taxes are rebated and labor taxes become pensions
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


class TestStalledRows:
    """A row Newton leaves stalled keeps the batch's best iterate; nothing runs after it."""

    @staticmethod
    def _steps(steps: int, calibration=None, **newton):
        """Level-2 time-iteration steps: the model, and (Newton result, solved rows) per run."""
        if calibration is None:
            calibration = small_calibration(num_generations=5, num_states=2, beta=0.8)
        model = OLGModel(calibration, solver=NewtonSolver(**newton))
        results, outs = [], []
        newton, solve = model.system.batch_solver.solve, model.system.solve
        model.system.batch_solver.solve = lambda fn, x0: (
            results.append(newton(fn, x0)) or results[-1]
        )
        model.system.solve = lambda *args: outs.append(solve(*args)) or outs[-1]
        solver = TimeIterationSolver(model, TimeIterationConfig(grid_level=2))
        policy = solver.initial_policy()
        for _ in range(steps):
            policy = solver.step(policy, WallClock())
        return model, list(zip(results, outs))

    @classmethod
    def _twelve_generations(cls):
        """Five default-cap steps at 12 generations: the youngest saver reaches the floor.

        Its steady-state saving is negative there, and log-savings cannot
        follow it below zero: a binding borrowing constraint at feasible
        nodes, the one honest source of pinned rows on the per-age box.
        """
        return cls._steps(steps=5, calibration=small_calibration(12, 2))

    @staticmethod
    def _masks(runs):
        stalled = np.concatenate([~result.converged for result, _ in runs])
        return stalled, stalled & np.concatenate([_pinned(result.x) for result, _ in runs])

    def test_stalled_rows_keep_the_newton_iterate_bit_for_bit(self):
        # three Newton iterations leave most rows short of tolerance at an
        # interior iterate; the pinned rows are the 12-generation model's
        capped, twelve = self._steps(steps=2, max_iterations=3), self._twelve_generations()
        stalled, pinned = self._masks(capped[1])
        assert stalled.any() and not stalled.all() and not pinned.any()
        stalled, pinned = self._masks(twelve[1])
        assert pinned.any() and not stalled.all()
        for model, runs in (capped, twelve):
            for result, out in runs:
                assert np.array_equal(out[:, : model.num_savers], _savings(result.x))

    @pytest.mark.parametrize("twelve", [False, True])
    def test_totals_count_the_newton_masks(self, twelve):
        model, runs = self._twelve_generations() if twelve else self._steps(2, max_iterations=3)
        totals = model.solver_totals()
        assert tuple(totals) == SOLVER_TOTALS and "polished" not in totals
        assert totals["rows"] == (5 * 2 * 23 if twelve else 2 * 2 * 9)
        stalled, pinned = self._masks(runs)
        assert totals["stalled"] == stalled.sum() > 0
        assert totals["pinned"] == pinned.sum() == (stalled.sum() if twelve else 0)
        assert totals["newton_runs"] == len(runs)
        assert totals["residual_calls"] == sum(r.residual_evaluations for r, _ in runs)

    def test_at_the_default_cap_only_pinned_rows_stall(self):
        model, _ = self._steps(steps=1)
        totals = model.solver_totals()
        assert totals["rows"] == 18
        assert totals["stalled"] == totals["pinned"] == 0  # every node of the box has a root
        totals = self._twelve_generations()[0].solver_totals()
        assert totals["stalled"] == totals["pinned"] > 0  # the youngest saver would borrow


@pytest.mark.parametrize(
    "generations, level, ceiling, youngest_floored",
    [
        (6, 2, -2.0, False),
        (8, 2, -2.0, False),
        (10, 2, -2.0, False),
        (6, 3, -2.0, False),
        (8, 3, -2.0, False),
        (12, 2, -1.9, True),
        (16, 2, -1.2, True),
    ],
)
def test_the_model_solves_cold_at_every_size(generations, level, ceiling, youngest_floored):
    """ROADMAP's size table, pinned: no row stalls at these sizes through 10 generations.

    Cold start, tolerance 1e-3, Euler error as mean log10 on 200 box points
    (measured: 6-10 iterations, -2.22 ... -2.95).  From 12 generations the
    youngest savers' steady-state saving is negative and log-savings put
    them on the borrowing floor at feasible nodes: what stalls there is
    pinned, at a saver who would borrow (measured -2.21 / -1.42 at 12 / 16
    generations).
    """
    model = OLGModel(small_calibration(num_generations=generations, num_states=2))
    runs = []
    newton = model.system.batch_solver.solve
    model.system.batch_solver.solve = lambda fn, x0: runs.append(newton(fn, x0)) or runs[-1]
    config = TimeIterationConfig(grid_level=level, tolerance=1e-3, max_iterations=60)
    result = TimeIterationSolver(model, config).solve()
    totals = model.solver_totals()
    assert result.converged and len(result.records) <= 20
    errors = model.equilibrium_errors(result.policy, model.sample_states(200, rng=0))
    assert errors["mean_log10"] <= ceiling
    if not youngest_floored:
        assert totals["stalled"] == totals["pinned"] == 0
    else:
        assert totals["stalled"] == totals["pinned"] > 0
        floored = np.concatenate([r.x <= _LOG_SAVINGS_FLOOR for r in runs]).any(axis=0)
        assert np.all(model.steady_state.profile.savings[: model.num_savers][floored] <= 0.0)


def _adaptive_step_state_by_state(model, config, policy_next: PolicySet):
    """An adaptive step as one loop over the shock states, one point solve per state per
    refinement round: the reference the one-solve-per-round pass replaced.

    Returns the policies and the number of rounds that added points (in any state).
    """
    policies, rounds = [], 0
    for z, prev in enumerate(policy_next):
        grid = prev.grid.copy()
        X = model.domain.from_unit(grid.points)
        values = solve_points(model, z, X, policy_next, values_on_grid(prev, grid, X))
        for state_round in itertools.count(1):
            if len(grid) >= config.max_points_per_state:
                break
            scale = 1.0 + np.max(np.abs(values), axis=0)
            new_rows = refine(
                grid,
                hierarchize(grid, values),
                config.refine_epsilon,
                indicator=lambda surplus: np.max(np.abs(surplus) / scale, axis=1),
                max_level=config.max_refine_level,
            )
            if new_rows.size == 0:
                break
            rounds = max(rounds, state_round)
            X_new = model.domain.from_unit(grid.points[new_rows])
            grown = np.zeros((len(grid), values.shape[1]))
            grown[: len(values)] = values
            grown[new_rows] = solve_points(model, z, X_new, policy_next, None)
            values = grown
        policies.append(StatePolicy.from_values(z, grid, values, model.domain))
    return PolicySet(policies), rounds


class TestWhichStepsFuseTheShockStates:
    """All of them: one point-solve call per pass, plus one per adaptive refinement round."""

    @staticmethod
    def _watched(num_states=2, **config):
        """A solver on a fresh model, and the ``z`` of every batch point solve it makes."""
        model = OLGModel(small_calibration(num_generations=4, num_states=num_states, beta=0.8))
        seen = []
        real = model.solve_points_batch

        def watched(z, X, policy_next, guesses=None):
            seen.append(np.array(z))
            return real(z, X, policy_next, guesses)

        model.solve_points_batch = watched
        return TimeIterationSolver(model, TimeIterationConfig(grid_level=2, **config)), seen

    def test_regular_step_is_one_call_with_the_state_of_every_row(self):
        solver, seen = self._watched()
        solver.step(solver.initial_policy())
        (z,) = seen
        assert z.tolist() == [0] * 7 + [1] * 7  # state-major over the 7-point grid
        assert solver.model.solver_totals()["newton_runs"] == 1

    @pytest.mark.parametrize("num_states", [2, 3, 4])
    def test_adaptive_step_is_one_point_solve_per_refinement_round(self, num_states):
        config = dict(adaptive=True, max_refine_level=3, max_points_per_state=30)
        solver, seen = self._watched(num_states, **config)
        policy = solver.initial_policy()
        stepped = solver.step(policy)
        other = self._watched(num_states, **config)[0]
        reference, rounds = _adaptive_step_state_by_state(other.model, other.config, policy)
        assert rounds >= 2 and solver.model.solver_totals()["newton_runs"] == 1 + rounds
        # every call carries the state of each row, state-major over all (open) states
        assert len(seen) == 1 + rounds and all(z.ndim == 1 for z in seen)
        assert seen[0].tolist() == np.repeat(np.arange(num_states), 7).tolist()
        assert all(np.array_equal(z, np.sort(z)) and set(z) == set(seen[0]) for z in seen)
        assert sum(map(len, seen)) == stepped.total_points == other.model.solver_totals()["rows"]
        for got, want in zip(stepped, reference):
            # refinement of a state stops at the cap; the round that reaches it is not cut short
            assert got.num_points > 30
            assert np.array_equal(got.grid.points, want.grid.points)
            s = want.interpolant.surplus  # BLAS blocking moves with the batch size
            assert np.all(np.abs(got.interpolant.surplus - s) <= 1e-9 * (1.0 + np.abs(s)))


class TestPerPointDispatch:
    """``solve_points(executor=)``: one ``solve_point`` per row, in any completion order."""

    def test_rows_of_all_states_go_point_by_point_and_agree_with_the_batch(self):
        from repro.parallel.executor import SerialExecutor

        model = OLGModel(small_calibration(num_generations=4, num_states=2, beta=0.8))
        policy = TimeIterationSolver(model, TimeIterationConfig(grid_level=2)).initial_policy()
        X = model.domain.from_unit(policy[0].grid.points)
        z, rows = np.repeat([0, 1], len(X)), np.tile(X, (2, 1))
        points = []
        real = model.solve_point
        model.solve_point = lambda z, x, *args: points.append(z) or real(z, x, *args)

        class Reversing:
            def map(self, fn, items):
                return [fn(item) for item in reversed(list(items))]

        serial = solve_points(model, z, rows, policy, None, SerialExecutor())
        assert points == [0] * 7 + [1] * 7 and all(isinstance(z, int) for z in points)
        assert np.array_equal(solve_points(model, z, rows, policy, None, Reversing()), serial)
        assert points[14:] == [1] * 7 + [0] * 7
        # a lone row goes through gemv, a row among others through gemm: last bits only
        np.testing.assert_allclose(serial, solve_points(model, z, rows, policy, None), rtol=1e-9)
        assert model.solver_totals()["newton_runs"] == 2 * 14 + 1


class TestSharedBasisRead:
    """One basis pass at tomorrow's states serves every successor state sharing the grid."""

    @pytest.mark.parametrize("stacked", [False, True])
    def test_one_pass_on_a_shared_grid_one_per_state_otherwise(self, monkeypatch, stacked):
        from repro.core import kernels

        model = OLGModel(small_calibration(num_generations=4, num_states=2, beta=0.8))
        shared = TimeIterationSolver(model, TimeIterationConfig(grid_level=2)).initial_policy()
        own = PolicySet(
            [
                StatePolicy.from_surplus(
                    sp.state, sp.grid.copy(), sp.interpolant.surplus, sp.nodal_values, model.domain
                )
                for sp in shared
            ]
        )
        X = model.domain.sample(5, rng=1)
        savings = np.full((5, model.num_savers), 0.1)
        if stacked:
            system = OLGModel.stacked_group([model, model], [5, 5]).system
            args = (np.arange(10), np.tile(X, (2, 1)), np.tile(savings, (2, 1)))
        else:
            system, args = model.system, (None, X, savings)
        passes = []
        real = kernels.basis_matrix
        monkeypatch.setattr(kernels, "basis_matrix", lambda *a: passes.append(1) or real(*a))
        z = np.resize([0, 1], len(args[1]))
        fused = system.euler_residuals(z, *args, [shared] * (1 + stacked))
        assert len(passes) == 1
        per_state = system.euler_residuals(z, *args, [own] * (1 + stacked))
        assert len(passes) == 1 + (2 if stacked else 0)  # one model on its own grids: the kernel
        np.testing.assert_allclose(per_state, fused, rtol=1e-13, atol=1e-13)

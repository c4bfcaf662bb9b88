"""Tests for the OLG model's economics (states, budgets, Euler equations)."""

import dataclasses
import inspect
import itertools

import numpy as np
import pytest

from repro.core.policy import PolicyRead, PolicySet, StatePolicy, values_on_grid
from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver
from repro.grids.adaptive import refine
from repro.grids.hierarchize import hierarchize
from repro.olg.calibration import small_calibration
from repro.olg import stacked
from repro.olg.euler import EulerSystem, StructuralMismatch, structure_key
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
        holdings = model.system.holdings(x)
        assert holdings[0] == 0.0                       # newborns own nothing
        assert np.array_equal(holdings[1:], x)

    def test_unpack_capital_is_the_sum_of_the_state(self, model):
        x = np.array([0.2, 0.3, 0.1, 0.0])              # an oldest age without assets is a state
        K, holdings = x.sum(), model.system.holdings(x)  # the capital prices see
        assert K == holdings.sum()

    def test_pack_next_state_is_the_clipped_savings(self, model):
        savings = np.array([0.1, 0.2, 0.3, 0.15])
        K_next, x_next = model.system.next_states(0, savings)
        assert K_next == savings.sum()
        assert np.array_equal(x_next, np.clip(savings, model.domain.lower, model.domain.upper))
        inside = 0.5 * (model.domain.lower + model.domain.upper)
        assert np.array_equal(model.system.next_states(0, inside)[1], inside)

    def test_pack_clips_to_domain(self, model):
        savings = np.full(model.num_savers, 1e6)
        _, x_next = model.system.next_states(0, savings)
        assert np.all(x_next <= model.domain.upper + 1e-12)


class TestEnvironment:
    def test_incomes_by_age(self, model):
        env = model.system.environment(0, 0, 1.0)
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
        env = model.system.environment(1, 0, 1.0)
        tau_c = model.calibration.shocks.label("tau_capital")[1]
        assert env.gross_return == pytest.approx(
            1.0 + (1.0 - tau_c) * env.prices.return_net
        )

    def test_productivity_states_differ(self, model):
        low = model.system.environment(0, 0, 1.0)
        high = model.system.environment(1, 0, 1.0)
        assert high.prices.wage > low.prices.wage

    def test_the_initial_guess_prices_each_state_once(self, model, monkeypatch):
        """Cash on hand for p^0 is one call over all grid rows of a shock state."""
        calls = []
        real = EulerSystem.environment
        monkeypatch.setattr(
            EulerSystem, "environment", lambda *a: calls.append(1) or real(*a)
        )
        TimeIterationSolver(model, TimeIterationConfig(grid_level=3)).initial_policy()
        assert len(calls) == model.num_states


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
        K_state, holdings = x.sum(), model.system.holdings(x)
        env = model.system.environment(z, 0, K_state)
        savings = np.maximum(ss.profile.savings[: model.num_savers], 0.0)
        consumption = model.system.consumption(env, holdings, savings)
        delta = cal.shocks.label("depreciation")[z]
        lhs = consumption.sum() + savings.sum()
        rhs = env.prices.output + (1.0 - delta) * K_state
        # capital taxes are rebated and labor taxes become pensions
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_oldest_consumes_everything(self, model):
        x = 0.5 * (model.domain.lower + model.domain.upper)
        holdings = model.system.holdings(x)
        env = model.system.environment(0, 0, x.sum())
        savings = np.full(model.num_savers, 0.05)
        consumption = model.system.consumption(env, holdings, savings)
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

        Its steady-state saving is negative there: a binding borrowing
        constraint at feasible nodes, which the complementarity residual
        makes a root like any other.
        """
        return cls._steps(steps=5, calibration=small_calibration(12, 2))

    @staticmethod
    def _stalled(runs):
        return np.concatenate([~result.converged for result, _ in runs])

    def test_stalled_rows_keep_the_newton_iterate_bit_for_bit(self):
        # three Newton iterations leave most rows short of tolerance; the
        # 12-generation model's savers on the floor converge
        capped, twelve = self._steps(steps=2, max_iterations=3), self._twelve_generations()
        stalled = self._stalled(capped[1])
        assert stalled.any() and not stalled.all()
        assert not self._stalled(twelve[1]).any()
        floored = np.concatenate([out[:, : twelve[0].num_savers] for _, out in twelve[1]])
        assert np.any(np.abs(floored) <= 1e-8)
        for model, runs in (capped, twelve):
            for result, out in runs:
                assert np.array_equal(out[:, : model.num_savers], result.x)

    @pytest.mark.parametrize("twelve", [False, True])
    def test_totals_count_the_newton_masks(self, twelve):
        model, runs = self._twelve_generations() if twelve else self._steps(2, max_iterations=3)
        totals = model.solver_totals()
        assert tuple(totals) == SOLVER_TOTALS and "polished" not in totals
        assert totals["rows"] == (5 * 2 * 23 if twelve else 2 * 2 * 9)
        stalled = self._stalled(runs)
        assert totals["stalled"] == stalled.sum()
        assert (totals["stalled"] == 0) if twelve else (totals["stalled"] > 0)
        assert totals["newton_runs"] == len(runs)
        assert totals["residual_calls"] == sum(r.residual_evaluations for r, _ in runs)

    def test_at_the_default_cap_no_row_stalls(self):
        model, _ = self._steps(steps=1)
        totals = model.solver_totals()
        assert totals["rows"] == 18
        assert totals["stalled"] == 0  # every node of the box has a root
        totals = self._twelve_generations()[0].solver_totals()
        assert totals["stalled"] == 0  # a saver who would borrow sits on the floor


@pytest.mark.parametrize(
    "generations, level, ceiling, youngest_floored",
    [
        (6, 2, -2.0, False),
        (8, 2, -2.0, False),
        (10, 2, -2.0, False),
        (6, 3, -2.0, False),
        (8, 3, -2.0, False),
        (12, 2, -2.3, True),
        (16, 2, -2.3, True),
    ],
)
def test_the_model_solves_cold_at_every_size(generations, level, ceiling, youngest_floored):
    """ROADMAP's size table, pinned: no row stalls, and Newton runs stay short.

    Cold start, tolerance 1e-3, Euler error as mean log10 on 200 box points
    (measured: 6-16 iterations, -2.22 ... -2.95, -2.41 / -2.44 at 12 / 16
    generations).  From 12 generations the youngest savers' steady-state
    saving is negative and they sit on the borrowing floor at feasible
    nodes: the converged policy, read as its own next policy, satisfies
    complementarity there (no saving below the floor; on it, a saver who
    would borrow).
    """
    model = OLGModel(small_calibration(num_generations=generations, num_states=2))
    config = TimeIterationConfig(grid_level=level, tolerance=1e-3, max_iterations=60)
    result = TimeIterationSolver(model, config).solve()
    totals = model.solver_totals()
    assert result.converged and len(result.records) <= 20
    assert totals["stalled"] == 0
    assert totals["residual_calls"] <= 12 * totals["newton_runs"]
    errors = model.equilibrium_errors(result.policy, model.sample_states(200, rng=0))
    assert errors["mean_log10"] <= ceiling
    ns, floored = model.num_savers, np.zeros(model.num_savers, dtype=bool)
    for sp in result.policy:
        X, savings = model.domain.from_unit(sp.grid.points), sp.nodal_values[:, :ns]
        gap = model.euler_residuals_batch(sp.state, X, savings, result.policy)
        on_floor = savings <= 1e-8
        assert np.all(savings >= -1e-8) and np.all(gap[on_floor] >= 0.0)
        floored |= on_floor.any(axis=0)
    # only ages that borrow in the steady state reach the floor
    assert floored.any() == youngest_floored
    assert np.all(model.steady_state.profile.savings[:ns][floored] <= 0.0)


def _with_savings_share(model, policy: PolicySet, share: float) -> PolicySet:
    """``policy`` with its nodal savings replaced by ``share`` of cash on hand."""
    ns, states = model.num_savers, []
    for sp in policy:
        X, values = model.domain.from_unit(sp.grid.points), sp.nodal_values.copy()
        values[:, :ns] = share * model.system.resources(sp.state, 0, X)
        states.append(StatePolicy.from_values(sp.state, sp.grid, values, model.domain))
    return PolicySet(states)


def test_twelve_generations_land_on_one_policy_from_any_start():
    """Cold, and from savings at 0.25 and 0.6 of cash on hand: one policy, one error.

    Savers sit on the borrowing floor at some nodes.  A formulation without
    a root there stalls those rows where the start leads it (measured 7e-3
    apart in nodal savings); here the three runs measured 3.4e-5 / 1.6e-4
    apart, errors -2.41 / -2.41 / -2.40.
    """
    runs = []
    for share in (None, 0.25, 0.6):
        model = OLGModel(small_calibration(num_generations=12, num_states=2))
        config = TimeIterationConfig(grid_level=2, tolerance=1e-3, max_iterations=60)
        solver = TimeIterationSolver(model, config)
        start = None if share is None else _with_savings_share(
            model, solver.initial_policy(), share
        )
        result = solver.solve(initial_policy=start)
        assert result.converged and model.solver_totals()["stalled"] == 0
        error = model.equilibrium_errors(result.policy, model.sample_states(200, rng=0))
        savings = np.concatenate([sp.nodal_values[:, : model.num_savers] for sp in result.policy])
        runs.append((savings, error["mean_log10"]))
    (cold, cold_error), *others = runs
    for savings, error in others:
        assert np.max(np.abs(savings - cold)) <= 1e-3 * np.max(np.abs(cold))
        assert abs(error - cold_error) <= 0.02


def _adaptive_step_state_by_state(model, config, policy_next: PolicySet):
    """An adaptive step as one loop over the shock states, one point solve per state per
    refinement round: the reference the one-solve-per-round pass replaced.

    Returns the policies and the number of rounds that added points (in any state).
    """
    policies, rounds = [], 0
    for z, prev in enumerate(policy_next):
        grid = prev.grid.copy()
        X = model.domain.from_unit(grid.points)
        values = model.solve_points_batch(z, X, policy_next, values_on_grid(prev, grid, X))
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
            grown[new_rows] = model.solve_points_batch(z, X_new, policy_next)
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


# what each entry point returns on no rows of a 4-generation, 2-state model
_NO_ROWS = {
    "solve_points_batch": ((0, 6), lambda m, p, X, S: m.solve_points_batch(0, X, p)),
    "solve_points_batch-per-row-z": (
        (0, 6),
        lambda m, p, X, S: m.solve_points_batch(np.zeros(0, dtype=int), X, p, np.zeros((0, 6))),
    ),
    "euler_residuals_batch": ((0, 3), lambda m, p, X, S: m.euler_residuals_batch(0, X, S, p)),
    "value_functions_batch": ((0, 3), lambda m, p, X, S: m.value_functions_batch(0, X, S, p)),
    "evaluate_all_states": ((2, 0, 6), lambda m, p, X, S: p.evaluate_all_states(X)),
    "stacked-solve_points": (
        (2, 0, 6),
        lambda m, p, X, S: np.stack(
            OLGModel.stacked_group([m, m], [0, 0]).solve_points(0, [X, X], [p, p], [None] * 2)
        ),
    ),
}


@pytest.mark.parametrize("call", [*_NO_ROWS, "equilibrium_errors"])
def test_zero_rows_give_empty_arrays_of_the_right_width(call):
    """No rows: an empty answer, ``2 (A-1)`` or ``A-1`` wide; no sample: a ``ValueError``.

    A Newton run over no rows reaches no successor state, and its one
    residual call reads nothing.
    """
    model = OLGModel(small_calibration(num_generations=4, num_states=2, beta=0.8))
    policy = TimeIterationSolver(model, TimeIterationConfig(grid_level=2)).initial_policy()
    X = model.domain.from_unit(policy[0].grid.points)[:0]
    if call == "equilibrium_errors":
        with pytest.raises(ValueError, match="empty sample"):
            model.equilibrium_errors(policy, X)
        return
    shape, entry = _NO_ROWS[call]
    out = entry(model, policy, X, np.zeros((0, model.num_savers)))
    assert out.shape == shape and out.dtype == float


class TestRowIndependence:
    def test_a_pass_solved_row_by_row_equals_the_batch(self):
        """A row's solve never sees its neighbours: ``solve_point`` per row == the one batch."""
        model = OLGModel(small_calibration(num_generations=4, num_states=2, beta=0.8))
        policy = TimeIterationSolver(model, TimeIterationConfig(grid_level=2)).initial_policy()
        X = model.domain.from_unit(policy[0].grid.points)
        z, rows = np.repeat([0, 1], len(X)), np.tile(X, (2, 1))
        looped = np.array([model.solve_point(int(s), x, policy) for s, x in zip(z, rows)])
        # a lone row goes through gemv, a row among others through gemm: last bits only
        np.testing.assert_allclose(looped, model.solve_points_batch(z, rows, policy), rtol=1e-9)
        assert model.solver_totals()["newton_runs"] == 14 + 1


class TestSharedBasisRead:
    """One basis pass at tomorrow's states serves every successor state sharing the grid."""

    @staticmethod
    def _shared_and_own(model):
        """``p^0`` on the shared regular grid, and the same policies on per-state grid copies."""
        shared = TimeIterationSolver(model, TimeIterationConfig(grid_level=2)).initial_policy()
        own = PolicySet(
            [
                StatePolicy.from_surplus(
                    sp.state, sp.grid.copy(), sp.interpolant.surplus, sp.nodal_values, model.domain
                )
                for sp in shared
            ]
        )
        return shared, own

    def test_one_pass_on_a_shared_grid_one_per_state_otherwise(self, monkeypatch):
        from repro.core import kernels

        model = OLGModel(small_calibration(num_generations=4, num_states=2, beta=0.8))
        shared, own = self._shared_and_own(model)
        X = model.domain.sample(5, rng=1)
        savings = np.full((5, model.num_savers), 0.1)
        passes = []
        real = kernels.basis_matrix
        monkeypatch.setattr(kernels, "basis_matrix", lambda *a: passes.append(1) or real(*a))
        z = np.resize([0, 1], len(X))
        fused = model.system.euler_residuals(z, 0, X, savings, [shared])
        assert len(passes) == 1
        per_state = model.system.euler_residuals(z, 0, X, savings, [own])
        assert len(passes) == 1  # one model on its own grids: each state's interpolant
        np.testing.assert_allclose(per_state, fused, rtol=1e-13, atol=1e-13)

    def test_several_models_on_per_state_grids_are_refused(self):
        # a stack shares one grid and an adaptive solve never stacks: no solve reads this
        model = OLGModel(small_calibration(num_generations=4, num_states=2, beta=0.8))
        shared, own = self._shared_and_own(model)
        PolicyRead([shared, shared])
        PolicyRead([own])
        with pytest.raises(ValueError, match="one grid object"):
            PolicyRead([own, own])
        with pytest.raises(ValueError, match="one grid object"):
            PolicyRead([shared, own])

    @pytest.mark.parametrize("stacked", [False, True])
    def test_a_newton_run_prepares_its_read_once(self, monkeypatch, stacked):
        """A whole solve: a basis pass per residual call and one for the value update.

        The reordered GEMM operand is built once per model and successor set
        (here every row reaches both states), not once per residual call.
        """
        from repro.core import kernels
        from repro.core.compression import CompressedGrid

        model = OLGModel(small_calibration(num_generations=4, num_states=2, beta=0.8))
        policy = TimeIterationSolver(model, TimeIterationConfig(grid_level=2)).initial_policy()
        members = 1 + stacked
        nodes = model.domain.from_unit(policy[0].grid.points)
        X = np.tile(nodes, (2 * members, 1))
        z = np.tile(np.repeat([0, 1], len(nodes)), members)
        group = OLGModel.stacked_group([model] * members, [2 * len(nodes)] * members)
        system, member = (group.system, group.member) if stacked else (model.system, 0)
        passes, reorders, runs = [], [], []
        basis, reorder, newton = (
            kernels.basis_matrix,
            CompressedGrid.reorder,
            system.batch_solver.solve,
        )
        monkeypatch.setattr(kernels, "basis_matrix", lambda *a: passes.append(1) or basis(*a))
        monkeypatch.setattr(
            CompressedGrid, "reorder", lambda *a: reorders.append(1) or reorder(*a)
        )
        monkeypatch.setattr(
            system.batch_solver, "solve", lambda *a: runs.append(newton(*a)) or runs[-1]
        )
        system.solve(z, member, X, [policy] * members, None)
        (run,) = runs
        assert run.residual_evaluations > 1
        assert len(passes) == run.residual_evaluations + 1
        assert len(reorders) == members


class TestMembers:
    """Each row names its model, so one model is a stack of one."""

    @pytest.mark.parametrize(
        "other",
        [
            {"calibration": small_calibration(num_generations=4, num_states=2, gamma=3.0)},
            {"solver": NewtonSolver(tol=1e-9)},
        ],
        ids=["preferences", "solver-settings"],
    )
    def test_structurally_different_models_share_no_system(self, other):
        a = OLGModel(small_calibration(num_generations=4, num_states=2))
        b = OLGModel(**{"calibration": a.calibration, **other})
        with pytest.raises(StructuralMismatch):
            EulerSystem([a, b])
        with pytest.raises(StructuralMismatch):
            OLGModel.stacked_group([a, b], [3, 3])
        assert stacked.StructuralMismatch is StructuralMismatch

    @pytest.mark.parametrize(
        "change, shared",
        [
            ({"beta": 0.75}, True),
            ({"tau_labor": 0.25}, True),
            ({"persistence": 0.6}, True),
            ({"depreciation": 0.2}, True),
            ({"gamma": 3.0}, False),
            ({"theta": 0.4}, False),
            ({"num_generations": 5}, False),
            ({"num_states": 3}, False),
            ({"retirement_age": 2}, False),
            ({"consumption_floor": 1e-5}, False),
            ({"efficiency": np.array([0.9, 1.0, 1.1, 0.0])}, False),
        ],
        ids=lambda v: next(iter(v)) if isinstance(v, dict) else str(v),
    )
    def test_the_structure_key_decides_which_models_share_a_system(self, change, shared):
        # one rule: two calibrations share an Euler system exactly when their
        # structure keys are equal, which is what the scenario drain groups by
        base = {"num_generations": 4, "num_states": 2}
        builder_args = inspect.signature(small_calibration).parameters
        built = {k: v for k, v in change.items() if k in builder_args}
        a_cal = small_calibration(**base)
        b_cal = small_calibration(**{**base, **built})
        b_cal = dataclasses.replace(b_cal, **{k: v for k, v in change.items() if k not in built})
        assert (structure_key(a_cal) == structure_key(b_cal)) == shared
        a, b = OLGModel(a_cal), OLGModel(b_cal)
        if shared:
            group = OLGModel.stacked_group([a, b], [3, 3])
            assert np.array_equal(group.member, np.repeat([0, 1], 3))
        else:
            with pytest.raises(StructuralMismatch, match="calibration structures differ"):
                OLGModel.stacked_group([a, b], [3, 3])

    def test_one_index_and_one_per_row_give_the_same_bits(self):
        model = OLGModel(small_calibration(num_generations=5, num_states=2, beta=0.8))
        policy = TimeIterationSolver(model, TimeIterationConfig(grid_level=3)).initial_policy()
        X = model.domain.from_unit(policy[0].grid.points)
        m = len(X)
        group = OLGModel.stacked_group([model], [m])
        assert np.array_equal(group.member, np.zeros(m, dtype=int))
        for z in range(model.num_states):
            nodal = policy[z].nodal_values
            savings = np.maximum(nodal[:, : model.num_savers], 1e-8)
            for name in ("euler_residuals", "value_functions"):
                method = getattr(model.system, name)
                one = method(z, 0, X, savings, [policy])
                assert np.array_equal(one, method(z, np.zeros(m, dtype=int), X, savings, [policy]))
            (in_stack,) = group.solve_points(z, [X], [policy], [nodal])
            assert np.array_equal(in_stack, model.solve_points_batch(z, X, policy, nodal))

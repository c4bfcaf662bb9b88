"""Property-based tests (hypothesis) for the core invariants.

These cover the properties DESIGN.md commits to:

* sparse grid interpolation is exact at grid points for arbitrary nodal data;
* the compressed kernels agree with the dense ("gold") kernel on random
  grids, surpluses and query points;
* hierarchize / evaluate is a round trip;
* the proportional partition rule conserves processes and respects bounds;
* the scheduling simulation never beats the theoretical lower bounds;
* Markov chain constructions stay stochastic;
* the one Euler system: the scalar, batch and stacked-group adapters of the
  OLG model evaluate the same rows code, a row never sees its neighbours,
  the shock state is a per-row argument (all states fused == state by
  state), a Newton run's prepared residual calls are the public residual
  bit for bit, and the batch Newton solver reproduces the scalar one row by
  row.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.core.batched import BatchedTimeIterationSolver
from repro.core.compression import compress_grid
from repro.core.kernels import evaluate
from repro.core.policy import PolicySet, StatePolicy
from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver
from repro.grids.hierarchize import evaluate_dense, hierarchize
from repro.grids.regular import regular_sparse_grid
from repro.olg.calibration import small_calibration
from repro.olg.markov import MarkovChain, persistent_chain, rouwenhorst
from repro.olg.model import OLGModel
from repro.olg.preferences import CRRAUtility
from repro.olg.solver import BatchNewtonSolver, NewtonSolver
from repro.parallel.partition import partition_counts, proportional_group_sizes
from repro.parallel.scheduler import simulate_schedule

# shared hypothesis settings: the grid-based properties build real grids, so
# keep example counts moderate and disable the too-slow health check.
GRID_SETTINGS = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --------------------------------------------------------------------------- #
# sparse grid properties
# --------------------------------------------------------------------------- #
@GRID_SETTINGS
@given(
    dim=st.integers(min_value=1, max_value=4),
    level=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_interpolation_exact_at_grid_points(dim, level, seed):
    grid = regular_sparse_grid(dim, level)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(len(grid))
    surplus = hierarchize(grid, values)
    np.testing.assert_allclose(
        evaluate_dense(grid, surplus, grid.points), values, atol=1e-9
    )


@GRID_SETTINGS
@given(
    dim=st.integers(min_value=2, max_value=4),
    level=st.integers(min_value=2, max_value=4),
    num_dofs=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_compressed_kernels_match_dense_kernel(dim, level, num_dofs, seed):
    grid = regular_sparse_grid(dim, level)
    rng = np.random.default_rng(seed)
    surplus = rng.standard_normal((len(grid), num_dofs))
    queries = rng.random((11, dim))
    comp = compress_grid(grid)
    reference = evaluate(comp, surplus, queries, kernel="gold")
    for kernel in ("x86", "avx", "avx2", "avx512", "cuda"):
        np.testing.assert_allclose(
            evaluate(comp, surplus, queries, kernel=kernel), reference, atol=1e-10
        )


@GRID_SETTINGS
@given(
    dim=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_hierarchize_evaluate_roundtrip(dim, seed):
    """hierarchize(evaluate(surplus)) returns the original surpluses."""
    grid = regular_sparse_grid(dim, 3)
    rng = np.random.default_rng(seed)
    surplus = rng.standard_normal(len(grid))
    nodal = evaluate_dense(grid, surplus, grid.points)
    np.testing.assert_allclose(hierarchize(grid, nodal), surplus, atol=1e-9)


@GRID_SETTINGS
@given(
    dim=st.integers(min_value=2, max_value=5),
    level=st.integers(min_value=2, max_value=4),
)
def test_compression_invariants(dim, level):
    grid = regular_sparse_grid(dim, level)
    comp = compress_grid(grid)
    # chain length bound and sentinel validity
    assert comp.nfreq <= max(level - 1, 1)
    assert comp.chains.shape == (len(grid), comp.nfreq)
    assert comp.chains.min() >= 0
    assert comp.chains.max() < comp.num_xps
    # order is a permutation
    assert np.array_equal(np.sort(comp.order), np.arange(len(grid)))
    # number of unique factors: at most (#levels >= 2 per dim) x dim, plus sentinel
    max_factors = sum(len(set(grid.indices[grid.levels[:, t] >= 2, t])) for t in range(dim))
    assert comp.num_xps <= dim * 2 ** max(level - 1, 1) + 1
    assert comp.num_xps >= 1


# --------------------------------------------------------------------------- #
# partitioning and scheduling properties
# --------------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=32),
    total=st.integers(min_value=1, max_value=5_000),
)
def test_proportional_partition_conserves_processes(weights, total):
    sizes = proportional_group_sizes(weights, total)
    assert sizes.sum() == total
    assert np.all(sizes >= 0)
    if total >= len(weights):
        assert np.all(sizes >= 1)


@settings(max_examples=200, deadline=None)
@given(
    num_items=st.integers(min_value=0, max_value=10**6),
    num_parts=st.integers(min_value=1, max_value=512),
)
def test_partition_counts_conserve_items(num_items, num_parts):
    counts = partition_counts(num_items, num_parts)
    assert counts.sum() == num_items
    assert counts.max() - counts.min() <= 1


@settings(max_examples=60, deadline=None)
@given(
    costs=st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=200),
    workers=st.integers(min_value=1, max_value=32),
)
def test_schedule_simulation_bounds(costs, workers):
    costs = np.asarray(costs)
    out = simulate_schedule(costs, workers, stealing=True)
    lower = max(costs.sum() / workers, costs.max())
    assert out["makespan"] >= lower - 1e-9
    assert out["makespan"] <= costs.sum() + 1e-9
    assert 0.0 < out["efficiency"] <= 1.0 + 1e-9
    # static partitioning can never beat the greedy bound by construction
    static = simulate_schedule(costs, workers, stealing=False)
    assert static["makespan"] >= lower - 1e-9


# --------------------------------------------------------------------------- #
# economics substrate properties
# --------------------------------------------------------------------------- #
@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    rho=st.floats(min_value=-0.95, max_value=0.95),
    sigma=st.floats(min_value=1e-3, max_value=1.0),
)
def test_rouwenhorst_always_stochastic(n, rho, sigma):
    values, pi = rouwenhorst(n, rho, sigma)
    np.testing.assert_allclose(pi.sum(axis=1), 1.0, atol=1e-10)
    assert np.all(pi >= -1e-12)
    assert np.all(np.diff(values) >= 0)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    persistence=st.floats(min_value=0.0, max_value=1.0),
)
def test_persistent_chain_stationary_uniform(n, persistence):
    chain = MarkovChain(persistent_chain(n, persistence))
    dist = chain.stationary_distribution()
    np.testing.assert_allclose(dist.sum(), 1.0, atol=1e-9)
    # the symmetric chain has a uniform stationary distribution; near
    # persistence = 1 the unit eigenvalue is (numerically) degenerate, so the
    # uniformity check is only meaningful away from that boundary
    if n > 1 and persistence < 0.99:
        np.testing.assert_allclose(dist, 1.0 / n, atol=1e-6)


@settings(max_examples=100, deadline=None)
@given(
    gamma=st.floats(min_value=0.5, max_value=8.0),
    c=st.floats(min_value=1e-4, max_value=50.0),
)
def test_crra_inverse_marginal_utility_roundtrip(gamma, c):
    utility = CRRAUtility(gamma=gamma, c_min=1e-6)
    mu = utility.marginal_utility(c)
    assert utility.inverse_marginal_utility(mu) == pytest.approx(c, rel=1e-8)


@settings(max_examples=50, deadline=None)
@given(
    gamma=st.floats(min_value=0.5, max_value=6.0),
    c1=st.floats(min_value=1e-3, max_value=10.0),
    c2=st.floats(min_value=1e-3, max_value=10.0),
)
def test_crra_utility_monotone(gamma, c1, c2):
    utility = CRRAUtility(gamma=gamma)
    lo, hi = sorted((c1, c2))
    assert utility.utility(hi) >= utility.utility(lo) - 1e-12
    assert utility.marginal_utility(hi) <= utility.marginal_utility(lo) + 1e-12


# --------------------------------------------------------------------------- #
# one Euler system, one point solve
# --------------------------------------------------------------------------- #
MODEL_SETTINGS = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

calibrations = st.fixed_dictionaries(
    {
        "num_generations": st.integers(4, 5),
        "num_states": st.integers(1, 2),
        "beta": st.floats(0.75, 0.95),
        "tau_labor": st.floats(0.05, 0.3),
        "tau_capital": st.floats(0.0, 0.2),
    }
)


def _model_case(calibration: dict, seed: int, rows: int = 6):
    """A model, its level-2 initial policy, and seeded states/savings inside the box."""
    model = OLGModel(small_calibration(**calibration))
    policy = TimeIterationSolver(model, TimeIterationConfig(grid_level=2)).initial_policy()
    rng = np.random.default_rng(seed)
    X = model.domain.from_unit(rng.random((rows, model.state_dim)))
    savings = rng.uniform(0.01, 0.4, size=(rows, model.num_savers))
    return model, policy, X, savings


def _close(a, b) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= 1e-12 * (1.0 + np.abs(b))))


@MODEL_SETTINGS
@given(calibration=calibrations, seed=st.integers(0, 2**31 - 1))
# state 1, row 5 sits on the consumption floor, where numpy-scalar and array
# arithmetic part by 1e-12 relative: the scalar form must not take the former
@example(
    calibration={
        "num_generations": 4,
        "num_states": 2,
        "beta": 0.874546089931022,
        "tau_labor": 0.1582709332102658,
        "tau_capital": 0.0,
    },
    seed=583,
)
def test_euler_adapters_are_one_system(calibration, seed):
    """Scalar adapter == 1-row batch adapter == group row, for residuals and values.

    The scalar adapter is the batch adapter on one row, and the stacked
    group (the model listed twice, so the per-row parameter path runs) is
    the same array code: all three agree bit for bit.
    """
    model, policy, X, savings = _model_case(calibration, seed)
    group = OLGModel.stacked_group([model, model], [len(X), len(X)])
    for z in range(model.num_states):
        pairs = (
            (model.euler_residuals, model.euler_residuals_batch, group.euler_residuals_rows),
            (model.value_functions, model.value_functions_batch, group.value_functions_rows),
        )
        for scalar, batch, rows in pairs:
            for i in range(len(X)):
                one_row = batch(z, X[i : i + 1], savings[i : i + 1], policy)
                assert one_row.shape == (1, model.num_savers)
                # the row as a member of the second copy of the model
                member = np.array([len(X) + i])
                in_group = rows(z, member, X[i : i + 1], savings[i : i + 1], [policy, policy])
                assert np.array_equal(one_row, in_group)
                assert np.array_equal(scalar(z, X[i], savings[i], policy), one_row[0])


@MODEL_SETTINGS
@given(calibration=calibrations, seed=st.integers(0, 2**31 - 1), data=st.data())
def test_residual_row_ignores_its_neighbours(calibration, seed, data):
    model, policy, X, savings = _model_case(calibration, seed)
    z = data.draw(st.integers(0, model.num_states - 1))
    full = model.euler_residuals_batch(z, X, savings, policy)
    subset = np.array(sorted(data.draw(st.sets(st.integers(0, len(X) - 1), min_size=1))))
    alone = model.euler_residuals_batch(z, X[subset], savings[subset], policy)
    assert _close(alone, full[subset])
    group = OLGModel.stacked_group([model, model], [len(X), len(X)])
    both = [policy, policy]
    stacked = group.euler_residuals_rows(
        z, np.arange(2 * len(X)), np.tile(X, (2, 1)), np.tile(savings, (2, 1)), both
    )
    assert _close(stacked[: len(X)], full) and _close(stacked[len(X) :], full)
    picked = group.euler_residuals_rows(z, subset, X[subset], savings[subset], both)
    assert _close(picked, full[subset])


@MODEL_SETTINGS
@given(calibration=calibrations, seed=st.integers(0, 2**31 - 1), data=st.data())
def test_residual_on_repeated_rows_repeats_the_rows(calibration, seed, data):
    """What the fused Newton relies on: ``rows`` may repeat, as long as it stays sorted.

    Each copy of a row carries its own candidate savings (here: the plain
    call's savings of some row), and gets that candidate's residual.
    """
    model, policy, X, savings = _model_case(calibration, seed)
    z = data.draw(st.integers(0, model.num_states - 1))
    m = len(X)
    repeats = np.array(data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)))
    rows = np.repeat(np.arange(m), repeats)
    assume(rows.size)
    candidates = savings[data.draw(st.permutations(range(m)))][np.arange(rows.size) % m]
    # reference: one plain (unrepeated) call per candidate
    expected = np.array(
        [
            model.euler_residuals_batch(z, X[r : r + 1], c[None, :], policy)[0]
            for r, c in zip(rows, candidates)
        ]
    )
    group = OLGModel.stacked_group([model, model], [m, m])
    alone = model.system.euler_residuals(z, group.member[rows], X[rows], candidates, [policy])
    assert _close(alone, expected)
    both_rows = np.concatenate([rows, m + rows])
    stacked = group.euler_residuals_rows(
        z, both_rows, np.tile(X[rows], (2, 1)), np.tile(candidates, (2, 1)), [policy, policy]
    )
    assert _close(stacked[: rows.size], expected) and _close(stacked[rows.size :], expected)


@MODEL_SETTINGS
@given(calibration=calibrations, seed=st.integers(0, 2**31 - 1))
# one error is 5.05e-7: the per-element errors agree to 8.9e-16, but its log10
# moves by 9.5e-11, which moves mean_log10 by 2.4e-12
@example(
    calibration={
        "num_generations": 5,
        "num_states": 2,
        "beta": 0.7527027400220612,
        "tau_labor": 0.09291280599227583,
        "tau_capital": 0.11542049919682505,
    },
    seed=523583,
)
def test_initial_policy_and_errors_match_the_per_row_loop(calibration, seed):
    """The vectorized diagnostics equal the per-point evaluations they replaced."""
    model, policy, X, _ = _model_case(calibration, seed, rows=5)
    system, ns = model.system, model.num_savers
    errors = []
    for z in range(model.num_states):
        # initial_policy_values: cash on hand point by point vs over rows
        looped = np.array([system.resources(z, 0, x) for x in X])
        assert _close(system.resources(z, 0, X), looped)
        assert _close(
            model.initial_policy_values(z, X),
            np.array([model.initial_policy_values(z, x)[0] for x in X]),
        )
        # equilibrium_errors: one point at a time, the Euler gap over consumption
        for x in X:
            savings = np.maximum(np.asarray(policy.evaluate(z, x))[:ns], 0.0)
            env = system.environment(z, 0, float(x.sum()))
            consumption = system.consumption(env, system.holdings(x), savings)
            cons = np.maximum(consumption[:ns], model.utility.c_min)
            gap = model.euler_residuals(z, x, savings, policy)
            errors.append(np.abs(gap / cons))
    stacked = np.concatenate(errors)
    got = model.equilibrium_errors(policy, X)
    assert got["num_evaluations"] == stacked.size
    assert _close(got["linf"], np.max(stacked))
    assert _close(got["l2"], np.sqrt(np.mean(stacked**2)))
    # log10 magnifies an absolute agreement of the errors by 1 / (ln 10 * error): the
    # bound propagates 1e-14 per element on top of the relative 1e-12 of _close
    floored = np.maximum(stacked, 1e-16)
    propagated = 1e-14 * np.mean(1.0 / (np.log(10.0) * floored))
    want = np.mean(np.log10(floored))
    assert abs(got["mean_log10"] - want) <= 1e-12 * (1.0 + abs(want)) + propagated


@MODEL_SETTINGS
@given(
    generations=st.integers(3, 16),
    level=st.integers(2, 3),
    beta=st.floats(0.75, 0.95),
    seed=st.integers(0, 2**31 - 1),
)
def test_every_point_of_the_box_is_an_economy(generations, level, beta, seed):
    """Feasible by construction: holdings are non-negative and sum to the capital prices see."""
    model = OLGModel(small_calibration(generations, 2, beta=beta))
    domain = model.domain
    assert np.all(domain.lower >= 0.0) and np.all(domain.lower < domain.upper)
    nodes = domain.from_unit(regular_sparse_grid(model.state_dim, level).points)
    for x in np.concatenate([domain.sample(50, rng=seed), nodes]):
        K, holdings = x.sum(), model.system.holdings(x)
        assert holdings.shape == (generations,) and np.all(holdings >= 0.0)
        assert abs(holdings.sum() - K) <= 1e-12 * max(K, 1.0)
        assert K > 0.0
    # what the residual is evaluated with is the same decomposition, over rows
    assert np.array_equal(model.system.holdings(nodes)[:, 1:], nodes)


fused_calibrations = st.fixed_dictionaries(
    {
        "num_generations": st.integers(4, 6),
        "num_states": st.integers(2, 3),
        "beta": st.floats(0.75, 0.95),
        "tau_labor": st.floats(0.05, 0.3),
    }
)


def _thinned(calibration, rng: np.random.Generator):
    """The calibration with some transitions cut, so the states' successors differ."""
    transition = calibration.shocks.transition.copy()
    cut = rng.random(transition.shape) < 0.3
    np.fill_diagonal(cut, False)
    transition[cut] = 0.0
    transition /= transition.sum(axis=1, keepdims=True)
    shocks = MarkovChain(transition=transition, labels=dict(calibration.shocks.labels))
    return dataclasses.replace(calibration, shocks=shocks)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    calibration=fused_calibrations,
    level=st.integers(2, 3),
    thin=st.booleans(),
    stacked=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_shock_state_is_a_row_parameter(calibration, level, thin, stacked, seed):
    _fused_against_per_state(calibration, level, thin, stacked, seed)


def test_fused_solve_keeps_the_floored_rows_of_twelve_generations():
    """Savers on the borrowing floor converge there in the fused solve as in the per-state ones.

    Four passes into a 12-generation solve the youngest saver, whose
    steady-state saving is negative, sits on the borrowing floor at some
    of the nodes: roots of the complementarity residual, so no row stalls.
    """
    calibration = {"num_generations": 12, "num_states": 2}
    stalled, savings = _fused_against_per_state(
        calibration, 2, thin=False, stacked=True, seed=0, passes=4
    )
    assert not stalled.any()
    assert np.any(np.abs(savings) <= 1e-8) and np.all(savings >= -1e-8)


def _fused_against_per_state(calibration, level, thin, stacked, seed, passes=0):
    """All shock states in one call == one call per state, for residuals, values and solves.

    ``z`` as an int array aligned with the rows gives, block by block, what
    the per-state calls with an int ``z`` give (<= 1e-13: the states share
    the successor loop, and a row that cannot reach a successor carries
    probability zero there); the fused solve is the per-state solves
    (<= 1e-10) with the same rows stalled.  Holds for one model (member
    ``0``) and for a stacked pair, at the initial policy or ``passes``
    time-iteration steps on; returns the fused stalled mask and savings.
    """
    rng = np.random.default_rng(seed)
    cal = small_calibration(**calibration)
    models = [OLGModel(_thinned(cal, rng) if thin else cal)]
    if stacked:
        models.append(OLGModel(dataclasses.replace(models[0].calibration, beta=0.85)))
    num_states, members = models[0].num_states, len(models)
    config = TimeIterationConfig(grid_level=level)
    grid = regular_sparse_grid(models[0].state_dim, level)
    policies = []
    for model in models:
        solver = TimeIterationSolver(model, config)
        fresh = solver.initial_policy()
        for _ in range(passes):
            fresh = solver.step(fresh)
        policies.append(BatchedTimeIterationSolver._reanchor(fresh, grid))  # one shared grid
    n = len(grid)
    blocks = [model.domain.from_unit(grid.points) for model in models]

    def system_of(counts):
        group = OLGModel.stacked_group(models, counts)
        return (group.system, group.member) if stacked else (models[0].system, 0)

    system, member = system_of([num_states * n] * members)
    per_state, per_state_member = system_of([n] * members)
    # rows: member-major, then state, then point
    z = np.tile(np.repeat(np.arange(num_states), n), members)
    X = np.concatenate([np.tile(block, (num_states, 1)) for block in blocks])
    # interior candidates: below the consumption floor u' is a line of slope
    # ~1e18, which turns the last bit of an interpolated value into O(100)
    savings = system.savings_guess(z, member, X, None) * rng.uniform(0.5, 1.5, (len(X), 1))
    of_state = [np.flatnonzero(z == s) for s in range(num_states)]

    # rounding is relative to what is interpolated: p^0's value functions reach ~1e5
    scale = max(np.abs(sp.nodal_values).max() for policy in policies for sp in policy)
    for name in ("euler_residuals", "value_functions"):
        fused = getattr(system, name)(z, member, X, savings, policies)
        for s, block in enumerate(of_state):
            alone = getattr(per_state, name)(
                s, per_state_member, X[block], savings[block], policies
            )
            assert np.all(np.abs(fused[block] - alone) <= 1e-13 * (scale + np.abs(alone)))

    if thin:
        # other successor sets, other GEMM operands: equal to rounding only, which
        # Newton need not preserve
        return None

    def solve_and_watch(system, z, member, X):
        """The solve's output and the stalled mask of its Newton run.

        Every residual row is evaluated twice: BLAS rounds a lone row (gemv)
        unlike a row among others (gemm), and which rows are still active
        next to a given one is exactly what differs between the two solves.
        """
        seen = []
        newton = system.batch_solver.solve
        residuals = system._residuals

        def twice(z, member, cash, savings, read):
            twin = [np.repeat(a, 2, axis=0) for a in (z, member, cash, savings)]
            return residuals(*twin, read)[::2]

        system._residuals = twice
        system.batch_solver.solve = lambda fn, x0: seen.append(newton(fn, x0)) or seen[-1]
        try:
            out = system.solve(z, member, X, policies, None)
        finally:
            del system._residuals
            system.batch_solver.solve = newton
        (result,) = seen  # ONE Newton batch, whatever z is
        return out, ~result.converged

    fused, fused_stalled = solve_and_watch(system, z, member, X)
    for s, block in enumerate(of_state):
        alone, stalled = solve_and_watch(per_state, s, per_state_member, X[block])
        assert np.all(np.abs(fused[block] - alone) <= 1e-10 * (1.0 + np.abs(alone)))
        assert np.array_equal(fused_stalled[block], stalled)
    return fused_stalled, fused[:, : system.num_savers]


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    calibration=fused_calibrations,
    level=st.integers(2, 3),
    thin=st.booleans(),
    # (stacked, copies): several models are read on one grid only
    layout=st.sampled_from([(False, False), (False, True), (True, False)]),
    seed=st.integers(0, 2**31 - 1),
)
def test_the_prepared_residual_is_the_public_one(calibration, level, thin, layout, seed):
    """The Newton run's residual calls are ``euler_residuals`` on their rows, bit for bit.

    A run prepares today's cash on hand and the policy read once; every
    call it makes equals the Fischer–Burmeister function of the candidate
    savings and the public Euler gap at that call's rows and candidates,
    and its value update equals ``value_functions``.  Thinned
    transitions change the successor set between calls (a call holds only
    the rows still active); per-state grid copies of one model take the
    read's state-by-state branch.
    """
    stacked, copies = layout
    rng = np.random.default_rng(seed)
    cal = small_calibration(**calibration)
    models = [OLGModel(_thinned(cal, rng) if thin else cal)]
    if stacked:
        models.append(OLGModel(dataclasses.replace(models[0].calibration, beta=0.85)))
    num_states, members = models[0].num_states, len(models)
    grid = regular_sparse_grid(models[0].state_dim, level)
    own = [grid.copy() for _ in range(num_states)]  # a grid per state
    policies = []
    for model in models:
        solver = TimeIterationSolver(model, TimeIterationConfig(grid_level=level))
        policy = BatchedTimeIterationSolver._reanchor(solver.initial_policy(), grid)
        if copies:
            policy = PolicySet(
                [
                    StatePolicy.from_surplus(
                        s, own[s], sp.interpolant.surplus, sp.nodal_values, model.domain
                    )
                    for s, sp in enumerate(policy)
                ]
            )
        policies.append(policy)
    n = len(grid)
    z = np.tile(np.repeat(np.arange(num_states), n), members)
    X = np.concatenate([np.tile(m.domain.from_unit(grid.points), (num_states, 1)) for m in models])
    group = OLGModel.stacked_group(models, [num_states * n] * members)
    system, member = group.system if stacked else models[0].system, group.member
    calls = []
    newton = BatchNewtonSolver.solve

    def recording(self, fn, x0):
        def spy(rows, candidates):
            out = fn(rows, candidates)
            calls.append((rows.copy(), candidates.copy(), np.array(out)))
            return out

        return newton(self, spy, x0)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BatchNewtonSolver, "solve", recording)
        out = system.solve(z, member, X, policies, None)
    assert len(calls) > 1
    for rows, savings, residuals in calls:
        gap = system.euler_residuals(z[rows], member[rows], X[rows], savings, policies)
        assert np.array_equal(residuals, savings + gap - np.hypot(savings, gap))
    ns = system.num_savers
    values = system.value_functions(z, member, X, out[:, :ns], policies)
    assert np.array_equal(out[:, ns:], values)


def _synthetic_system(rng: np.random.Generator, m: int, n: int):
    """``m`` independent, mildly nonlinear ``n x n`` systems with known roots."""
    A = np.eye(n) + 0.2 * rng.standard_normal((m, n, n))
    root = rng.uniform(-1.0, 1.0, size=(m, n))
    cubic = rng.uniform(0.0, 0.5, size=(m, 1))

    def rows_fn(rows, X):
        d = X - root[rows]
        # elementwise product and a last-axis sum: bit-stable in the batch size
        return (A[rows] * d[:, None, :]).sum(axis=2) + cubic[rows] * d**3

    return rows_fn, root


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 6),
    n=st.integers(1, 4),
    max_iterations=st.sampled_from([2, 40]),
)
def test_batch_newton_reproduces_scalar_newton_row_by_row(seed, m, n, max_iterations):
    """Same iterate and same ``converged`` flag as the scalar solver, whatever the batch.

    ``max_iterations=2`` exercises the unconverged exit as well.
    """
    rng = np.random.default_rng(seed)
    rows_fn, root = _synthetic_system(rng, m, n)
    x0 = root + rng.uniform(-0.8, 0.8, size=(m, n))
    scalar = NewtonSolver(max_iterations=max_iterations)
    batch = BatchNewtonSolver(scalar).solve(rows_fn, x0)
    assert batch.x.shape == (m, n) and batch.converged.shape == (m,)
    for r in range(m):
        one = scalar.solve(lambda x, r=r: rows_fn(np.array([r]), x[None, :])[0], x0[r])
        assert one.converged == bool(batch.converged[r])
        assert _close(batch.x[r], one.x)
        if one.converged:
            assert np.max(np.abs(rows_fn(np.array([r]), one.x[None, :]))) < 1e-7
    # a row's answer does not depend on what else is in the batch
    keep = np.flatnonzero(rng.random(m) < 0.5)
    if keep.size:
        sub = BatchNewtonSolver(scalar).solve(lambda rows, X: rows_fn(keep[rows], X), x0[keep])
        assert np.array_equal(sub.converged, batch.converged[keep])
        assert _close(sub.x, batch.x[keep])


def _sequential_newton(fn, x0, settings: NewtonSolver):
    """The reference :class:`BatchNewtonSolver` is held to: the same damped Newton
    with one residual call per Jacobian column and one per line-search halving.
    """
    X = np.array(x0, dtype=float)
    m, n = X.shape
    F = np.asarray(fn(np.arange(m), X), dtype=float).reshape(m, n)
    evals = 1
    norms = np.max(np.abs(F), axis=1)
    best_x, best_norm = X.copy(), norms.copy()
    active = norms >= settings.tol
    iterations = 0
    while iterations < settings.max_iterations and active.any():
        iterations += 1
        idx = np.flatnonzero(active)
        Xa, Fa = X[idx], F[idx]
        jac = np.empty((idx.size, n, n), dtype=float)
        steps = settings.fd_step * np.maximum(np.abs(Xa), 1.0)
        for j in range(n):
            Xp = Xa.copy()
            Xp[:, j] += steps[:, j]
            Fp = np.asarray(fn(idx, Xp), dtype=float).reshape(idx.size, n)
            evals += 1
            jac[:, :, j] = (Fp - Fa) / steps[:, j][:, None]
        step = np.empty_like(Fa)
        for r in range(idx.size):
            try:
                step[r] = np.linalg.solve(jac[r], -Fa[r])
            except np.linalg.LinAlgError:
                step[r], *_ = np.linalg.lstsq(jac[r], -Fa[r], rcond=None)
        step_norm = np.max(np.abs(step), axis=1)
        too_big = step_norm > settings.max_step
        step[too_big] *= (settings.max_step / step_norm[too_big])[:, None]
        lam = np.ones(idx.size)
        pending = np.ones(idx.size, dtype=bool)
        for _ in range(12):
            p = np.flatnonzero(pending)
            if p.size == 0:
                break
            trial = Xa[p] + lam[p, None] * step[p]
            f_trial = np.asarray(fn(idx[p], trial), dtype=float).reshape(p.size, n)
            evals += 1
            trial_norm = np.max(np.abs(f_trial), axis=1)
            good = trial_norm < norms[idx[p]]
            rows = idx[p[good]]
            X[rows], F[rows], norms[rows] = trial[good], f_trial[good], trial_norm[good]
            pending[p[good]] = False
            lam[p[~good]] *= 0.5
        better = norms < best_norm
        best_x[better], best_norm[better] = X[better], norms[better]
        active[idx[pending]] = False
        improved = idx[~pending]
        active[improved] = norms[improved] >= settings.tol
    return best_x, best_norm, best_norm < settings.tol, iterations, evals


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 8),
    n=st.integers(1, 4),
    max_iterations=st.sampled_from([1, 3, 40]),
    bound=st.sampled_from([np.inf, 1.2]),
)
def test_fused_newton_is_the_sequential_newton(seed, m, n, max_iterations, bound):
    """Bit for bit the column-by-column, halving-by-halving loop, in <= 3 calls an iteration.

    The start residual rides in the first Jacobian call, so a run makes at
    most ``3 * iterations`` calls (one when no row needs an iteration).

    ``bound`` clips the unknowns the way the OLG savings are clipped: a row
    started beyond it has an all-zero Jacobian column, which exercises the
    singular-batch path (the regular rows solved as one stack, the singular
    ones by least squares) against the reference's row-by-row solves.
    """
    rng = np.random.default_rng(seed)
    A = np.eye(n) + 0.2 * rng.standard_normal((m, n, n))
    root = rng.uniform(-1.0, 1.0, size=(m, n))
    cubic = rng.uniform(0.0, 0.5, size=(m, 1))
    calls = []

    def rows_fn(rows, X):
        calls.append(len(rows))
        assert np.all(np.diff(rows) >= 0)
        d = np.clip(X, -bound, bound) - root[rows]
        # elementwise products and a last-axis sum: bit-stable in the batch size
        return (A[rows] * d[:, None, :]).sum(axis=2) + cubic[rows] * d * d * d

    x0 = root + rng.uniform(-0.8, 0.8, size=(m, n))
    newton = NewtonSolver(max_iterations=max_iterations)
    x, norm, converged, iterations, ref_evals = _sequential_newton(rows_fn, x0, newton)
    calls.clear()
    fused = BatchNewtonSolver(newton).solve(rows_fn, x0)
    assert np.array_equal(fused.x, x)
    assert np.array_equal(fused.residual_norm, norm)
    assert np.array_equal(fused.converged, converged)
    assert fused.iterations == iterations
    assert fused.residual_evaluations == len(calls) <= max(3 * iterations, 1)
    assert fused.residual_evaluations <= ref_evals

"""Cache-correctness tests for the fit/evaluate hot path.

The hierarchization structure, level sums and compressed representation
are cached on the grid (keyed by ``grid.version``); these tests pin down
that every cache is invalidated by ``add_points`` and that cached results
stay bit-identical to the uncached references.
"""

import numpy as np
import pytest

from repro.core.compression import compress_grid, compressed_for
from repro.core.kernels import evaluate, list_kernels
from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver, solve_points
from repro.grids.adaptive import refine
from repro.grids.domain import BoxDomain
from repro.grids.hierarchize import (
    ancestor_csr,
    evaluate_dense,
    hierarchize,
    hierarchize_dense,
)
from repro.grids.interpolation import SparseGridInterpolant
from repro.grids.regular import regular_sparse_grid


def _func(X):
    return np.sin(3.0 * X[:, 0]) * np.cos(2.0 * X[:, 1]) + X[:, -1] ** 3


def _adaptive_grid(dim=2, start_level=2, sweeps=3):
    """A non-regular grid grown by surplus-driven refinement."""
    grid = regular_sparse_grid(dim, start_level)
    for _ in range(sweeps):
        values = _func(grid.points)
        surplus = hierarchize(grid, values)
        if refine(grid, surplus, epsilon=1e-3, max_level=5).size == 0:
            break
    return grid


class TestHierarchizeCache:
    def test_repeated_calls_reuse_structure(self):
        grid = regular_sparse_grid(2, 4)
        csr1 = ancestor_csr(grid)
        hierarchize(grid, _func(grid.points))
        assert ancestor_csr(grid) is csr1

    def test_matches_dense_after_add_points(self):
        """A cached grid mutated by add_points must not serve stale structure."""
        grid = regular_sparse_grid(2, 3)
        values = _func(grid.points)
        before = hierarchize(grid, values)
        np.testing.assert_allclose(before, hierarchize_dense(grid, values), atol=1e-12)

        old_version = grid.version
        surplus = hierarchize(grid, values)
        refine(grid, surplus, epsilon=0.0, max_level=5)
        assert grid.version > old_version

        values = _func(grid.points)
        after = hierarchize(grid, values)
        np.testing.assert_allclose(after, hierarchize_dense(grid, values), atol=1e-12)

    def test_level_sums_cached_and_invalidated(self):
        grid = regular_sparse_grid(3, 3)
        sums = grid.level_sums
        assert grid.level_sums is sums  # cache hit returns the same array
        grid.add_points([[4, 1, 1]], [[1, 1, 1]])
        new_sums = grid.level_sums
        assert new_sums.shape[0] == len(grid)
        np.testing.assert_array_equal(new_sums, grid.levels.sum(axis=1))

    def test_copy_starts_fresh_cache_epoch(self):
        grid = regular_sparse_grid(2, 3)
        hierarchize(grid, _func(grid.points))
        clone = grid.copy()
        values = _func(clone.points)
        np.testing.assert_allclose(
            hierarchize(clone, values), hierarchize_dense(clone, values), atol=1e-12
        )


class TestCompressedGridCache:
    def test_compressed_for_is_shared(self):
        grid = regular_sparse_grid(3, 3)
        assert compressed_for(grid) is compressed_for(grid)

    def test_compressed_for_invalidated_by_add_points(self):
        grid = regular_sparse_grid(2, 3)
        comp = compressed_for(grid)
        grid.add_points([[5, 1]], [[1, 1]])
        comp2 = compressed_for(grid)
        assert comp2 is not comp
        assert comp2.num_points == len(grid)

    def test_interpolants_share_compressed_grid(self):
        grid = regular_sparse_grid(2, 4)
        values = _func(grid.points)
        a = SparseGridInterpolant(grid, surplus=hierarchize(grid, values))
        b = SparseGridInterpolant(grid, surplus=hierarchize(grid, 2.0 * values))
        X = np.random.default_rng(0).random((20, 2))
        a(X), b(X)
        assert a._compressed is b._compressed

    def test_set_surplus_after_grid_growth(self):
        """Growing the grid, then refitting, must rebuild the compression."""
        grid = regular_sparse_grid(2, 3)
        interp = SparseGridInterpolant(grid, surplus=hierarchize(grid, _func(grid.points)))
        X = np.random.default_rng(1).random((50, 2))
        interp(X)  # populate the compressed cache

        surplus = hierarchize(grid, _func(grid.points))
        refine(grid, surplus, epsilon=0.0, max_level=5)
        values = _func(grid.points)
        interp.set_surplus(hierarchize(grid, values))
        np.testing.assert_allclose(
            interp(X), evaluate_dense(grid, interp.surplus, X), atol=1e-12
        )

    def test_reorder_cached_matches_reorder(self):
        grid = regular_sparse_grid(3, 3)
        comp = compress_grid(grid)
        surplus = np.random.default_rng(2).standard_normal((len(grid), 4))
        np.testing.assert_array_equal(comp.reorder_cached(surplus), comp.reorder(surplus))
        # writable arrays are never memoized: the caller may mutate them
        surplus[0, 0] += 1.0
        np.testing.assert_array_equal(comp.reorder_cached(surplus), comp.reorder(surplus))
        assert comp.reorder_cached(surplus) is not comp.reorder_cached(surplus)
        # frozen arrays opt in to the identity-keyed memo
        surplus.flags.writeable = False
        assert comp.reorder_cached(surplus) is comp.reorder_cached(surplus)

    def test_reorder_cache_drops_dead_entries_on_insert(self):
        grid = regular_sparse_grid(3, 3)
        comp = compress_grid(grid)
        rng = np.random.default_rng(5)
        dead = rng.standard_normal((len(grid), 2))
        dead.flags.writeable = False
        comp.reorder_cached(dead)
        assert len(comp._reorder_cache) == 1
        del dead  # key array dies; the next insert must purge the entry
        live = rng.standard_normal((len(grid), 2))
        live.flags.writeable = False
        comp.reorder_cached(live)
        assert len(comp._reorder_cache) == 1
        ((ref,), _out), = comp._reorder_cache.values()  # one weak reference per key array
        assert ref() is live

    def test_interpolant_owns_frozen_surplus_copy(self):
        grid = regular_sparse_grid(2, 3)
        s = hierarchize(grid, _func(grid.points))
        interp = SparseGridInterpolant(grid, surplus=s)
        X = np.random.default_rng(7).random((5, 2))
        first = interp(X)
        s[0] = 99.0  # caller's array stays writable and detached
        np.testing.assert_array_equal(interp(X), first)
        assert not interp.surplus.flags.writeable
        with pytest.raises(ValueError):
            interp.surplus[0] = 1.0

    def test_frozen_view_over_writable_base_is_not_memoized(self):
        grid = regular_sparse_grid(2, 3)
        comp = compress_grid(grid)
        base = np.ones((len(grid), 2))
        view = base.view()
        view.flags.writeable = False  # frozen view, but base can still change
        first = comp.reorder_cached(view)
        base[:] = 2.0
        np.testing.assert_array_equal(comp.reorder_cached(view), comp.reorder(base))
        assert not np.array_equal(first, comp.reorder_cached(view))

    def test_compressed_grid_pickles_after_use(self):
        import pickle

        grid = regular_sparse_grid(2, 3)
        comp = compressed_for(grid)
        surplus = hierarchize(grid, _func(grid.points))
        X = np.random.default_rng(8).random((10, 2))
        expected = evaluate(comp, surplus, X, kernel="cuda")  # populates caches
        clone = pickle.loads(pickle.dumps(comp))
        np.testing.assert_allclose(
            evaluate(clone, surplus, X, kernel="cuda"), expected, atol=1e-15
        )

    def test_active_chain_covers_all_nonzero_entries(self):
        grid = _adaptive_grid()
        comp = compress_grid(grid)
        total = sum(rows.size for rows, _ in comp.active_chain())
        assert total == int(np.count_nonzero(comp.chains))


class TestKernelEquivalence:
    @pytest.mark.parametrize("kernel", list_kernels())
    def test_kernels_match_dense_on_regular_grid(self, kernel):
        grid = regular_sparse_grid(3, 4)
        values = _func(grid.points)
        surplus = hierarchize(grid, np.stack([values, values**2], axis=1))
        comp = compressed_for(grid)
        X = np.random.default_rng(3).random((40, 3))
        np.testing.assert_allclose(
            evaluate(comp, surplus, X, kernel=kernel),
            evaluate_dense(grid, surplus, X),
            atol=1e-12,
        )

    @pytest.mark.parametrize("kernel", list_kernels())
    def test_kernels_match_dense_on_adaptive_grid(self, kernel):
        grid = _adaptive_grid()
        values = _func(grid.points)
        surplus = hierarchize(grid, np.stack([values, 0.5 - values], axis=1))
        comp = compressed_for(grid)
        X = np.random.default_rng(4).random((40, 2))
        np.testing.assert_allclose(
            evaluate(comp, surplus, X, kernel=kernel),
            evaluate_dense(grid, surplus, X),
            atol=1e-12,
        )


class _StubModel:
    """Minimal TimeIterationModel whose point solves are deterministic."""

    num_states = 1
    state_dim = 2
    num_policies = 3
    domain = BoxDomain.cube(2)

    def initial_policy_values(self, z, X):
        return np.zeros((X.shape[0], self.num_policies))

    def solve_point(self, z, x, policy_next, guess=None):
        base = np.array([x[0], x[1], x[0] * x[1]])
        if guess is not None:
            base = base + 0.1 * np.asarray(guess)
        return base


class _ReversingExecutor:
    """Executor that returns results out of order to exercise row mapping."""

    def map(self, fn, items):
        return [fn(item) for item in reversed(list(items))]


class _BatchStubModel(_StubModel):
    """The stub with a vectorized point solve, which counts its calls."""

    def __init__(self):
        self.batch_calls = 0

    def solve_points_batch(self, z, X, policy_next, guesses=None):
        self.batch_calls += 1
        base = np.column_stack([X[:, 0], X[:, 1], X[:, 0] * X[:, 1]])
        return base if guesses is None else base + 0.1 * np.asarray(guesses)


class TestSolvePoints:
    """The per-state update shared by both drivers (``core.time_iteration.solve_points``)."""

    def test_serial_matches_out_of_order_executor(self):
        X = np.random.default_rng(5).random((17, 2))
        guesses = np.random.default_rng(6).random((17, 3))
        for g in (None, guesses):
            np.testing.assert_array_equal(
                solve_points(_StubModel(), 0, X, None, g),
                solve_points(_StubModel(), 0, X, None, g, _ReversingExecutor()),
            )

    @pytest.mark.parametrize("kind", ["serial", "threads", "stealing"])
    def test_public_executors_match_the_plain_loop(self, kind):
        from repro.parallel.executor import make_executor

        X = np.random.default_rng(9).random((7, 2))
        np.testing.assert_array_equal(
            solve_points(_StubModel(), 0, X, None, None, make_executor(kind, 2)),
            solve_points(_StubModel(), 0, X, None, None),
        )

    def test_whole_grid_goes_to_the_batch_solve_unless_an_executor_is_passed(self):
        from repro.parallel.executor import make_executor

        X = np.random.default_rng(11).random((9, 2))
        guesses = np.random.default_rng(12).random((9, 3))
        model = _BatchStubModel()
        whole = solve_points(model, 0, X, None, guesses)
        assert model.batch_calls == 1
        # an explicit executor keeps the paper's per-point dispatch
        per_point = solve_points(model, 0, X, None, guesses, make_executor("serial"))
        assert model.batch_calls == 1
        np.testing.assert_allclose(whole, per_point, rtol=0, atol=1e-15)

    def test_a_pass_is_one_batch_call_and_an_executor_bypasses_the_batch_solve(self):
        model = _BatchStubModel()
        model.num_states = 2
        solver = TimeIterationSolver(model, TimeIterationConfig(grid_level=2, max_iterations=1))
        policy = solver.solve().policy
        assert model.batch_calls == 1  # one call per pass: the states are rows of it
        # the driver has no executor; per-point dispatch is solve_points' argument,
        # and on a pass's rows (state-major, any completion order) it agrees with the batch
        X = model.domain.from_unit(policy[0].grid.points)
        z, rows = np.repeat([0, 1], len(X)), np.tile(X, (2, 1))
        per_point = solve_points(model, z, rows, policy, None, _ReversingExecutor())
        assert model.batch_calls == 1
        np.testing.assert_array_equal(per_point, solve_points(model, z, rows, policy, None))
        np.testing.assert_array_equal(per_point, np.concatenate([p.nodal_values for p in policy]))

    def test_per_point_dispatch_reads_the_state_of_each_row(self):
        class _StateStub(_StubModel):
            def solve_point(self, z, x, policy_next, guess=None):
                return np.full(self.num_policies, float(z))

        X = np.random.default_rng(13).random((6, 2))
        z = np.array([0, 0, 1, 1, 2, 2])
        for executor in (None, _ReversingExecutor()):
            out = solve_points(_StateStub(), z, X, None, None, executor)
            np.testing.assert_array_equal(out[:, 0], z)


class TestPointsCache:
    def test_adaptive_solve_does_not_pin_grid_copies(self):
        """Mapped points are cached for the shared regular grid only.

        Every adaptive step copies each state's grid; caching the mapped
        points of every copy pinned all of them for the solver's lifetime
        (11 entries after 5 iterations on 2 states).
        """
        class TwoStates(_StubModel):
            num_states = 2

        sizes = []
        for iterations in (1, 5):
            config = TimeIterationConfig(
                grid_level=2, adaptive=True, max_refine_level=3, max_iterations=iterations,
                tolerance=1e-12,
            )
            solver = TimeIterationSolver(TwoStates(), config)
            result = solver.solve()
            assert result.iterations == iterations
            sizes.append(len(solver._grid_cache))
            assert not hasattr(solver, "_points_cache")
        assert sizes == [1, 1]

"""Cache-correctness tests for the fit/evaluate hot path.

The hierarchization structure, level sums and compressed representation
are cached on the grid (keyed by ``grid.version``); these tests pin down
that every cache is invalidated by ``add_points`` and that cached results
stay bit-identical to the uncached references.
"""

import importlib

import numpy as np
import pytest

from repro.core.compression import compress_grid, compressed_for
from repro.core.kernels import evaluate, list_kernels
from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver
from repro.grids.adaptive import refine
from repro.grids.domain import BoxDomain
from repro.grids.hierarchize import evaluate_dense, hierarchize, hierarchize_dense
from repro.grids.interpolation import SparseGridInterpolant
from repro.grids.regular import regular_sparse_grid

# the module, not the function that repro.grids re-exports under its name
hierarchize_module = importlib.import_module("repro.grids.hierarchize")


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


@pytest.fixture
def builds(monkeypatch):
    """The id of the grid of each build of hierarchize's per-dimension neighbour rows."""
    built, build = [], hierarchize_module._neighbours

    def counting(grid):
        built.append(id(grid))
        return build(grid)

    monkeypatch.setattr(hierarchize_module, "_neighbours", counting)
    return built


class TestHierarchizeCache:
    def test_repeated_calls_reuse_structure(self, builds):
        grid = regular_sparse_grid(2, 4)
        first = hierarchize(grid, _func(grid.points))
        second = hierarchize(grid, _func(grid.points)[:, None])
        assert builds == [id(grid)]
        assert np.array_equal(first, second[:, 0])

    def test_matches_dense_after_add_points(self, builds):
        """A cached grid mutated by add_points must not serve stale structure."""
        grid = regular_sparse_grid(2, 3)
        values = _func(grid.points)
        before = hierarchize(grid, values)
        np.testing.assert_allclose(before, hierarchize_dense(grid, values), atol=1e-12)

        old_version = grid.version
        surplus = hierarchize(grid, values)
        refine(grid, surplus, epsilon=0.0, max_level=5)
        assert grid.version > old_version
        assert builds == [id(grid)]

        values = _func(grid.points)
        after = hierarchize(grid, values)
        assert builds == [id(grid), id(grid)]  # rebuilt once for the new version
        np.testing.assert_allclose(after, hierarchize_dense(grid, values), atol=1e-12)

    def test_level_sums_cached_and_invalidated(self):
        grid = regular_sparse_grid(3, 3)
        sums = grid.level_sums
        assert grid.level_sums is sums  # cache hit returns the same array
        grid.add_points([[4, 1, 1]], [[1, 1, 1]])
        new_sums = grid.level_sums
        assert new_sums.shape[0] == len(grid)
        np.testing.assert_array_equal(new_sums, grid.levels.sum(axis=1))

    def test_copy_starts_fresh_cache_epoch(self, builds):
        grid = regular_sparse_grid(2, 3)
        hierarchize(grid, _func(grid.points))
        clone = grid.copy()
        values = _func(clone.points)
        np.testing.assert_allclose(
            hierarchize(clone, values), hierarchize_dense(clone, values), atol=1e-12
        )
        hierarchize(grid, _func(grid.points))
        assert builds == [id(grid), id(clone)]  # the clone builds its own; the original keeps its


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
        assert compressed_for(a.grid) is compressed_for(b.grid)

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

    def test_reorder_matches_the_permutation(self):
        grid = regular_sparse_grid(3, 3)
        comp = compress_grid(grid)
        surplus = np.random.default_rng(2).standard_normal((len(grid), 4))
        np.testing.assert_array_equal(comp.reorder(surplus), surplus[comp.order])
        # writable arrays are reordered afresh: the caller may mutate them
        surplus[0, 0] += 1.0
        np.testing.assert_array_equal(comp.reorder(surplus), surplus[comp.order])
        assert comp.reorder(surplus) is not comp.reorder(surplus)
        surplus.flags.writeable = False
        np.testing.assert_array_equal(comp.reorder(surplus), surplus[comp.order])
        # the side-by-side operand of several surpluses is their concatenation reordered
        other = np.random.default_rng(3).standard_normal((len(grid), 2))
        both = comp.reorder(np.concatenate([surplus, other], axis=1))
        np.testing.assert_array_equal(both[:, :4], comp.reorder(surplus))
        np.testing.assert_array_equal(both[:, 4:], comp.reorder(other))

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

    @pytest.mark.parametrize("kernel", ["x86", "avx", "avx2", "avx512", "cuda"])
    def test_frozen_view_over_writable_base_is_not_memoized(self, kernel):
        grid = regular_sparse_grid(2, 3)
        comp = compress_grid(grid)
        base = np.ones((len(grid), 2))
        view = base.view()
        view.flags.writeable = False  # frozen view, but base can still change
        X = np.random.default_rng(6).random((5, 2))
        first = evaluate(comp, view, X, kernel=kernel)
        base[:] = 2.0
        np.testing.assert_array_equal(
            evaluate(comp, view, X, kernel=kernel), evaluate(comp, base, X, kernel=kernel)
        )
        assert not np.array_equal(first, evaluate(comp, view, X, kernel=kernel))

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
    """Minimal TimeIterationModel whose point solves are deterministic; counts its calls."""

    num_states = 1
    state_dim = 2
    num_policies = 3
    domain = BoxDomain.cube(2)

    def __init__(self):
        self.batch_calls = 0

    def initial_policy_values(self, z, X):
        return np.zeros((X.shape[0], self.num_policies))

    def solve_points_batch(self, z, X, policy_next, guesses=None):
        self.batch_calls += 1
        base = np.column_stack([X[:, 0], X[:, 1], X[:, 0] * X[:, 1]])
        return base if guesses is None else base + 0.1 * np.asarray(guesses)


class TestPassPointSolve:
    """A pass hands the model's ``solve_points_batch`` the rows of every shock state."""

    def test_a_pass_is_one_batch_call(self):
        model = _StubModel()
        model.num_states = 2
        solver = TimeIterationSolver(model, TimeIterationConfig(grid_level=2, max_iterations=1))
        policy = solver.solve().policy
        assert model.batch_calls == 1  # one call per pass: the states are rows of it
        # the rows of a pass are state-major, and the initial guess is zero
        X = model.domain.from_unit(policy[0].grid.points)
        z, rows = np.repeat([0, 1], len(X)), np.tile(X, (2, 1))
        np.testing.assert_array_equal(
            np.concatenate([p.nodal_values for p in policy]),
            model.solve_points_batch(z, rows, policy),
        )

    def test_each_row_reads_its_own_shock_state(self):
        class _StateStub(_StubModel):
            num_states = 3

            def solve_points_batch(self, z, X, policy_next, guesses=None):
                return np.repeat(np.asarray(z, dtype=float)[:, None], self.num_policies, axis=1)

        solver = TimeIterationSolver(_StateStub(), TimeIterationConfig(grid_level=2))
        policy = solver.step(solver.initial_policy())
        for z, state in enumerate(policy):
            np.testing.assert_array_equal(state.nodal_values, float(z))


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

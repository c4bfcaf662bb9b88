"""Tests for hierarchization (surplus computation) and dense evaluation."""

import numpy as np
import pytest

from repro.grids.adaptive import refine
from repro.grids.hierarchize import (
    _neighbours,
    evaluate_dense,
    hierarchize,
    hierarchize_dense,
)
from repro.grids.regular import regular_grid_size, regular_sparse_grid


def _poly(X):
    """A function that is *not* in the sparse grid space (tests convergence)."""
    return np.sin(3.0 * X[:, 0]) * np.cos(2.0 * X[:, 1]) + X[:, -1] ** 3


class TestHierarchize:
    @pytest.mark.parametrize("refined", [False, True])
    def test_matches_dense_reference(self, refined):
        """Regular grids of 1-8 dimensions and levels 1-5, and refinements of them."""
        rng = np.random.default_rng(5)
        for dim in range(1, 9):
            for level in range(1, 6):
                if regular_grid_size(dim, level) > 500:
                    continue
                grid = regular_sparse_grid(dim, level)
                if refined:
                    refine(grid, hierarchize(grid, rng.standard_normal(len(grid))), 0.5)
                values = rng.standard_normal((len(grid), 2))
                np.testing.assert_allclose(
                    hierarchize(grid, values), hierarchize_dense(grid, values), atol=1e-12
                )

    def test_matches_dense_reference_multidof(self):
        grid = regular_sparse_grid(2, 4)
        values = np.stack([_poly(grid.points), grid.points[:, 0]], axis=1)
        np.testing.assert_allclose(
            hierarchize(grid, values), hierarchize_dense(grid, values), atol=1e-12
        )

    def test_interpolation_exact_at_grid_points(self):
        grid = regular_sparse_grid(4, 3)
        values = _poly(grid.points)
        surplus = hierarchize(grid, values)
        reconstructed = evaluate_dense(grid, surplus, grid.points)
        np.testing.assert_allclose(reconstructed, values, atol=1e-10)

    def test_root_surplus_is_function_value(self):
        grid = regular_sparse_grid(3, 3)
        values = _poly(grid.points)
        surplus = hierarchize(grid, values)
        (root,) = grid.rows_of([1, 1, 1], [1, 1, 1])
        assert surplus[root] == pytest.approx(values[root])

    def test_linear_function_has_zero_deep_surpluses(self):
        """A (multi)linear function is captured exactly by levels <= 2."""
        grid = regular_sparse_grid(2, 4)
        values = 0.3 * grid.points[:, 0] + 0.7 * grid.points[:, 1] - 0.1
        surplus = hierarchize(grid, values)
        deep = grid.levels.max(axis=1) >= 3
        np.testing.assert_allclose(surplus[deep], 0.0, atol=1e-12)

    def test_shape_mismatch_raises(self):
        grid = regular_sparse_grid(2, 2)
        with pytest.raises(ValueError):
            hierarchize(grid, np.zeros(len(grid) + 1))

    def test_wrapped_1d_values(self):
        grid = regular_sparse_grid(2, 3)
        values = _poly(grid.points)
        s1 = hierarchize(grid, values)
        s2 = hierarchize(grid, values[:, None])
        assert s1.ndim == 1 and s2.ndim == 2
        np.testing.assert_allclose(s1, s2[:, 0])

    def test_surplus_decay_for_smooth_function(self):
        """|alpha| decays with the level sum for smooth functions (Sec. III)."""
        grid = regular_sparse_grid(2, 6)
        values = np.exp(-((grid.points[:, 0] - 0.4) ** 2) - (grid.points[:, 1] - 0.6) ** 2)
        surplus = np.abs(hierarchize(grid, values))
        sums = grid.level_sums
        mean_shallow = surplus[sums <= 4].mean()
        mean_deep = surplus[sums >= 7].mean()
        assert mean_deep < 0.1 * mean_shallow


def _steps(grid):
    """The grid's cached ``(rows, left, right)`` arrays, one triple per dimension."""
    return grid.cached_derived("hierarchize", _neighbours)


class TestNeighbourStructure:
    def test_neighbours_are_the_coarser_line_points(self):
        """Along dimension t, a point's neighbours sit at x -/+ 2^(1-l) on its line;
        both are the root for a level-2 point."""
        grid = regular_sparse_grid(3, 4)
        for t, (rows, left, right) in enumerate(_steps(grid)):
            np.testing.assert_array_equal(rows, np.flatnonzero(grid.levels[:, t] > 1))
            lev, x = grid.levels[rows, t], grid.points[rows, t]
            others = np.arange(grid.dim) != t
            for side, nb in ((-1, left), (1, right)):
                np.testing.assert_array_equal(
                    grid.points[nb][:, others], grid.points[rows][:, others]
                )
                assert np.all(grid.levels[nb, t] < lev)
                expect = np.where(lev == 2, 0.5, x + side * 2.0 ** (1 - lev))
                np.testing.assert_array_equal(grid.points[nb, t], expect)

    def test_missing_neighbour_raises(self):
        """x = 0.125 without its level-3 neighbour 0.25 is not a consistent grid."""
        grid = regular_sparse_grid(1, 2)
        grid.add_points([[4]], [[1]])
        with pytest.raises(ValueError, match=r"\[4\], \[1\] lacks a coarser neighbour"):
            hierarchize(grid, np.ones(len(grid)))

    def test_works_on_adaptive_grid(self):
        grid = regular_sparse_grid(2, 2)
        values = _poly(grid.points)
        surplus = hierarchize(grid, values)
        refine(grid, surplus, epsilon=0.0)
        values = _poly(grid.points)
        surplus = hierarchize(grid, values)
        reconstructed = evaluate_dense(grid, surplus, grid.points)
        np.testing.assert_allclose(reconstructed, values, atol=1e-10)


class TestConvergence:
    def test_error_decreases_with_level(self):
        rng = np.random.default_rng(3)
        sample = rng.random((200, 2))
        errors = []
        for level in (2, 4, 6):
            grid = regular_sparse_grid(2, level)
            values = _poly(grid.points)
            surplus = hierarchize(grid, values)
            approx = evaluate_dense(grid, surplus, sample)
            errors.append(np.max(np.abs(approx - _poly(sample))))
        assert errors[1] < errors[0]
        assert errors[2] < errors[1]

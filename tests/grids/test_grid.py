"""Unit tests for the SparseGrid container."""

import numpy as np
import pytest

from repro.grids.grid import SparseGrid
from repro.grids.regular import regular_sparse_grid


class TestConstruction:
    def test_empty_grid(self):
        grid = SparseGrid(dim=3)
        assert len(grid) == 0
        assert grid.num_points == 0
        assert grid.max_level == 0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            SparseGrid(2, np.ones((3, 2)), np.ones((2, 2)))

    def test_wrong_dim_raises(self):
        with pytest.raises(ValueError):
            SparseGrid(3, np.ones((2, 2)), np.ones((2, 2)))

    def test_zero_level_raises(self):
        with pytest.raises(ValueError):
            SparseGrid(1, np.array([[0]]), np.array([[1]]))

    def test_duplicate_points_raise(self):
        levels = np.array([[1, 1], [1, 1]])
        indices = np.array([[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            SparseGrid(2, levels, indices)

    def test_invalid_dim_raises(self):
        with pytest.raises(ValueError):
            SparseGrid(0)


class TestLookup:
    def test_contains_and_index(self):
        grid = regular_sparse_grid(2, 2)
        assert grid.contains([1, 1], [1, 1])
        row = grid.index_of([1, 1], [1, 1])
        np.testing.assert_array_equal(grid.levels[row], [1, 1])

    def test_missing_point(self):
        grid = regular_sparse_grid(2, 2)
        assert not grid.contains([5, 5], [1, 1])
        with pytest.raises(KeyError):
            grid.index_of([5, 5], [1, 1])


class TestAddPoints:
    def test_add_new_points(self):
        grid = regular_sparse_grid(2, 2)
        before = len(grid)
        new = grid.add_points(np.array([[3, 1]]), np.array([[1, 1]]))
        assert len(new) == 1
        assert len(grid) == before + 1
        assert grid.contains([3, 1], [1, 1])

    def test_add_duplicate_is_noop(self):
        grid = regular_sparse_grid(2, 2)
        before = len(grid)
        new = grid.add_points(grid.levels[:3], grid.indices[:3])
        assert new.size == 0
        assert len(grid) == before

    def test_points_cache_refreshes(self):
        grid = regular_sparse_grid(2, 2)
        _ = grid.points
        grid.add_points(np.array([[3, 1]]), np.array([[1, 1]]))
        assert grid.points.shape[0] == len(grid)

    def test_copy_is_independent(self):
        grid = regular_sparse_grid(2, 2)
        clone = grid.copy()
        clone.add_points(np.array([[3, 1]]), np.array([[1, 1]]))
        assert len(clone) == len(grid) + 1


class TestGeometry:
    def test_points_in_unit_box(self):
        grid = regular_sparse_grid(4, 4)
        assert grid.points.min() >= 0.0
        assert grid.points.max() <= 1.0

    def test_level_sums(self):
        grid = regular_sparse_grid(3, 3)
        assert grid.level_sums.min() == 3          # the root (1,1,1)
        assert grid.level_sums.max() == 3 + 3 - 1  # |l|_1 <= n + d - 1

    def test_max_level(self):
        assert regular_sparse_grid(3, 3).max_level == 3
        assert regular_sparse_grid(2, 5).max_level == 5


class TestBasisEvaluation:
    def test_root_point_basis(self):
        grid = regular_sparse_grid(2, 2)
        phi = grid.basis_matrix(np.atleast_2d([0.5, 0.5]))[0]
        row = grid.index_of([1, 1], [1, 1])
        assert phi[row] == 1.0

    def test_basis_matrix_identity_structure(self):
        """B[j, k] = phi_k(x_j) is unit lower triangular in level-sum order."""
        grid = regular_sparse_grid(2, 3)
        B = grid.basis_matrix(grid.points)
        order = np.argsort(grid.level_sums, kind="stable")
        P = B[np.ix_(order, order)]
        np.testing.assert_allclose(np.diag(P), 1.0)
        upper = np.triu(P, k=1)
        assert np.max(np.abs(upper)) == 0.0

    def test_basis_matrix_shape(self):
        grid = regular_sparse_grid(3, 2)
        X = np.random.default_rng(0).random((7, 3))
        assert grid.basis_matrix(X).shape == (7, len(grid))

    def test_out_of_box_rejected(self):
        grid = regular_sparse_grid(2, 2)
        with pytest.raises(ValueError):
            grid.basis_matrix(np.atleast_2d([1.5, 0.5]))[0]

    def test_wrong_query_dim_rejected(self):
        grid = regular_sparse_grid(2, 2)
        with pytest.raises(ValueError):
            grid.basis_matrix(np.zeros((3, 4)))

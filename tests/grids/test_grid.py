"""Unit tests for the SparseGrid container."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    def test_negative_index_raises(self):
        # x = -0.25, and a negative index would pack onto another level's key
        with pytest.raises(ValueError, match="indices"):
            SparseGrid(1, np.array([[3]]), np.array([[-1]]))


class TestLookup:
    def test_rows_of_finds_every_point(self):
        grid = regular_sparse_grid(2, 2)
        rows = grid.rows_of(grid.levels[::-1], grid.indices[::-1])
        np.testing.assert_array_equal(rows, np.arange(len(grid))[::-1])
        (row,) = grid.rows_of([1, 1], [1, 1])
        np.testing.assert_array_equal(grid.levels[row], [1, 1])

    def test_missing_point(self):
        grid = regular_sparse_grid(2, 2)
        np.testing.assert_array_equal(grid.rows_of([[5, 5], [2, 1]], [[1, 1], [2, 1]]), [-1, 2])
        assert grid.rows_of([2, 1], [1, 1])[0] == -1  # level 2 has no index 1

    def test_query_shape_checked(self):
        with pytest.raises(ValueError):
            regular_sparse_grid(2, 2).rows_of([[1, 1, 1]], [[1, 1, 1]])


class TestAddPoints:
    def test_add_new_points(self):
        grid = regular_sparse_grid(2, 2)
        before = len(grid)
        new = grid.add_points(np.array([[3, 1]]), np.array([[1, 1]]))
        np.testing.assert_array_equal(new, [before])
        assert len(grid) == before + 1
        assert grid.rows_of([3, 1], [1, 1])[0] == before

    def test_add_duplicate_is_noop(self):
        grid = regular_sparse_grid(2, 2)
        before = len(grid)
        new = grid.add_points(grid.levels[:3], grid.indices[:3])
        assert new.size == 0
        assert len(grid) == before
        assert grid.version == 0

    def test_repeats_in_a_batch_are_added_once_in_first_appearance_order(self):
        grid = regular_sparse_grid(1, 2)
        new = grid.add_points([[3], [1], [3], [4]], [[3], [1], [3], [1]])
        np.testing.assert_array_equal(new, [3, 4])
        np.testing.assert_array_equal(grid.levels[3:, 0], [3, 4])
        np.testing.assert_array_equal(grid.indices[3:, 0], [3, 1])

    def test_invalid_points_rejected(self):
        # the constructor's checks: a level-0 point sat at x = 2.0 before
        grid = SparseGrid(1)
        with pytest.raises(ValueError, match="levels"):
            grid.add_points([[0]], [[1]])
        with pytest.raises(ValueError, match="indices"):
            grid.add_points([[3]], [[-1]])
        with pytest.raises(ValueError):
            grid.add_points([[1, 1]], [[1, 1]])
        # pairs that are no hierarchical point: (3, 2) sat on the root's 0.5
        # and (2, 5) at x = 2.5, and hierarchize fitted them without complaint
        for level, index in [(1, 0), (1, 2), (2, 1), (2, 5), (3, 2), (3, 5), (4, 0), (4, 9)]:
            with pytest.raises(ValueError, match="not a hierarchical point"):
                grid.add_points([[level]], [[index]])
        assert len(grid) == 0 and grid.version == 0
        with pytest.raises(ValueError, match=r"\(level 3, index 2\)"):
            SparseGrid(1, [[1], [3], [2]], [[1], [2], [5]])
        with pytest.raises(ValueError, match="not a hierarchical point"):
            SparseGrid.from_arrays(np.array([[1], [2]]), np.array([[1], [1]]))

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


# every hierarchical (level, index) pair of levels 1-4
_PAIRS = [(1, 1), (2, 0), (2, 2), (3, 1), (3, 3), (4, 1), (4, 3), (4, 5), (4, 7)]


@st.composite
def _point_batches(draw):
    """A dimension, batches of points to insert, and points to look up.

    Nine valid pairs per dimension make repeats within a batch, across
    batches and between insertions and queries common.
    """
    dim = draw(st.integers(min_value=1, max_value=3))
    point = st.tuples(*[st.sampled_from(_PAIRS)] * dim)
    batches = draw(st.lists(st.lists(point, max_size=8), max_size=5))
    return dim, batches, draw(st.lists(point, max_size=8))


def _arrays(dim, points):
    """``(levels, indices)`` arrays of shape ``(len(points), dim)``."""
    pairs = np.asarray(points, dtype=np.int32).reshape(len(points), dim, 2)
    return pairs[..., 0], pairs[..., 1]


@settings(max_examples=100, deadline=None)
@given(_point_batches())
@example((2, [], [((1, 1), (2, 0))]))  # lookups in the empty grid
def test_rows_of_and_add_points_follow_a_dict_model(case):
    dim, batches, queries = case
    grid, model = SparseGrid(dim), {}
    for batch in batches:
        version, expected = grid.version, []
        for point in batch:
            if point not in model:
                model[point] = len(model)
                expected.append(model[point])
        np.testing.assert_array_equal(grid.add_points(*_arrays(dim, batch)), expected)
        assert grid.version == version + bool(expected)
    assert len(grid) == len(model)
    stored = list(model)
    np.testing.assert_array_equal(grid.rows_of(*_arrays(dim, stored)), np.arange(len(model)))
    np.testing.assert_array_equal(
        grid.rows_of(*_arrays(dim, queries)), [model.get(q, -1) for q in queries]
    )


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
        (row,) = grid.rows_of([1, 1], [1, 1])
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

"""Tests for regular sparse grid construction and the closed-form sizes."""

import numpy as np
import pytest

from repro.grids.regular import level_vectors, regular_grid_size, regular_sparse_grid


class TestGridSizes:
    @pytest.mark.parametrize(
        "dim, level, expected",
        [
            (1, 1, 1),
            (1, 2, 3),
            (1, 3, 5),
            (1, 4, 9),
            (2, 2, 5),
            (2, 3, 13),
            (3, 3, 25),
            (5, 4, 241),
        ],
    )
    def test_small_grid_sizes(self, dim, level, expected):
        grid = regular_sparse_grid(dim, level)
        assert len(grid) == expected
        assert regular_grid_size(dim, level) == expected

    @pytest.mark.parametrize(
        "level, expected",
        [(2, 119), (3, 7_081), (4, 281_077), (5, 8_378_001)],
    )
    def test_paper_59d_sizes(self, level, expected):
        """The exact point counts quoted in the paper for d = 59."""
        assert regular_grid_size(59, level) == expected

    def test_closed_form_matches_construction(self):
        for dim in (2, 3, 4, 6):
            for level in (1, 2, 3, 4):
                assert regular_grid_size(dim, level) == len(regular_sparse_grid(dim, level))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            regular_grid_size(0, 3)
        with pytest.raises(ValueError):
            regular_sparse_grid(2, 0)


class TestGridStructure:
    def test_level_constraint_holds(self):
        dim, level = 4, 4
        grid = regular_sparse_grid(dim, level)
        assert np.all(grid.level_sums <= level + dim - 1)
        assert np.all(grid.levels >= 1)

    def test_no_duplicate_points(self):
        grid = regular_sparse_grid(3, 4)
        coords = grid.points
        unique = np.unique(coords.round(12), axis=0)
        assert unique.shape[0] == coords.shape[0]

    def test_contains_full_1d_grids_on_axes(self):
        """Every 1-D level up to n appears along each coordinate axis."""
        grid = regular_sparse_grid(2, 3)
        # level-3 points on the first axis: (3, 1) and (3, 3) with the other at root
        rows = grid.rows_of([[3, 1], [3, 1], [1, 3]], [[1, 1], [3, 1], [1, 3]])
        assert (rows >= 0).all()

    def test_level_one_grid_is_single_midpoint(self):
        grid = regular_sparse_grid(4, 1)
        assert len(grid) == 1
        np.testing.assert_allclose(grid.points[0], 0.5)

    def test_level_vectors_cover_all_subspace_combinations(self):
        count = 0
        for dims, lvls in level_vectors(3, 3):
            assert len(dims) == len(lvls)
            assert all(l >= 2 for l in lvls)
            assert sum(l - 1 for l in lvls) <= 2
            count += 1
        # k=0: 1; k=1: 3 dims x levels {2,3} = 6; k=2: 3 pairs x (2,2) = 3
        assert count == 10

    def test_nested_grids(self):
        """Every point of the level-n grid appears in the level-(n+1) grid."""
        small = regular_sparse_grid(3, 2)
        large = regular_sparse_grid(3, 3)
        assert (large.rows_of(small.levels, small.indices) >= 0).all()

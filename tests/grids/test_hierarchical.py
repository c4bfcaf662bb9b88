"""Unit tests for the 1-D hierarchical basis (paper Eqs. 5-7)."""

import numpy as np
import pytest

from repro.grids.adaptive import child_points
from repro.grids.hierarchical import (
    basis_1d,
    basis_1d_vectorized,
    level_indices,
    num_level_points,
    parents_1d,
    point_1d,
    points_1d,
)
from repro.grids.regular import regular_sparse_grid


class TestPoints:
    def test_level_one_is_midpoint(self):
        assert point_1d(1, 1) == 0.5

    def test_level_two_are_boundaries(self):
        assert point_1d(2, 0) == 0.0
        assert point_1d(2, 2) == 1.0

    def test_level_three_quarters(self):
        assert point_1d(3, 1) == 0.25
        assert point_1d(3, 3) == 0.75

    def test_invalid_level_raises(self):
        with pytest.raises(ValueError):
            point_1d(0, 1)

    def test_invalid_level_one_index_raises(self):
        with pytest.raises(ValueError):
            point_1d(1, 0)

    def test_vectorized_matches_scalar(self):
        levels = np.array([1, 2, 2, 3, 3, 4])
        indices = np.array([1, 0, 2, 1, 3, 5])
        expected = [point_1d(int(l), int(i)) for l, i in zip(levels, indices)]
        np.testing.assert_allclose(points_1d(levels, indices), expected)


class TestIndices:
    def test_level_index_sets(self):
        assert level_indices(1) == [1]
        assert level_indices(2) == [0, 2]
        assert level_indices(3) == [1, 3]
        assert level_indices(4) == [1, 3, 5, 7]

    def test_num_level_points_matches_index_sets(self):
        for level in range(1, 8):
            assert num_level_points(level) == len(level_indices(level))

    def test_points_within_level_are_distinct(self):
        for level in range(2, 7):
            pts = [point_1d(level, i) for i in level_indices(level)]
            assert len(set(pts)) == len(pts)

    def test_levels_are_nested_disjoint(self):
        """Points of different hierarchical levels never coincide."""
        seen = set()
        for level in range(1, 8):
            for i in level_indices(level):
                x = point_1d(level, i)
                assert x not in seen
                seen.add(x)


class TestBasis:
    def test_level_one_constant(self):
        for x in np.linspace(0, 1, 11):
            assert basis_1d(float(x), 1, 1) == 1.0

    def test_peak_at_own_point(self):
        for level in range(2, 6):
            for i in level_indices(level):
                assert basis_1d(point_1d(level, i), level, i) == pytest.approx(1.0)

    def test_zero_at_same_level_other_points(self):
        for level in range(2, 6):
            idx = level_indices(level)
            for i in idx:
                for j in idx:
                    if i != j:
                        assert basis_1d(point_1d(level, j), level, i) == 0.0

    def test_zero_at_coarser_points(self):
        """phi_{l,i} vanishes at every grid point of any coarser level."""
        for level in range(2, 6):
            for i in level_indices(level):
                for coarse in range(1, level):
                    for j in level_indices(coarse):
                        assert basis_1d(point_1d(coarse, j), level, i) == 0.0

    def test_support_width(self):
        # level-3 hat at 0.25 has support (0, 0.5)
        assert basis_1d(0.0, 3, 1) == 0.0
        assert basis_1d(0.5, 3, 1) == 0.0
        assert basis_1d(0.25, 3, 1) == 1.0
        assert basis_1d(0.375, 3, 1) == pytest.approx(0.5)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(0, 1, 17)
        for level in range(1, 6):
            for i in level_indices(level):
                expected = [basis_1d(float(x), level, i) for x in xs]
                got = basis_1d_vectorized(xs, level, i)
                np.testing.assert_allclose(got, expected)

    def test_partition_like_sum_boundaries(self):
        """Level-2 boundary hats plus level-1 constant over-cover the domain."""
        xs = np.linspace(0, 1, 33)
        total = basis_1d_vectorized(xs, 2, 0) + basis_1d_vectorized(xs, 2, 2)
        assert np.all(total <= 1.0 + 1e-12)


def _children(level, index):
    """The 1-D children of ``(level, index)``, as ``child_points`` lists them."""
    grid = regular_sparse_grid(1, level)
    rows = grid.rows_of([level], [index])
    assert rows[0] >= 0
    lev, idx = child_points(grid, rows)
    return list(zip(lev[:, 0].tolist(), idx[:, 0].tolist()))


def _chain(level, index):
    """The ancestor chain of a 1-D point by repeated ``parents_1d``, direct parent first."""
    chain = []
    level, index = parents_1d(level, index)
    while level >= 1:
        chain.append((int(level), int(index)))
        level, index = parents_1d(level, index)
    return chain


class TestHierarchy:
    def test_children_of_root(self):
        assert _children(1, 1) == [(2, 0), (2, 2)]

    def test_children_of_boundaries(self):
        assert _children(2, 0) == [(3, 1)]
        assert _children(2, 2) == [(3, 3)]

    def test_children_of_interior(self):
        assert _children(3, 1) == [(4, 1), (4, 3)]
        assert _children(4, 5) == [(5, 9), (5, 11)]

    def test_parent_inverts_children(self):
        grid = regular_sparse_grid(1, 5)
        lev, idx = child_points(grid, np.arange(len(grid)))
        owners = np.repeat(np.arange(len(grid)), np.where(grid.levels[:, 0] == 2, 1, 2))
        parent_lev, parent_idx = parents_1d(lev, idx)
        np.testing.assert_array_equal(parent_lev, grid.levels[owners])
        np.testing.assert_array_equal(parent_idx, grid.indices[owners])

    def test_root_has_no_parent(self):
        assert parents_1d(1, 1) == (0, 0)

    def test_ancestor_chain_ends_at_root(self):
        for level in range(2, 7):
            grid = regular_sparse_grid(1, level)
            for i in level_indices(level):
                chain = _chain(level, i)
                assert chain[-1] == (1, 1)
                assert len(chain) == level - 1
                lev, idx = np.array(chain).T
                assert (grid.rows_of(lev[:, None], idx[:, None]) >= 0).all()

    def test_ancestors_have_nonincreasing_levels(self):
        chain = _chain(6, 11)
        levels = [l for l, _ in chain]
        assert levels == sorted(levels, reverse=True)

    def test_ancestor_supports_contain_point(self):
        """Each ancestor's basis is non-zero at the descendant point (except possibly
        at coarse levels where the point coincides with a support boundary)."""
        for level in range(3, 7):
            for i in level_indices(level):
                x = point_1d(level, i)
                chain = _chain(level, i)
                # all coarser-level basis functions that are non-zero at x
                # must be exactly the chain entries
                for coarse in range(1, level):
                    nonzero = [
                        (coarse, j)
                        for j in level_indices(coarse)
                        if basis_1d(x, coarse, j) > 0.0
                    ]
                    chain_at_level = [(l, j) for l, j in chain if l == coarse]
                    assert set(nonzero) <= set(chain_at_level)

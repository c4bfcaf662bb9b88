"""Tests for adaptive sparse grid refinement."""

import hashlib

import numpy as np
import pytest

from repro.grids.adaptive import (
    AdaptiveRefiner,
    child_points,
    complete_ancestors,
    refine,
    refinement_candidates,
    surplus_indicator,
)
from repro.grids.grid import SparseGrid
from repro.grids.hierarchize import evaluate_dense, hierarchize
from repro.grids.regular import regular_sparse_grid


def _kink(X):
    """A function with a localized kink, the textbook case for adaptivity."""
    return np.abs(X[:, 0] - 0.3) + 0.1 * X[:, -1]


def _peak(X):
    """A smooth bump: refinement spreads around its centre in every dimension."""
    return np.exp(-8.0 * np.sum((X - 0.4) ** 2, axis=1))


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


# (function, dim, epsilon, max_level) -> sha256 over the levels, indices and
# surpluses AdaptiveRefiner.build returns (max_points 1500), generated with the
# one-point-at-a-time refinement it replaced: a moved row or bit fails here.
REFINEMENT_DIGESTS = {
    ("kink", 1, 1e-2, 5): "26caa42b87d524a4c42e370f0c5900a76e09f39a764a16f524baf7da53445b9c",
    ("kink", 1, 1e-3, 6): "3f0e8cf0dfa5cec39f65148d0829727fc2b9b8007e7b669918ccd98c385c2080",
    ("kink", 2, 1e-2, 5): "fce4427b54c519759a5c183e5c989cb4f3a6aceffd6e0f65a9c7d62c55dba540",
    ("kink", 2, 1e-3, 6): "1c8a4b2b512be1cd5a5169cc888f849d62b259c5d34377bd656efef6141f0082",
    ("kink", 3, 1e-2, 5): "56e5c4685cfa3c68a7cd196e712a0329dc06b8008f88994b77f638bececde2c7",
    ("kink", 3, 1e-3, 6): "3591670c036f6b7878f5d3a6bcf66a1d23fb9280c03074d902e36b948e986372",
    ("kink", 4, 1e-2, 5): "6ad64c3375fd09bb219c43cc3f9195171affaaabc4cd4ed406a8c5a583d39dde",
    ("kink", 4, 1e-3, 6): "92f0113c8499f412f8ddad165e6eacff478a9878618b124ba4e31bc7d446ef4f",
    ("kink", 6, 1e-2, 5): "322f5441552b8127b5fc90943cd702ff3377969c5c3d21a31c7030be48440f37",
    ("kink", 6, 1e-3, 6): "7665253f5638ae33071affc98ae98b54a410c7fdbbd6cd0990b538b23562cd3e",
    ("peak", 1, 1e-2, 5): "41e04a74389ffe0cc561cab7f1224ddf6e67fe9ac9d3fbf6d14c655bce18fa18",
    ("peak", 1, 1e-3, 6): "59e527fc4629f1a0117e78c5109c244e7fd1d059da57fc1f364b1b9ffd64c3ce",
    ("peak", 2, 1e-2, 5): "2c38c43a7c30a246cc2e7237b319bd681d5f0da9f7beb0857897623e27bc070e",
    ("peak", 2, 1e-3, 6): "77ee6921e0ce006466a9211f1a1dba55f8ebb9b49f6b577e96a3553416fc9d15",
    ("peak", 3, 1e-2, 5): "75916964f5773e38d2c1bea7ad2fa36f2a8c6a391212b92f9163ab3bbf812655",
    ("peak", 3, 1e-3, 6): "9f01e496e36b4ffea3cfb72ad8fd243c480ac46063371c4575b4a554a266526d",
    ("peak", 4, 1e-2, 5): "439226757e0ad247e47d0d9fa6fe8a3bf5950fce0d9545b5d2c5f45904aad541",
    ("peak", 4, 1e-3, 6): "c1379a73fd9cc14b8dea7b019a625e805aeccbc7aca80d1d82ee8d48e57ac70a",
    ("peak", 6, 1e-2, 5): "14c6619dcfa0e04194d4acf6d7be0558b85a111ca1ef7b04f6ce58c004c52030",
    ("peak", 6, 1e-3, 6): "89c66ffc2551bd33fcc46911f3ee7f5e0752053a8708177fe037e14fff7b9dc1",
}


@pytest.mark.parametrize("func, dim, epsilon, max_level", list(REFINEMENT_DIGESTS))
def test_refinement_is_pinned(func, dim, epsilon, max_level):
    refiner = AdaptiveRefiner(epsilon=epsilon, max_level=max_level, max_points=1500)
    grid, surplus = refiner.build({"kink": _kink, "peak": _peak}[func], dim)
    expected = REFINEMENT_DIGESTS[func, dim, epsilon, max_level]
    assert _digest(grid.levels, grid.indices, surplus) == expected


def test_refine_chain_is_pinned():
    """Four seeded refine rounds on a (3, 2) grid: the rows each returns, then the grid."""
    grid = regular_sparse_grid(3, 2)
    rng = np.random.default_rng(7)
    added = [refine(grid, rng.standard_normal(len(grid)), epsilon=1.0) for _ in range(4)]
    assert len(grid) == 39
    expected = "221b7e4f25d516f70514a44c8051238c20b28dd76b12e17555b90932419a28de"
    assert _digest(*added, grid.levels, grid.indices) == expected


class TestIndicator:
    def test_scalar_surplus(self):
        s = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(surplus_indicator(s), [1.0, 2.0, 0.5])

    def test_multidof_takes_max(self):
        s = np.array([[1.0, -3.0], [0.1, 0.2]])
        np.testing.assert_allclose(surplus_indicator(s), [3.0, 0.2])


class TestCandidates:
    def test_threshold_filters(self):
        grid = regular_sparse_grid(2, 2)
        surplus = np.zeros(len(grid))
        surplus[0] = 1.0
        rows = refinement_candidates(grid, surplus, epsilon=0.5)
        np.testing.assert_array_equal(rows, [0])

    def test_zero_threshold_flags_everything(self):
        grid = regular_sparse_grid(2, 2)
        surplus = np.full(len(grid), 0.1)
        assert refinement_candidates(grid, surplus, 0.0).size == len(grid)

    def test_max_level_excludes_deep_points(self):
        grid = regular_sparse_grid(1, 3)
        surplus = np.ones(len(grid))
        rows = refinement_candidates(grid, surplus, 0.0, max_level=2)
        assert np.all(grid.levels[rows].max(axis=1) < 2 + 1)

    def test_negative_epsilon_raises(self):
        grid = regular_sparse_grid(2, 2)
        with pytest.raises(ValueError):
            refinement_candidates(grid, np.zeros(len(grid)), -1.0)

    def test_mismatched_surplus_raises(self):
        grid = regular_sparse_grid(2, 2)
        with pytest.raises(ValueError):
            refinement_candidates(grid, np.zeros(3), 0.1)


class TestChildren:
    def test_two_children_per_dimension(self):
        grid = regular_sparse_grid(3, 1)
        lev, idx = child_points(grid, np.array([0]))
        # the root has 2 children per dimension
        assert lev.shape == (6, 3)

    def test_no_rows_no_children(self):
        grid = regular_sparse_grid(2, 2)
        lev, idx = child_points(grid, np.array([], dtype=int))
        assert lev.shape == (0, 2)


class TestCompleteAncestors:
    def test_inserts_missing_parents(self):
        # a grid with a deep point but no intermediate ancestors
        levels = np.array([[1, 1], [4, 1]])
        indices = np.array([[1, 1], [1, 1]])
        grid = SparseGrid(2, levels, indices)
        added = complete_ancestors(grid)
        assert added.size >= 2
        assert (grid.rows_of([[2, 1], [3, 1]], [[0, 1], [1, 1]]) >= 0).all()

    def test_complete_grid_unchanged(self):
        grid = regular_sparse_grid(3, 3)
        assert complete_ancestors(grid).size == 0


class TestRefine:
    def test_refine_grows_grid(self):
        grid = regular_sparse_grid(2, 2)
        surplus = np.ones(len(grid))
        new_rows = refine(grid, surplus, epsilon=0.5)
        assert new_rows.size > 0
        assert len(grid) > 5

    def test_refined_grid_remains_consistent(self):
        grid = regular_sparse_grid(2, 2)
        values = _kink(grid.points)
        surplus = hierarchize(grid, values)
        refine(grid, surplus, epsilon=1e-3)
        # hierarchical consistency: every parent of every point is present
        assert complete_ancestors(grid).size == 0

    def test_high_threshold_is_noop(self):
        grid = regular_sparse_grid(2, 3)
        values = _kink(grid.points)
        surplus = hierarchize(grid, values)
        new_rows = refine(grid, surplus, epsilon=1e6)
        assert new_rows.size == 0

    def test_max_level_respected(self):
        grid = regular_sparse_grid(2, 2)
        for _ in range(5):
            surplus = np.ones((len(grid), 1))
            refine(grid, surplus, epsilon=0.0, max_level=3)
        assert grid.levels.max() <= 3


class TestAdaptiveRefiner:
    def test_build_approximates_kink_better_than_regular(self):
        refiner = AdaptiveRefiner(epsilon=2e-3, max_level=7, max_points=600)
        grid, surplus = refiner.build(_kink, dim=2, initial_level=2)
        regular = regular_sparse_grid(2, 4)
        reg_surplus = hierarchize(regular, _kink(regular.points))

        rng = np.random.default_rng(0)
        sample = rng.random((300, 2))
        exact = _kink(sample)
        adaptive_err = np.abs(evaluate_dense(grid, surplus, sample) - exact).max()
        regular_err = np.abs(evaluate_dense(regular, reg_surplus, sample) - exact).max()
        # the adaptive grid should not be (much) worse and concentrates points
        assert adaptive_err <= regular_err * 1.5

    def test_points_concentrate_near_kink(self):
        refiner = AdaptiveRefiner(epsilon=2e-3, max_level=7, max_points=600)
        grid, _ = refiner.build(_kink, dim=2, initial_level=2)
        deep = grid.levels[:, 0] >= 5
        if deep.any():
            x_deep = grid.points[deep, 0]
            assert np.median(np.abs(x_deep - 0.3)) < 0.2

    def test_max_points_cap(self):
        refiner = AdaptiveRefiner(epsilon=0.0, max_level=10, max_points=50)
        grid, _ = refiner.build(_kink, dim=2, initial_level=2)
        # one refinement sweep may overshoot the cap, but not by orders of magnitude
        assert len(grid) < 500

    def test_exact_at_grid_points(self):
        refiner = AdaptiveRefiner(epsilon=1e-2, max_level=5, max_points=300)
        grid, surplus = refiner.build(_kink, dim=2)
        values = evaluate_dense(grid, surplus, grid.points)
        np.testing.assert_allclose(values, _kink(grid.points), atol=1e-10)

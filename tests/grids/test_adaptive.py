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


# (function, dim, epsilon, max_level) -> two sha256 digests of what
# AdaptiveRefiner.build returns (max_points 1500).  The first is over the
# levels and indices: a moved row fails here, and no change of summation order
# may move it.  The second is over the surpluses, which follow hierarchize's
# summation order (the per-dimension transform moved them by <= 6e-16).
REFINEMENT_DIGESTS = {
    ("kink", 1, 1e-2, 5): (
        "39d2843d6212e79d2a35dfe1a50e9f18a52c7ba3982bc2d56d358c73d1ac8194",
        "b978b082a26c92dbd4328cc8bcf134da03352edc9576dda7566ae909e1fce8ec",
    ),
    ("kink", 1, 1e-3, 6): (
        "d4a7d0717d66fc62dc6241aebf61dbb0b70489f5033eb70ccc09b55b3256881b",
        "36c99c423c86448b02221fa1ddc08c0cb5146d244eada1b5b55ad6fb6aed8564",
    ),
    ("kink", 2, 1e-2, 5): (
        "0776a891e9216d02e6f6eb07d2593b13415ea5a92ae22f0d459b40ad19a1d994",
        "181af2eb38e76234d37defc6a49d6d560605f4512b495dc0c123ba383037e15d",
    ),
    ("kink", 2, 1e-3, 6): (
        "b04500ae25b8d0b7d67a7994a5ddd3b8fca66bc93746ddaa0e6656fa1cd5dd36",
        "a3f6a0f97149fe0b70e1d784ff9d68e49da9a7e244ee17b6b7f812c1981a0904",
    ),
    ("kink", 3, 1e-2, 5): (
        "ee800b5596824851dabc008d2fd993bef7c77d010471a31dc34e6a121b0039f0",
        "2d70e0ada5b0ff8bfdbfcbf93e0adf717b7fc3eabd409e6ed03f9df5842adc32",
    ),
    ("kink", 3, 1e-3, 6): (
        "ca6cc491369bb52b35a2550da5fbb3dfc354e4a366f807c929e4830b1462a799",
        "6423cd26bf3b820d818a3b4ff42385518ecabf60d8ba053445ad90695cb2a8aa",
    ),
    ("kink", 4, 1e-2, 5): (
        "bcf10f8de88af7704baa333ccd078cd1b424f6628c2dac58fe9b9fa621b1c924",
        "486335c7a76dc7d60246306addb8649fa6ed088d8426dba6080382eea8a0614c",
    ),
    ("kink", 4, 1e-3, 6): (
        "427594c3a590a066f926ee1166a3ed64335b3c3339e7c9472700ee4fcdf82441",
        "0d7694d0723059c36421e1b1fc35db7da0356bdb585be72ce17b67648e2094d9",
    ),
    ("kink", 6, 1e-2, 5): (
        "e1590a1923d88fc98b7b60241032357078ced7ebec528391b3ee140bd8751624",
        "48f9f61b8f3dc8bae0c3cb11972c47479a1ef4073e42d9600980478db25a5e12",
    ),
    ("kink", 6, 1e-3, 6): (
        "9030faa02520beba18bd6cfa412496a0455febc2fc0fc8bb327f43592dcee854",
        "20170d50eefcb8f23cc3007bd84c05776da72cc42c39dbedc227ef81ba1abab9",
    ),
    ("peak", 1, 1e-2, 5): (
        "595edaf6e3d71c33f9ee1625605fbc6679165e7a55e74bc575d6b6bded76930a",
        "1a2ddb6a3ce4baa32a7de20c804267faa625af35426239d44ca0f7b57d822185",
    ),
    ("peak", 1, 1e-3, 6): (
        "d8f5ffe8329b69a661f97288ebc2b15c878aa032bcbfc16cc6d47b2bc80607f1",
        "32b5ea63f0502c112d3d66feb5ad00e958c8de5de8d2097851d20d3b787b009b",
    ),
    ("peak", 2, 1e-2, 5): (
        "1d559e80f2730572433eb3b0e68a4b8586a885cd8604ea725d1123149ddfe4a1",
        "cc6c98474cded1ba1e385a1fcebde2ac8598f60e7e42983cf6c562b91b8705fe",
    ),
    ("peak", 2, 1e-3, 6): (
        "a80a99265a5f39791b27ae00a3b5ca89baeafdc689f4d2b6bd3d73db71e242c7",
        "8f0381d5751b98f4c0291c3707a8fcf0d35afa6be6afa6e263303ca89cd61148",
    ),
    ("peak", 3, 1e-2, 5): (
        "fd7047c3dcbddd2efc16324e570085c7e91c97ba69de32eb3861ee2b0fcb6f12",
        "1c7649225e9753d0dd0c176715c63552d127da76bcc8b66df35dfacd47635511",
    ),
    ("peak", 3, 1e-3, 6): (
        "a8d7f8b0f176026e53fd581fa6f866feb727e1a2be45660a93c20159fbbf5bd4",
        "0c202d4dc65c2c315cb23404700b763147b58e7c61722190fd7d4e25bdbe94a7",
    ),
    ("peak", 4, 1e-2, 5): (
        "dc70b211e39129752a7f6e460bd7abf59ef45f6acc0652279fecada973f69af1",
        "a5f39186f89224fafebec690f10dc7e415f342f8be3c26ecff060d7818e4bec7",
    ),
    ("peak", 4, 1e-3, 6): (
        "6f81a22681361356e06cbb866cf2373adba656f0e711981962c56551e95db05b",
        "f09a4c30a1b19f11490e84891a5a785f23d47c49b9e65c5a5d9e2c0cf3511f8e",
    ),
    ("peak", 6, 1e-2, 5): (
        "50a35c523d1e40bc9afe96f74093f76d8de0abdda0b259507b5c96dd0c16cbe3",
        "f2a6c74b075ce71a92e153484eba6b2957d3e69d1d2103d80a82d52cbab173f0",
    ),
    ("peak", 6, 1e-3, 6): (
        "6ede041c557f4f362712090e7690b24e0304481b889e5a7803b11b0f23fffb25",
        "f589f2bbcae26322597e21d62053ecd7deca28a62775aa940dd1045f52dc94b9",
    ),
}


@pytest.mark.parametrize("func, dim, epsilon, max_level", list(REFINEMENT_DIGESTS))
def test_refinement_is_pinned(func, dim, epsilon, max_level):
    refiner = AdaptiveRefiner(epsilon=epsilon, max_level=max_level, max_points=1500)
    grid, surplus = refiner.build({"kink": _kink, "peak": _peak}[func], dim)
    grid_digest, surplus_digest = REFINEMENT_DIGESTS[func, dim, epsilon, max_level]
    assert _digest(grid.levels, grid.indices) == grid_digest
    assert _digest(surplus) == surplus_digest


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

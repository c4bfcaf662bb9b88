"""Tests for the high-level SparseGridInterpolant API."""

import numpy as np
import pytest

from repro.grids.domain import BoxDomain
from repro.grids.interpolation import SparseGridInterpolant, StackedRead, evaluate_stacked
from repro.grids.regular import regular_sparse_grid


def _func(X):
    return np.cos(X[:, 0]) + X[:, 1] * X[:, 0]


class TestFromFunction:
    def test_exact_at_grid_points(self):
        domain = BoxDomain([0.0, -1.0], [2.0, 1.0])
        interp = SparseGridInterpolant.from_function(_func, dim=2, level=4, domain=domain)
        pts = domain.from_unit(interp.grid.points)
        np.testing.assert_allclose(interp(pts), _func(pts), atol=1e-10)

    def test_reasonable_off_grid(self):
        domain = BoxDomain([0.0, -1.0], [2.0, 1.0])
        interp = SparseGridInterpolant.from_function(_func, dim=2, level=5, domain=domain)
        sample = domain.sample(100, rng=0)
        err = interp.max_error_at(_func, sample)
        assert err < 0.05

    def test_single_point_query(self):
        interp = SparseGridInterpolant.from_function(_func, dim=2, level=3)
        out = interp(np.array([0.3, 0.7]))
        assert np.isscalar(out) or out.ndim == 0


class TestSurplusManagement:
    def test_unset_surplus_raises(self):
        grid = regular_sparse_grid(2, 2)
        interp = SparseGridInterpolant(grid)
        with pytest.raises(RuntimeError):
            interp(np.array([[0.5, 0.5]]))

    def test_wrong_surplus_rows_raise(self):
        grid = regular_sparse_grid(2, 2)
        interp = SparseGridInterpolant(grid)
        with pytest.raises(ValueError):
            interp.set_surplus(np.zeros(len(grid) + 2))

    def test_num_dofs(self):
        grid = regular_sparse_grid(2, 2)
        interp = SparseGridInterpolant(grid, surplus=np.zeros((len(grid), 4)))
        assert interp.num_dofs == 4
        interp2 = SparseGridInterpolant(grid, surplus=np.zeros(len(grid)))
        assert interp2.num_dofs == 1

    def test_domain_dim_mismatch_raises(self):
        grid = regular_sparse_grid(2, 2)
        with pytest.raises(ValueError):
            SparseGridInterpolant(grid, domain=BoxDomain.cube(3))


class TestCall:
    def test_multidof_output_shape(self):
        grid = regular_sparse_grid(3, 3)

        def vec_func(X):
            return np.stack([X[:, 0], X[:, 1] ** 2, X.sum(axis=1)], axis=1)

        interp = SparseGridInterpolant(grid)
        interp.fit_values(vec_func(grid.points))
        out = interp(np.random.default_rng(0).random((11, 3)))
        assert out.shape == (11, 3)

    def test_wrong_query_dim_raises(self):
        interp = SparseGridInterpolant.from_function(_func, dim=2, level=2)
        with pytest.raises(ValueError):
            interp(np.zeros((3, 5)))


class TestEvaluateStacked:
    """One basis pass for interpolants on one grid; several per query block share a GEMM."""

    @staticmethod
    def _interpolants(grid, count, domain=None, dofs=3, seed=0):
        rng = np.random.default_rng(seed)
        return [
            SparseGridInterpolant(grid, rng.standard_normal((len(grid), dofs)), domain=domain)
            for _ in range(count)
        ]

    def test_several_interpolants_per_block_equal_their_own_calls(self):
        grid = regular_sparse_grid(3, 3)
        boxes = [BoxDomain.cube(3, 0.0, 2.0), BoxDomain.cube(3, -1.0, 1.0)]
        # two "members", each with its own box, three "states" and query block;
        # a third entry is a plain interpolant, answered with a plain array
        groups = [self._interpolants(grid, 3, domain=box, seed=i) for i, box in enumerate(boxes)]
        single = SparseGridInterpolant(grid, np.arange(float(len(grid))))  # scalar surpluses
        rng = np.random.default_rng(9)
        Xs = [box.from_unit(rng.random((m, 3))) for box, m in zip(boxes, (17, 1))]
        Xs.append(rng.random((5, 3)))
        outs = evaluate_stacked([*groups, single], Xs)
        assert [type(out) for out in outs] == [list, list, np.ndarray]
        for group, X, values in zip(groups, Xs, outs):
            assert len(values) == len(group)
            for interp, got in zip(group, values):
                assert got.shape == (len(X), 3)
                np.testing.assert_allclose(got, interp(X), rtol=0, atol=1e-13)
        np.testing.assert_allclose(outs[2], single(Xs[2]), rtol=0, atol=1e-13)

    def test_a_single_interpolant_is_its_own_call_bit_for_bit(self):
        """One interpolant per block: the same basis-matrix GEMM as its kernel."""
        grid = regular_sparse_grid(7, 3)
        pair = self._interpolants(grid, 2, dofs=14)
        scalar = SparseGridInterpolant(grid, np.arange(float(len(grid))))
        rng = np.random.default_rng(4)
        Xs = [rng.random((m, 7)) for m in (100, 1, 17)]
        outs = evaluate_stacked([*pair, scalar], Xs)
        for interp, X, got in zip((*pair, scalar), Xs, outs):
            assert np.array_equal(got, interp(X))

    def test_a_group_is_one_wider_gemm_equal_to_rounding(self):
        """Two states of 8 generations at level 3 read side by side: not always bitwise.

        The group is one GEMM with twice the columns, whose BLAS blocking
        may sum a column in another order than the one-interpolant GEMM.
        """
        grid = regular_sparse_grid(7, 3)
        group = self._interpolants(grid, 2, dofs=14)
        X = np.random.default_rng(4).random((100, 7))
        (values,) = evaluate_stacked([group], [X])
        for interp, got in zip(group, values):
            alone = interp(X)
            assert np.abs(got - alone).max() <= 1e-13 * np.abs(alone).max()

    def test_a_prepared_read_is_the_one_shot_read(self):
        """StackedRead: evaluate_stacked's validation once, then any blocks, groups, picks."""
        grid = regular_sparse_grid(3, 3)
        boxes = [BoxDomain.cube(3, 0.0, 2.0), BoxDomain.cube(3, -1.0, 1.0)]
        groups = [self._interpolants(grid, 3, domain=box, seed=i) for i, box in enumerate(boxes)]
        read = StackedRead(groups)
        rng = np.random.default_rng(5)
        for _ in range(2):
            Xs = [box.from_unit(rng.random((m, 3))) for box, m in zip(boxes, (6, 4))]
            for prepared, once in zip(read.values(Xs), evaluate_stacked(groups, Xs)):
                assert all(map(np.array_equal, prepared, once))
            # the second group alone, its third and first interpolants side by side
            (picked,) = read(Xs[1:], groups=[1], picks=(2, 0))
            third, first = evaluate_stacked([[groups[1][2], groups[1][0]]], Xs[1:])[0]
            assert np.array_equal(picked, np.concatenate([third, first], axis=1))
        with pytest.raises(ValueError):
            StackedRead([groups[0] + groups[1]])  # one block, two boxes

    def test_reordered_operand_of_a_group_is_memoised(self):
        from repro.core.compression import compressed_for

        grid = regular_sparse_grid(2, 3)
        group = self._interpolants(grid, 2)
        read = StackedRead([group])
        first = read._operand(0, None)
        assert read._operand(0, None) is first
        assert read._operand(0, (1,)) is read._operand(0, (1,))
        X = np.random.default_rng(1).random((4, 2))
        read([X])
        read([X], picks=(1,))
        assert read._operand(0, None) is first  # a call reuses the built operand
        comp = compressed_for(grid)
        surpluses = [interp._surplus_2d for interp in group]
        np.testing.assert_array_equal(first, comp.reorder(np.concatenate(surpluses, axis=1)))
        np.testing.assert_array_equal(read._operand(0, (1,)), comp.reorder(surpluses[1]))

    def test_foreign_grid_or_box_in_a_group_raises(self):
        grid = regular_sparse_grid(2, 3)
        X = np.random.default_rng(2).random((4, 2))
        (base,) = self._interpolants(grid, 1)
        foreign = {
            "grid": self._interpolants(regular_sparse_grid(2, 3), 1)[0],
            "box": self._interpolants(grid, 1, domain=BoxDomain.cube(2, 0.0, 2.0))[0],
        }
        for other in foreign.values():
            with pytest.raises(ValueError):
                evaluate_stacked([[base, other]], [X])
        # in separate entries only the grid has to be shared
        evaluate_stacked([base, foreign["box"]], [X, X])
        with pytest.raises(ValueError):
            evaluate_stacked([base, foreign["grid"]], [X, X])

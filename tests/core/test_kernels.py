"""Tests for the interpolation kernel ladder (paper Sec. V-A)."""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.compression import compress_grid
from repro.core.kernels import (
    basis_matrix,
    evaluate,
    factor_values,
    get_kernel,
    kernel_avx512,
    kernel_cuda,
    kernel_x86,
    list_kernels,
)
from repro.grids.adaptive import refine
from repro.grids.hierarchical import basis_1d_vectorized
from repro.grids.hierarchize import evaluate_dense, hierarchize
from repro.grids.regular import regular_sparse_grid


@pytest.fixture(scope="module")
def setup():
    grid = regular_sparse_grid(4, 4)
    rng = np.random.default_rng(7)

    def func(X):
        return np.stack(
            [np.sin(X[:, 0] * 3) + X[:, 1], X[:, 2] ** 2 - 0.5 * X[:, 3]], axis=1
        )

    surplus = hierarchize(grid, func(grid.points))
    comp = compress_grid(grid)
    queries = rng.random((37, 4))
    return grid, comp, surplus, queries, func


class TestRegistry:
    def test_paper_kernel_names_present(self):
        names = list_kernels()
        for expected in ("gold", "x86", "avx", "avx2", "avx512", "cuda"):
            assert expected in names

    def test_get_kernel_unknown_raises(self):
        with pytest.raises(KeyError):
            get_kernel("sse2")

    def test_get_kernel_returns_callable(self):
        assert callable(get_kernel("gold"))


class TestCorrectness:
    @pytest.mark.parametrize("kernel", ["gold", "x86", "avx", "avx2", "avx512", "cuda"])
    def test_matches_dense_reference(self, setup, kernel):
        grid, comp, surplus, queries, _ = setup
        expected = evaluate_dense(grid, surplus, queries)
        got = evaluate(comp, surplus, queries, kernel=kernel)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("kernel", list_kernels())
    def test_exact_at_grid_points(self, setup, kernel):
        grid, comp, surplus, _, func = setup
        got = evaluate(comp, surplus, grid.points, kernel=kernel)
        np.testing.assert_allclose(got, func(grid.points), atol=1e-10)

    def test_scalar_surplus_roundtrip(self, setup):
        grid, comp, _, queries, _ = setup
        surplus_1d = hierarchize(grid, grid.points[:, 0] * 2.0)
        out = evaluate(comp, surplus_1d, queries, kernel="cuda")
        assert out.shape == (queries.shape[0],)
        np.testing.assert_allclose(out, queries[:, 0] * 2.0, atol=1e-10)

    def test_single_query_point(self, setup):
        grid, comp, surplus, _, _ = setup
        out = evaluate(comp, surplus, np.full((1, 4), 0.5), kernel="avx")
        assert out.shape == (1, surplus.shape[1])

    def test_kernels_agree_on_adaptive_grid(self):
        from repro.grids.adaptive import refine

        grid = regular_sparse_grid(3, 2)
        values = np.abs(grid.points[:, 0] - 0.4) + grid.points[:, 1]
        surplus = hierarchize(grid, values)
        refine(grid, surplus, epsilon=0.0)
        values = np.abs(grid.points[:, 0] - 0.4) + grid.points[:, 1]
        surplus = hierarchize(grid, values)
        comp = compress_grid(grid)
        queries = np.random.default_rng(1).random((19, 3))
        reference = evaluate(comp, surplus, queries, kernel="gold")
        for kernel in list_kernels():
            np.testing.assert_allclose(
                evaluate(comp, surplus, queries, kernel=kernel), reference, atol=1e-12
            )


class TestValidation:
    def test_wrong_surplus_rows(self, setup):
        _, comp, _, queries, _ = setup
        with pytest.raises(ValueError):
            evaluate(comp, np.zeros((3, 2)), queries, kernel="x86")

    def test_wrong_query_columns(self, setup):
        _, comp, surplus, _, _ = setup
        with pytest.raises(ValueError):
            evaluate(comp, surplus, np.zeros((5, 7)), kernel="x86")


class TestFactorValues:
    def test_sentinel_column_is_one(self, setup):
        _, comp, _, queries, _ = setup
        xpv = factor_values(comp, queries)
        np.testing.assert_allclose(xpv[:, 0], 1.0)

    def test_values_in_unit_interval(self, setup):
        _, comp, _, queries, _ = setup
        xpv = factor_values(comp, queries)
        assert xpv.min() >= 0.0
        assert xpv.max() <= 1.0 + 1e-12

    def test_shape(self, setup):
        _, comp, _, queries, _ = setup
        assert factor_values(comp, queries).shape == (queries.shape[0], comp.num_xps)


class TestKernelOptions:
    def test_avx512_thread_counts_agree(self, setup, monkeypatch):
        _, comp, surplus, queries, _ = setup
        monkeypatch.setattr(kernels, "_AVX512_THREADS", 1)
        one = kernel_avx512(comp, surplus, queries)
        monkeypatch.setattr(kernels, "_AVX512_THREADS", 4)
        monkeypatch.setattr(kernels, "_AVX512_BLOCK", 5)
        four = kernel_avx512(comp, surplus, queries)
        np.testing.assert_allclose(one, four, atol=1e-12)

    def test_cuda_block_sizes_agree(self, setup, monkeypatch):
        _, comp, surplus, queries, _ = setup
        monkeypatch.setattr(kernels, "_CUDA_BLOCK", 2)
        small = kernel_cuda(comp, surplus, queries)
        monkeypatch.setattr(kernels, "_CUDA_BLOCK", 512)
        large = kernel_cuda(comp, surplus, queries)
        np.testing.assert_allclose(small, large, atol=1e-12)

    def test_cuda_memory_budget_shrinks_block(self, setup, monkeypatch):
        _, comp, surplus, queries, _ = setup
        normal = kernel_cuda(comp, surplus, queries)
        monkeypatch.setattr(kernels, "_CUDA_BUFFER_BYTES", 10_000)
        tiny = kernel_cuda(comp, surplus, queries)
        np.testing.assert_allclose(tiny, normal, atol=1e-12)


class TestBlocking:
    @pytest.mark.parametrize("kernel, block", [(kernel_cuda, 128), (kernel_x86, 1)])
    def test_kernel_is_bitwise_its_blocks(self, setup, kernel, block):
        """The basis matrix of each block times the reordered surplus, bit for bit.

        The solve bits depend on ``cuda``'s blocking.  2 * 128 + 1 queries leave
        a lone row, which BLAS reads with gemv and rounds differently from a GEMM
        row, so one GEMM over all rows fails this.
        """
        _, comp, surplus, _, _ = setup
        X = np.random.default_rng(11).random((257, comp.dim))
        operand = comp.reorder(surplus)
        blocks = [basis_matrix(comp, X[i : i + block]) @ operand for i in range(0, len(X), block)]
        assert np.array_equal(kernel(comp, surplus, X), np.concatenate(blocks))


# (dim, level, refined): every regular grid with d in {2, 4, 15, 59} and
# level 2-4 of at most 8 000 points (15 / 4 has 5 021, 59 / 3 is the paper's
# 7k case, 59 / 4's 281 077 are left out), plus a seeded refined (4, 2) grid.
_BIT_GRIDS = [
    (d, level, False) for d in (2, 4, 15, 59) for level in (2, 3, 4) if (d, level) != (59, 4)
] + [(4, 2, True)]


@pytest.mark.parametrize("rows", [1, 257])
@pytest.mark.parametrize("dim, level, refined", _BIT_GRIDS)
def test_basis_matrix_is_bitwise_the_dense_product(dim, level, refined, rows):
    """The chain walk equals the dense layout's product over ascending dimensions.

    A terminated chain slot multiplies by the sentinel's 1.0 and a level-1
    dimension by the constant 1.0, so both sides multiply the same
    non-trivial factors in the same order.
    """
    grid = regular_sparse_grid(dim, level)
    if refined:
        rng = np.random.default_rng(2)
        for _ in range(2):
            refine(grid, rng.standard_normal(len(grid)), epsilon=1.0)
    comp = compress_grid(grid)
    X = np.random.default_rng(rows).random((rows, dim))
    levels, indices = comp.levels[comp.order], comp.indices[comp.order]
    dense = np.ones((rows, comp.num_points))
    for t in range(dim):
        dense *= basis_1d_vectorized(X[:, t : t + 1], levels[:, t], indices[:, t])
    assert np.array_equal(basis_matrix(comp, X), dense)

"""Tests for the ASG index compression pipeline (paper Sec. IV-B)."""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.compression import (
    compress_grid,
    compression_stats,
)
from repro.grids.adaptive import refine
from repro.grids.grid import SparseGrid
from repro.grids.hierarchize import hierarchize
from repro.grids.regular import regular_sparse_grid

LAYOUT = ("xps_dims", "xps_levels", "xps_indices", "chains", "order")


def layout_digest(comp) -> str:
    """sha256 over the layout arrays of a compressed grid, dtypes and shapes included."""
    digest = hashlib.sha256()
    for name in LAYOUT:
        arr = getattr(comp, name)
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def refined_grid(dim: int, level: int, seed: int, rounds: int = 2) -> SparseGrid:
    """A regular grid refined ``rounds`` times at seeded standard-normal surpluses."""
    grid = regular_sparse_grid(dim, level)
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        refine(grid, rng.standard_normal(len(grid)), epsilon=1.0)
    return grid


# (seed, dim, level) -> layout digest; seed None is the regular grid.  The
# layout fixes every kernel's summation order, so a moved factor id, chain
# or ``order`` entry moves the solve bits too.
LAYOUT_DIGESTS = {
    (None, 1, 1): "0f33c4c4507c349eaa725a1cbe5bba8a6025d6430034c7bbbe76311ff33bcc76",
    (None, 1, 2): "60567e59f33d1fc31162b8dda6746dee1995b3f3e5b46f244e1fc1b277c61b87",
    (None, 1, 3): "1866d9cb35cea2a298a701d1754383012b3e4bf49c2dbddf9b5e04a2b79ba0ba",
    (None, 1, 4): "a33d4aedf8bea98e79d7163d372ea1ad5031382cce6ae204c43e99e4e4b7a4d5",
    (None, 1, 5): "db2e53544048b77eafb5c7eb70b433ef3eccbbaddd68c66bdf866c22a31686b1",
    (None, 2, 1): "0f33c4c4507c349eaa725a1cbe5bba8a6025d6430034c7bbbe76311ff33bcc76",
    (None, 2, 2): "a176eeaaa6e412b951efe1b285d175a2228cada2a54e6f908a58e2ae7ddab24c",
    (None, 2, 3): "f7988e1649d9162614279e983c57d5b0341bce6acdd5bc52dd5bd28a60d0966e",
    (None, 2, 4): "974c82ec69dc4ca77c339f404d5c97b25922322610b712b3729e7df774c30cb5",
    (None, 2, 5): "516228e3e5b1d4e982a5a94cf7727a76093897fa18600cda94d62a984ec9a443",
    (None, 3, 1): "0f33c4c4507c349eaa725a1cbe5bba8a6025d6430034c7bbbe76311ff33bcc76",
    (None, 3, 2): "b9bd7347c4d9088724656a3103e293c0b9e4398c929c2801fd7332a8ef839fac",
    (None, 3, 3): "5cd21bcda50abca09a6dd5626683ab8d3ec3eb91b0e3dbb5b09f363e6546e959",
    (None, 3, 4): "84b032df747da2c19541011e91ed4ff3038ff19ab98cce8de0152f332d80988b",
    (None, 3, 5): "69907aac75708d2090e95b86dc33bbaac955232c109ee59d0b2f1312a8ed2865",
    (None, 4, 1): "0f33c4c4507c349eaa725a1cbe5bba8a6025d6430034c7bbbe76311ff33bcc76",
    (None, 4, 2): "73243905d9245a22b97db324092868598fa331eabf89ec640360d98d2aeb7050",
    (None, 4, 3): "baa3e0672bcb1f11a254ab6e95eaeb39bb8610ec4c78645655ed86cf75c4fcf8",
    (None, 4, 4): "9ae6ea5ffadf038bfeb77bf79150801d609b32a37175145e9ae8bede28eae8c6",
    (None, 4, 5): "05f801389db4ff94cc8eb739cdf90f4b0acfa0ffe8e06852b802a3acd80e71e0",
    (None, 5, 1): "0f33c4c4507c349eaa725a1cbe5bba8a6025d6430034c7bbbe76311ff33bcc76",
    (None, 5, 2): "dd37dd1063f4b354dfabe1ec814e840770218daf6aaf9fd54976b5dfd5997fb9",
    (None, 5, 3): "01b128c96aa2d0e6c7a76a235dac4e7c9889ceb25a1f4828a7413949e41b5083",
    (None, 5, 4): "e1965d73405a34d05873794965f66610a558f4920167b3d76a0c64d8a1390588",
    (None, 5, 5): "47882b6a0c2c286330acefca6d83b4ae376787f4a8b67b2db7ed2d496ceab641",
    (None, 6, 1): "0f33c4c4507c349eaa725a1cbe5bba8a6025d6430034c7bbbe76311ff33bcc76",
    (None, 6, 2): "e7d2623918d58dc1e7d824509b9c1b9eb5ce1f3736a64ebf615c9b4b34761c75",
    (None, 6, 3): "8173f9d3ab16ede9a27d011d9f9c22b95cc11cda2b6e1b36b884bd897fb1f7fc",
    (None, 6, 4): "0ff413ce41281ce8ef5475a5342210f878388a0e84810ee2d4ec0b3689e2a93e",
    (None, 6, 5): "4eb458429c3b429e14b0716f9e99f2b412fedecaeb2c837f118b652d6faa0fc7",
    (None, 15, 3): "6440edffa129f2601b10db97e8425959531598b763928bba224cde0e3e29ad97",
    (None, 59, 2): "29d839954af0a1d24dad16fb61792b80d8bd4005b079961dc5a0d281c4a78a7a",
    (None, 59, 3): "9550298daf4e8f73fc545758dee32f0c198583e4416ac41efa8137fefb9be737",
    (None, 8, 5): "e23bfc619ebbba9bde7b3eb5f1841654f43f00ffd39dc5886dc9d5e18ba51cbc",
    (0, 2, 3): "1014715d9a82bf685cc5f8e6fb2b897ccc4f8e0e492fd06214c2314212079d88",
    (1, 3, 2): "298ada8ac45f5ff826f5632faf1d316ea7a203718c05abe5e0363f2fa9738fdb",
    (2, 4, 2): "19a38b9223f8fee448416e527b738e08e29ccad4fd7f22142cdd5def88c2184a",
    (3, 5, 3): "d0c038f560d4b154835403f27821842a16da6d5d1b6cd73d6da32178e48f4276",
}


@pytest.mark.parametrize(
    "seed, dim, level",
    list(LAYOUT_DIGESTS),
    ids=lambda v: "regular" if v is None else str(v),
)
def test_layout_is_pinned(seed, dim, level):
    grid = regular_sparse_grid(dim, level) if seed is None else refined_grid(dim, level, seed)
    assert layout_digest(compress_grid(grid)) == LAYOUT_DIGESTS[seed, dim, level]


def _check_layout(grid: SparseGrid) -> None:
    """Assert the layout rules of Sec. IV-B on ``compress_grid(grid)``."""
    comp = compress_grid(grid)
    nontrivial = grid.levels >= 2
    assert comp.nfreq == max(1, int(nontrivial.sum(axis=1).max(initial=0)))
    assert comp.chains.shape == (len(grid), comp.nfreq)
    assert sorted(comp.order.tolist()) == list(range(len(grid)))
    xps = list(zip(comp.xps_dims.tolist(), comp.xps_levels.tolist(), comp.xps_indices.tolist()))
    assert xps[0] == (0, 1, 1)
    assert len(set(xps)) == len(xps)

    # a point's chain: its non-trivial triples in ascending dimension, zero-padded
    chains = comp.chains[np.argsort(comp.order)]
    for p in range(len(grid)):
        dims = np.flatnonzero(nontrivial[p]).tolist()
        expected = [(t, int(grid.levels[p, t]), int(grid.indices[p, t])) for t in dims]
        assert [xps[i] for i in chains[p, :len(dims)]] == expected
        assert not chains[p, len(dims):].any()

    # factor ids number the triples by first appearance in the sweep over
    # (frequency, row within the column of xi_f, column)
    cells = []
    for f in range(comp.nfreq):
        rows_in_column = Counter()
        for p in np.flatnonzero(chains[:, f]):
            t = xps[chains[p, f]][0]
            cells.append((f, rows_in_column[t], t, int(chains[p, f])))
            rows_in_column[t] += 1
    swept = [fid for *_, fid in sorted(cells)]
    assert list(dict.fromkeys(swept)) == list(range(1, len(xps)))

    # surplus reordering: chains ascend lexicographically, ties in grid order
    ranked = list(zip(map(tuple, comp.chains.tolist()), comp.order.tolist()))
    assert ranked == sorted(ranked)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    dim=st.integers(min_value=1, max_value=5),
    level=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    rounds=st.integers(min_value=0, max_value=2),
)
@example(dim=3, level=1, seed=0, rounds=0)  # the root alone
def test_layout_follows_the_sweep(dim, level, seed, rounds):
    _check_layout(refined_grid(dim, level, seed, rounds))


def test_layout_of_an_empty_grid():
    comp = compress_grid(SparseGrid(3))
    assert comp.nfreq == 1 and comp.num_xps == 1
    assert comp.chains.shape == (0, 1) and comp.order.shape == (0,)
    _check_layout(SparseGrid(3))


class TestCompressedGrid:
    def test_xps_counts_match_paper_for_59d(self):
        """Table I: 237 xps for the level-3 grid (236 factors + sentinel)."""
        grid = regular_sparse_grid(59, 3)
        comp = compress_grid(grid)
        assert comp.num_xps == 237
        assert comp.nfreq == 2

    def test_xps_unique(self):
        grid = regular_sparse_grid(4, 4)
        comp = compress_grid(grid)
        triples = list(zip(comp.xps_dims[1:], comp.xps_levels[1:], comp.xps_indices[1:]))
        assert len(triples) == len(set(triples))

    def test_chain_sentinel_is_zero_for_root(self):
        grid = regular_sparse_grid(3, 3)
        comp = compress_grid(grid)
        # the root point (all levels 1) has an all-sentinel chain
        (original_row,) = grid.rows_of([1, 1, 1], [1, 1, 1])
        reordered_row = int(np.where(comp.order == original_row)[0][0])
        assert np.all(comp.chains[reordered_row] == 0)

    def test_chains_reference_valid_xps(self):
        grid = regular_sparse_grid(5, 3)
        comp = compress_grid(grid)
        assert comp.chains.min() >= 0
        assert comp.chains.max() < comp.num_xps

    def test_order_is_permutation(self):
        grid = regular_sparse_grid(4, 3)
        comp = compress_grid(grid)
        assert sorted(comp.order.tolist()) == list(range(len(grid)))

    def test_chain_reconstructs_multiindex(self):
        """Following a chain reproduces the point's non-trivial (dim, l, i)."""
        grid = regular_sparse_grid(4, 4)
        comp = compress_grid(grid)
        for new_row in range(comp.num_points):
            original = comp.order[new_row]
            expected = {
                (t, int(grid.levels[original, t]), int(grid.indices[original, t]))
                for t in range(grid.dim)
                if grid.levels[original, t] >= 2
            }
            got = set()
            for f in range(comp.nfreq):
                ref = comp.chains[new_row, f]
                if ref == 0:
                    continue
                got.add(
                    (
                        int(comp.xps_dims[ref]),
                        int(comp.xps_levels[ref]),
                        int(comp.xps_indices[ref]),
                    )
                )
            assert got == expected

    def test_reorder_roundtrip(self):
        grid = regular_sparse_grid(3, 3)
        comp = compress_grid(grid)
        surplus = np.arange(len(grid) * 2, dtype=float).reshape(len(grid), 2)
        reordered = comp.reorder(surplus)
        # row k of the reordered matrix is original row order[k]
        np.testing.assert_allclose(reordered, surplus[comp.order])
        # applying the inverse permutation restores the original matrix
        np.testing.assert_allclose(reordered[np.argsort(comp.order)], surplus)

    def test_reorder_wrong_rows_raises(self):
        grid = regular_sparse_grid(3, 2)
        comp = compress_grid(grid)
        with pytest.raises(ValueError):
            comp.reorder(np.zeros((len(grid) + 1, 2)))

    def test_compression_ratio_formula(self):
        grid = regular_sparse_grid(10, 3)
        comp = compress_grid(grid)
        assert comp.compression_ratio == pytest.approx(10 / comp.nfreq)

    def test_works_on_adaptive_grid(self):
        grid = regular_sparse_grid(3, 2)
        values = np.abs(grid.points[:, 0] - 0.35)
        surplus = hierarchize(grid, values)
        refine(grid, surplus, epsilon=0.0)
        comp = compress_grid(grid)
        assert comp.num_points == len(grid)
        assert comp.nfreq >= 1


class TestStats:
    def test_stats_keys(self):
        grid = regular_sparse_grid(4, 3)
        stats = compression_stats(grid)
        for key in (
            "num_points",
            "dim",
            "nfreq",
            "num_xps",
            "zeros_fraction",
            "compression_ratio",
            "xps_table_bytes",
        ):
            assert key in stats

    def test_zeros_fraction_high_in_high_dimensions(self):
        """Most multi-index entries are trivial in high dimensions (Fig. 3)."""
        grid = regular_sparse_grid(30, 3)
        stats = compression_stats(grid)
        assert stats["zeros_fraction"] > 0.9

    def test_xps_table_fits_gpu_shared_memory(self):
        """The paper stresses the factor table fits in 48 KB of shared memory."""
        grid = regular_sparse_grid(59, 3)
        comp = compress_grid(grid)
        assert comp.xps_table_bytes(8) < 48 * 1024

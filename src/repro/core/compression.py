"""Adaptive sparse grid index compression (paper Sec. IV-B).

The dense representation of an ASG stores, for every grid point, the full
``d``-dimensional multi-index pair ``(l, i)``; the interpolation kernel then
multiplies ``d`` one-dimensional basis values per point per query.  For the
paper's application ``d = 59`` but almost all entries are *trivial*: their
level is 1, whose basis function is the constant 1.  The compression
pipeline removes that redundancy:

1. **Zero elimination** (Fig. 3).  Entries whose 1-D basis function is the
   constant function are marked as "zeros".  (The paper achieves the same
   thing by re-coding ``(l, i)`` so the trivial pair becomes ``(0, 0)``.)
2. **Frequency decomposition, factor table and chains** (Fig. 4,
   Algorithm 2), one vectorised pass in :func:`compress_grid`.  The
   ``f``-th non-trivial entry of a point (dimensions ascending) belongs to
   the matrix ``xi_f``, so there are ``nfreq`` such matrices, ``nfreq``
   being the most non-trivial dimensions of any point.  Within ``xi_f`` an
   entry takes the first free row of its column, and the renumbering sweep
   reads the ``xi_f`` in turn, row by row: one sort key (frequency, row,
   column).  The distinct ``(dimension, level, index)`` triples form the
   unique factor table ``xps``, numbered by first appearance in that sweep;
   index 0 is reserved as the chain terminator.  Per query point only
   ``len(xps)`` 1-D basis values ever need to be computed, and the table is
   small enough to live in cache / GPU shared memory (473 entries for the
   281,077-point level-4 grid, Table I).  Every grid point becomes a chain
   of at most ``nfreq`` references into ``xps``, padded with terminators;
   the interpolation kernel multiplies every chain column in, for all grid
   points at once, and a terminated slot contributes the sentinel's exact
   1.0, so a point's product is that of its live references.  The paper's
   transition matrices ``T_freq`` are a chain's next column.
3. **Surplus reordering.**  Grid points are re-ordered so that points with
   similar chains are adjacent, which groups memory accesses to the surplus
   matrix (the ``order`` permutation returned with the compressed grid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grids.grid import SparseGrid
from repro.grids.hierarchical import points_1d

__all__ = [
    "CompressedGrid",
    "compress_grid",
    "compressed_for",
    "compression_stats",
]


@dataclass
class CompressedGrid:
    """The compressed ASG representation consumed by the kernels.

    Attributes
    ----------
    dim, num_points, nfreq
        Grid dimensionality, number of points (``nno``) and maximum chain
        length.
    xps_dims, xps_levels, xps_indices
        The unique-factor table; entry 0 is the sentinel / chain terminator,
        a level-1 entry whose factor value is always 1.0.
    chains
        ``(num_points, nfreq)`` indices into ``xps``, stored in the
        *reordered* point order.  0 terminates a chain and pads the rest of
        its row; the kernels multiply every column, a padded slot by the
        sentinel's 1.0.
    order
        Permutation such that ``chains[k]`` describes original grid row
        ``order[k]``; surpluses passed in grid order are re-ordered with it.
    levels, indices
        References to the dense multi-index arrays of the originating grid
        (kept so the uncompressed "gold" kernel can run from the same
        object).
    """

    dim: int
    num_points: int
    nfreq: int
    xps_dims: np.ndarray
    xps_levels: np.ndarray
    xps_indices: np.ndarray
    chains: np.ndarray
    order: np.ndarray
    levels: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        self._hat: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._entries: tuple | None = None

    def __getstate__(self) -> dict:
        # The hat and entry caches are rebuilt on demand; drop them so compressed grids
        # travel light through process executors.
        state = self.__dict__.copy()
        state.pop("_hat", None)
        state.pop("_entries", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def num_xps(self) -> int:
        """Size of the unique factor table (including the sentinel)."""
        return int(self.xps_dims.shape[0])

    @property
    def dense_entries(self) -> int:
        """Number of multi-index entries in the dense (gold) layout."""
        return self.num_points * self.dim

    @property
    def chain_entries(self) -> int:
        """Number of chain slots in the compressed layout."""
        return self.num_points * self.nfreq

    @property
    def compression_ratio(self) -> float:
        """Dense-to-compressed ratio of per-point index work (d / nfreq)."""
        return self.dense_entries / max(self.chain_entries, 1)

    def xps_table_bytes(self, bytes_per_entry: int = 8) -> int:
        """Rough memory footprint of the factor table (paper: fits in 48 KB)."""
        return self.num_xps * bytes_per_entry

    def reorder(self, surplus: np.ndarray) -> np.ndarray:
        """Reorder a surplus matrix from grid order into chain order.

        A fresh copy on every call, never memoized: a caller may change its
        surplus in place between kernel calls.  A read of the same surpluses
        many times keeps its own (:class:`~repro.grids.interpolation.StackedRead`).
        """
        surplus = np.asarray(surplus, dtype=float)
        if surplus.shape[0] != self.num_points:
            raise ValueError(
                f"surplus has {surplus.shape[0]} rows, grid has {self.num_points} points"
            )
        return surplus[self.order]

    def hat_constants(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The factor table's hat centers, scales ``2**(level - 1)`` and level-1 mask, once.

        What :func:`~repro.grids.hierarchical.basis_1d_vectorized` derives
        from the levels and indices on every call; a kernel call then only
        does the arithmetic on its query coordinates.
        """
        if self._hat is None:
            levels = self.xps_levels.astype(np.int64)
            centers = points_1d(levels, self.xps_indices)
            scales = np.power(2.0, (levels - 1).astype(float))
            self._hat = (centers, scales, levels == 1)
        return self._hat

    def gradient_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The live chain slots, sorted by the dimension they name, once.

        ``(points, dims, own, others)``: live slot ``i`` is a slot of
        (reordered) point ``points[i]`` naming dimension ``dims[i]`` (in
        ascending order, points ascending within a dimension), ``own[i]``
        its factor-table entry, and ``others[:, i]`` the point's
        ``nfreq - 1`` other entries: what
        :func:`~repro.core.kernels.basis_gradient` multiplies.
        """
        if self._entries is None:
            chains = self.chains
            named = np.where(chains.T > 0, self.xps_dims[chains.T], -1).ravel()
            live = np.flatnonzero(named >= 0)
            live = live[np.argsort(named[live], kind="stable")]
            slots, points = np.divmod(live, self.num_points)
            other = np.ones((live.size, self.nfreq), dtype=bool)
            other[np.arange(live.size), slots] = False
            others = chains[points][other].reshape(live.size, self.nfreq - 1)
            self._entries = (points, named[live], chains[points, slots], others.T.copy())
        return self._entries


def compress_grid(grid: SparseGrid) -> CompressedGrid:
    """Build the full compressed representation of a sparse grid."""
    nno = len(grid)
    # Zero elimination: the non-trivial entries, point-major, so an entry's
    # frequency is its position within its point.
    points, dims = np.nonzero(grid.levels >= 2)
    levels = grid.levels[points, dims]
    indices = grid.indices[points, dims]
    entries = np.arange(points.size)
    freqs = entries - np.searchsorted(points, points)
    nfreq = int(freqs.max(initial=0)) + 1

    # Frequency decomposition: an entry takes the first free row of its
    # column in xi_freq, i.e. its row is its rank among that column's
    # entries in point order, and the renumbering sweep reads each xi_freq
    # row by row: one sort by (frequency, row, column).
    column = freqs * grid.dim + dims
    by_column = np.argsort(column, kind="stable")
    rows = np.empty_like(entries)
    rows[by_column] = entries - np.searchsorted(column[by_column], column[by_column])
    sweep = np.lexsort((dims, rows, freqs))

    # Factor table: the distinct (dim, level, index) triples numbered by
    # first appearance in the sweep (``first``: the sweep position where an
    # entry's triple first appears); id 0 is the sentinel.  A level fits in
    # 8 bits (its index, an int32, is at most 2**(level - 1)).
    keys = ((dims << 8 | levels) << 32 | indices)[sweep]
    by_key = np.argsort(keys, kind="stable")
    first = by_key[np.searchsorted(keys[by_key], keys)]
    is_new = first == entries
    chains = np.zeros((nno, nfreq), dtype=np.int32)
    chains[points[sweep], freqs[sweep]] = np.cumsum(is_new)[first]
    table = sweep[is_new]

    # Surplus reordering: group points whose chains start with the same
    # factors (lexicographic sort over the chain columns).
    order = np.lexsort(tuple(chains[:, f] for f in reversed(range(nfreq))))
    chains = np.ascontiguousarray(chains[order])

    return CompressedGrid(
        dim=grid.dim,
        num_points=nno,
        nfreq=nfreq,
        xps_dims=np.concatenate(([0], dims[table]), dtype=np.int32),
        xps_levels=np.concatenate(([1], levels[table]), dtype=np.int32),
        xps_indices=np.concatenate(([1], indices[table]), dtype=np.int32),
        chains=chains,
        order=np.asarray(order, dtype=np.int64),
        levels=grid.levels,
        indices=grid.indices,
    )


def compressed_for(grid: SparseGrid) -> CompressedGrid:
    """Shared compressed representation of a grid, cached on the grid.

    Every consumer of the same :class:`~repro.grids.grid.SparseGrid` object
    (one interpolant per discrete state, repeated time-iteration steps)
    receives the *same* :class:`CompressedGrid`, so the compression
    pipeline and its hat cache are paid once per grid mutation epoch.  The
    cache is keyed by ``grid.version`` and therefore invalidated by
    ``add_points``.
    """
    return grid.cached_derived("compressed", compress_grid)


def compression_stats(grid: SparseGrid, compressed: CompressedGrid | None = None) -> dict:
    """Summary statistics of the compression (Table I style).

    Returns a dictionary with the number of points, dimensions, ``nfreq``,
    the size of the unique factor table (``xps``), the fraction of trivial
    ("zero") Ξ entries eliminated, and the index compression ratio.
    """
    comp = compressed if compressed is not None else compress_grid(grid)
    nontrivial = int(np.count_nonzero(grid.levels >= 2))
    dense = comp.dense_entries
    return {
        "num_points": comp.num_points,
        "dim": comp.dim,
        "nfreq": comp.nfreq,
        "num_xps": comp.num_xps,
        "nonzero_entries": nontrivial,
        "zeros_fraction": 1.0 - nontrivial / max(dense, 1),
        "dense_entries": dense,
        "chain_entries": comp.chain_entries,
        "compression_ratio": comp.compression_ratio,
        "xps_table_bytes": comp.xps_table_bytes(),
    }

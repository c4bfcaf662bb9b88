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
2. **Frequency decomposition** (Fig. 4).  The non-zero entries of the
   ``nno x d`` matrix Ξ are spread over ``nfreq`` matrices ``xi_freq`` such
   that each matrix holds at most one non-zero entry per grid point, where
   ``nfreq`` is the maximum number of non-trivial dimensions of any point.
3. **Unique factor table** ``xps``.  The distinct ``(dimension, level,
   index)`` triples across all ``xi_freq`` matrices are collected into one
   small table; index 0 is reserved as the chain terminator.  Per query
   point only ``len(xps)`` 1-D basis values ever need to be computed, and
   the table is small enough to live in cache / GPU shared memory
   (473 entries for the 281,077-point level-4 grid, Table I).
4. **Chains** (Algorithm 2).  Every grid point becomes a chain of at most
   ``nfreq`` references into ``xps``; the interpolation kernel multiplies
   the referenced factor values and stops at the first terminator.
5. **Surplus reordering.**  Grid points are re-ordered so that points with
   similar chains are adjacent, which groups memory accesses to the surplus
   matrix (the ``order`` permutation returned with the compressed grid).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.grids.grid import SparseGrid

__all__ = [
    "XiEntry",
    "XiDecomposition",
    "CompressedGrid",
    "compress_grid",
    "compressed_for",
    "compression_stats",
]


def _deeply_frozen(arr) -> bool:
    """Whether an array's values provably cannot change.

    Walks the view chain: every level must be a read-only ndarray.  A
    read-only view over a writable base can still change through the
    base, so it does not count.
    """
    while arr is not None:
        if not isinstance(arr, np.ndarray) or arr.flags.writeable:
            return False
        arr = arr.base
    return True


@dataclass(frozen=True)
class XiEntry:
    """One non-trivial entry of the Ξ matrix.

    Attributes
    ----------
    point
        Row of the grid (index into Ξ) this entry belongs to.
    dim
        Dimension (column of Ξ) of the entry.
    level, index
        The 1-D hierarchical level and index (1-based levels).
    """

    point: int
    dim: int
    level: int
    index: int


@dataclass
class XiDecomposition:
    """Intermediate representation of the frequency decomposition.

    ``freq_entries[f]`` lists the entries assigned to the ``f``-th
    frequency matrix ``xi_freq`` in their storage order (the order induced
    by the paper's "first free row in column j" placement rule followed by
    the renumbering sweep).  ``positions[f]`` maps a grid point to its
    renumbered position within frequency ``f`` (or -1 if the point has
    fewer than ``f + 1`` non-trivial dimensions), and ``transitions[f]``
    maps positions of frequency ``f`` to positions of frequency ``f + 1``
    (-1 when the chain ends), mirroring the paper's transition matrices
    ``T_freq``.
    """

    dim: int
    num_points: int
    nfreq: int
    freq_entries: list[list[XiEntry]] = field(default_factory=list)
    positions: np.ndarray = field(default=None)
    transitions: np.ndarray = field(default=None)

    @property
    def num_nonzero(self) -> int:
        """Total number of non-trivial Ξ entries."""
        return sum(len(entries) for entries in self.freq_entries)


def _nontrivial_entries(grid: SparseGrid) -> list[list[tuple[int, int, int]]]:
    """Per grid point, the list of (dim, level, index) with level >= 2."""
    rows: list[list[tuple[int, int, int]]] = []
    levels = grid.levels
    indices = grid.indices
    for point in range(len(grid)):
        nz = np.flatnonzero(levels[point] >= 2)
        rows.append(
            [(int(t), int(levels[point, t]), int(indices[point, t])) for t in nz]
        )
    return rows


def decompose(grid: SparseGrid) -> XiDecomposition:
    """Run the frequency decomposition of Ξ (steps 1-2 of the pipeline)."""
    per_point = _nontrivial_entries(grid)
    nno = len(grid)
    nfreq = max((len(row) for row in per_point), default=0)
    nfreq = max(nfreq, 1)  # keep at least one frequency so chains are well formed

    # Placement: the f-th non-trivial entry of every point goes into xi_f.
    # Within xi_f we emulate the paper's "first free row in column j" rule:
    # entries are kept per column in arrival order, and the renumbering
    # sweep enumerates columns left to right, rows top to bottom.
    freq_entries: list[list[XiEntry]] = []
    positions = np.full((nfreq, nno), -1, dtype=np.int64)
    for f in range(nfreq):
        columns: list[list[XiEntry]] = [[] for _ in range(grid.dim)]
        max_rows = 0
        for point, row in enumerate(per_point):
            if len(row) <= f:
                continue
            t, level, index = row[f]
            columns[t].append(XiEntry(point=point, dim=t, level=level, index=index))
            max_rows = max(max_rows, len(columns[t]))
        # Renumbering sweep: row-major over the (max_rows x dim) xi_f matrix.
        ordered: list[XiEntry] = []
        for r in range(max_rows):
            for t in range(grid.dim):
                if r < len(columns[t]):
                    ordered.append(columns[t][r])
        for pos, entry in enumerate(ordered):
            positions[f, entry.point] = pos
        freq_entries.append(ordered)

    # Transition matrices: position in xi_f  ->  position in xi_{f+1}.
    transitions = np.full((max(nfreq - 1, 0), nno), -1, dtype=np.int64)
    for f in range(nfreq - 1):
        trans = np.full(len(freq_entries[f]), -1, dtype=np.int64)
        for point in range(nno):
            p_here = positions[f, point]
            p_next = positions[f + 1, point]
            if p_here >= 0:
                trans[p_here] = p_next
        # store padded to nno columns for a rectangular array
        transitions[f, : trans.shape[0]] = trans
    return XiDecomposition(
        dim=grid.dim,
        num_points=nno,
        nfreq=nfreq,
        freq_entries=freq_entries,
        positions=positions,
        transitions=transitions,
    )


@dataclass
class CompressedGrid:
    """The compressed ASG representation consumed by the kernels.

    Attributes
    ----------
    dim, num_points, nfreq
        Grid dimensionality, number of points (``nno``) and maximum chain
        length.
    xps_dims, xps_levels, xps_indices
        The unique-factor table; entry 0 is the sentinel / chain terminator
        and never evaluated.
    chains
        ``(num_points, nfreq)`` indices into ``xps`` (0 terminates the
        chain), stored in the *reordered* point order.
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
        self._active_chain: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._reorder_cache: dict[tuple, tuple] = {}  # ids -> (weakrefs, reordered)
        self._reorder_lock = threading.Lock()

    def __getstate__(self) -> dict:
        # The lock is unpicklable and the memo caches are per-process;
        # drop them so compressed grids travel through process executors.
        state = self.__dict__.copy()
        for transient in ("_active_chain", "_reorder_cache", "_reorder_lock"):
            state.pop(transient, None)
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
        """Reorder a surplus matrix from grid order into chain order."""
        surplus = np.asarray(surplus, dtype=float)
        if surplus.shape[0] != self.num_points:
            raise ValueError(
                f"surplus has {surplus.shape[0]} rows, grid has {self.num_points} points"
            )
        return surplus[self.order]

    def reorder_cached(self, *surpluses: np.ndarray) -> np.ndarray:
        """Memoized :meth:`reorder` for repeated kernel calls.

        Several surpluses give the reordered column-wise concatenation of
        them — the one GEMM operand that serves every interpolant sharing
        this grid at a common set of query points
        (:func:`repro.grids.interpolation.evaluate_stacked`).

        Only *deeply frozen* arrays (read-only through the whole view
        chain) participate in the memo: freezing is the owner's pledge
        that the values cannot change
        (:meth:`SparseGridInterpolant.set_surplus` freezes its private
        copy on attach), and it is what makes identity-keyed caching
        safe.  Anything else — e.g. a buffer a caller updates in place
        between direct ``evaluate()`` calls, or a read-only view over a
        writable base — falls through to a plain :meth:`reorder` every
        time, preserving recompute-per-call semantics.  The memo holds
        *weak* references to the key arrays — a hit requires the exact
        arrays to still be alive, which also makes recycled ids harmless —
        and evicts dead entries on every insert, so dead surplus matrices
        of long-lived shared grids are dropped no later than the next
        cache roll-over.
        It keeps the most recent few entries (one interpolant per discrete
        state sharing a compressed grid) and is lock-protected because
        compressed grids are shared across the threaded executors.
        """
        frozen = all(map(_deeply_frozen, surpluses))
        key = tuple(map(id, surpluses))
        hit = self._reorder_cache.get(key) if frozen else None
        if hit is not None and all(ref() is s for ref, s in zip(hit[0], surpluses)):
            return hit[1]
        out = self.reorder(surpluses[0] if len(surpluses) == 1 else np.concatenate(surpluses, 1))
        if not frozen:
            return out
        with self._reorder_lock:
            cache = self._reorder_cache
            # purge dead entries on *every* insert, not only at capacity:
            # otherwise a handful of dead keys could pin their full-size
            # reordered copies on a long-lived grid-attached instance
            for dead in [k for k, (refs, _) in cache.items() if any(r() is None for r in refs)]:
                del cache[dead]
            if len(cache) >= 8:
                cache.pop(next(iter(cache), None), None)
            cache[key] = (tuple(map(weakref.ref, surpluses)), out)
        return out

    def active_chain(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-frequency active chain entries, precomputed once.

        Returns one ``(rows, xps_ids)`` pair per frequency that still has
        live chains: ``rows`` are the (reordered) grid points whose chain
        has not terminated at this frequency, ``xps_ids`` the factor-table
        entries they reference.  Because chains terminate monotonically,
        the list simply ends at the first all-terminated frequency.  This
        replaces the per-block ``idx > 0`` mask recomputation in the
        kernels.
        """
        if self._active_chain is None:
            active = []
            for f in range(self.nfreq):
                col = self.chains[:, f]
                rows = np.flatnonzero(col > 0)
                if rows.size == 0:
                    break
                active.append((rows, col[rows].astype(np.int64)))
            self._active_chain = active
        return self._active_chain


def compress_grid(grid: SparseGrid) -> CompressedGrid:
    """Build the full compressed representation of a sparse grid."""
    deco = decompose(grid)
    nno = len(grid)
    nfreq = deco.nfreq

    # Unique factor table.  Index 0 is the sentinel.
    factor_key_to_id: dict[tuple[int, int, int], int] = {}
    xps_dims = [0]
    xps_levels = [1]
    xps_indices = [1]
    chains = np.zeros((nno, nfreq), dtype=np.int32)
    for f, entries in enumerate(deco.freq_entries):
        for entry in entries:
            key = (entry.dim, entry.level, entry.index)
            fid = factor_key_to_id.get(key)
            if fid is None:
                fid = len(xps_dims)
                factor_key_to_id[key] = fid
                xps_dims.append(entry.dim)
                xps_levels.append(entry.level)
                xps_indices.append(entry.index)
            chains[entry.point, f] = fid

    # Surplus reordering: group points whose chains start with the same
    # factors (lexicographic sort over the chain columns).
    order = np.lexsort(tuple(chains[:, f] for f in reversed(range(nfreq))))
    chains = np.ascontiguousarray(chains[order])

    return CompressedGrid(
        dim=grid.dim,
        num_points=nno,
        nfreq=nfreq,
        xps_dims=np.asarray(xps_dims, dtype=np.int32),
        xps_levels=np.asarray(xps_levels, dtype=np.int32),
        xps_indices=np.asarray(xps_indices, dtype=np.int32),
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
    pipeline and the per-frequency/reorder caches are paid once per grid
    mutation epoch.  The cache is keyed by ``grid.version`` and therefore
    invalidated by ``add_points``.
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

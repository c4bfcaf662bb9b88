"""The :class:`SparseGrid` container.

A sparse grid is a set of multivariate hierarchical points, each identified
by a pair of multi-indices ``(l, i)`` (level and index per dimension).  The
container stores them as two ``(num_points, dim)`` integer arrays plus the
derived coordinates, and offers batched point lookup (:meth:`rows_of`),
point insertion and dense basis evaluation.  Every ``(l, i)`` pair must be a
hierarchical point; the grid does not check that it is hierarchically
consistent, which hierarchization requires (the helpers that keep it so
live in :mod:`repro.grids.adaptive`).

Caching contract
----------------
The grid owns several derived structures that are expensive to rebuild and
are consumed on every fit/evaluate call:

* ``points`` and ``level_sums`` — cached arrays derived from the
  multi-indices;
* the point index behind :meth:`rows_of` — every point's per-dimension
  ``(level << 32) | index`` codes viewed as one byte row, sorted once;
* the per-dimension neighbour rows of :func:`repro.grids.hierarchize.hierarchize`;
* the compressed representation of
  :func:`repro.core.compression.compressed_for`.

All of them are keyed by :attr:`SparseGrid.version`, a counter that
:meth:`add_points` bumps whenever at least one new point is appended.  The
*only* supported mutation path is ``add_points``; writing to ``levels`` /
``indices`` directly bypasses invalidation and leaves the caches stale.
Cached arrays are shared, not copied — callers must treat them as
read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.grids.hierarchical import basis_1d_vectorized, points_1d
from repro.utils.validation import check_in_unit_box

__all__ = ["SparseGrid"]


def _checked(dim: int, levels, indices) -> tuple[np.ndarray, np.ndarray]:
    """``levels`` / ``indices`` as contiguous ``(n, dim)`` int32 arrays of valid points."""
    levels = np.ascontiguousarray(levels, dtype=np.int32)
    indices = np.ascontiguousarray(indices, dtype=np.int32)
    if levels.shape != indices.shape or levels.ndim != 2 or levels.shape[1] != dim:
        raise ValueError(
            f"levels {levels.shape} and indices {indices.shape} must both have shape (n, {dim})"
        )
    if levels.size and levels.min() < 1:
        raise ValueError("levels must be >= 1")
    if indices.size and indices.min() < 0:
        raise ValueError("indices must be >= 0")
    # index 1 at level 1, 0 or 2 at level 2, odd and below 2^(l-1) above
    valid = np.where(
        levels == 1,
        indices == 1,
        np.where(
            levels == 2,
            (indices == 0) | (indices == 2),
            (indices % 2 == 1) & (indices < np.ldexp(1.0, levels - 1)),
        ),
    )
    if not valid.all():
        row, t = np.argwhere(~valid)[0]
        raise ValueError(
            f"(level {levels[row, t]}, index {indices[row, t]}) is not a hierarchical point"
        )
    return levels, indices


def _keys(levels, indices) -> np.ndarray:
    """One byte row per point: its per-dimension ``(level << 32) | index`` codes."""
    codes = (np.asarray(levels, dtype=np.int64) << 32) | np.asarray(indices, dtype=np.int64)
    codes = np.ascontiguousarray(codes)
    return codes.view(np.dtype((np.void, codes.itemsize * codes.shape[1])))[:, 0]


def _point_index(grid: "SparseGrid") -> tuple[np.ndarray, np.ndarray]:
    """The grid's point keys in sorted order, and the row of each."""
    keys = _keys(grid.levels, grid.indices)
    order = np.argsort(keys)
    return keys[order], order


@dataclass
class SparseGrid:
    """A (possibly adaptive) sparse grid on the unit box ``[0, 1]^d``.

    Parameters
    ----------
    dim
        Number of continuous dimensions ``d``.
    levels, indices
        ``(num_points, dim)`` integer arrays of 1-based hierarchical levels
        and 0-based indices.  They may be passed empty and filled via
        :meth:`add_points`.
    """

    dim: int
    levels: np.ndarray = field(default=None)
    indices: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.levels is None:
            self.levels = np.empty((0, self.dim), dtype=np.int32)
        if self.indices is None:
            self.indices = np.empty((0, self.dim), dtype=np.int32)
        self.levels, self.indices = _checked(self.dim, self.levels, self.indices)
        self._version = 0
        self._points_cache: np.ndarray | None = None
        self._level_sums_cache: np.ndarray | None = None
        self._derived_caches: dict[str, tuple] = {}
        sorted_keys, order = self.cached_derived("point_index", _point_index)
        repeats = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
        if repeats.size:
            row = order[repeats[0]]
            raise ValueError(
                f"duplicate grid point {self.levels[row].tolist()}, {self.indices[row].tolist()}"
            )

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.levels.shape[0]

    @property
    def num_points(self) -> int:
        """Number of grid points (the paper's ``nno``)."""
        return self.levels.shape[0]

    @property
    def version(self) -> int:
        """Mutation counter; bumped by :meth:`add_points`.

        Derived-structure caches (points, level sums, point index,
        hierarchization neighbours, compressed representation) are keyed by
        this value.
        """
        return self._version

    @property
    def points(self) -> np.ndarray:
        """``(num_points, dim)`` coordinates in the unit box (cached)."""
        if self._points_cache is None or self._points_cache.shape[0] != len(self):
            self._points_cache = points_1d(self.levels, self.indices)
        return self._points_cache

    @property
    def level_sums(self) -> np.ndarray:
        """``|l|_1`` per point (cached; used on every hierarchization)."""
        if self._level_sums_cache is None or self._level_sums_cache.shape[0] != len(self):
            self._level_sums_cache = self.levels.sum(axis=1).astype(np.int64)
        return self._level_sums_cache

    @property
    def max_level(self) -> int:
        """Largest refinement level ``n`` represented in the grid."""
        if len(self) == 0:
            return 0
        return int(self.level_sums.max() - self.dim + 1)

    def rows_of(self, levels, indices) -> np.ndarray:
        """Row of each queried point ``(levels[k], indices[k])``; -1 where it is absent.

        ``levels`` and ``indices`` are ``(m, dim)`` integer arrays (a single
        1-D pair is one point).  All ``m`` queries are one ``searchsorted``
        into the grid's sorted point index.
        """
        levels, indices = np.atleast_2d(levels), np.atleast_2d(indices)
        if levels.shape != indices.shape or levels.shape[1] != self.dim:
            raise ValueError(f"levels/indices must both have shape (m, {self.dim})")
        return self._rows_of_keys(_keys(levels, indices))

    def _rows_of_keys(self, keys: np.ndarray) -> np.ndarray:
        sorted_keys, order = self.cached_derived("point_index", _point_index)
        if sorted_keys.size == 0:
            return np.full(keys.shape[0], -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
        return np.where(sorted_keys[pos] == keys, order[pos], -1)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add_points(self, levels: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Append points, silently skipping those already present and repeats.

        New points are appended in the order of their first appearance in
        the batch.  Returns their row indices, which callers use to know
        where new function evaluations are required.
        """
        levels, indices = _checked(self.dim, np.atleast_2d(levels), np.atleast_2d(indices))
        keys = _keys(levels, indices)
        absent = np.flatnonzero(self._rows_of_keys(keys) < 0)
        _, first = np.unique(keys[absent], return_index=True)
        new = absent[np.sort(first)]
        start = len(self)
        if new.size:
            self.levels = np.concatenate([self.levels, levels[new]])
            self.indices = np.concatenate([self.indices, indices[new]])
            self._invalidate_caches()
        return np.arange(start, len(self), dtype=np.int64)

    def _invalidate_caches(self) -> None:
        """Bump the version and drop every derived-structure cache."""
        self._version += 1
        self._points_cache = None
        self._level_sums_cache = None
        self._derived_caches.clear()

    def cached_derived(self, name: str, builder):
        """Version-keyed cache for expensive structures derived from the grid.

        ``builder(grid)`` is invoked at most once per mutation epoch per
        ``name``; the result is stored until :meth:`add_points` changes the
        grid.  This is the single memoization point for the point index of
        :meth:`rows_of`, the neighbour rows of
        :func:`repro.grids.hierarchize.hierarchize` and the compressed
        representation of :func:`repro.core.compression.compressed_for`, so
        invalidation stays centralized in :meth:`_invalidate_caches`.
        Returned objects are shared — treat them as read-only.
        """
        cached = self._derived_caches.get(name)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        value = builder(self)
        self._derived_caches[name] = (self._version, value)
        return value

    def copy(self) -> "SparseGrid":
        """Deep copy of the grid."""
        return SparseGrid(self.dim, self.levels.copy(), self.indices.copy())

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Plain-array state of the grid (for npz round-trips).

        Only the defining ``levels``/``indices`` arrays are exported; the
        derived caches (points, level sums, point index, hierarchization
        neighbours, compressed representation) are deliberately dropped and
        rebuilt after :meth:`from_arrays`.
        """
        return {"levels": self.levels.copy(), "indices": self.indices.copy()}

    @classmethod
    def from_arrays(cls, levels: np.ndarray, indices: np.ndarray) -> "SparseGrid":
        """Rebuild a grid from :meth:`to_arrays` output (row order preserved).

        A single 1-D pair is read as one point, like :meth:`add_points`;
        the constructor does the conversion and the checks.  The
        reconstructed grid starts a fresh cache epoch (``version`` 0, only
        the point index built), exactly like a newly built grid.
        """
        levels, indices = np.atleast_2d(levels), np.atleast_2d(indices)
        return cls(levels.shape[1], levels, indices)

    # ------------------------------------------------------------------ #
    # evaluation helpers
    # ------------------------------------------------------------------ #
    def basis_matrix(self, X: np.ndarray) -> np.ndarray:
        """Dense ``(m, num_points)`` basis matrix for ``m`` query points."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise ValueError(f"query points must have {self.dim} columns, got {X.shape[1]}")
        check_in_unit_box("X", X)
        out = np.ones((X.shape[0], len(self)), dtype=float)
        for t in range(self.dim):
            out *= basis_1d_vectorized(
                X[:, t][:, None], self.levels[None, :, t], self.indices[None, :, t]
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SparseGrid(dim={self.dim}, num_points={len(self)}, max_level={self.max_level})"

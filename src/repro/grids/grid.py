"""The :class:`SparseGrid` container.

A sparse grid is a set of multivariate hierarchical points, each identified
by a pair of multi-indices ``(l, i)`` (level and index per dimension).  The
container stores them as two ``(num_points, dim)`` integer arrays plus the
derived coordinates, and offers dictionary-style lookup, point insertion
(keeping hierarchical consistency helpers in :mod:`repro.grids.adaptive`)
and dense basis evaluation.

Caching contract
----------------
The grid owns several derived structures that are expensive to rebuild and
are consumed on every fit/evaluate call:

* ``points`` and ``level_sums`` — cached arrays derived from the
  multi-indices;
* the ancestor structure of :func:`repro.grids.hierarchize.ancestor_csr`;
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


def _as_key(levels_row: np.ndarray, indices_row: np.ndarray) -> tuple:
    """Hashable identity of a grid point."""
    return (tuple(int(v) for v in levels_row), tuple(int(v) for v in indices_row))


@dataclass
class SparseGrid:
    """A (possibly adaptive) sparse grid on the unit box ``[0, 1]^d``.

    Parameters
    ----------
    dim
        Number of continuous dimensions ``d``.
    levels, indices
        ``(num_points, dim)`` integer arrays of 1-based hierarchical levels
        and indices.  They may be passed empty and filled via
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
        self.levels = np.ascontiguousarray(np.asarray(self.levels, dtype=np.int32))
        self.indices = np.ascontiguousarray(np.asarray(self.indices, dtype=np.int32))
        if self.levels.shape != self.indices.shape:
            raise ValueError(
                f"levels {self.levels.shape} and indices {self.indices.shape} "
                "must have identical shapes"
            )
        if self.levels.ndim != 2 or self.levels.shape[1] != self.dim:
            raise ValueError(
                f"levels/indices must have shape (n, {self.dim}), got {self.levels.shape}"
            )
        if self.levels.size and self.levels.min() < 1:
            raise ValueError("levels must be >= 1")
        self._lookup: dict[tuple, int] = {}
        for row in range(self.levels.shape[0]):
            key = _as_key(self.levels[row], self.indices[row])
            if key in self._lookup:
                raise ValueError(f"duplicate grid point {key}")
            self._lookup[key] = row
        self._version = 0
        self._points_cache: np.ndarray | None = None
        self._level_sums_cache: np.ndarray | None = None
        self._derived_caches: dict[str, tuple] = {}

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

        Derived-structure caches (points, level sums, ancestor structure,
        compressed representation) are keyed by this value.
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

    def contains(self, levels_row, indices_row) -> bool:
        """Whether the point identified by ``(l, i)`` is in the grid."""
        return _as_key(np.asarray(levels_row), np.asarray(indices_row)) in self._lookup

    def index_of(self, levels_row, indices_row) -> int:
        """Row index of a point; raises ``KeyError`` if absent."""
        return self._lookup[_as_key(np.asarray(levels_row), np.asarray(indices_row))]

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add_points(self, levels: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Append points, silently skipping duplicates.

        Returns the row indices of the *newly added* points (in the order
        they were appended), which callers use to know where new function
        evaluations are required.
        """
        levels = np.atleast_2d(np.asarray(levels, dtype=np.int32))
        indices = np.atleast_2d(np.asarray(indices, dtype=np.int32))
        if levels.shape != indices.shape or levels.shape[1] != self.dim:
            raise ValueError("levels/indices must both have shape (n, dim)")
        new_levels, new_indices, new_rows = [], [], []
        next_row = len(self)
        for row in range(levels.shape[0]):
            key = _as_key(levels[row], indices[row])
            if key in self._lookup:
                continue
            self._lookup[key] = next_row
            new_levels.append(levels[row])
            new_indices.append(indices[row])
            new_rows.append(next_row)
            next_row += 1
        if new_rows:
            self.levels = np.vstack([self.levels, np.asarray(new_levels, dtype=np.int32)])
            self.indices = np.vstack([self.indices, np.asarray(new_indices, dtype=np.int32)])
            self._invalidate_caches()
        return np.asarray(new_rows, dtype=np.int64)

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
        grid.  This is the single memoization point for the ancestor
        structure of :func:`repro.grids.hierarchize.ancestor_csr` and the
        compressed representation of
        :func:`repro.core.compression.compressed_for`, so invalidation
        stays centralized in :meth:`_invalidate_caches`.  Returned objects
        are shared — treat them as read-only.
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
        derived caches (points, level sums, ancestor structure, compressed
        representation) are deliberately dropped and rebuilt on demand
        after :meth:`from_arrays`.
        """
        return {"levels": self.levels.copy(), "indices": self.indices.copy()}

    @classmethod
    def from_arrays(cls, levels: np.ndarray, indices: np.ndarray) -> "SparseGrid":
        """Rebuild a grid from :meth:`to_arrays` output (row order preserved).

        Both arrays are coerced symmetrically (a single 1-D pair is read
        as one point, like :meth:`add_points`).  The reconstructed grid
        starts a fresh cache epoch (``version`` 0, no derived caches),
        exactly like a newly built grid.
        """
        levels = np.atleast_2d(np.asarray(levels, dtype=np.int32))
        indices = np.atleast_2d(np.asarray(indices, dtype=np.int32))
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

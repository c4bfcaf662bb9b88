"""One-dimensional hierarchical hat basis (paper Eqs. 5-7).

The basis follows the "boundary at level 2" convention used by the paper:

* level 1: single point at 0.5 with the *constant* basis function,
* level 2: the two boundary points 0 and 1 (indices 0 and 2),
* level ``l >= 3``: the odd-indexed points ``i * 2**(1-l)``.

All functions here are pure and operate on scalars or NumPy arrays; the
parent rule is written once, elementwise, as :func:`parents_1d`.  The
multivariate tensor-product machinery lives in :mod:`repro.grids.grid` and
:mod:`repro.core.kernels`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "point_1d",
    "points_1d",
    "basis_1d",
    "basis_1d_vectorized",
    "level_indices",
    "parents_1d",
    "num_level_points",
]


def point_1d(level: int, index: int) -> float:
    """Coordinate of the 1-D grid point ``x_{l,i}`` (paper Eq. 6)."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if level == 1:
        if index != 1:
            raise ValueError(f"level 1 only has index 1, got {index}")
        return 0.5
    return float(index) * 2.0 ** (1 - level)


def points_1d(levels: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Vectorized :func:`point_1d` for arrays of levels and indices."""
    levels = np.asarray(levels, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    x = indices.astype(float) * np.power(2.0, 1 - levels.astype(float))
    return np.where(levels == 1, 0.5, x)


def basis_1d(x: float, level: int, index: int) -> float:
    """Value of the 1-D hat function ``phi_{l,i}(x)`` (paper Eq. 5)."""
    if level == 1:
        return 1.0
    center = point_1d(level, index)
    return max(1.0 - 2.0 ** (level - 1) * abs(x - center), 0.0)


def basis_1d_vectorized(x, levels, indices) -> np.ndarray:
    """Vectorized hat-function evaluation with NumPy broadcasting.

    ``x``, ``levels`` and ``indices`` are broadcast against each other.
    Level-1 entries evaluate to the constant 1.
    """
    x = np.asarray(x, dtype=float)
    levels = np.asarray(levels, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    centers = points_1d(levels, indices)
    scale = np.power(2.0, (levels - 1).astype(float))
    values = np.maximum(1.0 - scale * np.abs(x - centers), 0.0)
    return np.where(levels == 1, 1.0, values)


def num_level_points(level: int) -> int:
    """Number of points the 1-D hierarchical level contributes."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if level == 1:
        return 1
    if level == 2:
        return 2
    return 2 ** (level - 2)


def level_indices(level: int) -> list[int]:
    """Hierarchical index set ``I_l`` of a 1-D level (paper Eq. 7)."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if level == 1:
        return [1]
    if level == 2:
        return [0, 2]
    return list(range(1, 2 ** (level - 1), 2))


def parents_1d(levels, indices) -> tuple[np.ndarray, np.ndarray]:
    """Hierarchical parent ``(level, index)`` of each 1-D point, elementwise.

    The boundary points (level 2) hang off the root ``(1, 1)``, the level-3
    points off the boundary on their side, and a deeper point ``i`` off
    whichever of ``(i - 1) / 2`` and ``(i + 1) / 2`` is odd.  The root has
    no parent and maps to ``(0, 0)``.  Walking the parents up to the root
    passes every coarser 1-D basis function that is non-zero at the point —
    the chain that hierarchization relies on.
    """
    levels = np.asarray(levels, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    up = (indices + 1) // 2
    pidx = np.where(up % 2 == 1, up, (indices - 1) // 2)
    pidx = np.where(levels == 3, np.where(indices == 1, 0, 2), pidx)
    pidx = np.where(levels == 2, 1, pidx)
    invalid = levels <= 1
    plev = np.where(invalid, 0, levels - 1)
    pidx = np.where(invalid, 0, pidx)
    return plev, pidx

"""Spatially adaptive sparse grid refinement (paper Sec. III, Fig. 1).

Adaptive refinement adds, for every grid point whose surplus-based error
indicator exceeds a threshold ``epsilon``, its ``2 d`` hierarchical children
(two per dimension).  To keep the grid hierarchically consistent — which the
ancestor-chain hierarchization in :mod:`repro.grids.hierarchize` relies on —
missing ancestors of newly inserted points are inserted as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.grids.grid import SparseGrid
from repro.grids.hierarchical import children_1d, parent_1d

__all__ = [
    "surplus_indicator",
    "refinement_candidates",
    "child_points",
    "complete_ancestors",
    "refine",
    "append_rows",
    "AdaptiveRefiner",
]


def surplus_indicator(surplus: np.ndarray) -> np.ndarray:
    """Default error indicator ``g(alpha)``: max absolute surplus per point.

    For multi-dof grids (the OLG application stores 2(A-1) coefficients per
    point) the indicator is the maximum over dofs, so a point is refined if
    *any* approximated function still has a large local correction there.
    """
    surplus = np.asarray(surplus, dtype=float)
    if surplus.ndim == 1:
        return np.abs(surplus)
    return np.abs(surplus).max(axis=1)


def refinement_candidates(
    grid: SparseGrid,
    surplus: np.ndarray,
    epsilon: float,
    indicator: Callable[[np.ndarray], np.ndarray] = surplus_indicator,
    max_level: int | None = None,
) -> np.ndarray:
    """Rows of the grid flagged for refinement (``g(alpha) >= epsilon``)."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    scores = indicator(surplus)
    if scores.shape[0] != len(grid):
        raise ValueError("surplus rows must match the number of grid points")
    flagged = scores >= epsilon
    if max_level is not None:
        # Points already at the level cap cannot spawn children.
        flagged &= grid.levels.max(axis=1) < max_level
    return np.flatnonzero(flagged)


def child_points(grid: SparseGrid, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All hierarchical children (2 per dimension) of the given rows."""
    child_levels: list[np.ndarray] = []
    child_indices: list[np.ndarray] = []
    for row in np.asarray(rows, dtype=np.int64):
        lev = grid.levels[row]
        idx = grid.indices[row]
        for t in range(grid.dim):
            for cl, ci in children_1d(int(lev[t]), int(idx[t])):
                new_lev = lev.copy()
                new_idx = idx.copy()
                new_lev[t] = cl
                new_idx[t] = ci
                child_levels.append(new_lev)
                child_indices.append(new_idx)
    if not child_levels:
        return (
            np.empty((0, grid.dim), dtype=np.int32),
            np.empty((0, grid.dim), dtype=np.int32),
        )
    return np.asarray(child_levels, dtype=np.int32), np.asarray(child_indices, dtype=np.int32)


def complete_ancestors(grid: SparseGrid) -> np.ndarray:
    """Insert every missing hierarchical parent; returns new row indices.

    A grid is hierarchically consistent if, for every point and every
    dimension, the 1-D parent in that dimension (other coordinates fixed)
    is also in the grid.  Regular grids have this property by construction;
    adaptive insertion can violate it.
    """
    added_rows: list[int] = []
    frontier = list(range(len(grid)))
    while frontier:
        next_frontier: list[int] = []
        for row in frontier:
            lev = grid.levels[row]
            idx = grid.indices[row]
            for t in range(grid.dim):
                parent = parent_1d(int(lev[t]), int(idx[t]))
                if parent is None:
                    continue
                new_lev = lev.copy()
                new_idx = idx.copy()
                new_lev[t], new_idx[t] = parent
                if not grid.contains(new_lev, new_idx):
                    new = grid.add_points(new_lev[None, :], new_idx[None, :])
                    added_rows.extend(int(r) for r in new)
                    next_frontier.extend(int(r) for r in new)
        frontier = next_frontier
    return np.asarray(added_rows, dtype=np.int64)


def refine(
    grid: SparseGrid,
    surplus: np.ndarray,
    epsilon: float,
    indicator: Callable[[np.ndarray], np.ndarray] = surplus_indicator,
    max_level: int | None = None,
) -> np.ndarray:
    """One adaptive refinement sweep, in place.

    Flags points with ``g(alpha) >= epsilon``, inserts their children (and
    any missing ancestors) and returns the row indices of all newly added
    points, i.e. the points at which the caller must evaluate the target
    function before re-hierarchizing.
    """
    rows = refinement_candidates(grid, surplus, epsilon, indicator, max_level)
    lev, idx = child_points(grid, rows)
    if max_level is not None and lev.size:
        keep = lev.max(axis=1) <= max_level
        lev, idx = lev[keep], idx[keep]
    new_rows = list(grid.add_points(lev, idx))
    new_rows.extend(complete_ancestors(grid))
    return np.asarray(sorted(int(r) for r in new_rows), dtype=np.int64)


@dataclass
class AdaptiveRefiner:
    """Drives repeated refine/evaluate/hierarchize cycles against a function.

    This is the stand-alone ASG construction loop (outside of time
    iteration): starting from a regular grid of ``initial_level`` it refines
    until either no point is flagged or ``max_points`` / ``max_level`` is
    reached.

    Parameters
    ----------
    epsilon
        Refinement threshold on the surplus indicator.
    max_level
        Cap on the 1-D refinement level (the paper uses ``L_max = 6``).
    max_points
        Hard cap on grid size (guards against runaway refinement).
    """

    epsilon: float = 1e-2
    max_level: int = 6
    max_points: int = 200_000
    indicator: Callable[[np.ndarray], np.ndarray] = field(default=surplus_indicator)

    def build(
        self,
        func: Callable[[np.ndarray], np.ndarray],
        dim: int,
        initial_level: int = 2,
    ) -> tuple[SparseGrid, np.ndarray]:
        """Adaptively approximate ``func`` on ``[0, 1]^dim``.

        ``func`` maps an ``(m, dim)`` array of points to an ``(m,)`` or
        ``(m, num_dofs)`` array of values.  Returns the final grid and its
        surpluses.
        """
        from repro.grids.hierarchize import hierarchize
        from repro.grids.regular import regular_sparse_grid

        grid = regular_sparse_grid(dim, initial_level)
        values = np.asarray(func(grid.points), dtype=float)
        surplus = hierarchize(grid, values)
        while len(grid) < self.max_points:
            new_rows = refine(grid, surplus, self.epsilon, self.indicator, self.max_level)
            if new_rows.size == 0:
                break
            new_values = np.asarray(func(grid.points[new_rows]), dtype=float)
            values = append_rows(values, new_rows, new_values, len(grid))
            surplus = hierarchize(grid, values)
        return grid, surplus


def append_rows(values, new_rows, new_values, total_rows):
    """Grow the nodal-value array to ``total_rows`` rows, filling ``new_rows``."""
    values = np.asarray(values, dtype=float)
    new_values = np.asarray(new_values, dtype=float)
    if values.ndim == 1:
        out = np.zeros(total_rows, dtype=float)
        out[: values.shape[0]] = values
        out[new_rows] = new_values
    else:
        out = np.zeros((total_rows, values.shape[1]), dtype=float)
        out[: values.shape[0]] = values
        out[new_rows] = new_values.reshape(len(new_rows), values.shape[1])
    return out

"""Spatially adaptive sparse grid refinement (paper Sec. III, Fig. 1).

Adaptive refinement adds, for every grid point whose surplus-based error
indicator exceeds a threshold ``epsilon``, its ``2 d`` hierarchical children
(two per dimension).  To keep the grid hierarchically consistent — which
:func:`repro.grids.hierarchize.hierarchize` requires: its per-dimension
transform reads each point's two coarser 1-D neighbours and raises where one
is absent — missing ancestors of newly inserted points are inserted as well,
one :meth:`SparseGrid.add_points` call per round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.grids.grid import SparseGrid
from repro.grids.hierarchical import parents_1d

__all__ = [
    "surplus_indicator",
    "refinement_candidates",
    "child_points",
    "complete_ancestors",
    "refine",
    "AdaptiveRefiner",
]


def surplus_indicator(surplus: np.ndarray) -> np.ndarray:
    """The error indicator ``g(alpha)`` refinement flags on: max absolute surplus per point.

    For multi-dof grids (the OLG application stores 2(A-1) coefficients per
    point) the indicator is the maximum over dofs, so a point is refined if
    *any* approximated function still has a large local correction there.
    A caller that weighs the dofs scales the surpluses before handing them
    over (the adaptive time-iteration step divides each column by its
    nodal magnitude).
    """
    surplus = np.asarray(surplus, dtype=float)
    if surplus.ndim == 1:
        return np.abs(surplus)
    return np.abs(surplus).max(axis=1)


def refinement_candidates(
    grid: SparseGrid,
    surplus: np.ndarray,
    epsilon: float,
    max_level: int | None = None,
) -> np.ndarray:
    """Rows of the grid flagged for refinement: :func:`surplus_indicator` ``>= epsilon``."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    scores = surplus_indicator(surplus)
    if scores.shape[0] != len(grid):
        raise ValueError("surplus rows must match the number of grid points")
    flagged = scores >= epsilon
    if max_level is not None:
        # Points already at the level cap cannot spawn children.
        flagged &= grid.levels.max(axis=1) < max_level
    return np.flatnonzero(flagged)


def child_points(grid: SparseGrid, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All hierarchical children of the given rows, in (row, dimension, child) order.

    Per dimension the level-1 root has the two boundary points as children,
    a boundary point has a single interior child and an interior point the
    usual two dyadic children.
    """
    rows = np.asarray(rows, dtype=np.int64)
    lev, idx = grid.levels[rows], grid.indices[rows]
    first = np.where(lev == 1, 0, np.where(lev == 2, idx + 1, 2 * idx - 1))
    second = np.where(lev == 1, 2, 2 * idx + 1)
    has = np.stack([np.ones_like(lev, dtype=bool), lev != 2], axis=2)
    r, t, c = np.nonzero(has)
    k = np.arange(r.size)
    child_lev, child_idx = lev[r], idx[r]
    child_lev[k, t] += 1
    child_idx[k, t] = np.where(c == 0, first[r, t], second[r, t])
    return child_lev, child_idx


def complete_ancestors(grid: SparseGrid) -> np.ndarray:
    """Insert every missing hierarchical parent; returns new row indices.

    A grid is hierarchically consistent if, for every point and every
    dimension, the 1-D parent in that dimension (other coordinates fixed)
    is also in the grid.  Regular grids have this property by construction;
    adaptive insertion can violate it.  Each round adds the parents of the
    previous round's new rows (of the whole grid first) in one
    :meth:`SparseGrid.add_points` call, in (row, dimension) order, so a
    grid needs at most its maximum level of rounds.
    """
    start = len(grid)
    frontier = np.arange(len(grid))
    while frontier.size:
        lev, idx = grid.levels[frontier], grid.indices[frontier]
        parent_lev, parent_idx = parents_1d(lev, idx)
        r, t = np.nonzero(parent_lev >= 1)
        k = np.arange(r.size)
        lev, idx = lev[r], idx[r]
        lev[k, t] = parent_lev[r, t]
        idx[k, t] = parent_idx[r, t]
        frontier = grid.add_points(lev, idx)
    return np.arange(start, len(grid), dtype=np.int64)


def refine(
    grid: SparseGrid,
    surplus: np.ndarray,
    epsilon: float,
    max_level: int | None = None,
) -> np.ndarray:
    """One adaptive refinement sweep, in place.

    Flags points with ``g(alpha) >= epsilon``, inserts their children (and
    any missing ancestors) and returns the row indices of all newly added
    points — always the grid's last rows, in order — i.e. the points at
    which the caller must evaluate the target function before
    re-hierarchizing.
    """
    start = len(grid)
    rows = refinement_candidates(grid, surplus, epsilon, max_level)
    lev, idx = child_points(grid, rows)
    if max_level is not None and lev.size:
        keep = lev.max(axis=1) <= max_level
        lev, idx = lev[keep], idx[keep]
    grid.add_points(lev, idx)
    complete_ancestors(grid)
    return np.arange(start, len(grid), dtype=np.int64)


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
            new_rows = refine(grid, surplus, self.epsilon, self.max_level)
            if new_rows.size == 0:
                break
            new_values = np.asarray(func(grid.points[new_rows]), dtype=float)
            values = np.concatenate([values, new_values])
            surplus = hierarchize(grid, values)
        return grid, surplus

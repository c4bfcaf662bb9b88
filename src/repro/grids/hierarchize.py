"""Hierarchization: turning nodal function values into hierarchical surpluses.

The hierarchical surplus of a grid point is the difference between the
function value there and the value of the interpolant built from all
*coarser* basis functions (paper Sec. III).

Two implementations are provided:

``hierarchize``
    The production algorithm, one 1-D transform per dimension.  Along a
    line in dimension ``t`` the coarser interpolant is piecewise linear
    between the point's two coarser neighbours ``x ± 2^(1-l)`` (both the
    level-1 root for a level-2 point), so dimension ``t``'s step subtracts
    their mean from every point above level 1 in ``t``, all points at once.
    The tensor-product basis makes the ``d`` steps in sequence give the
    multivariate surpluses.  This requires a *hierarchically consistent*
    grid — every point's 1-D parents present in every dimension, as regular
    grids and :func:`repro.grids.adaptive.refine` guarantee — and a grid
    missing a coarser neighbour raises ``ValueError``.

    Each dimension's ``(rows, left, right)`` arrays are **cached on the
    grid** (``SparseGrid.cached_derived``): repeated ``hierarchize`` calls
    on the same grid — every adaptive-refinement pass and every
    time-iteration step — build them once per grid version.

``hierarchize_dense``
    A small, obviously correct reference that assembles the dense basis
    matrix and solves the collocation system.  Used in tests as the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.grids.grid import SparseGrid

__all__ = ["hierarchize", "hierarchize_dense", "evaluate_dense"]


def _neighbour_1d(levels: np.ndarray, indices: np.ndarray, side: int):
    """1-D ``(level, index)`` of ``x + side * 2^(1-l)`` for points above level 1.

    The neighbour's numerator ``index + side`` over ``2^(l-1)`` is reduced
    to an odd one; coordinates 0, 1/2 and 1 map to the points ``(2, 0)``,
    ``(1, 1)`` and ``(2, 2)``, and a level-2 point's neighbours are the root.
    """
    levels, num = levels.astype(np.int64), indices.astype(np.int64) + side
    zeros = np.maximum(np.frexp(num & -num)[1] - 1, 0)  # trailing zero bits
    lev, idx = levels - zeros, num >> zeros
    root = (levels == 2) | (lev == 2)
    boundary = (num == 0) | (lev == 1)
    lev = np.where(root, 1, np.where(boundary, 2, lev))
    idx = np.where(root, 1, np.where(boundary, 2 * idx, idx))
    return lev, idx


def _neighbours(grid: SparseGrid) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per dimension: the rows above level 1 there, and the rows of their coarser neighbours."""
    steps = []
    for t in range(grid.dim):
        rows = np.flatnonzero(grid.levels[:, t] > 1)
        sides = []
        for side in (-1, 1):
            lev, idx = grid.levels[rows], grid.indices[rows]
            lev[:, t], idx[:, t] = _neighbour_1d(lev[:, t], idx[:, t], side)
            found = grid.rows_of(lev, idx)
            if (found < 0).any():
                row = rows[np.argmin(found)]
                raise ValueError(
                    f"grid point {grid.levels[row].tolist()}, {grid.indices[row].tolist()} "
                    f"lacks a coarser neighbour along dimension {t}: hierarchization needs "
                    "a hierarchically consistent grid"
                )
            sides.append(found)
        steps.append((rows, *sides))
    return steps


def hierarchize(grid: SparseGrid, values: np.ndarray) -> np.ndarray:
    """Compute hierarchical surpluses from nodal values.

    Parameters
    ----------
    grid
        The sparse grid; it must be hierarchically consistent.
    values
        ``(num_points,)`` or ``(num_points, num_dofs)`` nodal function
        values, ordered like the grid points.

    Returns
    -------
    numpy.ndarray
        Surpluses with the same shape as ``values``.
    """
    values = np.asarray(values, dtype=float)
    squeeze = values.ndim == 1
    vals = values[:, None] if squeeze else values
    if vals.shape[0] != len(grid):
        raise ValueError(
            f"values has {vals.shape[0]} rows but the grid has {len(grid)} points"
        )
    surplus = np.array(vals, dtype=float, copy=True)
    for rows, left, right in grid.cached_derived("hierarchize", _neighbours):
        # the right-hand side is read before the update: every point sees its
        # neighbours' values from before this dimension's step
        surplus[rows] -= 0.5 * (surplus[left] + surplus[right])
    return surplus[:, 0] if squeeze else surplus


def hierarchize_dense(grid: SparseGrid, values: np.ndarray) -> np.ndarray:
    """Reference hierarchization via the dense collocation system.

    Solves ``B alpha = values`` where ``B[j, k] = phi_k(x_j)``.  Exact but
    ``O(num_points^2 * dim)`` in time and ``O(num_points^2)`` in memory;
    meant for tests on small grids.
    """
    values = np.asarray(values, dtype=float)
    B = grid.basis_matrix(grid.points)
    return np.linalg.solve(B, values)


def evaluate_dense(grid: SparseGrid, surplus: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Reference (uncompressed) interpolation ``u(X) = B(X) @ surplus``.

    This corresponds to the paper's *gold* data layout; the optimized
    kernels live in :mod:`repro.core.kernels`.
    """
    surplus = np.asarray(surplus, dtype=float)
    B = grid.basis_matrix(X)
    return B @ surplus

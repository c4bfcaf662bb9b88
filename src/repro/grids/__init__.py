"""Adaptive sparse grid (ASG) substrate.

This subpackage implements Section III of the paper: the hierarchical
piecewise-linear ("hat function") basis, regular sparse grids
:math:`V^S_n`, spatially adaptive refinement, hierarchization (surplus
computation) and interpolation.

Conventions
-----------
* Levels are **1-based** as in the paper (Eqs. 5-7): level 1 is the single
  midpoint with the constant basis function, level 2 contributes the two
  boundary points, level ``l >= 3`` contributes the odd-indexed interior
  points of mesh width ``2**(1-l)``.
* Grids live on the unit box ``[0, 1]^d``; :mod:`repro.grids.domain` maps
  problem boxes onto it.
* Surpluses ("hierarchical coefficients") are stored as a dense
  ``(num_points, num_dofs)`` matrix so that one grid carries the 2(A-1)
  policy/value coefficients of the OLG application at once.
* Point membership is :meth:`SparseGrid.rows_of`, one ``searchsorted`` into
  the grid's sorted point index; insertion, refinement and hierarchization
  all use it.
* Hierarchization runs one 1-D transform per dimension and so needs a
  hierarchically consistent grid, which regular grids and ``refine`` keep.
"""

from repro.grids.hierarchical import (
    basis_1d,
    basis_1d_vectorized,
    point_1d,
    level_indices,
)
from repro.grids.grid import SparseGrid
from repro.grids.regular import regular_sparse_grid, regular_grid_size
from repro.grids.hierarchize import hierarchize, evaluate_dense
from repro.grids.adaptive import refine, refinement_candidates, AdaptiveRefiner
from repro.grids.domain import BoxDomain
from repro.grids.interpolation import SparseGridInterpolant

__all__ = [
    "basis_1d",
    "basis_1d_vectorized",
    "point_1d",
    "level_indices",
    "SparseGrid",
    "regular_sparse_grid",
    "regular_grid_size",
    "hierarchize",
    "evaluate_dense",
    "refine",
    "refinement_candidates",
    "AdaptiveRefiner",
    "BoxDomain",
    "SparseGridInterpolant",
]

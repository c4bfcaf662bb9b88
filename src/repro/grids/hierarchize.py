"""Hierarchization: turning nodal function values into hierarchical surpluses.

The hierarchical surplus of a grid point is the difference between the
function value there and the value of the interpolant built from all
*coarser* basis functions (paper Sec. III).  Because the multivariate hat
basis of a point is non-zero only at strictly finer points, ordering the
points by their level sum ``|l|_1`` makes the interpolation matrix unit
lower triangular, so surpluses can be computed by a single sweep.

Two implementations are provided:

``hierarchize``
    The production algorithm.  It works from a flat CSR-style *ancestor
    structure* (:class:`AncestorCSR`): for every point the set of coarser
    basis functions that are non-zero there, stored as flat ``anc_rows`` /
    ``weights`` arrays with per-point ``offsets``.  The structure is built
    with vectorized NumPy ops (parent chains of all points through
    :func:`repro.grids.hierarchical.parents_1d`, every candidate ancestor
    resolved by one :meth:`SparseGrid.rows_of` lookup into the grid's point
    index) and the surplus sweep runs level-by-level with grouped
    gather/scatter ops, so no per-point Python loop remains on the hot
    path.

    The structure is **cached on the grid** (see
    :func:`ancestor_csr`): repeated ``hierarchize`` calls on the same grid
    — every adaptive-refinement pass and every time-iteration step — pay
    construction cost once.  ``SparseGrid.add_points`` invalidates the
    cache via the grid's version counter.

``hierarchize_dense``
    A small, obviously correct reference that assembles the dense basis
    matrix and solves the triangular system.  Used in tests as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grids.grid import SparseGrid
from repro.grids.hierarchical import basis_1d_vectorized, parents_1d

__all__ = [
    "hierarchize",
    "hierarchize_dense",
    "evaluate_dense",
    "ancestor_csr",
    "AncestorCSR",
]


@dataclass
class AncestorCSR:
    """Flat ancestor structure of a grid, plus level-sweep metadata.

    Attributes
    ----------
    anc_rows, weights, offsets
        CSR triplet in grid-point order: the in-grid ancestors of point
        ``p`` are ``anc_rows[offsets[p]:offsets[p+1]]`` with basis weights
        ``weights[offsets[p]:offsets[p+1]]`` (``phi_ancestor(x_p)``).
    order
        Grid rows sorted by level sum ``|l|_1`` (stable) — the sweep order.
    sweep_anc, sweep_weights
        The entry arrays permuted so that entries of points appear
        consecutively in sweep order.
    sweep_targets, sweep_starts
        Grid rows with at least one ancestor, in sweep order, and the start
        of each row's entries inside ``sweep_anc``.
    group_bounds
        Bounds into ``sweep_targets``/``sweep_starts`` delimiting groups of
        equal level sum; groups are processed sequentially, points within a
        group in one vectorized gather/scatter (no point can be an ancestor
        of another point with the same level sum).
    """

    anc_rows: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray
    order: np.ndarray
    sweep_anc: np.ndarray
    sweep_weights: np.ndarray
    sweep_targets: np.ndarray
    sweep_starts: np.ndarray
    group_bounds: np.ndarray


def _empty_csr() -> AncestorCSR:
    zi = np.empty(0, dtype=np.int64)
    return AncestorCSR(
        anc_rows=zi,
        weights=np.empty(0, dtype=float),
        offsets=np.zeros(1, dtype=np.int64),
        order=zi,
        sweep_anc=zi,
        sweep_weights=np.empty(0, dtype=float),
        sweep_targets=zi,
        sweep_starts=zi,
        group_bounds=np.zeros(1, dtype=np.int64),
    )


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s + n) for s, n in zip(starts, lengths)]``."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    rep = np.repeat(starts, lengths)
    local = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    return rep + local


def _build_ancestor_csr(grid: SparseGrid) -> AncestorCSR:
    """Vectorized construction of the CSR ancestor structure."""
    n, dim = len(grid), grid.dim
    if n == 0:
        return _empty_csr()
    levels = grid.levels.astype(np.int64)
    indices = grid.indices.astype(np.int64)
    points = grid.points

    # Candidate combos: every point crossed with (self + 1-D ancestors) per
    # dimension.  Combos are expanded dimension by dimension with repeat /
    # gather ops; owners stay sorted throughout.
    c_owner = np.arange(n, dtype=np.int64)
    c_lev = levels.copy()
    c_idx = indices.copy()
    c_w = np.ones(n, dtype=float)
    c_self = np.ones(n, dtype=bool)

    for t in range(dim):
        lev_t = levels[:, t]
        max_opts = int(lev_t.max())
        if max_opts == 1:
            continue  # nothing above level 1 in this dimension: self only
        # Option table for dimension t: column 0 is the point itself
        # (weight 1, the hat function is 1 at its own node), columns
        # 1..level-1 walk the 1-D parent chain.  A level-l point has
        # exactly l - 1 ancestors, so only the first ``lev_t`` columns of a
        # row are ever gathered.
        x_t = points[:, t]
        opt_lev = np.empty((n, max_opts), dtype=np.int64)
        opt_idx = np.empty((n, max_opts), dtype=np.int64)
        opt_w = np.empty((n, max_opts), dtype=float)
        opt_lev[:, 0] = lev_t
        opt_idx[:, 0] = indices[:, t]
        opt_w[:, 0] = 1.0
        cl, ci = lev_t, indices[:, t]
        for k in range(1, max_opts):
            cl, ci = parents_1d(cl, ci)
            alive = cl >= 1
            cl = np.where(alive, cl, 1)
            ci = np.where(alive, ci, 1)
            opt_lev[:, k] = cl
            opt_idx[:, k] = ci
            opt_w[:, k] = basis_1d_vectorized(x_t, cl, ci)

        cnt = lev_t[c_owner]  # options (self + ancestors) per combo in dim t
        pos = np.arange(c_owner.shape[0], dtype=np.int64)
        rep = np.repeat(pos, cnt)
        k = np.arange(rep.shape[0], dtype=np.int64) - np.repeat(
            np.cumsum(cnt) - cnt, cnt
        )
        owner = c_owner[rep]
        c_lev = c_lev[rep]
        c_lev[:, t] = opt_lev[owner, k]
        c_idx = c_idx[rep]
        c_idx[:, t] = opt_idx[owner, k]
        c_w = c_w[rep] * opt_w[owner, k]
        c_self = c_self[rep] & (k == 0)
        c_owner = owner

    keep = ~c_self & (c_w != 0.0)
    c_owner = c_owner[keep]
    c_lev = c_lev[keep]
    c_idx = c_idx[keep]
    c_w = c_w[keep]

    rows = grid.rows_of(c_lev, c_idx)
    found = rows >= 0  # adaptive grids: missing ancestors contribute nothing
    owner = c_owner[found]
    anc_rows = rows[found]
    weights = c_w[found]

    counts = np.bincount(owner, minlength=n).astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    # Sweep metadata: permute entries into level-sum order and record group
    # boundaries so hierarchize() can process one level-sum class per
    # gather/scatter.
    level_sums = grid.level_sums
    order = np.argsort(level_sums, kind="stable").astype(np.int64)
    sorted_sums = level_sums[order]
    ord_counts = counts[order]
    entry_idx = _concat_ranges(offsets[order], ord_counts)
    sweep_anc = anc_rows[entry_idx]
    sweep_weights = weights[entry_idx]
    point_starts = np.cumsum(ord_counts) - ord_counts
    nonempty = ord_counts > 0
    sweep_targets = order[nonempty]
    sweep_starts = point_starts[nonempty]
    group_ids = np.cumsum(np.r_[0, np.diff(sorted_sums) != 0])
    ngroups = int(group_ids[-1]) + 1
    group_bounds = np.searchsorted(
        group_ids[nonempty], np.arange(ngroups + 1, dtype=np.int64)
    ).astype(np.int64)

    return AncestorCSR(
        anc_rows=anc_rows,
        weights=weights,
        offsets=offsets,
        order=order,
        sweep_anc=sweep_anc,
        sweep_weights=sweep_weights,
        sweep_targets=sweep_targets,
        sweep_starts=sweep_starts,
        group_bounds=group_bounds,
    )


def ancestor_csr(grid: SparseGrid) -> AncestorCSR:
    """The grid's ancestor structure, cached on the grid.

    The cache (``SparseGrid.cached_derived``) is keyed by ``grid.version``,
    which ``add_points`` bumps, so a structure is built at most once per
    grid mutation epoch.  Callers must treat the returned arrays as
    read-only.
    """
    return grid.cached_derived("ancestor_csr", _build_ancestor_csr)


def hierarchize(grid: SparseGrid, values: np.ndarray) -> np.ndarray:
    """Compute hierarchical surpluses from nodal values.

    Parameters
    ----------
    grid
        The sparse grid.
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
    csr = ancestor_csr(grid)
    bounds = csr.group_bounds
    nnz = csr.sweep_anc.shape[0]
    npt = csr.sweep_starts.shape[0]
    for g in range(bounds.shape[0] - 1):
        lo, hi = int(bounds[g]), int(bounds[g + 1])
        if lo == hi:
            continue
        e_lo = int(csr.sweep_starts[lo])
        e_hi = int(csr.sweep_starts[hi]) if hi < npt else nnz
        contrib = csr.sweep_weights[e_lo:e_hi, None] * surplus[csr.sweep_anc[e_lo:e_hi]]
        sums = np.add.reduceat(contrib, csr.sweep_starts[lo:hi] - e_lo, axis=0)
        surplus[csr.sweep_targets[lo:hi]] -= sums
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

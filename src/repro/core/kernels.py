"""Interpolation kernels (paper Sec. V-A, Table II, Fig. 6).

The paper benchmarks six kernel variants that all evaluate the sparse grid
interpolant (Eq. 14) for a batch of query points against a multi-dof
surplus matrix.  The reproduction maps each hardware-specific variant onto
the closest pure-Python/NumPy analog:

==========  =====================================================================
name        analog in this reproduction
==========  =====================================================================
``gold``    dense (uncompressed) layout, vectorized over grid points, one query
            point at a time — the baseline data format of the authors' earlier
            work.
``x86``     compressed layout (chains + ``xps`` factor table), one query point
            at a time.
``avx``     compressed layout, query points processed in blocks of 4
            ("vector lanes").
``avx2``    compressed layout, blocks of 8 with fused accumulation.
``avx512``  compressed layout, grid points split across worker threads with a
            partial-sum reduction (the paper's OpenMP-inside-kernel variant).
``cuda``    compressed layout, fully batched: large query blocks, the factor
            table shared across the block ("shared memory"), one large GEMM
            against the reordered surplus matrix per block.
==========  =====================================================================

``x86``, ``avx``, ``avx2`` and ``cuda`` are one blocked loop at 1, 4, 8 and
128 query rows a block.  The kernels take no tuning arguments: the paper's
settings are the module constants ``_CUDA_BLOCK``, ``_CUDA_BUFFER_BYTES``,
``_AVX512_THREADS`` and ``_AVX512_BLOCK``.

All kernels take surpluses in *grid order* and apply the compressed grid's
reordering permutation on every call, so every kernel returns bitwise
comparable results (up to floating point associativity).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple

import numpy as np

from repro.core.compression import CompressedGrid
from repro.grids.hierarchical import basis_1d_vectorized

__all__ = [
    "evaluate",
    "list_kernels",
    "get_kernel",
    "KERNELS",
    "factor_values",
    "Hats",
    "hats",
    "basis_matrix",
    "basis_gradient",
]

_CUDA_BLOCK = 128  # query rows a block: the paper's CUDA block size
_CUDA_BUFFER_BYTES = 256_000_000  # cap on a block's (block, num_points) work buffer
_AVX512_THREADS = 4  # each reduces over its slice of the grid points
_AVX512_BLOCK = 32  # query rows a block, per thread


# --------------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------------- #
class Hats(NamedTuple):
    """The factor table's hats at query points, one row a point: what a basis pass derives.

    Taken once (:func:`hats`), they serve any number of basis passes and
    basis gradients at those points, or at a subset of them (:meth:`take`).
    """

    offsets: np.ndarray  # (m, num_xps) from the hats' centers, in half-widths
    values: np.ndarray   # (m, num_xps) the hats' values, the sentinel's 1.0 among them

    def take(self, rows) -> "Hats":
        """The hats at the query points ``rows`` (positions or a slice)."""
        return Hats(self.offsets[rows], self.values[rows])


def factor_values(comp: CompressedGrid, X: np.ndarray) -> np.ndarray:
    """Evaluate the unique factor table ``xps`` at query points.

    Returns an ``(m, num_xps)`` array ``xpv`` with ``xpv[:, 0] = 1`` (the
    sentinel).  This is the per-query work that replaces the ``d`` basis
    evaluations per *grid point* of the dense layout.
    """
    return _hats(comp, np.atleast_2d(np.asarray(X, dtype=float))).values


def hats(comp: CompressedGrid, unit_X: np.ndarray) -> Hats:
    """The factor table's :class:`Hats` at the points ``unit_X`` of the unit box."""
    unit_X = np.atleast_2d(np.asarray(unit_X, dtype=float))
    if unit_X.shape[1] != comp.dim:
        raise ValueError(f"query points must have {comp.dim} columns")
    return _hats(comp, unit_X)


def _hats(comp: CompressedGrid, X: np.ndarray) -> Hats:
    """The factor table's hats at ``X``: offsets from their centers in half-widths, and values.

    ``basis_1d_vectorized``'s arithmetic with the per-grid constants
    hoisted; the scales are powers of two, so ``|scale * t| = scale * |t|``
    bit for bit.
    """
    centers, scales, constant = comp.hat_constants()
    offsets = X[:, comp.xps_dims]  # (m, num_xps)
    offsets -= centers
    offsets *= scales
    values = np.abs(offsets)
    np.subtract(1.0, values, out=values)
    np.maximum(values, 0.0, out=values)
    values[:, constant] = 1.0  # level 1, the sentinel among them
    return Hats(offsets, values)


def _chain_products(chains: np.ndarray, xpv_block: np.ndarray) -> np.ndarray:
    """Multiply chain factors for a block of query points.

    ``chains`` is ``(p, nfreq)`` rows of :attr:`CompressedGrid.chains` and
    ``xpv_block`` the ``(b, num_xps)`` factor values of a block of query
    points; the result, ``(b, p)``, holds the tensor-product basis value of
    every one of those (reordered) grid points at every query point.  The
    walk gathers one chain column for all ``p`` points at a time and
    multiplies it in; a terminated slot reads the sentinel's exact 1.0, so
    each point's product equals the one that stops at its terminator.
    """
    temp = xpv_block[:, chains[:, 0]]
    for f in range(1, chains.shape[1]):
        temp *= xpv_block[:, chains[:, f]]
    return temp


def _validate(comp: CompressedGrid, surplus: np.ndarray, X: np.ndarray):
    surplus = np.asarray(surplus, dtype=float)
    if surplus.ndim == 1:
        surplus = surplus[:, None]
    if surplus.shape[0] != comp.num_points:
        raise ValueError(
            f"surplus has {surplus.shape[0]} rows, grid has {comp.num_points} points"
        )
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != comp.dim:
        raise ValueError(f"query points must have {comp.dim} columns, got {X.shape[1]}")
    return surplus, X


def basis_matrix(comp: CompressedGrid, at) -> np.ndarray:
    """Tensor-product basis values of every (reordered) grid point at query points.

    ``at`` is ``(m, dim)`` points of the unit box, or the :class:`Hats`
    already taken at them.  Returns an ``(m, num_points)`` matrix, one
    chain walk over every grid point (:func:`_chain_products`): column
    ``k`` is bit for bit the dense layout's product of
    ``basis_1d_vectorized`` over ascending dimensions of grid row
    ``comp.order[k]``.  A blocked kernel (``cuda``: ``_CUDA_BLOCK`` rows)
    is, bit for bit, this matrix of each block times
    ``comp.reorder(surplus)``.  Materializing the matrix once lets many
    surplus sets that share one grid be evaluated with a single basis pass
    plus one small GEMM each — the stacked-surplus path of the batched solver.
    """
    return _chain_products(comp.chains, _hats_at(comp, at).values)


def basis_gradient(comp: CompressedGrid, at) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-dimension derivatives of the (reordered) basis functions at query points.

    ``at`` is what :func:`basis_matrix` takes: points of the unit box, or
    the :class:`Hats` already taken there.  A basis function is a product
    of one hat per chain slot, and each slot of a point names one
    dimension, so its derivative in that dimension is the slot's hat slope
    times the point's other factors, and zero in every dimension its chain
    does not name.  Returns ``(slopes, points, dims)`` over the live slots
    of :meth:`CompressedGrid.gradient_entries`: ``slopes[:, i]`` is the
    derivative of basis function ``points[i]`` in dimension ``dims[i]``
    (ascending) at every query point, and every derivative not listed is
    zero.  That is at most ``nfreq`` entries a grid point — the slot
    matrices of the chain walk, terminated slots dropped — never the dense
    ``(m, dim, num_points)`` gradient.  A hat's slope is taken from the
    right, as a forward difference sees it: ``+2**(l-1)`` on the left half
    of its support, ``-2**(l-1)`` from its center on, 0 outside; the other
    factors are those of :func:`basis_matrix`.
    """
    offsets, factors = _hats_at(comp, at)
    hat_slopes = np.copysign(comp.hat_constants()[1], -offsets)  # -scale from the center on
    hat_slopes *= (offsets >= -1.0) & (offsets < 1.0)
    points, dims, own, others = comp.gradient_entries()
    slopes = hat_slopes[:, own]
    for entries in others:
        slopes *= factors[:, entries]
    return slopes, points, dims


def _hats_at(comp: CompressedGrid, at) -> Hats:
    """``at`` itself when it is :class:`Hats`, else the hats at the unit-box points ``at``."""
    return at if isinstance(at, Hats) else hats(comp, at)


# --------------------------------------------------------------------------- #
# kernel implementations
# --------------------------------------------------------------------------- #
def kernel_gold(comp: CompressedGrid, surplus: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Dense-layout baseline: ``nno x d`` basis factors per query point."""
    surplus, X = _validate(comp, surplus, X)
    out = np.empty((X.shape[0], surplus.shape[1]), dtype=float)
    levels = comp.levels
    indices = comp.indices
    for q in range(X.shape[0]):
        phi = np.ones(comp.num_points, dtype=float)
        x = X[q]
        for t in range(comp.dim):
            phi *= basis_1d_vectorized(x[t], levels[:, t], indices[:, t])
        out[q] = phi @ surplus
    return out


def _kernel_blocked(
    comp: CompressedGrid, surplus: np.ndarray, X: np.ndarray, block: int
) -> np.ndarray:
    """Compressed layout with query points processed ``block`` at a time."""
    surplus, X = _validate(comp, surplus, X)
    surplus_r = comp.reorder(surplus)
    m = X.shape[0]
    out = np.empty((m, surplus.shape[1]), dtype=float)
    xpv = factor_values(comp, X)
    for start in range(0, m, block):
        stop = min(start + block, m)
        temp = _chain_products(comp.chains, xpv[start:stop])
        np.matmul(temp, surplus_r, out=out[start:stop])
    return out


def kernel_x86(comp: CompressedGrid, surplus: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Compressed layout, one query point at a time (``nno x nfreq`` work)."""
    return _kernel_blocked(comp, surplus, X, block=1)


def kernel_avx(comp: CompressedGrid, surplus: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Compressed layout, 4-wide query blocks (AVX analog)."""
    return _kernel_blocked(comp, surplus, X, block=4)


def kernel_avx2(comp: CompressedGrid, surplus: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Compressed layout, 8-wide query blocks (AVX2/FMA analog)."""
    return _kernel_blocked(comp, surplus, X, block=8)


def kernel_avx512(comp: CompressedGrid, surplus: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Compressed layout with a threaded partial-sum reduction over grid points.

    Mirrors the paper's AVX-512 variant, which parallelises *inside* the
    kernel (OpenMP reduction over partial vector sums) instead of relying on
    the upper-level scheduler.  Each thread walks the chains of its slice
    of the grid points, ``_AVX512_BLOCK`` query rows at a time; NumPy
    releases the GIL inside the large gathers, element-wise products and
    GEMMs, so threads genuinely overlap.
    """
    surplus, X = _validate(comp, surplus, X)
    surplus_r = comp.reorder(surplus)
    m = X.shape[0]
    out = np.zeros((m, surplus.shape[1]), dtype=float)
    xpv = factor_values(comp, X)
    num_threads, block = _AVX512_THREADS, _AVX512_BLOCK
    bounds = np.linspace(0, comp.num_points, num_threads + 1, dtype=np.int64)

    def _partial(chunk_lo: int, chunk_hi: int) -> np.ndarray:
        chains, operand = comp.chains[chunk_lo:chunk_hi], surplus_r[chunk_lo:chunk_hi]
        part = np.zeros((m, surplus.shape[1]), dtype=float)
        for start in range(0, m, block):
            stop = min(start + block, m)
            part[start:stop] = _chain_products(chains, xpv[start:stop]) @ operand
        return part

    if num_threads == 1 or comp.num_points < 2 * num_threads:
        return _partial(0, comp.num_points)
    with ThreadPoolExecutor(max_workers=num_threads) as pool:
        futures = [
            pool.submit(_partial, int(bounds[i]), int(bounds[i + 1]))
            for i in range(num_threads)
            if bounds[i + 1] > bounds[i]
        ]
        for future in futures:
            out += future.result()
    return out


def kernel_cuda(comp: CompressedGrid, surplus: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Fully batched compressed kernel (CUDA analog).

    Query points go ``_CUDA_BLOCK`` at a time, the factor table shared
    across the block, with a single GEMM per block against the reordered
    surplus matrix.  The block shrinks so that its ``(block, nno)`` work
    buffer stays within ``_CUDA_BUFFER_BYTES``.
    """
    rows = _CUDA_BUFFER_BYTES // (8 * max(comp.num_points, 1))
    return _kernel_blocked(comp, surplus, X, block=max(1, min(_CUDA_BLOCK, rows)))


# --------------------------------------------------------------------------- #
# registry and dispatch
# --------------------------------------------------------------------------- #
KERNELS: dict[str, Callable] = {
    "gold": kernel_gold,
    "x86": kernel_x86,
    "avx": kernel_avx,
    "avx2": kernel_avx2,
    "avx512": kernel_avx512,
    "cuda": kernel_cuda,
}


def list_kernels() -> list[str]:
    """Names of the available interpolation kernels, in the paper's order."""
    return list(KERNELS.keys())


def get_kernel(name: str) -> Callable:
    """Look up a kernel by name, raising a helpful error for unknown names."""
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; available kernels: {', '.join(KERNELS)}"
        ) from None


def evaluate(
    comp: CompressedGrid,
    surplus: np.ndarray,
    X: np.ndarray,
    kernel: str = "cuda",
) -> np.ndarray:
    """Evaluate the interpolant at ``X`` with the named kernel.

    Parameters
    ----------
    comp
        Compressed grid from :func:`repro.core.compression.compress_grid`.
    surplus
        ``(num_points, num_dofs)`` (or 1-D) surpluses in grid order.
    X
        ``(m, dim)`` query points in the unit box.
    kernel
        One of :func:`list_kernels`.

    Returns
    -------
    numpy.ndarray
        ``(m, num_dofs)`` interpolated values.
    """
    func = get_kernel(kernel)
    surplus = np.asarray(surplus, dtype=float)
    scalar = surplus.ndim == 1
    out = func(comp, surplus[:, None] if scalar else surplus, X)
    return out[:, 0] if scalar else out

"""High-level interpolation API tying grids, surpluses and kernels together.

:class:`SparseGridInterpolant` is the object the rest of the library works
with: the OLG time iteration stores one interpolant per discrete shock state
(holding the 2(A-1) policy/value coefficients) and evaluates it through the
compressed kernels of :mod:`repro.core.kernels`.

Caching contract
----------------
An interpolant does not own its compressed representation: it fetches the
grid-attached shared one via :func:`repro.core.compression.compressed_for`,
so every interpolant on the same :class:`~repro.grids.grid.SparseGrid`
object (e.g. one per discrete shock state, or successive time-iteration
steps reusing a cached regular grid) shares a single
:class:`~repro.core.compression.CompressedGrid`.  That cache is keyed by
``grid.version`` and is invalidated by ``grid.add_points``.

:meth:`SparseGridInterpolant.set_surplus` stores a private frozen copy of
the surpluses as one stable 2-D array that is handed to the kernels
unchanged on every call, so the compressed grid's reorder memoization
(:meth:`~repro.core.compression.CompressedGrid.reorder_cached`) hits on
every evaluation after the first; setting new surpluses (or refitting via
:meth:`SparseGridInterpolant.fit_values`) naturally rolls the cache over,
while later changes to the caller's original array have no effect.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.grids.domain import BoxDomain
from repro.grids.grid import SparseGrid
from repro.grids.hierarchize import hierarchize
from repro.grids.regular import regular_sparse_grid

__all__ = ["SparseGridInterpolant", "evaluate_stacked"]


def evaluate_stacked(
    interpolants: list["SparseGridInterpolant | list[SparseGridInterpolant]"],
    Xs: list[np.ndarray],
) -> list:
    """Evaluate several interpolants sharing one grid with one basis pass.

    Every interpolant must reference the *same* grid object (e.g. the shared
    cached regular grid of the batched multi-scenario solver).  Entry ``i``
    of ``interpolants`` is paired with the query block ``Xs[i]``, expressed
    in its problem box, and is either one interpolant — the result is its
    values at the block — or a list of interpolants that also share kernel
    and box (one model's policies in several shock states): all of them are
    read at the block with ONE GEMM against their surpluses side by side,
    and the result is a list with one array per interpolant.  Equivalent
    to calling each interpolant on its block with the ``cuda`` kernel —
    bitwise, since that kernel is exactly a basis-matrix GEMM — but the
    per-query basis factors are computed once for the union of all query
    blocks, so ``k`` surplus sets pay one basis pass plus one small GEMM
    per block instead of ``k`` full kernel evaluations.
    """
    from repro.core.compression import compressed_for
    from repro.core.kernels import basis_matrix

    if not interpolants:
        return []
    if len(interpolants) != len(Xs):
        raise ValueError("need one query block per interpolant")
    groups = [e if isinstance(e, (list, tuple)) else [e] for e in interpolants]
    grid = groups[0][0].grid
    blocks = []
    for group, X in zip(groups, Xs):
        first = group[0]
        if first.grid is not grid:
            raise ValueError("evaluate_stacked requires one shared grid object")
        if not all(first.shares_basis_with(interp) for interp in group[1:]):
            raise ValueError("interpolants read at one block must share grid, kernel and box")
        X2 = np.atleast_2d(np.asarray(X, dtype=float))
        if X2.shape[1] != grid.dim:
            raise ValueError(f"query points must have {grid.dim} columns")
        blocks.append(first.domain.to_unit(X2))
    comp = compressed_for(grid)
    basis = basis_matrix(comp, np.concatenate(blocks, axis=0))
    outs: list = []
    start = 0
    for entry, group, block in zip(interpolants, groups, blocks):
        stop = start + block.shape[0]
        # the frozen 2-D surplus views keep the reorder memoization hitting
        out = basis[start:stop] @ comp.reorder_cached(*(i._surplus_2d for i in group))
        each, col = [], 0
        for interp in group:
            width = interp._surplus_2d.shape[1]
            each.append(out[:, col] if interp.surplus.ndim == 1 else out[:, col : col + width])
            col += width
        outs.append(each if entry is group else each[0])
        start = stop
    return outs


class SparseGridInterpolant:
    """A sparse grid together with fitted surpluses and a kernel choice.

    Parameters
    ----------
    grid
        The sparse grid on the unit box.
    surplus
        ``(num_points, num_dofs)`` (or ``(num_points,)``) hierarchical
        surpluses.  May be ``None`` initially and set later via
        :meth:`fit_values`.
    domain
        Optional problem box; query points are mapped onto the unit box
        before evaluation.  Defaults to the unit box itself.
    kernel
        Name of the interpolation kernel (see
        :func:`repro.core.kernels.list_kernels`); default is the batched
        compressed kernel, which is the fastest pure-NumPy variant.
    """

    def __init__(
        self,
        grid: SparseGrid,
        surplus: np.ndarray | None = None,
        domain: BoxDomain | None = None,
        kernel: str = "cuda",
    ) -> None:
        self.grid = grid
        self.domain = domain if domain is not None else BoxDomain.cube(grid.dim)
        if self.domain.dim != grid.dim:
            raise ValueError("domain dimension must match grid dimension")
        self.kernel = kernel
        self._surplus: np.ndarray | None = None
        self._surplus_2d: np.ndarray | None = None
        self._compressed = None
        if surplus is not None:
            self.set_surplus(surplus)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_function(
        cls,
        func: Callable[[np.ndarray], np.ndarray],
        dim: int,
        level: int = 3,
        domain: BoxDomain | None = None,
        kernel: str = "cuda",
    ) -> "SparseGridInterpolant":
        """Interpolate ``func`` on a regular sparse grid of the given level."""
        domain = domain if domain is not None else BoxDomain.cube(dim)
        grid = regular_sparse_grid(dim, level)
        values = np.asarray(func(domain.from_unit(grid.points)), dtype=float)
        interp = cls(grid, domain=domain, kernel=kernel)
        interp.fit_values(values)
        return interp

    # ------------------------------------------------------------------ #
    # surpluses
    # ------------------------------------------------------------------ #
    @property
    def surplus(self) -> np.ndarray:
        if self._surplus is None:
            raise RuntimeError("interpolant has no surpluses yet; call fit_values/set_surplus")
        return self._surplus

    @property
    def num_dofs(self) -> int:
        """Number of simultaneously interpolated functions."""
        s = self.surplus
        return 1 if s.ndim == 1 else s.shape[1]

    def set_surplus(self, surplus: np.ndarray) -> None:
        """Attach pre-computed surpluses.

        The interpolant takes a private *copy* of the surpluses and
        freezes it (``writeable = False``): one stable read-only array is
        handed to every kernel call, which is what makes the compressed
        grid's identity-keyed reorder memoization safe; attaching a new
        array rolls that memo over.  The caller's array is left untouched
        and later changes to it have no effect — refit or call
        ``set_surplus`` again to change values.  The compressed
        representation itself is re-resolved against ``grid.version`` on
        every evaluation, so no explicit invalidation is needed here.
        """
        surplus = np.array(surplus, dtype=float, copy=True)
        if surplus.shape[0] != len(self.grid):
            raise ValueError(
                f"surplus has {surplus.shape[0]} rows, grid has {len(self.grid)} points"
            )
        surplus.flags.writeable = False
        self._surplus = surplus
        # a view of the frozen base, itself read-only
        self._surplus_2d = surplus[:, None] if surplus.ndim == 1 else surplus

    def fit_values(self, values: np.ndarray) -> None:
        """Hierarchize nodal values (ordered like ``grid.points``)."""
        self.set_surplus(hierarchize(self.grid, values))

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def _ensure_compressed(self):
        from repro.core.compression import compressed_for

        # The shared, grid-attached compressed representation; cheap to
        # re-fetch (a version check) and automatically rebuilt after
        # grid.add_points.
        self._compressed = compressed_for(self.grid)
        return self._compressed

    def shares_basis_with(self, other: "SparseGridInterpolant") -> bool:
        """Whether ``other`` sees the basis values this one sees at a query point.

        True for the same grid object, kernel and box — what lets
        :func:`evaluate_stacked` read both at one block of points.
        """
        return (
            other.grid is self.grid
            and other.kernel == self.kernel
            and np.array_equal(other.domain.lower, self.domain.lower)
            and np.array_equal(other.domain.upper, self.domain.upper)
        )

    def __call__(self, X: np.ndarray, kernel: str | None = None) -> np.ndarray:
        """Evaluate the interpolant at points of the *problem* box.

        ``X`` has shape ``(m, dim)`` (a single point is also accepted);
        the result has shape ``(m, num_dofs)`` (or ``(m,)`` for scalar
        interpolants; a single point yields the corresponding 0-/1-D shape).
        """
        from repro.core.kernels import evaluate

        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        X2 = np.atleast_2d(X)
        if X2.shape[1] != self.grid.dim:
            raise ValueError(f"query points must have {self.grid.dim} columns")
        unit = self.domain.to_unit(X2)
        scalar = self.surplus.ndim == 1
        surplus2 = self._surplus_2d  # stable object -> reorder cache hits
        comp = self._ensure_compressed()
        out = evaluate(
            comp,
            surplus2,
            unit,
            kernel=kernel if kernel is not None else self.kernel,
        )
        if scalar:
            out = out[:, 0]
        return out[0] if single else out

    def max_error_at(self, func: Callable[[np.ndarray], np.ndarray], X: np.ndarray) -> float:
        """Maximum absolute interpolation error against ``func`` at ``X``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        exact = np.asarray(func(X), dtype=float)
        approx = self(X)
        return float(np.max(np.abs(exact - approx)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ndofs = "unset" if self._surplus is None else self.num_dofs
        return (
            f"SparseGridInterpolant(dim={self.grid.dim}, points={len(self.grid)}, "
            f"dofs={ndofs}, kernel={self.kernel!r})"
        )

"""High-level interpolation API tying grids and surpluses together.

:class:`SparseGridInterpolant` is the object the rest of the library works
with: the OLG time iteration stores one interpolant per discrete shock state
(holding the 2(A-1) policy/value coefficients) and evaluates it through the
default kernel of :func:`repro.core.kernels.evaluate` — the batched
compressed ``cuda`` analog, a basis-matrix GEMM.  The other kernels of the
paper's Table II ladder are the subject of the experiments, which call
:func:`~repro.core.kernels.evaluate` with a kernel name directly.

Interpolants on one grid are read together by :func:`evaluate_stacked`:
one basis pass at all query blocks, one GEMM per block against the
surpluses read there side by side.  :class:`StackedRead` is the same read
split in two — what does not change between reads (validation, the
compressed grid, the boxes, the reordered GEMM operands) built once, and
a call that maps the blocks onto the unit box, runs the basis pass and
the GEMMs — for callers that read the same interpolants many times, like
the residual calls of one Newton run.

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

__all__ = ["SparseGridInterpolant", "StackedRead", "evaluate_stacked"]


def evaluate_stacked(
    interpolants: list["SparseGridInterpolant | list[SparseGridInterpolant]"],
    Xs: list[np.ndarray],
) -> list:
    """Evaluate several interpolants sharing one grid with one basis pass.

    Every interpolant must reference the *same* grid object (e.g. the shared
    cached regular grid of the batched multi-scenario solver).  Entry ``i``
    of ``interpolants`` is paired with the query block ``Xs[i]``, expressed
    in its problem box, and is either one interpolant — the result is its
    values at the block — or a list of interpolants that also share the box
    (one model's policies in several shock states): all of them are read at
    the block with ONE GEMM against their surpluses side by side, and the
    result is a list with one array per interpolant.  The per-query basis
    factors are computed once for the union of all query blocks, so ``k``
    surplus sets pay one basis pass plus one small GEMM per block instead
    of ``k`` full kernel evaluations.

    An entry that is one interpolant equals that interpolant's own call on
    its block bit for bit: its kernel is exactly a basis-matrix GEMM of the
    same shape.  A group is one *wider* GEMM, whose BLAS blocking may sum a
    column in another order, so its values equal the per-interpolant calls
    to rounding only (a few 1e-15 relative; bitwise at some sizes, not at
    others).

    This is one read of a :class:`StackedRead`; build that once to read
    the same interpolants many times.
    """
    return StackedRead(interpolants).values(Xs)


class StackedRead:
    """:func:`evaluate_stacked` prepared once, for reading the same interpolants many times.

    ``interpolants`` is :func:`evaluate_stacked`'s first argument: groups of
    interpolants (or single ones) on one grid object, each group on one
    box.  Construction is the once-per-run half: it checks exactly that and
    fetches the compressed grid; the reordered GEMM operand of a group — of
    the chosen members of a group — is kept once first built.  A call is
    the per-read half: the blocks mapped onto the unit box, ONE basis pass
    over all of them (``kernels.basis_matrix``) and ONE GEMM per block.
    The interpolants and their grid must not change while the read is in
    use (surpluses are frozen on attach; ``grid.add_points`` would need a
    new read).
    """

    def __init__(
        self, interpolants: list["SparseGridInterpolant | list[SparseGridInterpolant]"]
    ) -> None:
        from repro.core.compression import compressed_for

        self.groups = [list(e) if isinstance(e, (list, tuple)) else [e] for e in interpolants]
        self._single = [not isinstance(e, (list, tuple)) for e in interpolants]
        self._operands: dict[tuple, np.ndarray] = {}
        self.comp = None
        if not self.groups:
            return
        grid = self.groups[0][0].grid
        for group in self.groups:
            first = group[0]
            if first.grid is not grid:
                raise ValueError("evaluate_stacked requires one shared grid object")
            if not all(first.shares_basis_with(interp) for interp in group[1:]):
                raise ValueError("interpolants read at one block must share grid and box")
        self.comp = compressed_for(grid)

    def _operand(self, g: int, picks: tuple[int, ...] | None) -> np.ndarray:
        key = (g, picks)
        operand = self._operands.get(key)
        if operand is None:
            group = self.groups[g]
            chosen = group if picks is None else [group[i] for i in picks]
            # the frozen 2-D surplus views keep the compressed grid's reorder memo hitting
            operand = self.comp.reorder_cached(*(i._surplus_2d for i in chosen))
            self._operands[key] = operand
        return operand

    def __call__(
        self, Xs: list[np.ndarray], groups=None, picks: tuple[int, ...] | None = None
    ) -> list[np.ndarray]:
        """The GEMM output of every block: ``(m_i, width)``, interpolants side by side.

        Block ``Xs[i]``, in its group's box, is read with group
        ``groups[i]`` — by default group ``i``, one block per group — and of
        that group with the interpolants at positions ``picks`` (default:
        all of them), in that order.
        """
        from repro.core import kernels

        if groups is None:
            if len(Xs) != len(self.groups):
                raise ValueError("need one query block per interpolant")
            groups = range(len(Xs))
        if not len(Xs):
            return []
        units = []
        for g, X in zip(groups, Xs):
            X = np.atleast_2d(np.asarray(X, dtype=float))
            if X.shape[1] != self.comp.dim:
                raise ValueError(f"query points must have {self.comp.dim} columns")
            units.append(self.groups[g][0].domain.to_unit(X))
        # through the module: whoever wraps kernels.basis_matrix sees every pass
        basis = kernels.basis_matrix(self.comp, np.concatenate(units))
        outs, start = [], 0
        for g, unit in zip(groups, units):
            stop = start + unit.shape[0]
            outs.append(basis[start:stop] @ self._operand(g, picks))
            start = stop
        return outs

    def values(self, Xs: list[np.ndarray]) -> list:
        """:func:`evaluate_stacked`'s answer: per entry its values, or one array per interpolant."""
        outs = []
        for single, group, out in zip(self._single, self.groups, self(Xs)):
            each, col = [], 0
            for interp in group:
                width = interp._surplus_2d.shape[1]
                each.append(out[:, col] if interp.surplus.ndim == 1 else out[:, col : col + width])
                col += width
            outs.append(each[0] if single else each)
        return outs


class SparseGridInterpolant:
    """A sparse grid together with fitted surpluses.

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
    """

    def __init__(
        self,
        grid: SparseGrid,
        surplus: np.ndarray | None = None,
        domain: BoxDomain | None = None,
    ) -> None:
        self.grid = grid
        self.domain = domain if domain is not None else BoxDomain.cube(grid.dim)
        if self.domain.dim != grid.dim:
            raise ValueError("domain dimension must match grid dimension")
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
    ) -> "SparseGridInterpolant":
        """Interpolate ``func`` on a regular sparse grid of the given level."""
        domain = domain if domain is not None else BoxDomain.cube(dim)
        grid = regular_sparse_grid(dim, level)
        values = np.asarray(func(domain.from_unit(grid.points)), dtype=float)
        interp = cls(grid, domain=domain)
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

        True for the same grid object and box — what lets
        :func:`evaluate_stacked` read both at one block of points.
        """
        return (
            other.grid is self.grid
            and np.array_equal(other.domain.lower, self.domain.lower)
            and np.array_equal(other.domain.upper, self.domain.upper)
        )

    def __call__(self, X: np.ndarray) -> np.ndarray:
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
        scalar = self.surplus.ndim == 1
        # the stable frozen 2-D surplus keeps the reorder memoization hitting
        out = evaluate(self._ensure_compressed(), self._surplus_2d, self.domain.to_unit(X2))
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
            f"dofs={ndofs})"
        )

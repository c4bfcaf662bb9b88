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
split in three — what does not change between reads (validation, the
compressed grid, the boxes' bound tables, the reordered GEMM operands)
built once; the query rows prepared once (:meth:`StackedRead.rows`, a
:class:`ReadRows` record: the rows' blocks, mapped onto the unit box by
bounds gathered by row, and the factor table's hats there); and any
number of reads of that record, each a basis pass from the kept hats and
the GEMMs — for callers that read the same interpolants many times, like
the residual calls of one Newton run.  :meth:`StackedRead.gradient` is
the read's weighted gradient from the same record, at all its rows or at
those :meth:`ReadRows.take` keeps: what those calls' linearizations take,
with no unit mapping or hats of their own.

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
the surpluses, so later changes to the caller's original array have no
effect.  Nothing below keeps the reordered surpluses between calls: a call
of the interpolant reorders them afresh.  The one place that keeps them is
a :class:`StackedRead`, which builds each GEMM operand once for the read
that uses it (every residual call of one Newton run); the frozen copy is
what keeps that operand from going stale while the read is in use.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.grids.domain import BoxDomain, unit_coordinates
from repro.grids.grid import SparseGrid
from repro.grids.hierarchize import hierarchize
from repro.grids.regular import regular_sparse_grid

__all__ = ["ReadRows", "SparseGridInterpolant", "StackedRead", "evaluate_stacked"]


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


class ReadRows(NamedTuple):
    """Query rows of a :class:`StackedRead` prepared once: any number of reads take them.

    The rows run in blocks, block ``i`` being rows ``bounds[i] :
    bounds[i + 1]`` in the box of group ``groups[i]``; ``widths`` are each
    row's box widths (one row for all when one group reads them all),
    ``unit`` the rows mapped onto the unit box and ``hats`` the factor
    table's :class:`~repro.core.kernels.Hats` there (``None`` where no
    read of one shared grid takes them).
    """

    groups: list
    bounds: np.ndarray
    widths: np.ndarray
    unit: np.ndarray
    hats: object

    def take(self, keep) -> "ReadRows":
        """The rows at the increasing positions ``keep``, in the blocks they were in."""
        widths = self.widths if self.widths.ndim == 1 else self.widths[keep]
        hats = None if self.hats is None else self.hats.take(keep)
        bounds = np.searchsorted(keep, self.bounds)
        return ReadRows(self.groups, bounds, widths, self.unit[..., keep, :], hats)

    @property
    def at(self):
        """What a basis pass at the rows takes: the hats, or the unit coordinates without them."""
        return self.unit if self.hats is None else self.hats


class StackedRead:
    """:func:`evaluate_stacked` prepared once, for reading the same interpolants many times.

    ``interpolants`` is :func:`evaluate_stacked`'s first argument: groups of
    interpolants (or single ones) on one grid object, each group on one
    box.  Construction is the once-per-run half: it checks exactly that,
    fetches the compressed grid and tables the boxes' bounds; the
    reordered GEMM operand of a group — of the chosen members of a group —
    is kept once first built.  Query rows are prepared once
    (:meth:`rows`): mapped onto the unit box with their group's bounds,
    gathered row by row, and the factor table's hats taken there.  A read
    of prepared rows (:meth:`read`) is ONE basis pass over all of them
    (``kernels.basis_matrix`` from the kept hats) and ONE GEMM per block;
    their :meth:`gradient` runs ``kernels.basis_gradient`` from the same
    hats, at all the prepared rows or at the ones :meth:`ReadRows.take`
    keeps.  A call (:meth:`__call__`) does both halves for a list of
    blocks.  The interpolants and their grid must not change while the
    read is in use (surpluses are frozen on attach; ``grid.add_points``
    would need a new read).
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
        #: the groups' boxes, one row a group
        self.lower = np.array([group[0].domain.lower for group in self.groups])
        self.widths = np.array([group[0].domain.widths for group in self.groups])

    def _operand(
        self, g: int, picks: tuple[int, ...] | None, columns: tuple[int, ...] | None = None
    ) -> np.ndarray:
        key = (g, picks, columns)
        operand = self._operands.get(key)
        if operand is None:
            group = self.groups[g]
            chosen = group if picks is None else [group[i] for i in picks]
            cols = slice(None) if columns is None else list(columns)
            # built once per read: the chosen surpluses are frozen on attach
            operand = self.comp.reorder(
                np.concatenate([i._surplus_2d[:, cols] for i in chosen], axis=1)
            )
            self._operands[key] = operand
        return operand

    def rows(self, X: np.ndarray, member) -> ReadRows:
        """The rows ``X`` prepared for reads: ``member`` names the group of all rows or of each.

        ``member`` runs in blocks, one per group read (a group may recur).
        Each row is mapped onto the unit box with its group's bounds —
        :func:`~repro.grids.domain.unit_coordinates`, the box map, on
        bounds gathered by ``member`` — and the factor table's
        hats are taken there, once for every read and gradient of these rows.
        """
        from repro.core import kernels

        groups, bounds, widths, unit, _ = self.map_rows(X, member)
        return ReadRows(groups, bounds, widths, unit, kernels.hats(self.comp, unit))

    def map_rows(self, X: np.ndarray, member) -> ReadRows:
        """:meth:`rows` without the hats: the rows in their blocks, mapped onto the unit box."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.comp.dim:
            raise ValueError(f"query points must have {self.comp.dim} columns")
        if np.ndim(member) == 0:
            groups, bounds = [int(member)], np.array([0, len(X)])
        else:  # where each run of one group starts; none for no rows
            starts = np.flatnonzero(member[1:] != member[:-1]) + 1
            starts = np.concatenate(([0], starts))[: len(X)]
            groups, bounds = member[starts].tolist(), np.append(starts, len(X))
        widths = self.widths[member]
        unit = unit_coordinates(X, self.lower[member], widths)
        return ReadRows(groups, bounds, widths, unit, None)

    def _blocks(self, Xs: list[np.ndarray], groups) -> ReadRows | None:
        """The blocks ``Xs``, read with ``groups`` (default: one block per group), prepared."""
        if groups is None:
            if len(Xs) != len(self.groups):
                raise ValueError("need one query block per interpolant")
            groups = range(len(Xs))
        blocks = [np.atleast_2d(np.asarray(X, dtype=float)) for X in Xs]
        if not blocks:
            return None
        for X in blocks:
            if X.shape[1] != self.comp.dim:
                raise ValueError(f"query points must have {self.comp.dim} columns")
        rows = self.rows(np.concatenate(blocks), np.repeat(list(groups), [len(X) for X in blocks]))
        # one output per block, also where neighbouring blocks share their group
        return rows._replace(groups=list(groups), bounds=np.cumsum([0] + [len(X) for X in blocks]))

    def read(
        self,
        rows: ReadRows,
        picks: tuple[int, ...] | None = None,
        columns: tuple[int, ...] | None = None,
    ) -> list[np.ndarray]:
        """The GEMM output of every block of the prepared ``rows``: ``(m_i, width)``.

        Each block is read with its group — of that group with the
        interpolants at positions ``picks`` (default: all of them), in that
        order, and of each interpolant the value columns ``columns``
        (default: all), so the GEMM operand holds those columns only — the
        interpolants side by side.
        """
        from repro.core import kernels

        # through the module: whoever wraps kernels.basis_matrix sees every pass
        basis = kernels.basis_matrix(self.comp, rows.at)
        return [
            basis[start:stop] @ self._operand(g, picks, columns)
            for g, start, stop in zip(rows.groups, rows.bounds[:-1], rows.bounds[1:])
        ]

    def __call__(
        self,
        Xs: list[np.ndarray],
        groups=None,
        picks: tuple[int, ...] | None = None,
        columns: tuple[int, ...] | None = None,
    ) -> list[np.ndarray]:
        """The GEMM output of every block: ``(m_i, width)``, interpolants side by side.

        Block ``Xs[i]``, in its group's box, is read with group
        ``groups[i]`` — by default group ``i``, one block per group — as
        :meth:`read` reads prepared rows.
        """
        rows = self._blocks(Xs, groups)
        return [] if rows is None else self.read(rows, picks, columns)

    def gradient(
        self,
        rows: ReadRows,
        weights: np.ndarray,
        picks: tuple[int, ...] | None = None,
        columns: tuple[int, ...] | None = None,
    ) -> np.ndarray:
        """The weighted gradient, at the prepared ``rows``, of the read :meth:`read` makes there.

        ``weights`` is ``(rows, interpolants, columns)``; the result is
        ``(rows, columns, dim)``: entry ``[r, c, b]`` is the sum over the
        chosen interpolants ``p`` of ``weights[r, p, c]`` times the
        derivative of interpolant ``p``'s column ``c`` in coordinate ``b``
        of the box at row ``r``, taken from the right as
        :func:`~repro.core.kernels.basis_gradient` takes it — from the hats
        ``rows`` keeps.  The weights meet the surpluses of the live chain
        slots before their basis derivatives (one batched GEMM per block,
        one GEMM summing each dimension's slots after), so no call holds
        the gradient of every interpolant, nor a dense ``(m, dim,
        num_points)`` array.
        """
        from repro.core import kernels

        weights = np.asarray(weights, dtype=float)
        width = weights.shape[2]
        slopes, points, dims = kernels.basis_gradient(self.comp, rows.at)
        if not len(points):  # a grid of the root alone is constant
            return np.zeros((len(slopes), width, self.comp.dim))
        # (columns, rows, slots): the weighted surpluses of every live slot
        weighted = np.empty((width, len(slopes), len(points)))
        by_column = weights.transpose(2, 0, 1)
        for g, start, stop in zip(rows.groups, rows.bounds[:-1], rows.bounds[1:]):
            operand = self._slot_operand(g, picks, columns, width, points)
            np.matmul(by_column[:, start:stop], operand, out=weighted[:, start:stop])
        weighted *= slopes
        # the sum over each dimension's slots: one GEMM against their indicator
        out = (weighted @ (dims[:, None] == np.arange(self.comp.dim))).transpose(1, 0, 2)
        # unit-box derivatives to box derivatives, each row by its group's widths
        out /= rows.widths[..., None, :]
        return out

    def _slot_operand(self, g: int, picks, columns, width: int, points) -> np.ndarray:
        """``(columns, interpolants, slots)``: the operand's row of the point of every live slot."""
        key = ("by slot", g, picks, columns)
        operand = self._operands.get(key)
        if operand is None:
            rows = self._operand(g, picks, columns)[points]
            operand = rows.reshape(len(rows), -1, width).transpose(2, 1, 0).copy()
            self._operands[key] = operand
        return operand

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
        freezes it (``writeable = False``), so the values a
        :class:`StackedRead` reordered into its GEMM operand cannot change
        under it.  The caller's array is left untouched and later changes
        to it have no effect — refit or call ``set_surplus`` again to
        change values (a read built before that keeps the old ones).  The
        compressed representation itself is re-resolved against
        ``grid.version`` on every evaluation, so no explicit invalidation
        is needed here.
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
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        X2 = np.atleast_2d(X)
        if X2.shape[1] != self.grid.dim:
            raise ValueError(f"query points must have {self.grid.dim} columns")
        scalar = self.surplus.ndim == 1
        out = self.at_unit(self.domain.to_unit(X2))
        if scalar:
            out = out[:, 0]
        return out[0] if single else out

    def at_unit(self, U: np.ndarray) -> np.ndarray:
        """The ``(m, num_dofs)`` values at the points ``U`` of the unit box, one row a point."""
        from repro.core.compression import compressed_for
        from repro.core.kernels import evaluate

        return evaluate(compressed_for(self.grid), self._surplus_2d, U)

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

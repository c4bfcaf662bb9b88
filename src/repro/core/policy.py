"""Policy containers for time iteration.

The unknown of a dynamic stochastic model is a *policy function*
``p : Z x B -> R^num_policies`` (paper Sec. II-A).  Following the paper we
approximate it with one adaptive sparse grid per discrete state ``z``:

* :class:`StatePolicy` — the grid, surpluses and compressed representation
  for one state;
* :class:`PolicySet` — the collection over all ``Ns`` states, which is what
  gets interpolated when solving the equilibrium conditions (``p_next`` in
  Algorithm 1);
* :class:`PolicyRead` — one or more models' policy sets prepared once for
  many reads of each row's own model in several states at once, what a
  Newton run of the equilibrium solver builds for its residual calls; a
  call prepares its rows once (:meth:`PolicyRead.rows`), and its read and
  its linearization (:meth:`PolicyRead.gradient`, the read's gradient
  weighted over the states) both take that record;
* :func:`values_on_grid` — the previous iterate at today's grid points: its
  stored nodal values where the grids share their points, an interpolation
  otherwise.  It is the one rule behind the warm start and
  :meth:`PolicySet.distance`, so a non-adaptive pass compares its iterates
  without a basis pass.

State policies that share one grid object (the non-adaptive time iteration
hands every state the same cached regular grid) also share its
hierarchization structure and compressed kernel representation through the
grid-attached caches (see :mod:`repro.grids.grid`), so fitting and
evaluating ``Ns`` policies pays the grid preprocessing once; states that
also share the box are read at a block of points with one basis pass
(:class:`PolicyRead`; :meth:`PolicySet.evaluate_all_states` is one such
read).  A policy evaluates with the one production kernel, the default of
:func:`repro.core.kernels.evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grids.domain import BoxDomain
from repro.grids.grid import SparseGrid
from repro.grids.hierarchize import hierarchize
from repro.grids.interpolation import ReadRows, SparseGridInterpolant, StackedRead

__all__ = ["StatePolicy", "PolicySet", "PolicyRead", "values_on_grid"]


@dataclass
class StatePolicy:
    """Policy approximation for a single discrete state.

    Attributes
    ----------
    state
        The discrete state index ``z``.
    interpolant
        The sparse grid interpolant holding ``num_policies`` coefficients
        per grid point.
    nodal_values
        The raw nodal values the surpluses were fitted to (kept because the
        convergence metric and warm starts reuse them).
    """

    state: int
    interpolant: SparseGridInterpolant
    nodal_values: np.ndarray

    @classmethod
    def from_values(
        cls,
        state: int,
        grid: SparseGrid,
        values: np.ndarray,
        domain: BoxDomain,
    ) -> "StatePolicy":
        """Fit a policy from nodal values on a grid."""
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[0] != len(grid):
            raise ValueError("values rows must match grid points")
        interp = SparseGridInterpolant(grid, hierarchize(grid, values), domain)
        return cls(state=state, interpolant=interp, nodal_values=values)

    @classmethod
    def from_surplus(
        cls,
        state: int,
        grid: SparseGrid,
        surplus: np.ndarray,
        nodal_values: np.ndarray,
        domain: BoxDomain,
    ) -> "StatePolicy":
        """Rebuild a policy from already-fitted surpluses.

        Unlike :meth:`from_values` this does *not* re-hierarchize, so a
        policy deserialized from disk evaluates bit-for-bit like the one
        that was saved (the property the checkpoint/resume machinery of
        the scenario engine relies on).
        """
        interp = SparseGridInterpolant(grid, surplus, domain)
        nodal_values = np.asarray(nodal_values, dtype=float)
        if nodal_values.ndim == 1:
            nodal_values = nodal_values[:, None]
        if nodal_values.shape[0] != len(grid):
            raise ValueError("nodal_values rows must match grid points")
        return cls(state=state, interpolant=interp, nodal_values=nodal_values)

    @property
    def grid(self) -> SparseGrid:
        return self.interpolant.grid

    @property
    def num_points(self) -> int:
        return len(self.grid)

    @property
    def num_policies(self) -> int:
        return self.nodal_values.shape[1]

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Evaluate the policy at points of the problem box."""
        return self.interpolant(X)


class PolicySet:
    """Policies for all discrete states (``p = (p(1), ..., p(Ns))``)."""

    def __init__(self, policies: list[StatePolicy]) -> None:
        if not policies:
            raise ValueError("PolicySet needs at least one state policy")
        dims = {p.interpolant.grid.dim for p in policies}
        dofs = {p.num_policies for p in policies}
        if len(dims) != 1 or len(dofs) != 1:
            raise ValueError("all state policies must share dim and num_policies")
        self.policies = list(policies)

    # ------------------------------------------------------------------ #
    # protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.policies)

    def __getitem__(self, z: int) -> StatePolicy:
        return self.policies[z]

    def __iter__(self):
        return iter(self.policies)

    @property
    def num_states(self) -> int:
        return len(self.policies)

    @property
    def num_policies(self) -> int:
        return self.policies[0].num_policies

    @property
    def state_dim(self) -> int:
        return self.policies[0].interpolant.grid.dim

    @property
    def total_points(self) -> int:
        """Total grid points across states (workload proxy of Sec. IV-A)."""
        return sum(p.num_points for p in self.policies)

    @property
    def points_per_state(self) -> list[int]:
        """Grid points per state (``M_z`` in the paper's partitioning rule)."""
        return [p.num_points for p in self.policies]

    # ------------------------------------------------------------------ #
    # evaluation and comparison
    # ------------------------------------------------------------------ #
    def evaluate(self, z: int, X: np.ndarray) -> np.ndarray:
        """Interpolate the policy of state ``z`` at points ``X``."""
        return self.policies[z](X)

    def evaluate_all_states(self, X: np.ndarray, states=None) -> np.ndarray:
        """Interpolate the policies of ``states`` (default: every state) at ``X``.

        Returns an array of shape ``(len(states), m, num_policies)`` (no
        ``m`` axis for a single point) — this is the access pattern of the
        equilibrium solver, which needs next period's policy in *all*
        shock states at once (the interpolation bottleneck the paper
        optimises).  One :class:`PolicyRead` call: one basis pass at ``X``
        when the states share one grid object and box, every state on its
        own otherwise (adaptive grids); no rows read as an empty array.
        """
        chosen = range(self.num_states) if states is None else states
        return PolicyRead([self])(chosen, 0, X)

    def distance(self, other: "PolicySet") -> dict:
        """Policy distance used as the convergence criterion of Algorithm 1.

        The policies are compared at the grid points of ``self``, state by
        state: ``self``'s nodal values against ``other``'s values there
        (:func:`values_on_grid` — its nodal values where the two share grid
        points, every non-adaptive pass, otherwise ``other`` interpolated).

        Returns a dict with ``linf``, ``l2`` (root mean square), their
        relative forms and the per-state maxima.
        """
        if other.num_states != self.num_states:
            raise ValueError("policy sets must have the same number of states")
        linf = 0.0
        rel_linf = 0.0
        sq_sum = 0.0
        rel_sq_sum = 0.0
        count = 0
        per_state = []
        for mine, prev in zip(self.policies, other.policies):
            X = mine.interpolant.domain.from_unit(mine.grid.points)
            old = values_on_grid(prev, mine.grid, X)
            diff = np.abs(mine.nodal_values - old)
            rel = diff / (1.0 + np.abs(old))
            state_linf = float(diff.max()) if diff.size else 0.0
            per_state.append(state_linf)
            # np.maximum, not max(): a NaN difference must read as a NaN
            # distance (never "< tolerance"), and max(0.0, nan) is 0.0
            linf = float(np.maximum(linf, state_linf))
            rel_linf = float(np.maximum(rel_linf, rel.max() if rel.size else 0.0))
            sq_sum += float((diff**2).sum())
            rel_sq_sum += float((rel**2).sum())
            count += diff.size
        return {
            "linf": linf,
            "l2": float(np.sqrt(sq_sum / max(count, 1))),
            "rel_linf": rel_linf,
            "rel_l2": float(np.sqrt(rel_sq_sum / max(count, 1))),
            "per_state_linf": per_state,
        }


def values_on_grid(prev: StatePolicy, grid: SparseGrid, X: np.ndarray) -> np.ndarray:
    """The previous iterate ``prev`` at the points ``X`` of ``grid``.

    Its stored nodal values when ``grid`` has exactly ``prev``'s points —
    every non-adaptive iteration, and an adaptive step before it refines —
    so warm starts and the convergence distance see the bits the
    last step produced without a basis pass; an interpolation otherwise (a
    restart from another level, a refined grid).
    """
    if prev.grid is grid or np.array_equal(prev.grid.points, grid.points):
        return prev.nodal_values
    return np.atleast_2d(prev(X))


class PolicyRead:
    """The policies of one or more models read together many times, prepared once.

    ``policy_sets`` holds one :class:`PolicySet` per model (one model, or
    the members of a stacked group); the sets have equal ``num_policies``.
    Query rows are prepared once, :meth:`rows` of ``member`` and ``X``: the
    rows of ``X`` (each in its model's box; ``member`` names the model, one
    index or one per row, sorted) mapped onto the unit box — and, on a
    shared grid, the factor table's hats taken there.  Any number of reads
    then take that record: ``read.read(states, rows, columns)`` is the
    policy columns ``columns`` (default: all) of each row's model in the
    shock states ``states``, one ``(len(states), rows, len(columns))``
    array (empty for no rows or no states), and :meth:`gradient` is that
    read's gradient at the rows of the record, or of ``rows.take(keep)``,
    summed over the states with per-row weights.  A call ``read(states,
    member, X, columns)`` prepares and reads once, with no row axis for one
    point ``X`` of shape ``(d,)``.

    When every policy sits on one grid object and each model's states share
    its box (time iteration's shared regular grid), the read is a
    :class:`~repro.grids.interpolation.StackedRead`: a read is one basis
    pass over all rows, from the record's hats, and one GEMM per model
    against that model's surpluses of ``states`` side by side, the operand
    built once per model, state set and column pick from the picked
    columns only.  Otherwise (adaptive grids) one model is read state by
    state from the record's unit coordinates, and a gradient takes each
    state grid's hats at its rows; several models are refused at
    construction, since stacks share one grid and adaptive solves never
    stack.
    """

    def __init__(self, policy_sets: list[PolicySet]) -> None:
        self.interps = [[p.interpolant for p in ps] for ps in policy_sets]
        self.width = policy_sets[0].num_policies
        first = self.interps[0][0]
        shared = all(
            i.grid is first.grid and own[0].shares_basis_with(i)
            for own in self.interps
            for i in own
        )
        if not shared and len(self.interps) > 1:
            raise ValueError("the policies of several models must share one grid object")
        self.shared = StackedRead(self.interps) if shared else None
        # per-state grids: a read of one state's policy for its gradient
        self.per_state = None if shared else [StackedRead([i]) for i in self.interps[0]]

    def rows(self, member, X: np.ndarray) -> ReadRows:
        """The rows ``X`` of the models ``member``, prepared for every read and gradient there."""
        rows = np.atleast_2d(np.asarray(X, dtype=float))
        if self.shared is not None:
            return self.shared.rows(rows, member)
        # one model, each state on its grid and box: unit coordinates (states, rows, d)
        each = [read.map_rows(rows, member) for read in self.per_state]
        return each[0]._replace(unit=np.stack([r.unit for r in each]))

    def read(self, states, rows: ReadRows, columns=None) -> np.ndarray:
        """The columns ``columns`` of the policies of ``states`` at the prepared ``rows``."""
        states, m = tuple(map(int, states)), int(rows.bounds[-1])
        width = self.width if columns is None else len(columns)
        if not (states and m):
            return np.empty((len(states), m, width))
        if self.shared is None:
            picked = slice(None) if columns is None else list(columns)
            return np.stack([self.interps[0][s].at_unit(rows.unit[s])[:, picked] for s in states])
        blocks = self.shared.read(rows, states, columns)
        flat = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        # (rows, states x columns) -> (states, rows, columns), a view
        return flat.reshape(m, len(states), width).swapaxes(0, 1)

    def __call__(self, states, member, X: np.ndarray, columns=None) -> np.ndarray:
        values = self.read(states, self.rows(member, X), columns)
        return values[:, 0] if np.ndim(X) == 1 else values

    def gradient(self, states, rows: ReadRows, columns, weights: np.ndarray) -> np.ndarray:
        """The read's gradient at the prepared ``rows``, summed over the states with row weights.

        ``weights`` is ``(len(states), rows, len(columns))``; the result is
        ``(rows, len(columns), d)``: ``sum_s weights[s, r, c]`` times the
        derivative of state ``s``'s column ``columns[c]`` in coordinate
        ``b`` of the box at row ``r``, taken from the right as a forward
        difference sees it (at points of the box: reads clip onto it).  The
        sum over the states is taken before the gradient is, so no call
        holds the ``(states, rows, columns, d)`` array.
        """
        states, m = tuple(map(int, states)), int(rows.bounds[-1])
        if not (states and m):
            return np.zeros((m, np.shape(weights)[-1], rows.unit.shape[-1]))
        if self.shared is None:
            total = 0.0
            for s, w in zip(states, weights):  # each state on its grid and box
                read = self.per_state[s]
                own = rows._replace(unit=rows.unit[s], widths=read.widths[0])
                total = total + read.gradient(own, w[:, None, :], None, columns)
            return total
        # the weights by row: (rows, states, columns)
        return self.shared.gradient(rows, np.swapaxes(weights, 0, 1), states, columns)

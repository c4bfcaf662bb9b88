"""Policy containers for time iteration.

The unknown of a dynamic stochastic model is a *policy function*
``p : Z x B -> R^num_policies`` (paper Sec. II-A).  Following the paper we
approximate it with one adaptive sparse grid per discrete state ``z``:

* :class:`StatePolicy` — the grid, surpluses and compressed representation
  for one state;
* :class:`PolicySet` — the collection over all ``Ns`` states, which is what
  gets interpolated when solving the equilibrium conditions (``p_next`` in
  Algorithm 1).

State policies that share one grid object (the non-adaptive time iteration
hands every state the same cached regular grid) also share its
hierarchization structure and compressed kernel representation through the
grid-attached caches (see :mod:`repro.grids.grid`), so fitting and
evaluating ``Ns`` policies pays the grid preprocessing once; states that
also share the box are read at a block of points with one basis pass
(:meth:`PolicySet.evaluate_all_states`).  A policy evaluates with the one
production kernel, the default of :func:`repro.core.kernels.evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grids.domain import BoxDomain
from repro.grids.grid import SparseGrid
from repro.grids.hierarchize import hierarchize
from repro.grids.interpolation import SparseGridInterpolant, evaluate_stacked

__all__ = ["StatePolicy", "PolicySet"]


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
        optimises).  When the states share one grid object and box, one
        basis pass at ``X`` serves all of them
        (:func:`~repro.grids.interpolation.evaluate_stacked`); otherwise
        (adaptive grids) every state is evaluated on its own.
        """
        chosen = self.policies if states is None else [self.policies[z] for z in states]
        interps = [p.interpolant for p in chosen]
        if all(map(interps[0].shares_basis_with, interps[1:])):
            (values,) = evaluate_stacked([interps], [X])
        else:
            values = [np.atleast_2d(interp(X)) for interp in interps]
        out = np.stack(values)
        return out[:, 0] if np.ndim(X) == 1 else out

    def distance(self, other: "PolicySet", sample: np.ndarray | None = None) -> dict:
        """Policy distance used as the convergence criterion of Algorithm 1.

        By default the policies are compared at the union of the grid
        points of ``self``; a fixed ``sample`` of evaluation points may be
        supplied for a grid-independent metric.

        Returns a dict with ``linf``, ``l2`` (root mean square) and the
        per-state maxima.
        """
        if other.num_states != self.num_states:
            raise ValueError("policy sets must have the same number of states")
        linf = 0.0
        rel_linf = 0.0
        sq_sum = 0.0
        rel_sq_sum = 0.0
        count = 0
        per_state = []
        for z in range(self.num_states):
            mine = self.policies[z]
            if sample is None:
                X = mine.interpolant.domain.from_unit(mine.grid.points)
            else:
                X = sample
            new = np.atleast_2d(mine(X))
            old = np.atleast_2d(other.policies[z](X))
            diff = np.abs(new - old)
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

"""Cross-scenario stacked evaluation of the OLG equilibrium systems.

Sweep scenarios that share a grid topology (same generations, shock count,
grid level) typically differ only in calibration *scalars* — tax rates,
discount factors, shock processes.  :class:`StackedOLGGroup` exploits that:
it stacks the members' grid points row-wise into ONE
:class:`~repro.olg.euler.EulerSystem` over all members, each row naming its
member, and the Euler systems of all scenarios in all shock states are
solved as a single ``(n_scenarios * n_states * n_points)``-row batch; every
Newton residual evaluation is a handful of vectorized array operations plus
ONE basis pass over the common grid that serves every member and every
successor state.

The group itself only maps stacked rows to members (its counts fixed at
construction), concatenates the members' blocks and splits the result.
The system checks that the members agree structurally and raises
:class:`~repro.olg.euler.StructuralMismatch`, re-exported here, otherwise;
the caller then falls back to per-scenario solves.
"""

from __future__ import annotations

import numpy as np

from repro.core.policy import PolicySet
from repro.olg.euler import EulerSystem, StructuralMismatch

__all__ = ["StackedOLGGroup", "StructuralMismatch"]


class StackedOLGGroup:
    """Point solver for several OLG models sharing one grid topology.

    Parameters
    ----------
    models
        One :class:`~repro.olg.model.OLGModel` per scenario, structurally
        equal (see :class:`~repro.olg.euler.EulerSystem`).
    counts
        Number of rows contributed by each member: its grid points, once
        per shock state solved in the same call (all equal when the
        members share one regular grid, but the stacking is general).
    """

    def __init__(self, models: list, counts: list[int]) -> None:
        if not models:
            raise ValueError("StackedOLGGroup needs at least one model")
        if len(models) != len(counts):
            raise ValueError("need one point count per model")
        self.models = list(models)
        self.counts = [int(c) for c in counts]
        self.system = EulerSystem(self.models)
        #: the member of every stacked row
        self.member = np.repeat(np.arange(len(self.models)), self.counts)

    def euler_residuals_rows(
        self,
        z: int | np.ndarray,
        rows: np.ndarray,
        X: np.ndarray,
        savings: np.ndarray,
        policies: list[PolicySet],
    ) -> np.ndarray:
        """Euler residuals for an arbitrary (sorted) subset of stacked rows."""
        return self.system.euler_residuals(z, self.member[rows], X, savings, policies)

    def value_functions_rows(
        self,
        z: int | np.ndarray,
        rows: np.ndarray,
        X: np.ndarray,
        savings: np.ndarray,
        policies: list[PolicySet],
    ) -> np.ndarray:
        """Bellman value updates for a (sorted) subset of stacked rows."""
        return self.system.value_functions(z, self.member[rows], X, savings, policies)

    def solve_points(
        self,
        z: int | np.ndarray,
        Xs: list[np.ndarray],
        policies: list[PolicySet],
        guesses: list[np.ndarray | None],
    ) -> list[np.ndarray]:
        """Solve every member's rows in one batch.

        ``Xs[i]`` are member ``i``'s grid points in its own problem box,
        ``policies[i]`` its next-iterate policy set, ``guesses[i]`` optional
        warm-start policy values per point; ``z`` is the shock state of all
        rows, or one state per row of the concatenated blocks (a pass of
        the time iteration hands every member its grid once per state).
        Returns one ``(counts[i], num_policies)`` array per member: the
        rows of each member's own
        :meth:`~repro.olg.model.OLGModel.solve_points_batch`, solved in
        one stacked Newton.
        """
        if len(Xs) != len(self.models) or len(policies) != len(self.models):
            raise ValueError("need one point block and policy set per member")
        blocks = [np.atleast_2d(np.asarray(X, dtype=float)) for X in Xs]
        if [b.shape[0] for b in blocks] != self.counts:
            raise ValueError("point block size does not match member count")
        width = 2 * self.system.num_savers
        # a member without a warm start gets unusable (NaN) guess rows
        guess_rows = np.concatenate(
            [
                np.full((c, width), np.nan) if g is None else np.atleast_2d(g)[:, :width]
                for g, c in zip(guesses, self.counts)
            ]
        )
        out = self.system.solve(z, self.member, np.concatenate(blocks), policies, guess_rows)
        return np.split(out, np.cumsum(self.counts)[:-1])

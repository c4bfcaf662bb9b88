"""Cross-scenario stacked evaluation of the OLG equilibrium systems.

Sweep scenarios that share a grid topology (same generations, shock count,
grid level) typically differ only in calibration *scalars* — tax rates,
discount factors, shock processes.  :class:`StackedOLGGroup` exploits that:
it stacks the members' grid points row-wise into ONE
:class:`~repro.olg.euler.EulerSystem` with per-row parameters — the shock
state among them, so a row is (member, shock state, grid point) — and the
Euler systems of all scenarios in all shock states are solved as a single
``(n_scenarios * n_states * n_points)``-row batch; every Newton residual
evaluation is a handful of vectorized array operations plus ONE basis pass
over the common grid that serves every member and every successor state
instead of thousands of scalar calls.  The run prepares that read once
(:class:`repro.core.policy.PolicyRead` over the members' policy sets, a
:class:`repro.grids.interpolation.StackedRead` with one reordered operand
per member and successor set), so a call is the pass plus one GEMM per
member.

Structural ingredients that change the *shape* of the system — the age
profile, preferences, technology, fiscal rule, nonlinear-solver settings —
must agree across members; :class:`StructuralMismatch` is raised otherwise
and the caller falls back to per-scenario solves.  The group itself only
checks that, concatenates the members' blocks and splits the result; rows
the batched Newton cannot converge keep the batch's best iterate, exactly
as in a per-scenario solve (:meth:`repro.olg.euler.EulerSystem.solve`).
"""

from __future__ import annotations

import numpy as np

from repro.core.policy import PolicySet
from repro.olg.euler import EulerSystem

__all__ = ["StackedOLGGroup", "StructuralMismatch"]


class StructuralMismatch(ValueError):
    """Members differ in a way that changes the stacked system's structure."""


def _structure(model) -> dict:
    """What must agree across members, by the name the mismatch is reported under."""
    cal, s = model.calibration, model.solver
    return {
        "model classes": type(model),
        "calibration structure": (
            cal.num_generations,
            cal.num_states,
            cal.retirement_age,
            cal.efficiency.tobytes(),
        ),
        "preferences/technology/fiscal": (model.utility, model.technology, model.fiscal),
        "nonlinear solver settings": (
            s.tol,
            s.max_iterations,
            s.fd_step,
            s.max_step,
        ),
    }


class StackedOLGGroup:
    """Point solver for several OLG models sharing one grid topology.

    Parameters
    ----------
    models
        One :class:`~repro.olg.model.OLGModel` per scenario.  All members
        must agree on every structural ingredient (checked; see
        :class:`StructuralMismatch`); per-member scalars (discount factor,
        shock labels, transition probabilities, domain boxes) are stacked.
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
        base = _structure(models[0])
        for model in models[1:]:
            for name, theirs in _structure(model).items():
                if theirs != base[name]:
                    raise StructuralMismatch(f"{name} differ")
        self.models = list(models)
        self.counts = [int(c) for c in counts]
        self.system = EulerSystem(self.models, self.counts)

    def euler_residuals_rows(
        self,
        z: int | np.ndarray,
        rows: np.ndarray,
        X: np.ndarray,
        savings: np.ndarray,
        policies: list[PolicySet],
    ) -> np.ndarray:
        """Euler residuals for an arbitrary (sorted) subset of stacked rows."""
        return self.system.euler_residuals(z, rows, X, savings, policies)

    def value_functions_rows(
        self,
        z: int | np.ndarray,
        rows: np.ndarray,
        X: np.ndarray,
        savings: np.ndarray,
        policies: list[PolicySet],
    ) -> np.ndarray:
        """Bellman value updates for a (sorted) subset of stacked rows."""
        return self.system.value_functions(z, rows, X, savings, policies)

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
        out = self.system.solve(z, np.concatenate(blocks), policies, guess_rows)
        return np.split(out, np.cumsum(self.counts)[:-1])

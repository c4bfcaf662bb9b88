"""Nonlinear solver for the per-grid-point equilibrium systems.

The paper solves the ~60-equation nonlinear system at every grid point with
Ipopt.  This reproduction uses a damped Newton method with a finite
difference Jacobian and a backtracking line search and nothing after it —
the surrounding code path (repeated interpolation of next-period policies
inside the residual function) is identical, which is what matters for the
performance experiments.  The Newton iteration exists once, row-masked over
a batch of independent systems (:class:`BatchNewtonSolver`), and issues few,
large residual calls — at most three per iteration, whatever the batch and
the system size — because a residual call is an interpolation kernel launch;
:class:`NewtonSolver` holds the settings and the single-system entry point.
A system Newton leaves stalled keeps its best iterate and is reported
unconverged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["PointSolveResult", "NewtonSolver", "BatchSolveResult", "BatchNewtonSolver"]


@dataclass
class PointSolveResult:
    """Outcome of one nonlinear point solve."""

    x: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    residual_evaluations: int


class NewtonSolver:
    """Damped Newton with finite-difference Jacobian: the settings and one system.

    Parameters
    ----------
    tol
        Convergence tolerance on the residual infinity norm.
    max_iterations
        Newton iteration cap.
    fd_step
        Relative step of the forward-difference Jacobian.
    max_step
        Cap on the Newton step infinity norm (guards against blow-ups when
        the Jacobian is nearly singular far from the solution).
    """

    def __init__(
        self,
        tol: float = 1e-8,
        max_iterations: int = 40,
        fd_step: float = 1e-7,
        max_step: float = 5.0,
    ) -> None:
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.tol = tol
        self.max_iterations = max_iterations
        self.fd_step = fd_step
        self.max_step = max_step

    def solve(self, fn: Callable, x0: np.ndarray) -> PointSolveResult:
        """Solve ``fn(x) = 0`` starting from ``x0``.

        One system is a batch of one: :class:`BatchNewtonSolver` on a single
        row, whose best iterate is the answer whether or not it converged.
        A residual call carries several candidates for that row; ``fn``
        sees them one at a time.
        """
        batch = BatchNewtonSolver(self).solve(
            lambda rows, X: np.stack([np.asarray(fn(x), dtype=float) for x in X]),
            np.asarray(x0, dtype=float)[None, :],
        )
        return PointSolveResult(
            batch.x[0],
            float(batch.residual_norm[0]),
            bool(batch.converged[0]),
            batch.iterations,
            batch.residual_evaluations,
        )


@dataclass
class BatchSolveResult:
    """Outcome of a batched nonlinear solve over ``m`` independent systems."""

    x: np.ndarray              # (m, n) best iterate per system
    residual_norm: np.ndarray  # (m,) residual infinity norm at ``x``
    converged: np.ndarray      # (m,) bool
    iterations: int
    residual_evaluations: int  # vectorized residual calls, not per-row calls


#: step fractions the line search tries after the full step
_HALVINGS = 0.5 ** np.arange(1, 12)


class BatchNewtonSolver:
    """Damped Newton over a batch of independent small systems.

    Forward-difference Jacobian, capped step, 12-step backtracking line
    search on the residual infinity norm, row-masked over ``m`` systems at
    once.  A Newton iteration makes at most THREE residual calls whatever
    ``m`` and ``n`` are: one for the Jacobian (every active row ``n`` times,
    copy ``j`` with column ``j`` perturbed), one for the full step of every
    active row, and one for all eleven halvings of the rows the full step
    did not serve, each of which takes the first halving that lowers its
    norm.  Rows whose line search stalls are deactivated and reported
    unconverged with their best iterate.

    The residual callback receives ``(rows, X)`` where ``rows`` indexes the
    original batch (so the callback can look up per-row problem data) and
    ``X`` holds the candidate unknowns for exactly those rows.  ``rows`` is
    nondecreasing and may repeat: a row appears once per candidate the call
    evaluates for it.  Rows must be independent — a row's residual depends
    on its own ``X`` row only.
    """

    def __init__(self, settings: NewtonSolver | None = None) -> None:
        """Take tolerance, iteration cap, FD step and step cap from a :class:`NewtonSolver`."""
        settings = settings if settings is not None else NewtonSolver()
        self.tol, self.max_iterations = settings.tol, settings.max_iterations
        self.fd_step, self.max_step = settings.fd_step, settings.max_step

    def solve(self, fn: Callable, x0: np.ndarray) -> BatchSolveResult:
        """Solve ``fn(rows, X) = 0`` row-wise starting from ``x0`` (m, n)."""
        X = np.array(x0, dtype=float)
        if X.ndim != 2:
            raise ValueError("x0 must be (m, n)")
        m, n = X.shape
        evals = 0

        def residual(rows: np.ndarray, candidates: np.ndarray) -> np.ndarray:
            nonlocal evals
            evals += 1
            return np.asarray(fn(rows, candidates.reshape(-1, n)), dtype=float).reshape(
                candidates.shape
            )

        F = residual(np.arange(m), X)
        norms = np.max(np.abs(F), axis=1)
        best_x, best_norm = X.copy(), norms.copy()
        active = norms >= self.tol
        diag = np.arange(n)
        iterations = 0
        while iterations < self.max_iterations and active.any():
            iterations += 1
            idx = np.flatnonzero(active)
            Xa, Fa, norm_a = X[idx], F[idx], norms[idx]
            # forward-difference Jacobian: Fp[r, j] is row r's residual with
            # column j perturbed
            steps = self.fd_step * np.maximum(np.abs(Xa), 1.0)
            Xp = np.repeat(Xa[:, None, :], n, axis=1)
            Xp[:, diag, diag] += steps
            Fp = residual(np.repeat(idx, n), Xp)
            jac = ((Fp - Fa[:, None, :]) / steps[:, :, None]).transpose(0, 2, 1)
            step = _newton_steps(jac, -Fa)
            step_norm = np.max(np.abs(step), axis=1)
            too_big = step_norm > self.max_step
            if too_big.any():
                step[too_big] *= (self.max_step / step_norm[too_big])[:, None]
            # backtracking line search: the full step, then every halving of
            # the rows it did not serve
            trial = Xa + step
            f_trial = residual(idx, trial)
            trial_norm = np.max(np.abs(f_trial), axis=1)
            accepted = trial_norm < norm_a
            p = np.flatnonzero(~accepted)
            if p.size:
                trials = Xa[p, None, :] + _HALVINGS[:, None] * step[p, None, :]
                f_trials = residual(np.repeat(idx[p], _HALVINGS.size), trials)
                trial_norms = np.max(np.abs(f_trials), axis=2)
                lower = trial_norms < norm_a[p, None]
                first = lower.argmax(axis=1)  # 0 where no halving lowers the norm
                served = lower[np.arange(p.size), first]
                ps, first = p[served], first[served]
                trial[ps], f_trial[ps] = trials[served, first], f_trials[served, first]
                trial_norm[ps] = trial_norms[served, first]
                accepted[ps] = True
            improved = idx[accepted]
            X[improved], F[improved] = trial[accepted], f_trial[accepted]
            norms[improved] = trial_norm[accepted]
            better = norms < best_norm
            if better.any():
                best_x[better] = X[better]
                best_norm[better] = norms[better]
            # stalled rows exit; improved rows stay active until their
            # residual drops below tolerance
            active[idx[~accepted]] = False
            active[improved] = norms[improved] >= self.tol
        return BatchSolveResult(
            x=best_x,
            residual_norm=best_norm,
            converged=best_norm < self.tol,
            iterations=iterations,
            residual_evaluations=evals,
        )


def _newton_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``jac[r] @ step[r] = rhs[r]`` per row, by least squares where singular.

    LAPACK refuses a whole stack when one matrix is exactly singular, so
    the rows that certainly are — an all-zero column (an unknown the
    residual does not respond to) or row — go straight to ``lstsq`` one by
    one and the others are solved as one stack; should that stack still be
    refused, each of its rows goes one by one, ``solve`` first.
    """
    step = np.empty_like(rhs)
    nonzero = jac != 0.0
    regular = nonzero.any(axis=1).all(axis=1) & nonzero.any(axis=2).all(axis=1)
    try:
        step[regular] = np.linalg.solve(jac[regular], rhs[regular, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        for r in np.flatnonzero(regular):
            try:
                step[r] = np.linalg.solve(jac[r], rhs[r])
            except np.linalg.LinAlgError:
                step[r] = np.linalg.lstsq(jac[r], rhs[r], rcond=None)[0]
    for r in np.flatnonzero(~regular):
        step[r] = np.linalg.lstsq(jac[r], rhs[r], rcond=None)[0]
    return step

"""Nonlinear solvers for the per-grid-point equilibrium systems.

The paper solves the ~60-equation nonlinear system at every grid point with
Ipopt.  This reproduction uses a damped Newton method with a finite
difference Jacobian and a backtracking line search, falling back to
``scipy.optimize.root`` (Powell hybrid) when Newton stalls — the surrounding
code path (repeated interpolation of next-period policies inside the
residual function) is identical, which is what matters for the performance
experiments.  The Newton iteration exists once, row-masked over a batch of
independent systems (:class:`BatchNewtonSolver`); :class:`NewtonSolver`
holds the settings, the scipy polish and the single-system entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize

__all__ = ["PointSolveResult", "NewtonSolver", "BatchSolveResult", "BatchNewtonSolver"]


@dataclass
class PointSolveResult:
    """Outcome of one nonlinear point solve."""

    x: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    residual_evaluations: int

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)


class NewtonSolver:
    """Damped Newton with finite-difference Jacobian and scipy fallback.

    Parameters
    ----------
    tol
        Convergence tolerance on the residual infinity norm.
    max_iterations
        Newton iteration cap before the fallback kicks in.
    fd_step
        Relative step of the forward-difference Jacobian.
    max_step
        Cap on the Newton step infinity norm (guards against blow-ups when
        the Jacobian is nearly singular far from the solution).
    use_scipy_fallback
        Whether to retry unconverged solves with ``scipy.optimize.root``.
    """

    def __init__(
        self,
        tol: float = 1e-8,
        max_iterations: int = 40,
        fd_step: float = 1e-7,
        max_step: float = 5.0,
        use_scipy_fallback: bool = True,
    ) -> None:
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.tol = tol
        self.max_iterations = max_iterations
        self.fd_step = fd_step
        self.max_step = max_step
        self.use_scipy_fallback = use_scipy_fallback

    def solve(self, fn: Callable, x0: np.ndarray) -> PointSolveResult:
        """Solve ``fn(x) = 0`` starting from ``x0``.

        One system is a batch of one: :class:`BatchNewtonSolver` on a single
        row, then :meth:`scipy_polish` from its best iterate if it stalled.
        """
        batch = BatchNewtonSolver(self).solve(
            lambda rows, X: np.asarray(fn(X[0]), dtype=float)[None, :],
            np.asarray(x0, dtype=float)[None, :],
        )
        x, norm, converged = batch.x[0], float(batch.residual_norm[0]), bool(batch.converged[0])
        counts = (batch.iterations, batch.residual_evaluations)
        if converged or not self.use_scipy_fallback:
            return PointSolveResult(x, norm, converged, *counts)
        return self.scipy_polish(fn, x, norm, *counts)

    def scipy_polish(
        self, fn: Callable, x0: np.ndarray, best_norm: float, iterations: int = 0, evals: int = 0
    ) -> PointSolveResult:
        """Powell-hybrid retry from a stalled Newton's best iterate ``x0``.

        The scipy point is kept when it does not worsen the residual norm
        ``best_norm``; otherwise ``x0`` is returned unconverged.
        ``iterations`` / ``evals`` carry the Newton counts into the result.
        """
        counter = [evals]

        def counted(x):
            counter[0] += 1
            return np.asarray(fn(x), dtype=float)

        sol = optimize.root(counted, x0, method="hybr", tol=self.tol)
        norm = float(np.max(np.abs(np.asarray(sol.fun, dtype=float))))
        if norm <= best_norm:
            return PointSolveResult(
                np.asarray(sol.x, dtype=float),
                norm,
                bool(norm < self.tol * 10),
                iterations,
                counter[0],
            )
        return PointSolveResult(x0, best_norm, False, iterations, counter[0])


@dataclass
class BatchSolveResult:
    """Outcome of a batched nonlinear solve over ``m`` independent systems."""

    x: np.ndarray              # (m, n) best iterate per system
    residual_norm: np.ndarray  # (m,) residual infinity norm at ``x``
    converged: np.ndarray      # (m,) bool
    iterations: int
    residual_evaluations: int  # vectorized residual calls, not per-row calls


class BatchNewtonSolver:
    """Damped Newton over a batch of independent small systems.

    Forward-difference Jacobian, capped step, 12-step backtracking line
    search on the residual infinity norm, row-masked over ``m`` systems at
    once, so every residual evaluation is ONE vectorized call over all
    still-active rows instead of ``m`` scalar calls.  Rows whose line
    search stalls are deactivated and reported unconverged with their best
    iterate (callers polish those with :meth:`NewtonSolver.scipy_polish`).

    The residual callback receives ``(rows, X)`` where ``rows`` indexes the
    original batch (so the callback can look up per-row problem data) and
    ``X`` holds the candidate unknowns for exactly those rows.
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
        F = np.asarray(fn(np.arange(m), X), dtype=float).reshape(m, n)
        evals = 1
        norms = np.max(np.abs(F), axis=1)
        best_x, best_norm = X.copy(), norms.copy()
        active = norms >= self.tol
        iterations = 0
        while iterations < self.max_iterations and active.any():
            iterations += 1
            idx = np.flatnonzero(active)
            Xa, Fa = X[idx], F[idx]
            # forward-difference Jacobian, one vectorized call per column
            jac = np.empty((idx.size, n, n), dtype=float)
            steps = self.fd_step * np.maximum(np.abs(Xa), 1.0)
            for j in range(n):
                Xp = Xa.copy()
                Xp[:, j] += steps[:, j]
                Fp = np.asarray(fn(idx, Xp), dtype=float).reshape(idx.size, n)
                evals += 1
                jac[:, :, j] = (Fp - Fa) / steps[:, j][:, None]
            try:
                step = np.linalg.solve(jac, -Fa[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                step = np.empty_like(Fa)
                for r in range(idx.size):
                    try:
                        step[r] = np.linalg.solve(jac[r], -Fa[r])
                    except np.linalg.LinAlgError:
                        step[r], *_ = np.linalg.lstsq(jac[r], -Fa[r], rcond=None)
            step_norm = np.max(np.abs(step), axis=1)
            too_big = step_norm > self.max_step
            if too_big.any():
                step[too_big] *= (self.max_step / step_norm[too_big])[:, None]
            # backtracking line search, all pending rows per halving
            lam = np.ones(idx.size)
            pending = np.ones(idx.size, dtype=bool)
            accepted = np.zeros(idx.size, dtype=bool)
            norm_a = norms[idx]
            for _ in range(12):
                p = np.flatnonzero(pending)
                if p.size == 0:
                    break
                trial = Xa[p] + lam[p, None] * step[p]
                f_trial = np.asarray(fn(idx[p], trial), dtype=float).reshape(p.size, n)
                evals += 1
                trial_norm = np.max(np.abs(f_trial), axis=1)
                good = trial_norm < norm_a[p]
                gp = p[good]
                if gp.size:
                    rows = idx[gp]
                    X[rows] = trial[good]
                    F[rows] = f_trial[good]
                    norms[rows] = trial_norm[good]
                    accepted[gp] = True
                    pending[gp] = False
                lam[p[~good]] *= 0.5
            better = norms < best_norm
            if better.any():
                best_x[better] = X[better]
                best_norm[better] = norms[better]
            # stalled rows exit; improved rows stay active until their
            # residual drops below tolerance
            active[idx[~accepted]] = False
            improved = idx[accepted]
            active[improved] = norms[improved] >= self.tol
        return BatchSolveResult(
            x=best_x,
            residual_norm=best_norm,
            converged=best_norm < self.tol,
            iterations=iterations,
            residual_evaluations=evals,
        )

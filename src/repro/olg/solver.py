"""Nonlinear solver for the per-grid-point equilibrium systems.

The paper solves the ~60-equation nonlinear system at every grid point with
Ipopt.  This reproduction uses a damped Newton method with a backtracking
line search and nothing after it — the surrounding code path (repeated
interpolation of next-period policies inside the residual function) is
identical, which is what matters for the performance experiments.  The
Jacobian is the caller's: every residual call returns its linearization,
which the OLG point solve takes from that call's policy read, and Newton
steps from the linearization of the call that accepted each point.  The
Newton iteration exists once, row-masked over a batch of independent
systems (:class:`BatchNewtonSolver`), and issues few, large residual calls
— one to start, then at most two an iteration, whatever the batch and the
system size — because a residual call is an interpolation kernel launch;
:class:`NewtonSolver` is the single-system entry point, a batch of one.
The tolerance, the iteration cap and the step cap are the module
constants :data:`TOLERANCE`, :data:`MAX_ITERATIONS` and :data:`MAX_STEP`,
read at every run (tests patch them).
Newton itself is unconstrained: the savings bound the paper hands to Ipopt
lives in the residual :mod:`repro.olg.euler` gives it, a complementarity
function whose roots respect the bound.  A system Newton leaves stalled
keeps its best iterate and is reported unconverged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["PointSolveResult", "NewtonSolver", "BatchSolveResult", "BatchNewtonSolver"]

#: convergence tolerance on a system's residual infinity norm
TOLERANCE = 1e-8
#: Newton iteration cap of a run
MAX_ITERATIONS = 40
#: cap on the Newton step's infinity norm (guards against blow-ups where the
#: Jacobian is nearly singular far from the solution)
MAX_STEP = 5.0


@dataclass
class PointSolveResult:
    """Outcome of one nonlinear point solve."""

    x: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    residual_evaluations: int


class NewtonSolver:
    """Damped Newton on one system, as a batch of one."""

    def solve(self, fn: Callable, x0: np.ndarray) -> PointSolveResult:
        """Solve one system ``f(x) = 0`` starting from ``x0`` (n,).

        ``fn(rows, X) -> (F, linearize)`` is :meth:`BatchNewtonSolver.solve`'s
        callback, and one system is a batch of one: ``rows`` is all zeros,
        and the best iterate is the answer whether or not it converged.
        """
        batch = BatchNewtonSolver().solve(fn, np.asarray(x0, dtype=float)[None])
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

    Capped step, 12-step backtracking line search on the residual infinity
    norm, row-masked over ``m`` systems at once.  A Newton iteration makes
    one call for the full step of every active row and, when the full step
    does not serve every row, one more for all eleven halvings of the rest,
    each of which takes the first halving that lowers its norm.  The
    Jacobian costs no call: each call returns its linearization, and the
    next iteration's Jacobian of a row is that of the call which accepted
    its point — so a run makes ``1 + iterations + halving rounds`` calls
    and evaluates no point twice.  Rows whose line search stalls are
    deactivated and reported unconverged with their best iterate.

    The callback receives ``(rows, X)`` where ``rows`` indexes the original
    batch (so the callback can look up per-row problem data) and ``X``
    holds the candidate unknowns for exactly those rows.  ``rows`` is
    nondecreasing and may repeat: a row appears once per candidate the call
    evaluates for it.  Rows must be independent — a row's residual depends
    on its own ``X`` row only.  A row converges below :data:`TOLERANCE`,
    a step is capped at :data:`MAX_STEP`, and a run stops after
    :data:`MAX_ITERATIONS` iterations.
    """

    def solve(self, fn: Callable, x0: np.ndarray) -> BatchSolveResult:
        """Solve ``F(rows, X) = 0`` row-wise starting from ``x0`` (m, n).

        ``fn(rows, X) -> (F, linearize)`` returns the residuals at the
        call's candidates and the call's linearization:
        ``linearize(positions)`` is the exact Jacobian ``(len(positions), n,
        n)`` at the candidates ``positions`` (increasing).  Every call of the
        run goes through ``fn`` — the start, the full steps, the halvings;
        Newton linearizes the rows it keeps active, at the candidate it
        accepted for them, and drops each linearization once it has taken
        those rows.
        """
        X = np.array(x0, dtype=float)
        if X.ndim != 2:
            raise ValueError("x0 must be (m, n)")
        m, n = X.shape
        tol, max_iterations, max_step = TOLERANCE, MAX_ITERATIONS, MAX_STEP
        evals = 0

        def evaluate(rows: np.ndarray, candidates: np.ndarray) -> tuple:
            # one counted call at candidates (..., n): the residuals and the
            # call's linearization
            nonlocal evals
            evals += 1
            F, linearize = fn(rows, candidates.reshape(-1, n))
            return np.asarray(F, dtype=float).reshape(candidates.shape), linearize

        F, linearize = evaluate(np.arange(m), X)
        norms = np.max(np.abs(F), axis=1)
        best_x, best_norm = X.copy(), norms.copy()
        active = norms >= tol
        # what the next iteration's Jacobian is taken from: (linearize,
        # positions in its call, places among the active rows) per call
        pieces = [(linearize, np.flatnonzero(active), slice(None))]
        del linearize
        iterations = 0
        while iterations < max_iterations and active.any():
            idx = np.flatnonzero(active)
            Xa, Fa, norm_a = X[idx], F[idx], norms[idx]
            jac_a = _linearized(pieces, idx.size, n)
            pieces = None  # the calls' linearizations go with it
            iterations += 1
            step = _newton_steps(jac_a, -Fa)
            step_norm = np.max(np.abs(step), axis=1)
            too_big = step_norm > max_step
            if too_big.any():
                step[too_big] *= (max_step / step_norm[too_big])[:, None]
            # backtracking line search: the full step, then every halving of
            # the rows it did not serve
            trial = Xa + step
            f_trial, full = evaluate(idx, trial)
            trial_norm = np.max(np.abs(f_trial), axis=1)
            accepted = trial_norm < norm_a
            p = np.flatnonzero(~accepted)
            # each row's position among the candidates of the call that accepted it
            at, halved, halving = np.arange(idx.size), np.zeros(idx.size, dtype=bool), None
            if p.size:
                trials = Xa[p, None, :] + _HALVINGS[:, None] * step[p, None, :]
                f_trials, halving = evaluate(np.repeat(idx[p], _HALVINGS.size), trials)
                trial_norms = np.max(np.abs(f_trials), axis=2)
                lower = trial_norms < norm_a[p, None]
                first = lower.argmax(axis=1)  # 0 where no halving lowers the norm
                served = lower[np.arange(p.size), first]
                ps, first = p[served], first[served]
                trial[ps], f_trial[ps] = trials[served, first], f_trials[served, first]
                trial_norm[ps] = trial_norms[served, first]
                accepted[ps] = True
                halved[ps] = True
                at[ps] = np.flatnonzero(served) * _HALVINGS.size + first
            improved = idx[accepted]
            X[improved], F[improved] = trial[accepted], f_trial[accepted]
            norms[improved] = trial_norm[accepted]
            better = norms < best_norm
            if better.any():
                best_x[better] = X[better]
                best_norm[better] = norms[better]
            # stalled rows exit; improved rows stay active until their
            # residual drops below tolerance
            kept = accepted & (trial_norm >= tol)
            active[idx[~accepted]] = False
            active[improved] = norms[improved] >= tol
            # the next Jacobian: the kept rows, linearized by the calls that accepted them
            pieces = [
                (linearize, at[kept & mask], mask[kept])
                for linearize, mask in ((full, ~halved), (halving, halved))
                if (kept & mask).any()
            ]
            del full, halving
        return BatchSolveResult(
            x=best_x,
            residual_norm=best_norm,
            converged=best_norm < tol,
            iterations=iterations,
            residual_evaluations=evals,
        )


def _linearized(pieces: list, rows: int, n: int) -> np.ndarray:
    """The ``(rows, n, n)`` Jacobians of the active rows, from the calls that accepted them.

    ``pieces`` holds, per call, its ``linearize``, the active rows'
    positions among its candidates and their places among the active rows;
    one call's Jacobians are returned as it gives them.
    """
    if len(pieces) == 1:
        linearize, positions, _ = pieces[0]
        return linearize(positions)
    jac = np.empty((rows, n, n))
    for linearize, positions, places in pieces:
        jac[places] = linearize(positions)
    return jac


def _newton_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``jac[r] @ step[r] = rhs[r]`` per row, by least squares where singular.

    The rows are solved as one stack; LAPACK refuses the whole stack when
    one matrix is exactly singular, and then each row goes one by one,
    ``solve`` first and ``lstsq`` where that fails.
    """
    try:
        return np.linalg.solve(jac, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        step = np.empty_like(rhs)
        for r in range(rhs.shape[0]):
            try:
                step[r] = np.linalg.solve(jac[r], rhs[r])
            except np.linalg.LinAlgError:
                step[r] = np.linalg.lstsq(jac[r], rhs[r], rcond=None)[0]
        return step

"""Tests for the Newton point solver."""

import numpy as np
import pytest

from repro.olg import solver as olg_solver
from repro.olg.solver import (
    BatchNewtonSolver,
    NewtonSolver,
    PointSolveResult,
    _newton_steps,
)


class TestNewtonSolver:
    """One system through :meth:`NewtonSolver.solve`: the batch callback, on a batch of one."""

    def test_linear_system_one_step(self, monkeypatch):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        monkeypatch.setattr(olg_solver, "TOLERANCE", 1e-12)

        def fn(rows, X):
            return X @ A.T - b, lambda at: np.tile(A, (len(at), 1, 1))

        result = NewtonSolver().solve(fn, np.zeros(2))
        assert result.converged
        np.testing.assert_allclose(result.x, np.linalg.solve(A, b), atol=1e-9)

    def test_scalar_nonlinear_root(self):
        def fn(rows, X):
            return X**3 - 8.0, lambda at: 3.0 * X[at, :, None] ** 2

        result = NewtonSolver().solve(fn, np.array([1.0]))
        assert result.converged
        assert result.x[0] == pytest.approx(2.0, abs=1e-6)

    def test_coupled_nonlinear_system(self):
        def fn(rows, X):
            x, y = X.T
            F = np.stack([x**2 + y**2 - 4.0, x - y], axis=1)

            def linearize(at):
                ones = np.ones(len(at))
                return np.stack([[2.0 * x[at], 2.0 * y[at]], [ones, -ones]]).transpose(2, 0, 1)

            return F, linearize

        result = NewtonSolver().solve(fn, np.array([1.0, 0.5]))
        assert result.converged
        np.testing.assert_allclose(np.abs(result.x), np.sqrt(2.0), atol=1e-6)

    def test_residual_norm_reported(self):
        def fn(rows, X):
            return X - 3.0, lambda at: np.ones((len(at), 1, 1))

        result = NewtonSolver().solve(fn, np.array([0.0]))
        assert result.residual_norm < 1e-8
        assert result.residual_evaluations > 0
        assert isinstance(result, PointSolveResult)

    def test_exponential_euler_like_equation(self):
        """An equation with the same shape as the OLG Euler residuals."""
        beta, R = 0.9, 1.2
        resources = 2.0

        def fn(rows, log_s):
            s = np.exp(log_s[:, 0])
            c_today = resources - s
            c_next = R * s
            f = c_today**-2 - beta * R * c_next**-2
            slope = 2.0 * s * (c_today**-3 + beta * R * R * c_next**-3)
            return f[:, None], lambda at: slope[at, None, None]

        result = NewtonSolver().solve(fn, np.array([np.log(0.5)]))
        assert result.converged
        s = np.exp(result.x[0])
        # analytic solution: c'/c = (beta R)^(1/2), budget pins down s
        ratio = (beta * R) ** 0.5
        expected = ratio * resources / (R + ratio)
        assert s == pytest.approx(expected, rel=1e-6)

    def test_truncated_run_on_hard_start_returns_best_iterate(self, monkeypatch):
        """A start too far for one Newton iteration: unconverged, best iterate, its counts."""

        def f(x):
            return np.array([x[0] ** 3 - 8.0, np.sin(x[1])])

        def jac(x):
            return np.diag([3.0 * x[0] ** 2, np.cos(x[1])])

        def rows_fn(rows, X):
            return np.stack([f(x) for x in X]), lambda at: np.stack([jac(x) for x in X[at]])

        x0 = np.array([10.0, 2.0])
        monkeypatch.setattr(olg_solver, "MAX_ITERATIONS", 1)
        result = NewtonSolver().solve(rows_fn, x0)
        batch = BatchNewtonSolver().solve(rows_fn, x0[None])
        assert not result.converged
        assert np.array_equal(result.x, batch.x[0])
        assert result.residual_norm == np.max(np.abs(f(result.x))) < np.max(np.abs(f(x0)))
        assert result.iterations == 1
        # the start, then the full step
        assert result.residual_evaluations == batch.residual_evaluations == 2

    def test_run_of_accepted_full_steps_makes_one_call_an_iteration(self, monkeypatch):
        """No halving anywhere: the start, then one full-step call per iteration, no more."""
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        calls = []

        def fn(rows, X):
            calls.append(len(rows))
            F = X @ A.T - b + 0.1 * X**3
            return F, lambda at: A + 0.3 * X[at, None, :] ** 2 * np.eye(2)

        monkeypatch.setattr(olg_solver, "TOLERANCE", 1e-12)
        result = BatchNewtonSolver().solve(fn, np.zeros((3, 2)))
        assert result.converged.all()
        assert result.iterations > 1
        assert result.residual_evaluations == len(calls) == 1 + result.iterations
        # every call carries each active row once: no halvings
        assert calls[0] == 3

    def test_stalled_run_reports_not_converged(self, monkeypatch):
        def fn(rows, X):
            return np.tanh(X) - 0.5, lambda at: np.cosh(X[at, :, None]) ** -2

        monkeypatch.setattr(olg_solver, "MAX_ITERATIONS", 1)
        result = NewtonSolver().solve(fn, np.array([40.0]))
        assert not result.converged
        assert result.x[0] == 40.0  # flat there: no step lowers the residual

    def test_singular_jacobian_uses_least_squares(self):
        def fn(rows, X):
            # rank-deficient Jacobian everywhere, still solvable
            total = X.sum(axis=1)
            F = np.stack([total - 2.0, 2.0 * total - 4.0], axis=1)
            return F, lambda at: np.tile([[1.0, 1.0], [2.0, 2.0]], (len(at), 1, 1))

        result = NewtonSolver().solve(fn, np.array([0.0, 0.0]))
        assert result.residual_norm < 1e-8


class TestNewtonSteps:
    """The per-row linear solves of one Newton iteration."""

    @staticmethod
    def _stack(seed=4):
        rng = np.random.default_rng(seed)
        jac = rng.standard_normal((6, 3, 3))
        jac[1, :, 2] = 0.0  # an unknown the residual does not respond to
        jac[4, 0, :] = 0.0  # an equation without unknowns
        return jac, rng.standard_normal((6, 3))

    def test_certainly_singular_rows_go_to_least_squares_without_raising(self):
        jac, rhs = self._stack()
        step = _newton_steps(jac, rhs)
        for r in range(6):
            if r in (1, 4):
                want = np.linalg.lstsq(jac[r], rhs[r], rcond=None)[0]
            else:
                want = np.linalg.solve(jac[r], rhs[r])
            np.testing.assert_array_equal(step[r], want)

    def test_numerically_singular_row_still_falls_back_row_by_row(self):
        jac, rhs = self._stack()
        jac[2] = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]])  # rank 2, no zeros
        step = _newton_steps(jac, rhs)
        np.testing.assert_array_equal(step[2], np.linalg.lstsq(jac[2], rhs[2], rcond=None)[0])
        np.testing.assert_array_equal(step[0], np.linalg.solve(jac[0], rhs[0]))

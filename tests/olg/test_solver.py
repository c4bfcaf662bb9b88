"""Tests for the Newton point solver."""

import numpy as np
import pytest

from repro.olg import solver as solver_module
from repro.olg.solver import (
    BatchNewtonSolver,
    NewtonSolver,
    PointSolveResult,
    _newton_steps,
)


class TestNewtonSolver:
    def test_linear_system_one_step(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        solver = NewtonSolver(tol=1e-12)
        result = solver.solve(lambda x: A @ x - b, np.zeros(2))
        assert result.converged
        np.testing.assert_allclose(result.x, np.linalg.solve(A, b), atol=1e-9)

    def test_scalar_nonlinear_root(self):
        solver = NewtonSolver()
        result = solver.solve(lambda x: np.array([x[0] ** 3 - 8.0]), np.array([1.0]))
        assert result.converged
        assert result.x[0] == pytest.approx(2.0, abs=1e-6)

    def test_coupled_nonlinear_system(self):
        def fn(x):
            return np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[0] - x[1]])

        result = NewtonSolver().solve(fn, np.array([1.0, 0.5]))
        assert result.converged
        np.testing.assert_allclose(np.abs(result.x), np.sqrt(2.0), atol=1e-6)

    def test_residual_norm_reported(self):
        result = NewtonSolver().solve(lambda x: x - 3.0, np.array([0.0]))
        assert result.residual_norm < 1e-8
        assert result.residual_evaluations > 0
        assert isinstance(result, PointSolveResult)

    def test_exponential_euler_like_equation(self):
        """An equation with the same shape as the OLG Euler residuals."""
        beta, R = 0.9, 1.2
        resources = 2.0

        def fn(log_s):
            s = np.exp(log_s)
            c_today = resources - s
            c_next = R * s
            return np.array([c_today[0] ** -2 - beta * R * c_next[0] ** -2])

        result = NewtonSolver().solve(fn, np.array([np.log(0.5)]))
        assert result.converged
        s = np.exp(result.x[0])
        # analytic solution: c'/c = (beta R)^(1/2), budget pins down s
        ratio = (beta * R) ** 0.5
        expected = ratio * resources / (R + ratio)
        assert s == pytest.approx(expected, rel=1e-6)

    def test_truncated_run_on_hard_start_returns_best_iterate(self):
        """A start too far for one Newton iteration: unconverged, best iterate, its counts."""

        def fn(x):
            return np.array([x[0] ** 3 - 8.0, np.sin(x[1])])

        x0 = np.array([10.0, 2.0])
        solver = NewtonSolver(max_iterations=1)
        result = solver.solve(fn, x0)
        batch = BatchNewtonSolver(solver).solve(
            lambda rows, X: np.stack([fn(x) for x in X]), x0[None]
        )
        assert not result.converged
        assert np.array_equal(result.x, batch.x[0])
        assert result.residual_norm == np.max(np.abs(fn(result.x))) < np.max(np.abs(fn(x0)))
        assert result.iterations == 1
        # the start residual rides in the Jacobian call, then the full step
        assert result.residual_evaluations == batch.residual_evaluations == 2

    def test_run_of_accepted_full_steps_makes_two_calls_an_iteration(self):
        """No halving anywhere: a Jacobian call and a full-step call per iteration, no more."""
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        calls = []

        def fn(rows, X):
            calls.append(len(rows))
            return X @ A.T - b + 0.1 * X**3

        result = BatchNewtonSolver(NewtonSolver(tol=1e-12)).solve(fn, np.zeros((3, 2)))
        assert result.converged.all()
        assert result.iterations > 1
        assert result.residual_evaluations == len(calls) == 2 * result.iterations
        # the first call carries each row at x0 and its n perturbed copies
        assert calls[0] == 3 * (2 + 1)

    def test_stalled_run_reports_not_converged(self):
        def fn(x):
            return np.array([np.tanh(x[0]) - 0.5])

        result = NewtonSolver(max_iterations=1).solve(fn, np.array([40.0]))
        assert not result.converged
        assert result.x[0] == 40.0  # flat there: no step lowers the residual

    def test_singular_jacobian_uses_least_squares(self):
        def fn(x):
            # rank-deficient Jacobian at the start, still solvable
            return np.array([x[0] + x[1] - 2.0, 2.0 * (x[0] + x[1]) - 4.0])

        result = NewtonSolver().solve(fn, np.array([0.0, 0.0]))
        assert result.residual_norm < 1e-8

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            NewtonSolver(tol=0.0)


class TestNewtonSteps:
    """The per-row linear solves of one Newton iteration."""

    @staticmethod
    def _stack(seed=4):
        rng = np.random.default_rng(seed)
        jac = rng.standard_normal((6, 3, 3))
        jac[1, :, 2] = 0.0  # an unknown the residual does not respond to
        jac[4, 0, :] = 0.0  # an equation without unknowns
        return jac, rng.standard_normal((6, 3))

    def test_certainly_singular_rows_go_to_least_squares_without_raising(self, monkeypatch):
        jac, rhs = self._stack()
        raised = []
        solve = np.linalg.solve

        def watched(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                raised.append(a.shape)
                raise

        monkeypatch.setattr(solver_module.np.linalg, "solve", watched)
        step = _newton_steps(jac, rhs)
        assert not raised
        for r in range(6):
            if r in (1, 4):
                want = np.linalg.lstsq(jac[r], rhs[r], rcond=None)[0]
            else:
                want = solve(jac[r], rhs[r])
            np.testing.assert_array_equal(step[r], want)

    def test_numerically_singular_row_still_falls_back_row_by_row(self):
        jac, rhs = self._stack()
        jac[2] = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]])  # rank 2, no zeros
        step = _newton_steps(jac, rhs)
        np.testing.assert_array_equal(step[2], np.linalg.lstsq(jac[2], rhs[2], rcond=None)[0])
        np.testing.assert_array_equal(step[0], np.linalg.solve(jac[0], rhs[0]))

"""The economy with a known answer: the solve's error against the true policy.

Log utility, full depreciation, no taxes and only the youngest generation
working (:func:`repro.olg.calibration.analytic_calibration`): every saver
puts aside ``(beta - beta**n) / (1 - beta**n)`` of its cash on hand, ``n``
its periods left (:func:`repro.olg.calibration.exact_savings`).  So the
solution error itself is measured, not the Euler-equation error.
"""

import numpy as np
import pytest

from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver
from repro.olg.calibration import analytic_calibration, exact_savings
from repro.olg.model import OLGModel


def _savings_errors(level: int) -> np.ndarray:
    """Relative savings errors of a converged solve on 300 points of the inner 80% box."""
    model = OLGModel(analytic_calibration(num_generations=4, num_states=1))
    config = TimeIterationConfig(grid_level=level, tolerance=1e-7, max_iterations=60)
    result = TimeIterationSolver(model, config).solve()
    assert result.converged
    unit = 0.1 + 0.8 * np.random.default_rng(0).random((300, model.state_dim))
    X = model.domain.from_unit(unit)
    exact = exact_savings(model, 0, X)
    solved = result.policy.evaluate(0, X)[:, : model.num_savers]
    return np.abs(solved - exact) / np.abs(exact)


def test_the_error_falls_with_the_level():
    """Mean log10 error at most -1.7 / -2.1 / -2.9 at levels 2-4, max error 3x lower a level.

    Measured: -1.80 / -2.18 / -3.05, and 0.63 -> 0.14 -> 0.039.
    """
    errors = [_savings_errors(level) for level in (2, 3, 4)]
    means = [float(np.mean(np.log10(e))) for e in errors]
    assert means[0] <= -1.7 and means[1] <= -2.1 and means[2] <= -2.9, means
    worst = [float(e.max()) for e in errors]
    assert worst[0] >= 3 * worst[1] and worst[1] >= 3 * worst[2], worst


def test_the_calibration_has_no_other_income_to_come():
    cal = analytic_calibration(num_generations=5, num_states=2)
    assert cal.gamma == 1.0 and cal.retirement_age == 1 and cal.num_states == 2
    np.testing.assert_array_equal(cal.efficiency, [1.0, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(cal.shocks.label("depreciation"), 1.0)
    for tax in ("tau_labor", "tau_capital"):
        np.testing.assert_array_equal(cal.shocks.label(tax), 0.0)


@pytest.mark.parametrize("num_states", [1, 2])
def test_exact_savings_solve_the_euler_equation(num_states):
    """Tomorrow's savers following the rule, today's rule is a root of the Euler gap.

    The next-period policy is the closed form itself, so no interpolation
    error enters: the gap is zero to rounding.
    """
    model = OLGModel(analytic_calibration(num_generations=5, num_states=num_states))
    system = model.system
    X = model.sample_states(20, rng=1)
    for z in range(num_states):
        savings = exact_savings(model, z, X)
        K_next, x_next = savings.sum(axis=1), savings
        cash = system.resources(z, 0, X)
        expected = np.zeros_like(savings)
        for z_next in range(num_states):
            env = system.environment(z_next, 0, K_next)
            # tomorrow's cash on hand of today's savers, and what the rule makes them consume
            wealth = env.gross_return[:, None] * savings + env.incomes[:, 1:]
            next_save = np.zeros_like(wealth)
            next_save[:, :-1] = exact_savings(model, z_next, x_next)[:, 1:]
            consumption = wealth - next_save
            prob = model.calibration.shocks.transition[z, z_next]
            expected += prob * env.gross_return[:, None] / consumption
        implied = 1.0 / (model.calibration.beta * expected)
        np.testing.assert_allclose(implied, cash - savings, rtol=1e-12)

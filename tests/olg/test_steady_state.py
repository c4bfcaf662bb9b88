"""Tests for the deterministic steady state and lifecycle profiles."""

import numpy as np
import pytest

from repro.olg import steady_state
from repro.olg.calibration import paper_calibration, small_calibration
from repro.olg.steady_state import deterministic_steady_state, lifecycle_profile


class TestLifecycleProfile:
    def test_budget_constraints_hold(self):
        incomes = np.array([1.0, 1.2, 1.1, 0.4, 0.4])
        R = 1.3
        profile = lifecycle_profile(incomes, R, beta=0.9, gamma=2.0)
        # period budget: c_a + k_{a+1} = R k_a + y_a
        for age in range(5):
            resources = R * profile.holdings[age] + incomes[age]
            assert profile.consumption[age] + profile.savings[age] == pytest.approx(resources)

    def test_terminal_wealth_is_zero(self):
        incomes = np.array([1.0, 1.0, 0.5, 0.2])
        profile = lifecycle_profile(incomes, 1.2, beta=0.9, gamma=2.0)
        assert profile.savings[-1] == pytest.approx(0.0, abs=1e-10)

    def test_consumption_growth_rate(self):
        """Consumption grows at (beta R)^(1/gamma) with no constraints."""
        incomes = np.array([1.0, 1.0, 1.0, 1.0])
        beta, R, gamma = 0.95, 1.1, 2.0
        profile = lifecycle_profile(incomes, R, beta, gamma)
        growth = profile.consumption[1:] / profile.consumption[:-1]
        np.testing.assert_allclose(growth, (beta * R) ** (1 / gamma))

    def test_consumption_positive(self):
        incomes = np.array([0.5, 1.5, 1.0, 0.1, 0.1, 0.1])
        profile = lifecycle_profile(incomes, 1.4, beta=0.85, gamma=3.0)
        assert np.all(profile.consumption > 0)

    def test_invalid_return(self):
        with pytest.raises(ValueError):
            lifecycle_profile(np.ones(3), 0.0, 0.9, 2.0)


class TestSteadyState:
    def test_converges_for_default_calibration(self):
        cal = small_calibration(num_generations=6, num_states=2)
        steady = deterministic_steady_state(cal)
        assert steady.capital > 0
        assert steady.wage > 0

    def test_capital_market_clears(self):
        """Aggregate household asset holdings equal the capital stock."""
        cal = small_calibration(num_generations=6, num_states=2)
        steady = deterministic_steady_state(cal)
        assert steady.profile.aggregate_capital == pytest.approx(
            steady.capital, rel=1e-5
        )

    def test_pension_positive_when_taxed(self):
        cal = small_calibration(num_generations=6, num_states=2, tau_labor=0.2)
        steady = deterministic_steady_state(cal)
        assert steady.pension > 0.0

    def test_no_tax_no_pension(self):
        cal = small_calibration(num_generations=6, num_states=2, tau_labor=0.0)
        steady = deterministic_steady_state(cal)
        assert steady.pension == pytest.approx(0.0)

    def test_higher_patience_more_capital(self):
        low = deterministic_steady_state(small_calibration(beta=0.7))
        high = deterministic_steady_state(small_calibration(beta=0.9))
        assert high.capital > low.capital

    def test_works_for_paper_scale(self):
        """The steady-state anchor is cheap even for the 60-generation economy."""
        steady = deterministic_steady_state(paper_calibration())
        assert steady.capital > 0
        assert steady.profile.consumption.shape == (60,)

    @pytest.mark.parametrize(
        "cal",
        [small_calibration(G, 2) for G in (5, 24, 30, 40)] + [paper_calibration()],
        ids=["5", "24", "30", "40", "paper"],
    )
    def test_capital_is_a_root_in_few_evaluations(self, cal):
        """``|K_implied(K) - K| <= 1e-8 max(K, 1)`` within 10 lifecycle evaluations.

        A damped iteration on ``K`` never settled at 24, 30 or 40 generations.
        """
        steady = deterministic_steady_state(cal)
        implied = steady.profile.aggregate_capital
        assert abs(implied - steady.capital) <= 1e-8 * max(steady.capital, 1.0)
        assert steady.evaluations <= 10

    def test_no_root_within_the_cap_raises(self, monkeypatch):
        monkeypatch.setattr(steady_state, "_MAX_EVALUATIONS", 2)
        with pytest.raises(RuntimeError, match="steady-state capital"):
            deterministic_steady_state(small_calibration(num_generations=24))

"""Tests for forward simulation of the solved economy."""

import numpy as np
import pytest

from repro.olg.simulation import simulate_economy
from repro.olg.welfare import ergodic_welfare


class TestSimulation:
    def test_shapes_and_lengths(self, solved_small_olg):
        model, result = solved_small_olg
        sim = simulate_economy(model, result.policy, periods=40, rng=0)
        assert sim.length == 40
        assert sim.states.shape == (40, model.state_dim)
        assert sim.consumption.shape == (40, model.calibration.num_generations)
        assert sim.savings.shape == (40, model.num_savers)

    def test_burn_in_dropped(self, solved_small_olg):
        model, result = solved_small_olg
        sim = simulate_economy(model, result.policy, periods=30, burn_in=10, rng=0)
        assert sim.length == 30

    def test_states_stay_in_domain(self, solved_small_olg):
        model, result = solved_small_olg
        sim = simulate_economy(model, result.policy, periods=100, rng=1, burn_in=20)
        assert model.domain.contains(sim.states).all()

    def test_aggregates_positive(self, solved_small_olg):
        model, result = solved_small_olg
        sim = simulate_economy(model, result.policy, periods=80, rng=2, burn_in=20)
        assert np.all(sim.capital > 0)
        assert np.all(sim.output > 0)
        assert np.all(sim.wages > 0)
        assert np.all(sim.consumption.sum(axis=1) > 0)

    def test_capital_law_of_motion(self, solved_small_olg):
        """Tomorrow's state is today's savings clipped into the box, and K its sum."""
        model, result = solved_small_olg
        sim = simulate_economy(model, result.policy, periods=50, rng=3)
        implied = np.clip(sim.savings[:-1], model.domain.lower, model.domain.upper)
        assert np.array_equal(sim.states[1:], implied)
        np.testing.assert_allclose(sim.capital[1:], implied.sum(axis=1), rtol=1e-12)

    def test_deterministic_with_seed(self, solved_small_olg):
        model, result = solved_small_olg
        a = simulate_economy(model, result.policy, periods=25, rng=7)
        b = simulate_economy(model, result.policy, periods=25, rng=7)
        np.testing.assert_allclose(a.capital, b.capital)
        np.testing.assert_array_equal(a.shocks, b.shocks)

    def test_summary_keys(self, solved_small_olg):
        model, result = solved_small_olg
        sim = simulate_economy(model, result.policy, periods=30, rng=0)
        summary = sim.summary()
        for key in ("mean_capital", "std_capital", "mean_output", "mean_consumption"):
            assert key in summary
            assert np.isfinite(summary[key])

    def test_invalid_periods(self, solved_small_olg):
        model, result = solved_small_olg
        with pytest.raises(ValueError):
            simulate_economy(model, result.policy, periods=0)

    @pytest.mark.parametrize("burn_in", [-3, -5])
    def test_negative_burn_in_is_rejected(self, solved_small_olg, burn_in):
        """A negative burn-in would drop the wrong periods and return a path of the wrong length."""
        model, result = solved_small_olg
        with pytest.raises(ValueError, match="burn_in"):
            simulate_economy(model, result.policy, periods=10, burn_in=burn_in)
        with pytest.raises(ValueError, match="burn_in"):
            ergodic_welfare(model, result.policy, periods=10, burn_in=burn_in)

    def test_shock_variation_moves_output(self, solved_small_olg):
        """With productivity shocks, simulated output varies over time."""
        model, result = solved_small_olg
        sim = simulate_economy(model, result.policy, periods=200, rng=5, burn_in=20)
        if len(np.unique(sim.shocks)) > 1:
            assert sim.output.std() > 0.0

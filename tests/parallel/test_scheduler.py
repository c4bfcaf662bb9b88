"""Tests for the work-stealing scheduling simulation."""

import numpy as np
import pytest

from repro.parallel.scheduler import simulate_schedule


class TestSimulateSchedule:
    def test_uniform_tasks_near_perfect_efficiency(self):
        costs = np.ones(1000)
        out = simulate_schedule(costs, 10, stealing=True)
        assert out["efficiency"] == pytest.approx(1.0, abs=1e-6)
        assert out["makespan"] == pytest.approx(100.0)

    def test_stealing_beats_static_on_clustered_costs(self):
        costs = np.ones(400)
        costs[:50] = 25.0  # expensive cluster at the front
        stealing = simulate_schedule(costs, 8, stealing=True)
        static = simulate_schedule(costs, 8, stealing=False)
        assert stealing["makespan"] < static["makespan"]

    def test_makespan_bounds(self):
        """Greedy makespan is between total/p and total/p + max cost."""
        rng = np.random.default_rng(4)
        costs = rng.exponential(1.0, 500)
        p = 7
        out = simulate_schedule(costs, p, stealing=True)
        lower = costs.sum() / p
        assert lower <= out["makespan"] <= lower + costs.max() + 1e-9

    def test_single_worker_equals_total(self):
        costs = np.array([1.0, 2.0, 3.0])
        out = simulate_schedule(costs, 1)
        assert out["makespan"] == pytest.approx(6.0)

    def test_empty_costs(self):
        out = simulate_schedule(np.array([]), 4)
        assert out["makespan"] == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            simulate_schedule(np.ones((2, 2)), 4)
        with pytest.raises(ValueError):
            simulate_schedule(np.ones(3), 0)

    def test_more_workers_than_tasks(self):
        costs = np.array([2.0, 5.0, 1.0])
        for stealing in (True, False):
            out = simulate_schedule(costs, 6, stealing=stealing)
            assert out["makespan"] == pytest.approx(5.0)
            assert np.count_nonzero(out["worker_times"]) == 3
            assert out["efficiency"] == pytest.approx(8.0 / (5.0 * 6))

    @pytest.mark.parametrize("stealing", [True, False], ids=["stealing", "static"])
    def test_worker_times_account_all_costs(self, stealing):
        """Every task runs on exactly one worker: the busy times sum to the total cost."""
        costs = np.random.default_rng(11).exponential(1.0, 97)
        for p in (1, 2, 5, 13):
            out = simulate_schedule(costs, p, stealing=stealing)
            assert out["worker_times"].shape == (p,)
            assert out["worker_times"].sum() == pytest.approx(costs.sum())
            assert out["makespan"] == pytest.approx(out["worker_times"].max())
            assert 0.0 < out["efficiency"] <= 1.0 + 1e-12

    def test_even_static_partition_is_perfectly_efficient(self):
        out = simulate_schedule(np.full(12, 3.0), 4, stealing=False)
        np.testing.assert_allclose(out["worker_times"], 9.0)
        assert out["efficiency"] == pytest.approx(1.0)

    def test_uneven_static_partition_loses_efficiency(self):
        costs = np.array([10.0, 1.0, 1.0, 1.0])
        out = simulate_schedule(costs, 2, stealing=False)
        np.testing.assert_allclose(out["worker_times"], [11.0, 2.0])
        assert out["efficiency"] == pytest.approx(13.0 / 22.0)

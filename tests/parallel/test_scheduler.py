"""Tests for the work-stealing scheduler and the scheduling simulation."""

import threading
import time

import numpy as np
import pytest

from repro.parallel.scheduler import (
    SchedulerStats,
    WorkStealingScheduler,
    simulate_schedule,
)


class TestWorkStealingScheduler:
    def test_results_in_input_order(self):
        sched = WorkStealingScheduler(4)
        items = list(range(200))
        assert sched.map(lambda x: x * 2, items) == [x * 2 for x in items]

    def test_every_task_executed_exactly_once(self):
        sched = WorkStealingScheduler(5)
        counter = {}
        lock = threading.Lock()

        def task(i):
            with lock:
                counter[i] = counter.get(i, 0) + 1
            return i

        sched.map(task, range(333))
        assert len(counter) == 333
        assert all(v == 1 for v in counter.values())

    def test_empty_input(self):
        sched = WorkStealingScheduler(3)
        assert sched.map(lambda x: x, []) == []
        assert sched.last_stats.total_tasks == 0

    def test_single_worker(self):
        sched = WorkStealingScheduler(1)
        assert sched.map(lambda x: -x, [1, 2, 3]) == [-1, -2, -3]

    def test_more_workers_than_tasks(self):
        sched = WorkStealingScheduler(16)
        assert sched.map(lambda x: x + 1, [5]) == [6]

    def test_stats_account_all_tasks(self):
        sched = WorkStealingScheduler(4)
        sched.map(lambda x: x, range(100))
        assert sched.last_stats.total_tasks == 100
        assert sched.last_stats.workers == 4

    def test_exception_propagates(self):
        sched = WorkStealingScheduler(3)

        def boom(i):
            if i == 17:
                raise RuntimeError("task failure")
            return i

        with pytest.raises(RuntimeError, match="task failure"):
            sched.map(boom, range(40))

    def test_stealing_happens_with_uneven_blocking_tasks(self):
        """When one worker's block contains all the slow (GIL-releasing) tasks,
        other workers steal from it."""
        sched = WorkStealingScheduler(4)

        def task(i):
            if i < 20:
                time.sleep(0.005)  # slow tasks clustered at the front
            return i

        sched.map(task, range(80))
        stats = sched.last_stats
        assert stats.total_tasks == 80
        # at least some balancing: no worker did everything
        assert max(stats.tasks_per_worker) < 80

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            WorkStealingScheduler(0)


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


class TestSchedulerStats:
    def test_imbalance_zero_when_even(self):
        stats = SchedulerStats(tasks_per_worker=[10, 10, 10], workers=3)
        assert stats.imbalance == pytest.approx(0.0)

    def test_imbalance_positive_when_uneven(self):
        stats = SchedulerStats(tasks_per_worker=[30, 0, 0], workers=3)
        assert stats.imbalance == pytest.approx(2.0)

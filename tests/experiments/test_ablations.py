"""Tests for the ablation experiments."""

import numpy as np
import pytest

from repro.core.compression import compress_grid
from repro.core.kernels import evaluate
from repro.experiments.ablations import (
    run_partition_ablation,
    run_reordering_ablation,
    run_scheduler_ablation,
    unordered_layout,
)
from repro.grids.regular import regular_sparse_grid


class TestPartitionAblation:
    def test_proportional_no_worse_than_uniform(self):
        result = run_partition_ablation(total_processes=48, seed=2)
        assert result.imbalance_proportional <= result.imbalance_uniform + 1e-9
        assert result.improvement >= 1.0

    def test_strongly_skewed_sizes_show_clear_benefit(self):
        result = run_partition_ablation(
            points_per_state=[200_000, 20_000, 20_000, 20_000], total_processes=26
        )
        assert result.imbalance_uniform > 2 * result.imbalance_proportional

    def test_equal_sizes_make_rules_coincide(self):
        result = run_partition_ablation(
            points_per_state=[50_000] * 8, total_processes=32
        )
        assert result.imbalance_proportional == pytest.approx(result.imbalance_uniform)


class TestSchedulerAblation:
    def test_stealing_beats_static(self):
        result = run_scheduler_ablation(num_tasks=1_000, num_workers=16, seed=1)
        assert result.makespan_stealing < result.makespan_static
        assert result.speedup_from_stealing > 1.0
        assert result.efficiency_stealing > result.efficiency_static

    def test_homogeneous_tasks_show_little_difference(self):
        result = run_scheduler_ablation(
            num_tasks=1_600, num_workers=8, heavy_fraction=0.0, seed=0
        )
        assert result.speedup_from_stealing == pytest.approx(1.0, abs=0.25)


class TestReorderingAblation:
    def test_runs_and_reports_positive_times(self):
        result = run_reordering_ablation(
            dim=6, level=4, num_dofs=8, num_queries=40, repeats=1
        )
        assert result.seconds_reordered > 0
        assert result.seconds_unordered > 0
        assert result.num_points > 0
        # what the timing compares is one interpolant in two layouts: both
        # evaluate the same values, so the ratio is the memory layout alone
        grid = regular_sparse_grid(6, 4)
        comp = compress_grid(grid)
        unordered = unordered_layout(comp)
        assert not np.array_equal(comp.order, unordered.order)
        rng = np.random.default_rng(0)
        surplus = rng.standard_normal((len(grid), 8))
        queries = rng.random((40, 6))
        np.testing.assert_allclose(
            evaluate(unordered, surplus, queries),
            evaluate(comp, surplus, queries),
            rtol=0,
            atol=1e-12,
        )

"""Tests for the hybrid node cost model."""

import numpy as np
import pytest

from repro.parallel.cluster import PIZ_DAINT_NODE
from repro.parallel.gpu_sim import HybridNodeExecutor


class TestHybridNodeExecutor:
    def test_single_thread_time_is_total_cost(self):
        node = HybridNodeExecutor(PIZ_DAINT_NODE)
        costs = np.full(100, 0.01)
        assert node.execution_time(costs, threads=1, use_gpu=False) == pytest.approx(1.0)

    def test_speedup_saturates_at_node_throughput(self):
        node = HybridNodeExecutor(PIZ_DAINT_NODE)
        costs = np.full(10_000, 0.01)
        speedup = node.speedup(costs, use_gpu=True)
        assert speedup == pytest.approx(
            PIZ_DAINT_NODE.speedup_over_single_thread(True), rel=1e-6
        )

    def test_critical_path_limits_small_workloads(self):
        """With fewer points than effective threads, the single longest task binds."""
        node = HybridNodeExecutor(PIZ_DAINT_NODE)
        costs = np.full(5, 0.02)
        time_many_threads = node.execution_time(costs, use_gpu=True)
        assert time_many_threads == pytest.approx(0.02)

    def test_gpu_improves_time(self):
        node = HybridNodeExecutor(PIZ_DAINT_NODE)
        costs = np.full(2_000, 0.01)
        assert node.execution_time(costs, use_gpu=True) < node.execution_time(
            costs, use_gpu=False
        )

    def test_empty_workload(self):
        node = HybridNodeExecutor(PIZ_DAINT_NODE)
        assert node.execution_time(np.array([])) == 0.0

    def test_dispatch_overhead_added(self):
        node = HybridNodeExecutor(PIZ_DAINT_NODE)
        costs = np.full(100, 0.01)
        base = node.execution_time(costs)
        assert node.execution_time(costs, dispatch_overhead=0.5) == pytest.approx(base + 0.5)

"""Tests for the hardware cost models and their paper calibration anchors."""

import pytest

from repro.parallel.cluster import GRAND_TAVE_NODE, PIZ_DAINT_NODE, NodeSpec


class TestNodeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NodeSpec("bad", cores=0)
        with pytest.raises(ValueError):
            NodeSpec("bad", cores=4, single_thread_speed=0.0)
        with pytest.raises(ValueError):
            NodeSpec("bad", cores=4, cpu_parallel_efficiency=1.5)
        with pytest.raises(ValueError):
            NodeSpec("bad", cores=4, gpu_throughput=-1.0)

    def test_hardware_threads(self):
        node = NodeSpec("n", cores=8, threads_per_core=2)
        assert node.hardware_threads == 16

    def test_single_thread_throughput(self):
        node = NodeSpec("n", cores=8, single_thread_speed=0.5)
        assert node.cpu_throughput(threads=1) == pytest.approx(0.5)

    def test_gpu_adds_throughput(self):
        node = NodeSpec("n", cores=4, gpu_throughput=10.0)
        assert node.node_throughput(use_gpu=True) == pytest.approx(
            node.cpu_throughput() + 10.0
        )
        assert node.node_throughput(use_gpu=False) == pytest.approx(node.cpu_throughput())

    def test_thread_cap(self):
        node = NodeSpec("n", cores=4, threads_per_core=2, cpu_parallel_efficiency=0.5)
        assert node.cpu_throughput(threads=100) == node.cpu_throughput(threads=8)

    def test_parallel_efficiency_scales_multithreaded_throughput(self):
        node = NodeSpec("n", cores=4, threads_per_core=2, single_thread_speed=2.0,
                        cpu_parallel_efficiency=0.5)
        assert node.cpu_throughput() == pytest.approx(8 * 2.0 * 0.5)
        assert node.cpu_throughput(threads=3) == pytest.approx(3 * 2.0 * 0.5)
        # one thread runs at full speed, whatever the efficiency
        assert node.cpu_throughput(threads=1) == pytest.approx(2.0)
        assert node.speedup_over_single_thread(use_gpu=False) == pytest.approx(4.0)


class TestPaperAnchors:
    def test_piz_daint_node_speedup_25x(self):
        """Sec. V-B: full Piz Daint node ~25x over one of its CPU threads."""
        assert PIZ_DAINT_NODE.speedup_over_single_thread(use_gpu=True) == pytest.approx(
            25.0, rel=0.05
        )

    def test_grand_tave_node_speedup_96x(self):
        """Sec. V-B: KNL node ~96x over one of its own threads."""
        assert GRAND_TAVE_NODE.speedup_over_single_thread() == pytest.approx(96.0, rel=0.05)

    def test_piz_daint_twice_grand_tave(self):
        """Sec. V-B: a Piz Daint node is ~2x faster than a Grand Tave node."""
        ratio = PIZ_DAINT_NODE.node_throughput(True) / GRAND_TAVE_NODE.node_throughput(False)
        assert ratio == pytest.approx(2.0, rel=0.1)

    def test_grand_tave_has_no_gpu(self):
        assert not GRAND_TAVE_NODE.has_gpu
        assert PIZ_DAINT_NODE.has_gpu

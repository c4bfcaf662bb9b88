"""Cost model of a CPU + GPU node (substitute for the CUDA offload path).

On Piz Daint the paper dedicates one TBB thread to dispatching interpolation
batches to the P100 (Fig. 2, bottom).  Without a GPU the reproduction does
not dispatch at all — every interpolation runs the batched compressed
kernel, the ``cuda`` analog of :mod:`repro.core.kernels` — and models the
node instead: :class:`HybridNodeExecutor` turns per-point costs into
simulated node time against the node's hardware model, so that modeled
single-node speedups (Fig. 7, Fig. 8) can be reported alongside the
measured wall times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.cluster import NodeSpec, PIZ_DAINT_NODE

__all__ = ["HybridNodeExecutor"]


@dataclass
class HybridNodeExecutor:
    """Cost model of one heterogeneous node executing a set of point solves.

    This is the *modeled* (not measured) single-node execution used by the
    Fig. 7 and Fig. 8 experiments: given per-point workloads expressed in
    reference-thread seconds, it reports how long one node takes in a given
    configuration (single thread, all CPU threads, CPU + GPU).
    """

    node: NodeSpec = PIZ_DAINT_NODE

    def execution_time(
        self,
        point_costs: np.ndarray,
        threads: int | None = None,
        use_gpu: bool = False,
        dispatch_overhead: float = 0.0,
    ) -> float:
        """Simulated wall time to process all points on this node.

        ``point_costs`` are per-point costs in reference-thread seconds.
        The node processes them with aggregate throughput
        ``node_throughput(threads, use_gpu)``; granularity is respected by
        never beating the longest single task divided by the single-thread
        speed.
        """
        costs = np.asarray(point_costs, dtype=float)
        if costs.size == 0:
            return dispatch_overhead
        throughput = self.node.node_throughput(use_gpu=use_gpu, threads=threads)
        ideal = float(costs.sum()) / throughput
        critical_path = float(costs.max()) / self.node.single_thread_speed
        return max(ideal, critical_path) + dispatch_overhead

    def speedup(
        self,
        point_costs: np.ndarray,
        threads: int | None = None,
        use_gpu: bool = False,
        baseline_threads: int = 1,
    ) -> float:
        """Speedup of a node configuration over the single-thread baseline."""
        baseline = self.execution_time(point_costs, threads=baseline_threads, use_gpu=False)
        variant = self.execution_time(point_costs, threads=threads, use_gpu=use_gpu)
        return baseline / variant if variant > 0 else float("inf")

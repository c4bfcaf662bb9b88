"""Strong-scaling workload model (paper Sec. V-C, Fig. 8).

The paper's strong-scaling benchmark is a single time step of the
59-dimensional, 16-state OLG model on a non-adaptive level-4 sparse grid
(4,497,232 points, 265 million unknowns), run on 1 to 4,096 Piz Daint
nodes.  Reproducing the measurement requires the Cray machine; what *can*
be reproduced is the workload-distribution arithmetic that generates the
figure's shape:

* per refinement level, points are spread over the nodes (one MPI process
  per node) via the proportional per-state groups;
* inside a node, points are processed in rounds of ``V`` at a time, where
  ``V`` is the node's effective thread count (CPU threads plus the GPU's
  thread-equivalents) — when a node holds fewer points than ``V`` the
  remaining threads idle, which is the dominant efficiency loss the paper
  identifies for the lower levels;
* every refinement level ends with an allgather of the new surpluses plus
  a synchronisation barrier, adding a latency-and-bandwidth overhead that
  grows (slowly) with the node count.

The per-point cost and overhead constants default to values calibrated
against the figure's two anchors: 20,471 s on a single node and ~70 %
parallel efficiency on 4,096 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

import numpy as np

from repro.parallel.cluster import NodeSpec, PIZ_DAINT_NODE
from repro.parallel.partition import proportional_group_sizes

__all__ = ["LevelWorkload", "ScalingPoint", "StrongScalingModel"]


@dataclass(frozen=True)
class LevelWorkload:
    """Work of one refinement level of one time step."""

    level: int
    points_per_state: tuple
    point_cost: float          # reference-thread seconds per grid point
    bytes_per_point: float = 960.0   # 2*59 dofs + multi-index, ~1 KB

    @property
    def total_points(self) -> int:
        return int(sum(self.points_per_state))


@dataclass(frozen=True)
class ScalingPoint:
    """Execution-time prediction for one node count."""

    nodes: int
    total_time: float
    compute_time: float
    overhead_time: float
    level_times: dict
    ideal_time: float

    @property
    def efficiency(self) -> float:
        return self.ideal_time / self.total_time if self.total_time > 0 else 1.0


@dataclass
class StrongScalingModel:
    """Predicts strong-scaling behaviour of one time step.

    Parameters
    ----------
    workload
        Refinement levels processed within the step.
    node
        Hardware model of a cluster node.
    use_gpu
        Whether the GPU contributes to the node's effective thread count.
    barrier_latency
        Per-level synchronisation latency coefficient (multiplied by
        ``log2(nodes)``), seconds.
    allgather_bandwidth
        Effective bandwidth of the per-level surplus allgather, bytes/s.
    level_overhead
        Fixed per-level setup cost (grid bookkeeping, solver warm-up), s.
    """

    workload: list[LevelWorkload]
    node: NodeSpec = PIZ_DAINT_NODE
    use_gpu: bool = True
    barrier_latency: float = 0.02
    allgather_bandwidth: float = 5.0e9
    level_overhead: float = 0.45

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def paper_workload(
        cls,
        dim: int = 59,
        num_states: int = 16,
        levels: tuple = (3, 4),
        point_cost: float | None = None,
        single_node_seconds: float = 20_471.0,
        node: NodeSpec = PIZ_DAINT_NODE,
        use_gpu: bool = True,
        **kwargs,
    ) -> "StrongScalingModel":
        """Build the Fig. 8 workload (level 3 + level 4 restart of a level-2 grid).

        If ``point_cost`` is omitted it is backed out of the reported
        single-node runtime of 20,471 seconds.
        """
        from repro.grids.regular import regular_grid_size

        new_points = []
        for level in levels:
            total = regular_grid_size(dim, level)
            below = regular_grid_size(dim, level - 1)
            new_points.append(total - below)
        total_points = num_states * sum(new_points)
        if point_cost is None:
            throughput = node.node_throughput(use_gpu=use_gpu)
            point_cost = single_node_seconds * throughput / total_points
        workload = [
            LevelWorkload(
                level=level,
                points_per_state=tuple([pts] * num_states),
                point_cost=point_cost,
            )
            for level, pts in zip(levels, new_points)
        ]
        return cls(workload=workload, node=node, use_gpu=use_gpu, **kwargs)

    # ------------------------------------------------------------------ #
    # model
    # ------------------------------------------------------------------ #
    @property
    def effective_threads(self) -> float:
        """Node throughput expressed in reference-thread equivalents."""
        return self.node.node_throughput(use_gpu=self.use_gpu) / self.node.single_thread_speed

    def _level_compute_time(self, level: LevelWorkload, nodes: int) -> float:
        """Makespan of one level across ``nodes`` nodes.

        With at least as many nodes as states, every state owns a disjoint
        node group sized by the proportional rule and the states run
        concurrently.  With fewer nodes than states, whole states are
        packed onto nodes (longest-processing-time-first), so one node
        processes several states sequentially — this is what makes the
        single-node baseline the sum over all 16 states.
        """
        v = max(self.effective_threads, 1.0)
        per_thread_time = level.point_cost / self.node.single_thread_speed
        points = [int(p) for p in level.points_per_state]
        num_states = len(points)
        if nodes >= num_states:
            groups = proportional_group_sizes(points, nodes)
            worst = 0.0
            for state_points, group_nodes in zip(points, groups):
                group_nodes = max(int(group_nodes), 1)
                points_per_node = ceil(state_points / group_nodes)
                rounds = ceil(points_per_node / v)
                worst = max(worst, rounds * per_thread_time)
            return worst
        # fewer nodes than states: greedy LPT packing of states onto nodes
        loads = np.zeros(nodes, dtype=float)
        for state_points in sorted(points, reverse=True):
            target = int(np.argmin(loads))
            loads[target] += ceil(state_points / v) * per_thread_time
        return float(loads.max())

    def _level_overhead_time(self, level: LevelWorkload, nodes: int) -> float:
        """Synchronisation + surplus allgather overhead of one level."""
        sync = self.barrier_latency * max(log2(nodes), 1.0) if nodes > 1 else 0.0
        comm = level.total_points * level.bytes_per_point / self.allgather_bandwidth
        comm = comm if nodes > 1 else 0.0
        return self.level_overhead + sync + comm

    def execution_time(self, nodes: int) -> ScalingPoint:
        """Predicted step time on ``nodes`` nodes."""
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        level_times = {}
        compute = 0.0
        overhead = 0.0
        for level in self.workload:
            lc = self._level_compute_time(level, nodes)
            lo = self._level_overhead_time(level, nodes)
            level_times[level.level] = lc + lo
            compute += lc
            overhead += lo
        single = self.execution_time_single_node() if nodes > 1 else compute + overhead
        ideal = single / nodes
        return ScalingPoint(
            nodes=nodes,
            total_time=compute + overhead,
            compute_time=compute,
            overhead_time=overhead,
            level_times=level_times,
            ideal_time=ideal,
        )

    def execution_time_single_node(self) -> float:
        point = self._single_node_cache if hasattr(self, "_single_node_cache") else None
        if point is None:
            compute = sum(self._level_compute_time(level, 1) for level in self.workload)
            overhead = sum(self._level_overhead_time(level, 1) for level in self.workload)
            point = compute + overhead
            self._single_node_cache = point
        return point

    def sweep(self, node_counts) -> list[ScalingPoint]:
        """Evaluate the model over a list of node counts (Fig. 8 sweep)."""
        return [self.execution_time(int(n)) for n in node_counts]

    def normalized_times(self, node_counts) -> dict:
        """Fig. 8 data: normalized total and per-level execution times.

        Times are normalized to the single-node total, matching the paper's
        normalisation (single node = 1.0).
        """
        points = self.sweep(node_counts)
        base = self.execution_time(1)
        out = {
            "nodes": np.asarray([p.nodes for p in points], dtype=np.int64),
            "total": np.asarray([p.total_time / base.total_time for p in points]),
            "ideal": np.asarray([1.0 / p.nodes for p in points]),
            "efficiency": np.asarray(
                [base.total_time / (p.total_time * p.nodes) for p in points]
            ),
        }
        for level in self.workload:
            out[f"level_{level.level}"] = np.asarray(
                [p.level_times[level.level] / base.total_time for p in points]
            )
        return out

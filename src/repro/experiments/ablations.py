"""Ablation experiments for the design choices called out in DESIGN.md.

These are not paper tables; they quantify the individual contribution of
the components the paper combines:

* proportional vs. uniform MPI group sizing across discrete states
  (the load-balancing rule of Sec. IV-A);
* work stealing vs. static partitioning inside a node (the TBB choice);
* surplus reordering on/off in the compressed interpolation kernels
  (the "reordered accordingly" step of Sec. IV-B);
* chain early-exit on a zero factor (the ``goto zero`` micro-optimisation
  in Fig. 5's kernel listing).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core.compression import CompressedGrid, compress_grid
from repro.core.kernels import evaluate
from repro.grids.regular import regular_sparse_grid
from repro.parallel.partition import load_imbalance, proportional_group_sizes, partition_counts
from repro.parallel.scheduler import simulate_schedule
from repro.utils.rng import default_rng

__all__ = [
    "PartitionAblation",
    "run_partition_ablation",
    "SchedulerAblation",
    "run_scheduler_ablation",
    "ReorderingAblation",
    "run_reordering_ablation",
    "unordered_layout",
    "run_scenario",
]


def run_scenario(params: dict) -> dict:
    """Scenario-engine adapter: run one named ablation, JSON-able payload.

    ``params["which"]`` selects ``partition``, ``scheduler`` or
    ``reordering``; the remaining params are forwarded to the
    corresponding ``run_*_ablation`` function.
    """
    from dataclasses import asdict

    params = dict(params)
    which = params.pop("which", "partition")
    runners = {
        "partition": run_partition_ablation,
        "scheduler": run_scheduler_ablation,
        "reordering": run_reordering_ablation,
    }
    if which not in runners:
        raise ValueError(f"unknown ablation {which!r}; expected one of {sorted(runners)}")
    result = runners[which](**params)
    payload = {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(result).items()}
    return {"which": which, **payload}


# --------------------------------------------------------------------------- #
# proportional vs uniform group sizing
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PartitionAblation:
    """Load imbalance with and without the proportional sizing rule."""

    points_per_state: tuple
    total_processes: int
    imbalance_proportional: float
    imbalance_uniform: float

    @property
    def improvement(self) -> float:
        """How much worse uniform sizing is (ratio of imbalances, >= 1 is better)."""
        if self.imbalance_proportional == 0:
            return float("inf") if self.imbalance_uniform > 0 else 1.0
        return self.imbalance_uniform / self.imbalance_proportional


def run_partition_ablation(
    points_per_state=None, total_processes: int = 64, seed: int = 0
) -> PartitionAblation:
    """Compare per-process load imbalance of the two group-sizing rules.

    The default per-state grid sizes use a dispersed adaptive spread (the
    situation in which proportional sizing matters; with nearly equal
    ``M_z`` — the paper's converged 69k..77k range — both rules coincide).
    """
    if points_per_state is None:
        rng = default_rng(seed)
        points_per_state = rng.integers(30_000, 150_000, size=16)
    points = np.asarray(points_per_state, dtype=np.int64)
    n_states = points.size

    prop_sizes = proportional_group_sizes(points, total_processes)
    uniform_sizes = partition_counts(total_processes, n_states)
    uniform_sizes = np.maximum(uniform_sizes, 1)

    def per_process_loads(sizes):
        loads = []
        for state_points, group in zip(points, sizes):
            group = max(int(group), 1)
            loads.extend([state_points / group] * group)
        return np.asarray(loads, dtype=float)

    return PartitionAblation(
        points_per_state=tuple(int(p) for p in points),
        total_processes=total_processes,
        imbalance_proportional=load_imbalance(per_process_loads(prop_sizes)),
        imbalance_uniform=load_imbalance(per_process_loads(uniform_sizes)),
    )


# --------------------------------------------------------------------------- #
# work stealing vs static partition
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SchedulerAblation:
    """Makespan of stealing vs. static scheduling on heterogeneous task costs."""

    num_tasks: int
    num_workers: int
    makespan_stealing: float
    makespan_static: float
    efficiency_stealing: float
    efficiency_static: float

    @property
    def speedup_from_stealing(self) -> float:
        return self.makespan_static / self.makespan_stealing


def run_scheduler_ablation(
    num_tasks: int = 2_000,
    num_workers: int = 24,
    heavy_fraction: float = 0.05,
    heavy_factor: float = 20.0,
    seed: int = 0,
) -> SchedulerAblation:
    """Simulate scheduling of grid-point solves with a heavy-tailed cost mix.

    A small fraction of points (near the box boundary) is much more
    expensive to solve — the situation TBB's stealing handles and a static
    block partition does not, especially when the heavy points cluster.
    """
    rng = default_rng(seed)
    costs = rng.exponential(1.0, num_tasks)
    heavy = int(heavy_fraction * num_tasks)
    # cluster the heavy tasks at the front (adjacent grid points are
    # spatially close, so expensive regions are contiguous in grid order)
    costs[:heavy] *= heavy_factor
    stealing = simulate_schedule(costs, num_workers, stealing=True)
    static = simulate_schedule(costs, num_workers, stealing=False)
    return SchedulerAblation(
        num_tasks=num_tasks,
        num_workers=num_workers,
        makespan_stealing=stealing["makespan"],
        makespan_static=static["makespan"],
        efficiency_stealing=stealing["efficiency"],
        efficiency_static=static["efficiency"],
    )


# --------------------------------------------------------------------------- #
# surplus reordering on/off
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ReorderingAblation:
    """Batched-kernel time with and without the surplus/chain reordering."""

    num_points: int
    dim: int
    seconds_reordered: float
    seconds_unordered: float

    @property
    def speedup_from_reordering(self) -> float:
        return self.seconds_unordered / self.seconds_reordered


def unordered_layout(comp: CompressedGrid) -> CompressedGrid:
    """``comp`` without the surplus reordering: original point order, identity permutation.

    The same interpolant in another memory layout — it evaluates the same
    values to rounding, so the ablation's timing ratio is the layout alone.
    """
    inverse = np.argsort(comp.order)
    return replace(
        comp,
        chains=np.ascontiguousarray(comp.chains[inverse]),
        order=np.arange(comp.num_points, dtype=np.int64),
    )


def run_reordering_ablation(
    dim: int = 20,
    level: int = 5,
    num_dofs: int = 40,
    num_queries: int = 200,
    repeats: int = 3,
    seed: int = 0,
) -> ReorderingAblation:
    """Measure the effect of the chain/surplus reordering on the batched kernel."""
    rng = default_rng(seed)
    grid = regular_sparse_grid(dim, level)
    comp = compress_grid(grid)
    surplus = rng.standard_normal((len(grid), num_dofs))
    queries = rng.random((num_queries, dim))

    def timed(c):
        # warm up first: the untimed call absorbs one-off costs (surplus
        # reordering, chain caches, allocator warm-up) that would otherwise
        # dominate single-repeat measurements
        evaluate(c, surplus, queries, kernel="cuda")
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            evaluate(c, surplus, queries, kernel="cuda")
            best = min(best, time.perf_counter() - t0)
        return best

    reordered = timed(comp)
    unordered_time = timed(unordered_layout(comp))
    return ReorderingAblation(
        num_points=len(grid),
        dim=dim,
        seconds_reordered=reordered,
        seconds_unordered=unordered_time,
    )

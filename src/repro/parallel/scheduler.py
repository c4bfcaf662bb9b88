"""TBB-like work-preempting (work-stealing) scheduling, simulated.

Inside a node the paper distributes grid points over TBB threads and relies
on TBB's task stealing to even out the very uneven per-point solve times
(points near the box boundary need many more Newton/Ipopt iterations than
interior points).  This reproduction solves a pass's points in one
vectorized call, so there is nothing to steal at run time;
:func:`simulate_schedule` is a deterministic scheduling simulation on
given task costs, used by the scheduler ablation (``stealing=False``: the
static block partition; no threads involved).
"""

from __future__ import annotations

import numpy as np

__all__ = ["simulate_schedule"]


def simulate_schedule(
    task_costs: np.ndarray, num_workers: int, stealing: bool = True
) -> dict:
    """Deterministic scheduling simulation on known task costs.

    ``stealing=True`` models a greedy list scheduler (work stealing keeps
    every worker busy while tasks remain — the classic 2-approximation);
    ``stealing=False`` models the static contiguous-block partition.

    Returns the makespan, the per-worker busy times and the parallel
    efficiency.  Used by the scheduler ablation.
    """
    costs = np.asarray(task_costs, dtype=float)
    if costs.ndim != 1:
        raise ValueError("task_costs must be 1-D")
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if costs.size == 0:
        return {"makespan": 0.0, "worker_times": np.zeros(num_workers), "efficiency": 1.0}
    if stealing:
        # greedy: next task goes to the earliest-finishing worker
        finish = np.zeros(num_workers)
        for cost in costs:
            w = int(np.argmin(finish))
            finish[w] += cost
        worker_times = finish
    else:
        bounds = np.linspace(0, costs.size, num_workers + 1, dtype=np.int64)
        worker_times = np.asarray(
            [costs[int(bounds[w]) : int(bounds[w + 1])].sum() for w in range(num_workers)]
        )
    makespan = float(worker_times.max())
    total = float(costs.sum())
    efficiency = total / (makespan * num_workers) if makespan > 0 else 1.0
    return {
        "makespan": makespan,
        "worker_times": worker_times,
        "efficiency": float(efficiency),
    }

"""TBB-like work-preempting (work-stealing) scheduler.

Inside a node the paper distributes grid points over TBB threads and relies
on TBB's task stealing to even out the very uneven per-point solve times
(points near the box boundary need many more Newton/Ipopt iterations than
interior points).  This module provides

* :class:`WorkStealingScheduler` — a real thread-backed scheduler with one
  deque per worker and steal-from-the-back semantics, used to execute
  grid-point solves of the time iteration;
* :func:`simulate_schedule` — a deterministic scheduling simulation on
  given task costs, used by the cost models and the no-stealing ablation
  (``stealing=False``: the static block partition; no threads involved).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SchedulerStats",
    "WorkStealingScheduler",
    "simulate_schedule",
]


@dataclass
class SchedulerStats:
    """Execution statistics of one ``map`` call."""

    tasks_per_worker: list[int] = field(default_factory=list)
    steals: int = 0
    workers: int = 0

    @property
    def total_tasks(self) -> int:
        return int(sum(self.tasks_per_worker))

    @property
    def imbalance(self) -> float:
        """``max/mean - 1`` of tasks per worker (0 = perfectly even)."""
        counts = np.asarray(self.tasks_per_worker, dtype=float)
        if counts.size == 0 or counts.sum() == 0:
            return 0.0
        return float(counts.max() / counts.mean() - 1.0)


class WorkStealingScheduler:
    """Thread-backed work-stealing ``map``.

    Each worker owns a deque seeded with a contiguous block of tasks
    (preserving locality, like TBB's affinity partitioner); workers pop
    from the *front* of their own deque and steal from the *back* of a
    victim's deque when they run dry.

    The scheduler object is reusable: every :meth:`map` call spawns fresh
    worker threads and returns results in input order.
    """

    def __init__(self, num_workers: int = 4, seed: int = 0) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.seed = seed
        self.last_stats: SchedulerStats | None = None

    def map(self, fn, items) -> list:
        """Apply ``fn`` to every item, in parallel, preserving input order."""
        items = list(items)
        n = len(items)
        if n == 0:
            self.last_stats = SchedulerStats(tasks_per_worker=[0] * self.num_workers,
                                             workers=self.num_workers)
            return []
        workers = min(self.num_workers, n)
        results: list = [None] * n
        errors: list = []

        # seed each worker's deque with a contiguous block
        bounds = np.linspace(0, n, workers + 1, dtype=np.int64)
        deques = [
            deque(range(int(bounds[w]), int(bounds[w + 1]))) for w in range(workers)
        ]
        locks = [threading.Lock() for _ in range(workers)]
        counts = [0] * workers
        steals = [0] * workers
        rng = np.random.default_rng(self.seed)
        victim_order = [rng.permutation(workers) for _ in range(workers)]

        def pop_own(w: int):
            with locks[w]:
                if deques[w]:
                    return deques[w].popleft()
            return None

        def steal(w: int):
            for victim in victim_order[w]:
                if victim == w:
                    continue
                with locks[victim]:
                    if deques[victim]:
                        steals[w] += 1
                        return deques[victim].pop()
            return None

        def worker(w: int) -> None:
            while True:
                idx = pop_own(w)
                if idx is None:
                    idx = steal(w)
                if idx is None:
                    return
                try:
                    results[idx] = fn(items[idx])
                except Exception as exc:  # repro: allow[broad-except] -- re-raised after the join
                    errors.append(exc)
                    return
                counts[w] += 1

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        self.last_stats = SchedulerStats(
            tasks_per_worker=counts, steals=int(sum(steals)), workers=workers
        )
        return results


def simulate_schedule(
    task_costs: np.ndarray, num_workers: int, stealing: bool = True
) -> dict:
    """Deterministic scheduling simulation on known task costs.

    ``stealing=True`` models a greedy list scheduler (work stealing keeps
    every worker busy while tasks remain — the classic 2-approximation);
    ``stealing=False`` models the static contiguous-block partition.

    Returns the makespan, the per-worker busy times and the parallel
    efficiency.  Used by the node-level cost models and the scheduler
    ablation benchmark.
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

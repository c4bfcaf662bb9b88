"""Map-style execution backends: scenario-level dispatch and per-point solves.

:func:`repro.scenarios.run_suite` (one task per scenario) and
:func:`repro.core.time_iteration.solve_points` (one ``solve_point`` per row,
which Fig. 7 times) only require an object with ``map(fn, items) -> list``;
these adapters provide serial, thread-pool and process-pool implementations
in addition to the work-stealing scheduler of :mod:`repro.parallel.scheduler`.
The time-iteration driver itself takes no executor.

Every backend returns results in input order.  Backends additionally
declare ``dispatches_in_order``: whether workers *start* items in input
order (serial/thread/process pools pull from one shared queue, so yes;
the work-stealing scheduler seeds per-worker blocks, so no).  The
scenario runner's longest-first schedule relies on this — putting the
longest task first only helps if some worker actually starts it first.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

__all__ = [
    "EXECUTOR_KINDS",
    "SerialExecutor",
    "ThreadPoolMapExecutor",
    "ProcessPoolMapExecutor",
    "make_executor",
]

#: Executor kinds accepted by :func:`make_executor` (also the choices the
#: scenario runner and its CLI expose for scenario-level dispatch).
EXECUTOR_KINDS = ("serial", "threads", "processes", "stealing")


class SerialExecutor:
    """Single-threaded reference executor."""

    dispatches_in_order = True

    def map(self, fn, items) -> list:
        return [fn(item) for item in items]


class ThreadPoolMapExecutor:
    """Thread-pool executor (shares memory; NumPy-heavy tasks overlap well)."""

    dispatches_in_order = True

    def __init__(self, num_workers: int = 4) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers

    def map(self, fn, items) -> list:
        items = list(items)
        if not items:
            return []
        with ThreadPoolExecutor(max_workers=self.num_workers) as pool:
            return list(pool.map(fn, items))


class ProcessPoolMapExecutor:
    """Process-pool executor for picklable task functions.

    The default time-iteration task closures are not picklable (they close
    over the model and the policy set), so this backend is intended for
    user-defined top-level functions — e.g. embarrassingly parallel
    parameter sweeps over whole model solves.
    """

    dispatches_in_order = True

    def __init__(self, num_workers: int = 2) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers

    def map(self, fn, items) -> list:
        items = list(items)
        if not items:
            return []
        with ProcessPoolExecutor(max_workers=self.num_workers) as pool:
            # chunksize=1 keeps submission order == start order, which the
            # scenario runner's longest-first schedule depends on
            return list(pool.map(fn, items, chunksize=1))


def make_executor(kind: str = "serial", num_workers: int = 4):
    """Factory: ``serial``, ``threads``, ``processes`` or ``stealing``."""
    if kind == "serial":
        return SerialExecutor()
    if kind == "threads":
        return ThreadPoolMapExecutor(num_workers)
    if kind == "processes":
        return ProcessPoolMapExecutor(num_workers)
    if kind == "stealing":
        from repro.parallel.scheduler import WorkStealingScheduler

        return WorkStealingScheduler(num_workers)
    raise ValueError(f"unknown executor kind {kind!r}; expected one of {EXECUTOR_KINDS}")

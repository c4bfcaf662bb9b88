"""Map-style execution backends: hosts for suite drains and Fig. 7's row blocks.

:func:`repro.scenarios.run_suite` (one lease drain per worker, which
orders and claims the scenarios itself) and :func:`repro.experiments.fig7.run_fig7`
(one ``solve_points_batch`` per contiguous block of a step's rows) only
require an object with ``map(fn, items) -> list``; these adapters provide
serial, thread-pool and process-pool implementations.  The time-iteration
driver itself takes no executor.  Every backend returns results in input
order.
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

#: Executor kinds accepted by :func:`make_executor` (also the hosts the
#: scenario runner and its CLI offer for suite drains).
EXECUTOR_KINDS = ("serial", "threads", "processes")


class SerialExecutor:
    """Single-threaded reference executor."""

    def map(self, fn, items) -> list:
        return [fn(item) for item in items]


class ThreadPoolMapExecutor:
    """Thread-pool executor (shares memory; NumPy-heavy tasks overlap well)."""

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

    Closures are not picklable, so this backend takes top-level functions:
    the scenario runner's hosted drains, or user-defined sweeps over whole
    model solves.
    """

    def __init__(self, num_workers: int = 2) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers

    def map(self, fn, items) -> list:
        items = list(items)
        if not items:
            return []
        with ProcessPoolExecutor(max_workers=self.num_workers) as pool:
            return list(pool.map(fn, items))


def make_executor(kind: str = "serial", num_workers: int = 4):
    """Factory: ``serial``, ``threads`` or ``processes``."""
    if kind == "serial":
        return SerialExecutor()
    if kind == "threads":
        return ThreadPoolMapExecutor(num_workers)
    if kind == "processes":
        return ProcessPoolMapExecutor(num_workers)
    raise ValueError(f"unknown executor kind {kind!r}; expected one of {EXECUTOR_KINDS}")

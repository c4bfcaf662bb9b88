"""Tests for the map-style executors."""

import pytest

from repro.parallel.executor import (
    ProcessPoolMapExecutor,
    SerialExecutor,
    ThreadPoolMapExecutor,
    make_executor,
)


def _square(x):
    return x * x


class TestSerialExecutor:
    def test_map(self):
        assert SerialExecutor().map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_empty(self):
        assert SerialExecutor().map(_square, []) == []


class TestThreadPoolExecutor:
    def test_map_preserves_order(self):
        executor = ThreadPoolMapExecutor(4)
        assert executor.map(_square, range(100)) == [x * x for x in range(100)]

    def test_empty(self):
        assert ThreadPoolMapExecutor(2).map(_square, []) == []

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ThreadPoolMapExecutor(0)

    def test_closures_allowed(self):
        offset = 10
        executor = ThreadPoolMapExecutor(3)
        assert executor.map(lambda x: x + offset, [1, 2]) == [11, 12]


class TestProcessPoolExecutor:
    def test_map_with_module_level_function(self):
        executor = ProcessPoolMapExecutor(2)
        assert executor.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]

    def test_empty(self):
        assert ProcessPoolMapExecutor(2).map(_square, []) == []

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolMapExecutor(0)


class TestFactory:
    @pytest.mark.parametrize(
        "kind, cls",
        [
            ("serial", SerialExecutor),
            ("threads", ThreadPoolMapExecutor),
            ("processes", ProcessPoolMapExecutor),
        ],
    )
    def test_known_kinds(self, kind, cls):
        assert isinstance(make_executor(kind), cls)

    def test_stealing_kind(self):
        # a suite host only runs N identical drains, which leave nothing to steal:
        # the work-stealing scheduler is built directly, for per-point dispatch
        from repro.parallel.scheduler import WorkStealingScheduler

        with pytest.raises(ValueError):
            make_executor("stealing", 2)
        assert WorkStealingScheduler(2).map(_square, range(9)) == [x * x for x in range(9)]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_executor("quantum")

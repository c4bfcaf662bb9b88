"""Tests for the map-style executors."""

import threading

import pytest

from repro.parallel.executor import (
    ProcessPoolMapExecutor,
    SerialExecutor,
    ThreadPoolMapExecutor,
    make_executor,
)


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise RuntimeError("boom")
    return x


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


    def test_results_in_input_order_when_tasks_finish_out_of_order(self):
        """The first item waits until the last one is done; results keep input order."""
        last_done = threading.Event()

        def task(x):
            if x == 0:
                assert last_done.wait(timeout=10)
            if x == 3:
                last_done.set()
            return x * 10

        assert ThreadPoolMapExecutor(4).map(task, range(4)) == [0, 10, 20, 30]

    def test_more_workers_than_items(self):
        seen = []
        assert ThreadPoolMapExecutor(8).map(lambda x: seen.append(x) or -x, [1, 2]) == [-1, -2]
        assert sorted(seen) == [1, 2]


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
        # a suite host only runs N identical drains, which leave nothing to steal
        with pytest.raises(ValueError):
            make_executor("stealing", 2)

    @pytest.mark.parametrize("kind", ["serial", "threads", "processes"])
    def test_exception_propagates(self, kind):
        with pytest.raises(RuntimeError, match="boom"):
            make_executor(kind, 2).map(_fail_on_three, range(5))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_executor("quantum")

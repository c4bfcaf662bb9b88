"""Span tracer that wraps public callables from the outside.

The ledger owns its tracing: nothing under ``src/`` knows about it.  A
:class:`Tracer` replaces module attributes (including names re-bound by
``from x import y`` in other ``repro`` modules) and class attributes with
thin wrappers, records one span per call in memory and puts every original
back on :meth:`Tracer.restore`.

A span is ``(target, start, end, parent, note)``: ``target`` indexes
:attr:`Tracer.targets` (``(layer, qualified name)``), ``parent`` is the
index of the calling span in the same thread's list (``-1`` for a root)
and ``note`` is whatever the target's ``observe`` hook returned (counts
read off the arguments and the result — never timing).  Each thread keeps
its own span list and stack, so the lease heartbeat thread cannot corrupt
the solve thread's parent links.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from typing import Any, Callable

Observe = Callable[[tuple, dict, Any], Any]


class Tracer:
    """Records spans around wrapped callables; restores them on demand."""

    def __init__(self) -> None:
        self.targets: list[tuple[str, str]] = []
        #: thread name -> that thread's spans, in start order
        self.threads: dict[str, list] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._functions: list[tuple[Any, str, Any, Any]] = []  # owner, attr, original, wrapper
        self._methods: list[tuple[type, str, Any, bool]] = []  # cls, attr, raw, was_in_dict

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def _thread_state(self) -> tuple[list, list]:
        spans: list = []
        stack: list = []
        self._local.state = (spans, stack)
        with self._lock:
            name = threading.current_thread().name
            while name in self.threads:
                name += "+"
            self.threads[name] = spans
        return spans, stack

    def wrap(self, layer: str, name: str, fn: Callable, observe: Observe | None = None) -> Callable:
        """A wrapper recording one span per call of ``fn``."""
        target = len(self.targets)
        self.targets.append((layer, name))
        local = self._local
        clock = time.perf_counter
        thread_state = self._thread_state

        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                spans, stack = local.state
            except AttributeError:
                spans, stack = thread_state()
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                note = observe(args, kwargs, result) if observe is not None else None
                spans[index] = (target, start, end, parent, note)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch_function(
        self, layer: str, module: Any, attr: str, observe: Observe | None = None
    ) -> None:
        """Wrap ``module.attr`` and every ``repro`` name bound to the same object."""
        original = getattr(module, attr)
        wrapper = self.wrap(layer, f"{module.__name__}.{attr}", original, observe)
        self._functions.append((module, attr, original, wrapper))
        setattr(module, attr, wrapper)
        for other in _repro_modules():
            for name, value in list(vars(other).items()):
                if value is original:
                    setattr(other, name, wrapper)

    def patch_method(
        self, layer: str, cls: type, attr: str, observe: Observe | None = None
    ) -> None:
        """Wrap the plain method ``cls.attr`` (inherited ones are shadowed)."""
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, (staticmethod, classmethod, property)):
            raise TypeError(f"{cls.__name__}.{attr} is not a plain method")
        self._methods.append((cls, attr, raw, attr in vars(cls)))
        name = f"{cls.__module__}.{cls.__name__}.{attr}"
        setattr(cls, attr, self.wrap(layer, name, raw, observe))

    def restore(self) -> None:
        """Put every original back, including names imported while tracing."""
        for module, attr, original, wrapper in reversed(self._functions):
            setattr(module, attr, original)
            for other in _repro_modules():
                for name, value in list(vars(other).items()):
                    if value is wrapper:
                        setattr(other, name, original)
        for cls, attr, raw, was_own in reversed(self._methods):
            if was_own:
                setattr(cls, attr, raw)
            else:
                delattr(cls, attr)
        self._functions.clear()
        self._methods.clear()

    def patched(self) -> list[tuple[Any, str, Any]]:
        """``(owner, attr, original)`` of everything currently wrapped."""
        return [(m, a, o) for m, a, o, _w in self._functions] + [
            (c, a, r) for c, a, r, _own in self._methods
        ]

    # ------------------------------------------------------------------ #
    # reading the spans back
    # ------------------------------------------------------------------ #
    def main_spans(self) -> list:
        return self.threads.get(threading.main_thread().name, [])

    def all_spans(self) -> list:
        return [span for spans in self.threads.values() for span in spans if span is not None]

    def save(self, path: Any) -> None:
        """Write every span, columnar, as one compressed ``.npz``."""
        import numpy as np

        rows = [
            (thread, *span[:4], span[4] if isinstance(span[4], str) else "")
            for thread, spans in enumerate(self.threads.values())
            for span in spans
            if span is not None
        ]
        columns = list(zip(*rows)) if rows else [[]] * 6
        np.savez_compressed(
            path,
            layers=np.array([layer for layer, _name in self.targets]),
            names=np.array([name for _layer, name in self.targets]),
            threads=np.array(list(self.threads)),
            thread=np.array(columns[0], dtype=np.int32),
            target=np.array(columns[1], dtype=np.int32),
            start=np.array(columns[2], dtype=float),
            end=np.array(columns[3], dtype=float),
            parent=np.array(columns[4], dtype=np.int64),
            scenario=np.array(columns[5], dtype=str),  # on the spans that open a scenario
        )

    def self_times(self) -> dict[int, list[float]]:
        """target -> ``[calls, self seconds]``; self = span minus its children."""
        out: dict[int, list[float]] = {}
        for spans in self.threads.values():
            child = [0.0] * len(spans)
            # children start after (and so are stored after) their parent
            for index in range(len(spans) - 1, -1, -1):
                span = spans[index]
                if span is None:
                    continue
                target, start, end, parent, _note = span
                duration = end - start
                if parent >= 0:
                    child[parent] += duration
                acc = out.setdefault(target, [0, 0.0])
                acc[0] += 1
                acc[1] += duration - child[index]
        return out


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]

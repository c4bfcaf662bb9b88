"""Deterministic fault injection for protocol and crash tests.

:class:`FaultInjectingBackend` wraps any :class:`StorageBackend` and
applies a list of :class:`FaultRule` s to its object operations, so
tests can deterministically reproduce the failure modes a worker fleet
meets in the wild:

* **transient errors** (``action="error"``, default
  :class:`~repro.scenarios.backends.retry.TransientStorageError`) — an
  object-store blip the retry loop must absorb, or a persistent failure
  (``times=None``) the scenario-level retry budget must park.  Faults
  land *below* the retry: rules fire in the harness's single-attempt
  primitives, so the public operation that raised them retries exactly
  as it would around a real transport's error;
* **dropped puts** (``action="drop"``) — a write that reports success
  upstream but never lands, which the lease protocol's read-back-verify
  must detect;
* **worker death** (``action="crash"``, raising :class:`InjectedCrash`,
  a ``BaseException``) — kill -9 between two protocol steps: nothing
  downstream may catch it as an ordinary scenario failure, so the test
  harness sees exactly the half-finished state a real SIGKILL leaves;
* **delays** (``action="delay"``) and **arbitrary callbacks**
  (``action="call"``) — widen race windows and interleave a competing
  writer at a precise protocol step.

Rules match on the operation name and a key substring, can skip the
first ``after`` matches and fire a bounded ``times`` (``None`` =
forever), so "crash on the second checkpoint put" is one rule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.scenarios.backends.base import StorageBackend
from repro.scenarios.backends.retry import TransientStorageError

__all__ = ["InjectedCrash", "FaultRule", "FaultInjectingBackend"]

_ACTIONS = ("error", "drop", "crash", "delay", "call")


class InjectedCrash(BaseException):
    """Simulated worker death (kill -9) between two protocol steps.

    Deliberately a ``BaseException``: ordinary ``except Exception``
    failure handling in the runner/worker must not swallow it, exactly
    as a real SIGKILL cannot be caught.
    """


@dataclass
class FaultRule:
    """One injection rule: when (op/substring/after/times) and what (action)."""

    op: str = "*"  # "put" | "get" | "delete" | "exists" | "list" | "mtime" | "*"
    substring: str = ""  # key must contain this to match
    action: str = "error"
    times: int | None = 1  # how many matching calls fire; None = every one
    after: int = 0  # skip the first N matching calls
    exc: Callable[[], BaseException] | None = None  # for action="error"
    delay: float = 0.0  # for action="delay"
    # for action="call": callback(backend, op, key)
    callback: Callable[[StorageBackend, str, str], object] | None = None
    seen: int = field(default=0, init=False)  # matching calls observed
    fired: int = field(default=0, init=False)  # matching calls acted upon

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; expected one of {_ACTIONS}")
        if self.action == "call" and self.callback is None:
            raise ValueError("action='call' rules need a callback")

    def matches(self, op: str, key: str) -> bool:
        return (self.op in ("*", op)) and (self.substring in key)

    @property
    def exhausted(self) -> bool:
        return self.times is not None and self.fired >= self.times

    def make_exc(self) -> BaseException:
        if self.exc is not None:
            return self.exc()
        return TransientStorageError(f"injected transient fault ({self.op} {self.substring!r})")


class FaultInjectingBackend(StorageBackend):
    """A :class:`StorageBackend` decorator that injects configured faults.

    Wraps a live backend instance; every primitive not matched by a rule
    is delegated verbatim to the inner backend's.  The commit log is
    inherited, not delegated: it runs on *this* instance's object
    operations, so a rule on ``commits/`` or ``commit-snapshots/`` keys
    reaches appends, merges and folds like any other traffic.  Note the
    canonical ``url`` is the inner backend's: a store re-opened from that
    URL gets the *healthy* backend — fault wiring is per-instance, which
    is exactly what lets a test give one worker a faulty view of a store
    its peers see intact.
    """

    scheme = "fault"

    def __init__(self, inner: StorageBackend, rules: Iterable[FaultRule] = ()) -> None:
        self.inner = inner
        self.url = inner.url
        self.rules: list[FaultRule] = list(rules)
        self.ops: list[tuple[str, str]] = []  # (op, key) audit trail, for assertions

    @property
    def process_shared(self) -> bool:  # type: ignore[override]
        return self.inner.process_shared

    @property
    def local_root(self) -> Path | None:
        return self.inner.local_root

    def add_rule(self, **kwargs: Any) -> FaultRule:
        """Register and return a new :class:`FaultRule`."""
        rule = FaultRule(**kwargs)
        self.rules.append(rule)
        return rule

    def clear_rules(self) -> None:
        self.rules.clear()

    # ------------------------------------------------------------------ #
    def _intercept(self, op: str, key: str) -> str:
        """Apply matching rules; returns "drop" when the op must be
        swallowed, "" to proceed.  Raises for error/crash actions."""
        self.ops.append((op, key))
        outcome = ""
        for rule in self.rules:
            if not rule.matches(op, key):
                continue
            rule.seen += 1
            if rule.seen <= rule.after or rule.exhausted:
                continue
            rule.fired += 1
            if rule.action == "delay":
                time.sleep(rule.delay)
            elif rule.action == "call":
                assert rule.callback is not None  # enforced in __post_init__
                rule.callback(self.inner, op, key)
            elif rule.action == "drop":
                outcome = "drop"
            elif rule.action == "crash":
                raise InjectedCrash(f"injected crash on {op} {key!r}")
            else:  # "error"
                raise rule.make_exc()
        return outcome

    # ------------------------------------------------------------------ #
    # primitives: intercept, then one attempt on the inner backend's own
    # primitive — this instance's public ops are the single retry layer
    # ------------------------------------------------------------------ #
    def _get(self, key: str) -> bytes:
        self._intercept("get", key)
        return self.inner._get(key)

    def _put(self, key: str, data: bytes) -> None:
        if self._intercept("put", key) == "drop":
            return  # the write reports success but never lands
        self.inner._put(key, data)

    def _exists(self, key: str) -> bool:
        self._intercept("exists", key)
        return self.inner._exists(key)

    def _delete(self, key: str) -> bool:
        if self._intercept("delete", key) == "drop":
            return False
        return self.inner._delete(key)

    def _list(self, prefix: str) -> list[str]:
        self._intercept("list", prefix)
        return self.inner._list(prefix)

    def _mtime(self, key: str) -> float:
        self._intercept("mtime", key)
        return self.inner._mtime(key)

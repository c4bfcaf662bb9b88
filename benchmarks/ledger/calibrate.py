"""Machine-speed samples that let a run express its times at reference speed.

The 2-core sandbox this ledger was written on changes speed under the
benchmark's feet: with nothing else running, one and the same level-2 solve
takes 0.70 to 1.51 s within five minutes, CPU time tracks wall and no steal
time is reported.  The swings last from under a second to tens of seconds,
so medians over the repeats of one run do not remove them: over 45
back-to-back runs of four solves each, the quartile spread of raw wall
seconds was 0.19, and two sets of ten runs taken minutes apart differed by
up to 49% in their medians.

So a run samples the machine while it measures.  A :class:`Speedometer`
arms an interval timer; every ``PERIOD_S`` the signal handler — which
Python runs on the main thread, between two bytecodes of whatever the
workload is executing — does a *burst* of fixed work that owes nothing to
the program under test and records how long it took.  A timed section is
bracketed by two more bursts.  The section's seconds are its wall minus the
bursts inside it, divided by ``mean(bursts) / NOMINAL_S``.  On recorded
traces of the noisy machine, sampling inside the sections brought the
quartile spread over runs from 0.21-0.25 (raw) and 0.08-0.17 (bracketing
bursts only) down to 0.03-0.08.  A second process sampling on the other
core was tried and tracked no better than the brackets (0.07-0.17).  Raw
seconds and every burst stay in the record.

The burst is CPU work, as the timed sections are: the store workloads run
on ``mem://`` because the sandbox's ext4 (mounted with ``discard``) makes
``file://`` timings mostly kernel time that no burst follows (README.md).
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Callable

import numpy as np

#: seconds one burst takes on the reference sandbox when it is quiet; makes
#: normalised seconds read like seconds there (elsewhere the constant bias
#: cancels in every comparison)
NOMINAL_S = 0.0175


def burst() -> float:
    """Small-array numpy calls driven from Python bytecode, like a point solve."""
    a = np.arange(64.0)
    total = 0.0
    start = time.perf_counter()
    for _ in range(12_000):
        total += float(a @ a)
        a = a * 1.0000001
    return time.perf_counter() - start


class Speedometer:
    """Times sections at reference speed; use as a context manager."""

    PERIOD_S = 0.25

    def __init__(self) -> None:
        #: (start, seconds) of every burst, in order
        self.bursts: list[tuple[float, float]] = []
        self._sampling = False

    def _sample(self, *_signal_args: Any) -> None:
        if self._sampling:  # a tick during a burst would be timed as part of it
            return
        self._sampling = True
        try:
            start = time.perf_counter()
            self.bursts.append((start, burst()))
        finally:
            self._sampling = False

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *_exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, section: Callable[[], Any]) -> tuple[Any, float, float]:
        """Run ``section``; returns ``(its result, raw seconds, seconds at reference speed)``.

        Raw seconds exclude the bursts that interrupted the section.
        """
        first = len(self.bursts)
        self._sample()
        start = time.perf_counter()
        result = section()
        end = time.perf_counter()
        self._sample()
        mine = self.bursts[first:]
        inside = sum(seconds for began, seconds in mine if start < began < end)
        raw = end - start - inside
        slowdown = statistics.fmean(seconds for _began, seconds in mine) / NOMINAL_S
        return result, raw, raw / slowdown

    def slowdown(self) -> float:
        """Mean burst of the whole run over the nominal one."""
        return statistics.fmean(seconds for _began, seconds in self.bursts) / NOMINAL_S

"""Bounded retry with exponential backoff + jitter for storage backends.

One storage blip must not fail a whole suite run: the six public object
operations of :class:`~repro.scenarios.backends.base.StorageBackend` run
each backend's single-attempt primitive through
:func:`call_with_retries`, which retries *transient* errors a bounded
number of times with exponentially growing, jittered sleeps and
re-raises everything else immediately.  That is the only place a storage
operation is retried: callers above the backend (store, lease protocol,
event sink, tailer, commit log) call the public operations plainly.

Transient-error classification is deliberately conservative
(:func:`is_transient`): connection resets, timeouts, the explicit
:class:`TransientStorageError` marker (what the fault-injection harness
raises), and botocore-shaped throttling/5xx responses are retried; a
:class:`FileNotFoundError` is an *answer* (the object is absent), not a
failure, and anything unrecognised propagates rather than being
hammered against a broken backend.

The budget is fixed policy: :data:`DEFAULT_RETRIES` attempts after the
first try, the n-th retry (from 0) sleeping :func:`backoff` of
:data:`DEFAULT_RETRY_BASE` — ``base * 2**n`` seconds scaled by a random
jitter in [0.5, 1.5), so a fleet of workers hitting one hiccup does not
retry in lockstep.  A drain waits out a failed scenario's attempt with
the same function.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, TypeVar

from repro.utils.logging import get_logger

__all__ = [
    "DEFAULT_RETRIES",
    "DEFAULT_RETRY_BASE",
    "TransientStorageError",
    "backoff",
    "is_transient",
    "call_with_retries",
]

logger = get_logger("scenarios.backends.retry")

T = TypeVar("T")

#: retries after the first attempt of one storage operation
DEFAULT_RETRIES = 3
#: seconds the first retry waits (before jitter); each later one doubles it
DEFAULT_RETRY_BASE = 0.05

#: botocore-style error codes that denote a retryable service condition
_TRANSIENT_S3_CODES = frozenset(
    ("Throttling", "ThrottlingException", "SlowDown", "RequestTimeout",
     "InternalError", "ServiceUnavailable")
)
_TRANSIENT_HTTP_STATUS = frozenset((429, 500, 502, 503, 504))


class TransientStorageError(OSError):
    """A storage error known to be worth retrying.

    Raised by backends/wrappers that can classify their own failures —
    notably the fault-injection harness, which uses it to model an
    object-store blip that a healthy retry loop must absorb.
    """


def is_transient(exc: BaseException) -> bool:
    """Whether an exception denotes a retryable storage hiccup."""
    if isinstance(exc, FileNotFoundError):
        return False  # a miss is an answer, not a failure
    if isinstance(
        exc,
        (ConnectionError, TimeoutError, BlockingIOError, InterruptedError,
         TransientStorageError),
    ):
        return True
    # botocore.ClientError duck-typing: the library never imports boto3,
    # but a real-S3 backend surfaces throttles/5xx as exceptions carrying
    # a ``response`` dict of this exact shape
    response = getattr(exc, "response", None)
    if isinstance(response, dict):
        status = response.get("ResponseMetadata", {}).get("HTTPStatusCode")
        code = response.get("Error", {}).get("Code", "")
        return status in _TRANSIENT_HTTP_STATUS or code in _TRANSIENT_S3_CODES
    return False


def backoff(base: float, attempt: int, rng: Callable[[], float]) -> float:
    """Seconds to wait before retry ``attempt`` (from 0): ``base * 2**attempt``
    scaled by a jitter ``0.5 + rng()``, i.e. in [0.5, 1.5) of it."""
    return base * (2.0**attempt) * (0.5 + rng())


def call_with_retries(
    fn: Callable[..., T],
    *args: Any,
    sleep: Callable[[float], None] = time.sleep,
    rng: Callable[[], float] = random.random,
    **kwargs: Any,
) -> T:
    """Call ``fn(*args, **kwargs)``, retrying transient failures.

    Up to :data:`DEFAULT_RETRIES` retries, waiting :func:`backoff` of
    :data:`DEFAULT_RETRY_BASE`; both are read when the call is made.
    Non-transient exceptions (per :func:`is_transient`) and the final
    transient failure propagate unchanged, so callers see the original error.
    """
    attempt = 0
    while True:
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # classified and re-raised below
            if not is_transient(exc):
                raise
            if attempt >= DEFAULT_RETRIES:
                raise
            delay = backoff(DEFAULT_RETRY_BASE, attempt, rng)
            logger.warning(
                "transient storage error on %s %s (attempt %d/%d, retrying in %.3fs): %s",
                getattr(fn, "__name__", "?"), args[0] if args else "", attempt + 1,
                DEFAULT_RETRIES, delay, exc,
            )
            if delay > 0:
                sleep(delay)
            attempt += 1

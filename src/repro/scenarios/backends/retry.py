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

Environment knobs:

* ``REPRO_STORE_RETRIES`` — attempts *after* the first try (default 3;
  ``0`` disables retrying entirely);
* ``REPRO_STORE_RETRY_BASE`` — base backoff seconds (default 0.05; the
  n-th retry sleeps ``base * 2**n`` scaled by a random jitter in
  [0.5, 1.5), so a fleet of workers hitting one hiccup does not retry
  in lockstep).

Both are read from the environment when a call first hits a transient
error (they may be changed mid-process; a healthy call reads neither) and
parsed — and, when negative or garbled, warned about — once per distinct
value.
"""

from __future__ import annotations

import functools
import os
import random
import time
from typing import Any, Callable, TypeVar

from repro.utils.logging import get_logger

__all__ = [
    "RETRIES_ENV",
    "RETRY_BASE_ENV",
    "DEFAULT_RETRIES",
    "DEFAULT_RETRY_BASE",
    "TransientStorageError",
    "is_transient",
    "call_with_retries",
    "env_knob",
]

logger = get_logger("scenarios.backends.retry")

T = TypeVar("T")

#: environment override for the retry budget (attempts after the first)
RETRIES_ENV = "REPRO_STORE_RETRIES"
#: environment override for the base backoff delay in seconds
RETRY_BASE_ENV = "REPRO_STORE_RETRY_BASE"

DEFAULT_RETRIES = 3
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


@functools.lru_cache(maxsize=32, typed=True)
def _parse_knob(name: str, raw: str, default: float) -> float:
    """``raw`` as a non-negative number of ``default``'s type (int or float).

    Cached, so each distinct raw string is parsed once — and a bad one
    warned about once, not per failing operation.
    """
    kind = type(default)
    if not raw.strip():
        return default
    try:
        value = kind(raw)
    except ValueError:
        logger.warning("ignoring non-%s %s=%r (using %s)", kind.__name__, name, raw, default)
        return default
    if value < 0:
        logger.warning("clamping negative %s=%r to 0", name, raw)
        return kind(0)
    return value


def env_knob(name: str, default: float) -> float:
    """The non-negative numeric environment knob ``name`` (``default``'s
    type), read on every use: the variables may change mid-process.
    Empty -> default, garbage -> warn + default, negative -> warn + 0."""
    raw = os.environ.get(name)
    return default if raw is None else _parse_knob(name, raw, default)


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


def call_with_retries(
    fn: Callable[..., T],
    *args: Any,
    retries: int | None = None,
    base_delay: float | None = None,
    sleep: Callable[[float], None] = time.sleep,
    rng: Callable[[], float] = random.random,
    **kwargs: Any,
) -> T:
    """Call ``fn(*args, **kwargs)``, retrying transient failures.

    ``retries``/``base_delay`` default to the environment knobs above.
    Non-transient exceptions (per :func:`is_transient`) and the final
    transient failure propagate unchanged, so callers see the original
    error.
    """
    attempt = 0
    while True:
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # classified and re-raised below
            if not is_transient(exc):
                raise
            # the knobs matter only once something transient has failed: a
            # healthy call reads no environment
            if retries is None:
                retries = int(env_knob(RETRIES_ENV, DEFAULT_RETRIES))
            if base_delay is None:
                base_delay = env_knob(RETRY_BASE_ENV, DEFAULT_RETRY_BASE)
            if attempt >= retries:
                raise
            delay = base_delay * (2.0**attempt) * (0.5 + rng())
            logger.warning(
                "transient storage error on %s %s (attempt %d/%d, retrying in %.3fs): %s",
                getattr(fn, "__name__", "?"), args[0] if args else "", attempt + 1, retries,
                delay, exc,
            )
            if delay > 0:
                sleep(delay)
            attempt += 1

"""Checkpoint/resume for time-iteration solves.

:class:`SolveCheckpoint` implements the (duck-typed) per-member checkpoint
hook of the time-iteration loop
(:class:`repro.core.batched.BatchedTimeIterationSolver`, which
:meth:`repro.core.time_iteration.TimeIterationSolver.solve` runs on a
group of one).  It persists on ONE rule, measured on an injectable clock:
at an iteration boundary — and at completion — the current
:class:`~repro.core.policy.PolicySet`, the iteration records and the
convergence flag are written atomically to one npz file when at least
:data:`CHECKPOINT_SECONDS` have passed since the hook was built, loaded or
last wrote.  So *a kill, a failed commit or a rerun repeats at most one
interval of solve time plus the iteration in flight*; a solve that ends
inside its first interval writes no checkpoint at all, and one that is
killed resumes from the last *persisted* iteration (from ``p^0`` when none
was).  One time-iteration step is a deterministic function of the previous
iterate, so the resumed run reproduces the uninterrupted one bit-for-bit.

Checkpointing is persistence only; the *observability* of the same
iteration boundary — the ``solve-started``/``iteration``/``refined``/
``converged``/``solve-finished`` vocabulary of
:data:`repro.parallel.tracing.SOLVE_EVENT_KINDS` — is emitted by the
loop itself (pass ``events=``), so solves report progress whether or not
they checkpoint, and the checkpoint's ``abort`` hook stays the single
cancellation point, polled at every iteration before anything is written.

Example
-------
>>> solver = TimeIterationSolver(model, config)
>>> ckpt = SolveCheckpoint("run.ckpt.npz", config=config)
>>> result = solver.solve(checkpoint=ckpt)        # killed at iteration k?
>>> result = solver.solve(checkpoint=ckpt)        # ...resumes from the last persisted one
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.policy import PolicySet
from repro.core.time_iteration import TimeIterationConfig, TimeIterationResult
from repro.scenarios import serialize
from repro.utils.logging import get_logger

__all__ = [
    "CHECKPOINT_SECONDS",
    "CheckpointState",
    "SolveCheckpoint",
    "InterruptingCheckpoint",
    "SimulatedKill",
    "SolveAbandoned",
]

logger = get_logger("scenarios.checkpoint")

#: Seconds of solve time a checkpoint may lag behind: a sixth of the default lease
#: TTL, so a steal's dead time dwarfs what its resume repeats; a write per 5 s is < 1%.
CHECKPOINT_SECONDS = 5.0


class SolveAbandoned(RuntimeError):
    """A solve stopped because its claim on the scenario ended.

    Raised from a checkpoint's ``abort`` hook (e.g. when a lease-holding
    worker loses its lease to a peer): the solve must stop *without*
    committing anything — the scenario now belongs to whoever stole the
    claim, and they resume from the last checkpoint this worker wrote.
    The loop hands it back on the member's outcome like any other
    exception of a hook; the solve-and-commit path
    (:func:`repro.scenarios.batching.solve_batch_and_commit`) is where it
    is told apart and returned instead of a failure entry.
    """


@dataclass
class CheckpointState:
    """Snapshot a solve can resume from."""

    policy: PolicySet
    records: list
    converged: bool
    config: TimeIterationConfig

    @property
    def iteration(self) -> int:
        return self.records[-1].iteration if self.records else 0


class SolveCheckpoint:
    """Checkpoints of a time-iteration solve, written on a wall-clock cadence.

    Parameters
    ----------
    path
        The checkpoint target (npz): a filesystem path, or a storage
        backend :class:`~repro.scenarios.backends.BlobRef` (what the
        scenario runner passes, so checkpoints land on whichever backend
        the store URL selected).  Written atomically either way; a
        partial write never clobbers the previous checkpoint.
    config
        Optional expected solver configuration.  When given, ``load``
        raises if the file was produced under a different configuration —
        resuming a solve with different settings would silently *not* be
        equivalent to an uninterrupted run.  Checkpoints are always
        *written* with the solving driver's actual configuration (the
        solver passes it to the hooks), so provenance stays correct even
        for hooks constructed without a config.
    abort
        Optional zero-argument callable polled at every iteration
        boundary *before* anything is written; a truthy return raises
        :class:`SolveAbandoned`.  This is how a lease-holding worker
        stops solving the moment its lease is lost (stolen, or
        unrenewable past its TTL deadline): the abandoning worker writes
        nothing further — the thief owns the checkpoint now and resumes
        from the last state this worker persisted (steal-then-resume).
    clock
        Zero-argument callable returning seconds, on which the cadence is
        measured; a test seam (the lease workers pass their lease clock).
    """

    def __init__(
        self,
        path,
        config: TimeIterationConfig | None = None,
        abort=None,
        clock=time.monotonic,
    ) -> None:
        self.path = path if serialize.is_blob_target(path) else Path(path)
        self.config = config
        self.abort = abort
        self.clock = clock
        self.writes = 0  # states this hook persisted
        self.resumed = False  # whether load() found one to start from
        self._persisted_at = clock()

    # ------------------------------------------------------------------ #
    # hook protocol consumed by the time-iteration loop
    # ------------------------------------------------------------------ #
    def load(self) -> CheckpointState | None:
        """Read the saved state, or ``None`` when no checkpoint exists."""
        self._persisted_at = self.clock()  # the store holds what the solve starts from
        try:  # one read, a miss is the answer: the object may vanish after any exists()
            result = serialize.load_result(self.path)
        except FileNotFoundError:
            return None
        if self.config is not None and serialize.config_to_dict(
            result.config
        ) != serialize.config_to_dict(self.config):
            raise ValueError(
                f"checkpoint {self.path} was written under a different solver "
                "configuration; refusing to resume (delete the checkpoint or "
                "match the config)"
            )
        logger.info(
            "resuming from %s at iteration %d", self.path, len(result.records)
        )
        self.resumed = True
        return CheckpointState(
            policy=result.policy,
            records=list(result.records),
            converged=result.converged,
            config=result.config,
        )

    def on_iteration(
        self, policy: PolicySet, records: list, converged: bool, config: TimeIterationConfig
    ) -> None:
        # poll the abort hook BEFORE any write: once the lease is gone the
        # checkpoint belongs to the thief, and overwriting it could roll
        # the thief's resume state backwards
        if self.abort is not None and self.abort():
            raise SolveAbandoned(
                f"solve abandoned at iteration {len(records)} (claim on the "
                "scenario was lost)"
            )
        self._write_if_due(policy, records, converged, config)

    def on_complete(
        self, policy: PolicySet, records: list, converged: bool, config: TimeIterationConfig
    ) -> None:
        # no exception for the final state: the result is the caller's to store
        self._write_if_due(policy, records, converged, config)

    # ------------------------------------------------------------------ #
    def _write_if_due(self, *state) -> None:
        if self.clock() - self._persisted_at >= CHECKPOINT_SECONDS:
            self._write(*state)

    def _write(
        self, policy: PolicySet, records: list, converged: bool, config: TimeIterationConfig
    ) -> None:
        serialize.save_result(
            self.path,
            TimeIterationResult(
                policy=policy, records=list(records), converged=converged, config=config
            ),
        )
        self.writes += 1
        self._persisted_at = self.clock()

    def delete(self) -> None:
        """Remove the checkpoint file (e.g. after the result was stored)."""
        self.path.unlink(missing_ok=True)


class SimulatedKill(KeyboardInterrupt):
    """Raised by :class:`InterruptingCheckpoint` to emulate a killed solve."""


class InterruptingCheckpoint(SolveCheckpoint):
    """A :class:`SolveCheckpoint` that kills the solve after N iterations.

    Testing/demo hook (``--interrupt-after`` in the CLI): a run that has
    persisted nothing yet writes the newest state first, whatever the clock
    says, then :class:`SimulatedKill` is raised.
    """

    def __init__(self, path, config=None, interrupt_after: int = 1, clock=time.monotonic) -> None:
        super().__init__(path, config=config, clock=clock)
        if interrupt_after < 1:
            raise ValueError("interrupt_after must be >= 1")
        self.interrupt_after = interrupt_after

    def on_iteration(
        self, policy: PolicySet, records: list, converged: bool, config: TimeIterationConfig
    ) -> None:
        super().on_iteration(policy, records, converged, config)
        if not converged and len(records) >= self.interrupt_after:
            if not self.writes:
                # the cadence may not have persisted anything *this run* yet;
                # dying without writing the newest state would make repeated
                # kill/resume invocations livelock on a stale checkpoint
                # (each run recomputing and discarding the same iteration)
                self._write(policy, records, converged, config)
            raise SimulatedKill(
                f"simulated kill after iteration {len(records)} "
                f"(resumable checkpoint on disk)"
            )

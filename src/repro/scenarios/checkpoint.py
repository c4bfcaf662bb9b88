"""Checkpoint/resume for time-iteration solves.

:class:`SolveCheckpoint` implements the (duck-typed) per-member checkpoint
hook of the time-iteration loop
(:class:`repro.core.batched.BatchedTimeIterationSolver`, which
:meth:`repro.core.time_iteration.TimeIterationSolver.solve` runs on a
group of one): after every
``every``-th completed iteration — and always on convergence or exhaustion
— the current :class:`~repro.core.policy.PolicySet`, the iteration records
and the convergence flag are persisted atomically to one npz file.  A solve
that is killed (SIGKILL, OOM, node failure) therefore resumes from the last
*completed* iteration, and because one time-iteration step is a
deterministic function of the previous iterate, the resumed run reproduces
the uninterrupted run bit-for-bit (policies to machine precision, same
iteration count from the resume point).

Checkpointing is persistence only; the *observability* of the same
iteration boundary — the ``solve-started``/``iteration``/``refined``/
``converged``/``solve-finished`` vocabulary of
:data:`repro.parallel.tracing.SOLVE_EVENT_KINDS` — is emitted by the
loop itself (pass ``events=``), so solves report progress whether or not
they checkpoint, and the checkpoint's
``abort`` hook stays the single cancellation point polled at every
iteration before anything is written.

Example
-------
>>> solver = TimeIterationSolver(model, config)
>>> ckpt = SolveCheckpoint("run.ckpt.npz", config=config)
>>> result = solver.solve(checkpoint=ckpt)        # killed at iteration k?
>>> result = solver.solve(checkpoint=ckpt)        # ...resumes from iteration k
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.policy import PolicySet
from repro.core.time_iteration import TimeIterationConfig, TimeIterationResult
from repro.scenarios import serialize
from repro.utils.logging import get_logger

__all__ = [
    "CheckpointState",
    "SolveCheckpoint",
    "InterruptingCheckpoint",
    "SimulatedKill",
    "SolveAbandoned",
]

logger = get_logger("scenarios.checkpoint")


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
    """Periodic on-disk checkpoints of a time-iteration solve.

    Parameters
    ----------
    path
        The checkpoint target (npz): a filesystem path, or a storage
        backend :class:`~repro.scenarios.backends.BlobRef` (what the
        scenario runner passes, so checkpoints land on whichever backend
        the store URL selected).  Written atomically either way; a
        partial write never clobbers the previous checkpoint.
    every
        Persist every ``every``-th iteration (the final state is always
        persisted regardless).
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
    """

    def __init__(
        self,
        path,
        every: int = 1,
        config: TimeIterationConfig | None = None,
        abort=None,
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.path = path if serialize.is_blob_target(path) else Path(path)
        self.every = every
        self.config = config
        self.abort = abort
        self._last_write: tuple | None = None

    # ------------------------------------------------------------------ #
    # hook protocol consumed by the time-iteration loop
    # ------------------------------------------------------------------ #
    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> CheckpointState | None:
        """Read the saved state, or ``None`` when no checkpoint exists."""
        if not self.path.exists():
            return None
        result = serialize.load_result(self.path)
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
        if converged or len(records) % self.every == 0:
            self._write(policy, records, converged, config)

    def on_complete(
        self, policy: PolicySet, records: list, converged: bool, config: TimeIterationConfig
    ) -> None:
        # skip the write when on_iteration already persisted this exact state
        # (e.g. every=1, or the converged final iteration)
        if self._last_write != (len(records), converged):
            self._write(policy, records, converged, config)

    # ------------------------------------------------------------------ #
    def _write(
        self, policy: PolicySet, records: list, converged: bool, config: TimeIterationConfig
    ) -> None:
        serialize.save_result(
            self.path,
            TimeIterationResult(
                policy=policy, records=list(records), converged=converged, config=config
            ),
        )
        self._last_write = (len(records), converged)

    def delete(self) -> None:
        """Remove the checkpoint file (e.g. after the result was stored)."""
        if self.path.exists():
            self.path.unlink()


class SimulatedKill(KeyboardInterrupt):
    """Raised by :class:`InterruptingCheckpoint` to emulate a killed solve."""


class InterruptingCheckpoint(SolveCheckpoint):
    """A :class:`SolveCheckpoint` that kills the solve after N iterations.

    Testing/demo hook (``--interrupt-after`` in the CLI): the checkpoint is
    written first, then :class:`SimulatedKill` is raised — exactly the
    state a real kill between iterations leaves behind.
    """

    def __init__(self, path, every: int = 1, config=None, interrupt_after: int = 1) -> None:
        super().__init__(path, every=every, config=config)
        if interrupt_after < 1:
            raise ValueError("interrupt_after must be >= 1")
        self.interrupt_after = interrupt_after

    def on_iteration(
        self, policy: PolicySet, records: list, converged: bool, config: TimeIterationConfig
    ) -> None:
        super().on_iteration(policy, records, converged, config)
        if not converged and len(records) >= self.interrupt_after:
            if self._last_write is None:
                # every > 1 may not have persisted anything *this run* yet;
                # dying without writing the newest state would make repeated
                # kill/resume invocations livelock on a stale checkpoint
                # (each run recomputing and discarding the same iteration)
                self._write(policy, records, converged, config)
            raise SimulatedKill(
                f"simulated kill after iteration {len(records)} "
                f"(resumable checkpoint on disk)"
            )

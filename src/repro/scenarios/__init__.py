"""Scenario engine: declarative suites, checkpoint/resume, provenance store.

The source paper's point is running *batches* of long, expensive
time-iteration solves on HPC hardware.  This subsystem turns the repo's
hand-wired single solves into managed scenario runs:

* :mod:`repro.scenarios.spec` — declarative :class:`ScenarioSpec` (with
  stable content hashing) and :class:`ScenarioSuite` sweep builders plus
  named presets (tax reforms, demographic shifts, shock-process variants,
  paper-table experiments);
* :mod:`repro.scenarios.serialize` — bit-exact npz round trips for
  :class:`~repro.grids.grid.SparseGrid`,
  :class:`~repro.core.policy.PolicySet` and
  :class:`~repro.core.time_iteration.TimeIterationResult`;
* :mod:`repro.scenarios.checkpoint` — solve checkpoints on a wall-clock
  cadence; a killed solve resumes from the last persisted one bit-for-bit;
* :mod:`repro.scenarios.batching` — the one solve-and-commit, over a
  group of scenarios: every drain groups its pending solve scenarios by
  ``topology_signature`` (structure key and grid level), so those that
  differ only in calibration scalars iterate stacked up to a grid-point
  cap per stack (a member's bits do not depend on its group), and
  everything else is a group of one;
* :mod:`repro.scenarios.runner` — ``run_suite``, a host for the lease
  drain: one in-process drain, or one per worker of a
  :mod:`repro.parallel` executor;
* :mod:`repro.scenarios.store` — sharded results store (one
  atomically-committed ``entry.json`` per scenario hash plus a commit
  log), safe for many concurrent writer processes/hosts without file
  locks; provenance per entry (spec hash, wall time, iteration records,
  library version);
* :mod:`repro.scenarios.backends` — pluggable storage behind the store,
  selected by URL scheme: ``file://`` (local directory, atomic rename
  puts), ``mem://`` (in-process, fast tests) and ``s3://``
  (S3-style object store; bundled in-process fake server, real service
  via config) — ``ResultsStore.open("s3://bucket/prefix?endpoint=...")``;
* :mod:`repro.scenarios.diff` — compare two store entries (possibly from
  two different stores/backends): calibration and solver deltas with
  policy-surplus and aggregate differences;
* :mod:`repro.scenarios.lease` — the one suite drain, a cooperative
  claim/lease protocol: it skips scenarios whose spec hash is already
  stored and claims expected-longest scenarios first (prior wall times
  from the commit log; spec-size heuristics for unseen hashes); N
  ``repro-scenarios work`` processes share one store, heartbeat their
  claims, steal expired leases (epoch bump) and resume dead workers'
  checkpoints.

Usage
-----
Run a preset sweep from the command line (also installed as the
``repro-scenarios`` console script)::

    python -m repro.scenarios list
    python -m repro.scenarios run tax-reform --store runs/ --dry-run
    python -m repro.scenarios run tax-reform --store runs/ --executor processes --workers 4
    python -m repro.scenarios show --store runs/
    python -m repro.scenarios diff HASH1 HASH2 --store runs/
    python -m repro.scenarios resume --store runs/
    python -m repro.scenarios compact --store runs/

Re-running the same command skips everything already in ``runs/`` (content
hashing), so a crashed batch is simply restarted; an interrupted solve
resumes from its last checkpoint.  ``--store`` also accepts store URLs — the
same commands run unchanged against ``mem://scratch`` or
``s3://bucket/prefix?endpoint=...`` stores (see
:mod:`repro.scenarios.backends`).

Programmatic use::

    from repro.scenarios import (
        ScenarioSpec, ScenarioSuite, ResultsStore, run_suite,
    )

    base = ScenarioSpec(
        name="reform",
        calibration={"num_generations": 6, "tau_labor": 0.15},
        solver={"grid_level": 2, "tolerance": 1e-3},
    )
    suite = ScenarioSuite.cartesian(
        "reform-sweep", base, {"calibration.tau_labor": [0.10, 0.20, 0.30]}
    )
    store = ResultsStore("runs")
    report = run_suite(suite, store, executor="threads", num_workers=3)
    result = store.load_result(suite[0])   # a TimeIterationResult

Checkpointing a standalone solve::

    from repro.scenarios import SolveCheckpoint

    ckpt = SolveCheckpoint("run.ckpt.npz", config=config)
    result = TimeIterationSolver(model, config).solve(checkpoint=ckpt)
    # kill the process at any point; the same call resumes bit-for-bit
    # from the last persisted iteration

See ``examples/scenario_sweep.py`` for an end-to-end walk-through.
"""

from repro.scenarios.batching import (
    partition_by_topology,
    solve_batch_and_commit,
    topology_signature,
)
from repro.scenarios.backends import (
    BACKEND_SCHEMES,
    FakeObjectServer,
    LocalFSBackend,
    MemoryBackend,
    ObjectStoreBackend,
    StorageBackend,
    StoreURLError,
    backend_from_url,
)
from repro.scenarios.checkpoint import (
    InterruptingCheckpoint,
    SimulatedKill,
    SolveAbandoned,
    SolveCheckpoint,
)
from repro.scenarios.diff import diff_entries, format_diff
from repro.scenarios.lease import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_TTL,
    Lease,
    LeaseHeartbeat,
    LeaseLost,
    LeaseManager,
    WorkReport,
    run_worker,
    schedule_longest_first,
)
from repro.scenarios.runner import (
    RunOutcome,
    SuiteReport,
    run_suite,
    solve_and_commit,
)
from repro.scenarios.serialize import (
    load_grid,
    load_policy_set,
    load_result,
    save_grid,
    save_policy_set,
    save_result,
)
from repro.scenarios.spec import (
    EXPERIMENT_KINDS,
    ScenarioSpec,
    ScenarioSuite,
    get_preset,
    preset_names,
)
from repro.scenarios.store import ResultsStore

__all__ = [
    "EXPERIMENT_KINDS",
    "BACKEND_SCHEMES",
    "StorageBackend",
    "StoreURLError",
    "backend_from_url",
    "LocalFSBackend",
    "MemoryBackend",
    "ObjectStoreBackend",
    "FakeObjectServer",
    "ScenarioSpec",
    "ScenarioSuite",
    "get_preset",
    "preset_names",
    "save_grid",
    "load_grid",
    "save_policy_set",
    "load_policy_set",
    "save_result",
    "load_result",
    "SolveCheckpoint",
    "InterruptingCheckpoint",
    "SimulatedKill",
    "SolveAbandoned",
    "ResultsStore",
    "RunOutcome",
    "SuiteReport",
    "run_suite",
    "solve_and_commit",
    "schedule_longest_first",
    "topology_signature",
    "partition_by_topology",
    "solve_batch_and_commit",
    "DEFAULT_TTL",
    "DEFAULT_MAX_ATTEMPTS",
    "Lease",
    "LeaseManager",
    "LeaseHeartbeat",
    "LeaseLost",
    "WorkReport",
    "run_worker",
    "diff_entries",
    "format_diff",
]

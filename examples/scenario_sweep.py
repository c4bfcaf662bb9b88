#!/usr/bin/env python3
"""Scenario engine walk-through: sweeps, checkpoint/resume, provenance store.

This example shows the batch workflow the scenario subsystem adds on top of
the time-iteration solver:

1. declare a base scenario and expand a cartesian tax sweep,
2. run the suite through the batch runner into a results store
   (content-hash skipping makes re-runs free),
3. kill a solve mid-run and watch it resume bit-for-bit from its
   checkpoint,
4. inspect the provenance manifest and compare results across scenarios,
5. diff two scenarios of the sweep (what `repro-scenarios diff` prints),
6. re-run the sweep against an S3-style object-store URL (the bundled
   in-process fake server; real-S3 wiring is config only) and diff a
   local entry against an object-store entry across backends,
7. drain one suite with a fleet of two lease-coordinated workers — the
   cooperative claim/lease protocol behind `repro-scenarios work`,
8. compact the object store and query its commit records with field
   predicates (what `repro-scenarios query` answers).

Run:  python examples/scenario_sweep.py
"""

from __future__ import annotations

import tempfile
import threading

import numpy as np

from repro.core.time_iteration import TimeIterationSolver
from repro.scenarios import (
    InterruptingCheckpoint,
    ResultsStore,
    ScenarioSpec,
    ScenarioSuite,
    SimulatedKill,
    SolveCheckpoint,
    diff_entries,
    format_diff,
    run_suite,
    run_worker,
)


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. declare a sweep
    # ------------------------------------------------------------------ #
    base = ScenarioSpec(
        name="reform",
        calibration={"num_generations": 4, "num_states": 2, "beta": 0.8},
        solver={"grid_level": 2, "tolerance": 1e-3, "max_iterations": 20},
        tags=("example",),
    )
    suite = ScenarioSuite.cartesian(
        "tax-sweep", base, {"calibration.tau_labor": [0.10, 0.20, 0.30]}
    )
    print("== 1. expanded suite (what --dry-run prints) ==")
    print(suite.describe())

    with tempfile.TemporaryDirectory() as root:
        store = ResultsStore(root)

        # -------------------------------------------------------------- #
        # 2. batch run; second invocation is skipped by content hash
        # -------------------------------------------------------------- #
        print("\n== 2. batch run into the results store ==")
        report = run_suite(suite, store, executor="threads", num_workers=3, progress=print)
        print(report.summary())
        report = run_suite(suite, store, progress=print)
        print(report.summary(), "(content hashes already in the store)")

        # -------------------------------------------------------------- #
        # 3. kill a solve mid-run, then resume bit-for-bit
        # -------------------------------------------------------------- #
        print("\n== 3. checkpoint kill/resume ==")
        spec = suite[0]
        model, config = spec.build_model(), spec.build_config()
        ckpt_path = f"{root}/demo.ckpt.npz"
        try:
            TimeIterationSolver(model, config).solve(
                checkpoint=InterruptingCheckpoint(ckpt_path, config=config, interrupt_after=2)
            )
        except SimulatedKill as exc:
            print(f"killed: {exc}")
        resumed = TimeIterationSolver(model, config).solve(
            checkpoint=SolveCheckpoint(ckpt_path, config=config)
        )
        reference = store.load_result(spec)
        X = model.domain.sample(25, rng=0)
        diff = max(
            float(np.max(np.abs(resumed.policy.evaluate(z, X) - reference.policy.evaluate(z, X))))
            for z in range(model.num_states)
        )
        print(
            f"resumed after kill: {resumed.iterations} iterations "
            f"(uninterrupted: {reference.iterations}), max policy diff {diff:.1e}"
        )

        # -------------------------------------------------------------- #
        # 4. provenance manifest + cross-scenario comparison
        # -------------------------------------------------------------- #
        print("\n== 4. provenance manifest ==")
        print(store.describe())
        print("\ncross-scenario comparison (steady-state-ish aggregate capital):")
        for spec in suite:
            result = store.load_result(spec)
            model = spec.build_model()
            mid = 0.5 * (model.domain.lower + model.domain.upper)
            savings = result.policy.evaluate(0, mid)[: model.num_savers]
            print(
                f"  tau_labor={spec.calibration['tau_labor']:.2f}: "
                f"K' = {float(np.sum(savings)):.4f} "
                f"({result.iterations} iterations, converged={result.converged})"
            )

        # -------------------------------------------------------------- #
        # 5. diff two scenarios of the sweep
        # -------------------------------------------------------------- #
        print("\n== 5. scenario diff (repro-scenarios diff HASH1 HASH2) ==")
        diff = diff_entries(store, suite[0].content_hash(), suite[-1].content_hash())
        print(format_diff(diff))

        # -------------------------------------------------------------- #
        # 6. object-store backend: same sweep against an s3:// URL
        # -------------------------------------------------------------- #
        # Stores are URL-addressed; a directory endpoint selects the
        # bundled in-process fake object server (no network, no creds —
        # point the endpoint at a real S3-compatible service via boto3
        # for production).  Everything above works unchanged.
        print("\n== 6. object-store backend (s3:// URL) ==")
        object_store = ResultsStore.open(f"s3://demo-bucket/sweeps?endpoint={root}/objstore")
        report = run_suite(suite, object_store, progress=print)
        print(report.summary(), f"-> {object_store.url}")
        remote_result = object_store.load_result(suite[-1])
        print(
            f"result read back from the object store: "
            f"{remote_result.iterations} iterations, converged={remote_result.converged}"
        )
        # cross-backend diff: local file:// entry A vs object-store entry B
        # (the CLI spelling is: repro-scenarios diff HASH1 HASH2
        #    --store <local> --store-b "s3://demo-bucket/sweeps?endpoint=...")
        cross = diff_entries(
            store,
            suite[0].content_hash(),
            suite[-1].content_hash(),
            store_b=object_store,
        )
        print(format_diff(cross))

        # -------------------------------------------------------------- #
        # 7. worker fleet: lease-coordinated suite draining
        # -------------------------------------------------------------- #
        # N `repro-scenarios work SUITE --store URL` processes can drain
        # one suite cooperatively: each worker claims a scenario by
        # writing a lease object, heartbeats it while solving, and
        # releases it after committing.  Peers steal leases whose
        # heartbeat has gone stale (worker died), resuming the dead
        # worker's last checkpoint.  Two in-process workers share one
        # object store; each scenario is solved exactly once.
        print("\n== 7. worker fleet (claim/lease protocol) ==")
        fleet_store = ResultsStore.open(f"s3://demo-bucket/fleet?endpoint={root}/objstore")
        reports = {}

        def drain(worker_id: str) -> None:
            reports[worker_id] = run_worker(
                suite,
                fleet_store,
                worker_id=worker_id,
                ttl=10.0,
                poll=0.05,
                progress=lambda line, w=worker_id: print(f"  [{w}] {line}"),
            )

        workers = [
            threading.Thread(target=drain, args=(f"worker-{i}",)) for i in (1, 2)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        for worker_id, rep in sorted(reports.items()):
            print(f"  {worker_id}: {rep.summary()}")
        drained = sum(len(r.completed) + len(r.already_done) for r in reports.values())
        print(
            f"fleet drained {len(suite)} scenario(s) "
            f"({drained} worker-observations), "
            f"leases left behind: {len(fleet_store.leases())}"
        )

        # -------------------------------------------------------------- #
        # 8. the commit log is the queryable index
        # -------------------------------------------------------------- #
        # every commit record carries its entry's spec fields + result
        # aggregates, and compact() folds the records into one snapshot;
        # query() filters on dotted (or unambiguous bare) fields out of
        # that snapshot plus the un-folded tail — O(snapshot + tail)
        # object reads however many entries the store holds.  The CLI
        # spelling is:  repro-scenarios query --store URL \
        #                   --where "tau_labor>0.15" --status completed
        print("\n== 8. compaction + index query (repro-scenarios query) ==")
        compact_report = object_store.compact(grace_seconds=0.0)
        print(
            f"compacted: folded {compact_report['folded_records']} record(s) "
            f"into {compact_report['snapshot']}"
        )
        for record in object_store.query(
            where=("tau_labor>0.15",), status="completed"
        ):
            print(
                f"  {record['name']}: tau_labor={record['calibration.tau_labor']:.2f}, "
                f"{record['iterations']} iterations, wall {record['wall_time']:.2f}s"
            )


if __name__ == "__main__":
    main()

"""The ledger's four workloads: inputs from a seed, one timed section, output checks.

Every workload is closed loop with one client: the next unit starts when
the previous one has committed.  ``setup`` is untimed preparation (counted
in ``setup_s``), ``run`` is the timed section on a fresh store and
``verify`` checks what the program stored — it returns how many units
were attempted and how many failed.

Why the seed does not move the solver calibrations: iterations-to-tolerance
is chaotic in the calibration (moving ``tau_labor`` by 1e-4 takes a
5-generation level-2 solve from 10 to 17 iterations), so a jittered sweep
would put +-15% of workload noise on ``wall_s``.  The sweep values are
fixed; the seed draws the scenario order, the Euler-error sample, the
micro-scenario parameters, the query predicates and the payload sample.

Where the stores live.  ``seq-drain-l2`` keeps the production default, a
``file://`` store; its file traffic is a few per cent of its wall.  The
other three use ``mem://``.  For the store workloads that is a finding of
this sandbox, not a preference: on its ext4 (mounted with ``discard``) a
640-unit ``file://`` drain spends 2.4 s in user code, steady to 3%, and 2.5
to 3.7 s in the kernel, drifting upwards with every repeat and dragging
plain CPU work on the same machine down with it (README.md has the
numbers).  ``scenarios.backends.commit_ms.file`` in the traced run keeps
the ``file://`` backend in view.

``run_worker`` and ``run_suite`` are called as attributes of
``repro.scenarios`` so that a traced run, which wraps them there, sees them.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import scenarios
from repro.experiments.table1 import run_scenario as table1_adapter
from repro.scenarios import MemoryBackend, ResultsStore, ScenarioSpec, ScenarioSuite
from repro.scenarios.spec import flatten_index_fields

WORKER_ID = "ledger-worker"

#: (tau_labor, beta) of the solver sweeps; all converge in 7-14 iterations
SWEEP = ((0.10, 0.85), (0.15, 0.86), (0.20, 0.87), (0.25, 0.88))

#: Euler-error ceilings (mean log10) per grid level.  Over 403 seeds the worst
#: scenario of the sweep reads -1.272 +- 0.029 (highest -1.173) at level 2 and
#: -1.470 +- 0.048 (highest -1.344) at level 3 with 256 sample states; 64
#: states would scatter by +- 0.2.  The ceilings sit 2 sigma above the highest.
EULER_CEILING = {2: -1.1, 3: -1.25}
EULER_SAMPLE_STATES = 256


@dataclass
class Check:
    """Outcome of verifying one timed section."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    euler_err: float = 0.0

    def expect(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def store_bytes(store: ResultsStore) -> int:
    """Bytes the store holds, summed over its backend's objects."""
    backend = store.backend
    return sum(len(backend.get(key)) for key in backend.list())


def fresh_memory_store(name: str) -> ResultsStore:
    """An empty ``mem://`` store; whatever an earlier repeat left under the name is dropped."""
    namespace = f"ledger-{name}"
    MemoryBackend.drop(namespace)
    return ResultsStore.open(f"mem://{namespace}")


def _solve_specs(level: int, count: int, rng: np.random.Generator) -> list[ScenarioSpec]:
    base = ScenarioSpec(
        name=f"l{level}",
        calibration={"num_generations": 5, "num_states": 2},
        solver={"grid_level": level, "tolerance": 1e-3},
    )
    specs = [
        base.with_overrides(name=f"l{level}-{i}", calibration={"tau_labor": tau, "beta": beta})
        for i, (tau, beta) in enumerate(SWEEP[:count])
    ]
    return [specs[i] for i in rng.permutation(len(specs))]


def _policy_digest(result: Any) -> str:
    digest = hashlib.sha256()
    for state_policy in result.policy:
        digest.update(np.ascontiguousarray(state_policy.interpolant.surplus).tobytes())
    return digest.hexdigest()


class _SolverWorkload:
    """Shared checks of the two solver workloads."""

    level: int
    name: str

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.specs = _solve_specs(self.level, 2 if smoke else 4, rng)
        self.units = self.store_units = len(self.specs)
        self.sample_seed = int(rng.integers(1, 2**31))
        self._reference: dict[str, Any] = {}

    def inputs(self) -> dict:
        return {"specs": [s.to_dict() for s in self.specs], "sample_seed": self.sample_seed}

    def drive(self, specs: list[ScenarioSpec], workdir: Path, progress=None) -> ResultsStore:
        raise NotImplementedError

    def setup(self, workdir: Path) -> None:
        """Build the models; push two one-iteration solves down the timed path to warm it."""
        self.models = {s.content_hash(): s.build_model() for s in self.specs}
        for model in self.models.values():
            model.steady_state  # a lazy property: touching it builds the steady state
        warm = [s.with_overrides(solver={"max_iterations": 1}) for s in self.specs[:2]]
        self.drive(warm, workdir)

    def run(self, workdir: Path, progress: Callable[[str], object] | None = None) -> ResultsStore:
        return self.drive(self.specs, workdir, progress)

    def _verify_entries(self, store: ResultsStore, check: Check, first: bool) -> dict[str, Any]:
        results = {}
        worst = -np.inf
        for spec in self.specs:
            key = spec.content_hash()
            entry = store.entry(spec)
            ok = bool(entry and entry.get("status") == "completed" and entry.get("converged"))
            result = None
            if ok:
                result = store.load_result(spec)
                ok = result.converged and result.iterations == entry["iterations"]
            if ok and first:
                # the accuracy number of the paper's Fig. 9; `linf` saturates
                # at the consumption clamps and says nothing
                model = self.models[key]
                err = model.equilibrium_errors(
                    result.policy, model.sample_states(EULER_SAMPLE_STATES, rng=self.sample_seed)
                )["mean_log10"]
                worst = max(worst, err)
                ok = err < EULER_CEILING[self.level]
            check.expect(ok, f"{spec.name}: not completed/converged/accurate")
            results[key] = result
        if first:
            check.euler_err = float(worst)
        return results


class SeqDrainL2(_SolverWorkload):
    """`run_worker` drains four level-2 solves through the sequential driver."""

    name = "seq-drain-l2"
    level = 2

    def drive(self, specs: list[ScenarioSpec], workdir: Path, progress=None) -> ResultsStore:
        store = ResultsStore(workdir)
        scenarios.run_worker(specs, store, worker_id=WORKER_ID, progress=progress)
        return store

    def verify(self, store: ResultsStore) -> Check:
        check = Check()
        first = not self._reference
        results = self._verify_entries(store, check, first)
        digests = {k: _policy_digest(r) for k, r in results.items() if r is not None}
        if first:
            self._reference = digests
        else:
            # same spec -> same bits on the sequential path
            check.expect(digests == self._reference, "policy surplus differs between repeats")
        return check


class BatchedSweepL3(_SolverWorkload):
    """`run_suite(batch_topology=True)` stacks four level-3 solves; store in memory."""

    name = "batched-sweep-l3"
    level = 3

    def drive(self, specs: list[ScenarioSpec], workdir: Path, progress=None) -> ResultsStore:
        store = fresh_memory_store(self.name)
        scenarios.run_suite(ScenarioSuite(self.name, specs), store, batch_topology=True)
        return store

    def verify(self, store: ResultsStore) -> Check:
        check = Check()
        first = not self._reference
        results = self._verify_entries(store, check, first)
        # a member that fell back to the sequential driver announces a solve
        # without the batched flag
        started = [e for e in store.events() if e.get("kind") == "solve-started"]
        check.expect(
            len(started) == self.units and all(e.get("batched") for e in started),
            "a batch member fell back to the sequential driver",
        )
        if first:
            self._reference = results
        else:
            for key, result in results.items():
                ref = self._reference.get(key)
                same = result is not None and ref is not None and all(
                    np.allclose(a.interpolant.surplus, b.interpolant.surplus, rtol=0, atol=1e-12)
                    for a, b in zip(result.policy, ref.policy)
                )
                check.expect(same, f"{key[:12]}: policy moved more than 1e-12 between repeats")
        return check


def _micro_specs(count: int, rng: np.random.Generator) -> list[ScenarioSpec]:
    first = int(rng.integers(1, 10_000))
    return [
        ScenarioSpec(
            name=f"micro-{i}",
            kind="table1",
            params={"dim": 2, "levels": [2], "num_states": first + i},
        )
        for i in range(count)
    ]


#: micro-scenarios of a full-scale store workload, and how many of them the
#: first of its two drains commits: just past the auto-compaction tail of 512
MICRO_UNITS = 640
FIRST_DRAIN = 576


def _drain_in_two(specs: list[ScenarioSpec], store: ResultsStore, progress=None) -> None:
    """A worker drains most of the suite, restarts and drains the rest.

    The restart is what makes the store fold its commit log: one drain
    reads the log once, before it commits anything, so auto-compaction
    (tail > 512) only ever runs at the start of the second drain.
    """
    cut = FIRST_DRAIN if len(specs) > FIRST_DRAIN else len(specs) * 3 // 4
    scenarios.run_worker(specs[:cut], store, worker_id=WORKER_ID, progress=progress)
    scenarios.run_worker(specs, store, worker_id=WORKER_ID, progress=progress)


def _folded_as_expected(store: ResultsStore, entries: int) -> bool:
    """Whether the commit log was auto-folded exactly when it outgrew the store's tail cap."""
    folded = store.backend.commit_log_tail_count() < entries
    return folded == (min(entries, FIRST_DRAIN) > store.auto_compact_tail)


class StoreWrite:
    """`run_worker` drains micro-scenarios: the store and lease stack is all the work."""

    name = "store-write"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.units = self.store_units = 40 if smoke else MICRO_UNITS
        self.specs = _micro_specs(self.units, rng)
        sample = rng.choice(self.units, size=min(50, self.units), replace=False)
        self.sample = [self.specs[i] for i in sample]

    def inputs(self) -> dict:
        return {
            "first_spec": self.specs[0].to_dict(),
            "units": self.units,
            "payload_sample": [s.name for s in self.sample],
        }

    def setup(self, workdir: Path) -> None:
        """Warm the adapter import and the grid caches with one unit."""
        warm = _micro_specs(1, np.random.default_rng(0))
        scenarios.run_worker(warm, fresh_memory_store(self.name), worker_id=WORKER_ID)

    def run(self, workdir: Path, progress: Callable[[str], object] | None = None) -> ResultsStore:
        store = fresh_memory_store(self.name)
        _drain_in_two(self.specs, store, progress)
        return store

    def verify(self, store: ResultsStore) -> Check:
        check = Check()
        for spec in self.specs:
            entry = store.entry(spec)
            done = bool(entry and entry.get("status") == "completed")
            check.expect(done, f"{spec.name}: no completed entry")
        for spec in self.sample:
            expected = {"params": dict(spec.params), "result": table1_adapter(dict(spec.params))}
            try:
                same = store.load_payload(spec) == expected
            except (OSError, ValueError):
                same = False
            check.expect(same, f"{spec.name}: stored payload differs from the adapter's output")
        check.expect(len(store.index_records()) == self.units, "index_records count != units")
        check.expect(not store.leases(), "lease objects left behind")
        check.expect(_folded_as_expected(store, self.units), "commit log not folded as planned")
        return check


_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class StoreRead:
    """Reads against a populated store: skip scan, queries, index, payload loads."""

    name = "store-read"
    LOADS = 200
    QUERIES = 10

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.entries_n = self.store_units = 40 if smoke else MICRO_UNITS
        self.specs = _micro_specs(self.entries_n, rng)
        lo = self.specs[0].params["num_states"]
        self.queries: list[list[tuple[str, str, Any]]] = []
        for _ in range(self.QUERIES):
            a, b = sorted(int(x) for x in rng.integers(lo, lo + self.entries_n, size=2))
            self.queries.append(
                [
                    ("params.num_states", ">=", a),
                    ("num_states", "<" if rng.random() < 0.5 else "!=", b),
                    ("status", "==", "completed"),
                ]
            )
        loads = min(self.LOADS, self.entries_n)
        self.loads = [self.specs[i] for i in rng.choice(self.entries_n, size=loads, replace=False)]
        #: read operations per timed section
        self.units = 1 + self.QUERIES + 3 + loads

    def inputs(self) -> dict:
        return {
            "first_spec": self.specs[0].to_dict(),
            "entries": self.entries_n,
            "queries": [[f"{f}{op}{v}" for f, op, v in q] for q in self.queries],
        }

    def setup(self, workdir: Path) -> None:
        """Populate the store the way `store-write` does, then read it once."""
        self.store = fresh_memory_store(self.name)
        _drain_in_two(self.specs, self.store)
        self.suite = ScenarioSuite(self.name, self.specs)
        flat = [
            {
                **entry,
                **flatten_index_fields(
                    entry.get("calibration", {}), entry.get("solver", {}), entry.get("params", {})
                ),
            }
            for entry in self.store.entries()
        ]
        self.expected = [
            sorted(
                rec["spec_hash"]
                for rec in flat
                if all(
                    _OPS[op](rec.get(f, rec.get(f"params.{f}")), value) for f, op, value in query
                )
            )
            for query in self.queries
        ]
        self.expected_payloads = [self.store.load_payload(spec) for spec in self.loads]
        self.run(workdir)

    def run(self, workdir: Path, progress: Callable[[str], object] | None = None) -> ResultsStore:
        store = self.store
        self.seen = {
            "skip": scenarios.run_suite(self.suite, store),
            "queries": [store.query(where=query) for query in self.queries],
            "index": store.index_records(),
            "entries": store.entries(),
            "wall_times": store.wall_times(),
            "payloads": [store.load_payload(spec) for spec in self.loads],
        }
        return store

    def verify(self, store: ResultsStore) -> Check:
        check = Check()
        seen = self.seen
        report = seen["skip"]
        check.expect(
            report.count("skipped") == self.entries_n and len(report.outcomes) == self.entries_n,
            "skip scan ran or missed scenarios",
        )
        for got, want in zip(seen["queries"], self.expected):
            check.expect(
                sorted(r["spec_hash"] for r in got) == want, "query differs from brute-force filter"
            )
        check.expect(_folded_as_expected(store, self.entries_n), "store not in its planned state")
        check.expect(len(seen["index"]) == self.entries_n, "index_records count != entries")
        check.expect(len(seen["entries"]) == self.entries_n, "entries() count != entries")
        check.expect(len(seen["wall_times"]) == self.entries_n, "wall_times() count != entries")
        for got, want in zip(seen["payloads"], self.expected_payloads):
            check.expect(got == want, "payload changed between reads")
        return check


WORKLOADS = {cls.name: cls for cls in (SeqDrainL2, BatchedSweepL3, StoreWrite, StoreRead)}

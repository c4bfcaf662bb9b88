"""Self-checks of the ledger harness, at smoke scale.

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

Not collected by the tier-1 run (``testpaths = ["tests"]``); run it after
touching anything in this directory.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

DEFINITION = run.load_definition()
WORKLOAD_NAMES = [w["name"] for w in DEFINITION["workloads"]]


@pytest.fixture(autouse=True)
def _undo_process_settings():
    """`run.prepare_process` pins the core and edits the environment; put both back."""
    affinity, environ = os.sched_getaffinity(0), dict(os.environ)
    yield
    os.sched_setaffinity(0, affinity)
    os.environ.clear()
    os.environ.update(environ)


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _assert_matches(result: dict, definitions: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {d["name"] for d in definitions}
    for d in definitions:
        metric = result["metrics"][d["name"]]
        assert metric["unit"] == d["unit"]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_smoke_run_is_correct_and_matches_the_definition(name, capsys):
    code = run.main(["--workload", name, "--scale", "smoke"])
    result = _last_json(capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    _assert_matches(result, DEFINITION["end_to_end"])
    assert all(m["value"] != 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_name(capsys):
    code = run.main(["--workload", "store-write", "--scale", "smoke", "--trace", "1"])
    result = _last_json(capsys)
    assert code == 0
    _assert_matches(result, DEFINITION["per_layer"])
    assert result["metrics"]["scenarios.backends.put_calls"]["value"] > 0
    assert result["metrics"]["olg.solver.rows"]["value"] == 0


def test_tracing_restores_every_original_and_then_records_nothing():
    run.prepare_process()
    import layers
    from repro.core.time_iteration import TimeIterationSolver
    from repro.scenarios import ScenarioSpec
    from tracer import Tracer

    spec = ScenarioSpec(
        name="tiny",
        calibration={"num_generations": 4, "num_states": 1},
        solver={"grid_level": 2, "max_iterations": 1},
    )

    def solve() -> None:
        TimeIterationSolver(spec.build_model(), spec.build_config()).solve()

    tracer = Tracer()
    try:
        layers.install(tracer)
        patched = tracer.patched()
        solve()
    finally:
        tracer.restore()
    recorded = len(tracer.all_spans())
    assert recorded > 0 and len(patched) == len(tracer.targets)
    for owner, attr, original in patched:
        assert inspect.getattr_static(owner, attr) is original, f"{owner}.{attr} still wrapped"
    # names re-bound by `from x import y` go back too
    from repro import scenarios
    from repro.core import batched
    from repro.grids.hierarchize import hierarchize
    from repro.scenarios.runner import run_suite

    assert scenarios.run_suite is run_suite and not hasattr(run_suite, "__wrapped__")
    assert batched.hierarchize is hierarchize and not hasattr(hierarchize, "__wrapped__")
    solve()
    assert len(tracer.all_spans()) == recorded


def test_a_corrupted_payload_fails_the_run(monkeypatch, capsys):
    run.prepare_process()
    import workloads

    real_run = workloads.StoreWrite.run

    def run_then_corrupt(self, workdir, progress=None):
        store = real_run(self, workdir, progress)
        store.backend.put(store.payload_key(self.sample[0]), b'{"params": {}, "result": "garbage"}')
        return store

    monkeypatch.setattr(workloads.StoreWrite, "run", run_then_corrupt)
    code = run.main(["--workload", "store-write", "--scale", "smoke"])
    result = _last_json(capsys)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0

"""What each read command shows, and what it reads.

One mixed store — two completed solves, an interrupted solve with its
checkpoint, a failed experiment with a traceback, a parked scenario, a live
lease on an in-flight solve with iteration events, and a scenario that was
stolen from a dead worker and then committed — read through ``show``,
``status``, ``query``, ``resume`` and ``report``: every field of the text
tables, the ``--json`` payloads against the store calls they dump, and the
backend operations ``status`` and ``report`` cost on a 50-entry store.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import time
import uuid
from collections import Counter

import numpy as np
import pytest

import repro
from repro.parallel.tracing import EventRecorder
from repro.scenarios import MemoryBackend, ResultsStore, ScenarioSpec, ScenarioSuite, run_suite
from repro.scenarios import __main__ as cli
from repro.scenarios import serialize
from repro.scenarios.lease import LeaseManager
from repro.scenarios.report import ProgressBoard, gather_run_data, render_report
from repro.scenarios.store import StoreEventSink


def _solve_spec(name, **calibration):
    cal = {"num_generations": 4, "num_states": 1, "beta": 0.8}
    cal.update(calibration)
    return ScenarioSpec(
        name, calibration=cal, solver={"grid_level": 2, "tolerance": 1e-3, "max_iterations": 12}
    )


def _payload_spec(name, processes):
    return ScenarioSpec(
        name, kind="ablations", params={"which": "partition", "total_processes": processes}
    )


SOLVED = (_solve_spec("solve-lo", tau_labor=0.1), _solve_spec("solve-hi", tau_labor=0.2))
HALTED = _solve_spec("solve-halted", tau_labor=0.3)
FAILED = _payload_spec("exp-failed", 4)
PARKED = _solve_spec("solve-parked", tau_labor=0.4)
LIVE = _solve_spec("solve-live", tau_labor=0.5)
STOLEN = _payload_spec("exp-stolen", 8)
TRACEBACK = "Traceback (most recent call last):\n  File 'x.py', line 1\nRuntimeError: boom\n"


def _emitting(store, worker):
    recorder = EventRecorder()
    sink = StoreEventSink(store, worker)
    recorder.subscribe(sink)
    return recorder, sink


def _build_mixed_store(store):
    run_suite(ScenarioSuite("solved", list(SOLVED)), store, progress=lambda *_: None)
    run_suite(ScenarioSuite("halted", [HALTED]), store, interrupt_after=1, progress=lambda *_: None)
    failure = store.failure_entry(FAILED, "failed", 0.25, "ablation crashed", tb=TRACEBACK)
    store.commit_entry(failure)
    store.backend.put(
        store.parked_key(PARKED), json.dumps({"attempts": 3, "error": "always diverges"}).encode()
    )
    # a live lease on a solve that is making progress
    recorder, sink = _emitting(store, "w-live")
    live = LeaseManager(store, "w-live", ttl=60.0, events=recorder)
    assert live.try_claim(LIVE) is not None
    scenario = store.scenario_key(LIVE)
    recorder.emit(
        "solve-started", "w-live", scenario,
        start_iteration=0, resumed=False, tolerance=1e-3, max_iterations=12,
    )
    for i in (1, 2, 3):
        recorder.emit(
            "iteration", "w-live", scenario,
            iteration=i, error=0.5**i, error_linf=0.5**i, points=7, wall_time=0.05,
        )
    sink.flush()
    # a worker claims, dies; a peer steals the expired lease and commits
    dead_recorder, _ = _emitting(store, "w-dead")
    dead = LeaseManager(store, "w-dead", ttl=1.0, clock=lambda: 1000.0, events=dead_recorder)
    assert dead.try_claim(STOLEN) is not None
    recorder, sink = _emitting(store, "w-thief")
    thief = LeaseManager(store, "w-thief", ttl=60.0, events=recorder)
    lease = thief.try_claim(STOLEN)
    assert lease is not None and lease.epoch == 2
    store.commit_entry(store.write_payload(STOLEN, {"ok": True}, wall_time=0.5))
    recorder.emit("committed", "w-thief", store.scenario_key(STOLEN))
    assert thief.release(lease)
    sink.flush()


@pytest.fixture(scope="module")
def mixed():
    url = f"mem://{uuid.uuid4().hex[:12]}-read-commands"
    store = ResultsStore(url)
    _build_mixed_store(store)
    yield store
    MemoryBackend.drop(url[len("mem://"):])


def _run(capsys, *argv):
    capsys.readouterr()
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def _table(text, title):
    """Rows of the text table under ``title:`` as header -> cell dicts (the
    dash line under the header gives the column spans)."""
    lines = text.splitlines()
    at = lines.index(f"{title}:")
    header, dashes = lines[at + 1], lines[at + 2]
    spans = [m.span() for m in re.finditer(r"-+", dashes)]
    spans[-1] = (spans[-1][0], None)
    names = [header[a:b].strip() for a, b in spans]
    rows = []
    for line in lines[at + 3 :]:
        if not line.startswith("  "):
            break
        rows.append(dict(zip(names, (line[a:b].strip() for a, b in spans))))
    return rows


def _jsonable(value):
    return json.loads(json.dumps(value))


# --------------------------------------------------------------------------- #
# text outputs
# --------------------------------------------------------------------------- #
def test_show_prints_every_entry_field_and_each_traceback(mixed, capsys):
    out = _run(capsys, "show", "--store", mixed.url)
    entries = mixed.entries()
    assert out.splitlines()[0] == f"store {mixed.url}: {len(entries)} entry(ies)"
    rows = {row["hash"]: row for row in _table(out, "Scenarios")}
    assert len(rows) == len(entries) == 5
    for entry in entries:
        row = rows[entry["spec_hash"][:12]]
        assert row["name"] == entry["name"] and row["kind"] == entry["kind"]
        assert row["status"] == entry["status"]
        assert row["iters"] == str(entry.get("iterations", "-"))
        assert row["converged"] == {True: "yes", False: "no"}.get(entry.get("converged"), "-")
        assert row["wall [s]"] == f"{entry['wall_time']:.2f}"
        assert row["version"] == repro.__version__
    hash12 = FAILED.content_hash()[:12]
    lines = out.splitlines()
    at = lines.index(f"traceback of exp-failed [{hash12}]:")
    assert lines[at + 1 : at + 4] == ["  " + line for line in TRACEBACK.splitlines()]
    assert f"{hash12} exp-failed: ablation crashed" in out


def test_show_on_an_empty_store(store_url_for, capsys):
    url = store_url_for("mem")
    assert _run(capsys, "show", "--store", url).strip() == f"store {url}: empty"


def test_status_prints_counts_leases_parked_events_logs_and_progress(mixed, capsys):
    out = _run(capsys, "status", "--store", mixed.url)
    assert out.splitlines()[0] == f"store {mixed.url}"
    counts = Counter(r["status"] for r in mixed.index_records().values())
    assert {r["status"]: int(r["count"]) for r in _table(out, "Entries by status")} == counts
    (lease,) = _table(out, "Held leases")
    assert lease["scenario"] == mixed.scenario_key(LIVE) and lease["worker"] == "w-live"
    assert lease["epoch"] == "1" and lease["ttl [s]"] == "60.0" and lease["expired"] == "no"
    assert 0.0 <= float(lease["age [s]"]) < 60.0
    assert _table(out, "Parked scenarios") == [
        {"scenario": mixed.scenario_key(PARKED), "attempts": "3", "error": "always diverges"}
    ]
    events = mixed.events()
    kinds = {r["kind"]: int(r["count"]) for r in _table(out, "Events by kind")}
    assert kinds == Counter(e["kind"] for e in events)
    logs = {r["worker"]: (int(r["segments"]), int(r["bytes"])) for r in _table(out, "Event logs")}
    assert set(logs) == {e["worker"] for e in events} and logs["w-dead"][0] == 1
    progress = {r["scenario"]: r for r in _table(out, "Solve progress (from the event feed)")}
    live = progress[mixed.scenario_key(LIVE)]
    assert live["status"] == "running" and live["iter"] == "3/12"
    assert live["last error"] == "1.250e-01" and live["points"] == "7"
    assert live["ETA"].startswith("~") and live["worker"] == "w-live"
    assert progress[mixed.scenario_key(SOLVED[0])]["iter"] == "5/12"


def test_query_prints_the_count_and_the_matched_fields(mixed, capsys):
    out = _run(capsys, "query", "--store", mixed.url, "--where", "tau_labor>=0.2")
    records = mixed.query(where=["tau_labor>=0.2"])
    assert out.splitlines()[0] == f"store {mixed.url}: {len(records)} matching entry(ies)"
    rows = _table(out, "Matches")
    assert [(r["name"], r["hash"], r["status"]) for r in rows] == [
        (rec["name"], rec["spec_hash"][:12], rec["status"]) for rec in records
    ]
    assert [r["wall [s]"] for r in rows] == [f"{rec['wall_time']:.2f}" for rec in records]
    assert {r["matched fields"] for r in rows} == {"tau_labor=0.2", "tau_labor=0.3"}
    out = _run(capsys, "query", "--store", mixed.url, "--where", "tau_labor>9")
    assert out.strip() == f"store {mixed.url}: no matching entries"


def test_resume_prints_the_checkpoint_and_the_rerun_hint(mixed, capsys):
    out = _run(capsys, "resume", "--store", mixed.url)
    (info,) = mixed.list_checkpoints(with_progress=True)
    assert out.splitlines()[0] == f"store {mixed.url}: 1 resumable checkpoint(s)"
    stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(info["mtime"]))
    assert _table(out, "Checkpoints") == [
        {"name": "solve-halted", "hash": HALTED.short_hash, "status": "interrupted",
         "iters": "1", "last written": stamp}
    ]
    assert out.splitlines()[-1].startswith("re-run the original suite command")


def test_resume_counts_records_from_the_metadata_alone(mixed, monkeypatch):
    """A checkpoint's iteration count is its records' length: the listing reads the
    metadata member only, no array and no surplus re-derived from nodal values."""

    def refuse(*args, **kwargs):
        raise AssertionError("the listing read more than the metadata")

    monkeypatch.setattr(np.lib.format, "read_array", refuse)
    monkeypatch.setattr(serialize, "hierarchize", refuse)
    (info,) = mixed.list_checkpoints(with_progress=True)
    assert info["iterations_done"] == 1


def test_report_covers_every_section_in_both_formats(mixed):
    md = render_report(mixed, "md")
    for heading in (
        "# Scenario run report", "## Suite summary", "## Scenarios",
        "## Solve progress", "## Convergence", "## Slowest scenarios",
        "## Fleet timeline", "## Events by kind", "## Parked scenarios",
        "## Failures",
    ):
        assert heading in md
    html = render_report(mixed, "html")
    assert "<script" not in html and "href=" not in html and "src=" not in html
    assert "http" not in html.replace("http://www.w3.org/2000/svg", "")


def test_the_dead_holder_of_a_stolen_lease_is_drawn_stolen_not_in_flight(mixed):
    data = gather_run_data(mixed)
    scenario = mixed.scenario_key(STOLEN)
    (dead,) = [s for s in data["spans"] if s["worker"] == "w-dead"]
    (thief,) = [s for s in data["spans"] if s["worker"] == "w-thief"]
    assert (dead["scenario"], dead["outcome"], dead["open"]) == (scenario, "stolen", False)
    assert dead["end"] == thief["start"] and thief["kind"] == "steal"
    assert thief["outcome"] == "committed"
    assert [s["worker"] for s in data["spans"] if s["open"]] == ["w-live"]


# --------------------------------------------------------------------------- #
# --json outputs dump exactly what the store returns
# --------------------------------------------------------------------------- #
def test_status_json_is_the_store_state(mixed, capsys):
    payload = json.loads(_run(capsys, "status", "--store", mixed.url, "--json"))
    assert set(payload) == {
        "leases", "parked", "entries", "progress", "events", "events_total", "event_logs"
    }
    assert payload["leases"] == mixed.leases()
    assert payload["parked"] == mixed.parked()
    assert payload["entries"] == Counter(r["status"] for r in mixed.index_records().values())
    events = mixed.events()
    board = ProgressBoard()
    for event in events:
        board.update(event)
    assert payload["progress"] == _jsonable(board.snapshot())
    assert payload["events"] == Counter(e["kind"] for e in events)
    assert payload["events_total"] == len(events)
    assert payload["event_logs"] == {
        worker: {
            "segments": len(segments),
            "bytes": sum(len(mixed.backend.get(key)) for key in segments.values()),
        }
        for worker, segments in mixed.event_segments().items()
    }


@contextlib.contextmanager
def _returns(monkeypatch, owner, name):
    """Record what ``owner.name`` returns while the block runs."""
    seen: list = []
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(owner, name, recording)
    yield seen


@pytest.mark.parametrize(
    "owner, name, argv",
    [
        (ResultsStore, "query", ["query", "--where", "tau_labor>0.1", "--status", "completed"]),
        (ResultsStore, "list_checkpoints", ["resume"]),
        (cli, "diff_entries", ["diff", SOLVED[0].short_hash, SOLVED[1].short_hash]),
    ],
)
def test_json_outputs_dump_the_store_call(mixed, capsys, monkeypatch, owner, name, argv):
    with _returns(monkeypatch, owner, name) as seen:
        payload = json.loads(_run(capsys, *argv, "--store", mixed.url, "--json"))
    assert len(seen) == 1 and payload == _jsonable(seen[0])


def test_compact_json_dumps_the_store_call(store_url_for, capsys, monkeypatch):
    store = ResultsStore(store_url_for("mem"))
    for i in range(3):
        spec = _payload_spec(f"compact-{i}", 2 ** (i + 1))
        store.commit_entry(store.write_payload(spec, {}, wall_time=1.0))
    store.checkpoint_ref(spec).write_bytes(b"left beside a completed entry")
    with _returns(monkeypatch, ResultsStore, "compact") as seen:
        out = _run(capsys, "compact", "--store", store.url, "--grace", "0", "--json")
    payload = json.loads(out)
    assert len(seen) == 1 and payload == _jsonable(seen[0])
    assert payload["folded_records"] == 3 and payload["checkpoints_deleted"] == 1


# --------------------------------------------------------------------------- #
# every subcommand keeps its flags
# --------------------------------------------------------------------------- #
def _subparsers():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


#: the option strings of each subcommand (``-h``/``--help`` aside)
OPTIONS = {
    "list": set(),
    "run": {
        "--store",
        "--executor",
        "--workers",
        "--dry-run",
        "--interrupt-after",
    },
    "show": {"--store"},
    "diff": {"--store", "--json", "--store-b", "--samples"},
    "query": {"--store", "--json", "--where", "--status", "--hash-prefix"},
    "resume": {"--store", "--json"},
    "compact": {"--store", "--json", "--grace"},
    "work": {
        "--store",
        "--ttl",
        "--worker-id",
        "--max-attempts",
        "--poll",
        "--max-claims",
        "--retry-parked",
    },
    "status": {"--store", "--json", "--follow", "--poll", "--max-polls"},
    "report": {"--store", "--format", "-o", "--output"},
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_each_subcommand_accepts_the_same_flags(command):
    parser = _subparsers()[command]
    options = {o for action in parser._actions for o in action.option_strings}
    assert options - {"-h", "--help"} == OPTIONS[command]


def test_run_hosts_its_drains_on_three_executors():
    # "stealing" was "threads" under another name: identical drains leave nothing to steal
    (action,) = [a for a in _subparsers()["run"]._actions if "--executor" in a.option_strings]
    assert tuple(action.choices) == ("serial", "threads", "processes")


def test_every_subcommand_has_a_handler():
    assert set(_subparsers()) == set(cli._COMMANDS) == set(OPTIONS)


# --------------------------------------------------------------------------- #
# what status and report read
# --------------------------------------------------------------------------- #
@contextlib.contextmanager
def _recorded_ops():
    """Record ``(op, key)`` of every public object op of every
    :class:`MemoryBackend` (the CLI opens its own instance from the URL)."""
    ops: list = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("get", "put", "exists", "delete", "list", "mtime"):
            real = getattr(MemoryBackend, name)

            def op(self, key="", *args, _name=name, _real=real, **kwargs):
                ops.append((_name, key))
                return _real(self, key, *args, **kwargs)

            patch.setattr(MemoryBackend, name, op)
        yield ops


#: backend operations ``status`` makes on the 50-entry store below: one
#: ``leases/`` listing for the leases and the parked records together
PARENT_STATUS_OPS = 57


def test_status_reads_no_entry_and_report_reads_each_once(store_url_for, capsys):
    store = ResultsStore(store_url_for("mem"))
    specs = [_payload_spec(f"unit-{i}", i + 1) for i in range(50)]
    for spec in specs:
        store.commit_entry(store.write_payload(spec, {}, wall_time=1.0))
    recorder, sink = _emitting(store, "w1")
    LeaseManager(store, "w1", ttl=60.0, events=recorder).try_claim(_solve_spec("held"))
    sink.flush()
    with _recorded_ops() as ops:
        _run(capsys, "status", "--store", store.url)
    assert not [key for op, key in ops if key.endswith("/entry.json")]
    assert len(ops) <= PARENT_STATUS_OPS
    assert ops.count(("list", "leases/")) == 1
    assert ops.count(("list", "commits/")) == 1  # one scan of the commit log
    with _recorded_ops() as ops:
        _run(capsys, "report", "--store", store.url)
    entry_gets = Counter(key for op, key in ops if op == "get" and key.endswith("/entry.json"))
    assert entry_gets == {store.entry_key(spec): 1 for spec in specs}
    assert ops.count(("list", "commits/")) == 1
    assert ops.count(("list", "leases/")) == 1

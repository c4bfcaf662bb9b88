"""Command-line interface of the scenario engine.

Installed as the ``repro-scenarios`` console script and runnable as
``python -m repro.scenarios``.  Subcommands:

* ``list``   — show the named preset suites and their sizes;
* ``run``    — expand a preset and run it against a results store
  (``--dry-run`` prints the expansion without solving anything); like
  ``work``, its drain claims the solve scenarios that differ only in
  calibration scalars together and iterates them stacked;
* ``show``   — print a store's committed entries and, for failed ones,
  their error and traceback;
* ``diff``   — compare two store entries: calibration/solver deltas plus
  policy-surplus and aggregate differences (``--json`` for machines;
  ``--store-b`` resolves the second hash in a different store, possibly
  on a different backend);
* ``query``  — filter the store's commit records with field predicates
  (``--where tau_labor>0.25 --status completed --json``); answered from
  the commit log (snapshot plus un-folded tail), compacted or not, so no
  per-entry objects are opened;
* ``resume`` — list the resumable checkpoints sitting in a store;
* ``compact`` — fold the store's commit log into one immutable snapshot
  checkpoint object, so ``index()``/``show`` on long-lived object-store
  logs cost one snapshot read plus the un-folded tail (``--grace``
  controls how long folded log objects linger for in-flight readers), and
  delete the solve checkpoints of completed scenarios that a crash between
  a commit and its checkpoint delete left behind;
* ``work``   — join a worker fleet draining one suite cooperatively via
  the claim/lease protocol (any number of these processes against one
  shared ``--store``; see :mod:`repro.scenarios.lease`);
* ``status`` — the fleet part of ``report``, as text: entry status counts,
  held leases and their ages, parked scenarios, events by kind, per-worker
  event logs and per-scenario solve progress, read without opening any
  ``entry.json`` (``--follow`` tails the event feed live, streaming new
  events and the refreshed progress/ETA table every ``--poll`` seconds);
* ``report`` — render a self-contained run report (markdown or HTML with
  inline-SVG convergence curves and a per-worker fleet timeline) joining
  the store's entries, solve-progress events, lease telemetry and parked
  records (see :mod:`repro.scenarios.report`).

Every table is written by :func:`repro.scenarios.report.render`.  Every
``--store`` flag accepts either a local directory or a store URL
(``file:///abs/path``, ``mem://name``, ``s3://bucket/prefix?endpoint=...``
— see :mod:`repro.scenarios.backends`); the ``REPRO_STORE_URL``
environment variable overrides the built-in default store target.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.parallel.executor import EXECUTOR_KINDS
from repro.scenarios import serialize
from repro.scenarios.backends import DEFAULT_COMPACT_GRACE, StoreURLError
from repro.scenarios.diff import diff_entries, format_diff
from repro.scenarios.lease import DEFAULT_MAX_ATTEMPTS, DEFAULT_TTL, run_worker
from repro.scenarios.report import (
    entry_sections,
    fleet_data,
    fleet_sections,
    follow,
    render,
    render_report,
)
from repro.scenarios.runner import run_suite
from repro.scenarios.spec import get_preset, preset_names
from repro.scenarios.store import ResultsStore, _resolve_predicate_field, parse_predicate

__all__ = ["main"]


def _default_store() -> str:
    return os.environ.get("REPRO_STORE_URL") or "scenario_store"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    store = argparse.ArgumentParser(add_help=False)
    store.add_argument(
        "--store",
        default=_default_store(),
        help="results store: a directory, or a store URL "
        "(file:///abs/path | mem://name | s3://bucket/prefix?endpoint=...)",
    )
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true", help="emit the output as JSON")

    parser = argparse.ArgumentParser(
        prog="repro-scenarios",
        description="Run scenario suites with checkpoint/resume and a provenance-tracked store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the named preset suites")

    run = sub.add_parser(
        "run",
        parents=[store],
        help="run a preset suite (solves differing only in calibration scalars iterate stacked)",
    )
    run.add_argument("suite", help=f"preset name (one of: {', '.join(preset_names())})")
    run.add_argument(
        "--executor",
        default="serial",
        choices=EXECUTOR_KINDS,
        help="host of the drains: serial runs one in this process, the others "
        "--workers of them (expected-longest scenarios are claimed first)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=2,
        help="drain count of a non-serial host (each stacks its share of a group)",
    )
    run.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded suite (names, kinds, hashes) without solving",
    )
    run.add_argument(
        "--interrupt-after",
        type=_positive_int,
        default=None,
        metavar="N",
        help="testing hook: kill each solve after N iterations (checkpoint survives; "
        "re-running the same command resumes)",
    )

    sub.add_parser("show", parents=[store], help="print a store's committed entries")

    diff = sub.add_parser(
        "diff",
        parents=[store, as_json],
        help="compare two store entries (spec, aggregate and policy deltas)",
    )
    diff.add_argument("hash_a", metavar="HASH1", help="spec hash (or unique prefix) of entry A")
    diff.add_argument("hash_b", metavar="HASH2", help="spec hash (or unique prefix) of entry B")
    diff.add_argument(
        "--store-b",
        default=None,
        metavar="STORE",
        help="resolve HASH2 in a different store (any backend URL); "
        "defaults to --store",
    )
    diff.add_argument(
        "--samples",
        type=_positive_int,
        default=64,
        help="state-space sample points for the policy comparison (>= 1)",
    )

    query = sub.add_parser(
        "query",
        parents=[store, as_json],
        help="filter the store's secondary index with field predicates "
        "(no per-entry reads on a compacted store)",
    )
    query.add_argument(
        "--where",
        action="append",
        default=[],
        metavar="FIELD<OP>VALUE",
        help="predicate like tau_labor>0.25, solver.grid_level=3 or "
        "converged=true; operators: <=, >=, !=, ==, <, >, = ; repeatable "
        "(conjunction)",
    )
    query.add_argument(
        "--status",
        default=None,
        help="only entries with this status (completed/failed/interrupted)",
    )
    query.add_argument(
        "--hash-prefix",
        default=None,
        metavar="PREFIX",
        help="only entries whose spec hash starts with PREFIX",
    )

    sub.add_parser(
        "resume", parents=[store, as_json], help="list resumable checkpoints in a store"
    )

    compact = sub.add_parser(
        "compact",
        parents=[store, as_json],
        help="fold the commit log into a snapshot checkpoint "
        "(index() then reads one snapshot plus the un-folded tail) and delete "
        "the solve checkpoints of completed scenarios",
    )
    compact.add_argument(
        "--grace",
        type=float,
        default=DEFAULT_COMPACT_GRACE,
        metavar="SECONDS",
        help="folded log objects are only deleted once their snapshot has "
        "been durable this long (in-flight readers keep their tail); "
        "0 deletes immediately (default: %(default)s)",
    )

    work = sub.add_parser(
        "work",
        parents=[store],
        help="join a worker fleet: claim scenarios via leases (solves differing only in "
        "calibration scalars as one stacked group), solve, commit, release — until the "
        "suite is drained",
    )
    work.add_argument("suite", help=f"preset name (one of: {', '.join(preset_names())})")
    work.add_argument(
        "--ttl",
        type=_positive_float,
        default=DEFAULT_TTL,
        help="lease time-to-live in seconds; heartbeats renew every TTL/3 and "
        "peers steal leases not renewed for a TTL (default: %(default)s)",
    )
    work.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity (default: <host>-<pid>-<rand>)",
    )
    work.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=DEFAULT_MAX_ATTEMPTS,
        help="park a scenario as permanently failing after this many failed "
        "attempts across the fleet (default: %(default)s)",
    )
    work.add_argument(
        "--poll",
        type=_positive_float,
        default=0.5,
        metavar="SECONDS",
        help="rescan interval while peers hold all remaining scenarios",
    )
    work.add_argument(
        "--max-claims",
        type=_positive_int,
        default=None,
        metavar="N",
        help="exit after claiming N scenarios (default: run until drained)",
    )
    work.add_argument(
        "--retry-parked",
        action="store_true",
        help="clear parked/attempt records for this suite before starting",
    )

    status = sub.add_parser(
        "status",
        parents=[store, as_json],
        help="fleet status of a store: held leases, parked scenarios, entries, "
        "solve progress (--follow tails the event feed live)",
    )
    status.add_argument(
        "--follow",
        action="store_true",
        help="stream the merged event feed live (new events + the per-scenario "
        "progress/ETA table) until interrupted",
    )
    status.add_argument(
        "--poll",
        type=_positive_float,
        default=2.0,
        metavar="SECONDS",
        help="re-read interval for --follow (default: %(default)s)",
    )
    status.add_argument(
        "--max-polls",
        type=int,
        default=None,
        help=argparse.SUPPRESS,  # testing hook: stop --follow after N cycles
    )

    report = sub.add_parser(
        "report",
        parents=[store],
        help="render a self-contained run report (suite summary, convergence "
        "curves, fleet timeline) from a store's entries and event feed",
    )
    report.add_argument(
        "--format",
        dest="fmt",
        default="md",
        choices=("md", "html"),
        help="markdown (sparkline curves) or single-file HTML with inline SVG "
        "(default: %(default)s)",
    )
    report.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    return parser


def _print_json(payload) -> int:
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_list(args) -> int:
    for name in preset_names():
        suite = get_preset(name)
        kinds = sorted({s.kind for s in suite})
        print(f"{name:<16} {len(suite):>3} scenario(s)  kinds: {', '.join(kinds)}")
    return 0


def _cmd_run(args) -> int:
    try:
        suite = get_preset(args.suite)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.dry_run:
        print(suite.describe())
        return 0
    store = ResultsStore(args.store)
    try:
        report = run_suite(
            suite,
            store,
            executor=args.executor,
            num_workers=args.workers,
            interrupt_after=args.interrupt_after,
            progress=print,
        )
    except ValueError as exc:
        # dispatch-setup misconfiguration (e.g. a mem:// store with the
        # processes executor) is a usage error, same as a bad store URL
        print(exc.args[0], file=sys.stderr)
        return 2
    print(report.summary())
    # interrupted scenarios resume on the next identical invocation
    return 0 if report.ok else 1


def _cmd_show(args) -> int:
    store = ResultsStore(args.store)
    entries = store.entries()
    count = f"{len(entries)} entry(ies)" if entries else "empty"
    print(render(f"store {store.url}: {count}", entry_sections(entries)))
    return 0


def _cmd_compact(args) -> int:
    store = ResultsStore(args.store)
    report = store.compact(grace_seconds=args.grace)
    if args.json:
        return _print_json(report)
    swept = report["checkpoints_deleted"]
    if report["snapshot"] is None and not report["deleted_objects"] and not swept:
        print(f"store {store.url}: nothing to compact ({report['total_records']} record(s))")
        return 0
    print(
        f"store {store.url}: folded {report['folded_records']} record(s) "
        f"into {report['snapshot'] or 'the existing snapshot'} "
        f"({report['total_records']} total); deleted {report['deleted_objects']} "
        f"log object(s), {report['kept_for_grace']} kept for the grace window; "
        f"deleted {swept} checkpoint(s) of completed scenarios"
    )
    return 0


def _cmd_diff(args) -> int:
    store = ResultsStore(args.store)
    store_b = ResultsStore(args.store_b) if args.store_b else None
    try:
        diff = diff_entries(
            store, args.hash_a, args.hash_b, samples=args.samples, store_b=store_b
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.json:
        return _print_json(diff)
    print(format_diff(diff))
    return 0


def _cmd_query(args) -> int:
    store = ResultsStore(args.store)
    try:
        records = store.query(
            where=args.where, status=args.status, hash_prefix=args.hash_prefix
        )
    except ValueError as exc:
        # a malformed/ambiguous predicate is a usage error, not a crash
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.json:
        return _print_json(records)
    if not records:
        print(f"store {store.url}: no matching entries")
        return 0
    shown = list(dict.fromkeys(parse_predicate(clause)[0] for clause in args.where))
    rows = []
    for rec in records:
        wall = rec.get("wall_time")
        fields = ", ".join(
            f"{f}={rec[k]}" for f in shown if (k := _resolve_predicate_field(rec, f)) is not None
        )
        rows.append(
            (
                rec.get("name", "?"),
                (rec.get("spec_hash") or "?")[:12],
                rec.get("status", "?"),
                f"{wall:.2f}" if isinstance(wall, (int, float)) else "-",
                fields,
            )
        )
    headers = ("name", "hash", "status", "wall [s]", "matched fields")
    title = f"store {store.url}: {len(records)} matching entry(ies)"
    print(render(title, [("Matches", "table", (headers, rows))]))
    return 0


def _cmd_resume(args) -> int:
    store = ResultsStore(args.store)
    infos = store.list_checkpoints(with_progress=True)
    if args.json:
        return _print_json(infos)
    if not infos:
        print(f"store {store.url}: no resumable checkpoints")
        return 0
    rows = [
        (
            info["name"],
            info["spec_hash"][:12],
            info["status"],
            "?" if info.get("iterations_done") is None else info["iterations_done"],
            time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(info["mtime"])),
        )
        for info in infos
    ]
    headers = ("name", "hash", "status", "iters", "last written")
    title = f"store {store.url}: {len(infos)} resumable checkpoint(s)"
    print(render(title, [("Checkpoints", "table", (headers, rows))]))
    print("re-run the original suite command to resume them (matching hashes are skipped)")
    return 0


def _cmd_work(args) -> int:
    try:
        suite = get_preset(args.suite)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    store = ResultsStore(args.store)
    report = run_worker(
        suite,
        store,
        worker_id=args.worker_id,
        ttl=args.ttl,
        max_attempts=args.max_attempts,
        poll=args.poll,
        max_claims=args.max_claims,
        retry_parked=args.retry_parked,
        progress=print,
    )
    print(report.summary())
    # parked scenarios mean the suite did not fully drain into results
    return 1 if report.parked else 0


def _cmd_status(args) -> int:
    store = ResultsStore(args.store)
    if args.follow:
        try:
            follow(store, poll=args.poll, max_polls=args.max_polls)
        except KeyboardInterrupt:
            print("", file=sys.stderr)
        return 0
    data = fleet_data(store)
    if args.json:
        return _print_json(
            {
                "leases": data["leases"],
                "parked": data["parked"],
                "entries": data["status_counts"],
                "progress": data["progress"],
                "events": data["event_counts"],
                "events_total": data["events_total"],
                "event_logs": data["event_logs"],
            }
        )
    print(render(f"store {store.url}", fleet_sections(data)))
    return 0


def _cmd_report(args) -> int:
    rendered = render_report(ResultsStore(args.store), fmt=args.fmt)
    if args.output:
        # atomic: a killed/raced report run must never leave a torn file
        # where a previous complete report (or a dashboard symlink) was
        serialize.atomic_write(args.output, lambda fh: fh.write(rendered), text=True)
        print(f"wrote {args.fmt} report to {args.output}", file=sys.stderr)
    else:
        print(rendered)
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "show": _cmd_show,
    "diff": _cmd_diff,
    "query": _cmd_query,
    "resume": _cmd_resume,
    "compact": _cmd_compact,
    "work": _cmd_work,
    "status": _cmd_status,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except StoreURLError as exc:
        # a typo'd --store (or REPRO_STORE_URL) is a usage error, not a crash
        print(exc.args[0], file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

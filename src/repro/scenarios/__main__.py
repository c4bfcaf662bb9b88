"""Command-line interface of the scenario engine.

Installed as the ``repro-scenarios`` console script and runnable as
``python -m repro.scenarios``.  Subcommands:

* ``list``   — show the named preset suites and their sizes;
* ``run``    — expand a preset and run it against a results store
  (``--dry-run`` prints the expansion without solving anything);
* ``show``   — print a store's committed entries;
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
  controls how long folded log objects linger for in-flight readers);
* ``work``   — join a worker fleet draining one suite cooperatively via
  the claim/lease protocol (any number of these processes against one
  shared ``--store``; see :mod:`repro.scenarios.lease`);
* ``status`` — live fleet view of a store: held leases and their ages,
  parked scenarios, entry status counts, and per-scenario solve progress
  from the persisted event feed (``--follow`` tails the feed live,
  streaming new events and refreshed progress/ETA lines every ``--poll``
  seconds);
* ``report`` — render a self-contained run report (markdown or HTML with
  inline-SVG convergence curves and a per-worker fleet timeline) joining
  the store's entries, solve-progress events, lease telemetry and parked
  records (see :mod:`repro.scenarios.report`).

Every ``--store`` flag accepts either a local directory or a store URL
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
from repro.scenarios.runner import SCHEDULE_KINDS, run_suite
from repro.scenarios.spec import get_preset, preset_names
from repro.scenarios.store import ResultsStore, _resolve_predicate_field, parse_predicate

__all__ = ["main"]


def _default_store() -> str:
    return os.environ.get("REPRO_STORE_URL") or "scenario_store"


_STORE_HELP = (
    "results store: a directory, or a store URL "
    "(file:///abs/path | mem://name | s3://bucket/prefix?endpoint=...)"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scenarios",
        description="Run scenario suites with checkpoint/resume and a provenance-tracked store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the named preset suites")

    run = sub.add_parser("run", help="run a preset suite")
    run.add_argument("suite", help=f"preset name (one of: {', '.join(preset_names())})")
    run.add_argument("--store", default=_default_store(), help=_STORE_HELP)
    run.add_argument(
        "--executor",
        default="serial",
        choices=EXECUTOR_KINDS,
        help="scenario-level dispatch backend",
    )
    run.add_argument("--workers", type=int, default=2, help="scenario-level worker count")
    run.add_argument(
        "--schedule",
        default="longest-first",
        choices=SCHEDULE_KINDS,
        help="dispatch order: longest-first uses prior wall times from the store "
        "(spec-size heuristics for unseen hashes); fifo keeps suite order",
    )
    run.add_argument(
        "--keep-last-n",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint GC: keep at most the N newest resumable checkpoints",
    )
    run.add_argument(
        "--no-keep-on-failure",
        dest="keep_on_failure",
        action="store_false",
        help="checkpoint GC: also drop checkpoints of failed/interrupted scenarios",
    )
    run.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded suite (names, kinds, hashes) without solving",
    )
    run.add_argument(
        "--force", action="store_true", help="re-run scenarios already in the store"
    )
    run.add_argument(
        "--interrupt-after",
        type=int,
        default=None,
        metavar="N",
        help="testing hook: kill each solve after N iterations (checkpoint survives; "
        "re-running the same command resumes)",
    )
    run.add_argument(
        "--batch",
        action="store_true",
        help="stack solve scenarios sharing a grid topology into one Newton per "
        "iteration (the same row solves as the default path, which is a batch of "
        "one; checkpoints/entries are unchanged)",
    )

    show = sub.add_parser("show", help="print a store's committed entries")
    show.add_argument("--store", default=_default_store(), help=_STORE_HELP)

    diff = sub.add_parser(
        "diff", help="compare two store entries (spec, aggregate and policy deltas)"
    )
    diff.add_argument("hash_a", metavar="HASH1", help="spec hash (or unique prefix) of entry A")
    diff.add_argument("hash_b", metavar="HASH2", help="spec hash (or unique prefix) of entry B")
    diff.add_argument("--store", default=_default_store(), help=_STORE_HELP)
    diff.add_argument(
        "--store-b",
        default=None,
        metavar="STORE",
        help="resolve HASH2 in a different store (any backend URL); "
        "defaults to --store",
    )
    diff.add_argument("--json", action="store_true", help="emit the diff as JSON")
    diff.add_argument(
        "--samples",
        type=int,
        default=64,
        help="state-space sample points for the policy comparison",
    )

    query = sub.add_parser(
        "query",
        help="filter the store's secondary index with field predicates "
        "(no per-entry reads on a compacted store)",
    )
    query.add_argument("--store", default=_default_store(), help=_STORE_HELP)
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
    query.add_argument("--json", action="store_true", help="emit matching records as JSON")

    resume = sub.add_parser("resume", help="list resumable checkpoints in a store")
    resume.add_argument("--store", default=_default_store(), help=_STORE_HELP)
    resume.add_argument("--json", action="store_true", help="emit the listing as JSON")

    compact = sub.add_parser(
        "compact",
        help="fold the commit log into a snapshot checkpoint "
        "(index() then reads one snapshot plus the un-folded tail)",
    )
    compact.add_argument("--store", default=_default_store(), help=_STORE_HELP)
    compact.add_argument(
        "--grace",
        type=float,
        default=DEFAULT_COMPACT_GRACE,
        metavar="SECONDS",
        help="folded log objects are only deleted once their snapshot has "
        "been durable this long (in-flight readers keep their tail); "
        "0 deletes immediately (default: %(default)s)",
    )
    compact.add_argument("--json", action="store_true", help="emit the report as JSON")

    work = sub.add_parser(
        "work",
        help="join a worker fleet: claim scenarios via leases, solve, commit, "
        "release — until the suite is drained",
    )
    work.add_argument("suite", help=f"preset name (one of: {', '.join(preset_names())})")
    work.add_argument("--store", default=_default_store(), help=_STORE_HELP)
    work.add_argument(
        "--ttl",
        type=float,
        default=None,
        help="lease time-to-live in seconds; heartbeats renew every TTL/3 and "
        f"peers steal leases not renewed for a TTL (default: $REPRO_LEASE_TTL or {DEFAULT_TTL})",
    )
    work.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity (default: <host>-<pid>-<rand>)",
    )
    work.add_argument(
        "--max-attempts",
        type=int,
        default=DEFAULT_MAX_ATTEMPTS,
        help="park a scenario as permanently failing after this many failed "
        "attempts across the fleet (default: %(default)s)",
    )
    work.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="rescan interval while peers hold all remaining scenarios",
    )
    work.add_argument(
        "--max-claims",
        type=int,
        default=None,
        metavar="N",
        help="exit after claiming N scenarios (default: run until drained)",
    )
    work.add_argument(
        "--retry-parked",
        action="store_true",
        help="clear parked/attempt records for this suite before starting",
    )
    work.add_argument(
        "--batch",
        action="store_true",
        help="group size, not a code path: claim solve scenarios sharing a grid topology "
        "together and iterate them stacked (one lease/heartbeat/checkpoint per member)",
    )

    status = sub.add_parser(
        "status",
        help="fleet status of a store: held leases, parked scenarios, entries, "
        "solve progress (--follow tails the event feed live)",
    )
    status.add_argument("--store", default=_default_store(), help=_STORE_HELP)
    status.add_argument("--json", action="store_true", help="emit the status as JSON")
    status.add_argument(
        "--follow",
        action="store_true",
        help="stream the merged event feed live (new events + per-scenario "
        "progress/ETA lines) until interrupted",
    )
    status.add_argument(
        "--poll",
        type=float,
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
        help="render a self-contained run report (suite summary, convergence "
        "curves, fleet timeline) from a store's entries and event feed",
    )
    report.add_argument("--store", default=_default_store(), help=_STORE_HELP)
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


def _cmd_compact(args) -> int:
    store = ResultsStore(args.store)
    report = store.compact(grace_seconds=args.grace)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    if report["snapshot"] is None and not report["deleted_objects"]:
        print(f"store {store.url}: nothing to compact ({report['total_records']} record(s))")
        return 0
    print(
        f"store {store.url}: folded {report['folded_records']} record(s) "
        f"into {report['snapshot'] or 'the existing snapshot'} "
        f"({report['total_records']} total); deleted {report['deleted_objects']} "
        f"log object(s), {report['kept_for_grace']} kept for the grace window"
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
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
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
        print(json.dumps(records, indent=2, sort_keys=True))
        return 0
    if not records:
        print(f"store {store.url}: no matching entries")
        return 0
    print(f"store {store.url}: {len(records)} matching entry(ies)")
    print(f"  {'name':<32} {'hash':<12} {'status':<11} {'wall [s]':>9}  matched fields")
    shown = []
    for clause in args.where:
        field = parse_predicate(clause)[0]
        if field not in shown:
            shown.append(field)
    for rec in records:
        fields = ", ".join(
            f"{f}={rec[k]}"
            for f in shown
            if (k := _resolve_predicate_field(rec, f)) is not None
        )
        wall = rec.get("wall_time")
        print(
            f"  {rec.get('name', '?'):<32} {(rec.get('spec_hash') or '?')[:12]:<12} "
            f"{rec.get('status', '?'):<11} "
            f"{(float(wall) if isinstance(wall, (int, float)) else float('nan')):>9.2f}  "
            f"{fields}"
        )
    return 0


def _cmd_resume(args) -> int:
    store = ResultsStore(args.store)
    infos = store.list_checkpoints(with_progress=True)
    if args.json:
        print(json.dumps(infos, indent=2, sort_keys=True))
        return 0
    if not infos:
        print(f"store {store.url}: no resumable checkpoints")
        return 0
    print(f"store {store.url}: {len(infos)} resumable checkpoint(s)")
    print(f"  {'name':<32} {'hash':<12} {'status':<11} {'iters':>5}  last written")
    for info in infos:
        iters = info.get("iterations_done")
        stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(info["mtime"]))
        print(
            f"  {info['name']:<32} {info['spec_hash'][:12]:<12} "
            f"{info['status']:<11} {('?' if iters is None else iters)!s:>5}  {stamp}"
        )
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
        batch_topology=args.batch,
        progress=print,
    )
    print(report.summary())
    # parked scenarios mean the suite did not fully drain into results
    return 1 if report.parked else 0


def _cmd_status(args) -> int:
    from repro.scenarios.report import follow, format_progress_line, progress_snapshot

    store = ResultsStore(args.store)
    if args.follow:
        try:
            follow(store, poll=args.poll, max_polls=args.max_polls)
        except KeyboardInterrupt:
            print("", file=sys.stderr)
        return 0
    now = time.time()
    leases = store.leases()
    parked = store.parked()
    counts: dict = {}
    # commit records (no entry.json reads) carry the status; a fleet
    # status poll on a million-entry store stays O(snapshot + tail)
    for entry in store.index_records().values():
        status = entry.get("status", "unknown")
        counts[status] = counts.get(status, 0) + 1
    telemetry = progress_snapshot(store)
    if args.json:
        print(
            json.dumps(
                {
                    "leases": leases,
                    "parked": parked,
                    "entries": counts,
                    "progress": telemetry["progress"],
                    "events": telemetry["event_counts"],
                    "events_total": telemetry["events_total"],
                    "event_logs": telemetry["event_logs"],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"store {store.url}")
    print(
        "entries: "
        + (
            ", ".join(f"{n} {status}" for status, n in sorted(counts.items()))
            if counts
            else "none"
        )
    )
    if leases:
        print(f"{len(leases)} held lease(s):")
        print(f"  {'scenario':<18} {'worker':<28} {'epoch':>5} {'age [s]':>8} {'ttl [s]':>8}")
        for lease in leases:
            age = now - float(lease.get("renewed_at", now))
            expired = " (expired)" if age > float(lease.get("ttl", 0.0)) else ""
            print(
                f"  {lease['scenario']:<18} {lease.get('worker', '?'):<28} "
                f"{lease.get('epoch', '?')!s:>5} {age:>8.1f} "
                f"{lease.get('ttl', float('nan')):>8.1f}{expired}"
            )
    else:
        print("no held leases")
    if parked:
        print(f"{len(parked)} parked scenario(s):")
        for record in parked:
            print(
                f"  {record['scenario']:<18} after {record.get('attempts', '?')} "
                f"attempt(s): {record.get('error', '?')}"
            )
    if telemetry["events_total"]:
        kinds = ", ".join(
            f"{n} {kind}" for kind, n in sorted(telemetry["event_counts"].items())
        )
        print(f"{telemetry['events_total']} event(s): {kinds}")
        for worker, log in sorted(telemetry["event_logs"].items()):
            print(f"  {worker:<28} {log['segments']} segment(s), {log['bytes']} byte(s)")
        if telemetry["progress"]:
            print("solve progress:")
            for record in telemetry["progress"].values():
                print(f"  {format_progress_line(record)}")
    return 0


def _cmd_report(args) -> int:
    from repro.scenarios.report import render_report

    store = ResultsStore(args.store)
    rendered = render_report(store, fmt=args.fmt)
    if args.output:
        # atomic: a killed/raced report run must never leave a torn file
        # where a previous complete report (or a dashboard symlink) was
        serialize.atomic_write(args.output, lambda fh: fh.write(rendered), text=True)
        print(f"wrote {args.fmt} report to {args.output}", file=sys.stderr)
    else:
        print(rendered)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except StoreURLError as exc:
        # a typo'd --store (or REPRO_STORE_URL) is a usage error, not a crash
        print(exc.args[0], file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "list":
        for name in preset_names():
            suite = get_preset(name)
            kinds = sorted({s.kind for s in suite})
            print(f"{name:<16} {len(suite):>3} scenario(s)  kinds: {', '.join(kinds)}")
        return 0

    if args.command == "show":
        print(ResultsStore(args.store).describe())
        return 0

    if args.command == "diff":
        return _cmd_diff(args)

    if args.command == "query":
        return _cmd_query(args)

    if args.command == "resume":
        return _cmd_resume(args)

    if args.command == "compact":
        return _cmd_compact(args)

    if args.command == "work":
        return _cmd_work(args)

    if args.command == "status":
        return _cmd_status(args)

    if args.command == "report":
        return _cmd_report(args)

    # run
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
                force=args.force,
            interrupt_after=args.interrupt_after,
            schedule=args.schedule,
            keep_last_n=args.keep_last_n,
            keep_on_failure=args.keep_on_failure,
            batch_topology=args.batch,
            progress=print,
        )
    except ValueError as exc:
        # dispatch-setup misconfiguration (e.g. a mem:// store with the
        # processes executor) is a usage error, same as a bad store URL
        print(exc.args[0], file=sys.stderr)
        return 2
    print(report.summary())
    if not report.ok:
        # interrupted scenarios resume on the next identical invocation
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Fleet status, run reports and live tailing over the scenario store.

The read side of everything the scenario engine records — store entries,
per-worker ``events/*`` feeds (lease lifecycle + the per-iteration solve
progress of :data:`repro.parallel.tracing.SOLVE_EVENT_KINDS`, read through
the one :class:`~repro.scenarios.store.EventTailer`), lease/parked
coordination state and the wall-time/iteration provenance inside each
entry — as one pipeline:

* :class:`ProgressBoard` — a per-scenario progress model fed event by
  event: current iteration, last l∞ error, grid points, and an **ETA**
  extrapolated from the error-contraction rate (time iteration converges
  linearly, so ``log error`` against iteration is a line — the fitted
  slope says how many iterations remain until the tolerance);
* one run view at two depths: :func:`fleet_data` (commit-record status
  counts, leases, parked records and one tailer poll folded through a
  board; no ``entry.json`` read) and :func:`gather_run_data` (that plus
  the entries, the per-worker holds timeline with the makespan, busy time
  and fleet utilization the summary quotes, and the convergence series);
* one renderer: a view is a list of sections ``(title, kind, payload)``
  and :func:`render` writes them once, as ``text``, ``md`` or ``html``
  (no external assets, no plotting dependencies: hand-rolled inline SVG
  and unicode sparklines).  ``status`` renders :func:`fleet_sections`,
  ``report`` :func:`report_sections` (a summary, the scenarios table, the
  fleet sections, then convergence curves, the slowest scenarios, the
  fleet timeline and the failures) and ``show`` :func:`entry_sections`.
"""

from __future__ import annotations

import html as _html
import math
import time
from collections import Counter
from datetime import datetime, timezone

from repro.scenarios.store import EventTailer, ResultsStore

__all__ = [
    "ProgressBoard",
    "entry_sections",
    "estimate_eta",
    "fleet_data",
    "fleet_sections",
    "follow",
    "format_event",
    "gather_run_data",
    "render",
    "render_report",
    "report_sections",
]

#: samples of (iteration, error, wall_time) kept per scenario for the ETA fit
_ETA_WINDOW = 12


# --------------------------------------------------------------------------- #
# per-scenario progress and ETA
# --------------------------------------------------------------------------- #
def _contraction_rate(samples: list) -> float | None:
    """Least-squares slope of ``ln(error)`` against iteration number.

    Time iteration contracts linearly (paper Fig. 9), so the log-error
    trajectory is a line whose slope is the per-iteration contraction
    rate.  Returns ``None`` with fewer than two usable samples or when
    the fit says the errors are not shrinking.
    """
    # non-finite errors (a diverging member overflowing to inf/nan) would
    # poison the whole fit
    pts = [(i, math.log(e)) for i, e, _ in samples if e > 0.0 and math.isfinite(e)]
    if len(pts) < 2:
        return None
    n = float(len(pts))
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    denom = n * sxx - sx * sx
    if denom <= 0.0:
        return None
    slope = (n * sxy - sx * sy) / denom
    # a stalled sequence fits a slope of ~0 up to float noise; treating
    # -1e-16 as "contracting" extrapolates a 10^15-iteration ETA.  Demand
    # a slope that could actually cross a tolerance within a realistic
    # iteration budget before calling the errors "shrinking".
    if not math.isfinite(slope) or slope >= -1e-9:
        return None
    return slope


def estimate_eta(progress: dict) -> dict | None:
    """ETA for one scenario's progress record, or ``None``.

    Extrapolates the fitted error-contraction rate to the iteration where
    the error crosses the solve's tolerance, then prices the remaining
    iterations at the recent mean per-iteration wall time.  Returns
    ``{"iterations_left", "seconds_left", "rate"}``.
    """
    samples = progress.get("samples") or []
    tolerance = progress.get("tolerance")
    error = progress.get("error")
    # NaN slips through every comparison guard (``nan <= x`` is False) and
    # inf survives ``error <= 0.0`` — both used to reach the log/ceil below
    # and surface as a crash or a negative "ETA"
    if not samples or not tolerance or not error:
        return None
    tolerance, error = float(tolerance), float(error)
    if not math.isfinite(tolerance) or tolerance <= 0.0:
        return None
    if not math.isfinite(error) or error <= 0.0:
        return None
    if error <= tolerance:
        return {"iterations_left": 0, "seconds_left": 0.0, "rate": None}
    rate = _contraction_rate(samples)
    if rate is None:
        return None
    iterations_left = math.log(tolerance / error) / rate
    max_iterations = progress.get("max_iterations")
    if max_iterations:
        budget = max(int(max_iterations) - int(progress.get("iteration", 0)), 0)
        iterations_left = min(iterations_left, float(budget))
    if not math.isfinite(iterations_left) or iterations_left < 0.0:
        return None  # a stalled/growing sequence has no meaningful ETA
    walls = [w for _, _, w in samples if w > 0.0]
    mean_wall = sum(walls) / len(walls) if walls else 0.0
    return {
        "iterations_left": int(math.ceil(iterations_left)),
        "seconds_left": float(iterations_left * mean_wall),
        "rate": float(rate),
    }


class ProgressBoard:
    """Per-scenario solve progress assembled from the structured feed.

    Feed it events (dicts, as persisted) via :meth:`update`; read the
    current state via :meth:`snapshot` (per-scenario dicts with ETA).
    """

    def __init__(self) -> None:
        self._scenarios: dict = {}

    def _state(self, scenario: str) -> dict:
        return self._scenarios.setdefault(
            scenario,
            {
                "scenario": scenario,
                "status": "running",
                "worker": "",
                "iteration": 0,
                "error": None,
                "error_linf": None,
                "points": None,
                "tolerance": None,
                "max_iterations": None,
                "solver": None,
                "new_iterations": None,
                "samples": [],
            },
        )

    def update(self, event: dict) -> None:
        scenario = str(event.get("scenario", ""))
        if not scenario:
            return
        kind = event.get("kind")
        state = self._state(scenario)
        worker = str(event.get("worker", ""))
        if kind == "solve-started":
            state.update(
                status="running",
                worker=worker,
                tolerance=event.get("tolerance"),
                max_iterations=event.get("max_iterations"),
                iteration=int(event.get("start_iteration", 0) or 0),
            )
            state["samples"] = []
        elif kind == "iteration":
            error = event.get("error", event.get("error_linf"))
            state.update(
                status="running",
                worker=worker,
                iteration=int(event.get("iteration", 0) or 0),
                error=error,
                error_linf=event.get("error_linf"),
                points=event.get("points"),
            )
            if isinstance(error, (int, float)):
                state["samples"].append(
                    (
                        int(event.get("iteration", 0) or 0),
                        float(error),
                        float(event.get("wall_time", 0.0) or 0.0),
                    )
                )
                del state["samples"][:-_ETA_WINDOW]
        elif kind == "converged":
            state.update(status="converged", worker=worker)
        elif kind == "solve-finished":
            state.update(
                solver=event.get("solver"), new_iterations=event.get("new_iterations")
            )
        elif kind == "committed":
            state.update(status="completed", worker=worker)
        elif kind == "abandoned":
            state.update(status="abandoned", worker=worker)
        elif kind == "parked":
            state.update(status="parked", worker=worker)
        elif kind in ("stolen", "claimed"):
            state.update(worker=worker)

    def snapshot(self) -> dict:
        """scenario hash16 -> progress dict (with ``eta`` filled in)."""
        out = {}
        for scenario, state in sorted(self._scenarios.items()):
            record = {k: v for k, v in state.items() if k != "samples"}
            record["samples"] = list(state["samples"])
            record["eta"] = estimate_eta(state)
            out[scenario] = record
        return out


def format_event(event: dict) -> str:
    """One human-readable feed line for a persisted event dict."""
    stamp = time.strftime(
        "%H:%M:%S", time.localtime(float(event.get("timestamp", 0.0)))
    )
    kind = str(event.get("kind", "?"))
    worker = str(event.get("worker", "?"))
    scenario = str(event.get("scenario", "")) or "-"
    detail = ""
    if kind == "iteration":
        err = event.get("error", event.get("error_linf"))
        err_s = f"{err:.3e}" if isinstance(err, (int, float)) else "?"
        detail = (
            f" iter={event.get('iteration', '?')} err={err_s}"
            f" pts={event.get('points', '?')}"
            f" ({float(event.get('wall_time', 0.0) or 0.0):.2f}s)"
        )
    elif kind == "refined":
        detail = f" {event.get('points_before', '?')} -> {event.get('points_after', '?')} pts"
    elif kind == "solve-started":
        detail = f" from iter {event.get('start_iteration', 0)}" + (
            " (resumed)" if event.get("resumed") else ""
        )
    elif kind == "solve-finished":
        detail = (
            f" {event.get('iterations', '?')} iter,"
            f" converged={event.get('converged', '?')}"
        )
    elif kind == "stolen":
        detail = f" from {event.get('previous_worker', '?')}"
    elif kind in ("retry", "parked"):
        detail = f" attempt(s)={event.get('attempt', event.get('attempts', '?'))}"
    return f"[{stamp}] {worker:<22} {kind:<16} {scenario}{detail}"


def follow(
    store: ResultsStore,
    poll: float = 2.0,
    *,
    out=print,
    sleep=time.sleep,
    max_polls: int | None = None,
) -> int:
    """Stream the store's merged event feed live (``status --follow``).

    Re-polls every ``poll`` seconds through an :class:`EventTailer`
    (byte-offset incremental reads — each cycle costs one ``list`` plus
    one ``get`` per worker's live event segment), printing every new event
    followed by the solve-progress table of the scenarios still solving.
    Runs until interrupted, or for ``max_polls`` cycles when given (tests,
    bounded smoke runs).  Returns the total number of events streamed.
    """
    tailer = EventTailer(store)
    board = ProgressBoard()
    streamed = 0
    polls = 0
    while True:
        fresh = tailer.poll()
        for event in fresh:
            board.update(event)
            out(format_event(event))
        if fresh:
            streamed += len(fresh)
            active = {
                scenario: record
                for scenario, record in board.snapshot().items()
                if record["status"] in ("running", "converged")
            }
            if active:
                out(_text_block(*_progress_section(active)))
        polls += 1
        if max_polls is not None and polls >= max_polls:
            return streamed
        sleep(max(float(poll), 0.01))


# --------------------------------------------------------------------------- #
# the run view: fleet_data for status, gather_run_data for report
# --------------------------------------------------------------------------- #
def _worker_spans(events: list) -> list:
    """Claim-to-outcome holding spans per worker, from the event feed.

    Each span is ``{worker, scenario, start, end, kind, outcome, open}``:
    ``kind`` is ``claim``/``steal``, ``outcome`` the event that ended the
    hold — the holder's own ``committed``/``released``/``abandoned``/
    ``parked``, or ``stolen`` when a peer took the lease over (the holder
    is presumed dead from then on) — and open spans (still in flight when
    the feed was read) end at the feed's last timestamp.
    """
    spans = []
    open_spans: dict = {}
    last_ts = 0.0

    def close(hold_key: tuple, ts: float, outcome: str) -> None:
        span = open_spans.pop(hold_key, None)
        if span is not None:
            span.update(end=ts, outcome=outcome, open=False)
            spans.append(span)

    for event in events:
        ts = float(event.get("timestamp", 0.0))
        last_ts = max(last_ts, ts)
        worker = str(event.get("worker", ""))
        scenario = str(event.get("scenario", ""))
        kind = event.get("kind")
        if kind == "stolen":
            close((str(event.get("previous_worker", "")), scenario), ts, "stolen")
        if kind in ("claimed", "stolen"):
            open_spans[(worker, scenario)] = {
                "worker": worker,
                "scenario": scenario,
                "start": ts,
                "end": ts,
                "kind": "steal" if kind == "stolen" else "claim",
                "outcome": None,
                "open": True,
            }
        elif kind in ("committed", "released", "abandoned", "parked"):
            close((worker, scenario), ts, kind)
    for span in open_spans.values():
        span["end"] = max(last_ts, span["start"])
        spans.append(span)
    spans.sort(key=lambda s: (s["worker"], s["start"]))
    return spans


def _convergence_series(store: ResultsStore, entries: list, events: list) -> dict:
    """scenario hash16 -> ``(label, [(iteration, error, wall)...])``.

    Completed entries carry their full ``iteration_records`` history;
    scenarios without one (in-flight, failed early, foreign) fall back to
    whatever ``iteration`` events the feed holds.
    """
    series: dict = {}
    for entry in entries:
        records = entry.get("iteration_records") or []
        pts = [
            (
                int(r.get("iteration", i + 1)),
                float(r.get("policy_change_linf", 0.0) or 0.0),
                float(r.get("wall_time", 0.0) or 0.0),
            )
            for i, r in enumerate(records)
        ]
        if pts:
            key = store.scenario_key(entry["spec_hash"])
            series[key] = (entry.get("name", key), pts)
    from_events: dict = {}
    for event in events:
        if event.get("kind") != "iteration":
            continue
        err = event.get("error_linf", event.get("error"))
        if not isinstance(err, (int, float)):
            continue
        from_events.setdefault(str(event.get("scenario", "")), []).append(
            (
                int(event.get("iteration", 0) or 0),
                float(err),
                float(event.get("wall_time", 0.0) or 0.0),
            )
        )
    for scenario, pts in from_events.items():
        if scenario and scenario not in series:
            pts.sort()
            series[scenario] = (scenario, pts)
    return series


def fleet_data(store: ResultsStore) -> dict:
    """What ``status`` shows, read without opening any ``entry.json``.

    The status counts of the commit records (``records`` keeps the
    records themselves), the live leases and the parked records of one
    ``leases/`` listing, and one :class:`EventTailer` poll folded through
    a :class:`ProgressBoard` (``events`` keeps the polled feed itself,
    ``event_logs`` the tailer's per-worker segments and bytes).
    """
    tailer = EventTailer(store)
    events = tailer.poll()
    board = ProgressBoard()
    for event in events:
        board.update(event)
    records = store.index_records()
    held = store._lease_records("lease.json", "parked.json")
    return {
        "url": store.url,
        "records": records,
        "status_counts": dict(Counter(r.get("status", "unknown") for r in records.values())),
        "leases": held["lease.json"],
        "parked": held["parked.json"],
        "events": events,
        "event_counts": dict(Counter(str(e.get("kind", "?")) for e in events)),
        "events_total": len(events),
        "event_logs": tailer.logs,
        "progress": board.snapshot(),
    }


def gather_run_data(store: ResultsStore) -> dict:
    """:func:`fleet_data` plus the entries, the holds timeline and the
    convergence series: what ``report`` shows.  The entries are those of
    the commit records :func:`fleet_data` read — one ``entry.json`` get
    each, ordered like :meth:`ResultsStore.entries`, and no second log read.

    Over the holding spans: ``makespan`` runs from the first hold's start
    to the last one's end, ``busy_time`` is each worker's held seconds and
    ``utilization`` their sum over ``makespan`` x workers (``None`` with
    no spans, 1.0 when every span is instantaneous)."""
    data = fleet_data(store)
    entries = [entry for h in data["records"] if (entry := store.entry(h)) is not None]
    entries.sort(key=lambda e: e.get("created_at_unix", 0.0))
    spans = _worker_spans(data["events"])
    workers = sorted({s["worker"] for s in spans})
    busy = {w: sum(s["end"] - s["start"] for s in spans if s["worker"] == w) for w in workers}
    makespan = max((s["end"] for s in spans), default=0.0) - min(
        (s["start"] for s in spans), default=0.0
    )
    capacity = makespan * len(workers)
    counts = data["event_counts"]
    data.update(
        generated_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        entries=entries,
        spans=spans,
        workers=workers,
        utilization=(sum(busy.values()) / capacity if capacity else 1.0) if spans else None,
        makespan=makespan,
        busy_time=busy,
        steals=counts.get("stolen", 0),
        retries=counts.get("retry", 0),
        heartbeat_misses=counts.get("heartbeat-missed", 0),
        healed=counts.get("healed", 0),
        convergence=_convergence_series(store, entries, data["events"]),
    )
    return data


# --------------------------------------------------------------------------- #
# sections: (title, kind, payload)
# --------------------------------------------------------------------------- #
def _fmt_secs(value) -> str:
    return f"{float(value):.2f}" if isinstance(value, (int, float)) else "-"


def _fmt_ratio(num, den) -> str:
    return f"{num / den:.1f}" if num is not None and den else "-"


def _fmt_error(value) -> str:
    return f"{value:.3e}" if isinstance(value, (int, float)) else "-"


#: the point-solver totals of ``solve-finished`` the progress table shows
_SOLVER_COLUMNS = ("rows", "stalled", "pinned", "residual_calls")
_PROGRESS_HEADERS = (
    "scenario",
    "status",
    "iter",
    "last error",
    "points",
    " / ".join(name.replace("_", " ") for name in _SOLVER_COLUMNS),
    "Newton runs per iteration",
    "residual calls per run",
    "ETA",
    "worker",
)


def _progress_section(progress: dict) -> tuple:
    rows = []
    for scenario, record in progress.items():
        eta = record.get("eta")
        solver = record.get("solver") or {}
        runs = solver.get("newton_runs")
        cap = record.get("max_iterations")
        iteration = record.get("iteration", 0)
        rows.append(
            (
                scenario,
                record["status"],
                f"{iteration}/{cap}" if cap else iteration,
                _fmt_error(record.get("error")),
                record.get("points") or "-",
                " / ".join(str(solver.get(name, "-")) for name in _SOLVER_COLUMNS),
                _fmt_ratio(runs, record.get("new_iterations")),
                _fmt_ratio(solver.get("residual_calls"), runs),
                f"~{eta['iterations_left']} iter / {eta['seconds_left']:.1f}s"
                if eta and record["status"] == "running"
                else "-",
                record.get("worker") or "-",
            )
        )
    return ("Solve progress (from the event feed)", "table", (_PROGRESS_HEADERS, rows))


def fleet_sections(data: dict) -> list:
    """The sections of :func:`fleet_data`: what ``status`` prints, and the
    fleet part of the run report."""
    now = time.time()
    leases = []
    for lease in data["leases"]:
        age = now - float(lease.get("renewed_at", now))
        ttl = float(lease.get("ttl", 0.0))
        leases.append(
            (
                lease["scenario"],
                lease.get("worker", "?"),
                lease.get("epoch", "?"),
                f"{age:.1f}",
                f"{ttl:.1f}",
                "yes" if age > ttl else "no",
            )
        )
    parked = [(r["scenario"], r.get("attempts", "?"), r.get("error", "?")) for r in data["parked"]]
    logs = [(w, log["segments"], log["bytes"]) for w, log in sorted(data["event_logs"].items())]
    counts = sorted(data["status_counts"].items())
    return [
        ("Entries by status", "table", (("status", "count"), counts)),
        (
            "Held leases",
            "table",
            (("scenario", "worker", "epoch", "age [s]", "ttl [s]", "expired"), leases),
        ),
        ("Parked scenarios", "table", (("scenario", "attempts", "error"), parked)),
        ("Events by kind", "table", (("kind", "count"), sorted(data["event_counts"].items()))),
        ("Event logs", "table", (("worker", "segments", "bytes"), logs)),
        _progress_section(data["progress"]),
    ]


def _scenarios_section(entries: list) -> tuple:
    headers = ("name", "kind", "hash", "status", "iters", "converged", "wall [s]", "version")
    rows = [
        (
            e.get("name", "?"),
            e.get("kind", "solve"),
            e["spec_hash"][:12],
            e.get("status", "?"),
            e.get("iterations", "-"),
            {True: "yes", False: "no"}.get(e.get("converged"), "-"),
            _fmt_secs(e.get("wall_time")),
            e.get("library_version", "?"),
        )
        for e in entries
    ]
    return ("Scenarios", "table", (headers, rows))


def _failure_sections(entries: list) -> list:
    failed = [e for e in entries if e.get("status") == "failed"]
    errors = [f"{e['spec_hash'][:12]} {e.get('name', '?')}: {e.get('error', '?')}" for e in failed]
    return [("Failures", "items", errors)] + [
        (f"traceback of {e.get('name', '?')} [{e['spec_hash'][:12]}]", "pre", e["traceback"])
        for e in failed
        if e.get("traceback")
    ]


def entry_sections(entries: list) -> list:
    """What ``show`` prints: the scenarios table and the failures, tracebacks included."""
    return [_scenarios_section(entries), *_failure_sections(entries)]


def report_sections(data: dict) -> list:
    """The run report over :func:`gather_run_data`."""
    summary = [
        ("store", data["url"]),
        ("generated", data["generated_at"]),
        ("events", data["events_total"]),
        ("workers seen", len(data["workers"])),
        ("steals", data["steals"]),
        ("retries", data["retries"]),
        ("heartbeat misses", data["heartbeat_misses"]),
        ("leases healed", data["healed"]),
        ("live leases", len(data["leases"])),
        ("parked scenarios", len(data["parked"])),
    ]
    if data["utilization"] is not None:
        summary.append(("fleet utilization", f"{100.0 * data['utilization']:.0f}%"))
        summary.append(("drain makespan [s]", _fmt_secs(data["makespan"])))
    curves = [
        (scenario, label, pts, (data["progress"].get(scenario) or {}).get("tolerance"))
        for scenario, (label, pts) in sorted(data["convergence"].items())
    ]
    completed = [e for e in data["entries"] if e.get("status") == "completed"]
    completed.sort(key=lambda e: float(e.get("wall_time", 0.0) or 0.0), reverse=True)
    slowest = [
        (i + 1, e.get("name", "?"), e["spec_hash"][:12], _fmt_secs(e.get("wall_time")),
         e.get("iterations", "-"))
        for i, e in enumerate(completed[:10])
    ]
    timeline = [
        (w, data["busy_time"][w], [s for s in data["spans"] if s["worker"] == w])
        for w in data["workers"]
    ]
    return [
        ("Suite summary", "table", (("metric", "value"), summary)),
        _scenarios_section(data["entries"]),
        *fleet_sections(data),
        ("Convergence (log-scale error per iteration)", "curves", curves),
        ("Slowest scenarios", "table", (("rank", "name", "hash", "wall [s]", "iters"), slowest)),
        ("Fleet timeline", "timeline", timeline),
        *_failure_sections(data["entries"]),
    ]


# --------------------------------------------------------------------------- #
# the renderer: one block function per format
# --------------------------------------------------------------------------- #
_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _sparkline(errors: list) -> str:
    """Unicode sparkline of a log-scale error trajectory (markdown's SVG)."""
    logs = [math.log10(e) for e in errors if e > 0.0]
    if not logs:
        return ""
    lo, hi = min(logs), max(logs)
    span = (hi - lo) or 1.0
    steps = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[int(round((v - lo) / span * steps))] for v in logs
    )


def _svg_convergence(pts: list, tolerance=None, width: int = 420, height: int = 120) -> str:
    """Inline SVG of one scenario's log-scale convergence curve."""
    data = [(i, math.log10(e)) for i, e, _ in pts if e > 0.0]
    if len(data) < 2:
        return "<svg width='1' height='1'></svg>"
    pad = 34.0
    xs = [i for i, _ in data]
    ys = [v for _, v in data]
    if tolerance and tolerance > 0.0:
        ys.append(math.log10(tolerance))
    x0, x1 = float(min(xs)), float(max(xs))
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def sx(x: float) -> float:
        return pad + (x - x0) / xspan * (width - pad - 8)

    def sy(y: float) -> float:
        return 8 + (y1 - y) / yspan * (height - 24)

    points = " ".join(f"{sx(i):.1f},{sy(v):.1f}" for i, v in data)
    parts = [
        f"<svg width='{width}' height='{height}' viewBox='0 0 {width} {height}' "
        "role='img' xmlns='http://www.w3.org/2000/svg'>",
        f"<line x1='{pad}' y1='{height - 16}' x2='{width - 8}' y2='{height - 16}' "
        "stroke='#999' stroke-width='1'/>",
        f"<line x1='{pad}' y1='8' x2='{pad}' y2='{height - 16}' "
        "stroke='#999' stroke-width='1'/>",
    ]
    if tolerance and tolerance > 0.0:
        ty = sy(math.log10(tolerance))
        parts.append(
            f"<line x1='{pad}' y1='{ty:.1f}' x2='{width - 8}' y2='{ty:.1f}' "
            "stroke='#c33' stroke-width='1' stroke-dasharray='4,3'/>"
        )
    parts.append(
        f"<polyline points='{points}' fill='none' stroke='#2b6cb0' stroke-width='1.5'/>"
    )
    parts.append(
        f"<text x='{pad}' y='{height - 4}' font-size='9' fill='#666'>"
        f"iter {int(x0)}..{int(x1)}  log10 err {y0:.1f}..{y1:.1f}</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


_SPAN_COLORS = {"claim": "#2b6cb0", "steal": "#dd6b20"}
_OUTCOME_COLORS = {"abandoned": "#999999", "parked": "#c53030", "stolen": "#805ad5"}


def _svg_timeline(spans: list, workers: list, width: int = 640, row_h: int = 22) -> str:
    """Inline SVG gantt of per-worker scenario holds (claims vs steals)."""
    if not spans or not workers:
        return "<svg width='1' height='1'></svg>"
    label_w = 170.0
    t0 = min(s["start"] for s in spans)
    t1 = max(s["end"] for s in spans)
    tspan = (t1 - t0) or 1.0
    height = row_h * len(workers) + 22
    rows = {w: i for i, w in enumerate(workers)}

    def sx(t: float) -> float:
        return label_w + (t - t0) / tspan * (width - label_w - 8)

    parts = [
        f"<svg width='{width}' height='{height}' viewBox='0 0 {width} {height}' "
        "role='img' xmlns='http://www.w3.org/2000/svg'>"
    ]
    for worker, row in rows.items():
        y = row * row_h + 4
        parts.append(
            f"<text x='4' y='{y + row_h - 10}' font-size='10' fill='#333'>"
            f"{_html.escape(worker[:24])}</text>"
        )
    for span in spans:
        y = rows[span["worker"]] * row_h + 4
        x = sx(span["start"])
        w = max(sx(span["end"]) - x, 2.0)
        color = _OUTCOME_COLORS.get(
            span.get("outcome"), _SPAN_COLORS.get(span["kind"], "#2b6cb0")
        )
        extra = " fill-opacity='0.5'" if span.get("open") else ""
        parts.append(
            f"<rect x='{x:.1f}' y='{y}' width='{w:.1f}' height='{row_h - 8}' "
            f"rx='2' fill='{color}'{extra}>"
            f"<title>{_html.escape(span['scenario'])} ({span['kind']}, "
            f"{span.get('outcome') or 'in flight'})</title></rect>"
        )
    parts.append(
        f"<text x='{label_w}' y='{height - 6}' font-size='9' fill='#666'>"
        f"0s .. {tspan:.1f}s  (claim=blue, steal=orange, stolen from=purple, "
        "abandoned=grey, parked=red)</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


def _plain(kind: str, payload) -> tuple:
    """A ``curves`` or ``timeline`` payload as the table or items it reads
    as outside HTML: sparklines, and one line of holds per worker."""
    if kind == "curves":
        rows = [
            (label, scenario, len(pts), _fmt_error(pts[-1][1]), _sparkline([e for _, e, _ in pts]))
            for scenario, label, pts, _tolerance in payload
        ]
        return "table", (("name", "scenario", "iters", "final error", "trajectory"), rows)
    if kind == "timeline":
        return "items", [
            f"{worker} — {busy:.1f}s busy: "
            + ", ".join(f"{s['kind']} {s['scenario']} ({s['outcome'] or 'in flight'})"
                        for s in holds)
            for worker, busy, holds in payload
        ]
    return kind, payload


def _text_block(title: str, kind: str, payload) -> str:
    kind, payload = _plain(kind, payload)
    if kind == "table":
        headers, rows = payload
        cells = [[str(cell) for cell in row] for row in (headers, *rows)]
        widths = [max(len(row[col]) for row in cells) for col in range(len(headers))]
        lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
        lines.insert(1, "  ".join("-" * w for w in widths))
    elif kind == "items":
        lines = [f"- {item}" for item in payload]
    else:
        lines = str(payload).rstrip().splitlines()
    return "\n".join([f"{title}:", *("  " + line for line in lines)])


def _md_block(title: str, kind: str, payload) -> str:
    kind, payload = _plain(kind, payload)
    if kind == "table":
        headers, rows = payload
        lines = ["| " + " | ".join(str(cell) for cell in row) + " |" for row in (headers, *rows)]
        lines.insert(1, "| " + " | ".join("---" for _ in headers) + " |")
    elif kind == "items":
        lines = [f"- {item}" for item in payload]
    else:
        lines = ["```", str(payload).rstrip(), "```"]
    return "\n".join([f"## {title}", "", *lines, ""])


def _html_block(title: str, kind: str, payload) -> str:
    esc = _html.escape
    parts = [f"<h2>{esc(title)}</h2>"]
    if kind == "table":
        headers, rows = payload
        status = list(headers).index("status") if "status" in headers else None
        parts.append("<table><thead><tr>")
        parts += [f"<th>{esc(str(h))}</th>" for h in headers]
        parts.append("</tr></thead><tbody>")
        for row in rows:
            parts.append("<tr>")
            for col, cell in enumerate(row):
                cls = f" class='status-{esc(str(cell))}'" if col == status else ""
                parts.append(f"<td{cls}>{esc(str(cell))}</td>")
            parts.append("</tr>")
        parts.append("</tbody></table>")
    elif kind == "items":
        parts += ["<ul>", *(f"<li>{esc(str(item))}</li>" for item in payload), "</ul>"]
    elif kind == "pre":
        parts.append(f"<pre>{esc(str(payload))}</pre>")
    elif kind == "curves":
        for scenario, label, pts, tolerance in payload:
            parts.append(
                f"<figure>{_svg_convergence(pts, tolerance=tolerance)}"
                f"<figcaption><code>{esc(scenario)}</code> {esc(str(label))} — "
                f"{len(pts)} iteration(s), final l∞ change {pts[-1][1]:.3e}</figcaption></figure>"
            )
    else:
        spans = [span for _, _, holds in payload for span in holds]
        parts.append(
            f"<figure>{_svg_timeline(spans, [worker for worker, _, _ in payload])}"
            "<figcaption>scenario holds per worker (hover a bar for the "
            "scenario hash and outcome)</figcaption></figure>"
        )
    return "".join(parts)


_HTML_STYLE = """
body { font: 14px/1.45 system-ui, sans-serif; color: #1a202c; margin: 2rem auto;
       max-width: 60rem; padding: 0 1rem; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem;
     border-bottom: 1px solid #e2e8f0; padding-bottom: .25rem; }
table { border-collapse: collapse; margin: .5rem 0; }
th, td { border: 1px solid #e2e8f0; padding: .25rem .6rem; text-align: left;
         font-variant-numeric: tabular-nums; }
th { background: #f7fafc; }
code { background: #f1f5f9; padding: 0 .25em; border-radius: 3px; }
.status-completed { color: #276749; } .status-failed { color: #c53030; }
.status-interrupted { color: #b7791f; } .status-running { color: #2b6cb0; }
figure { margin: .75rem 0; } figcaption { font-size: .85rem; color: #4a5568; }
"""


def render(title: str, sections: list, fmt: str = "text") -> str:
    """``sections`` under ``title`` as ``text``, ``md`` or ``html``.

    A section is ``(title, kind, payload)``: a ``table`` carries
    ``(headers, rows)``, ``items`` a list of lines, ``pre`` one
    preformatted string, ``curves`` ``(scenario, label, points,
    tolerance)`` tuples and ``timeline`` ``(worker, busy seconds, holding
    spans)`` tuples.  Sections with nothing in them are left out.  The
    HTML is one self-contained document: styles inline, curves and the
    timeline as inline SVG, no scripts and no external fetches.
    """
    blocks = {"text": _text_block, "md": _md_block, "html": _html_block}
    if fmt not in blocks:
        raise ValueError(f"unknown format {fmt!r}; expected one of {', '.join(blocks)}")
    # a table is empty when it has no rows, any other payload when it is falsy
    body = [blocks[fmt](*s) for s in sections if (s[2][1] if s[1] == "table" else s[2])]
    if fmt == "html":
        head = (
            "<!DOCTYPE html><html lang='en'><head><meta charset='utf-8'>"
            f"<title>{_html.escape(title)}</title><style>{_HTML_STYLE}</style></head>"
            f"<body><h1>{_html.escape(title)}</h1>"
        )
        return "".join([head, *body, "</body></html>"])
    return "\n".join([f"# {title}\n" if fmt == "md" else title, *body])


def render_report(store: ResultsStore, fmt: str = "md") -> str:
    """Gather and render a run report (``fmt``: ``"md"``, ``"html"`` or ``"text"``)."""
    data = gather_run_data(store)
    return render(f"Scenario run report — {store.url}", report_sections(data), fmt)

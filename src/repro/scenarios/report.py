"""Run reports and live tailing over the scenario store's telemetry.

The read side of everything the scenario engine records: store entries
(PR 2/3), per-worker ``events/*.jsonl`` feeds (lease lifecycle + the
per-iteration solve progress of
:data:`repro.parallel.tracing.SOLVE_EVENT_KINDS`), lease/parked
coordination state (PR 6) and the wall-time/iteration provenance inside
each entry — joined three ways:

* :class:`EventTailer` — incremental re-reads of the events objects with
  per-object *byte offsets*, so ``repro-scenarios status --follow`` polls
  cheaply and streams only new, complete JSONL lines (a torn trailing
  line is buffered until its newline lands);
* :class:`ProgressBoard` — a per-scenario progress model fed event by
  event: current iteration, last l∞ error, grid points, and an **ETA**
  extrapolated from the error-contraction rate (time iteration converges
  linearly, so ``log error`` against iteration is a line — the fitted
  slope says how many iterations remain until the tolerance);
* :func:`gather_run_data` + :func:`render_markdown`/:func:`render_html` —
  the ``repro-scenarios report`` subcommand: a self-contained run report
  (no external assets, no plotting dependencies) with a suite summary,
  per-scenario convergence curves (inline SVG, log-scale), a fleet
  timeline of claims/steals/parks per worker (built through
  :class:`~repro.parallel.tracing.TraceRecorder` spans so the summary
  can quote fleet utilization), retry/steal/heartbeat-miss counts and a
  slowest-scenario ranking.
"""

from __future__ import annotations

import html as _html
import math
import time
from collections import Counter
from datetime import datetime, timezone

from repro.parallel.tracing import TraceRecorder
from repro.scenarios.store import ResultsStore, parse_event_lines

__all__ = [
    "EventTailer",
    "ProgressBoard",
    "estimate_eta",
    "format_event",
    "format_progress_line",
    "follow",
    "gather_run_data",
    "progress_snapshot",
    "render_markdown",
    "render_html",
    "render_report",
]

#: samples of (iteration, error, wall_time) kept per scenario for the ETA fit
_ETA_WINDOW = 12


# --------------------------------------------------------------------------- #
# live tail: incremental event reads with per-object byte offsets
# --------------------------------------------------------------------------- #
class EventTailer:
    """Incrementally drains new events from a store's ``events/*`` objects.

    Each :meth:`poll` lists the event objects, re-reads only the bytes
    past the per-object offset remembered from the previous poll, and
    returns the newly completed lines merged time-ordered across workers
    (a worker's segments in segment order).  Only bytes up to the last
    newline advance the offset, so a torn trailing line (a writer's
    whole-object put racing the read on a non-atomic transport) is simply
    re-read on the next poll.

    The :class:`~repro.scenarios.store.StoreEventSink` contract is that an
    event object only ever *grows* (new sinks load the worker's last
    segment as their head) and is never written again once the worker's
    next segment exists, so a segment read after the listing showed its
    successor is not fetched again: a poll costs one ``list`` plus one
    ``get`` per worker.  If a live object does shrink — someone cleared
    the feed — the tailer starts it over from byte zero and re-emits it.
    """

    def __init__(self, store: ResultsStore) -> None:
        self.store = store
        self.offsets: dict = {}
        self._consumed: set = set()  # sealed segments read to their end

    def poll(self) -> list:
        """New complete events since the last poll, time-ordered."""
        fresh: dict = {}
        listing = self.store.event_segments()
        self._consumed.intersection_update(
            key for segments in listing.values() for key in segments.values()
        )
        for worker, segments in listing.items():
            live = max(segments)
            for segment, key in segments.items():
                if key in self._consumed:
                    continue
                try:
                    raw = self.store.backend.get(key)
                except FileNotFoundError:
                    continue  # deleted between list and get
                if segment < live:
                    self._consumed.add(key)  # its successor was listed before this read
                offset = self.offsets.get(key, 0)
                if len(raw) < offset:
                    offset = 0  # the object shrank: replay it from the start
                chunk = raw[offset:]
                cut = chunk.rfind(b"\n")
                self.offsets[key] = offset + cut + 1  # a torn tail waits for its newline
                fresh.setdefault(worker, []).extend(parse_event_lines(chunk[: cut + 1]))
        return self.store.merge_events(fresh)


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
    current state via :meth:`snapshot` (per-scenario dicts with ETA) or
    :meth:`status_lines` (formatted progress lines for the live tail).
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

    def status_lines(self, active_only: bool = False) -> list:
        """One formatted progress line per scenario, for the live tail."""
        return [
            format_progress_line(state)
            for state in (s for _, s in sorted(self._scenarios.items()))
            if not (active_only and state["status"] not in ("running", "converged"))
        ]


def format_progress_line(state: dict) -> str:
    """One progress line for a scenario state (board state or snapshot)."""
    bits = [f"{state.get('scenario', '?')}  {state.get('status', '?'):<9}"]
    if state.get("iteration"):
        cap = state.get("max_iterations")
        bits.append(f"iter {state['iteration']}{f'/{cap}' if cap else ''}")
    if isinstance(state.get("error"), (int, float)):
        bits.append(f"err {state['error']:.3e}")
    if state.get("points"):
        bits.append(f"{state['points']} pts")
    eta = state.get("eta") if "eta" in state else estimate_eta(state)
    if eta is not None and state.get("status") == "running":
        bits.append(f"ETA ~{eta['iterations_left']} iter / {eta['seconds_left']:.1f}s")
    if state.get("worker"):
        bits.append(f"@{state['worker']}")
    return "  ".join(bits)


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
    followed by a refreshed per-scenario progress block.  Runs until
    interrupted, or for ``max_polls`` cycles when given (tests, bounded
    smoke runs).
    Returns the total number of events streamed.
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
            for line in board.status_lines(active_only=True):
                out(f"  » {line}")
        polls += 1
        if max_polls is not None and polls >= max_polls:
            return streamed
        sleep(max(float(poll), 0.01))


# --------------------------------------------------------------------------- #
# run reports
# --------------------------------------------------------------------------- #
def _worker_spans(events: list) -> list:
    """Claim-to-outcome holding spans per worker, from the event feed.

    Each span is ``{worker, scenario, start, end, kind, outcome, open}``:
    ``kind`` is ``claim``/``steal``, ``outcome`` the event that ended the
    hold (``committed``/``released``/``abandoned``/``parked``), and open
    spans (still in flight when the feed was read) end at the feed's last
    timestamp.
    """
    spans = []
    open_spans: dict = {}
    last_ts = 0.0
    for event in events:
        ts = float(event.get("timestamp", 0.0))
        last_ts = max(last_ts, ts)
        worker = str(event.get("worker", ""))
        scenario = str(event.get("scenario", ""))
        kind = event.get("kind")
        hold_key = (worker, scenario)
        if kind in ("claimed", "stolen"):
            open_spans[hold_key] = {
                "worker": worker,
                "scenario": scenario,
                "start": ts,
                "end": ts,
                "kind": "steal" if kind == "stolen" else "claim",
                "outcome": None,
                "open": True,
            }
        elif kind in ("committed", "released", "abandoned", "parked"):
            span = open_spans.pop(hold_key, None)
            if span is not None:
                span.update(end=ts, outcome=kind, open=False)
                spans.append(span)
    for span in open_spans.values():
        span["end"] = max(last_ts, span["start"])
        spans.append(span)
    spans.sort(key=lambda s: (s["worker"], s["start"]))
    return spans


def _trace_from_spans(spans: list) -> tuple:
    """(TraceRecorder, worker-id list) joining the holding spans.

    The recorder's worker indices follow the returned list, so the
    report can quote :meth:`~repro.parallel.tracing.TraceRecorder.
    utilization` and per-worker busy time over the fleet drain.
    """
    workers = sorted({s["worker"] for s in spans})
    index = {w: i for i, w in enumerate(workers)}
    trace = TraceRecorder()
    t0 = min((s["start"] for s in spans), default=0.0)
    for span in spans:
        end = max(span["end"], span["start"])
        trace.record(index[span["worker"]], span["scenario"], span["start"] - t0, end - t0)
    return trace, workers


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


def gather_run_data(store: ResultsStore) -> dict:
    """Join entries, events, leases and parked state into one report model."""
    entries = store.entries()
    events = store.events()
    board = ProgressBoard()
    for event in events:
        board.update(event)
    spans = _worker_spans(events)
    trace, workers = _trace_from_spans(spans)
    counts = Counter(str(e.get("kind", "?")) for e in events)
    status_counts = Counter(e.get("status", "unknown") for e in entries)
    completed = [e for e in entries if e.get("status") == "completed"]
    slowest = sorted(
        completed, key=lambda e: float(e.get("wall_time", 0.0) or 0.0), reverse=True
    )
    return {
        "url": store.url,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "entries": entries,
        "status_counts": dict(status_counts),
        "event_counts": dict(counts),
        "events_total": len(events),
        "progress": board.snapshot(),
        "spans": spans,
        "workers": workers,
        "utilization": trace.utilization() if spans else None,
        "makespan": trace.makespan if spans else 0.0,
        "busy_time": {w: trace.busy_time(i) for i, w in enumerate(workers)},
        "steals": counts.get("stolen", 0),
        "retries": counts.get("retry", 0),
        "heartbeat_misses": counts.get("heartbeat-missed", 0),
        "healed": counts.get("healed", 0),
        "leases": store.leases(),
        "parked": store.parked(),
        "slowest": slowest[:10],
        "convergence": _convergence_series(store, entries, events),
    }


# --------------------------------------------------------------------------- #
# rendering helpers (no plotting dependencies: hand-rolled SVG + sparklines)
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
_OUTCOME_COLORS = {"abandoned": "#999999", "parked": "#c53030"}


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
        f"0s .. {tspan:.1f}s  (claim=blue, steal=orange, abandoned=grey, "
        "parked=red)</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


def _fmt_secs(value) -> str:
    return f"{float(value):.2f}" if isinstance(value, (int, float)) else "-"


def _fmt_ratio(num, den) -> str:
    return f"{num / den:.1f}" if num is not None and den else "-"


def _summary_rows(data: dict) -> list:
    statuses = sorted(data["status_counts"].items())
    rows = [
        ("store", data["url"]),
        ("generated", data["generated_at"]),
        ("entries", ", ".join(f"{n} {s}" for s, n in statuses) or "none"),
        ("events", str(data["events_total"])),
        ("workers seen", str(len(data["workers"]))),
        ("steals", str(data["steals"])),
        ("retries", str(data["retries"])),
        ("heartbeat misses", str(data["heartbeat_misses"])),
        ("leases healed", str(data["healed"])),
        ("live leases", str(len(data["leases"]))),
        ("parked scenarios", str(len(data["parked"]))),
    ]
    if data["utilization"] is not None:
        rows.append(("fleet utilization", f"{100.0 * data['utilization']:.0f}%"))
        rows.append(("drain makespan [s]", _fmt_secs(data["makespan"])))
    return rows


def _entry_rows(data: dict) -> list:
    rows = []
    for entry in data["entries"]:
        conv = {True: "yes", False: "no"}.get(entry.get("converged"), "-")
        rows.append(
            (
                entry.get("name", "?"),
                entry["spec_hash"][:12],
                entry.get("status", "?"),
                str(entry.get("iterations", "-")),
                conv,
                _fmt_secs(entry.get("wall_time")),
            )
        )
    return rows


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


def _progress_rows(data: dict) -> list:
    rows = []
    for scenario, record in data["progress"].items():
        eta = record.get("eta")
        eta_s = (
            f"~{eta['iterations_left']} iter / {eta['seconds_left']:.1f}s"
            if eta and record["status"] == "running"
            else "-"
        )
        err = record.get("error")
        solver = record.get("solver") or {}
        runs = solver.get("newton_runs")
        rows.append(
            (
                scenario,
                record["status"],
                str(record.get("iteration", 0)),
                f"{err:.3e}" if isinstance(err, (int, float)) else "-",
                str(record.get("points") or "-"),
                " / ".join(str(solver.get(name, "-")) for name in _SOLVER_COLUMNS),
                _fmt_ratio(runs, record.get("new_iterations")),
                _fmt_ratio(solver.get("residual_calls"), runs),
                eta_s,
                record.get("worker", "") or "-",
            )
        )
    return rows


def _md_table(headers: tuple, rows: list) -> list:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return lines


def render_markdown(data: dict) -> str:
    """The run report as GitHub-flavoured markdown (sparkline curves)."""
    lines = [f"# Scenario run report — `{data['url']}`", ""]
    lines += ["## Suite summary", ""]
    lines += _md_table(("metric", "value"), [(k, f"`{v}`") for k, v in _summary_rows(data)])
    lines += ["", "## Scenarios", ""]
    if data["entries"]:
        lines += _md_table(
            ("name", "hash", "status", "iters", "converged", "wall [s]"),
            _entry_rows(data),
        )
    else:
        lines.append("_no committed entries_")
    if data["progress"]:
        lines += ["", "## Solve progress (from the event feed)", ""]
        lines += _md_table(_PROGRESS_HEADERS, _progress_rows(data))
    if data["convergence"]:
        lines += ["", "## Convergence (log-scale error per iteration)", ""]
        rows = []
        for scenario, (label, pts) in sorted(data["convergence"].items()):
            errors = [e for _, e, _ in pts]
            final = errors[-1] if errors else float("nan")
            rows.append(
                (label, scenario, len(pts), f"{final:.3e}", _sparkline(errors))
            )
        lines += _md_table(("name", "scenario", "iters", "final error", "trajectory"), rows)
    if data["slowest"]:
        lines += ["", "## Slowest scenarios", ""]
        lines += _md_table(
            ("rank", "name", "hash", "wall [s]", "iters"),
            [
                (i + 1, e.get("name", "?"), e["spec_hash"][:12],
                 _fmt_secs(e.get("wall_time")), e.get("iterations", "-"))
                for i, e in enumerate(data["slowest"])
            ],
        )
    if data["spans"]:
        lines += ["", "## Fleet timeline", ""]
        for worker in data["workers"]:
            holds = [s for s in data["spans"] if s["worker"] == worker]
            busy = data["busy_time"].get(worker, 0.0)
            hold_bits = ", ".join(
                f"{s['kind']} {s['scenario']} ({s.get('outcome') or 'in flight'})"
                for s in holds
            )
            lines.append(f"- **{worker}** — {busy:.1f}s busy: {hold_bits}")
    if data["event_counts"]:
        lines += ["", "## Events by kind", ""]
        lines += _md_table(
            ("kind", "count"), sorted(data["event_counts"].items())
        )
    if data["parked"]:
        lines += ["", "## Parked scenarios", ""]
        for record in data["parked"]:
            lines.append(
                f"- `{record['scenario']}` after {record.get('attempts', '?')} "
                f"attempt(s): {record.get('error', '?')}"
            )
    failed = [e for e in data["entries"] if e.get("status") == "failed"]
    if failed:
        lines += ["", "## Failures", ""]
        for entry in failed:
            lines.append(
                f"- `{entry['spec_hash'][:12]}` {entry.get('name', '?')}: "
                f"{entry.get('error', '?')}"
            )
    lines.append("")
    return "\n".join(lines)


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


def _html_table(headers: tuple, rows: list, status_col: int | None = None) -> list:
    parts = ["<table><thead><tr>"]
    parts += [f"<th>{_html.escape(str(h))}</th>" for h in headers]
    parts.append("</tr></thead><tbody>")
    for row in rows:
        parts.append("<tr>")
        for col, cell in enumerate(row):
            cls = (
                f" class='status-{_html.escape(str(cell))}'"
                if status_col is not None and col == status_col
                else ""
            )
            parts.append(f"<td{cls}>{_html.escape(str(cell))}</td>")
        parts.append("</tr>")
    parts.append("</tbody></table>")
    return parts


def render_html(data: dict) -> str:
    """The run report as one self-contained HTML document.

    Everything is inline — styles in a ``<style>`` block, convergence
    curves and the fleet timeline as hand-rolled inline SVG — so the file
    opens anywhere (CI artifact browsers included) with no external
    fetches and no plotting dependencies.
    """
    parts = [
        "<!DOCTYPE html><html lang='en'><head><meta charset='utf-8'>",
        f"<title>Scenario run report — {_html.escape(data['url'])}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>Scenario run report — <code>{_html.escape(data['url'])}</code></h1>",
        f"<p>Generated {_html.escape(data['generated_at'])}</p>",
        "<h2>Suite summary</h2>",
    ]
    parts += _html_table(("metric", "value"), _summary_rows(data))
    parts.append("<h2>Scenarios</h2>")
    if data["entries"]:
        parts += _html_table(
            ("name", "hash", "status", "iters", "converged", "wall [s]"),
            _entry_rows(data),
            status_col=2,
        )
    else:
        parts.append("<p><em>no committed entries</em></p>")
    if data["progress"]:
        parts.append("<h2>Solve progress (from the event feed)</h2>")
        parts += _html_table(_PROGRESS_HEADERS, _progress_rows(data), status_col=1)
    if data["convergence"]:
        parts.append("<h2>Convergence (log-scale error per iteration)</h2>")
        for scenario, (label, pts) in sorted(data["convergence"].items()):
            tolerance = (data["progress"].get(scenario) or {}).get("tolerance")
            parts.append("<figure>")
            parts.append(_svg_convergence(pts, tolerance=tolerance))
            final = pts[-1][1] if pts else float("nan")
            parts.append(
                f"<figcaption><code>{_html.escape(scenario)}</code> "
                f"{_html.escape(str(label))} — {len(pts)} iteration(s), final "
                f"l∞ change {final:.3e}</figcaption></figure>"
            )
    if data["spans"]:
        parts.append("<h2>Fleet timeline</h2>")
        parts.append("<figure>")
        parts.append(_svg_timeline(data["spans"], data["workers"]))
        parts.append(
            "<figcaption>scenario holds per worker (hover a bar for the "
            "scenario hash and outcome)</figcaption></figure>"
        )
    if data["slowest"]:
        parts.append("<h2>Slowest scenarios</h2>")
        parts += _html_table(
            ("rank", "name", "hash", "wall [s]", "iters"),
            [
                (i + 1, e.get("name", "?"), e["spec_hash"][:12],
                 _fmt_secs(e.get("wall_time")), e.get("iterations", "-"))
                for i, e in enumerate(data["slowest"])
            ],
        )
    if data["event_counts"]:
        parts.append("<h2>Events by kind</h2>")
        parts += _html_table(("kind", "count"), sorted(data["event_counts"].items()))
    if data["parked"]:
        parts.append("<h2>Parked scenarios</h2><ul>")
        for record in data["parked"]:
            parts.append(
                f"<li><code>{_html.escape(record['scenario'])}</code> after "
                f"{record.get('attempts', '?')} attempt(s): "
                f"{_html.escape(str(record.get('error', '?')))}</li>"
            )
        parts.append("</ul>")
    failed = [e for e in data["entries"] if e.get("status") == "failed"]
    if failed:
        parts.append("<h2>Failures</h2>")
        for entry in failed:
            parts.append(
                f"<p><code>{_html.escape(entry['spec_hash'][:12])}</code> "
                f"{_html.escape(entry.get('name', '?'))}: "
                f"{_html.escape(str(entry.get('error', '?')))}</p>"
            )
            if entry.get("traceback"):
                parts.append(
                    f"<pre>{_html.escape(str(entry['traceback']))}</pre>"
                )
    parts.append("</body></html>")
    return "".join(parts)


def render_report(store: ResultsStore, fmt: str = "md") -> str:
    """Gather and render a run report (``fmt`` is ``"md"`` or ``"html"``)."""
    if fmt not in ("md", "html"):
        raise ValueError(f"unknown report format {fmt!r}; expected 'md' or 'html'")
    data = gather_run_data(store)
    return render_markdown(data) if fmt == "md" else render_html(data)


def progress_snapshot(store: ResultsStore) -> dict:
    """Per-scenario progress + event counts from a store's persisted feed.

    The machine-readable shape ``status --json`` embeds, so dashboards
    get the latest iteration/error/ETA per scenario without re-parsing
    raw JSONL themselves.
    """
    logs = store.event_logs()
    events = store.merge_events({worker: log["events"] for worker, log in logs.items()})
    board = ProgressBoard()
    for event in events:
        board.update(event)
    return {
        "progress": board.snapshot(),
        "event_counts": dict(Counter(str(e.get("kind", "?")) for e in events)),
        "events_total": len(events),
        "event_logs": {
            worker: {"segments": log["segments"], "bytes": log["bytes"]}
            for worker, log in logs.items()
        },
    }

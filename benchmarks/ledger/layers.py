"""Which public callables the ledger wraps, and the per-layer metrics read off the spans.

A layer is a module of ``src/repro``.  :func:`install` wraps the layer
boundaries listed in README.md; :func:`per_layer_metrics` turns the
recorded spans into the ``per_layer`` names of ``BENCHMARK.json``.  Counts
(calls, rows, backend operations, iterations) repeat exactly from run to
run with one client; times do not.
"""

from __future__ import annotations

import re
from typing import Any

from tracer import Tracer

LAYERS = (
    "core.kernels",
    "grids.interpolation",
    "grids.hierarchize",
    "olg.model",
    "olg.stacked",
    "olg.solver",
    "olg.solver.polish",
    "core.time_iteration",
    "core.batched",
    "scenarios.runner",
    "scenarios.serialize",
    "scenarios.checkpoint",
    "scenarios.store",
    "scenarios.lease",
    "scenarios.backends",
    "parallel.tracing",
)

#: layers whose self time is system wrapper, not numerics
OVERHEAD_LAYERS = tuple(name for name in LAYERS if name.startswith("scenarios.")) + (
    "parallel.tracing",
)

_CHECKPOINT_KEY = re.compile(r"/checkpoint(?:-\d+)?\.npz$")
_RESULT_KEY = re.compile(r"/(result\.npz|payload\.json)$")


# --------------------------------------------------------------------------- #
# observers: counts read off arguments and results (never the clock)
# --------------------------------------------------------------------------- #
def _rows(X: Any) -> int:
    shape = getattr(X, "shape", None)
    if shape is None:
        return len(X)
    return 1 if len(shape) < 2 else int(shape[0])


def _call_points(args: tuple, kwargs: dict, result: Any) -> int:
    return _rows(args[1] if len(args) > 1 else kwargs["X"])


def _stacked_points(args: tuple, kwargs: dict, result: Any) -> int:
    blocks = args[1] if len(args) > 1 else kwargs["Xs"]
    return sum(_rows(block) for block in blocks)


def _point_solve(args: tuple, kwargs: dict, result: Any) -> tuple | None:
    if result is None:
        return None
    return (1, 0, int(result.iterations), int(result.residual_evaluations))


def _batch_solve(args: tuple, kwargs: dict, result: Any) -> tuple | None:
    if result is None:
        return None
    rows = int(result.converged.size)
    stalled = rows - int(result.converged.sum())
    return (rows, stalled, int(result.iterations), int(result.residual_evaluations))


def _batched_outcomes(args: tuple, kwargs: dict, result: Any) -> tuple | None:
    if result is None:
        return None
    outcomes = list(result.values())
    iterations = sum(o.result.iterations for o in outcomes if o.result is not None)
    return (iterations, sum(1 for o in outcomes if o.fallback))


def _all_skipped(args: tuple, kwargs: dict, result: Any) -> bool:
    return result is not None and result.count("skipped") == len(result.outcomes)


def _scenario_of_spec(args: tuple, kwargs: dict, result: Any) -> str:
    spec = args[0] if args else kwargs["spec"]
    return spec.content_hash()[:16]


def _scenario_kwarg(args: tuple, kwargs: dict, result: Any) -> str:
    return str(kwargs.get("scenario", ""))


def _backend_op(op: str):
    def observe(args: tuple, kwargs: dict, result: Any) -> tuple:
        key = args[1] if len(args) > 1 else kwargs.get("key", kwargs.get("prefix", ""))
        if op == "put":
            size = len(args[2] if len(args) > 2 else kwargs["data"])
        elif op == "get":
            size = len(result) if result is not None else 0
        else:
            size = 0
        return (op, key if isinstance(key, str) else "", size)

    return observe


# --------------------------------------------------------------------------- #
# installation
# --------------------------------------------------------------------------- #
def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; ``tracer.restore()`` undoes all of it."""
    import importlib

    import scipy.optimize

    from repro.core import batched, kernels, time_iteration
    from repro.grids import interpolation
    from repro.olg import model, solver, stacked
    from repro.parallel import tracing
    from repro.scenarios import batching, checkpoint, lease, runner, serialize, store
    from repro.scenarios.backends import LocalFSBackend, MemoryBackend

    fn, meth = tracer.patch_function, tracer.patch_method

    fn("core.kernels", kernels, "basis_matrix")
    fn("core.kernels", kernels, "evaluate")

    meth("grids.interpolation", interpolation.SparseGridInterpolant, "__call__", _call_points)
    fn("grids.interpolation", interpolation, "evaluate_stacked", _stacked_points)
    meth("grids.interpolation", interpolation.SparseGridInterpolant, "fit_values")

    # repro.grids re-exports the function under the submodule's own name
    fn("grids.hierarchize", importlib.import_module("repro.grids.hierarchize"), "hierarchize")

    for name in (
        "euler_residuals",
        "euler_residuals_batch",
        "value_functions",
        "value_functions_batch",
        "solve_point",
        "solve_points_batch",
        "initial_policy_values",
    ):
        meth("olg.model", model.OLGModel, name)
    for name in ("euler_residuals_rows", "value_functions_rows", "solve_points"):
        meth("olg.stacked", stacked.StackedOLGGroup, name)

    meth("olg.solver", solver.NewtonSolver, "solve", _point_solve)
    meth("olg.solver", solver.BatchNewtonSolver, "solve", _batch_solve)
    # repro.olg.solver reaches scipy as ``optimize.root``: the module attribute
    fn("olg.solver.polish", scipy.optimize, "root")

    meth("core.time_iteration", time_iteration.TimeIterationSolver, "solve", _scenario_kwarg)
    meth("core.time_iteration", time_iteration.TimeIterationSolver, "step")
    meth("core.batched", batched.BatchedTimeIterationSolver, "solve", _batched_outcomes)

    fn("scenarios.runner", runner, "run_suite", _all_skipped)
    fn("scenarios.runner", runner, "solve_and_commit", _scenario_of_spec)
    fn("scenarios.runner", batching, "solve_batch_and_commit")

    for name in ("save_result", "load_result", "save_policy_set", "load_policy_set"):
        fn("scenarios.serialize", serialize, name)
    for name in ("load", "on_iteration", "on_complete", "delete"):
        meth("scenarios.checkpoint", checkpoint.SolveCheckpoint, name)

    for name in (
        "save_spec",
        "write_result",
        "write_payload",
        "commit_entry",
        "index_records",
        "query",
        "entries",
        "wall_times",
        "load_payload",
        "compact",
    ):
        meth("scenarios.store", store.ResultsStore, name)
    meth("scenarios.store", store.StoreEventSink, "__call__")
    meth("scenarios.store", store.StoreEventSink, "flush")

    for name in ("try_claim", "renew", "release"):
        meth("scenarios.lease", lease.LeaseManager, name)
    meth("scenarios.lease", lease.LeaseHeartbeat, "start")
    meth("scenarios.lease", lease.LeaseHeartbeat, "stop")
    fn("scenarios.lease", lease, "run_worker")

    # the runner's tasks reopen the store by URL, so counting has to sit on
    # the backend classes; a delegating instance handed to ResultsStore
    # would miss every operation of a batched sweep
    for backend in (LocalFSBackend, MemoryBackend):
        for op in ("get", "put", "list", "exists", "delete", "mtime", "append_commit"):
            meth("scenarios.backends", backend, op, _backend_op(op))
        for op in ("commit_records", "commit_log_tail_count", "compact"):
            meth("scenarios.backends", backend, op)

    meth("parallel.tracing", tracing.EventRecorder, "emit")


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
def _p(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer,
    traced_wall: float,
    untraced_wall: float,
    units: int,
    unit_gaps_s: list[float],
    euler_err: float,
) -> dict[str, float]:
    """Every ``per_layer`` value; 0 where the workload never enters a layer."""
    targets = tracer.targets
    spans = tracer.all_spans()
    # spans by the last two parts of the wrapped name: "ResultsStore.query"
    short = [".".join(name.split(".")[-2:]) for _layer, name in targets]
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(short[span[0]], []).append(span)

    def named(short: str) -> list:
        return by_name.get(short, [])

    def durations_ms(short: str) -> list[float]:
        return [(s[2] - s[1]) * 1e3 for s in named(short)]

    out: dict[str, float] = {}
    layer_calls = {layer: 0 for layer in LAYERS}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for target, (calls, self_s) in tracer.self_times().items():
        layer = targets[target][0]
        layer_calls[layer] += calls
        layer_self[layer] += self_s
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.calls"] = layer_calls[layer]

    evaluations = named("SparseGridInterpolant.__call__") + named("interpolation.evaluate_stacked")
    points = sum(s[4] for s in evaluations if s[4] is not None)
    out["grids.interpolation.points"] = points
    out["grids.interpolation.points_per_call"] = _ratio(points, len(evaluations))

    point_solves = [s[4] for s in named("NewtonSolver.solve") if s[4] is not None]
    batch_solves = [s[4] for s in named("BatchNewtonSolver.solve") if s[4] is not None]
    solves = point_solves + batch_solves
    rows = sum(n[0] for n in batch_solves)
    polish = named("optimize.root")
    out["olg.solver.point_solves"] = len(point_solves)
    out["olg.solver.rows"] = rows
    out["olg.solver.stalled_rows"] = sum(n[1] for n in batch_solves)
    out["olg.solver.stall_share"] = _ratio(len(polish), len(point_solves) + rows)
    out["olg.solver.residual_evals_per_solve"] = _ratio(sum(n[3] for n in solves), len(solves))
    out["olg.solver.newton_iters_p50"] = _p([float(n[2]) for n in solves], 0.5)
    out["olg.solver.polish_share"] = _ratio(sum(s[2] - s[1] for s in polish), traced_wall)

    steps = [s[2] - s[1] for s in named("TimeIterationSolver.step")]
    out["core.time_iteration.iterations"] = len(steps)
    out["core.time_iteration.step_p50_s"] = _p(steps, 0.5)
    batched = [s[4] for s in named("BatchedTimeIterationSolver.solve") if s[4] is not None]
    out["core.batched.iterations"] = sum(n[0] for n in batched)
    out["core.batched.fallback_members"] = sum(n[1] for n in batched)

    out["scenarios.overhead_share"] = _ratio(
        sum(layer_self[layer] for layer in OVERHEAD_LAYERS), traced_wall
    )

    ops: dict[str, int] = {}
    put_bytes = get_bytes = result_bytes = checkpoint_writes = 0
    result_sizes: list[int] = []
    for span in spans:
        if targets[span[0]][0] != "scenarios.backends" or span[4] is None:
            continue
        op, key, size = span[4]
        ops[op] = ops.get(op, 0) + 1
        if op == "get":
            get_bytes += size
        elif op == "put":
            put_bytes += size
            if _CHECKPOINT_KEY.search(key):
                checkpoint_writes += 1
            elif _RESULT_KEY.search(key):
                result_bytes += size
                if key.endswith("result.npz"):
                    result_sizes.append(size)
    out["scenarios.serialize.result_kib"] = _ratio(sum(result_sizes), len(result_sizes)) / 1024
    out["scenarios.checkpoint.writes"] = checkpoint_writes

    out["scenarios.store.commit_p50_ms"] = _p(durations_ms("ResultsStore.commit_entry"), 0.5)
    out["scenarios.store.commit_p99_ms"] = _p(durations_ms("ResultsStore.commit_entry"), 0.99)
    out["scenarios.store.query_p50_ms"] = _p(durations_ms("ResultsStore.query"), 0.5)
    out["scenarios.store.skip_scan_p50_ms"] = _p(
        [(s[2] - s[1]) * 1e3 for s in named("runner.run_suite") if s[4]], 0.5
    )
    out["scenarios.store.index_records_p50_ms"] = _p(
        durations_ms("ResultsStore.index_records"), 0.5
    )
    out["scenarios.store.load_payload_p50_ms"] = _p(durations_ms("ResultsStore.load_payload"), 0.5)

    out["scenarios.lease.claim_p50_ms"] = _p(durations_ms("LeaseManager.try_claim"), 0.5)
    out["scenarios.lease.unit_p50_ms"] = _p([g * 1e3 for g in unit_gaps_s], 0.5)
    out["scenarios.lease.unit_p99_ms"] = _p([g * 1e3 for g in unit_gaps_s], 0.99)

    for op in ("put", "get", "list", "exists", "delete", "mtime", "append_commit"):
        out[f"scenarios.backends.{op}_calls"] = ops.get(op, 0)
    out["scenarios.backends.put_kib"] = put_bytes / 1024
    out["scenarios.backends.get_kib"] = get_bytes / 1024
    out["scenarios.backends.ops_per_unit"] = _ratio(sum(ops.values()), units)
    out["scenarios.backends.write_amp"] = _ratio(put_bytes, result_bytes)

    main = tracer.main_spans()
    covered = sum(s[2] - s[1] for s in main if s is not None and s[3] < 0)
    out["trace.overhead_share"] = _ratio(traced_wall, untraced_wall) - 1.0
    out["trace.unattributed_share"] = max(0.0, 1.0 - _ratio(covered, traced_wall))
    out["olg.euler_err_mean_log10"] = euler_err
    return out


def share_report(values: dict[str, float], traced_wall: float) -> list[str]:
    """Human-readable table: per layer calls, self seconds, share of wall."""
    lines = [f"{'layer':<24} {'calls':>10} {'self_s':>10} {'share':>7}"]
    for layer in LAYERS:
        self_s = values[f"{layer}.self_s"]
        lines.append(
            f"{layer:<24} {int(values[f'{layer}.calls']):>10} {self_s:>10.4f} "
            f"{100 * _ratio(self_s, traced_wall):>6.1f}%"
        )
    return lines

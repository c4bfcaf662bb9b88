"""The layered perf ledger: run a workload, check its outputs, print every metric.

    python3 benchmarks/ledger/run.py --workload NAME [--seed S] [--seconds N] [--trace 0|1]
    python3 benchmarks/ledger/run.py --all [--traced] [--out DIR]

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at the
root of the checkout; this harness refuses to print a result that does not
carry exactly those names.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of an untraced run (``--trace 0``), or the per-layer metrics of a
traced one (``--trace 1``).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: knobs of the program that would change what is measured; cleared, then the
#: effective values are written into every output
CLEARED_ENV = (
    "REPRO_STORE_AUTO_COMPACT_TAIL",
    "REPRO_LEASE_TTL",
    "REPRO_STORE_RETRIES",
    "REPRO_STORE_RETRY_BASE",
    "REPRO_FULL_BENCH",
)
SETUP_ROUNDS = 3
MIN_REPEATS = 2


def load_definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def prepare_process() -> None:
    """Pin the process to one core and BLAS to one thread, clear the program's env knobs.

    One core, because the lease heartbeat is a thread started and joined
    per unit: left free to wake on the other core, a 200-unit drain took
    0.40 s (quartile spread 0.25, up to 0.93 s) against 0.32 s (0.16, up
    to 0.48 s) pinned, in alternation on the same noisy machine.  Also
    puts the checkout on the import path.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in BLAS_PINS:
        os.environ[var] = "1"
    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    WORK.mkdir(exist_ok=True)
    for entry in (str(ROOT / "src"), str(HERE)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def import_program() -> None:
    """Import the scenario stack (scipy comes with it) from this checkout."""
    try:
        import repro
    except ModuleNotFoundError as exc:
        raise SystemExit(f"nothing to measure: {exc} (looked in {ROOT / 'src'})") from None
    import workloads  # noqa: F401 -- pulls in the solver, the store and the lease layer

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"imported repro from {repro.__file__}, not from this checkout")


def environment() -> dict:
    """Where and under which settings this run was measured."""
    import numpy
    import scipy

    from repro.scenarios.backends import retry
    from repro.scenarios.lease import default_ttl
    from repro.scenarios.store import ResultsStore

    fs_type = "unknown"
    best = ""
    for line in Path("/proc/mounts").read_text().splitlines():
        _dev, mount, kind = line.split()[:3]
        if str(WORK).startswith(mount) and len(mount) > len(best):
            best, fs_type = mount, kind
    with tempfile.TemporaryDirectory(dir=WORK) as probe:
        auto_compact_tail = ResultsStore(probe).auto_compact_tail
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "filesystem": fs_type,
        "blas_threads": {var: os.environ[var] for var in BLAS_PINS},
        "store_flush_policy": "the store's defaults (atomic rename puts, O_APPEND log, no fsync)",
        "auto_compact_tail": auto_compact_tail,
        "lease_ttl_s": default_ttl(),
        "store_retries": retry.DEFAULT_RETRIES,
        "store_retry_base_s": retry.DEFAULT_RETRY_BASE,
    }


def measure(args: argparse.Namespace, tmp: Path) -> tuple[Any, dict]:
    """Untraced run: import, set up several times, repeat the timed section, verify each.

    Every section is timed at reference speed (see calibrate.py); numpy is
    imported before the clock starts because the speedometer needs it.
    The smoke scale does one set-up and one repeat.
    """
    from calibrate import Speedometer
    from compare import quartiles

    smoke = args.scale == "smoke"
    seconds = 0.0 if smoke else args.seconds
    raw: dict[str, list[float]] = {"import": [], "setup": [], "wall": []}
    at_reference: dict[str, list[float]] = {"import": [], "setup": [], "wall": []}
    with Speedometer() as speed:

        def timed(kind: str, section: Callable[[], Any]) -> Any:
            result, seconds, reference_seconds = speed.timed(section)
            raw[kind].append(seconds)
            at_reference[kind].append(reference_seconds)
            return result

        timed("import", import_program)
        from workloads import WORKLOADS, store_bytes

        workload = WORKLOADS[args.workload](args.seed, smoke)
        for i in range(1 if smoke else SETUP_ROUNDS):
            timed("setup", lambda: workload.setup(tmp / f"setup-{i}"))
        attempted = failed = 0
        notes: list[str] = []
        euler_err = 0.0
        walls = raw["wall"]
        while len(walls) < (1 if smoke else MIN_REPEATS) or sum(walls) < seconds:
            store = timed("wall", lambda: workload.run(tmp / f"run-{len(walls)}"))
            check = workload.verify(store)
            if len(walls) == 1:
                euler_err = check.euler_err
            attempted += check.attempted
            failed += check.failed
            notes += check.notes
        kib_per_unit = store_bytes(store) / 1024 / workload.store_units
    return workload, {
        "attempted": attempted,
        "failed": failed,
        "notes": notes[:20],
        "raw_walls_s": walls,
        "raw_wall_quartiles_s": quartiles(walls),
        "raw_setups_s": raw["setup"],
        "raw_import_s": raw["import"][0],
        "bursts": len(speed.bursts),
        "slowdown": speed.slowdown(),
        "euler_err_mean_log10": euler_err,
        "metrics": {
            "setup_s": at_reference["import"][0] + statistics.median(at_reference["setup"]),
            "wall_s": statistics.median(at_reference["wall"]),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "store_kib_per_unit": kib_per_unit,
        },
    }


def trace(args: argparse.Namespace, tmp: Path) -> tuple[Any, dict]:
    """One untraced and one traced repeat; per-layer metrics from the spans and micro.py."""
    import_program()
    import layers
    import micro
    from tracer import Tracer
    from workloads import WORKLOADS

    smoke = args.scale == "smoke"
    workload = WORKLOADS[args.workload](args.seed, smoke)
    workload.setup(tmp / "setup-0")
    start = time.perf_counter()
    store = workload.run(tmp / "run-plain")
    untraced_wall = time.perf_counter() - start
    check = workload.verify(store)

    done_at: list[float] = []

    def progress(line: str) -> None:
        if line.startswith("done"):
            done_at.append(time.perf_counter())

    tracer = Tracer()
    try:
        layers.install(tracer)
        start = time.perf_counter()
        store = workload.run(tmp / "run-traced", progress)
        traced_wall = time.perf_counter() - start
    finally:
        tracer.restore()
    traced_check = workload.verify(store)
    gaps = [b - a for a, b in zip(done_at, done_at[1:])]
    metrics = layers.per_layer_metrics(
        tracer, traced_wall, untraced_wall, workload.units, gaps, check.euler_err
    )
    if args.out is not None:
        tracer.save(args.out / f"{workload.name}.spans.npz")
    del tracer  # the spans are tens of MB; free them before timing anything else
    metrics.update(micro.metrics(tmp, smoke))
    return workload, {
        "attempted": check.attempted + traced_check.attempted,
        "failed": check.failed + traced_check.failed,
        "notes": (check.notes + traced_check.notes)[:20],
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "span_report": layers.share_report(metrics, traced_wall),
        "metrics": metrics,
    }


def with_units(values: dict, definitions: list[dict]) -> dict:
    """``name -> {value, unit}`` for exactly the defined names."""
    missing = [d["name"] for d in definitions if d["name"] not in values]
    unknown = sorted(set(values) - {d["name"] for d in definitions})
    if missing or unknown:
        raise SystemExit(f"metrics out of step with BENCHMARK.json: {missing=} {unknown=}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in definitions}


def run_one(args: argparse.Namespace, definition: dict) -> int:
    prepare_process()
    load, cores = os.getloadavg()[0], os.cpu_count() or 1
    if load > cores:
        # a warning, not a refusal: the benchmark driver counts a run that
        # prints no result as a failure and has no way to force one
        print(
            f"warning: load average {load:.2f} exceeds {cores} cores; "
            "the timings will partly measure the neighbours",
            file=sys.stderr,
        )
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=WORK) as tmp:
        if args.trace:
            workload, result = trace(args, Path(tmp))
            metrics = with_units(result.pop("metrics"), definition["per_layer"])
        else:
            workload, result = measure(args, Path(tmp))
            metrics = with_units(result.pop("metrics"), definition["end_to_end"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "traced": bool(args.trace),
        "units": workload.units,
        "inputs": workload.inputs(),
        "environment": environment(),
        **result,
        "failed_share": result["failed"] / result["attempted"],
        "metrics": metrics,
    }
    print_report(record)
    if args.out is not None:
        kind = "traced" if args.trace else "run"
        taken = len(list(args.out.glob(f"{args.workload}.{kind}*.json")))
        (args.out / f"{args.workload}.{kind}{taken}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n"
        )
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if record["failed"] == 0 else 1


def print_report(record: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} scale={record['scale']} ==")
    env = record["environment"]
    print(
        f"nproc={env['nproc']} load={env['loadavg']:.2f} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} fs={env['filesystem']} blas=1 thread"
    )
    if record["traced"]:
        print(f"untraced {record['untraced_wall_s']:.3f}s, traced {record['traced_wall_s']:.3f}s")
        print("\n".join(record["span_report"]))
    else:
        walls = record["raw_walls_s"]
        q1, q2, q3 = record["raw_wall_quartiles_s"]
        print(
            f"raw wall seconds n={len(walls)} min={min(walls):.4f} q1={q1:.4f} "
            f"median={q2:.4f} q3={q3:.4f}; machine slowdown {record['slowdown']:.3f} "
            f"over {record['bursts']} bursts"
        )
        print(f"euler_err_mean_log10 {record['euler_err_mean_log10']:.4f} (0 = no solver ran)")
    for name, metric in record["metrics"].items():
        print(f"{name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(
        f"failed_share {record['failed_share']:.6f} "
        f"({record['failed']} of {record['attempted']} checks)"
    )
    for note in record["notes"]:
        print(f"  FAILED: {note}")


def run_all(args: argparse.Namespace, definition: dict) -> int:
    """Each workload in its own process, so peak memory is that workload's own."""
    worst = 0
    base = [sys.executable, str(Path(__file__).resolve()), "--seed", str(args.seed)]
    base += ["--seconds", str(args.seconds), "--scale", args.scale]
    if args.out is not None:
        base += ["--out", str(args.out)]
    for workload in definition["workloads"]:
        for traced in (0, 1) if args.trace else (0,):
            cmd = base + ["--workload", workload["name"], "--trace", str(traced)]
            worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    definition = load_definition()
    names = [w["name"] for w in definition["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=names)
    which.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=20180521)
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, help="directory for the full JSON records")
    args = parser.parse_args(argv)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    return run_all(args, definition) if args.all else run_one(args, definition)


if __name__ == "__main__":
    sys.exit(main())

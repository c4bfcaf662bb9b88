"""Isolated layer timings at three problem sizes; part of every traced run.

    python3 benchmarks/ledger/micro.py        # on their own, ~10 s

These say whether a change seen in the spans is the layer or its caller:
each number is the median of 30 calls of one public entry point on fixed
inputs, outside any solve.  Sizes are ``g<generations>z<shock states>l<grid
level>``; the policy evaluated is the initial policy after one
time-iteration step.  They do not depend on the workload or the seed.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIZES = {"g4z1l2": (4, 1, 2), "g5z2l2": (5, 2, 2), "g5z2l3": (5, 2, 3)}
DRAIN_UNITS = 100


def median_seconds(fn, calls: int) -> float:
    fn()  # warm: caches, lazy imports
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def size_metrics(
    tag: str, generations: int, states: int, level: int, calls: int, iterations: int
) -> dict[str, float]:
    import numpy as np

    from repro.core.batched import BatchedTimeIterationSolver, BatchMember
    from repro.core.compression import compressed_for
    from repro.core.kernels import basis_matrix
    from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver
    from repro.olg.calibration import small_calibration
    from repro.olg.model import OLGModel

    model = OLGModel(small_calibration(num_generations=generations, num_states=states))
    config = TimeIterationConfig(grid_level=level, tolerance=1e-12, max_iterations=iterations)
    solver = TimeIterationSolver(model, config)
    policy = solver.step(solver.initial_policy())
    interp = policy[0].interpolant
    grid = interp.grid
    comp = compressed_for(grid)
    unit = grid.points
    X = model.domain.from_unit(unit)
    n = X.shape[0]
    ns = model.num_savers
    nodal = policy[0].nodal_values
    savings = np.maximum(nodal[:, :ns], 1e-8)
    x, s = X[n // 2], savings[n // 2]
    group = OLGModel.stacked_group([model, model], [n, n])
    rows = np.arange(2 * n)
    X2, savings2 = np.concatenate([X, X]), np.concatenate([savings, savings])

    def timed(fn) -> float:
        return median_seconds(fn, calls)

    us = 1e6
    out = {
        f"core.kernels.basis_1pt_us.{tag}": us * timed(lambda: basis_matrix(comp, unit[:1])),
        f"core.kernels.basis_grid_us.{tag}": us * timed(lambda: basis_matrix(comp, unit)),
        f"grids.interpolation.call_1pt_us.{tag}": us * timed(lambda: interp(x)),
        f"grids.interpolation.call_grid_us_per_pt.{tag}": us * timed(lambda: interp(X)) / n,
        f"grids.hierarchize.fit_us.{tag}": us * timed(lambda: interp.fit_values(nodal)),
        f"olg.model.residual_scalar_us.{tag}": us
        * timed(lambda: model.euler_residuals(0, x, s, policy)),
        f"olg.model.residual_batch_us_per_row.{tag}": us
        * timed(lambda: model.euler_residuals_batch(0, X, savings, policy))
        / n,
        f"olg.stacked.residual_rows_us_per_row.{tag}": us
        * timed(lambda: group.euler_residuals_rows(0, rows, X2, savings2, [policy, policy]))
        / (2 * n),
        f"olg.model.solve_point_ms.{tag}": 1e3
        * timed(lambda: model.solve_point(0, x, policy, nodal[n // 2])),
    }
    start = time.perf_counter()
    TimeIterationSolver(model, config).solve()
    sequential = time.perf_counter() - start
    start = time.perf_counter()
    BatchedTimeIterationSolver([BatchMember(key="one", model=model, config=config)]).solve()
    batched = time.perf_counter() - start
    out[f"core.batched.one_member_speedup.{tag}"] = sequential / batched
    return out


def commit_metrics(tmp: Path) -> dict[str, float]:
    """Wall per unit of a 100-unit micro drain on each storage backend."""
    import numpy as np

    from repro import scenarios
    from workloads import WORKER_ID, _micro_specs

    specs = _micro_specs(DRAIN_UNITS, np.random.default_rng(0))
    urls = {
        "file": f"file://{tmp / 'file'}",
        "mem": "mem://ledger-micro",
        # a directory endpoint selects the bundled in-process fake server
        "s3": f"s3://ledger/micro?endpoint={tmp / 's3'}",
    }
    out = {}
    for scheme, url in urls.items():
        store = scenarios.ResultsStore.open(url)
        start = time.perf_counter()
        report = scenarios.run_worker(specs, store, worker_id=WORKER_ID)
        wall = time.perf_counter() - start
        if len(report.completed) != DRAIN_UNITS:
            raise SystemExit(f"{scheme}: drained {len(report.completed)} of {DRAIN_UNITS} units")
        out[f"scenarios.backends.commit_ms.{scheme}"] = 1e3 * wall / DRAIN_UNITS
    scenarios.MemoryBackend.drop("ledger-micro")
    return out


def metrics(tmp: Path, smoke: bool = False) -> dict[str, float]:
    """Every micro metric; ``smoke`` cuts calls and iterations to finish in ~2 s."""
    calls, iterations = (3, 1) if smoke else (30, 4)
    out: dict[str, float] = {}
    for tag, size in SIZES.items():
        out.update(size_metrics(tag, *size, calls, iterations))
    out.update(commit_metrics(tmp))
    return out


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run

    run.prepare_process()
    with tempfile.TemporaryDirectory(prefix="micro-", dir=run.WORK) as tmp:
        for name, value in metrics(Path(tmp)).items():
            print(f"{name:<52} {value:>12.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

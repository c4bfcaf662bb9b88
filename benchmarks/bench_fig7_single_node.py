"""Fig. 7 benchmark — single-node performance of one OLG time step.

Times the point solves of one time-iteration step of a scaled-down OLG
economy (every grid point of every shock state, one ``solve_point`` each)
through the serial executor and the work-stealing scheduler, and records
the modeled Piz Daint / Grand Tave node speedups (25x / 96x anchors of
Sec. V-B) in the benchmark ``extra_info``.
"""

from __future__ import annotations

import pytest

from repro.core.time_iteration import solve_points
from repro.experiments.fig7 import PAPER_FIG7, run_fig7, step_rows
from repro.olg.calibration import small_calibration
from repro.olg.model import OLGModel
from repro.parallel.executor import SerialExecutor
from repro.parallel.scheduler import WorkStealingScheduler


@pytest.fixture(scope="module")
def olg_step_setup():
    model = OLGModel(small_calibration(num_generations=6, num_states=4, beta=0.8))
    return model, step_rows(model, grid_level=2)


@pytest.mark.benchmark(group="fig7-single-node-step")
def bench_time_step_serial(benchmark, olg_step_setup):
    """The point solves of one time step, one host thread (the Fig. 7 baseline)."""
    model, (z, rows, policy) = olg_step_setup
    # explicit executor: one solve_point per grid point, like the threaded bar
    args = (model, z, rows, policy, None, SerialExecutor())
    benchmark.pedantic(solve_points, args=args, rounds=2, iterations=1)
    benchmark.extra_info["total_points"] = len(rows)
    benchmark.extra_info["paper_baseline_seconds"] = PAPER_FIG7[
        "piz_daint_single_thread_seconds"
    ]


@pytest.mark.benchmark(group="fig7-single-node-step")
def bench_time_step_work_stealing(benchmark, olg_step_setup):
    """The same point solves on the TBB-like work-stealing scheduler (4 workers).

    Because the per-point solves are pure-Python/GIL bound, the measured
    speedup on the host is modest; the hardware-model anchors are recorded
    by :func:`bench_fig7_harness` below.
    """
    model, (z, rows, policy) = olg_step_setup
    args = (model, z, rows, policy, None, WorkStealingScheduler(4))
    benchmark.pedantic(solve_points, args=args, rounds=2, iterations=1)
    benchmark.extra_info["total_points"] = len(rows)


@pytest.mark.benchmark(group="fig7-node-models")
def bench_fig7_harness(benchmark):
    """The full Fig. 7 harness: measured host variants + modeled node speedups."""
    result = benchmark.pedantic(
        run_fig7,
        kwargs={"num_generations": 6, "num_states": 4, "num_threads": 4},
        rounds=1,
        iterations=1,
    )
    for variant in result.variants:
        key = variant.name.replace(" ", "_").replace(":", "").replace("/", "_")
        benchmark.extra_info[f"speedup[{key}]"] = round(variant.speedup, 2)
    gpu = [v for v in result.variants if "CPU + GPU" in v.name][0]
    knl = [v for v in result.variants if "grand tave: KNL" in v.name][0]
    assert gpu.speedup == pytest.approx(PAPER_FIG7["piz_daint_node_speedup"], rel=0.1)
    assert knl.speedup == pytest.approx(
        PAPER_FIG7["grand_tave_node_speedup_own_thread"], rel=0.1
    )

"""Fig. 7 benchmark — single-node performance of one OLG time step.

Times one time-iteration step of a scaled-down OLG economy with the serial
executor and with the work-stealing scheduler, and records the modeled
Piz Daint / Grand Tave node speedups (25x / 96x anchors of Sec. V-B) in the
benchmark ``extra_info``.
"""

from __future__ import annotations

import pytest

from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver
from repro.experiments.fig7 import PAPER_FIG7, run_fig7
from repro.olg.calibration import small_calibration
from repro.olg.model import OLGModel
from repro.parallel.executor import SerialExecutor
from repro.parallel.scheduler import WorkStealingScheduler


@pytest.fixture(scope="module")
def olg_step_setup():
    cal = small_calibration(num_generations=6, num_states=4, beta=0.8)
    model = OLGModel(cal)
    config = TimeIterationConfig(grid_level=2, max_iterations=1)
    solver = TimeIterationSolver(model, config)
    initial = solver.initial_policy()
    return model, config, initial


@pytest.mark.benchmark(group="fig7-single-node-step")
def bench_time_step_serial(benchmark, olg_step_setup):
    """One time step of the OLG model, one host thread (the Fig. 7 baseline)."""
    model, config, initial = olg_step_setup
    # explicit executor: one solve_point per grid point, like the threaded bar
    solver = TimeIterationSolver(model, config, executor=SerialExecutor())
    policy = benchmark.pedantic(solver.step, args=(initial,), rounds=2, iterations=1)
    benchmark.extra_info["total_points"] = policy.total_points
    benchmark.extra_info["paper_baseline_seconds"] = PAPER_FIG7[
        "piz_daint_single_thread_seconds"
    ]


@pytest.mark.benchmark(group="fig7-single-node-step")
def bench_time_step_work_stealing(benchmark, olg_step_setup):
    """One time step with the TBB-like work-stealing scheduler (4 workers).

    Because the per-point solves are pure-Python/GIL bound, the measured
    speedup on the host is modest; the hardware-model anchors are recorded
    by :func:`bench_fig7_harness` below.
    """
    model, config, initial = olg_step_setup
    solver = TimeIterationSolver(model, config, executor=WorkStealingScheduler(4))
    policy = benchmark.pedantic(solver.step, args=(initial,), rounds=2, iterations=1)
    benchmark.extra_info["total_points"] = policy.total_points


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

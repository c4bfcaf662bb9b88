"""Fig. 7 — single-node performance of the OLG time step.

The paper evaluates the first two sparse grid levels of a single time step
(16 x 119 = 1,904 grid points, 112,336 unknowns) on one node and reports
speedups over a single optimized CPU thread on Piz Daint (whose runtime is
2,243 s):

* Piz Daint, 1 CPU thread            -> 1x (baseline)
* Piz Daint, all CPU cores           -> intermediate
* Piz Daint, CPU + P100 GPU          -> ~25x
* Grand Tave KNL, multi-threaded     -> ~96x over its *own* single thread,
                                        ~12.5x in Piz Daint thread units
                                        (a Piz Daint node is ~2x faster).

This experiment reports two complementary sets of numbers:

1. **measured** — the point solve of a scaled-down OLG time step (every
   grid point of every shock state, the pass the driver runs: one
   vectorized ``solve_points_batch``) is timed once as one call and once
   as contiguous row blocks on host threads, giving real wall-clock
   speedups on the host machine.  The paper's work stealing (Sec. IV-A)
   balances per-point Ipopt solves; a vectorized pass has no per-point
   tasks, so its threads take equal blocks;
2. **modeled** — the hardware cost models of
   :mod:`repro.parallel.cluster` convert the measured per-row cost of the
   one pass into predicted speedups for the paper's node types, which is
   where the 25x / 96x / 2x anchors are reproduced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver
from repro.olg.calibration import small_calibration
from repro.olg.model import OLGModel
from repro.parallel.cluster import GRAND_TAVE_NODE, PIZ_DAINT_NODE
from repro.parallel.executor import ThreadPoolMapExecutor
from repro.parallel.gpu_sim import HybridNodeExecutor

__all__ = [
    "Fig7Variant",
    "Fig7Result",
    "run_fig7",
    "step_rows",
    "solve_row_blocks",
    "format_fig7",
    "run_scenario",
    "PAPER_FIG7",
]


def run_scenario(params: dict) -> dict:
    """Scenario-engine adapter: JSON-able Fig. 7 payload."""
    from dataclasses import asdict

    result = run_fig7(**dict(params))
    return {
        "num_generations": result.num_generations,
        "num_states": result.num_states,
        "grid_level": result.grid_level,
        "total_points": result.total_points,
        "variants": [asdict(v) for v in result.variants],
        "formatted": format_fig7(result),
    }

#: Anchors reported in the paper (Sec. V-B / Fig. 7).
PAPER_FIG7 = {
    "piz_daint_single_thread_seconds": 2243.0,
    "piz_daint_node_speedup": 25.0,
    "grand_tave_node_speedup_own_thread": 96.0,
    "piz_daint_over_grand_tave": 2.0,
}


@dataclass(frozen=True)
class Fig7Variant:
    """One bar of Fig. 7."""

    name: str
    wall_time: float
    speedup: float
    kind: str  # "measured" or "modeled"


@dataclass
class Fig7Result:
    """All variants plus the workload description."""

    num_generations: int
    num_states: int
    grid_level: int
    total_points: int
    variants: list[Fig7Variant] = field(default_factory=list)

    def variant(self, name: str) -> Fig7Variant:
        for v in self.variants:
            if v.name == name:
                return v
        raise KeyError(name)


def step_rows(model: OLGModel, grid_level: int):
    """The point solves of a first time step: ``(z, rows, policy)``.

    State-major, like the driver's pass: every grid point in shock state
    0, then in state 1, ...; ``policy`` is the initial guess ``p^0``.
    """
    solver = TimeIterationSolver(model, TimeIterationConfig(grid_level=grid_level))
    policy = solver.initial_policy()
    X = model.domain.from_unit(policy[0].grid.points)
    z = np.repeat(np.arange(model.num_states), len(X))
    return z, np.tile(X, (model.num_states, 1)), policy


def solve_row_blocks(models: list[OLGModel], z, rows, policy) -> np.ndarray:
    """The rows in ``len(models)`` contiguous blocks, one ``solve_points_batch`` per block.

    The blocks run on threads, each on a model of its own, so no solver
    counter is shared between threads; the models must share a calibration.
    """
    blocks = np.array_split(np.arange(len(rows)), min(len(models), len(rows)))
    solved = ThreadPoolMapExecutor(len(blocks)).map(
        lambda job: job[0].solve_points_batch(z[job[1]], rows[job[1]], policy),
        list(zip(models, blocks)),
    )
    return np.concatenate(solved)


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def run_fig7(
    num_generations: int = 6,
    num_states: int = 4,
    grid_level: int = 2,
    num_threads: int = 4,
) -> Fig7Result:
    """Run the single-node experiment on a scaled-down OLG time step."""
    cal = small_calibration(num_generations=num_generations, num_states=num_states, beta=0.8)
    model = OLGModel(cal)
    z, rows, policy = step_rows(model, grid_level)
    models = [OLGModel(cal) for _ in range(num_threads)]

    serial_time = _timed(model.solve_points_batch, z, rows, policy)
    threaded_time = _timed(solve_row_blocks, models, z, rows, policy)
    total_points = len(rows)
    result = Fig7Result(
        num_generations=num_generations,
        num_states=num_states,
        grid_level=grid_level,
        total_points=total_points,
    )
    result.variants.append(
        Fig7Variant("host: 1 thread", serial_time, 1.0, "measured")
    )
    result.variants.append(
        Fig7Variant(
            f"host: {num_threads} threads (row blocks)",
            threaded_time,
            serial_time / threaded_time if threaded_time > 0 else float("inf"),
            "measured",
        )
    )

    # Modeled single-node speedups of the paper's node types, using the
    # one pass's measured per-row cost as the workload unit (uniform costs:
    # the speedups are throughput ratios and do not depend on its value).
    per_point = serial_time / max(total_points, 1)
    point_costs = np.full(total_points, per_point)
    daint = HybridNodeExecutor(PIZ_DAINT_NODE)
    tave = HybridNodeExecutor(GRAND_TAVE_NODE)
    daint_cpu = daint.speedup(point_costs, use_gpu=False)
    daint_gpu = daint.speedup(point_costs, use_gpu=True)
    # Grand Tave speedup over its own single thread (the paper's 96x metric)
    tave_own = GRAND_TAVE_NODE.speedup_over_single_thread(use_gpu=False)
    tave_time = tave.execution_time(point_costs, use_gpu=False)
    daint_time = daint.execution_time(point_costs, use_gpu=True)
    result.variants.extend(
        [
            Fig7Variant("piz daint: 1 CPU thread (model)", serial_time, 1.0, "modeled"),
            Fig7Variant("piz daint: all CPU cores (model)",
                        serial_time / daint_cpu, daint_cpu, "modeled"),
            Fig7Variant("piz daint: CPU + GPU (model)",
                        serial_time / daint_gpu, daint_gpu, "modeled"),
            Fig7Variant("grand tave: KNL multi-threaded (model, own-thread speedup)",
                        tave_time, tave_own, "modeled"),
            Fig7Variant("piz daint node / grand tave node (model ratio)",
                        daint_time, tave_time / daint_time if daint_time > 0 else float("inf"),
                        "modeled"),
        ]
    )
    return result


def format_fig7(result: Fig7Result) -> str:
    """Text rendering of the Fig. 7 bars."""
    lines = [
        f"single-node OLG time step: A={result.num_generations}, "
        f"Ns={result.num_states}, level={result.grid_level}, "
        f"{result.total_points} grid points",
        f"{'variant':>55} {'wall time [s]':>14} {'speedup':>9} {'kind':>9}",
    ]
    lines.append("-" * len(lines[-1]))
    for v in result.variants:
        lines.append(f"{v.name:>55} {v.wall_time:>14.3f} {v.speedup:>9.2f} {v.kind:>9}")
    lines.append(
        "paper anchors: Piz Daint node ~25x over 1 thread, Grand Tave KNL ~96x over "
        "its own thread, Piz Daint ~2x Grand Tave"
    )
    return "\n".join(lines)

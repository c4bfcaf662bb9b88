"""Fig. 9 — convergence of the massively parallel time iteration.

The paper's Fig. 9 shows, for the 59-dimensional OLG model, the decay of
the L2 and L-infinity solution errors (a) as a function of compute time
(node hours) and (b) as a function of the iteration step.  Footnote 12
explains the protocol: the refinement threshold ``epsilon`` is held fixed
until the error stops improving, then the run is restarted with a smaller
``epsilon`` (which adds grid points), and so on — time iteration itself
converges only linearly.

The full 59-dimensional solve is out of reach for pure Python, so the
experiment runs the *same staged algorithm* on a scaled-down OLG economy
(configurable ``A`` and ``Ns``): a first stage on the regular level-2
grids, followed by adaptive stages with a decreasing refinement threshold,
each continuing from the previous stage's policy.  Unit-free Euler-equation
errors are measured on a fixed evaluation sample after every iteration, and
both the error-versus-iteration and error-versus-cumulative-wall-time
series are reported, plus the adaptive grid statistics at the end (the
paper: ~73,874 points per state on average, min 69,026, max 76,645).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver
from repro.olg.calibration import small_calibration
from repro.olg.model import OLGModel

__all__ = ["Fig9Result", "run_fig9", "format_fig9", "run_scenario", "PAPER_FIG9"]


def run_scenario(params: dict) -> dict:
    """Scenario-engine adapter: JSON-able Fig. 9 payload.

    Defaults are scaled down further than :func:`run_fig9`'s so a suite
    run finishes quickly; override via the spec's ``params``.
    """
    params = {
        "num_generations": 4,
        "num_states": 2,
        "max_iterations_per_stage": 6,
        "refinement_epsilons": (8e-2,),
        "num_error_samples": 10,
        **dict(params),
    }
    params["refinement_epsilons"] = tuple(params["refinement_epsilons"])
    result = run_fig9(**params)
    return {
        "iterations": [int(i) for i in result.iterations],
        "stages": [int(s) for s in result.stages],
        "error_linf": [float(v) for v in result.error_linf],
        "error_l2": [float(v) for v in result.error_l2],
        "policy_change": [float(v) for v in result.policy_change],
        "cumulative_time": [float(v) for v in result.cumulative_time],
        "points_per_state": [[int(p) for p in row] for row in result.points_per_state],
        "stage_epsilons": [float(e) for e in result.stage_epsilons],
        "converged_stages": [bool(c) for c in result.converged_stages],
        "formatted": format_fig9(result),
    }

#: Qualitative anchors from the paper's Sec. V-D.
PAPER_FIG9 = {
    "convergence_rate": "linear (at best) in the iteration count",
    "termination_error": 1e-3,           # "average error below 0.1 percent"
    "avg_points_per_state": 73_874,
    "min_points_per_state": 69_026,
    "max_points_per_state": 76_645,
}


@dataclass
class Fig9Result:
    """Convergence series of the staged time-iteration experiment."""

    iterations: np.ndarray          # global iteration counter across stages
    stages: np.ndarray              # stage index of every iteration
    error_linf: np.ndarray          # Euler-equation errors, sup norm
    error_l2: np.ndarray            # Euler-equation errors, L2 norm
    policy_change: np.ndarray       # successive relative policy distance
    cumulative_time: np.ndarray     # seconds
    points_per_state: list[list[int]]
    stage_epsilons: list[float]
    converged_stages: list[bool]

    @property
    def final_points_per_state(self) -> list[int]:
        return self.points_per_state[-1] if self.points_per_state else []

    @property
    def num_iterations(self) -> int:
        return int(self.iterations.size)

    def stage_final_errors(self, metric: str = "l2") -> np.ndarray:
        """Error at the end of each stage (should be non-increasing)."""
        series = self.error_l2 if metric == "l2" else self.error_linf
        out = []
        for stage in np.unique(self.stages):
            mask = self.stages == stage
            out.append(series[mask][-1])
        return np.asarray(out)

    def error_reduction(self, metric: str = "l2") -> float:
        """Ratio of the first to the last recorded error (>= 1 when improving)."""
        series = self.error_l2 if metric == "l2" else self.error_linf
        series = series[np.isfinite(series)]
        if series.size < 2 or series[-1] == 0:
            return float("nan")
        return float(series[0] / series[-1])


def run_fig9(
    num_generations: int = 6,
    num_states: int = 2,
    beta: float = 0.8,
    grid_level: int = 2,
    refinement_epsilons: tuple = (8e-2, 3e-2),
    max_refine_level: int = 3,
    max_points_per_state: int = 400,
    stage_tolerance: float = 2e-3,
    max_iterations_per_stage: int = 12,
    num_error_samples: int = 30,
    seed: int = 0,
) -> Fig9Result:
    """Run the staged convergence experiment on a scaled-down OLG economy.

    Stage 0 solves on the regular level-``grid_level`` grids; every further
    stage switches to adaptive refinement with the next (smaller) threshold
    from ``refinement_epsilons``, warm-starting from the previous stage.

    The errors are measured on the middle 60 % of the box.  The trim still
    matters on the per-age holdings box, where every point is an economy:
    after stage 0 of the defaults the L2 error on 200 points reads 0.010
    inside against 0.027 on the whole box (L-infinity 0.07 / 0.25), because
    a level-2 interpolant is coarsest towards the faces, which hold states
    2.5 times the steady-state profile that the ergodic economy never visits.
    """
    cal = small_calibration(
        num_generations=num_generations, num_states=num_states, beta=beta
    )
    model = OLGModel(cal)
    # fixed across stages, so the error series is comparable between them
    lower, upper = model.domain.lower, model.domain.upper
    margin = 0.2 * (upper - lower)
    inner = model.domain.__class__(lower + margin, upper - margin)
    sample = inner.sample(num_error_samples, rng=seed)

    stage_configs: list[TimeIterationConfig] = [
        TimeIterationConfig(
            grid_level=grid_level,
            tolerance=stage_tolerance,
            max_iterations=max_iterations_per_stage,
            adaptive=False,
            convergence_metric="rel_l2",
        )
    ]
    for epsilon in refinement_epsilons:
        stage_configs.append(
            TimeIterationConfig(
                grid_level=grid_level,
                tolerance=stage_tolerance,
                max_iterations=max_iterations_per_stage,
                adaptive=True,
                refine_epsilon=float(epsilon),
                max_refine_level=max_refine_level,
                max_points_per_state=max_points_per_state,
                convergence_metric="rel_l2",
            )
        )

    iterations: list[int] = []
    stages: list[int] = []
    err_linf: list[float] = []
    err_l2: list[float] = []
    change: list[float] = []
    cum_time: list[float] = []
    points: list[list[int]] = []
    converged_stages: list[bool] = []

    policy = None
    counter = 0
    elapsed = 0.0
    for stage_index, config in enumerate(stage_configs):
        solver = TimeIterationSolver(model, config)
        result = solver.solve(initial_policy=policy, error_sample=sample)
        policy = result.policy
        converged_stages.append(result.converged)
        for record in result.records:
            counter += 1
            elapsed += record.wall_time
            iterations.append(counter)
            stages.append(stage_index)
            err_linf.append(record.equilibrium_errors.get("linf", np.nan))
            err_l2.append(record.equilibrium_errors.get("l2", np.nan))
            change.append(record.policy_change_rel_l2)
            cum_time.append(elapsed)
            points.append(list(record.points_per_state))

    return Fig9Result(
        iterations=np.asarray(iterations, dtype=np.int64),
        stages=np.asarray(stages, dtype=np.int64),
        error_linf=np.asarray(err_linf),
        error_l2=np.asarray(err_l2),
        policy_change=np.asarray(change),
        cumulative_time=np.asarray(cum_time),
        points_per_state=points,
        stage_epsilons=[float("inf")] + [float(e) for e in refinement_epsilons],
        converged_stages=converged_stages,
    )


def format_fig9(result: Fig9Result) -> str:
    """Text rendering of the convergence series."""
    lines = [
        "time-iteration convergence (scaled-down OLG economy, staged epsilon schedule)",
        f"{'iter':>5} {'stage':>6} {'cum time [s]':>13} {'euler L2':>10} "
        f"{'euler Linf':>11} {'|dp| rel L2':>12} {'points/state':>16}",
    ]
    lines.append("-" * len(lines[-1]))
    for i in range(result.num_iterations):
        pts = result.points_per_state[i]
        lines.append(
            f"{int(result.iterations[i]):>5} {int(result.stages[i]):>6} "
            f"{result.cumulative_time[i]:>13.2f} {result.error_l2[i]:>10.3e} "
            f"{result.error_linf[i]:>11.3e} {result.policy_change[i]:>12.3e} "
            f"{str(pts):>16}"
        )
    finals = ", ".join(f"{e:.3e}" for e in result.stage_final_errors("l2"))
    lines.append(
        f"stage-final L2 errors: [{finals}]; "
        f"L2 error reduction first->last: {result.error_reduction('l2'):.1f}x"
    )
    lines.append(
        "paper anchors: linear convergence; epsilon lowered stage by stage until the "
        "average error is below 0.1%; ~73,874 adaptive points per state at the end"
    )
    return "\n".join(lines)

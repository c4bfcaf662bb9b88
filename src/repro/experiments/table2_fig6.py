"""Table II and Fig. 6 — interpolation kernel performance.

The paper measures the average execution time of every kernel variant when
evaluating the interpolant at 1,000 randomly sampled points of the "7k"
(level 3) and "300k" (level 4) grids with 118 degrees of freedom per point,
and reports speedups normalized to the ``gold`` (uncompressed) kernel.

``run_table2`` performs the same measurement with this library's kernel
ladder.  Absolute times are hardware- and runtime-specific (pure NumPy vs.
hand-vectorized C++/CUDA), but the *shape* the paper emphasises is
reproduced: the compressed layout beats the dense one by a factor of
roughly ``d / nfreq``, and the batched ("cuda") kernel is the fastest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


from repro.core.compression import compress_grid
from repro.core.kernels import evaluate, list_kernels
from repro.experiments.table1 import _short_name
from repro.grids.regular import regular_sparse_grid
from repro.utils.rng import default_rng

__all__ = [
    "KernelTiming",
    "KernelExperiment",
    "run_table2",
    "format_table2",
    "run_scenario",
    "scenario_suite",
    "PAPER_TABLE2",
]

#: Kernel times (seconds) reported in the paper's Table II.
PAPER_TABLE2 = {
    "7k": {
        "gold": 0.000820,
        "x86": 0.000197,
        "avx": 0.000204,
        "avx2": 0.000204,
        "avx512": 0.000225,
        "cuda": 0.000122,
    },
    "300k": {
        "gold": 0.018884,
        "x86": 0.004251,
        "avx": 0.004221,
        "avx2": 0.004234,
        "avx512": 0.000907,
        "cuda": 0.000275,
    },
}


@dataclass(frozen=True)
class KernelTiming:
    """Measured timing of one kernel on one test case."""

    kernel: str
    seconds_per_query: float
    speedup_vs_gold: float
    paper_seconds_per_query: float | None
    paper_speedup_vs_gold: float | None


@dataclass(frozen=True)
class KernelExperiment:
    """All kernel timings for one test grid."""

    name: str
    dim: int
    level: int
    num_points: int
    num_dofs: int
    num_queries: int
    timings: list[KernelTiming]

    def timing(self, kernel: str) -> KernelTiming:
        for t in self.timings:
            if t.kernel == kernel:
                return t
        raise KeyError(kernel)


def run_table2(
    dim: int = 59,
    levels: tuple = (3,),
    num_dofs: int = 118,
    num_queries: int = 100,
    kernels: tuple | None = None,
    repeats: int = 3,
    seed: int = 0,
) -> list[KernelExperiment]:
    """Measure kernel runtimes on regular sparse grids.

    The defaults use the paper's dimensionality and dof count but the
    level-3 ("7k") grid and 100 query points so the experiment completes in
    seconds; pass ``levels=(3, 4)`` and ``num_queries=1000`` to run the
    full paper configuration (the level-4 grid takes a few minutes to
    build and compress in pure Python).
    """
    rng = default_rng(seed)
    kernels = tuple(kernels) if kernels is not None else tuple(list_kernels())
    experiments: list[KernelExperiment] = []
    for level in levels:
        grid = regular_sparse_grid(dim, level)
        comp = compress_grid(grid)
        surplus = rng.standard_normal((len(grid), num_dofs))
        queries = rng.random((num_queries, dim))
        name = _short_name(len(grid))
        times: dict[str, float] = {}
        for kernel in kernels:
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                evaluate(comp, surplus, queries, kernel=kernel)
                best = min(best, time.perf_counter() - t0)
            times[kernel] = best / num_queries
        gold_time = times.get("gold", next(iter(times.values())))
        paper = PAPER_TABLE2.get(name, {}) if dim == 59 else {}
        paper_gold = paper.get("gold")
        timings = []
        for kernel in kernels:
            paper_time = paper.get(kernel)
            timings.append(
                KernelTiming(
                    kernel=kernel,
                    seconds_per_query=times[kernel],
                    speedup_vs_gold=gold_time / times[kernel],
                    paper_seconds_per_query=paper_time,
                    paper_speedup_vs_gold=(
                        paper_gold / paper_time if paper_time and paper_gold else None
                    ),
                )
            )
        experiments.append(
            KernelExperiment(
                name=name,
                dim=dim,
                level=level,
                num_points=len(grid),
                num_dofs=num_dofs,
                num_queries=num_queries,
                timings=timings,
            )
        )
    return experiments


def run_scenario(params: dict) -> dict:
    """Scenario-engine adapter: JSON-able Table II / Fig. 6 payload."""
    from dataclasses import asdict

    params = dict(params)
    for key in ("levels", "kernels"):
        if params.get(key) is not None:
            params[key] = tuple(params[key])
    experiments = run_table2(**params)
    return {
        "experiments": [asdict(e) for e in experiments],
        "formatted": format_table2(experiments),
    }


def scenario_suite():
    """Table II / Fig. 6 as a thin predefined suite over the scenario runner."""
    from repro.scenarios.spec import ScenarioSpec, ScenarioSuite

    return ScenarioSuite(
        "table2",
        [
            ScenarioSpec(
                name="table2-kernels",
                kind="table2",
                params={"dim": 10, "levels": [3], "num_dofs": 12, "num_queries": 50},
                tags=("paper-table",),
            )
        ],
    )


def format_table2(experiments: list[KernelExperiment]) -> str:
    """Text rendering of Table II / Fig. 6 (measured vs. paper speedups)."""
    lines = []
    for exp in experiments:
        lines.append(
            f"test case {exp.name!r}: {exp.num_points} points, d={exp.dim}, "
            f"{exp.num_dofs} dofs, {exp.num_queries} queries"
        )
        header = (
            f"  {'kernel':>8} {'s/query':>12} {'speedup':>9} "
            f"{'paper s/query':>14} {'paper speedup':>14}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for t in exp.timings:
            paper_t = f"{t.paper_seconds_per_query:.6f}" if t.paper_seconds_per_query else "-"
            paper_s = f"{t.paper_speedup_vs_gold:.2f}" if t.paper_speedup_vs_gold else "-"
            lines.append(
                f"  {t.kernel:>8} {t.seconds_per_query:>12.3e} {t.speedup_vs_gold:>9.2f} "
                f"{paper_t:>14} {paper_s:>14}"
            )
        lines.append("")
    return "\n".join(lines)

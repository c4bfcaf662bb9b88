"""Print the size table: cold solves of the OLG model at several sizes.

One markdown row per rung ``generations/level``: a cold
``TimeIterationSolver(OLGModel(small_calibration(G, 2)))`` solve at that
grid level, tolerance 1e-3, at most 60 passes.  The columns are the grid
points per shock state, the passes, the grid rows solved and those Newton
left stalled, the residual calls per Newton run, the candidate rows the
residual evaluated per grid row solved ("query rows"), the Euler error —
the mean log10 of ``equilibrium_errors`` on 200 box points drawn with seed
0 — and, last, the wall time of the solve.  Everything but the wall is
deterministic, so two checkouts compare with ``cut -d'|' -f1-8``.

The query rows are counted by wrapping the callback
``BatchNewtonSolver.solve(fn, x0)`` receives, which returns each call's
residuals and linearization: each of its rows is one candidate read and
evaluated.  The script uses public names only, so it also runs on older
checkouts: it wraps both callbacks of their ``solve(fn, x0, jac)``, of
which a run calls one — ``jac`` where it is given, ``fn`` for a
forward-difference Jacobian::

    PYTHONPATH=src python3 benchmarks/size_table.py            # ~2 s
    PYTHONPATH=src python3 benchmarks/size_table.py 24/2 40/2 12/3
"""

from __future__ import annotations

import argparse
import time

from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver
from repro.olg.calibration import small_calibration
from repro.olg.model import OLGModel
from repro.olg.solver import BatchNewtonSolver

DEFAULT_RUNGS = ("5/2", "8/2", "12/2", "16/2", "8/3", "10/3")

COLUMNS = (
    "generations / level",
    "pts per state",
    "passes",
    "rows / stalled",
    "residual calls per Newton run",
    "query rows per row",
    "Euler error",
    "wall",
)


def _rung(text: str) -> tuple[int, int]:
    generations, level = text.split("/")
    return int(generations), int(level)


def row(generations: int, level: int) -> str:
    """The table row of one cold solve."""
    model = OLGModel(small_calibration(generations, 2))
    config = TimeIterationConfig(grid_level=level, tolerance=1e-3, max_iterations=60)
    queried = []
    newton = BatchNewtonSolver.solve

    def counting(self, fn, x0, *jac):
        # the one callback of solve(fn, x0), or both of an older solve(fn, x0, jac)
        def counted(callback):
            def call(rows, X):
                queried.append(len(rows))
                return callback(rows, X)

            return call

        return newton(self, counted(fn), x0, *map(counted, jac))

    BatchNewtonSolver.solve = counting
    try:
        start = time.perf_counter()
        result = TimeIterationSolver(model, config).solve()
        wall = time.perf_counter() - start
    finally:
        BatchNewtonSolver.solve = newton
    totals = model.solver_totals()
    error = model.equilibrium_errors(result.policy, model.sample_states(200, rng=0))
    cells = (
        f"{generations} / {level}",
        result.policy.points_per_state[0],
        len(result.records),
        f"{totals['rows']} / {totals['stalled']}",
        f"{totals['residual_calls'] / totals['newton_runs']:.1f}",
        f"{sum(queried) / totals['rows']:.1f}",
        f"{error['mean_log10']:.2f}",
        f"{wall:.2f} s",
    )
    return "| " + " | ".join(map(str, cells)) + " |"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "rungs", nargs="*", type=_rung, default=[_rung(r) for r in DEFAULT_RUNGS],
        help="generations/level pairs, e.g. 24/2 12/3 (default: %s)" % " ".join(DEFAULT_RUNGS),
    )
    args = parser.parse_args()
    print("| " + " | ".join(COLUMNS) + " |")
    print("|" + " --- |" * len(COLUMNS))
    for generations, level in args.rungs:
        print(row(generations, level), flush=True)


if __name__ == "__main__":
    main()

"""Print the solve bits of the perf ledger's two solver sweeps.

Two lines, one per sweep: the sha256 over the surplus bytes of every
member's final policy (members in ``SWEEP`` order, states in order) and
the members' iteration counts.  The sweeps are the ledger's: 5
generations, 2 shock states, tolerance 1e-3, one scenario per
``(tau_labor, beta)`` of ``benchmarks/ledger/workloads.py::SWEEP`` —
solved one by one at level 2, and stacked as one group at level 3.

A third line digests the compressed layout (``compress_grid``'s factor
table, chains and ``order``, which fix every kernel's summation order) of
``regular_sparse_grid(59, 3)`` and of a seeded refined ``(4, 2)`` grid,
the digests ``tests/core/test_compression.py`` pins.

A fourth line covers the adaptive path, which no ledger workload runs: the
sha256 over each state's refined ``grid.levels`` and surpluses, the
iteration count and the points per state of a 5-generation solve from the
level-2 grid (refinement threshold 1e-2, level cap 4).

A fifth line stacks the level-2 sweep with the first member's tolerance
loosened to 1.0, so that it converges a pass before the others and the
stack goes on without the member whose grid it started on.  It is built
from public names only, so the script also runs on older checkouts.

A change that leaves the numerics alone prints the same five lines as its
parent; compare the output of two checkouts::

    PYTHONPATH=src python3 benchmarks/solve_bits.py

Bits may move legitimately (a new residual formulation, another summation
order); the script only says whether they did.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

from repro.core.batched import BatchedTimeIterationSolver, BatchMember
from repro.core.compression import compress_grid
from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver
from repro.grids.adaptive import refine
from repro.grids.regular import regular_sparse_grid
from repro.olg.calibration import small_calibration
from repro.olg.model import OLGModel
from repro.scenarios import ScenarioSpec


def _sweep() -> tuple:
    """``SWEEP`` of the ledger's workloads (the ledger directory is only read)."""
    sys.dont_write_bytecode = True  # no __pycache__ left under benchmarks/ledger/
    sys.path.insert(0, str(Path(__file__).resolve().parent / "ledger"))
    from workloads import SWEEP

    return SWEEP


def _specs(level: int) -> list[ScenarioSpec]:
    base = ScenarioSpec(
        name=f"l{level}",
        calibration={"num_generations": 5, "num_states": 2},
        solver={"grid_level": level, "tolerance": 1e-3},
    )
    return [
        base.with_overrides(name=f"l{level}-{i}", calibration={"tau_labor": tau, "beta": beta})
        for i, (tau, beta) in enumerate(_sweep())
    ]


def _line(label: str, results: list) -> str:
    digest = hashlib.sha256()
    for result in results:
        for state_policy in result.policy:
            digest.update(np.ascontiguousarray(state_policy.interpolant.surplus).tobytes())
    iterations = [result.iterations for result in results]
    return f"{label} {digest.hexdigest()} iterations {iterations}"


def solo_line(level: int = 2) -> str:
    """The sweep solved one scenario at a time."""
    results = [
        TimeIterationSolver(spec.build_model(), spec.build_config()).solve()
        for spec in _specs(level)
    ]
    return _line(f"level-{level} solo", results)


def stacked_line(level: int = 3, first_tolerance: float | None = None) -> str:
    """The sweep solved as one stacked group, optionally with the first member's own
    tolerance."""
    specs = _specs(level)
    label = f"level-{level} stacked"
    if first_tolerance is not None:
        specs[0] = specs[0].with_overrides(solver={"tolerance": first_tolerance})
        label += f" first-tolerance {first_tolerance:g}"
    members = [BatchMember(s.name, s.build_model(), s.build_config()) for s in specs]
    outcomes = BatchedTimeIterationSolver(members).solve()
    return _line(label, [outcomes[s.name].result for s in specs])


def _layout_digest(grid) -> str:
    comp = compress_grid(grid)
    digest = hashlib.sha256()
    for name in ("xps_dims", "xps_levels", "xps_indices", "chains", "order"):
        arr = getattr(comp, name)
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def layout_line() -> str:
    """The compressed layouts of Table I's level-3 grid and a refined grid."""
    refined = regular_sparse_grid(4, 2)
    rng = np.random.default_rng(2)
    for _ in range(2):
        refine(refined, rng.standard_normal(len(refined)), epsilon=1.0)
    regular = _layout_digest(regular_sparse_grid(59, 3))
    return f"compression layout 59x3 {regular} refined-4x2 {_layout_digest(refined)}"


def adaptive_line() -> str:
    """An adaptive solve: refined state grids, their surpluses and the pass count."""
    config = TimeIterationConfig(
        grid_level=2,
        tolerance=1e-3,
        max_iterations=60,
        adaptive=True,
        refine_epsilon=1e-2,
        max_refine_level=4,
    )
    result = TimeIterationSolver(OLGModel(small_calibration(5, 2)), config).solve()
    digest = hashlib.sha256()
    for state_policy in result.policy:
        digest.update(state_policy.grid.levels.tobytes())
        digest.update(np.ascontiguousarray(state_policy.interpolant.surplus).tobytes())
    points = [len(state_policy.grid) for state_policy in result.policy]
    return f"adaptive level-2 {digest.hexdigest()} iterations {result.iterations} points {points}"


def main() -> None:
    print(solo_line())
    print(stacked_line())
    print(layout_line())
    print(adaptive_line())
    print(stacked_line(2, first_tolerance=1.0))


if __name__ == "__main__":
    main()

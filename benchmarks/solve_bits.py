"""Print the solve bits of the perf ledger's two solver sweeps.

Two lines, one per sweep: the sha256 over the surplus bytes of every
member's final policy (members in ``SWEEP`` order, states in order) and
the members' iteration counts.  The sweeps are the ledger's: 5
generations, 2 shock states, tolerance 1e-3, one scenario per
``(tau_labor, beta)`` of ``benchmarks/ledger/workloads.py::SWEEP`` —
solved one by one at level 2, and stacked as one group at level 3.

A change that leaves the numerics alone prints the same two lines as its
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
from repro.core.time_iteration import TimeIterationSolver
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


def stacked_line(level: int = 3) -> str:
    """The sweep solved as one stacked group."""
    specs = _specs(level)
    members = [BatchMember(s.name, s.build_model(), s.build_config()) for s in specs]
    outcomes = BatchedTimeIterationSolver(members).solve()
    return _line(f"level-{level} stacked", [outcomes[s.name].result for s in specs])


def main() -> None:
    print(solo_line())
    print(stacked_line())


if __name__ == "__main__":
    main()

"""What imports what: the numerical layers never the scenario engine, nothing scipy."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LOWER_LAYERS = ("core", "grids", "olg", "parallel", "utils")


def test_lower_layers_do_not_import_scenarios():
    offenders = []
    for path in sorted(p for layer in LOWER_LAYERS for p in (SRC / layer).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(n == "repro.scenarios" or n.startswith("repro.scenarios.") for n in names):
                offenders.append(f"{path.relative_to(SRC.parent)}:{node.lineno}")
    assert not offenders, f"lower layers import repro.scenarios: {offenders}"


_IMPORT_AND_SOLVE = """
import sys
import repro, repro.scenarios, repro.olg, repro.experiments
from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver
from repro.olg import OLGModel, small_calibration

model = OLGModel(small_calibration(4, 2))
policy = TimeIterationSolver(model, TimeIterationConfig(grid_level=2)).initial_policy()
X = model.domain.from_unit(policy[0].grid.points)
assert model.solve_points_batch(0, X, policy).shape == (len(X), model.num_policies)
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_runtime_never_imports_scipy():
    """The whole stack and a point solve run on numpy alone (scipy is a bench extra)."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_AND_SOLVE], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr

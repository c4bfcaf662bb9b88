"""The numerical layers never import the scenario engine (it imports them)."""

from __future__ import annotations

import ast
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

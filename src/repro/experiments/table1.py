"""Table I — interpolation test cases and compression statistics.

The paper's Table I specifies two test grids for the kernel benchmarks:

=========  ===  =========  ======  ========  ===========
test       d    nno        level   # states  # xps/state
=========  ===  =========  ======  ========  ===========
"7k"       59   7,081      3       16        237
"300k"     59   281,077    4       16        473
=========  ===  =========  ======  ========  ===========

``run_table1`` rebuilds both grids (or smaller stand-ins when
``dim``/``levels`` are overridden), compresses them and reports the exact
columns of the table plus the derived compression statistics discussed in
Sec. IV-B (zero fraction, nfreq, index compression ratio).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.core.compression import compress_grid, compression_stats
from repro.grids.regular import regular_grid_size, regular_sparse_grid

__all__ = [
    "Table1Row",
    "run_table1",
    "format_table1",
    "run_scenario",
    "scenario_suite",
    "PAPER_TABLE1",
]

#: The values printed in the paper, for side-by-side comparison.
PAPER_TABLE1 = {
    3: {"nno": 7_081, "xps_per_state": 237},
    4: {"nno": 281_077, "xps_per_state": 473},
}


@dataclass(frozen=True)
class Table1Row:
    """One row of Table I, plus the extra compression statistics."""

    name: str
    dim: int
    level: int
    num_points: int
    num_states: int
    xps_per_state: int
    nfreq: int
    zeros_fraction: float
    compression_ratio: float
    paper_num_points: int | None = None
    paper_xps_per_state: int | None = None


def run_table1(
    dim: int = 59,
    levels: tuple = (3, 4),
    num_states: int = 16,
    build_grids: bool = True,
) -> list[Table1Row]:
    """Regenerate Table I.

    Parameters
    ----------
    dim, levels, num_states
        Grid dimensionality, the sparse grid levels of the test cases and
        the number of discrete states (each state has its own identical
        grid in the non-adaptive benchmark setup).
    build_grids
        If False, only the closed-form point counts are reported (cheap);
        compression statistics require building the grids.
    """
    rows: list[Table1Row] = []
    for level in levels:
        num_points = regular_grid_size(dim, level)
        name = _short_name(num_points)
        if build_grids:
            grid = regular_sparse_grid(dim, level)
            comp = compress_grid(grid)
            stats = compression_stats(grid, comp)
            xps = stats["num_xps"]
            nfreq = stats["nfreq"]
            zeros = stats["zeros_fraction"]
            ratio = stats["compression_ratio"]
        else:
            xps, nfreq, zeros, ratio = -1, -1, float("nan"), float("nan")
        paper = PAPER_TABLE1.get(level) if dim == 59 else None
        rows.append(
            Table1Row(
                name=name,
                dim=dim,
                level=level,
                num_points=num_points,
                num_states=num_states,
                xps_per_state=xps,
                nfreq=nfreq,
                zeros_fraction=zeros,
                compression_ratio=ratio,
                paper_num_points=paper["nno"] if paper else None,
                paper_xps_per_state=paper["xps_per_state"] if paper else None,
            )
        )
    return rows


def _short_name(num_points: int) -> str:
    """A test case's name: its point count, in thousands from 1 000 points."""
    if num_points >= 1000:
        return f"{num_points / 1000:.0f}k"
    return str(num_points)


def run_scenario(params: dict) -> dict:
    """Scenario-engine adapter: JSON-able Table I payload.

    Consumed by :mod:`repro.scenarios.runner`, which stores the payload
    with full provenance; ``params`` are :func:`run_table1` keyword
    arguments (``levels`` may arrive as a JSON list).
    """
    params = dict(params)
    if "levels" in params:
        params["levels"] = tuple(params["levels"])
    rows = run_table1(**params)
    return {"rows": [asdict(r) for r in rows], "formatted": format_table1(rows)}


def scenario_suite():
    """Table I as a thin predefined suite over the scenario runner.

    Scaled down (``dim=12``) so it completes in seconds; pass the paper's
    ``dim=59`` through a custom :class:`~repro.scenarios.spec.ScenarioSpec`
    for the full configuration.
    """
    from repro.scenarios.spec import ScenarioSpec, ScenarioSuite

    return ScenarioSuite(
        "table1",
        [
            ScenarioSpec(
                name="table1-compression",
                kind="table1",
                params={"dim": 12, "levels": [2, 3], "num_states": 4},
                tags=("paper-table",),
            )
        ],
    )


def format_table1(rows: list[Table1Row]) -> str:
    """Render the rows as a text table mirroring the paper's layout."""
    header = (
        f"{'test':>8} {'d':>4} {'nno':>9} {'level':>6} {'#states':>8} "
        f"{'#xps/state':>11} {'nfreq':>6} {'zeros%':>7} {'ratio':>6} "
        f"{'paper nno':>10} {'paper xps':>10}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.name:>8} {r.dim:>4} {r.num_points:>9} {r.level:>6} {r.num_states:>8} "
            f"{r.xps_per_state:>11} {r.nfreq:>6} {100 * r.zeros_fraction:>6.1f}% "
            f"{r.compression_ratio:>6.1f} "
            f"{r.paper_num_points if r.paper_num_points else '-':>10} "
            f"{r.paper_xps_per_state if r.paper_xps_per_state else '-':>10}"
        )
    return "\n".join(lines)

"""Table I — interpolation test cases and compression statistics.

The paper's Table I specifies two test grids for the kernel benchmarks:

=========  ===  =========  ======  ========  ===========
test       d    nno        level   # states  # xps/state
=========  ===  =========  ======  ========  ===========
"7k"       59   7,081      3       16        237
"300k"     59   281,077    4       16        473
=========  ===  =========  ======  ========  ===========

``run_table1`` builds both grids (or smaller stand-ins when
``dim``/``levels`` are overridden), compresses them and reports the exact
columns of the table plus the derived compression statistics discussed in
Sec. IV-B (zero fraction, nfreq, index compression ratio).

Those statistics depend on ``(dim, level)`` alone, so they are computed
once per ``(dim, level)`` per process: ``_grid_statistics`` caches the
numbers, never a grid (``SparseGrid`` is mutable through ``add_points``),
and ``regular_sparse_grid`` / ``compress_grid`` stay uncached for every
other caller.  To time a grid build through ``run_table1``, clear the
cache first (``_grid_statistics.cache_clear()``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

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


_ROW_FIELDS = tuple(f.name for f in fields(Table1Row))


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
        compression statistics build each ``(dim, level)``'s grid once per
        process.
    """
    rows: list[Table1Row] = []
    for level in levels:
        num_points = regular_grid_size(dim, level)
        name = _short_name(num_points)
        if build_grids:
            xps, nfreq, zeros, ratio = _grid_statistics(dim, level)
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


@lru_cache
def _grid_statistics(dim: int, level: int) -> tuple[int, int, float, float]:
    """``(num_xps, nfreq, zeros_fraction, compression_ratio)`` of the regular grid.

    Builds and compresses the grid on the first call for a ``(dim, level)``
    and keeps only these four numbers.
    """
    grid = regular_sparse_grid(dim, level)
    stats = compression_stats(grid, compress_grid(grid))
    return stats["num_xps"], stats["nfreq"], stats["zeros_fraction"], stats["compression_ratio"]


def _short_name(num_points: int) -> str:
    """A test case's name: its point count, in thousands from 1 000 points."""
    if num_points >= 1000:
        return f"{num_points / 1000:.0f}k"
    return str(num_points)


def run_scenario(params: dict) -> dict:
    """Scenario-engine adapter: JSON-able Table I payload.

    Consumed by :mod:`repro.scenarios.runner`, which stores the payload
    with full provenance; ``params`` are :func:`run_table1` keyword
    arguments (``levels`` may arrive as a JSON list; a scalar raises
    ``ValueError``).  A row holds scalars only, so its payload dict is a
    shallow copy of its fields (what ``dataclasses.asdict`` returns).
    """
    params = dict(params)
    if "levels" in params:
        levels = params["levels"]
        if not isinstance(levels, (list, tuple)):
            raise ValueError(f"table1 levels must be a list of grid levels, got {levels!r}")
        params["levels"] = tuple(levels)
    rows = run_table1(**params)
    payload_rows = [{name: getattr(r, name) for name in _ROW_FIELDS} for r in rows]
    return {"rows": payload_rows, "formatted": format_table1(rows)}


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

"""Table I benchmark — grid construction and ASG index compression.

Regenerates the columns of the paper's Table I (grid sizes, xps table sizes)
and times the compression pipeline itself.  Paper reference values are
attached to the benchmark's ``extra_info`` so ``--benchmark-json`` output
carries the comparison.
"""

from __future__ import annotations

import os

import pytest

from repro.core.compression import compress_grid, compression_stats
from repro.experiments import table1
from repro.experiments.table1 import PAPER_TABLE1, run_table1
from repro.grids.regular import regular_grid_size, regular_sparse_grid


#: Paper-scale configurations are opt-in via the environment.
FULL_BENCH = os.environ.get("REPRO_FULL_BENCH", "0") not in ("0", "", "false")



@pytest.mark.benchmark(group="table1-grid-construction")
def bench_build_7k_grid(benchmark):
    """Construction of the 59-dimensional level-3 ("7k") sparse grid."""
    grid = benchmark(regular_sparse_grid, 59, 3)
    assert len(grid) == PAPER_TABLE1[3]["nno"]


@pytest.mark.benchmark(group="table1-compression")
def bench_compress_7k_grid(benchmark, paper_7k_grid):
    """ASG index compression of the "7k" grid (Sec. IV-B pipeline)."""
    comp = benchmark(compress_grid, paper_7k_grid)
    stats = compression_stats(paper_7k_grid, comp)
    benchmark.extra_info["num_points"] = stats["num_points"]
    benchmark.extra_info["num_xps"] = stats["num_xps"]
    benchmark.extra_info["paper_num_xps"] = PAPER_TABLE1[3]["xps_per_state"]
    benchmark.extra_info["nfreq"] = stats["nfreq"]
    benchmark.extra_info["zeros_fraction"] = stats["zeros_fraction"]
    assert stats["num_xps"] == PAPER_TABLE1[3]["xps_per_state"]


@pytest.mark.benchmark(group="table1-closed-form")
def bench_closed_form_sizes(benchmark):
    """Closed-form grid sizes for all paper levels (used by the Fig. 8 model)."""

    def compute():
        return {level: regular_grid_size(59, level) for level in (2, 3, 4, 5)}

    sizes = benchmark(compute)
    assert sizes[3] == 7_081
    assert sizes[4] == 281_077
    benchmark.extra_info["sizes"] = sizes


@pytest.mark.benchmark(group="table1-table")
def bench_table1_harness(benchmark):
    """The full Table I harness (level 3 by default, level 3+4 in full mode).

    ``run_table1`` computes each ``(dim, level)``'s statistics once per
    process, so the cache is cleared first: the one round times a cold
    harness (grid build + compression), not a cache hit.
    """
    levels = (3, 4) if FULL_BENCH else (3,)
    table1._grid_statistics.cache_clear()
    rows = benchmark.pedantic(
        run_table1, kwargs={"levels": levels}, rounds=1, iterations=1
    )
    for row in rows:
        if row.paper_xps_per_state is not None:
            assert row.xps_per_state == row.paper_xps_per_state
        benchmark.extra_info[f"level_{row.level}_points"] = row.num_points
        benchmark.extra_info[f"level_{row.level}_xps"] = row.xps_per_state

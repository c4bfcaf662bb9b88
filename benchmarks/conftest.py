"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's tables/figures (see the
README's Layout: ``src/repro/experiments``).  The default configurations
are sized so the whole suite runs in a few minutes on a laptop; set the environment
variable ``REPRO_FULL_BENCH=1`` to run the paper-scale configurations
(59-dimensional level-4 "300k" grid, 1,000 query points), which takes
substantially longer.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.compression import compress_grid
from repro.grids.regular import regular_sparse_grid

FULL_BENCH = os.environ.get("REPRO_FULL_BENCH", "0") not in ("0", "", "false")


def full_bench_enabled() -> bool:
    return FULL_BENCH


@pytest.fixture(scope="session")
def paper_7k_grid():
    """The paper's "7k" test case: level-3 sparse grid in 59 dimensions."""
    return regular_sparse_grid(59, 3)


@pytest.fixture(scope="session")
def paper_7k_compressed(paper_7k_grid):
    return compress_grid(paper_7k_grid)


@pytest.fixture(scope="session")
def paper_7k_surplus(paper_7k_grid):
    rng = np.random.default_rng(0)
    return rng.standard_normal((len(paper_7k_grid), 118))


@pytest.fixture(scope="session")
def query_points():
    rng = np.random.default_rng(1)
    n = 1_000 if FULL_BENCH else 64
    return rng.random((n, 59))

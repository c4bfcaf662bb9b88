"""repro — reproduction of "Rethinking large-scale economic modeling for
efficiency: optimizations for GPU and Xeon Phi clusters" (IPDPS 2018).

The package provides four layers:

``repro.grids``
    Adaptive sparse grid (ASG) substrate: hierarchical hat basis, regular and
    adaptive grid construction, hierarchization and interpolation.

``repro.core``
    The paper's primary contribution: ASG index compression, the ladder of
    interpolation kernels (gold / x86 / avx / avx2 / avx512 / cuda analogs)
    and the time-iteration driver.

``repro.olg``
    The stochastic overlapping-generations (OLG) public-finance model used as
    the economic application, including calibration, equilibrium conditions
    and nonlinear point solvers.

``repro.parallel``
    The heterogeneous-cluster substrate: simulated MPI communicators,
    proportional workload partitioning across discrete states, a TBB-like
    work-stealing scheduler, a GPU offload executor and hardware cost models
    of the Piz Daint and Grand Tave systems.

``repro.experiments``
    Harnesses that regenerate every table and figure of the paper's
    evaluation section.

``repro.scenarios``
    Scenario engine: declarative scenario suites with content hashing,
    checkpoint/resume of time-iteration solves, a batch runner over the
    parallel executors and a provenance-tracked results store
    (``python -m repro.scenarios``).
"""

from repro.grids import (
    SparseGrid,
    SparseGridInterpolant,
    regular_sparse_grid,
    hierarchize,
)
from repro.core import (
    CompressedGrid,
    compress_grid,
    evaluate,
    list_kernels,
    TimeIterationSolver,
    TimeIterationResult,
    PolicySet,
)
from repro.olg import OLGModel, OLGCalibration, small_calibration, paper_calibration

__version__ = "1.17.0"

__all__ = [
    "SparseGrid",
    "SparseGridInterpolant",
    "regular_sparse_grid",
    "hierarchize",
    "CompressedGrid",
    "compress_grid",
    "evaluate",
    "list_kernels",
    "TimeIterationSolver",
    "TimeIterationResult",
    "PolicySet",
    "OLGModel",
    "OLGCalibration",
    "small_calibration",
    "paper_calibration",
    "__version__",
]

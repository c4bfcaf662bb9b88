"""Core contribution of the paper.

* :mod:`repro.core.compression` — adaptive sparse grid index compression and
  surplus matrix reordering (paper Sec. IV-B, Figs. 3-4, Algorithm 2).
* :mod:`repro.core.kernels` — the ladder of interpolation kernels
  (gold / x86 / avx / avx2 / avx512 / cuda analogs, paper Sec. V-A).
* :mod:`repro.core.policy` — per-discrete-state policy containers.
* :mod:`repro.core.time_iteration` — the parallel time iteration driver
  (paper Algorithm 1 and Sec. IV-A).
"""

from repro.core.compression import (
    CompressedGrid,
    XiDecomposition,
    compress_grid,
    compressed_for,
    compression_stats,
)
from repro.core.kernels import evaluate, list_kernels, get_kernel, KERNELS
from repro.core.policy import StatePolicy, PolicySet, PolicyRead
from repro.core.time_iteration import (
    TimeIterationSolver,
    TimeIterationConfig,
    TimeIterationResult,
    IterationRecord,
)

__all__ = [
    "CompressedGrid",
    "XiDecomposition",
    "compress_grid",
    "compressed_for",
    "compression_stats",
    "evaluate",
    "list_kernels",
    "get_kernel",
    "KERNELS",
    "StatePolicy",
    "PolicySet",
    "PolicyRead",
    "TimeIterationSolver",
    "TimeIterationConfig",
    "TimeIterationResult",
    "IterationRecord",
]

"""Hardware cost models of the paper's two target systems.

The single-node speedups reported in Sec. V-B calibrate the models:

* a full Piz Daint node (12-core Haswell + P100) is ~25x faster than one
  optimized CPU thread on the same node;
* a Grand Tave KNL node in multi-threaded mode is ~96x faster than one of
  its own (much slower) threads;
* a Piz Daint node is ~2x faster than a Grand Tave node for this workload.

Throughputs are expressed in "reference thread equivalents", where the
reference is one optimized Piz Daint CPU thread (the normalisation used in
Fig. 7 and Fig. 8 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NodeSpec", "PIZ_DAINT_NODE", "GRAND_TAVE_NODE", "REFERENCE_THREAD"]


@dataclass(frozen=True)
class NodeSpec:
    """Performance model of one compute node.

    Attributes
    ----------
    name
        Human-readable node type.
    cores, threads_per_core
        Physical cores and hardware threads per core.
    single_thread_speed
        Throughput of one thread relative to the reference (Piz Daint CPU)
        thread.
    cpu_parallel_efficiency
        Fraction of the ideal ``cores x threads_per_core`` speedup the
        node-level scheduler actually achieves on this workload.
    gpu_throughput
        Additional throughput contributed by an attached accelerator, in
        reference-thread equivalents (0 for CPU-only nodes).
    """

    name: str
    cores: int
    threads_per_core: int = 1
    single_thread_speed: float = 1.0
    cpu_parallel_efficiency: float = 1.0
    gpu_throughput: float = 0.0

    def __post_init__(self) -> None:
        if self.cores < 1 or self.threads_per_core < 1:
            raise ValueError("cores and threads_per_core must be >= 1")
        if self.single_thread_speed <= 0:
            raise ValueError("single_thread_speed must be positive")
        if not 0.0 < self.cpu_parallel_efficiency <= 1.0:
            raise ValueError("cpu_parallel_efficiency must lie in (0, 1]")
        if self.gpu_throughput < 0:
            raise ValueError("gpu_throughput must be non-negative")

    @property
    def hardware_threads(self) -> int:
        return self.cores * self.threads_per_core

    @property
    def has_gpu(self) -> bool:
        return self.gpu_throughput > 0.0

    def cpu_throughput(self, threads: int | None = None) -> float:
        """Aggregate CPU throughput (reference-thread equivalents)."""
        threads = self.hardware_threads if threads is None else min(threads, self.hardware_threads)
        if threads <= 1:
            return self.single_thread_speed * max(threads, 1)
        return threads * self.single_thread_speed * self.cpu_parallel_efficiency

    def node_throughput(self, use_gpu: bool = True, threads: int | None = None) -> float:
        """Total node throughput, optionally including the accelerator."""
        total = self.cpu_throughput(threads)
        if use_gpu:
            total += self.gpu_throughput
        return total

    def speedup_over_single_thread(self, use_gpu: bool = True) -> float:
        """Node speedup over one of its own threads (the Fig. 7 metric)."""
        return self.node_throughput(use_gpu=use_gpu) / self.single_thread_speed


#: One optimized Piz Daint CPU thread — the normalisation unit of Figs. 7-8.
REFERENCE_THREAD = 1.0

#: Cray XC50 "Piz Daint" node: 12-core Intel Xeon E5-2690 v3 + NVIDIA P100.
#: Calibrated so the full node (CPU + GPU) is ~25x one of its CPU threads.
PIZ_DAINT_NODE = NodeSpec(
    name="piz_daint",
    cores=12,
    threads_per_core=2,
    single_thread_speed=1.0,
    cpu_parallel_efficiency=0.46,   # 24 hw threads -> ~11x effective CPU speedup
    gpu_throughput=14.0,            # P100 offload adds ~14 reference threads
)

#: Cray XC40 "Grand Tave" node: Intel Xeon Phi 7230 (KNL, 64 cores).
#: Calibrated so the multi-threaded node is ~96x one of its own threads and
#: ~2x slower than a Piz Daint node overall.
GRAND_TAVE_NODE = NodeSpec(
    name="grand_tave",
    cores=64,
    threads_per_core=4,
    single_thread_speed=0.13,
    cpu_parallel_efficiency=0.375,  # 256 hw threads -> ~96x over its own thread
    gpu_throughput=0.0,
)

"""Heterogeneous HPC substrate (paper Sec. IV-A and V).

The paper runs on Cray XC40/XC50 systems with MPI across nodes, TBB inside
a node and CUDA offload to P100 GPUs.  None of that hardware is available
to a pure-Python reproduction, so this subpackage provides

* **real shared-memory parallelism** — map-style executors
  (:mod:`repro.parallel.executor`) that host suite drains and Fig. 7's
  row blocks on threads/processes of the host machine, and
* **simulated execution** — a work-stealing scheduling simulation
  (:mod:`repro.parallel.scheduler`), hardware cost models of the Piz
  Daint and Grand Tave nodes (:mod:`repro.parallel.cluster`), the paper's
  proportional state-to-group partitioning
  (:mod:`repro.parallel.partition`), a CPU + GPU node cost model
  (:mod:`repro.parallel.gpu_sim`) and the strong-scaling workload model
  (:mod:`repro.parallel.scaling`) that reproduces the shape of Fig. 8.

:mod:`repro.parallel.tracing` holds the structured events solves and the
scenario worker fleet emit; the run report derives fleet makespan, busy
time and utilization from the lease events.
"""

from repro.parallel.cluster import NodeSpec, PIZ_DAINT_NODE, GRAND_TAVE_NODE
from repro.parallel.partition import proportional_group_sizes, partition_counts
from repro.parallel.scheduler import simulate_schedule
from repro.parallel.executor import SerialExecutor, ThreadPoolMapExecutor, ProcessPoolMapExecutor
from repro.parallel.gpu_sim import HybridNodeExecutor
from repro.parallel.scaling import StrongScalingModel, ScalingPoint

__all__ = [
    "NodeSpec",
    "PIZ_DAINT_NODE",
    "GRAND_TAVE_NODE",
    "proportional_group_sizes",
    "partition_counts",
    "simulate_schedule",
    "SerialExecutor",
    "ThreadPoolMapExecutor",
    "ProcessPoolMapExecutor",
    "HybridNodeExecutor",
    "StrongScalingModel",
    "ScalingPoint",
]

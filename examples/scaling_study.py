#!/usr/bin/env python3
"""Scaling study: single-node performance (Fig. 7) and strong scaling (Fig. 8).

Reproduces the two hardware-oriented experiments of the paper's evaluation:

* **Fig. 7** — one time step of the OLG model on a single node.  The host
  variants are actually measured (the step's one vectorized point solve
  vs. the same rows in contiguous blocks on ``--threads`` threads); the
  Piz Daint / Grand Tave numbers come from the calibrated hardware models
  and carry the paper's anchors (~25x for a CPU+GPU node, ~96x for a KNL
  node over its own thread, Piz Daint ~2x Grand Tave).
* **Fig. 8** — strong scaling of one time step of the 59-dimensional,
  16-state, level-4 workload from 1 to 4,096 nodes, using the
  workload-distribution model calibrated to the paper's single-node runtime
  (20,471 s) and showing the ~70% efficiency at 4,096 nodes with the lower
  refinement levels scaling worse.

Run:  python examples/scaling_study.py
"""

from __future__ import annotations

import argparse

from repro.experiments.fig7 import format_fig7, run_fig7
from repro.experiments.fig8 import format_fig8, run_fig8
from repro.experiments.ablations import run_partition_ablation, run_scheduler_ablation
from repro.parallel.cluster import GRAND_TAVE_NODE


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, default=4, help="host worker threads for Fig. 7")
    parser.add_argument("--generations", type=int, default=6)
    parser.add_argument("--states", type=int, default=4)
    args = parser.parse_args()

    print("=" * 78)
    print("Fig. 7 — single-node performance of one OLG time step")
    print("=" * 78)
    fig7 = run_fig7(
        num_generations=args.generations,
        num_states=args.states,
        num_threads=args.threads,
    )
    print(format_fig7(fig7))

    print()
    print("=" * 78)
    print("Fig. 8 — strong scaling of one time step (Piz Daint hardware model)")
    print("=" * 78)
    fig8 = run_fig8()
    print(format_fig8(fig8))

    print()
    print("=" * 78)
    print("Fig. 8 (variant) — the same workload on the Grand Tave (KNL) model")
    print("=" * 78)
    knl = run_fig8(node=GRAND_TAVE_NODE, use_gpu=False, node_counts=(1, 4, 16, 64, 128))
    print(format_fig8(knl))

    print()
    print("=" * 78)
    print("Scheduling / partitioning ablations (Sec. IV-A design choices)")
    print("=" * 78)
    partition = run_partition_ablation(total_processes=64)
    print(
        f"proportional vs uniform MPI group sizing on dispersed grid sizes: "
        f"load imbalance {partition.imbalance_proportional:.3f} vs "
        f"{partition.imbalance_uniform:.3f} "
        f"({partition.improvement:.1f}x better)"
    )
    scheduler = run_scheduler_ablation(num_tasks=5_000, num_workers=24)
    print(
        f"work stealing vs static partition on heavy-tailed point-solve costs: "
        f"makespan {scheduler.makespan_stealing:.1f} vs {scheduler.makespan_static:.1f} "
        f"({scheduler.speedup_from_stealing:.1f}x better), "
        f"efficiency {scheduler.efficiency_stealing:.2f} vs {scheduler.efficiency_static:.2f}"
    )


if __name__ == "__main__":
    main()

"""Figure 4: strong scaling of the three scheduling schemes on Haswell and KNL.

The paper runs compression and evaluation with (a) the HEFT-based dynamic
runtime ("wall-clock"), (b) level-by-level traversals and (c) omp-task, on
1–24 Haswell cores and 1–68 KNL cores, for two workloads:

* #1/#2: a COVTYPE Gaussian kernel matrix, 12% budget, average rank 487 —
  compute bound, scales to high core counts,
* #3/#4: K02 with 3% budget, average rank 35 — memory/latency bound, stops
  scaling (and even slows down) because the critical path dominates.

We reproduce the study with the scheduler simulation: the DAGs come from a
real compression of the two workloads, the per-task costs from the Table 2
model, and the machines from the analytic Haswell/KNL models.  The printed
table carries, per core count, the makespans of the three schedulers; the
assertions pin the qualitative claims (dynamic ≤ level-by-level everywhere;
the small-rank workload saturates well below the full machine).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import GOFMMConfig, compress
from repro.matrices import build_matrix
from repro.reporting import format_table
from repro.runtime import CostModel, build_compression_dag, build_evaluation_dag, haswell_24, knl_68, simulate_all_schedulers

from .harness import once, problem_size


WORKLOADS = {
    # name: (matrix, budget, rank) — mirrors experiments #1/#2 vs #3/#4.
    "covtype-12%": ("covtype", 0.12, 96),
    "K02-3%": ("K02", 0.03, 32),
}


def _build_dags(workload: str):
    matrix_name, budget, rank = WORKLOADS[workload]
    n = problem_size(2048)
    matrix = build_matrix(matrix_name, n, seed=0)
    # The real compression feeding the DAGs honors the worker environment
    # knob, so the simulated scaling study can itself be run on a
    # process-sharded build (results are worker-count deterministic, so
    # the DAGs don't change).
    workers = int(os.environ.get("GOFMM_BENCH_WORKERS", "1"))
    config = GOFMMConfig(
        leaf_size=128, max_rank=rank, tolerance=1e-5, neighbors=16,
        budget=max(budget, 4.0 * 128 / n), distance="angle", seed=0,
        neighbor_workers=workers,
        compression_workers=workers,
    )
    compressed = compress(matrix, config)
    avg_rank = max(1, int(compressed.rank_summary()["mean"]))
    cost = CostModel(leaf_size=config.leaf_size, rank=avg_rank, num_rhs=512)
    return {
        "evaluation": build_evaluation_dag(compressed.tree, cost),
        "compression": build_compression_dag(compressed.tree, cost),
    }


def _scaling_experiment(workload: str, machine_factory, core_counts):
    dags = _build_dags(workload)
    rows = []
    series = {}
    for phase, dag in dags.items():
        for cores in core_counts:
            machine = machine_factory().with_workers(cores)
            results = simulate_all_schedulers(dag, machine)
            rows.append([
                phase,
                cores,
                results["heft"].makespan,
                results["level-by-level"].makespan,
                results["omp-task"].makespan,
                results["heft"].utilization,
            ])
            series.setdefault(phase, {})[cores] = results
    return rows, series


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("machine_name", ["haswell", "knl"])
def bench_fig4_strong_scaling(benchmark, workload, machine_name):
    factory = haswell_24 if machine_name == "haswell" else knl_68
    max_cores = 24 if machine_name == "haswell" else 68
    core_counts = [c for c in (1, 2, 4, 8, 16, 24, 34, 68) if c <= max_cores]

    rows, series = once(benchmark, lambda: _scaling_experiment(workload, factory, core_counts))

    print()
    print(format_table(
        ["phase", "cores", "heft [s]", "level-by-level [s]", "omp-task [s]", "heft util"],
        rows,
        title=f"Figure 4 analogue: {workload} on {machine_name}",
    ))

    for phase, per_core in series.items():
        # Dynamic scheduling essentially never loses to level-by-level.  At very
        # low core counts list-scheduling anomalies can cost a few percent, so the
        # pointwise bound is loose; at the full machine (where the barriers of the
        # level-by-level traversal really hurt) the win must be strict.
        for cores, results in per_core.items():
            assert results["heft"].makespan <= results["level-by-level"].makespan * 1.3
        full_machine = per_core[core_counts[-1]]
        assert full_machine["heft"].makespan <= full_machine["level-by-level"].makespan * 1.001
        # Scaling: the largest core count is no slower than a single core.
        first = per_core[core_counts[0]]["heft"].makespan
        last = per_core[core_counts[-1]]["heft"].makespan
        assert last <= first

    if workload == "K02-3%":
        # The small-rank workload saturates: going from the mid core count to the
        # full machine buys little (the paper even observes slow-down on KNL).
        evaluation = series["evaluation"]
        mid = evaluation[core_counts[len(core_counts) // 2]]["heft"].makespan
        full = evaluation[core_counts[-1]]["heft"].makespan
        assert full > 0.25 * mid

"""Ablation: number of neighbors κ (DESIGN.md ablation #3).

κ feeds two mechanisms: the neighbor-based importance sampling of the
skeletonization rows, and the voting that builds the Near lists.  More
neighbors give better sampling (better low-rank quality) and a denser near
field, at higher search cost.

The sweep runs the ANN search on ``GOFMM_BENCH_WORKERS`` processes (default
1); the table is worker-count deterministic, which the smallest-κ point
cross-checks against a single-process search before any numbers are
reported.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import GOFMMConfig
from repro.core.distances import make_distance
from repro.core.neighbors import all_nearest_neighbors
from repro.matrices import build_matrix
from repro.reporting import format_table

from .harness import once, problem_size, run_gofmm

KAPPAS = [2, 8, 32]


def _experiment(matrix_name: str):
    n = problem_size(1024)
    runs = []
    for kappa in KAPPAS:
        matrix = build_matrix(matrix_name, n, seed=0)
        config = GOFMMConfig(
            leaf_size=64, max_rank=48, tolerance=1e-8, neighbors=kappa,
            budget=0.1, distance="angle", seed=0,
            neighbor_workers=int(os.environ.get("GOFMM_BENCH_WORKERS", "1")),
        )
        if kappa == KAPPAS[0]:
            # Parity gate: the configured worker count must reproduce the
            # single-process table bit for bit on this problem.
            distance = make_distance(matrix, config.distance)
            ref = all_nearest_neighbors(distance, config.replace(neighbor_workers=1))
            got = all_nearest_neighbors(distance, config)
            assert np.array_equal(ref.indices, got.indices)
            assert np.array_equal(ref.distances, got.distances)
        runs.append(run_gofmm(matrix, config, num_rhs=32, name=f"kappa={kappa}"))
    return runs


@pytest.mark.parametrize("matrix_name", ["covtype", "K04"])
def bench_ablation_neighbors(benchmark, matrix_name):
    runs = once(benchmark, lambda: _experiment(matrix_name))

    print()
    print(format_table(
        ["kappa", "eps2", "avg rank", "comp [s]", "entry evals"],
        [[k, r.epsilon2, r.average_rank, r.compression_seconds, r.entry_evaluations] for k, r in zip(KAPPAS, runs)],
        title=f"Neighbor-count ablation: {matrix_name} (N={problem_size(1024)})",
    ))

    # More neighbors never make the accuracy dramatically worse, and the
    # largest kappa should be at least as accurate as the smallest.
    assert runs[-1].epsilon2 <= runs[0].epsilon2 * 2.0 + 1e-12
    # Entry-evaluation cost does not shrink with kappa (bigger ANN search + near
    # field); a small tolerance absorbs run-to-run variation in the iterative
    # neighbor search, which may converge in fewer passes when lists are larger.
    assert runs[-1].entry_evaluations >= 0.85 * runs[0].entry_evaluations

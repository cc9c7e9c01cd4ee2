"""Thread-pool strong scaling of the ANN search and the skeletonization.

Two worker sweeps:

* **ANN search** — steps 1–3 of Algorithm 2.2 swept over
  ``neighbor_workers`` (projection-tree iterations in waves over a thread
  pool);
* **skeletonization** — the level sweep swept over ``compression_workers``
  (subtrees on a thread pool).

Both are worker-count deterministic, so every sweep point first asserts
its results (tables; skeletons and coefficients) equal the single-thread
run.  The artifact records ``os.cpu_count()`` — on a single-core
container the curve honestly shows the pool overhead instead of a
speedup.

Results are written to ``benchmarks/artifacts/compression_scaling.json``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_compression_scaling.py \
        [--smoke] [--n 8192] [--scaling-n 100000] [--workers 1 2 4] [--repeats 3] [--out PATH]

``--smoke`` shrinks both sweeps (n=2048, workers 1 and 2, one ANN repeat) —
the CI gate on worker-count determinism.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro import GOFMMConfig
from repro.api import Session
from repro.core.distances import GeometricDistance
from repro.core.neighbors import all_nearest_neighbors
from repro.matrices import KernelMatrix
from repro.matrices.kernels import GaussianKernel

try:  # package import (pytest benchmarks/) vs direct script run
    from .harness import memory_probe
except ImportError:
    from harness import memory_probe


def clustered_points(n: int, d: int = 6, seed: int = 0) -> np.ndarray:
    gen = np.random.default_rng(seed)
    centers = gen.standard_normal((8, d)) * 3.0
    return np.vstack([c + gen.standard_normal((n // 8 + 1, d)) for c in centers])[:n]


def _time_search(distance, config: GOFMMConfig, repeats: int):
    best = float("inf")
    table = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        table = all_nearest_neighbors(distance, config)
        best = min(best, time.perf_counter() - t0)
    return best, table


def neighbor_strong_scaling(n: int, workers_sweep, repeats: int) -> list[dict]:
    """ANN search over a worker sweep; every point must match the first."""
    points = clustered_points(n)
    distance = GeometricDistance(points)
    base = GOFMMConfig(
        distance="geometric",
        leaf_size=64,
        neighbors=16,
        num_neighbor_trees=8,
        neighbor_accuracy_target=0.999,
        seed=0,
    )
    rows = []
    baseline = None
    for workers in workers_sweep:
        config = base.replace(neighbor_workers=workers)
        seconds, table = _time_search(distance, config, repeats)
        if baseline is None:
            baseline = (seconds, table)
        else:
            if not (
                np.array_equal(baseline[1].indices, table.indices)
                and np.array_equal(baseline[1].distances, table.distances)
            ):
                raise RuntimeError(f"ANN table changed at neighbor_workers={workers}")
        rows.append(
            {
                "n": n,
                "neighbor_workers": workers,
                "seconds": seconds,
                "iterations": table.iterations,
                "speedup_vs_1": baseline[0] / seconds if seconds > 0 else float("inf"),
            }
        )
    return rows


def compression_strong_scaling(n: int, workers_sweep, repeats: int) -> list[dict]:
    """Subtree-parallel skeletonization over a worker sweep on a warm session."""
    rows = []
    baseline_nodes = None
    baseline_seconds = None
    for workers in workers_sweep:
        matrix = KernelMatrix(
            clustered_points(n, d=3),
            GaussianKernel(bandwidth=2.0),
            regularization=1e-6,
            name=f"gaussian-{n}",
        )
        config = GOFMMConfig(
            leaf_size=64,
            max_rank=48,
            tolerance=1e-5,
            neighbors=16,
            budget=0.03,
            seed=0,
            compression_workers=workers,
        )
        session = Session(matrix, config)
        session.prepare()  # partition + ANN + lists are not what's being measured
        best = float("inf")
        op = None
        for _ in range(repeats):
            session.invalidate("skeletons")
            op = session.compress()
            best = min(best, op.report.phase_seconds.get("skeletonization", 0.0))
        nodes = [
            None if node.skeleton is None else (node.skeleton.copy(), node.coeffs.copy())
            for node in op.compressed.tree.nodes
        ]
        if baseline_nodes is None:
            baseline_nodes, baseline_seconds = nodes, best
        else:
            identical = all(
                (a is None and b is None)
                or (
                    a is not None and b is not None
                    and np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                )
                for a, b in zip(baseline_nodes, nodes)
            )
            if not identical:
                raise RuntimeError(
                    f"skeletons or coefficients changed at compression_workers={workers}"
                )
        rows.append(
            {
                "n": n,
                "compression_workers": workers,
                "skeletonization_seconds": best,
                "speedup_vs_1": baseline_seconds / best if best > 0 else float("inf"),
            }
        )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI gate on worker-count determinism")
    parser.add_argument("--n", type=int, default=8192, help="skeletonization problem size (capped at 8192)")
    parser.add_argument("--scaling-n", type=int, default=100_000, help="ANN-search problem size")
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--repeats", type=int, default=3, help="best-of count per ANN sweep point")
    parser.add_argument(
        "--out", type=Path, default=Path(__file__).parent / "artifacts" / "compression_scaling.json"
    )
    args = parser.parse_args()

    if args.smoke:
        n, scaling_n, workers, repeats = 2048, 2048, [1, 2], 1
    else:
        n, scaling_n, workers, repeats = min(args.n, 8192), args.scaling_n, args.workers, args.repeats

    scaling = neighbor_strong_scaling(scaling_n, workers, repeats)
    print(f"ANN search at n={scaling_n} (cpu_count={os.cpu_count()}):")
    for row in scaling:
        print(
            f"  neighbor_workers={row['neighbor_workers']}: {row['seconds']:.2f}s "
            f"({row['speedup_vs_1']:.2f}x vs 1)"
        )
    compression = compression_strong_scaling(n, workers, repeats=2)
    print(f"skeletonization at n={n}:")
    for row in compression:
        print(
            f"  compression_workers={row['compression_workers']}: "
            f"{row['skeletonization_seconds']:.2f}s ({row['speedup_vs_1']:.2f}x vs 1)"
        )

    artifact = {
        "benchmark": "compression_scaling",
        "memory": memory_probe(),
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "strong_scaling": {"neighbors": scaling, "skeletonization": compression},
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

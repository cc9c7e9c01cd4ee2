"""Neighbor-backend speedup and process-sharded strong scaling.

Two measurements behind the pluggable neighbor backends and the
skeletonization fan-out:

* **backend speedup** — the ANN phase (steps 1–3 of Algorithm 2.2) timed
  under the ``"reference"`` (per-row merge loop) and ``"blocked"``
  (vectorized per-leaf pass) backends on the same problem, with the
  resulting tables asserted bit-identical before any number is reported.
  The per-row loop pays ~tens of microseconds of interpreter overhead per
  index per tree; the blocked backend replaces it with a handful of
  stacked array passes per leaf batch, which is where the headline
  speedup at n=8192 comes from.
* **strong scaling** — the ``"sharded"`` neighbor backend (independent
  projection-tree iterations over a ``fork`` pool + shared-memory slabs)
  swept over ``neighbor_workers`` at n≥10^5, and the skeletonization
  level sweep swept over ``compression_workers``.  Both are
  worker-count deterministic, so every sweep point first
  asserts its results equal the single-process run.  The artifact records
  ``os.cpu_count()`` — on a single-core container the curve honestly
  shows the fork/slab overhead instead of a speedup.

Results are written to ``benchmarks/artifacts/compression_scaling.json``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_compression_scaling.py \
        [--smoke] [--n 8192] [--scaling-n 100000] [--repeats 3] [--out PATH]

``--smoke`` shrinks the problem (n=2048, backend speedup only) and asserts
that the blocked backend beats the reference — the CI regression gate.
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
from repro.core.distances import AngleDistance, GeometricDistance
from repro.core.neighbor_backends import available_neighbor_backends
from repro.core.neighbors import all_nearest_neighbors
from repro.matrices import KernelMatrix
from repro.matrices.kernels import GaussianKernel

try:  # package import (pytest benchmarks/) vs direct script run
    from .harness import memory_probe
except ImportError:
    from harness import memory_probe

#: (metric, leaf_size, neighbors) rows of the backend-speedup table.  All
#: rows run num_neighbor_trees=10 at accuracy target 0.999 — enough
#: iterations that the phase cost, not the convergence check, dominates.
SPEEDUP_ROWS = (
    ("geometric", 64, 16),
    ("angle", 64, 16),
    ("angle", 64, 32),
)


def clustered_points(n: int, d: int = 6, seed: int = 0) -> np.ndarray:
    gen = np.random.default_rng(seed)
    centers = gen.standard_normal((8, d)) * 3.0
    return np.vstack([c + gen.standard_normal((n // 8 + 1, d)) for c in centers])[:n]


def make_distance(metric: str, points: np.ndarray):
    if metric == "geometric":
        return GeometricDistance(points)
    matrix = KernelMatrix(points, GaussianKernel(bandwidth=2.0), regularization=1e-8)
    return AngleDistance(matrix)


def _time_backend(distance, config: GOFMMConfig, backend: str, repeats: int):
    best = float("inf")
    table = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        table = all_nearest_neighbors(distance, config, backend=backend)
        best = min(best, time.perf_counter() - t0)
    return best, table


def backend_speedup(n: int, repeats: int, trees: int = 10) -> list[dict]:
    """Reference vs blocked ANN phase, best-of-``repeats``, exact-match gated."""
    rows = []
    for metric, leaf, kappa in SPEEDUP_ROWS:
        points = clustered_points(n)
        distance = make_distance(metric, points)
        config = GOFMMConfig(
            distance="geometric" if metric == "geometric" else "angle",
            leaf_size=leaf,
            neighbors=kappa,
            num_neighbor_trees=trees,
            neighbor_accuracy_target=0.999,
            seed=0,
        )
        ref_seconds, ref_table = _time_backend(distance, config, "reference", repeats)
        blk_seconds, blk_table = _time_backend(distance, config, "blocked", repeats)
        if not (
            np.array_equal(ref_table.indices, blk_table.indices)
            and np.array_equal(ref_table.distances, blk_table.distances)
        ):
            raise RuntimeError(f"backend table mismatch: {metric} leaf={leaf} kappa={kappa}")
        rows.append(
            {
                "metric": metric,
                "n": n,
                "leaf_size": leaf,
                "neighbors": kappa,
                "num_neighbor_trees": trees,
                "iterations": ref_table.iterations,
                "reference_seconds": ref_seconds,
                "blocked_seconds": blk_seconds,
                "speedup": ref_seconds / blk_seconds if blk_seconds > 0 else float("inf"),
                "tables_identical": True,
            }
        )
    return rows


def neighbor_strong_scaling(n: int, workers_sweep, repeats: int) -> list[dict]:
    """Sharded ANN over a worker sweep; every point must match workers=1."""
    points = clustered_points(n)
    distance = GeometricDistance(points)
    base = GOFMMConfig(
        distance="geometric",
        leaf_size=64,
        neighbors=16,
        num_neighbor_trees=8,
        neighbor_accuracy_target=0.999,
        neighbor_backend="sharded",
        seed=0,
    )
    rows = []
    baseline = None
    for workers in workers_sweep:
        config = base.replace(neighbor_workers=workers)
        seconds, table = _time_backend(distance, config, "sharded", repeats)
        if baseline is None:
            baseline = (seconds, table)
        else:
            if not (
                np.array_equal(baseline[1].indices, table.indices)
                and np.array_equal(baseline[1].distances, table.distances)
            ):
                raise RuntimeError(f"sharded table changed at neighbor_workers={workers}")
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
    """Sharded skeletonization over a worker sweep on a warm session."""
    rows = []
    baseline_skeletons = None
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
        skeletons = [
            None if node.skeleton is None else node.skeleton.copy()
            for node in op.compressed.tree.nodes
        ]
        if baseline_skeletons is None:
            baseline_skeletons, baseline_seconds = skeletons, best
        else:
            identical = all(
                (a is None and b is None)
                or (a is not None and b is not None and np.array_equal(a, b))
                for a, b in zip(baseline_skeletons, skeletons)
            )
            if not identical:
                raise RuntimeError(f"sharded skeletons changed at compression_workers={workers}")
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
    parser.add_argument("--smoke", action="store_true", help="small CI gate: blocked must beat reference")
    parser.add_argument("--n", type=int, default=8192, help="backend-speedup problem size")
    parser.add_argument("--scaling-n", type=int, default=100_000, help="strong-scaling problem size")
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out", type=Path, default=Path(__file__).parent / "artifacts" / "compression_scaling.json"
    )
    args = parser.parse_args()

    if args.smoke:
        n, repeats = 2048, 2
    else:
        n, repeats = args.n, args.repeats

    speedup_rows = backend_speedup(n, repeats)
    print(f"{'metric':>10} {'leaf':>5} {'kappa':>6} {'ref (s)':>9} {'blocked (s)':>12} {'speedup':>8}")
    for row in speedup_rows:
        print(
            f"{row['metric']:>10} {row['leaf_size']:>5} {row['neighbors']:>6} "
            f"{row['reference_seconds']:>9.3f} {row['blocked_seconds']:>12.3f} "
            f"{row['speedup']:>7.2f}x"
        )
    max_speedup = max(row["speedup"] for row in speedup_rows)

    artifact = {
        "benchmark": "compression_scaling",
        "memory": memory_probe(),
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "available_neighbor_backends": list(available_neighbor_backends()),
        "repeats": repeats,
        "backend_speedup": speedup_rows,
        "max_backend_speedup": max_speedup,
    }

    if args.smoke:
        # CI gate: on any machine, the vectorized pass must beat the
        # per-row loop, and (asserted above) bit-identically so.
        slowest = min(row["speedup"] for row in speedup_rows)
        if slowest <= 1.0:
            raise SystemExit(f"blocked backend lost to reference ({slowest:.2f}x)")
        print(f"smoke OK: min speedup {slowest:.2f}x, tables identical")
    else:
        scaling = neighbor_strong_scaling(args.scaling_n, args.workers, repeats=1)
        print(f"\nsharded ANN at n={args.scaling_n} (cpu_count={os.cpu_count()}):")
        for row in scaling:
            print(
                f"  neighbor_workers={row['neighbor_workers']}: {row['seconds']:.2f}s "
                f"({row['speedup_vs_1']:.2f}x vs 1)"
            )
        compression = compression_strong_scaling(min(n, 8192), args.workers, repeats=2)
        print(f"sharded skeletonization at n={min(n, 8192)}:")
        for row in compression:
            print(
                f"  compression_workers={row['compression_workers']}: "
                f"{row['skeletonization_seconds']:.2f}s ({row['speedup_vs_1']:.2f}x vs 1)"
            )
        artifact["strong_scaling"] = {"neighbors": scaling, "skeletonization": compression}

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

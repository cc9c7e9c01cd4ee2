"""Out-of-core operator serving: residency vs problem size under a pinned budget.

The out-of-core claim of the storage subsystem (:mod:`repro.storage`) is
that an operator whose artifact + weight working set is several times the
streaming budget still compresses, cold-starts, and serves — with the
measured Python-heap high-water staying under a pinned bound derived from
the budget, because coefficients / cached blocks page in from the mmap'd
store and the weights / outputs stream through bounded column panels.

Per problem size this harness:

1. compresses the fine-tree Gaussian kernel operator (cached blocks),
2. saves it as a format-v2 store directory and cold-starts it back with
   ``CompressedOperator.open(path, resident="mmap")``,
3. asserts the mmap'd operator's full-width matvec is **bit-identical** to
   the in-memory operator's ``engine="streamed"`` matvec (which equals the
   per-node traversal of Algorithm 2.7 bitwise),
4. streams an mmap'd weight file through the plan's column panels into an
   mmap'd output file, measuring the tracemalloc high-water of the call
   (mmap pages are invisible to tracemalloc — which is exactly the point:
   what it sees is the true heap residency), and asserts it stays under
   the pinned bound,
5. records the working set (store + weights + outputs) as a multiple of
   the budget — the full run's largest size is the extrapolation point
   with working set ≥ 4× budget.

The streaming budget defaults to 8 MiB and is pinned via
``GOFMM_STREAM_BUDGET_MB`` (CI runs the ``--smoke`` mode under exactly
that).  Results land in ``benchmarks/artifacts/out_of_core.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro import GOFMMConfig
from repro.api import Session
from repro.api.operator import CompressedOperator
from repro.matrices import KernelMatrix
from repro.matrices.kernels import GaussianKernel

try:  # package import (pytest benchmarks/) vs direct script run
    from .harness import memory_probe
except ImportError:
    from harness import memory_probe

DEFAULT_SIZES = (2048, 4096, 8192)
SMOKE_SIZES = (1024, 2048)

#: Fine tree (small leaves, fixed rank): thousands of small cached blocks —
#: the regime where the store directory actually carries weight and the
#: streamed engine's bounded workspace matters.
FINE = dict(leaf_size=32, max_rank=16, adaptive_rank=False, budget=0.05)

#: Pinned heap high-water bound for one panel-streamed matvec, as a multiple
#: of the streaming budget: one input + one output panel (together sized to
#: the budget by ``default_panel_cols``) + the chunk workspace buffers (at
#: most half a budget) + panel I/O staging, plus a small fixed allowance for
#: interpreter noise.  Raising this number is a memory regression.
HIGH_WATER_BUDGET_MULTIPLE = 3.0
HIGH_WATER_SLACK_BYTES = 4 << 20


def stream_budget_bytes() -> int:
    """The pinned streaming budget (override with GOFMM_STREAM_BUDGET_MB)."""
    return int(float(os.environ.get("GOFMM_STREAM_BUDGET_MB", 8)) * 2**20)


def gaussian_matrix(n: int, d: int = 3, bandwidth: float = 2.0, seed: int = 0) -> KernelMatrix:
    gen = np.random.default_rng(seed)
    points = gen.standard_normal((n, d))
    return KernelMatrix(
        points, GaussianKernel(bandwidth=bandwidth), regularization=1e-6, name=f"gaussian-{n}"
    )


def run_size(n: int, num_rhs: int, budget_bytes: int, workdir: Path) -> dict:
    high_water_bound = int(HIGH_WATER_BUDGET_MULTIPLE * budget_bytes + HIGH_WATER_SLACK_BYTES)
    config = GOFMMConfig(streaming_chunk_bytes=budget_bytes, **FINE)
    matrix = gaussian_matrix(n)

    t0 = time.perf_counter()
    operator = Session(matrix, config).compress()
    compress_seconds = time.perf_counter() - t0

    store_path = workdir / f"operator-{n}.store"
    t0 = time.perf_counter()
    operator.save(store_path)
    save_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    mmap_operator = CompressedOperator.open(store_path, resident="mmap")
    open_seconds = time.perf_counter() - t0
    report = mmap_operator.report()

    # -- bit-identity: mmap'd streamed matvec vs in-memory streamed matvec --
    rng = np.random.default_rng(7)
    w_small = rng.standard_normal((n, min(num_rhs, 8)))
    reference = operator.apply(w_small, engine="streamed")
    bit_identical = bool(np.array_equal(mmap_operator.apply(w_small), reference))

    # -- out-of-core matvec: mmap weights -> column panels -> mmap outputs --
    weights_path = workdir / f"weights-{n}.npy"
    out_path = workdir / f"out-{n}.npy"
    np.save(weights_path, rng.standard_normal((n, num_rhs)))
    plan = mmap_operator.compressed.streaming_plan()
    panel_cols = plan.default_panel_cols(num_rhs)

    tracemalloc.start()
    t0 = time.perf_counter()
    plan.execute(str(weights_path), out=str(out_path), panel_cols=panel_cols)
    panel_seconds = time.perf_counter() - t0
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # The panel path must agree bit-for-bit with the same panel schedule run
    # on in-memory arrays (GEMM accumulation differs across RHS widths, so
    # the comparison fixes the width; bit-identity is per matched schedule).
    weights = np.load(weights_path)
    expected = np.empty_like(weights)
    for start in range(0, num_rhs, panel_cols):
        stop = min(start + panel_cols, num_rhs)
        expected[:, start:stop] = operator.apply(weights[:, start:stop], engine="streamed")
    panel_bit_identical = bool(np.array_equal(np.load(out_path), expected))

    store_bytes = int(report["bytes_on_disk"])
    weight_bytes = int(weights.nbytes)
    out_bytes = int(os.path.getsize(out_path))
    working_set = store_bytes + weight_bytes + out_bytes
    row = {
        "n": n,
        "num_rhs": num_rhs,
        "panel_cols": int(panel_cols),
        "compress_seconds": compress_seconds,
        "save_seconds": save_seconds,
        "open_seconds": open_seconds,
        "panel_matvec_seconds": panel_seconds,
        "store_bytes": store_bytes,
        "weight_bytes": weight_bytes,
        "out_bytes": out_bytes,
        "working_set_bytes": working_set,
        "working_set_over_budget": working_set / budget_bytes,
        "bytes_resident": int(report["bytes_resident"]),
        "traced_peak_bytes": int(traced_peak),
        "high_water_bound_bytes": high_water_bound,
        "bit_identical": bit_identical,
        "panel_bit_identical": panel_bit_identical,
    }
    for path in (weights_path, out_path):
        path.unlink()
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI (skips the >=4x extrapolation point)")
    parser.add_argument("--sizes", type=int, nargs="*", default=None)
    parser.add_argument("--rhs", type=int, default=None,
                        help="streamed right-hand sides (default 64 smoke / 512 full)")
    parser.add_argument(
        "--out", type=Path, default=Path(__file__).parent / "artifacts" / "out_of_core.json"
    )
    args = parser.parse_args()

    sizes = tuple(args.sizes) if args.sizes else (SMOKE_SIZES if args.smoke else DEFAULT_SIZES)
    num_rhs = args.rhs if args.rhs is not None else (64 if args.smoke else 512)
    budget_bytes = stream_budget_bytes()

    rows = []
    with tempfile.TemporaryDirectory(prefix="gofmm-ooc-") as tmp:
        for n in sizes:
            row = run_size(n, num_rhs, budget_bytes, Path(tmp))
            rows.append(row)
            status = "OK" if row["bit_identical"] and row["panel_bit_identical"] else "MISMATCH"
            print(
                f"n={n:>6}  store={row['store_bytes']/2**20:7.2f}MiB  "
                f"working_set={row['working_set_over_budget']:5.2f}x budget  "
                f"heap_peak={row['traced_peak_bytes']/2**20:6.2f}MiB "
                f"(bound {row['high_water_bound_bytes']/2**20:.2f}MiB)  {status}"
            )
            if not (row["bit_identical"] and row["panel_bit_identical"]):
                raise SystemExit(f"n={n}: mmap'd matvec is not bit-identical to reference")
            if row["traced_peak_bytes"] > row["high_water_bound_bytes"]:
                raise SystemExit(
                    f"n={n}: heap high-water {row['traced_peak_bytes']} exceeds the "
                    f"pinned bound {row['high_water_bound_bytes']}"
                )

    if not args.smoke and not any(r["working_set_over_budget"] >= 4.0 for r in rows):
        raise SystemExit(
            "no measured point reached a working set >= 4x the streaming budget; "
            "raise --rhs / --sizes or lower GOFMM_STREAM_BUDGET_MB"
        )

    artifact = {
        "benchmark": "out_of_core",
        "memory": memory_probe(),
        "stream_budget_bytes": budget_bytes,
        "high_water_budget_multiple": HIGH_WATER_BUDGET_MULTIPLE,
        "high_water_slack_bytes": HIGH_WATER_SLACK_BYTES,
        "smoke": bool(args.smoke),
        "results": rows,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

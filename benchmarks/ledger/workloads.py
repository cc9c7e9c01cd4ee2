"""The ledger's four workloads: what is run, at what size, and why.

A workload is pure data.  ``path.py`` (end-to-end pass) and ``layers.py``
(traced pass) receive the inputs generated from it and never see its name.
README.md records the measured stage shares behind every "why".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class Serve:
    """Traffic of the serving phases (``serve_mixed`` only), see ``loadgen.py``."""

    max_batch: int = 16
    max_wait_ms: float = 2.0
    max_queue: int = 4096
    bursts: int = 5
    burst_requests: int = 4000
    rates: tuple = (300.0, 600.0)    # open loop, every 5th request interactive
    solve_rate: float = 300.0        # open loop, every 20th request a solve
    phase_seconds: float = 6.0
    interactive_every: int = 5
    solve_every: int = 20
    solve_tolerance: float = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    matrix: str                      # repro.matrices.build_matrix name
    n: int
    config: dict                     # GOFMMConfig fields (seed is added at run time)
    eps2_ceiling: float              # correctness gate: >= 3x the largest eps2 over 25-40 seeds
    solve_shift: float = 10.0
    solve_tolerance: float = 1e-6
    reps: int = 4                    # walks of the whole path at the default --seconds (scaled with it)
    matvec_calls: int = 10           # per rep, on that rep's fresh operator
    panel_rhs: int = 64
    panel_cols: int = 16
    serve: Optional[Serve] = None
    smoke: bool = False


WORKLOADS = (
    Workload(
        name="fmm_fine",
        why="32768 pts, 512 leaves of 64, rank 32, cached+planned: per-node and per-block "
            "overhead dominates; matvec is L2L-heavy and memory-bound",
        matrix="K05",
        n=32768,
        config=dict(leaf_size=64, max_rank=32, tolerance=1e-5, neighbors=16, budget=0.03,
                    distance="angle"),
        eps2_ceiling=1.5e-2,
        reps=3,
    ),
    Workload(
        name="hss_coarse",
        why="16384 pts, 32 leaves of 512, rank 256, HSS (budget 0): LAPACK/BLAS-sized work; "
            "per-node optimisations must show no change here, CPQR and sampling show first",
        matrix="K05",
        n=16384,
        config=dict(leaf_size=512, max_rank=256, tolerance=1e-7, neighbors=32, budget=0.0,
                    distance="kernel"),
        eps2_ceiling=5e-4,
    ),
    Workload(
        name="stream_ooc",
        why="16384 pts, no cached blocks: streamed engine re-materialises every block per "
            "matvec; guards memory and the out-of-core path against gains bought on the cached one",
        matrix="K07",
        n=16384,
        config=dict(leaf_size=128, max_rank=64, tolerance=1e-5, neighbors=16, budget=0.03,
                    cache_near_blocks=False, cache_far_blocks=False),
        eps2_ceiling=5e-2,
        # shift 10 / 1e-6 costs 80 streamed matvecs: a stiffer shift keeps the solver in the
        # path at a cost the run can afford.
        solve_shift=1e4,
        solve_tolerance=1e-4,
        matvec_calls=3,
    ),
    Workload(
        name="serve_mixed",
        why="4096-pt inverse graph Laplacian, no coordinates (the geometry-oblivious case): "
            "calls are short so Python overhead shows; the traced run serves mixed-lane traffic",
        matrix="G03",
        n=4096,
        config=dict(leaf_size=128, max_rank=64, neighbors=16, budget=0.03, distance="angle"),
        eps2_ceiling=0.5,              # G03: eps2 2e-2, one seed in 40 reads 0.11
        reps=12,
        matvec_calls=30,
        serve=Serve(),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def smoke(workload: Workload) -> Workload:
    """The same path at n <= 1024 (tier-1 smoke test): checks names, not speed."""
    config = dict(workload.config)
    config["leaf_size"] = min(config["leaf_size"], 64)
    config["max_rank"] = min(config["max_rank"], 32)
    serve = workload.serve and replace(
        workload.serve, bursts=1, burst_requests=64, rates=(100.0, 200.0), solve_rate=100.0,
        phase_seconds=0.3,
    )
    return replace(
        workload, n=512, config=config, eps2_ceiling=1.0, reps=1, matvec_calls=2, serve=serve,
        smoke=True,
    )

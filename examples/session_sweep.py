#!/usr/bin/env python
"""Staged sessions: a warm parameter sweep plus SciPy solver interop.

The staged session API (``repro.api``) keeps the compression pipeline's
stage artifacts — partition, ANN table, interaction lists, skeletons, near
blocks, far blocks, plan — individually cached, so a parameter sweep
rebuilds only what each change invalidates:

1. create a :class:`repro.api.Session` and compress once (cold),
2. sweep ``tolerance`` / ``budget`` via :meth:`Session.recompress` — every
   warm point reuses the tree + ANN artifacts, and a point that changes
   ``tolerance`` alone also shares the previous point's near blocks,
3. use the resulting :class:`repro.api.CompressedOperator` directly with
   ``scipy.sparse.linalg`` (it *is* a ``LinearOperator``) and with the
   built-in preconditioned ``solve`` (a direct solve for HSS operators),
4. attach a second kernel matrix to the same session: an operator family
   on one shared partition.

Run:  python examples/session_sweep.py [N]    (default N=2048; CI uses 512)
"""

from __future__ import annotations

import sys

import numpy as np
import scipy.sparse.linalg as sla

from repro import GOFMMConfig
from repro.api import Session
from repro.matrices import KernelMatrix
from repro.matrices.datasets import clustered_points
from repro.matrices.kernels import GaussianKernel
from repro.reporting import format_table

SWEEP = [
    dict(tolerance=1e-2, budget=0.01),
    dict(tolerance=1e-3, budget=0.03),
    dict(tolerance=1e-4, budget=0.03),      # tolerance only: near blocks are reused too
    dict(tolerance=1e-5, budget=0.05),
    dict(tolerance=1e-7, budget=0.10),
]


def main(n: int = 2048) -> None:
    rng = np.random.default_rng(0)
    points = clustered_points(n, ambient_dim=6, intrinsic_dim=3, clusters=4, seed=0)
    matrix = KernelMatrix(points, GaussianKernel(bandwidth=1.0), regularization=1e-6, name="session-sweep")

    config = GOFMMConfig(
        leaf_size=128, max_rank=128, neighbors=16, distance="angle", seed=0, **SWEEP[0]
    )

    # --- 1+2. one session, many configurations ------------------------------
    session = Session(matrix, config)
    rows = []
    for overrides in SWEEP:
        operator = session.recompress(**overrides)
        report = operator.report
        rows.append([
            f"{session.config.tolerance:g}",
            f"{session.config.budget:.0%}",
            operator.relative_error(num_rhs=8),
            f"{operator.rank_summary()['mean']:.1f}",
            f"{report.total_seconds:.3f}",
            ",".join(session.last_reused) or "(cold)",
        ])
    print(format_table(
        ["tau", "budget", "eps2", "avg rank", "rebuild [s]", "reused stages"],
        rows,
        title=f"Warm parameter sweep (N={n}): tree + ANN built once",
    ))
    print(f"stage build counts: {dict(session.stage_builds)}")

    # --- 3. SciPy interop: the operator IS a LinearOperator -----------------
    operator = session.recompress(tolerance=1e-5, budget=0.05)
    b = rng.standard_normal(n)

    shifted = sla.LinearOperator(  # regularized system (K + I) x = b
        shape=operator.shape, dtype=operator.dtype,
        matvec=lambda v: operator.matvec(v) + np.asarray(v).reshape(-1),
    )
    x_cg, info = sla.cg(shifted, b, rtol=1e-8, maxiter=500)
    assert info == 0, f"scipy cg did not converge (info={info})"

    result = operator.solve(b, shift=1.0, tolerance=1e-8)  # built-in PCG
    print()
    print(f"scipy.sparse.linalg.cg:   residual "
          f"{np.linalg.norm(shifted.matvec(x_cg) - b) / np.linalg.norm(b):.2e}")
    print(f"operator.solve (PCG):     {result.iterations} iterations, "
          f"converged={result.converged}, max |x_cg - x_pcg| = "
          f"{np.max(np.abs(x_cg - result.solution)):.2e}")

    # --- 4. an operator family on one shared partition ----------------------
    wide = KernelMatrix(points, GaussianKernel(bandwidth=2.0), regularization=1e-6, name="wide-kernel")
    sibling = session.attach(wide)
    wide_op = sibling.compress()
    print()
    print(f"attached bandwidth-2.0 kernel: eps2={wide_op.relative_error(num_rhs=8):.2e}, "
          f"stages built={list(sibling.last_built)} (partition/ANN shared)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2048)

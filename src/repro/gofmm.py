"""Top-level user API of the GOFMM reproduction.

Typical one-shot usage::

    import numpy as np
    from repro import gofmm
    from repro.matrices import build_matrix

    K = build_matrix("K02", n=2048)
    config = gofmm.GOFMMConfig(leaf_size=128, max_rank=128, tolerance=1e-5, budget=0.05)
    Ktilde, report = gofmm.compress(K, config, return_report=True)

    w = np.random.default_rng(0).standard_normal((K.n, 4))
    u = Ktilde.matvec(w)                      # ≈ K @ w in O(N) / O(N log N)
    eps2 = Ktilde.relative_error()            # the paper's ε2 metric

``matvec`` runs one of two engines, picked by where the blocks live
(:meth:`CompressedMatrix.default_engine`): ``"planned"``, packed
level-batched GEMMs over the cached evaluation plan, when every block is
resident, and ``"streamed"``, the same passes with blocks materialized
chunk by chunk in a bounded workspace, otherwise.

Compression has one skeletonizer (:mod:`repro.core.skeletonization`): a
bottom-up level sweep of shape-bucketed stacked pivoted QRs.
``config.compression_workers`` fans whole subtrees out over threads;
per-node sampling streams make every worker count bitwise identical::

    config = gofmm.GOFMMConfig(compression_workers=4)
    Ktilde = gofmm.compress(K, config)

The functions here are thin, backwards-compatible wrappers over the staged
session API of :mod:`repro.api` — for parameter sweeps, operator families
or SciPy solver interop, use :class:`repro.api.Session` directly::

    from repro.api import Session

    session = Session(K, config)
    operator = session.compress()                  # scipy LinearOperator
    op2 = session.recompress(tolerance=1e-3)       # reuses tree + ANN work

Both paths produce identical results (the pipeline stages and their
per-stage seeding are shared); the session simply caches stage artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
import time
from typing import Optional

import numpy as np

from .api.operator import CompressedOperator
from .api.session import Session
from .api.stages import changed_fields
from .config import DistanceMetric, GOFMMConfig, default_config, fmm_config, hss_config
from .core.accuracy import exact_relative_error, relative_error
from .core.compress import CompressionReport
from .core.hmatrix import CompressedMatrix
from .errors import EvaluationError

__all__ = [
    "GOFMMConfig",
    "DistanceMetric",
    "default_config",
    "hss_config",
    "fmm_config",
    "compress",
    "compress_operator",
    "compress_hss",
    "compress_fmm",
    "CompressedMatrix",
    "CompressedOperator",
    "CompressionReport",
    "Session",
    "RunResult",
    "run",
    "compare_fmm_hss",
]


def compress(
    matrix,
    config: Optional[GOFMMConfig] = None,
    coordinates: Optional[np.ndarray] = None,
    return_report: bool = False,
):
    """Compress an SPD matrix into a hierarchical (FMM/HSS) representation.

    Backwards-compatible wrapper over a one-shot :class:`repro.api.Session`;
    returns the :class:`CompressedMatrix` (optionally with the
    :class:`CompressionReport`).  For reusable stage artifacts across
    parameter changes, hold on to a session instead.
    """
    session = Session(matrix, config, coordinates=coordinates)
    operator = session.compress()
    if return_report:
        return operator.compressed, operator.report
    return operator.compressed


def compress_operator(
    matrix,
    config: Optional[GOFMMConfig] = None,
    coordinates: Optional[np.ndarray] = None,
) -> CompressedOperator:
    """One-shot compression returning the SciPy-compatible operator."""
    return Session(matrix, config, coordinates=coordinates).compress()


def compress_hss(matrix, **config_overrides) -> CompressedMatrix:
    """Compress with ``budget = 0`` (pure HSS / HODLR structure, S = 0 in Eq. (1))."""
    return compress(matrix, hss_config(**config_overrides))


def compress_fmm(matrix, budget: float = 0.03, **config_overrides) -> CompressedMatrix:
    """Compress with a nonzero direct-evaluation budget (the FMM variant)."""
    return compress(matrix, fmm_config(budget=budget, **config_overrides))


@dataclass
class RunResult:
    """One full compress + evaluate run, as reported in the paper's tables.

    ``compression_seconds`` and ``evaluation_seconds`` correspond to the
    "Comp" and "Eval" columns; ``epsilon2`` to the accuracy column; and
    ``average_rank`` to the average skeleton rank the text quotes.
    """

    compressed: CompressedMatrix
    report: CompressionReport
    compression_seconds: float
    evaluation_seconds: float
    epsilon2: float
    average_rank: float
    num_rhs: int
    engine: str = "planned"

    def summary(self) -> str:
        return (
            f"eps2={self.epsilon2:.2e}  comp={self.compression_seconds:.3f}s  "
            f"eval={self.evaluation_seconds:.3f}s  avg-rank={self.average_rank:.1f}"
        )


def _evaluate_run(
    compressed: CompressedMatrix,
    report: CompressionReport,
    compression_seconds: float,
    num_rhs: int,
    exact_error: bool,
    rng: np.random.Generator,
    engine: Optional[str],
) -> RunResult:
    """Shared evaluate + ε2 measurement behind :func:`run` / :func:`compare_fmm_hss`."""
    engine = engine or compressed.default_engine()

    w = rng.standard_normal((compressed.n, num_rhs))
    t1 = time.perf_counter()
    compressed.matvec(w, engine=engine)
    evaluation_seconds = time.perf_counter() - t1

    if exact_error:
        eps2 = exact_relative_error(compressed, compressed.matrix, num_rhs=min(num_rhs, 10), rng=rng, engine=engine)
    else:
        eps2 = relative_error(compressed, compressed.matrix, num_rhs=min(num_rhs, 10), rng=rng, engine=engine)

    return RunResult(
        compressed=compressed,
        report=report,
        compression_seconds=compression_seconds,
        evaluation_seconds=evaluation_seconds,
        epsilon2=eps2,
        average_rank=compressed.rank_summary()["mean"],
        num_rhs=num_rhs,
        engine=engine,
    )


def run(
    matrix,
    config: Optional[GOFMMConfig] = None,
    num_rhs: int = 16,
    exact_error: bool = False,
    rng: Optional[np.random.Generator] = None,
    engine: Optional[str] = None,
    session: Optional[Session] = None,
) -> RunResult:
    """Compress, evaluate ``num_rhs`` right-hand sides, and measure ε2.

    This is the unit of work behind every table/figure harness in
    ``benchmarks/``: it mirrors the paper's experiment workflow (compress,
    evaluate, report runtime and accuracy).  ``engine`` overrides the
    matvec engine (``"planned"`` / ``"streamed"``); the planned engine's
    one-time plan construction is charged to evaluation time here.

    Passing ``session`` reuses that session's cached stage artifacts
    (``config`` is then applied via :meth:`Session.recompress`, and
    ``matrix`` must be ``None`` or the session's own matrix — the run is
    always measured against ``session.matrix``), so repeated ``run`` calls
    in a sweep pay only for the invalidated stages.
    """
    rng = rng or np.random.default_rng(0)
    config = config or (session.config if session is not None else GOFMMConfig())

    t0 = time.perf_counter()
    if session is None:
        session = Session(matrix, config)
        operator = session.compress()
    else:
        if matrix is not None and matrix is not session.matrix:
            raise EvaluationError(
                "run(session=...) evaluates the session's own matrix; pass matrix=None "
                "(or session.matrix), or use session.attach(matrix) for a different operator"
            )
        operator = session.recompress(**_config_changes(session.config, config))
    compression_seconds = time.perf_counter() - t0

    return _evaluate_run(
        operator.compressed, operator.report, compression_seconds, num_rhs, exact_error, rng, engine
    )


def _config_changes(old: GOFMMConfig, new: GOFMMConfig) -> dict:
    """Field-value changes turning ``old`` into ``new`` (for Session.recompress)."""
    return {name: getattr(new, name) for name in changed_fields(old, new)}


def compare_fmm_hss(
    matrix,
    budget: float = 0.03,
    num_rhs: int = 16,
    **config_overrides,
) -> dict[str, RunResult]:
    """Run the same matrix as HSS (budget 0) and FMM (given budget) — the Figure 6 experiment.

    Both variants share one session, so the FMM run reuses the HSS run's
    partition and ANN artifacts (only the interaction lists and the stages
    downstream differ between the two).
    """
    session = Session(matrix, hss_config(**config_overrides))
    rng = np.random.default_rng(0)

    t0 = time.perf_counter()
    hss_op = session.compress()
    hss_seconds = time.perf_counter() - t0
    hss = _evaluate_run(hss_op.compressed, hss_op.report, hss_seconds, num_rhs, False, rng, None)

    t0 = time.perf_counter()
    fmm_op = session.recompress(budget=budget)
    fmm_seconds = time.perf_counter() - t0
    fmm = _evaluate_run(fmm_op.compressed, fmm_op.report, fmm_seconds, num_rhs, False, np.random.default_rng(0), None)

    return {"hss": hss, "fmm": fmm}

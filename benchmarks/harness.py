"""Shared helpers for the benchmark harness.

Every table and figure of the paper's §4 has one module in this directory;
each prints the rows/series of the corresponding paper item (so the output
can be pasted into EXPERIMENTS.md) and registers the heavy step with
pytest-benchmark so ``pytest benchmarks/ --benchmark-only`` produces timing
statistics.

Problem sizes default to laptop scale and can be raised with the
``GOFMM_BENCH_N`` environment variable (e.g. ``GOFMM_BENCH_N=8192``).  The
paper's absolute numbers were measured on HPC nodes; what these harnesses
reproduce is the *shape* of each result (who wins, scaling slopes,
crossovers), as recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import contextlib
import os
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from repro import GOFMMConfig, compress
from repro.api import Session
from repro.core.accuracy import relative_error
from repro.matrices import build_matrix

__all__ = [
    "problem_size",
    "sweep_scale",
    "GOFMMRun",
    "run_gofmm",
    "run_gofmm_session",
    "once",
    "traced_peak_bytes",
    "memory_probe",
    "add_trace_argument",
    "tracing_from_args",
    "trace_section",
]


def add_trace_argument(parser) -> None:
    """Register the shared ``--trace`` flag on a bench CLI parser.

    ``--trace`` alone enables span tracing for the run and attaches the
    trace summary (:func:`repro.obs.summary`) to the JSON artifact under
    ``"trace"``; ``--trace PATH`` additionally writes the Chrome
    trace-event JSON to ``PATH`` (open it in Perfetto / chrome://tracing).
    """
    parser.add_argument(
        "--trace",
        metavar="PATH",
        nargs="?",
        const="",
        default=None,
        help="enable span tracing; with PATH also write the Chrome trace JSON there",
    )


@contextlib.contextmanager
def tracing_from_args(args):
    """Active :class:`~repro.obs.Tracer` while the block runs, or ``None``.

    Resets the pipeline counters at entry so the artifact's trace section
    reflects this run alone.
    """
    if getattr(args, "trace", None) is None:
        yield None
        return
    from repro.obs import counters as obs_counters
    from repro.obs.trace import Tracer, tracing

    obs_counters.reset()
    tracer = Tracer()
    with tracing(tracer):
        yield tracer


def trace_section(tracer, args) -> dict | None:
    """The artifact ``"trace"`` section for a traced run (``None`` untraced).

    Writes the Chrome trace file too when ``--trace PATH`` named one.
    """
    if tracer is None:
        return None
    from repro.obs.export import summary, write_chrome_trace

    if getattr(args, "trace", ""):
        write_chrome_trace(tracer, args.trace)
        print(f"wrote Chrome trace to {args.trace}")
    return summary(tracer)


def traced_peak_bytes(fn) -> int:
    """tracemalloc high-water mark of one untimed call.

    One shared implementation (behind :func:`memory_probe`) so the memory
    sections of every bench artifact stay directly comparable.
    """
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def memory_probe(fn=None) -> dict:
    """Process high-water memory for a bench artifact's ``memory`` section.

    Returns ``{"ru_maxrss_kb": ...}`` — the process-lifetime peak RSS from
    ``getrusage`` (kilobytes on Linux; monotone, so it reflects the largest
    phase run so far, not just ``fn``) — plus ``{"traced_peak_bytes": ...}``
    when a callable is given (the tracemalloc high-water of that one call;
    Python-heap allocations only, so mmap'd pages are *not* counted — which
    is exactly why it is the honest out-of-core residency measure).
    Every benchmark writes this dict into its JSON artifact so memory
    regressions are visible run over run.
    """
    out: dict = {}
    if fn is not None:
        out["traced_peak_bytes"] = traced_peak_bytes(fn)
    try:
        import resource

        out["ru_maxrss_kb"] = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:  # pragma: no cover - resource is POSIX-only
        out["ru_maxrss_kb"] = 0
    return out


def problem_size(default: int = 1024) -> int:
    """Problem size used by the benchmarks (override with GOFMM_BENCH_N)."""
    return int(os.environ.get("GOFMM_BENCH_N", default))


def sweep_scale() -> float:
    """Multiplier applied to sweep extents (override with GOFMM_BENCH_SCALE)."""
    return float(os.environ.get("GOFMM_BENCH_SCALE", 1.0))


@dataclass
class GOFMMRun:
    """One compress + evaluate measurement (a row of the paper's tables)."""

    name: str
    n: int
    config: GOFMMConfig
    epsilon2: float
    compression_seconds: float
    evaluation_seconds: float
    average_rank: float
    entry_evaluations: int
    num_rhs: int

    @property
    def eval_gflops(self) -> float:
        return 0.0 if self.evaluation_seconds <= 0 else self.flops / self.evaluation_seconds / 1e9

    flops: float = 0.0


def _measure(compressed, matrix, config, comp_seconds, start_entries, num_rhs, name, rng, engine) -> GOFMMRun:
    """Shared evaluate + ε2 measurement behind the run_* helpers."""
    engine = engine or compressed.default_engine()
    if engine == "planned":
        compressed.plan()

    # Evaluation is fast relative to compression, so take the best of a few
    # repetitions — single measurements at millisecond scale are dominated by
    # BLAS thread scheduling noise.
    w = rng.standard_normal((matrix.n, num_rhs))
    eval_seconds = float("inf")
    for _ in range(3):
        t1 = time.perf_counter()
        compressed.matvec(w, engine=engine)
        eval_seconds = min(eval_seconds, time.perf_counter() - t1)

    eps2 = relative_error(compressed, matrix, num_rhs=min(num_rhs, 10), num_sample_rows=100, rng=rng, engine=engine)
    return GOFMMRun(
        name=name or getattr(matrix, "name", "matrix"),
        n=matrix.n,
        config=config,
        epsilon2=eps2,
        compression_seconds=comp_seconds,
        evaluation_seconds=eval_seconds,
        average_rank=compressed.rank_summary()["mean"],
        entry_evaluations=matrix.entry_evaluations - start_entries,
        num_rhs=num_rhs,
        flops=compressed.evaluation_flops(num_rhs),
    )


def run_gofmm(matrix, config: GOFMMConfig, num_rhs: int = 64, name: str = "", rng=None, engine: str | None = None) -> GOFMMRun:
    """Compress, evaluate, and measure — the unit of work behind most harnesses.

    ``engine`` selects the matvec engine (``"planned"`` / ``"streamed"``;
    default: the compression's residency-picked ``default_engine()``);
    for the planned engine the one-time plan construction happens before the
    timed repetitions, matching how repeated matvecs amortize it in practice.
    """
    rng = rng or np.random.default_rng(0)
    start_entries = matrix.entry_evaluations

    t0 = time.perf_counter()
    compressed = compress(matrix, config)
    comp_seconds = time.perf_counter() - t0
    return _measure(compressed, matrix, config, comp_seconds, start_entries, num_rhs, name, rng, engine)


def run_gofmm_session(
    session: Session,
    overrides: dict | None = None,
    num_rhs: int = 64,
    name: str = "",
    rng=None,
    engine: str | None = None,
) -> GOFMMRun:
    """One sweep point through a staged session (warm where artifacts allow).

    ``overrides`` are applied via :meth:`Session.recompress`, so only the
    stages the changed fields invalidate are rebuilt; ``compression_seconds``
    therefore measures the *incremental* cost of this sweep point.
    """
    rng = rng or np.random.default_rng(0)
    matrix = session.matrix
    start_entries = matrix.entry_evaluations

    t0 = time.perf_counter()
    operator = session.recompress(**(overrides or {}))
    comp_seconds = time.perf_counter() - t0
    return _measure(
        operator.compressed, matrix, session.config, comp_seconds, start_entries, num_rhs, name, rng, engine
    )


def once(benchmark, fn):
    """Register ``fn`` with pytest-benchmark but execute it exactly once.

    The experiment functions are themselves long-running sweeps; statistical
    repetition would multiply the harness cost for no benefit.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)

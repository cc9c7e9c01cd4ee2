"""Traced pass: attribute time to layers by timing calls into each layer's
public functions from here, under the ledger's own span recorder.

Metric names are ``<module>.<metric>`` after the module under ``src/repro``
they time.  Probes are best-effort: they reach below the public API, so a
refactor may remove an entry point; such a probe reports ``None`` for its
metrics, bumps ``ledger.probe_errors`` and the run goes on.  A layer a
workload does not use (the packed plan on ``stream_ooc``, serving anywhere
but ``serve_mixed``) reports 0.  End-to-end metrics never come from here.
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import loadgen
from repro.api import CompressedOperator, Session

from .path import close, eps2_of, solve_residual
from .stats import median, percentile

PROBES = []


def probe(*names):
    """Register a probe and the metric names it must return."""
    def register(function):
        PROBES.append((names, function))
        return function
    return register


class Context:
    """What the probes share: inputs, recorder, and the operator under test."""

    def __init__(self, spec, inputs, recorder, scratch: str, tally, env: dict) -> None:
        self.spec, self.inputs, self.rec, self.scratch, self.tally, self.env = (
            spec, inputs, recorder, scratch, tally, env)
        self.values: dict = {}
        self.notes: dict = {}                    # cross-checks and sizes for the report
        self.opened = None                       # mmap-opened twin, set by the storage probe

    @functools.cached_property
    def op(self):
        """The operator under test, from the public API (built after the stage probe ran)."""
        return Session(self.inputs.matrix, self.inputs.config).compress()

    @property
    def cm(self):
        return self.op.compressed

    @property
    def planned(self) -> bool:
        return self.op.default_engine() == "planned"


def timed(call, reps: int) -> list[float]:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return samples


# -- compression stages -------------------------------------------------------------

@probe("core.tree.partition_s", "core.neighbors.ann_s", "core.neighbors.iterations",
       "core.interactions.lists_s", "core.interactions.near_pairs", "core.interactions.far_pairs",
       "core.skeletonization.skel_s", "core.skeletonization.avg_rank",
       "core.compress.blocks_s", "core.compress.cached_mb", "matrices.entry_evals_compress")
def compress_stages(ctx):
    """The calls ``repro.core.compress.compress`` makes, in its order, one span each.

    Runs first, three times on an otherwise empty heap with a collect between
    reps, like the end-to-end pass: the medians then include the same cold
    first rep, and the blocks stage is not slowed by a live previous tree.
    """
    stages = importlib.import_module("repro.core.compress")
    matrix, config, rec = ctx.inputs.matrix, ctx.inputs.config, ctx.rec
    for _ in range(3):
        distance = neighbors = tree = lists = stats = near = far = None
        gc.collect()
        evals = matrix.entry_evaluations
        with rec.span("compress"):
            with rec.span("core.distances"):
                distance = stages.run_distance_stage(matrix, config, None)
            with rec.span("core.neighbors"):
                neighbors = stages.run_neighbors_stage(distance, config)
            with rec.span("core.tree"):
                tree = stages.run_partition_stage(matrix.n, config, distance)
            with rec.span("core.interactions"):
                lists = stages.run_interactions_stage(tree, neighbors, config)
            with rec.span("core.skeletonization"):
                stats = stages.run_skeletons_stage(tree, matrix, config, neighbors)
            with rec.span("core.compress.blocks"):
                near, far = stages.run_blocks_stage(tree, matrix, config)
        evals = matrix.entry_evaluations - evals
    cached = near.bytes_resident + far.bytes_resident
    return {
        "core.tree.partition_s": median(rec.durations("core.tree")),
        "core.neighbors.ann_s": median(rec.durations("core.neighbors")),
        "core.neighbors.iterations": neighbors.iterations if neighbors is not None else 0,
        "core.interactions.lists_s": median(rec.durations("core.interactions")),
        "core.interactions.near_pairs": lists.total_near_pairs(),
        "core.interactions.far_pairs": lists.total_far_pairs(),
        "core.skeletonization.skel_s": median(rec.durations("core.skeletonization")),
        "core.skeletonization.avg_rank": stats.average_rank,
        "core.compress.blocks_s": median(rec.durations("core.compress.blocks")),
        "core.compress.cached_mb": cached / 2**20,
        "matrices.entry_evals_compress": evals,
    }


# -- matrices ---------------------------------------------------------------------

@probe("matrices.entries_per_s")
def matrix_entries(ctx):
    matrix, n = ctx.inputs.matrix, ctx.spec.n
    rng = np.random.default_rng(7)
    blocks, side = 256, min(128, n // 4)
    rows = [rng.choice(n, side, replace=False) for _ in range(blocks)]
    cols = [rng.choice(n, side, replace=False) for _ in range(blocks)]
    out = np.empty((blocks, side, side))
    seconds = median(timed(lambda: matrix.entries_batched(rows, cols, out=out), 3))
    return {"matrices.entries_per_s": blocks * side * side / seconds}


# -- machine ceilings -----------------------------------------------------------

def llc_bytes() -> int:
    """Last-level cache size from ``lscpu`` (32 MiB when it cannot be read)."""
    try:
        text = subprocess.run(["lscpu", "-B"], capture_output=True, text=True, timeout=10).stdout
        sizes = [int(line.split(":")[1].split()[0]) for line in text.splitlines()
                 if line.strip().startswith(("L2 cache", "L3 cache"))]
        return max(sizes)
    except (OSError, ValueError, IndexError, subprocess.SubprocessError):
        return 32 * 2**20


@probe("machine.gemm_gflops", "machine.copy_gbs", "machine.nproc", "machine.blas_threads",
       "repo.src_lines")
def machine(ctx):
    m = 256 if ctx.spec.smoke else 1536
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((m, m)), rng.standard_normal((m, m))
    gemm = min(timed(lambda: a @ b, 5))
    llc = llc_bytes()
    # Each array as large as the last-level cache, so the pair streams through it twice over.
    # Four times that (1 GB each here) read the same 17 GB/s, but first-touching 2 GB took
    # 10 s on a good day and minutes on a bad one: this VM's balloon takes freed pages back.
    size = min(llc, 64 * 2**20) if ctx.spec.smoke else llc
    src, dst = np.ones(size // 8), np.empty(size // 8)
    copy = min(timed(lambda: np.copyto(dst, src), 3))
    ctx.notes["machine"] = {"llc_bytes": llc, "copy_array_bytes": size, "gemm_size": m}
    source = Path(__file__).resolve().parents[2] / "src"
    lines = sum(len(p.read_text().splitlines()) for p in source.rglob("*.py"))
    return {
        "machine.gemm_gflops": 2.0 * m**3 / gemm / 1e9,
        "machine.copy_gbs": 2.0 * size / copy / 1e9,
        "machine.nproc": ctx.env["nproc"],
        "machine.blas_threads": ctx.env["blas_threads"],
        "repo.src_lines": lines,
    }


# -- the packed plan ----------------------------------------------------------------

PLAN_METRICS = ("core.plan.build_s", "core.plan.build_min_s", "core.plan.packed_mb",
                "core.plan.segments", "core.plan.n2s_s", "core.plan.s2s_s", "core.plan.s2n_s",
                "core.plan.l2l_s", "core.plan.l2l_gflops", "core.plan.matvec_gflops",
                "core.plan.flops_per_byte", "core.plan.roofline_frac")


def pass_loop(plan, weights, rec):
    """``EvaluationPlan.execute`` spelled out, one span per pass stage."""
    ctx = plan.new_context(weights)
    try:
        with rec.span("core.plan.matvec"):
            for label, stage in plan.stages():
                with rec.span("core.plan." + label.split("@")[0].lower()):
                    for segment in stage:
                        segment.run(ctx)
        return ctx.output
    finally:
        plan.release_context(ctx)


@probe(*PLAN_METRICS)
def packed_plan(ctx):
    if not ctx.planned:
        return dict.fromkeys(PLAN_METRICS, 0.0)
    cm, rec, weights = ctx.cm, ctx.rec, ctx.inputs.weights
    builds = timed(lambda: cm.plan(rebuild=True), 2)
    plan = cm.plan()
    ctx.tally.check(np.array_equal(pass_loop(plan, weights, rec), plan.execute(weights)),
                    "span pass loop != EvaluationPlan.execute")
    for _ in range(8):
        pass_loop(plan, weights, rec)
    calls = rec.child_seconds("core.plan.matvec")
    passes = {kind: median([call.get("core.plan." + kind, 0.0) for call in calls])
              for kind in ("n2s", "s2s", "s2n", "l2l")}
    matvec = median(rec.durations("core.plan.matvec"))
    width = weights.shape[1]
    flops = sum(plan.flops_per_rhs.values()) * width
    packed_bytes = plan.packed_entries() * 8
    # computed, not measured: flops over the packed operand bytes one matvec must read
    flops_per_byte = flops / packed_bytes
    values = {
        "core.plan.build_s": median(builds),
        "core.plan.build_min_s": min(builds),
        "core.plan.packed_mb": packed_bytes / 2**20,
        "core.plan.segments": plan.num_segments,
        **{f"core.plan.{kind}_s": seconds for kind, seconds in passes.items()},
        "core.plan.l2l_gflops": (
            plan.flops_per_rhs["l2l"] * width / passes["l2l"] / 1e9 if passes["l2l"] else 0.0),
        "core.plan.matvec_gflops": flops / matvec / 1e9,
        "core.plan.flops_per_byte": flops_per_byte,
    }
    gemm, copy = ctx.values.get("machine.gemm_gflops"), ctx.values.get("machine.copy_gbs")
    roof = min(gemm, copy * flops_per_byte) if gemm and copy else None
    values["core.plan.roofline_frac"] = values["core.plan.matvec_gflops"] / roof if roof else None
    return values


@probe("core.plan.matvec1_s", "core.plan.matvec128_s", "ledger.trace_overhead_frac")
def matvec_widths(ctx):
    """Default engine at r = 1 (per-call overhead) and r = 128 (BLAS-3 regime)."""
    rng = np.random.default_rng(11)
    one, wide = rng.standard_normal((ctx.spec.n, 1)), rng.standard_normal((ctx.spec.n, 128))
    weights, op, rec = ctx.inputs.weights, ctx.op, ctx.rec
    reps = 8 if ctx.planned else 4               # a streamed matvec is ten times a planned one
    bare, spanned = [], []
    for _ in range(reps):                        # alternate, so drift hits both alike
        bare += timed(lambda: op.apply(weights), 1)
        if ctx.planned:
            spanned += timed(lambda: pass_loop(ctx.cm.plan(), weights, rec), 1)
        else:
            with rec.span("core.streaming.matvec"):
                spanned += timed(lambda: op.apply(weights), 1)
    ctx.notes["matvec16_s"] = median(bare)
    return {
        "core.plan.matvec1_s": median(timed(lambda: op.apply(one), reps)),
        "core.plan.matvec128_s": median(timed(lambda: op.apply(wide), reps // 2)),
        "ledger.trace_overhead_frac": median(spanned) / median(bare) - 1.0,
    }


# -- storage, then the streamed engine on the operator opened from the store ---------

def directory_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


@probe("storage.store.save_s", "storage.store.save_min_s", "storage.store.open_s",
       "storage.store.first_matvec_s", "storage.store.disk_mb")
def storage(ctx):
    store = importlib.import_module("repro.storage.store").OperatorStore
    path, rec = os.path.join(ctx.scratch, "traced.store"), ctx.rec
    for _ in range(2):
        with rec.span("storage.store.save"):
            store.save(ctx.op, path)
    with rec.span("storage.store.open"):
        compressed = store(path).open(resident="mmap", matrix=ctx.inputs.matrix)
    ctx.opened = CompressedOperator(compressed)
    with rec.span("storage.store.first_matvec"):
        answer = ctx.opened.apply(ctx.inputs.weights)
    ctx.tally.check(close(answer, ctx.op.apply(ctx.inputs.weights)), "traced mmap matvec differs")
    saves = rec.durations("storage.store.save")
    return {
        "storage.store.save_s": median(saves),
        "storage.store.save_min_s": min(saves),
        "storage.store.open_s": rec.durations("storage.store.open")[0],
        "storage.store.first_matvec_s": rec.durations("storage.store.first_matvec")[0],
        "storage.store.disk_mb": directory_bytes(path) / 2**20,
    }


@probe("core.streaming.plan_build_s", "core.streaming.fill_s", "core.streaming.fill_share",
       "core.streaming.chunks", "core.streaming.blocks_materialized",
       "core.streaming.kernel_entries", "core.streaming.workspace_mb", "core.streaming.index_mb")
def streaming(ctx):
    """Chunk fill timed alone: every chunk materialised in order into one buffer."""
    cm, rec, weights = ctx.opened.compressed, ctx.rec, ctx.inputs.weights
    with rec.span("core.streaming.plan_build"):
        plan = cm.streaming_plan(rebuild=True)
    chunks = plan.s2s_chunks + plan.l2l_chunks
    buffer = np.empty(plan.buffer_elems)
    fills = []
    for _ in range(2):
        with rec.span("core.streaming.fill") as span:
            for chunk in chunks:
                chunk.materialize(plan.near_blocks, plan.far_blocks, plan.matrix, buffer)
        fills.append(span["end"] - span["start"])
    matvec = median(timed(lambda: ctx.opened.apply(weights), 2))
    report = plan.report()
    return {
        "core.streaming.plan_build_s": rec.durations("core.streaming.plan_build")[0],
        "core.streaming.fill_s": median(fills),
        "core.streaming.fill_share": median(fills) / matvec,
        "core.streaming.chunks": plan.num_chunks,
        "core.streaming.blocks_materialized": sum(c.num_blocks for c in chunks),
        "core.streaming.kernel_entries": sum(c.missing_elems for c in chunks),
        "core.streaming.workspace_mb": report["workspace_bytes"] / 2**20,
        "core.streaming.index_mb": report["index_bytes"] / 2**20,
    }


# -- accuracy and solver ---------------------------------------------------------------

@probe("eps2")
def accuracy(ctx):
    """The paper's sampled relative error; moves with the seed, so it carries no bound."""
    eps2 = eps2_of(ctx.op, ctx.inputs.seed)
    ctx.tally.check(eps2 <= ctx.spec.eps2_ceiling, f"eps2 {eps2:.3e} > {ctx.spec.eps2_ceiling:g}")
    return {"eps2": eps2}


@probe("solvers.cg_iterations", "solvers.precond_build_s", "solvers.precond_apply_s",
       "solvers.matvec_s", "solvers.self_s")
def solver(ctx):
    """``CompressedOperator.solve`` spelled out, with timing closures on both callbacks."""
    solvers = importlib.import_module("repro.solvers")
    spec, rec, cm, rhs = ctx.spec, ctx.rec, ctx.cm, ctx.inputs.rhs

    def spanned(name, call):
        def wrapper(x):
            with rec.span(name):
                return call(x)
        return wrapper

    with rec.span("solvers.precond_build"):
        preconditioner = solvers.BlockJacobiPreconditioner(cm, shift=spec.solve_shift)
    with rec.span("solvers.cg"):
        result = solvers.conjugate_gradient(
            matvec=spanned("solvers.matvec", cm.matvec),
            rhs=rhs,
            shift=spec.solve_shift,
            tolerance=spec.solve_tolerance,
            preconditioner=spanned("solvers.precond_apply", preconditioner),
        )
    residual = solve_residual(ctx.op, result.solution, rhs, spec.solve_shift)
    ctx.tally.check(bool(result.converged) and residual <= 1.01 * spec.solve_tolerance,
                    f"traced solve converged={result.converged} residual={residual:.3e}")
    return {
        "solvers.cg_iterations": result.iterations,
        "solvers.precond_build_s": rec.durations("solvers.precond_build")[0],
        "solvers.precond_apply_s": sum(rec.durations("solvers.precond_apply")),
        "solvers.matvec_s": sum(rec.durations("solvers.matvec")),
        "solvers.self_s": rec.self_seconds()["solvers.cg"],
    }


# -- threaded executor ------------------------------------------------------------------

@probe("runtime.executor.matvec_w1_s", "runtime.executor.matvec_w2_s")
def executor(ctx):
    evaluate = importlib.import_module("repro.runtime").parallel_evaluate
    cm, weights = ctx.cm, ctx.inputs.weights
    reps = 5 if ctx.planned else 3
    return {
        f"runtime.executor.matvec_w{workers}_s": median(
            timed(lambda: evaluate(cm, weights, num_workers=workers), reps))
        for workers in (1, 2)
    }


# -- the program's own telemetry: overhead, and a cross-check of our outside spans --------

@probe("obs.trace_overhead_frac", "storage.spill.bytes_out")
def telemetry(ctx):
    obs = importlib.import_module("repro.obs")
    op, weights = ctx.op, ctx.inputs.weights
    tracer = obs.Tracer()
    reps = 8 if ctx.planned else 3
    off, on = [], []
    for _ in range(reps):
        off += timed(lambda: op.apply(weights), 1)
        with obs.tracing(tracer):
            on += timed(lambda: op.apply(weights), 1)
    traced = Session(ctx.inputs.matrix, ctx.inputs.config, tracer=tracer)
    traced.compress()
    inside = obs.summary(tracer)["by_name"]
    ours = {
        "session.partition": "core.tree", "session.neighbors": "core.neighbors",
        "session.interactions": "core.interactions", "session.skeletons": "core.skeletonization",
        "session.blocks": "core.compress.blocks", "eval.n2s": "core.plan.n2s",
        "eval.s2s": "core.plan.s2s", "eval.s2n": "core.plan.s2n", "eval.l2l": "core.plan.l2l",
    }
    # Reported, never turned into named metrics: inside spans are another run's.
    ctx.notes["inside_vs_outside_s"] = {
        name: {"inside": inside[name]["mean_s"], "outside": median(ctx.rec.durations(outside)),
               "difference": inside[name]["mean_s"] - median(ctx.rec.durations(outside))}
        for name, outside in ours.items()
        if name in inside and ctx.rec.durations(outside)
    }
    return {
        "obs.trace_overhead_frac": median(on) / median(off) - 1.0,
        "storage.spill.bytes_out": obs.counters.snapshot()["spill_bytes_out"],
    }


# -- serving ---------------------------------------------------------------------------------

SERVING_METRICS = (
    "serve_peak_rps", "serve_p50_ms", "serve_interactive_p50_ms", "serve_solve_p50_ms",
    "serving.router.submit_us", "serving.batcher.occupancy", "serving.batcher.batches",
    "serving.batcher.queue_wait_ms", "serving.server.batch_eval_ms",
    "serving.throughput_p90_ms", "serving.throughput_p99_ms", "serving.interactive_p90_ms",
    "serving.interactive_p99_ms", "serving.p50_at_300_ms", "serving.rejected", "serving.shed",
    "serving.errors", "loadgen.late_p99_ms", "loadgen.achieved_rate")


@probe(*SERVING_METRICS)
def serving(ctx):
    serve, op, tally = ctx.spec.serve, ctx.op, ctx.tally
    if serve is None:
        return dict.fromkeys(SERVING_METRICS, 0.0)
    vectors = np.random.default_rng([ctx.inputs.seed, 3]).standard_normal((ctx.spec.n, 64))
    shift = ctx.spec.solve_shift
    solve_params = dict(shift=shift, tolerance=serve.solve_tolerance)
    op.apply(np.zeros((ctx.spec.n, serve.max_batch)))       # plan and workspace before traffic
    op.preconditioner(shift)
    router = loadgen.start_router(op, serve)
    try:
        loadgen.closed_burst(router, vectors, min(256, serve.burst_requests))   # discarded
        bursts = [loadgen.closed_burst(router, vectors, serve.burst_requests)
                  for _ in range(serve.bursts)]
        low, high = (loadgen.open_loop(router, vectors, rate, serve.phase_seconds,
                                       interactive_every=serve.interactive_every)
                     for rate in serve.rates)
        solves = loadgen.open_loop(router, vectors, serve.solve_rate, serve.phase_seconds,
                                   solve_every=serve.solve_every, **solve_params)
        cluster = router.stats()["cluster"]
    finally:
        router.stop()
    phases = bursts + [low, high, solves]
    tally.attempted += sum(p.attempted for p in phases)
    tally.failures += ["served request rejected, shed or errored"] * sum(p.failed for p in phases)
    tally.check(all(len(p.responses) + p.failed == p.attempted for p in phases),
                "a submitted request was never resolved")
    matvecs = [r for r in high.responses if r[0] != "solve"]
    for kind, index, answer in matvecs[:: max(1, len(matvecs) // 32)][:32]:
        tally.check(close(answer, op.apply(vectors[:, index])), f"served {kind} matvec differs")
    for kind, index, answer in [r for r in solves.responses if r[0] == "solve"][:8]:
        column = vectors[:, index : index + 1]
        residual = solve_residual(op, answer.solution[:, None], column, shift)
        tally.check(residual <= 1.01 * serve.solve_tolerance, f"served solve residual {residual:.2e}")
    eval_ms = cluster["batch_eval_ms"]["mean"]
    late = [ms for p in (low, high, solves) for ms in p.late_ms]
    ctx.notes["serving"] = {"requests": cluster["requests"], "throughput_samples_at_high_rate":
                            len(high.latency_ms["throughput"]), "rates": list(serve.rates)}
    return {
        "serve_peak_rps": median([p.attempted / p.seconds for p in bursts]),
        "serve_p50_ms": high.p50("throughput"),
        "serve_interactive_p50_ms": high.p50("interactive"),
        "serve_solve_p50_ms": solves.p50("solve"),
        "serving.router.submit_us": median([us for p in phases for us in p.submit_us]),
        "serving.batcher.occupancy": cluster["batch_occupancy"],
        "serving.batcher.batches": cluster["batches"],
        "serving.batcher.queue_wait_ms": high.p50("throughput") - eval_ms,
        "serving.server.batch_eval_ms": eval_ms,
        "serving.throughput_p90_ms": high.tail("throughput", 90),
        "serving.throughput_p99_ms": high.tail("throughput", 99),
        "serving.interactive_p90_ms": high.tail("interactive", 90),
        "serving.interactive_p99_ms": high.tail("interactive", 99),
        "serving.p50_at_300_ms": low.p50("throughput"),
        "serving.rejected": cluster["rejected"],
        "serving.shed": cluster["shed"],
        "serving.errors": cluster["errors"],
        "loadgen.late_p99_ms": percentile(late, 99),
        "loadgen.achieved_rate": high.achieved_rate,
    }


def run(spec, inputs, recorder, scratch: str, tally, env: dict) -> tuple[dict, dict]:
    """Run every probe; returns (metric values, notes for the report)."""
    ctx = Context(spec, inputs, recorder, scratch, tally, env)
    errors = 0
    seconds = ctx.notes["probe_seconds"] = {}
    for names, function in PROBES:
        start = time.perf_counter()
        try:
            values = function(ctx)
            missing = set(names) - set(values)
            if missing:
                raise KeyError(f"probe {function.__name__} did not report {sorted(missing)}")
        except Exception:  # best-effort by design: report null, count it, go on
            traceback.print_exc(file=sys.stderr)
            values = dict.fromkeys(names)
            errors += 1
        seconds[function.__name__] = time.perf_counter() - start
        ctx.values.update(values)
    ctx.values["ledger.probe_errors"] = errors
    return ctx.values, ctx.notes

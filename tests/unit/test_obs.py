"""Unit tests for the telemetry layer (repro.obs): tracer, counters, export.

Covers the tentpole guarantees of the observability PR:

* span recording — nesting depth, attributes, per-thread buffers, and the
  module-level activation protocol (``get_tracer`` / ``set_tracer`` /
  ``tracing``),
* thread safety — concurrent recording from worker threads never corrupts
  buffers and preserves per-thread parent/child nesting,
* the Chrome trace-event export is valid JSON with the expected span names
  for a full compress → streamed matvec → served batch run, and the
  ``python -m repro.obs summarize`` CLI consumes it,
* the pinned overhead guard — a disabled tracer costs one attribute check
  per instrumentation site, and tracing never changes numerical results
  (bit-identity across all engines),
* schema pins — ``ServingMetrics.to_dict`` v3 (counters section, v2 keys
  unchanged) and ``CompressedOperator.report()`` v2 (``stage_seconds``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import GOFMMConfig
from repro.api import Session
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    chrome_trace,
    format_summary,
    get_tracer,
    set_tracer,
    summary,
    tracing,
    write_chrome_trace,
)
from repro.obs import counters as obs_counters
from repro.runtime import parallel_evaluate
from repro.serving import BatchPolicy, MatvecServer
from repro.serving.metrics import METRICS_SCHEMA_VERSION, ServingMetrics, aggregate_metrics

from ..conftest import make_gaussian_kernel_matrix

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

#: Stable-schema keys of ServingMetrics.to_dict as of schema v2 — pinned so
#: the v3 counters addition provably left them untouched.
V2_METRIC_KEYS = {
    "schema_version", "instances", "requests", "responses", "errors",
    "rejected", "shed", "batches", "batched_requests", "batch_occupancy",
    "reloads", "reload_failures", "max_queue_depth", "adaptive_wait_ms",
    "latency_ewma_ms", "bytes_resident", "bytes_on_disk", "latency_ms",
    "batch_eval_ms", "batch_sizes", "lanes",
}


def small_config(**overrides) -> GOFMMConfig:
    base = dict(
        leaf_size=32, max_rank=24, tolerance=1e-7, neighbors=8,
        budget=0.2, num_neighbor_trees=3, seed=0,
    )
    base.update(overrides)
    return GOFMMConfig(**base)


@pytest.fixture(scope="module")
def traced_run():
    """One fully traced compress → streamed matvec → served batch run."""
    obs_counters.reset()
    tracer = Tracer()
    matrix = make_gaussian_kernel_matrix(n=200, d=3, bandwidth=1.5, seed=3)
    session = Session(matrix, small_config(), tracer=tracer)
    t0 = time.perf_counter()
    operator = session.compress()
    compress_wall = time.perf_counter() - t0
    w = np.random.default_rng(0).standard_normal((matrix.n, 4))
    # Cached blocks run in place; a memoryless near cache fills chunks.
    memoryless = Session(matrix, small_config(cache_near_blocks=False)).compress()
    with tracing(tracer):
        operator.apply(w, engine="streamed")
        memoryless.apply(w, engine="streamed")
    server = MatvecServer(policy=BatchPolicy(max_batch=4, max_wait_ms=2.0), tracer=tracer)
    server.register("op", operator)
    with server:
        server.matvec("op", w[:, 0])
    return {
        "tracer": tracer,
        "session": session,
        "operator": operator,
        "compress_wall": compress_wall,
        "counters": obs_counters.snapshot(),
    }


class TestTracer:
    def test_span_records_name_duration_attrs(self):
        tracer = Tracer()
        with tracer.span("outer", n=3) as span:
            span.set(extra="yes")
        (recorded,) = tracer.spans()
        assert recorded.name == "outer"
        assert recorded.attrs == {"n": 3, "extra": "yes"}
        assert recorded.end >= recorded.start
        assert recorded.depth == 0
        assert not recorded.is_instant

    def test_nesting_depth(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        by_name = {s.name: s for s in tracer.spans()}
        assert [by_name[n].depth for n in "abc"] == [0, 1, 2]
        # children are contained in their parents
        assert by_name["a"].start <= by_name["b"].start
        assert by_name["b"].end <= by_name["a"].end

    def test_instant(self):
        tracer = Tracer()
        tracer.instant("tick", k=1)
        (span,) = tracer.spans()
        assert span.is_instant and span.duration == 0.0 and span.attrs == {"k": 1}

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.clear()
        assert tracer.spans() == []

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("anything", a=1) as span:
            span.set(b=2)  # must be accepted and discarded
        NULL_TRACER.instant("x")
        assert NULL_TRACER.spans() == []
        assert isinstance(NULL_TRACER, NullTracer)

    def test_activation_protocol(self):
        assert get_tracer() is NULL_TRACER
        tracer = Tracer()
        with tracing(tracer):
            assert get_tracer() is tracer
            with tracing(None):
                assert get_tracer() is NULL_TRACER
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_disabled_maps_to_null(self):
        previous = set_tracer(NullTracer())
        try:
            assert get_tracer() is NULL_TRACER
        finally:
            set_tracer(previous)


class TestThreadSafety:
    def test_concurrent_recording_is_lossless_and_nested(self):
        tracer = Tracer()
        threads, per_thread = 8, 50

        def hammer(i: int) -> None:
            for j in range(per_thread):
                with tracer.span("parent", worker=i, j=j):
                    with tracer.span("child", worker=i, j=j):
                        pass

        workers = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()

        spans = tracer.spans()
        assert len(spans) == threads * per_thread * 2
        by_thread: dict = {}
        for span in spans:
            by_thread.setdefault(span.thread_id, []).append(span)
        assert len(by_thread) == threads
        for mine in by_thread.values():
            # every child sits at depth 1 inside some depth-0 parent of the
            # same thread (interval containment; ties allowed at clock
            # resolution)
            parents = [s for s in mine if s.name == "parent"]
            children = [s for s in mine if s.name == "child"]
            assert len(parents) == len(children) == per_thread
            assert {s.depth for s in parents} == {0}
            assert {s.depth for s in children} == {1}
            for child in children:
                assert any(
                    p.start <= child.start and child.end <= p.end for p in parents
                )

    def test_worker_pool_matvec_spans_land_per_thread(self):
        matrix = make_gaussian_kernel_matrix(n=160, d=3, bandwidth=1.5, seed=5)
        from repro.gofmm import compress

        # Memoryless: only fill chunks run on the pool.
        compressed = compress(
            matrix, small_config(cache_near_blocks=False, cache_far_blocks=False)
        )
        w = np.random.default_rng(0).standard_normal((matrix.n, 8))
        tracer = Tracer()
        with tracing(tracer):
            parallel_evaluate(compressed, w, num_workers=4)
        tasks = [s for s in tracer.spans() if s.name == "executor.task"]
        assert tasks, "worker tasks were not traced"
        # spans recorded from the pool's threads, not the submitting thread
        assert all(s.thread_id != threading.get_ident() for s in tasks)
        for span in tasks:
            assert span.end >= span.start and "task" in span.attrs


class TestFullRunTrace:
    REQUIRED_SPANS = {
        "session.partition", "session.neighbors", "session.interactions",
        "session.skeletons", "session.near_blocks", "session.far_blocks", "session.plan",
        "skeletonize.level",
        "eval.n2s", "eval.s2s", "eval.s2n", "eval.l2l",
        "stream.chunk.fill",
        "serve.batch.assemble", "serve.batch.gemm",
    }

    def test_expected_span_names(self, traced_run):
        names = {s.name for s in traced_run["tracer"].spans()}
        assert self.REQUIRED_SPANS <= names

    def test_skeleton_spans_carry_level_and_counts(self, traced_run):
        levels = [s for s in traced_run["tracer"].spans() if s.name == "skeletonize.level"]
        assert levels
        for span in levels:
            assert span.attrs["nodes"] >= 1
            assert span.attrs["level"] >= 1
            assert span.attrs["entries"] >= 0

    def test_chrome_export_is_valid(self, traced_run, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(traced_run["tracer"], path)
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in ("X", "i", "M")
            assert "pid" in event and "tid" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0 and event["ts"] >= 0
        # worker threads appear as named tracks
        metadata = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
        assert metadata
        assert data["otherData"]["counters"] == traced_run["counters"]
        assert chrome_trace(traced_run["tracer"])["traceEvents"]

    def test_summarize_cli(self, traced_run, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(traced_run["tracer"], path)
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs", "summarize", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "span" in proc.stdout
        proc_json = subprocess.run(
            [sys.executable, "-m", "repro.obs", "summarize", str(path), "--json"],
            capture_output=True, text=True, env=env,
        )
        assert proc_json.returncode == 0
        assert json.loads(proc_json.stdout)["total_spans"] > 0

    def test_summary_dict_and_format(self, traced_run):
        report = summary(traced_run["tracer"])
        assert report["total_spans"] == len(traced_run["tracer"].spans())
        assert "session.skeletons" in report["by_name"]
        rendered = format_summary(report)
        assert "session.skeletons" in rendered

    def test_counters_advanced(self, traced_run):
        counters = traced_run["counters"]
        assert counters["kernel_entries_evaluated"] > 0
        assert counters["batches_assembled"] >= 1
        assert counters["batch_requests"] >= 1
        assert counters["gemm_bytes_n2s"] > 0

    def test_stage_timings_cover_compression_wall(self, traced_run):
        timings = traced_run["session"].stage_timings
        assert set(timings) >= {
            "partition", "neighbors", "interactions", "skeletons", "near_blocks", "far_blocks",
        }
        total = sum(timings.values())
        wall = traced_run["compress_wall"]
        assert 0 < total <= wall * 1.05
        # the stages are the compression: unaccounted overhead stays small
        assert total >= wall * 0.5

    def test_report_schema_v2(self, traced_run):
        report = traced_run["operator"].report()
        assert report["schema_version"] == 2
        stage_seconds = report["stage_seconds"]
        assert stage_seconds and all(v >= 0 for v in stage_seconds.values())
        assert abs(sum(stage_seconds.values()) - report["compression_seconds"]) < 1e-9


class TestOverheadAndBitIdentity:
    def test_disabled_check_is_cheap(self):
        # the entire disabled-telemetry cost at each instrumentation site:
        # one global load + one attribute read
        iterations = 50_000
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(iterations):
                if get_tracer().enabled:  # pragma: no cover - disabled here
                    raise AssertionError
            best = min(best, time.perf_counter() - t0)
        per_check = best / iterations
        assert per_check < 2e-6  # generous: ~100ns typical

    def test_disabled_overhead_below_budget_on_planned_matvec(self):
        matrix = make_gaussian_kernel_matrix(n=200, d=3, bandwidth=1.5, seed=7)
        from repro.gofmm import compress

        compressed = compress(matrix, small_config())
        compressed.plan()
        w = np.random.default_rng(0).standard_normal((matrix.n, 8))
        compressed.matvec(w, engine="planned")  # warm
        matvec_best = float("inf")
        for _ in range(7):
            t0 = time.perf_counter()
            compressed.matvec(w, engine="planned")
            matvec_best = min(matvec_best, time.perf_counter() - t0)
        # per-check cost measured the same way as above
        t0 = time.perf_counter()
        for _ in range(50_000):
            get_tracer()
        per_check = (time.perf_counter() - t0) / 50_000
        # a planned matvec crosses a handful of instrumentation sites (one
        # enabled-check before the four-pass execute, plus engine dispatch);
        # at a generous 16 sites the disabled cost must stay under the 3%
        # acceptance budget even on this sub-millisecond problem
        assert 16 * per_check < 0.03 * matvec_best

    @pytest.mark.parametrize("engine", ["planned", "streamed"])
    def test_bit_identity_with_tracing(self, engine):
        matrix = make_gaussian_kernel_matrix(n=200, d=3, bandwidth=1.5, seed=9)
        from repro.gofmm import compress

        compressed = compress(matrix, small_config())
        w = np.random.default_rng(2).standard_normal((matrix.n, 4))
        plain = compressed.matvec(w, engine=engine)
        with tracing(Tracer()):
            traced = compressed.matvec(w, engine=engine)
        assert np.array_equal(plain, traced)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_skeletonization_accounting_is_worker_count_independent(self, workers):
        """Counter delta == total span ``entries``, fanned out or not."""
        matrix = make_gaussian_kernel_matrix(n=256, d=3, bandwidth=1.5, seed=5)
        tracer = Tracer()
        before = obs_counters.get("kernel_entries_evaluated")
        Session(matrix, small_config(compression_workers=workers), tracer=tracer).compress()
        delta = obs_counters.get("kernel_entries_evaluated") - before
        spans = [s for s in tracer.spans() if s.name in ("skeletonize.level", "skeletonize.shards")]
        assert spans and delta > 0
        assert sum(s.attrs["entries"] for s in spans) == delta
        shards = [s for s in spans if s.name == "skeletonize.shards"]
        assert len(shards) == (workers > 1)
        for span in shards:
            assert span.attrs["workers"] == workers
            assert span.attrs["levels"] >= 1 and span.attrs["nodes"] >= 2

    def test_traced_compression_matches_untraced(self):
        matrix_a = make_gaussian_kernel_matrix(n=160, d=3, bandwidth=1.5, seed=11)
        matrix_b = make_gaussian_kernel_matrix(n=160, d=3, bandwidth=1.5, seed=11)
        w = np.random.default_rng(3).standard_normal((160, 2))
        plain = Session(matrix_a, small_config()).compress()
        traced = Session(matrix_b, small_config(), tracer=Tracer()).compress()
        assert np.array_equal(plain.apply(w), traced.apply(w))


class TestCounters:
    def test_vocabulary_always_present(self):
        registry = obs_counters.CounterRegistry()
        snapshot = registry.snapshot()
        assert set(snapshot) == set(obs_counters.VOCABULARY)
        assert all(v == 0 for v in snapshot.values())

    def test_add_gauge_reset(self):
        registry = obs_counters.CounterRegistry()
        registry.add("blocks_materialized", 3)
        registry.add("blocks_materialized")
        registry.set_gauge("custom_gauge", 7.5)
        assert registry.get("blocks_materialized") == 4
        assert registry.snapshot()["custom_gauge"] == 7.5
        assert registry.snapshot(names=["custom_gauge", "missing"]) == {
            "custom_gauge": 7.5, "missing": 0,
        }
        registry.reset()
        assert registry.get("blocks_materialized") == 0
        assert "custom_gauge" not in registry.snapshot()

    def test_module_conveniences_share_process_registry(self):
        obs_counters.reset()
        try:
            obs_counters.add("requests_shed", 2)
            assert obs_counters.registry().get("requests_shed") == 2
            assert obs_counters.snapshot()["requests_shed"] == 2
        finally:
            obs_counters.reset()


class TestServingMetricsSchema:
    def test_v3_counters_section(self):
        obs_counters.reset()
        try:
            obs_counters.add("batches_assembled", 5)
            rendered = ServingMetrics().to_dict()
            assert rendered["schema_version"] == METRICS_SCHEMA_VERSION == 3
            assert set(rendered["counters"]) == set(obs_counters.VOCABULARY)
            assert rendered["counters"]["batches_assembled"] == 5
        finally:
            obs_counters.reset()

    def test_v2_keys_unchanged(self):
        rendered = ServingMetrics().to_dict()
        assert V2_METRIC_KEYS <= set(rendered)
        assert set(rendered) == V2_METRIC_KEYS | {"counters"}

    def test_aggregate_sums_counters(self):
        obs_counters.reset()
        try:
            obs_counters.add("requests_shed", 3)
            a, b = ServingMetrics(), ServingMetrics()
            a.record_submit(1)
            b.record_submit(1)
            merged = aggregate_metrics([a, b])
            assert merged["instances"] == 2
            assert merged["requests"] == 2
            # the registry is process-wide: both instances report the same
            # values and the rollup sums them
            assert merged["counters"]["requests_shed"] == 6
        finally:
            obs_counters.reset()


class TestSolverSpans:
    def test_traced_solve_shows_the_factor(self, caplog):
        """A traced solve records the factor's build once and every apply, with their shapes."""
        matrix = make_gaussian_kernel_matrix(n=200, d=3, bandwidth=1.5, seed=3)
        op = Session(matrix, small_config()).compress()
        b = np.random.default_rng(0).standard_normal((matrix.n, 3))
        tracer = Tracer()
        with tracing(tracer), caplog.at_level("INFO", logger="repro.solvers"):
            result = op.solve(b, shift=1.0, tolerance=1e-10)
        factor = op.preconditioner(1.0)
        spans = tracer.spans()
        builds = [s for s in spans if s.name == "solvers.factor.build"]
        assert len(builds) == 1
        assert builds[0].attrs == {
            "nodes": len(op.compressed.tree.nodes),
            "groups": len(factor.groups),
            "nbytes": factor.nbytes,
        }
        applies = [s for s in spans if s.name == "solvers.factor.apply"]
        # one before the first iteration, one after each but the converging one
        assert result.converged and len(applies) == result.iterations
        assert applies[0].attrs == {
            "levels": op.compressed.tree.depth + 1, "groups": len(factor.groups), "columns": 3,
        }
        assert all(1 <= s.attrs["columns"] <= 3 for s in applies)
        built = [r for r in caplog.records if "HSS factor" in r.getMessage()]
        assert len(built) == 1 and built[0].levelname == "INFO"


class TestStructuredLogging:
    def test_loggers_live_under_repro_namespace(self):
        from repro.obs import get_logger

        logger = get_logger("serving.batcher")
        assert logger.name == "repro.serving.batcher"

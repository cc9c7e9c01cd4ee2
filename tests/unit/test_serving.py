"""Unit tests for the micro-batching serving runtime (:mod:`repro.serving`).

The load-bearing guarantees:

* batching is *numerically invisible*: a response under concurrent batched
  load is bit-identical to the response the same request gets when served
  alone (canonical GEMM width, pinned with ``np.array_equal``),
* backpressure rejects cleanly with a retry hint and never corrupts the
  queue,
* hot reload swaps operators without dropping in-flight requests, and a
  bad artifact file keeps the old operator serving,
* solve batching produces per-request results that satisfy the requested
  tolerance.
"""

import threading
import time

import numpy as np
import pytest

from repro import GOFMMConfig
from repro.api import Session
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServerOverloadedError,
    ServingConfigError,
    ServingError,
)
from repro.serving import (
    INTERACTIVE,
    MATVEC,
    METRICS_SCHEMA_VERSION,
    SOLVE,
    THROUGHPUT,
    AsyncServingClient,
    BatchPolicy,
    LanePolicy,
    MatvecServer,
    MicroBatcher,
    ServingClient,
    ServingMetrics,
    aggregate_metrics,
)

from ..conftest import make_gaussian_kernel_matrix


def make_config(**overrides) -> GOFMMConfig:
    base = dict(
        leaf_size=32, max_rank=16, tolerance=1e-7, neighbors=8,
        budget=0.2, num_neighbor_trees=3, distance="kernel", seed=0,
    )
    base.update(overrides)
    return GOFMMConfig(**base)


@pytest.fixture(scope="module")
def matrix():
    return make_gaussian_kernel_matrix(n=224, d=3, bandwidth=1.4, seed=0)


@pytest.fixture(scope="module")
def operator(matrix):
    return Session(matrix, make_config()).compress()


def make_server(operator, **policy_overrides) -> MatvecServer:
    policy = BatchPolicy(**{"max_batch": 8, "max_wait_ms": 5.0, "max_queue": 512, **policy_overrides})
    server = MatvecServer(policy=policy)
    server.register("op", operator)
    return server


class TestBitIdentity:
    """Batched responses are bitwise equal to unbatched ones."""

    def test_concurrent_equals_sequential_bitwise(self, matrix, operator):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((24, matrix.n))

        with make_server(operator) as server:
            futures = [server.submit("op", v) for v in vectors]
            batched = [f.result(timeout=30) for f in futures]
            assert server.stats()["op"]["batch_occupancy"] > 1.0

        with make_server(operator) as server:
            sequential = [server.matvec("op", v, timeout=30) for v in vectors]

        for got, alone in zip(batched, sequential):
            assert np.array_equal(got, alone)

    @pytest.mark.parametrize("caching", ["cached", "memoryless"])
    def test_threaded_server_equals_sequential_bitwise(self, matrix, operator, caching):
        """Worker threads only materialize fill chunks: the bits do not move."""
        if caching == "memoryless":
            config = make_config(cache_near_blocks=False, cache_far_blocks=False)
            operator = Session(matrix, config).compress()
        vectors = np.random.default_rng(4).standard_normal((12, matrix.n))
        policy = BatchPolicy(max_batch=8, max_wait_ms=5.0, max_queue=512)
        responses = []
        for workers in (0, 2):
            server = MatvecServer(policy=policy, num_workers=workers)
            server.register("op", operator)
            with server:
                futures = [server.submit("op", v) for v in vectors]
                responses.append([f.result(timeout=30) for f in futures])
        for threaded, alone in zip(responses[1], responses[0]):
            assert np.array_equal(threaded, alone)

    def test_response_equals_direct_padded_evaluation(self, matrix, operator):
        """The canonical-width mechanism itself: response == column 0 of the
        zero-padded direct product, bit for bit."""
        rng = np.random.default_rng(1)
        w = rng.standard_normal(matrix.n)
        padded = np.zeros((matrix.n, 8))
        padded[:, 0] = w
        expected = np.asarray(operator.apply(padded))[:, 0]
        with make_server(operator) as server:
            got = server.matvec("op", w, timeout=30)
        assert np.array_equal(got, expected)

    def test_responses_are_accurate(self, matrix, operator):
        rng = np.random.default_rng(2)
        vectors = rng.standard_normal((8, matrix.n))
        with make_server(operator) as server:
            futures = [server.submit("op", v) for v in vectors]
            responses = [f.result(timeout=30) for f in futures]
        for v, u in zip(vectors, responses):
            assert np.allclose(u, operator.apply(v), atol=1e-9)

    def test_unpadded_mode_still_accurate(self, matrix, operator):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((8, matrix.n))
        with make_server(operator, pad_to_full_width=False) as server:
            futures = [server.submit("op", v) for v in vectors]
            for v, f in zip(vectors, futures):
                assert np.allclose(f.result(timeout=30), operator.apply(v), atol=1e-9)


class TestBatchingSemantics:
    def test_full_batches_under_concurrent_load(self, matrix, operator):
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((32, matrix.n))
        with make_server(operator, max_wait_ms=50.0) as server:
            futures = [server.submit("op", v) for v in vectors]
            for f in futures:
                f.result(timeout=30)
            stats = server.stats()["op"]
        # 32 requests enqueued before the worker drains them → full batches
        assert stats["batches"] <= 8
        assert stats["batch_occupancy"] >= 4.0
        assert stats["responses"] == 32

    def test_max_wait_bounds_idle_latency(self, matrix, operator):
        with make_server(operator, max_wait_ms=10.0) as server:
            started = time.monotonic()
            server.matvec("op", np.zeros(matrix.n), timeout=30)
            elapsed = time.monotonic() - started
        # one lonely request waits ~max_wait_ms, not forever
        assert elapsed < 5.0

    def test_mixed_kinds_do_not_cobatch(self, matrix, operator):
        rng = np.random.default_rng(5)
        with make_server(operator, max_wait_ms=20.0) as server:
            mv = server.submit("op", rng.standard_normal(matrix.n))
            sv = server.submit("op", rng.standard_normal(matrix.n), kind=SOLVE,
                               shift=1.0, tolerance=1e-8)
            u = mv.result(timeout=30)
            result = sv.result(timeout=60)
        assert u.shape == (matrix.n,)
        assert result.solution.shape == (matrix.n,)

    def test_adaptive_wait_shrinks_when_target_exceeded(self, matrix, operator):
        # A 0.01 ms latency target is unreachable (evaluation alone takes
        # longer), so every observed batch pushes the EWMA over it and the
        # effective wait must collapse toward the floor.
        with make_server(operator, max_wait_ms=20.0, latency_target_ms=0.01) as server:
            entry = server.entry("op")
            assert entry.batcher.current_wait_ms == 20.0
            for _ in range(8):
                server.matvec("op", np.zeros(matrix.n), timeout=30)
            final = entry.batcher.current_wait_ms
            stats = server.stats()["op"]
        assert final < 20.0
        assert stats["adaptive_wait_ms"] == pytest.approx(final)
        assert stats["latency_ewma_ms"] > 0.01

    def test_adaptive_wait_recovers_under_generous_target(self, matrix, operator):
        # With a huge target the EWMA sits far below 0.7·target, so the wait
        # grows back toward max_wait_ms after having been shrunk.
        with make_server(operator, max_wait_ms=4.0, latency_target_ms=10_000.0) as server:
            batcher = server.entry("op").batcher
            with batcher._cond:
                batcher._wait_ms = 0.05  # as if previously collapsed
            for _ in range(8):
                server.matvec("op", np.zeros(matrix.n), timeout=30)
            final = batcher.current_wait_ms
        assert 0.05 < final <= 4.0

    def test_fixed_policy_keeps_wait_and_reports_no_adaptive_metrics(self, matrix, operator):
        with make_server(operator, max_wait_ms=5.0) as server:
            server.matvec("op", np.zeros(matrix.n), timeout=30)
            assert server.entry("op").batcher.current_wait_ms == 5.0
            stats = server.stats()["op"]
        assert "adaptive_wait_ms" not in stats

    def test_latency_target_validated(self):
        with pytest.raises(ServingError, match="latency_target_ms"):
            BatchPolicy(latency_target_ms=0.0)
        with pytest.raises(ServingError, match="latency_target_ms"):
            BatchPolicy(latency_target_ms=-1.0)
        assert BatchPolicy(latency_target_ms=2.5).latency_target_ms == 2.5

    def test_rejects_wrong_shape_and_unknown_operator(self, matrix, operator):
        with make_server(operator) as server:
            with pytest.raises(ServingError, match="shape"):
                server.submit("op", np.zeros(matrix.n + 1))
            with pytest.raises(ServingError, match="unknown operator"):
                server.submit("nope", np.zeros(matrix.n))
            with pytest.raises(ServingError, match="solve parameter"):
                server.submit("op", np.zeros(matrix.n), kind=SOLVE, bogus=1)

    def test_submit_before_start_raises(self, operator, matrix):
        server = make_server(operator)
        with pytest.raises(ServingError, match="not started"):
            server.submit("op", np.zeros(matrix.n))


class TestSolveBatching:
    def test_concurrent_solves_meet_tolerance(self, matrix, operator):
        rng = np.random.default_rng(6)
        rhs = rng.standard_normal((6, matrix.n))
        shift = 1.0
        with make_server(operator, max_wait_ms=50.0) as server:
            futures = [
                server.submit("op", b, kind=SOLVE, shift=shift, tolerance=1e-9)
                for b in rhs
            ]
            results = [f.result(timeout=120) for f in futures]
            stats = server.stats()["op"]
        assert stats["batch_occupancy"] > 1.0  # solves actually coalesced
        for b, result in zip(rhs, results):
            assert result.converged
            residual = np.asarray(operator.apply(result.solution)) + shift * result.solution - b
            assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(b)

    def test_different_params_use_different_lanes(self, matrix, operator):
        rng = np.random.default_rng(7)
        with make_server(operator, max_wait_ms=20.0) as server:
            f1 = server.submit("op", rng.standard_normal(matrix.n), kind=SOLVE, shift=1.0)
            f2 = server.submit("op", rng.standard_normal(matrix.n), kind=SOLVE, shift=2.0)
            r1, r2 = f1.result(timeout=60), f2.result(timeout=60)
        assert r1.converged and r2.converged


class TestBackpressure:
    """Bounded queue + reject-with-retry-after, tested on a stub runner."""

    def _slow_batcher(self, gate: threading.Event, policy: BatchPolicy, started=None):
        metrics = ServingMetrics()

        def runner(kind, block, params):
            if started is not None:
                started.set()
            gate.wait(timeout=30)
            return [block[:, j] for j in range(block.shape[1])]

        batcher = MicroBatcher(runner, policy, metrics, name="stub")
        batcher.start()
        return batcher, metrics

    def test_overload_rejects_with_retry_hint(self):
        gate = threading.Event()
        started = threading.Event()
        policy = BatchPolicy(max_batch=1, max_wait_ms=0.0, max_queue=2, retry_after_ms=7.0)
        batcher, metrics = self._slow_batcher(gate, policy, started=started)
        try:
            accepted = [batcher.submit(MATVEC, np.zeros(4))]
            assert started.wait(timeout=30)  # worker holds one batch, blocked
            accepted.append(batcher.submit(MATVEC, np.zeros(4)))
            accepted.append(batcher.submit(MATVEC, np.zeros(4)))  # queue now full
            with pytest.raises(ServerOverloadedError) as excinfo:
                batcher.submit(MATVEC, np.zeros(4))
            assert excinfo.value.retry_after_s == pytest.approx(0.007)
            assert metrics.rejected == 1
            gate.set()
            for future in accepted:  # accepted requests all complete
                assert future.result(timeout=30).shape == (4,)
        finally:
            gate.set()
            batcher.close()

    def test_queue_drains_after_rejection(self):
        gate = threading.Event()
        gate.set()  # runner never blocks
        policy = BatchPolicy(max_batch=4, max_wait_ms=0.5, max_queue=64)
        batcher, metrics = self._slow_batcher(gate, policy)
        try:
            futures = [batcher.submit(MATVEC, np.full(4, i)) for i in range(32)]
            for i, future in enumerate(futures):
                assert np.array_equal(future.result(timeout=30), np.full(4, i))
            assert metrics.responses == 32
        finally:
            batcher.close()

    def test_close_without_drain_fails_pending(self):
        gate = threading.Event()
        started = threading.Event()
        policy = BatchPolicy(max_batch=1, max_wait_ms=0.0, max_queue=8)
        batcher, metrics = self._slow_batcher(gate, policy, started=started)
        futures = [batcher.submit(MATVEC, np.zeros(4)) for _ in range(4)]
        assert started.wait(timeout=30)  # worker holds the first batch, blocked
        closer = threading.Thread(target=batcher.close, kwargs={"drain": False})
        closer.start()
        # close() fails the still-queued futures before joining the worker
        for future in futures[1:]:
            with pytest.raises(ServingError, match="shut down"):
                future.result(timeout=30)
        gate.set()  # release the in-flight batch: it completes normally
        assert futures[0].result(timeout=30).shape == (4,)
        closer.join(timeout=30)
        assert not closer.is_alive()
        with pytest.raises(ServingError, match="shut down"):
            batcher.submit(MATVEC, np.zeros(4))


class TestHotReload:
    def _artifact_server(self, tmp_path, matrix, policy=None):
        config = make_config()
        path = tmp_path / "artifacts.npz"
        Session(matrix, config).save_artifacts(path)
        server = MatvecServer(policy=policy or BatchPolicy(max_batch=4, max_wait_ms=1.0))
        server.register("op", matrix=matrix, config=config, artifacts=path)
        return server, path, config

    def test_cold_start_from_artifacts_serves(self, tmp_path, matrix, operator):
        server, _, _ = self._artifact_server(tmp_path, matrix)
        rng = np.random.default_rng(8)
        w = rng.standard_normal(matrix.n)
        with server:
            got = server.matvec("op", w, timeout=30)
        assert np.allclose(got, operator.apply(w), atol=1e-9)

    def test_reload_swaps_without_dropping_in_flight(self, tmp_path, matrix):
        server, path, config = self._artifact_server(tmp_path, matrix)
        entry = server.entry("op")
        first_operator = entry.operator
        rng = np.random.default_rng(9)
        vectors = rng.standard_normal((64, matrix.n))
        errors: list = []
        responses: dict = {}

        def hammer(lo, hi):
            try:
                for i in range(lo, hi):
                    responses[i] = server.matvec("op", vectors[i], timeout=60)
            except BaseException as exc:  # pragma: no cover - the assertion target
                errors.append(exc)

        with server:
            threads = [threading.Thread(target=hammer, args=(i * 16, (i + 1) * 16)) for i in range(4)]
            for t in threads:
                t.start()
            # rewrite the artifact file mid-traffic (stamp changes), then poll
            time.sleep(0.005)
            Session(matrix, config).save_artifacts(path)
            outcome = server.poll_reloads()
            for t in threads:
                t.join()
            stats = server.stats()["op"]

        assert not errors
        assert outcome == {"op": True}
        assert entry.operator is not first_operator  # swapped
        assert entry.version == 2
        assert stats["reloads"] == 1 and stats["reload_failures"] == 0
        assert len(responses) == 64
        direct = np.asarray(first_operator.apply(vectors.T))
        for i, got in responses.items():
            assert np.allclose(got, direct[:, i], atol=1e-9)

    def test_reload_noop_when_unchanged(self, tmp_path, matrix):
        server, _, _ = self._artifact_server(tmp_path, matrix)
        with server:
            assert server.poll_reloads() == {"op": False}
            assert server.entry("op").version == 1

    def test_bad_artifact_keeps_old_operator(self, tmp_path, matrix):
        server, path, _ = self._artifact_server(tmp_path, matrix)
        entry = server.entry("op")
        old = entry.operator
        # overwrite with artifacts from an incompatible config → fingerprint mismatch
        Session(matrix, make_config(leaf_size=64)).save_artifacts(path)
        rng = np.random.default_rng(10)
        with server:
            assert server.poll_reloads() == {"op": False}
            got = server.matvec("op", rng.standard_normal(matrix.n), timeout=30)
        assert entry.operator is old
        assert server.stats()["op"]["reload_failures"] == 1
        assert got.shape == (matrix.n,)

    def test_swap_requires_matching_shape(self, matrix, operator):
        small = Session(
            make_gaussian_kernel_matrix(n=96, d=3, bandwidth=1.4, seed=3), make_config()
        ).compress()
        with make_server(operator) as server:
            with pytest.raises(ServingError, match="shape"):
                server.swap("op", small)

    def test_reload_requires_artifact_source(self, operator):
        with make_server(operator) as server:
            with pytest.raises(ServingError, match="artifact source"):
                server.reload("op")


class TestClients:
    def test_sync_client_retries_on_overload(self, matrix, operator):
        calls = {"n": 0}
        real_submit = MatvecServer.submit

        class Flaky(MatvecServer):
            def submit(self, name, w, kind=MATVEC, **params):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise ServerOverloadedError("full", retry_after_s=0.001)
                return real_submit(self, name, w, kind=kind, **params)

        server = Flaky(policy=BatchPolicy(max_batch=4, max_wait_ms=1.0))
        server.register("op", operator)
        client = ServingClient(server, retries=2)
        with server:
            got = client.matvec("op", np.zeros(matrix.n), timeout=30)
        assert calls["n"] == 2
        assert got.shape == (matrix.n,)

    def test_async_client_gathers_batches(self, matrix, operator):
        import asyncio

        rng = np.random.default_rng(11)
        vectors = rng.standard_normal((12, matrix.n))

        async def drive(server):
            client = AsyncServingClient(server)
            return await asyncio.gather(*(client.matvec("op", v) for v in vectors))

        with make_server(operator, max_wait_ms=20.0) as server:
            responses = asyncio.run(drive(server))
            stats = server.stats()["op"]
        assert stats["batch_occupancy"] > 1.0
        for v, u in zip(vectors, responses):
            assert np.allclose(u, operator.apply(v), atol=1e-9)


class TestMetricsAndRegistry:
    def test_snapshot_fields(self, matrix, operator):
        with make_server(operator) as server:
            for _ in range(4):
                server.matvec("op", np.zeros(matrix.n), timeout=30)
            stats = server.stats()["op"]
        for key in ("requests", "responses", "batches", "batch_occupancy",
                    "latency_ms", "max_queue_depth", "version", "queue_depth"):
            assert key in stats
        assert stats["requests"] == 4
        assert stats["responses"] == 4
        assert stats["latency_ms"]["count"] == 4
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"] > 0.0

    def test_register_duplicate_rejected(self, operator):
        server = make_server(operator)
        with pytest.raises(ServingError, match="already registered"):
            server.register("op", operator)

    def test_unregister_then_unknown(self, matrix, operator):
        server = make_server(operator)
        server.start()
        server.unregister("op")
        with pytest.raises(ServingError, match="unknown operator"):
            server.matvec("op", np.zeros(matrix.n))
        server.stop()

    def test_policy_validation(self):
        with pytest.raises(ServingError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ServingError):
            BatchPolicy(max_queue=0)
        with pytest.raises(ServingError):
            BatchPolicy(max_wait_ms=-1.0)


class TestCancellation:
    def test_cancelled_request_does_not_kill_the_batcher(self, matrix, operator):
        """A caller cancelling its pending future (asyncio timeout) must not
        wedge the operator for everyone else."""
        rng = np.random.default_rng(13)
        vectors = rng.standard_normal((8, matrix.n))
        with make_server(operator, max_wait_ms=100.0, max_batch=8) as server:
            victim = server.submit("op", vectors[0])
            assert victim.cancel()  # pending → cancellation succeeds
            others = [server.submit("op", v) for v in vectors[1:]]
            responses = [f.result(timeout=30) for f in others]  # batch completes
            # the worker survived: a fresh request still gets served
            again = server.matvec("op", vectors[0], timeout=30)
        for v, u in zip(vectors[1:], responses):
            assert np.allclose(u, operator.apply(v), atol=1e-9)
        assert again.shape == (matrix.n,)


class TestRestart:
    def test_server_restarts_after_stop(self, matrix, operator):
        server = make_server(operator)
        w = np.random.default_rng(12).standard_normal(matrix.n)
        with server:
            first = server.matvec("op", w, timeout=30)
        with pytest.raises(ServingError, match="shut down"):
            server.submit("op", w)
        with server:  # restart: batchers reopen
            again = server.matvec("op", w, timeout=30)
        assert np.array_equal(first, again)

    def test_preconditioner_cache_is_bounded(self, operator):
        for i in range(3 * operator._PRECONDITIONER_CACHE_MAX):
            operator.preconditioner(shift=1.0 + i)
        assert len(operator._preconditioners) <= operator._PRECONDITIONER_CACHE_MAX
        # repeated shift reuses the cached factors
        p1 = operator.preconditioner(shift=0.5)
        p2 = operator.preconditioner(shift=0.5)
        assert p1 is p2


def make_stub_batcher(policy, gate=None, started=None, evaluated=None):
    """A MicroBatcher over a stub runner (optionally gated, recording batches)."""
    metrics = ServingMetrics()

    def runner(kind, block, params):
        if started is not None:
            started.set()
        if gate is not None:
            gate.wait(timeout=30)
        if evaluated is not None:
            evaluated.append(block.copy())
        return [block[:, j] for j in range(block.shape[1])]

    batcher = MicroBatcher(runner, policy, metrics, name="stub")
    batcher.start()
    return batcher, metrics


class TestLatencyLanes:
    def test_interactive_flushes_while_throughput_waits(self):
        """An interactive request never waits out max_wait_ms; with a huge
        policy wait it completes while the throughput request still queues —
        and the lowest-wait-first rule serves it first."""
        evaluated: list = []
        policy = BatchPolicy(max_batch=8, max_wait_ms=5_000.0, max_queue=64)
        batcher, metrics = make_stub_batcher(policy, evaluated=evaluated)
        try:
            slow = batcher.submit(MATVEC, np.full(4, 1.0))  # throughput: waits
            fast = batcher.submit(MATVEC, np.full(4, 2.0), lane=INTERACTIVE)
            assert np.array_equal(fast.result(timeout=30), np.full(4, 2.0))
            assert not slow.done()  # still waiting for co-batched traffic
            assert evaluated and evaluated[0][0, 0] == 2.0  # interactive ran first
        finally:
            batcher.close()  # drains: the throughput request completes
        assert np.array_equal(slow.result(timeout=30), np.full(4, 1.0))
        assert metrics.responses == 2

    def test_requests_coalesce_only_within_a_lane(self):
        evaluated: list = []
        policy = BatchPolicy(max_batch=8, max_wait_ms=100.0, max_queue=64)
        batcher, _ = make_stub_batcher(policy, evaluated=evaluated)
        try:
            futures = [
                batcher.submit(MATVEC, np.full(4, float(i)),
                               lane=INTERACTIVE if i % 2 else THROUGHPUT)
                for i in range(8)
            ]
            for future in futures:
                future.result(timeout=30)
        finally:
            batcher.close()
        for block in evaluated:  # no batch mixes the two lanes' markers
            lanes = {int(block[0, j]) % 2 for j in range(block.shape[1])}
            assert len(lanes) == 1

    def test_custom_lane_and_lane_validation(self):
        policy = BatchPolicy(max_batch=8, lanes={"bulk": LanePolicy(max_wait_ms=50.0)})
        assert set(policy.lanes) == {THROUGHPUT, INTERACTIVE, "bulk"}
        assert policy.lane_limits("bulk") == (50.0, 8)
        assert policy.lane_limits(INTERACTIVE) == (0.0, 8)
        assert policy.lane_limits(THROUGHPUT)[0] is None  # inherits (adaptive-capable)
        with pytest.raises(ServingError, match="unknown lane"):
            policy.lane_policy("nope")

    def test_unknown_lane_rejected_at_submit(self, matrix, operator):
        with make_server(operator) as server:
            with pytest.raises(ServingError, match="unknown lane"):
                server.submit("op", np.zeros(matrix.n), lane="vip")

    def test_lane_mix_in_flight_is_bit_identical_to_sequential(self, matrix, operator):
        """The pinned lane guarantee: lanes change waiting, never the GEMM
        width — a response is bitwise the same on either lane, under
        concurrent mixed-lane load or served alone."""
        rng = np.random.default_rng(21)
        vectors = rng.standard_normal((24, matrix.n))
        lanes = [INTERACTIVE if i % 3 == 0 else THROUGHPUT for i in range(24)]

        with make_server(operator, max_wait_ms=20.0) as server:
            futures = [server.submit("op", v, lane=lane) for v, lane in zip(vectors, lanes)]
            mixed = [f.result(timeout=30) for f in futures]

        with make_server(operator) as server:
            sequential = [server.matvec("op", v, timeout=30) for v in vectors]

        for got, alone in zip(mixed, sequential):
            assert np.array_equal(got, alone)

    def test_lane_latencies_reported_separately(self, matrix, operator):
        with make_server(operator, max_wait_ms=1.0) as server:
            server.matvec("op", np.zeros(matrix.n), timeout=30)
            server.matvec("op", np.zeros(matrix.n), lane=INTERACTIVE, timeout=30)
            stats = server.stats()["op"]
        assert stats["lanes"][THROUGHPUT]["responses"] == 1
        assert stats["lanes"][INTERACTIVE]["responses"] == 1
        assert stats["lanes"][INTERACTIVE]["latency_ms"]["p50"] > 0.0


class TestDeadlines:
    def test_expired_while_queued_is_shed_and_never_evaluated(self):
        """The deadline contract: an expired-in-queue request fails with the
        typed error and its vector never reaches the runner."""
        gate = threading.Event()
        started = threading.Event()
        evaluated: list = []
        policy = BatchPolicy(max_batch=1, max_wait_ms=0.0, max_queue=8)
        batcher, metrics = make_stub_batcher(policy, gate=gate, started=started,
                                             evaluated=evaluated)
        try:
            blocker = batcher.submit(MATVEC, np.full(4, 1.0))
            assert started.wait(timeout=30)  # worker is inside the gated batch
            doomed = batcher.submit(MATVEC, np.full(4, 2.0), deadline_ms=5.0)
            time.sleep(0.03)  # let the deadline expire while queued
            gate.set()
            with pytest.raises(DeadlineExceededError) as excinfo:
                doomed.result(timeout=30)
            assert excinfo.value.lane == THROUGHPUT
            assert excinfo.value.waited_ms >= 5.0
            assert np.array_equal(blocker.result(timeout=30), np.full(4, 1.0))
        finally:
            gate.set()
            batcher.close()
        # the shed vector (marker 2.0) never occupied a GEMM slot
        assert all(block[0, 0] != 2.0 for block in evaluated)
        assert metrics.shed == 1
        assert metrics.responses == 1

    def test_deadline_met_request_is_served_normally(self, matrix, operator):
        with make_server(operator, max_wait_ms=1.0) as server:
            got = server.matvec("op", np.zeros(matrix.n), deadline_ms=30_000.0, timeout=30)
        assert got.shape == (matrix.n,)

    def test_shed_is_counted_per_lane(self):
        gate = threading.Event()
        started = threading.Event()
        policy = BatchPolicy(max_batch=1, max_wait_ms=0.0, max_queue=8)
        batcher, metrics = make_stub_batcher(policy, gate=gate, started=started)
        try:
            batcher.submit(MATVEC, np.zeros(4))
            assert started.wait(timeout=30)
            doomed = batcher.submit(MATVEC, np.zeros(4), lane=INTERACTIVE, deadline_ms=1.0)
            time.sleep(0.01)
            gate.set()
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=30)
        finally:
            gate.set()
            batcher.close()
        assert metrics.to_dict()["lanes"][INTERACTIVE]["shed"] == 1

    def test_non_positive_deadline_rejected(self, matrix, operator):
        with make_server(operator) as server:
            with pytest.raises(ServingError, match="deadline_ms"):
                server.submit("op", np.zeros(matrix.n), deadline_ms=0.0)


class TestPolicyValidation:
    """Satellite: all knobs validated at construction with typed config errors."""

    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0}, {"max_batch": -1}, {"max_batch": 2.5},
        {"max_wait_ms": -0.1}, {"max_wait_ms": float("nan")},
        {"max_queue": 0}, {"retry_after_ms": -1.0},
        {"latency_target_ms": 0.0}, {"latency_target_ms": -3.0},
    ])
    def test_bad_batch_policy_raises_config_error(self, kwargs):
        with pytest.raises(ServingConfigError):
            BatchPolicy(**kwargs)

    def test_config_error_is_both_serving_and_configuration_error(self):
        with pytest.raises(ServingError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_batch=0)

    def test_bad_lane_policies_raise(self):
        with pytest.raises(ServingConfigError, match="max_wait_ms"):
            LanePolicy(max_wait_ms=-1.0)
        with pytest.raises(ServingConfigError, match="max_batch"):
            LanePolicy(max_batch=0)
        with pytest.raises(ServingConfigError, match="canonical width"):
            BatchPolicy(max_batch=4, lanes={"wide": LanePolicy(max_batch=8)})
        with pytest.raises(ServingConfigError, match="lane names"):
            BatchPolicy(lanes={"": LanePolicy()})
        with pytest.raises(ServingConfigError, match="LanePolicy"):
            BatchPolicy(lanes={"bulk": {"max_wait_ms": 1.0}})


class TestClientBackoff:
    """Satellite: retry_after honored with capped exponential backoff + jitter."""

    class _Rejecting:
        """A server stub that rejects the first ``failures`` submissions."""

        def __init__(self, failures, retry_after_s=0.05):
            self.failures = failures
            self.retry_after_s = retry_after_s
            self.calls = 0

        def submit(self, name, w, kind=MATVEC, lane=None, deadline_ms=None, **params):
            self.calls += 1
            if self.calls <= self.failures:
                raise ServerOverloadedError("full", retry_after_s=self.retry_after_s)
            future = __import__("concurrent.futures", fromlist=["Future"]).Future()
            future.set_result(np.asarray(w))
            return future

    def test_backoff_grows_exponentially_and_caps(self, monkeypatch):
        sleeps: list = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        server = self._Rejecting(failures=4)
        client = ServingClient(server, retries=4, backoff_growth=2.0,
                               max_backoff_s=0.15, jitter=0.0)
        got = client.matvec("op", np.zeros(4))
        assert got.shape == (4,)
        assert server.calls == 5
        # hint·growth^i, capped: 0.05, 0.10, then pinned at max_backoff_s
        assert sleeps == pytest.approx([0.05, 0.10, 0.15, 0.15])

    def test_jitter_stays_within_the_backoff_envelope(self, monkeypatch):
        import random

        sleeps: list = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        server = self._Rejecting(failures=3)
        client = ServingClient(server, retries=3, backoff_growth=2.0,
                               max_backoff_s=1.0, jitter=0.5, rng=random.Random(7))
        client.matvec("op", np.zeros(4))
        expected_bases = [0.05, 0.10, 0.20]
        assert len(sleeps) == 3
        for slept, base in zip(sleeps, expected_bases):
            assert 0.5 * base <= slept <= base  # jitter scales into [1-jitter, 1]

    def test_exhausted_retries_reraise(self, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda _s: None)
        server = self._Rejecting(failures=10)
        client = ServingClient(server, retries=2)
        with pytest.raises(ServerOverloadedError):
            client.matvec("op", np.zeros(4))
        assert server.calls == 3  # initial try + retries, then give up

    def test_deadline_shed_is_not_retried(self):
        class Shedding:
            calls = 0

            def submit(self, name, w, kind=MATVEC, lane=None, deadline_ms=None, **params):
                self.calls += 1
                raise DeadlineExceededError("expired", lane=INTERACTIVE, waited_ms=9.0)

        server = Shedding()
        client = ServingClient(server, retries=5)
        with pytest.raises(DeadlineExceededError):
            client.matvec("op", np.zeros(4), lane=INTERACTIVE, deadline_ms=5.0)
        assert server.calls == 1

    def test_backoff_parameters_validated(self):
        server = self._Rejecting(failures=0)
        with pytest.raises(ServingConfigError):
            ServingClient(server, retries=-1)
        with pytest.raises(ServingConfigError):
            ServingClient(server, backoff_growth=0.5)
        with pytest.raises(ServingConfigError):
            ServingClient(server, max_backoff_s=0.0)
        with pytest.raises(ServingConfigError):
            ServingClient(server, jitter=1.0)

    def test_async_client_backoff_schedule_matches(self):
        import asyncio

        sleeps: list = []
        server = self._Rejecting(failures=2)
        client = AsyncServingClient(server, retries=2, backoff_growth=2.0,
                                    max_backoff_s=1.0, jitter=0.0)

        async def drive():
            real_sleep = asyncio.sleep

            async def fake_sleep(s):
                sleeps.append(s)
                await real_sleep(0)

            asyncio.sleep = fake_sleep
            try:
                return await client.matvec("op", np.zeros(4))
            finally:
                asyncio.sleep = real_sleep

        got = asyncio.run(drive())
        assert got.shape == (4,)
        assert sleeps == pytest.approx([0.05, 0.10])


class TestStableMetricsSchema:
    """Satellite: ``to_dict`` is a stable, every-key-present schema."""

    TOP_KEYS = {
        "schema_version", "instances", "requests", "responses", "errors",
        "rejected", "shed", "batches", "batched_requests", "batch_occupancy",
        "reloads", "reload_failures", "max_queue_depth", "adaptive_wait_ms",
        "latency_ewma_ms", "bytes_resident", "bytes_on_disk",
        "latency_ms", "batch_eval_ms", "batch_sizes", "lanes", "counters",
    }
    LATENCY_KEYS = {"count", "mean", "p50", "p90", "p99", "max"}

    def test_empty_metrics_schema_is_complete(self):
        out = ServingMetrics().to_dict()
        assert set(out) == self.TOP_KEYS
        assert out["schema_version"] == METRICS_SCHEMA_VERSION
        assert out["instances"] == 1
        assert set(out["latency_ms"]) == self.LATENCY_KEYS
        assert out["latency_ms"]["count"] == 0
        assert out["adaptive_wait_ms"] is None
        assert out["lanes"] == {}

    def test_recorded_metrics_keep_the_same_schema(self):
        metrics = ServingMetrics()
        metrics.record_submit(1, lane=THROUGHPUT)
        metrics.record_batch(2, 0.001)
        metrics.record_response(0.002, lane=THROUGHPUT)
        metrics.record_shed(INTERACTIVE)
        out = metrics.to_dict()
        assert set(out) == self.TOP_KEYS
        assert out["shed"] == 1
        assert set(out["lanes"]) == {THROUGHPUT, INTERACTIVE}
        for lane_stats in out["lanes"].values():
            assert set(lane_stats) == {"responses", "shed", "rejected", "latency_ms"}
            assert set(lane_stats["latency_ms"]) == self.LATENCY_KEYS
        assert out["lanes"][INTERACTIVE]["shed"] == 1

    def test_memory_gauges_always_present_and_recorded(self):
        metrics = ServingMetrics()
        out = metrics.to_dict()
        assert out["bytes_resident"] == 0 and out["bytes_on_disk"] == 0
        metrics.record_memory(1024, 2048)
        out = metrics.to_dict()
        assert out["bytes_resident"] == 1024 and out["bytes_on_disk"] == 2048
        snapshot = metrics.snapshot()
        assert snapshot["bytes_resident"] == 1024 and snapshot["bytes_on_disk"] == 2048

    def test_aggregate_sums_memory_gauges(self):
        a, b = ServingMetrics(), ServingMetrics()
        a.record_memory(100, 0)
        b.record_memory(50, 700)
        out = aggregate_metrics([a, b])
        assert out["bytes_resident"] == 150
        assert out["bytes_on_disk"] == 700

    def test_schema_is_json_serializable(self):
        import json

        metrics = ServingMetrics()
        metrics.record_response(0.001, lane=THROUGHPUT)
        json.dumps(metrics.to_dict())  # must not raise

    def test_aggregate_sums_counters_and_merges_lanes(self):
        a, b = ServingMetrics(), ServingMetrics()
        for _ in range(3):
            a.record_response(0.001, lane=THROUGHPUT)
        b.record_response(0.002, lane=INTERACTIVE)
        b.record_shed(INTERACTIVE)
        a.record_adaptive_wait(2.0, 1.0)
        b.record_adaptive_wait(4.0, 3.0)
        out = aggregate_metrics([a, b])
        assert set(out) == self.TOP_KEYS
        assert out["instances"] == 2
        assert out["responses"] == 4
        assert out["shed"] == 1
        assert out["latency_ms"]["count"] == 4
        assert out["adaptive_wait_ms"] == pytest.approx(3.0)  # mean of reporters
        assert out["lanes"][THROUGHPUT]["responses"] == 3
        assert out["lanes"][INTERACTIVE]["shed"] == 1

    def test_legacy_snapshot_still_omits_adaptive_keys(self):
        stats = ServingMetrics().snapshot()
        assert "adaptive_wait_ms" not in stats
        assert "schema_version" not in stats  # snapshot stays the legacy shape

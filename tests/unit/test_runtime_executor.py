"""Unit tests for the threaded out-of-order evaluation executor."""

import numpy as np
import pytest

from repro import GOFMMConfig, SchedulingError, compress
from repro.config import DistanceMetric
from repro.runtime import parallel_evaluate, run_task_graph
from repro.runtime.task import Task, TaskGraph

from ..conftest import make_gaussian_kernel_matrix
from ..oracles.evaluate_reference import reference_matvec


@pytest.fixture(scope="module")
def compressed_pair():
    matrix = make_gaussian_kernel_matrix(n=200, d=3, bandwidth=1.2, seed=0)
    config = GOFMMConfig(
        leaf_size=25, max_rank=20, tolerance=1e-7, neighbors=6,
        budget=0.3, num_neighbor_trees=3, distance=DistanceMetric.KERNEL, seed=0,
    )
    return matrix, compress(matrix, config)


class TestParallelEvaluate:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_sequential_vector(self, compressed_pair, workers):
        matrix, cm = compressed_pair
        w = np.random.default_rng(0).standard_normal(matrix.n)
        assert np.allclose(parallel_evaluate(cm, w, num_workers=workers), cm.matvec(w), atol=1e-10)

    def test_matches_sequential_multiple_rhs(self, compressed_pair):
        matrix, cm = compressed_pair
        w = np.random.default_rng(1).standard_normal((matrix.n, 6))
        assert np.allclose(parallel_evaluate(cm, w, num_workers=3), cm.matvec(w), atol=1e-10)

    def test_deterministic_across_runs(self, compressed_pair):
        matrix, cm = compressed_pair
        w = np.random.default_rng(2).standard_normal((matrix.n, 2))
        a = parallel_evaluate(cm, w, num_workers=4)
        b = parallel_evaluate(cm, w, num_workers=4)
        assert np.allclose(a, b, atol=1e-12)

    def test_hss_case(self):
        matrix = make_gaussian_kernel_matrix(n=150, d=3, bandwidth=1.5, seed=1)
        config = GOFMMConfig(
            leaf_size=25, max_rank=25, tolerance=1e-8, neighbors=6,
            budget=0.0, num_neighbor_trees=3, distance=DistanceMetric.KERNEL, seed=1,
        )
        cm = compress(matrix, config)
        w = np.random.default_rng(3).standard_normal(matrix.n)
        assert np.allclose(parallel_evaluate(cm, w, num_workers=2), cm.matvec(w), atol=1e-10)

    def test_requires_positive_worker_count(self, compressed_pair):
        _, cm = compressed_pair
        with pytest.raises(SchedulingError):
            parallel_evaluate(cm, np.zeros(cm.n), num_workers=0)

    def test_output_shape_preserved(self, compressed_pair):
        matrix, cm = compressed_pair
        vec = parallel_evaluate(cm, np.zeros(matrix.n), num_workers=2)
        mat = parallel_evaluate(cm, np.zeros((matrix.n, 3)), num_workers=2)
        assert vec.shape == (matrix.n,)
        assert mat.shape == (matrix.n, 3)


class TestPlannedEngine:
    """``parallel_evaluate`` runs the selected engine's plan."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("engine", ["planned", "streamed"])
    def test_engines_match_sequential(self, compressed_pair, workers, engine):
        matrix, cm = compressed_pair
        w = np.random.default_rng(4).standard_normal((matrix.n, 4))
        out = parallel_evaluate(cm, w, num_workers=workers, engine=engine)
        assert np.allclose(out, reference_matvec(cm, w), atol=1e-10)

    def test_planned_hss(self):
        matrix = make_gaussian_kernel_matrix(n=150, d=3, bandwidth=1.5, seed=1)
        config = GOFMMConfig(
            leaf_size=25, max_rank=25, tolerance=1e-8, neighbors=6,
            budget=0.0, num_neighbor_trees=3, distance=DistanceMetric.KERNEL, seed=1,
        )
        cm = compress(matrix, config)
        w = np.random.default_rng(5).standard_normal(matrix.n)
        out = parallel_evaluate(cm, w, num_workers=3, engine="planned")
        assert np.allclose(out, reference_matvec(cm, w), atol=1e-10)

    def test_unknown_engine_rejected(self, compressed_pair):
        _, cm = compressed_pair
        with pytest.raises(SchedulingError):
            parallel_evaluate(cm, np.zeros(cm.n), num_workers=2, engine="warp-drive")


class TestRunTaskGraph:
    """The condition-variable worker pool drains deterministically."""

    def _graph(self, n=64):
        graph = TaskGraph()
        for i in range(n):
            graph.add_task(Task(task_id=f"t{i}", kind="L2L", node_id=i, flops=float(i)))
        for i in range(1, n):
            graph.add_dependency(f"t{i - 1}", f"t{i}")
        return graph

    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_all_tasks_execute_exactly_once(self, workers):
        import threading

        executed = []
        lock = threading.Lock()
        graph = self._graph()

        def payload(i):
            with lock:
                executed.append(i)

        payloads = {f"t{i}": (lambda i=i: payload(i)) for i in range(64)}
        count = run_task_graph(graph, workers, payloads=payloads)
        assert count == 64
        assert sorted(executed) == list(range(64))
        # the chain forces sequential order even with many workers
        assert executed == list(range(64))

    def test_error_propagates_and_pool_exits(self):
        graph = self._graph(8)

        def boom():
            raise ValueError("payload failure")

        payloads = {"t3": boom}
        with pytest.raises(ValueError, match="payload failure"):
            run_task_graph(graph, 4, payloads=payloads)

    def test_many_workers_on_tiny_graph(self):
        # more workers than tasks: nobody may hang waiting for work
        graph = TaskGraph()
        graph.add_task(Task(task_id="only", kind="L2L", node_id=0))
        assert run_task_graph(graph, 16) == 1

    def test_empty_graph(self):
        assert run_task_graph(TaskGraph(), 4) == 0

    def test_repeated_runs_stable(self, compressed_pair):
        # regression for the old polling/shutdown race: hammer the pool
        matrix, cm = compressed_pair
        w = np.random.default_rng(6).standard_normal((matrix.n, 2))
        expected = reference_matvec(cm, w)
        for _ in range(10):
            for engine in ("planned", "streamed"):
                out = parallel_evaluate(cm, w, num_workers=4, engine=engine)
                assert np.allclose(out, expected, atol=1e-10)


class TestWorkerPool:
    """The persistent pool shared across concurrent evaluations."""

    def test_concurrent_runs_share_one_pool(self, compressed_pair):
        import threading

        from repro.runtime import WorkerPool

        matrix, cm = compressed_pair
        w = np.random.default_rng(7).standard_normal((matrix.n, 2))
        expected = reference_matvec(cm, w)
        results = [None] * 6
        errors = []
        with WorkerPool(3) as pool:
            def run(i):
                try:
                    results[i] = parallel_evaluate(cm, w, pool=pool)
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        for out in results:
            assert np.allclose(out, expected, atol=1e-10)

    def test_pool_survives_a_failed_run(self):
        from repro.runtime import WorkerPool
        from repro.runtime.task import Task, TaskGraph

        def graph_with(payload):
            graph = TaskGraph()
            graph.add_task(Task(task_id="t", kind="L2L", node_id=0))
            return graph, {"t": payload}

        with WorkerPool(2) as pool:
            graph, payloads = graph_with(lambda: (_ for _ in ()).throw(ValueError("boom")))
            with pytest.raises(ValueError, match="boom"):
                pool.run(graph, payloads=payloads)
            done = []
            graph, payloads = graph_with(lambda: done.append(1))
            assert pool.run(graph, payloads=payloads) == 1
            assert done == [1]

    def test_idle_workers_release_the_last_run(self):
        """A finished run's payloads (and all they close over) are freed while workers idle."""
        import gc
        import time
        import weakref

        from repro.runtime import WorkerPool
        from repro.runtime.task import Task, TaskGraph

        class Payload:
            def __call__(self) -> None:
                pass

        with WorkerPool(2) as pool:
            graph = TaskGraph()
            graph.add_task(Task(task_id="t", kind="L2L", node_id=0))
            payload = Payload()
            released = weakref.ref(payload)
            assert pool.run(graph, payloads={"t": payload}) == 1
            del payload
            deadline = time.monotonic() + 10.0
            while released() is not None and time.monotonic() < deadline:
                gc.collect()
                time.sleep(0.01)
            assert released() is None

    def test_shutdown_rejects_new_runs(self):
        from repro.runtime import WorkerPool
        from repro.runtime.task import TaskGraph

        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(SchedulingError, match="shut down"):
            pool.run(TaskGraph())

    def test_requires_positive_workers(self):
        from repro.runtime import WorkerPool

        with pytest.raises(SchedulingError):
            WorkerPool(0)


class TestStallTimeout:
    """GOFMMConfig.executor_stall_timeout: the watchdog on completion gaps."""

    def _hung_graph(self, release):
        import threading

        from repro.runtime.task import Task, TaskGraph

        graph = TaskGraph()
        graph.add_task(Task(task_id="hang", kind="L2L", node_id=0))
        return graph, {"hang": (lambda: release.wait(timeout=30))}

    def test_watchdog_fires_on_hung_payload(self):
        import threading
        import time as _time

        release = threading.Event()
        graph, payloads = self._hung_graph(release)
        try:
            started = _time.monotonic()
            with pytest.raises(SchedulingError, match="stall timeout"):
                run_task_graph(graph, 2, payloads=payloads, stall_timeout=0.05)
            # the error must reach the caller promptly: shutdown may not
            # full-join the worker still wedged inside the payload
            assert _time.monotonic() - started < 5.0
        finally:
            release.set()

    def test_no_false_positive_while_progressing(self):
        # 30 quick tasks, each well under the timeout: the window restarts on
        # every completion, so the watchdog must not fire.
        import time as _time

        from repro.runtime.task import Task, TaskGraph

        graph = TaskGraph()
        for i in range(30):
            graph.add_task(Task(task_id=f"t{i}", kind="L2L", node_id=i))
        for i in range(1, 30):
            graph.add_dependency(f"t{i-1}", f"t{i}")
        payloads = {f"t{i}": (lambda: _time.sleep(0.005)) for i in range(30)}
        assert run_task_graph(graph, 2, payloads=payloads, stall_timeout=0.1) == 30

    def test_watchdog_raises_typed_error_with_stalled_task_label(self):
        # The stall error is typed and carries which task(s) were wedged,
        # so callers (and their logs) can name the culprit payload.
        import threading

        from repro.errors import ExecutorStallError

        release = threading.Event()
        graph, payloads = self._hung_graph(release)
        try:
            with pytest.raises(ExecutorStallError) as info:
                run_task_graph(graph, 2, payloads=payloads, stall_timeout=0.05)
            assert info.value.stalled_tasks == ("hang",)
            assert info.value.task_label == "hang"
            assert "hang" in str(info.value)
            assert isinstance(info.value, SchedulingError)  # back-compat catch sites
        finally:
            release.set()

    def test_config_validates_timeout(self):
        from repro import ConfigurationError

        with pytest.raises(ConfigurationError):
            GOFMMConfig(executor_stall_timeout=0.0)
        with pytest.raises(ConfigurationError):
            GOFMMConfig(executor_stall_timeout=-1.0)
        assert GOFMMConfig(executor_stall_timeout=None).executor_stall_timeout is None
        assert GOFMMConfig().executor_stall_timeout == 300.0

    def test_parallel_evaluate_inherits_config_timeout(self, compressed_pair):
        matrix, cm = compressed_pair
        w = np.random.default_rng(8).standard_normal(matrix.n)
        # a generous config timeout must not disturb a normal evaluation
        out = parallel_evaluate(cm, w, num_workers=2)
        assert np.allclose(out, cm.matvec(w), atol=1e-10)

"""Real out-of-order execution of task graphs on a thread pool.

The scheduler simulations in :mod:`repro.runtime.schedulers` answer "how
long would this DAG take on machine X under policy Y"; this module runs a
task graph for real, constrained only by its RAW edges.

The evaluation plan (:class:`repro.core.streaming.StreamingPlan`) uses it
for its fill chunks: upcoming chunks materialize on pool workers while the
current chunk's GEMMs run, the execution chain itself sequential.  A plan
that fills no chunk runs in the caller's thread and never touches a pool.
:func:`parallel_evaluate` runs the selected plan with a caller's pool.

The pool itself is a :class:`WorkerPool`: a condition-variable work queue
whose workers sleep until a task becomes ready, an error is recorded, or a
graph is drained.  A pool is *shared across concurrent evaluations* — any
number of threads may call :meth:`WorkerPool.run` at once (the serving
runtime does exactly this), each run keeping its own bookkeeping while all
runs draw from one set of worker threads, largest-estimated-flops first.
:func:`run_task_graph` keeps the original one-shot API by wrapping a
transient pool.  There is no timeout polling for normal progress, and a
worker never abandons a run while sibling tasks of that run are still in
flight — completion is decided solely by the remaining-task count under
the queue lock.  NumPy releases the GIL inside BLAS calls and kernel
evaluation, so the overlap is real.

Stall handling is two-layered: a *dependency* stall (nothing ready, nothing
in flight, tasks remaining — a malformed DAG) fails immediately, while a
*watchdog* timeout (``stall_timeout``, defaulting to
``GOFMMConfig.executor_stall_timeout``) bounds the gap between task
completions so a wedged payload cannot hang a server evaluation forever.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Callable, Dict, Optional

import numpy as np

from ..core.hmatrix import CompressedMatrix
from ..core.plan import _as_matrix
from ..errors import ExecutorStallError, SchedulingError
from ..obs import counters as _obs_counters
from ..obs import get_logger
from ..obs.trace import get_tracer
from .task import TaskGraph

__all__ = ["WorkerPool", "parallel_evaluate", "run_task_graph"]

_LOG = get_logger("runtime.executor")


# ---------------------------------------------------------------------------
# shared worker pool
# ---------------------------------------------------------------------------

class _GraphRun:
    """Bookkeeping of one task graph being executed on a (shared) pool."""

    __slots__ = (
        "graph", "payloads", "pending", "remaining", "in_flight", "in_flight_tids",
        "ready_count", "executed", "errors", "finished",
    )

    def __init__(self, graph: TaskGraph, payloads: Optional[Dict[str, Callable[[], None]]]) -> None:
        self.graph = graph
        self.payloads = payloads or {}
        self.pending = {tid: len(graph.predecessors(tid)) for tid in graph.tasks}
        self.remaining = len(graph.tasks)
        self.in_flight = 0
        self.in_flight_tids: set[str] = set()
        self.ready_count = 0
        self.executed = 0
        self.errors: list[BaseException] = []
        self.finished = False


class WorkerPool:
    """Persistent worker threads shared across concurrent task-graph runs.

    Create one pool per process (or per server) and call :meth:`run` from as
    many threads as you like: every run's ready tasks feed one global
    largest-flops-first heap, so concurrent evaluations interleave on the
    same workers instead of oversubscribing the machine with one thread
    pool per call.  ``run`` blocks until its own graph is drained (or
    failed) and is independent of every other run: an error or stall in one
    graph never affects its siblings.

    The pool is a context manager; :meth:`shutdown` (idempotent) stops the
    workers after the ready queue is empty.
    """

    def __init__(self, num_workers: int, name: str = "gofmm-worker") -> None:
        if num_workers < 1:
            raise SchedulingError("need at least one worker")
        self.num_workers = num_workers
        self._cv = threading.Condition()
        self._ready: list[tuple[float, int, _GraphRun, str]] = []
        self._seq = 0
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker, name=f"{name}-{i}", daemon=True)
            for i in range(num_workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.shutdown()
        return False

    def shutdown(self, join_timeout: Optional[float] = None) -> None:
        """Stop the workers once the ready queue drains (idempotent).

        ``join_timeout`` bounds how long each worker join may take; a
        worker still wedged inside a payload after the timeout is
        abandoned (the threads are daemons).  Use a bounded timeout when
        shutting down after a watchdog-abandoned run — a full join would
        reintroduce exactly the hang the watchdog exists to prevent.
        """
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        if join_timeout is None:
            for thread in self._threads:
                thread.join()
        else:
            # One deadline for the whole pool: several wedged workers must
            # not stack their timeouts.
            deadline = time.monotonic() + join_timeout
            for thread in self._threads:
                thread.join(max(0.0, deadline - time.monotonic()))

    # -- submission ---------------------------------------------------------
    def _push(self, run: _GraphRun, tid: str) -> None:
        # cv held.  seq breaks flops ties so heap tuples never compare runs.
        heapq.heappush(self._ready, (-run.graph.tasks[tid].flops, self._seq, run, tid))
        self._seq += 1
        run.ready_count += 1

    def run(
        self,
        graph: TaskGraph,
        payloads: Optional[Dict[str, Callable[[], None]]] = None,
        stall_timeout: Optional[float] = None,
    ) -> int:
        """Execute every task of ``graph``, honoring RAW edges; returns the count.

        ``payloads`` maps task ids to callables; tasks without a payload
        are treated as no-ops.  The first
        payload exception is re-raised here once no more of this graph's
        tasks are in flight.  A dependency deadlock (no ready task, none in
        flight, tasks remaining) raises :class:`SchedulingError` instead of
        hanging; ``stall_timeout`` additionally bounds the gap between task
        completions (see :attr:`repro.config.GOFMMConfig.executor_stall_timeout`).
        Safe to call from multiple threads concurrently.
        """
        run = _GraphRun(graph, payloads)
        with self._cv:
            if self._closed:
                raise SchedulingError("worker pool is shut down")
            for tid, count in run.pending.items():
                if count == 0:
                    self._push(run, tid)
            if run.remaining == 0:
                run.finished = True
            elif run.ready_count == 0:
                run.errors.append(
                    SchedulingError(f"task graph stalled with {run.remaining} tasks pending")
                )
                run.finished = True
            else:
                self._cv.notify_all()

            last_executed = run.executed
            deadline = None if stall_timeout is None else time.monotonic() + stall_timeout
            while not run.finished:
                timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
                self._cv.wait(timeout)
                if run.finished or deadline is None:
                    continue
                if run.executed != last_executed:
                    # progress since the last check: restart the window
                    last_executed = run.executed
                    deadline = time.monotonic() + stall_timeout
                elif time.monotonic() >= deadline:
                    stalled = sorted(run.in_flight_tids)
                    _obs_counters.add("chunk_stalls")
                    _LOG.warning(
                        "executor stall watchdog fired after %gs (%d in flight: %s; %d pending); "
                        "abandoning the run",
                        stall_timeout,
                        run.in_flight,
                        ", ".join(stalled) or "<none>",
                        run.remaining,
                    )
                    run.errors.append(
                        ExecutorStallError(
                            f"no task completed within the stall timeout ({stall_timeout:g}s) "
                            f"with {run.in_flight} in flight"
                            + (f" ({', '.join(stalled)})" if stalled else "")
                            + f" and {run.remaining} pending; "
                            "raise GOFMMConfig.executor_stall_timeout for long-running evaluations",
                            stalled_tasks=stalled,
                        )
                    )
                    # Abandon the run: queued tasks are dropped lazily by the
                    # workers, in-flight results are ignored.
                    run.finished = True
                    self._cv.notify_all()
        if run.errors:
            raise run.errors[0]
        return run.executed

    # -- workers ------------------------------------------------------------
    def _worker(self) -> None:
        cv = self._cv
        while True:
            # An idle worker must not pin its last run: the run's payloads close
            # over the plan, its block providers and its buffers, which would
            # stay resident until this worker's next task.
            run = payload = exc = None
            with cv:
                while not self._ready and not self._closed:
                    cv.wait()
                if not self._ready:
                    return  # closed and drained
                _, _, run, tid = heapq.heappop(self._ready)
                run.ready_count -= 1
                if run.finished or run.errors:
                    continue  # failed/abandoned run: drop its queued tasks
                run.in_flight += 1
                run.in_flight_tids.add(tid)
            payload = run.payloads.get(tid)
            exc: Optional[BaseException] = None
            try:
                if payload is not None:
                    tracer = get_tracer()
                    if tracer.enabled:
                        with tracer.span(
                            "executor.task", task=tid, kind=run.graph.tasks[tid].kind
                        ):
                            payload()
                    else:
                        payload()
            except BaseException as caught:  # propagate to the run's caller
                exc = caught
            with cv:
                run.in_flight -= 1
                run.in_flight_tids.discard(tid)
                if exc is not None:
                    run.errors.append(exc)
                if run.errors or run.finished:
                    # Failed (or abandoned by the watchdog): finish once the
                    # last in-flight task of this run has landed.
                    if run.errors and run.in_flight == 0:
                        run.finished = True
                    cv.notify_all()
                    continue
                run.remaining -= 1
                run.executed += 1
                for succ in run.graph.successors(tid):
                    run.pending[succ] -= 1
                    if run.pending[succ] == 0:
                        self._push(run, succ)
                if run.remaining == 0:
                    run.finished = True
                elif run.in_flight == 0 and run.ready_count == 0:
                    # Nothing of this run is ready or running, tasks left:
                    # the graph cannot make progress.
                    run.errors.append(
                        SchedulingError(f"task graph stalled with {run.remaining} tasks pending")
                    )
                    run.finished = True
                cv.notify_all()


def run_task_graph(
    graph: TaskGraph,
    num_workers: int,
    payloads: Optional[Dict[str, Callable[[], None]]] = None,
    stall_timeout: Optional[float] = None,
) -> int:
    """Execute ``graph`` on a transient :class:`WorkerPool` of ``num_workers`` threads.

    One-shot convenience around :meth:`WorkerPool.run`; long-lived callers
    (servers) should hold a pool and share it across evaluations instead of
    paying thread startup per call.
    """
    if num_workers < 1:
        raise SchedulingError("need at least one worker")
    pool = WorkerPool(min(num_workers, max(len(graph.tasks), 1)))
    try:
        result = pool.run(graph, payloads=payloads, stall_timeout=stall_timeout)
    except BaseException:
        # A failed run may have a worker wedged in its payload (that is what
        # the stall watchdog fires on): bound the join so the error — not a
        # fresh hang — reaches the caller.  Wedged daemons are abandoned.
        pool.shutdown(join_timeout=0.1)
        raise
    pool.shutdown()
    return result


#: Sentinel: "take the stall timeout from the compression's config" — distinct
#: from None, which explicitly disables the watchdog (WorkerPool.run semantics).
_CONFIG_TIMEOUT = object()


def parallel_evaluate(
    compressed: CompressedMatrix,
    w: np.ndarray,
    num_workers: int = 4,
    engine: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
    stall_timeout=_CONFIG_TIMEOUT,
) -> np.ndarray:
    """Evaluate ``K̃ w`` by running the selected plan with a worker pool.

    ``engine`` defaults to :meth:`CompressedMatrix.default_engine` and
    selects the plan (``"planned"``: :meth:`CompressedMatrix.plan`,
    ``"streamed"``: :meth:`CompressedMatrix.streaming_plan`); the result is
    bit-identical to ``compressed.matvec(w, engine=engine)``, because the
    plan's execution chain is sequential.  Only fill chunks run on a pool:
    ``pool`` (a :class:`WorkerPool`) replaces the plan's shared pipeline
    pool for them, and a plan that fills no chunk runs in the caller's
    thread.  ``num_workers`` is checked but sizes nothing — the pipeline's
    concurrency is bounded by its buffer count.  ``stall_timeout``
    defaults to the compression's ``GOFMMConfig.executor_stall_timeout``;
    pass ``None`` explicitly to disable the watchdog for this call.
    """
    if num_workers < 1:
        raise SchedulingError("need at least one worker")
    engine = engine or compressed.default_engine()
    if engine == "planned":
        plan = compressed.plan()
    elif engine == "streamed":
        plan = compressed.streaming_plan()
    else:
        raise SchedulingError(
            f"unknown evaluation engine {engine!r}; use 'planned' or 'streamed'"
        )
    if stall_timeout is _CONFIG_TIMEOUT:
        stall_timeout = getattr(compressed.config, "executor_stall_timeout", None)
    weights, was_vector = _as_matrix(w, compressed.tree.n)
    output = plan.execute(weights, pool=pool, stall_timeout=stall_timeout)
    return output[:, 0] if was_vector else output

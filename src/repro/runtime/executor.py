"""Real out-of-order execution of the evaluation work on a thread pool.

The scheduler simulations in :mod:`repro.runtime.schedulers` answer "how
long would this DAG take on machine X under policy Y"; this module answers
the complementary correctness question: the evaluation of Algorithm 2.7
really can be executed out of order, constrained only by the RAW edges of
the symbolic DAG, and produce the same result as the sequential engines.

Both engines share one worker pool:

* ``engine="planned"`` runs over the *segments* of the packed
  :class:`repro.core.plan.EvaluationPlan` — a few dozen batched GEMMs with
  level/stage dependencies (:func:`repro.runtime.dag.build_plan_dag`) —
  instead of one task per tree node,
* ``engine="streamed"`` runs the streaming plan's chunk pipeline, its
  materializers drawing from the same pool.

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
the queue lock.  NumPy releases the GIL inside BLAS calls, so the parallel
speed-up is real, especially for the large batched GEMMs of the planned
engine.

Stall handling is two-layered: a *dependency* stall (nothing ready, nothing
in flight, tasks remaining — a malformed DAG) fails immediately, while a
*watchdog* timeout (``stall_timeout``, defaulting to
``GOFMMConfig.executor_stall_timeout``) bounds the gap between task
completions so a wedged payload cannot hang a server evaluation forever.

Output writes (S2N-at-leaves and L2L, which overlap on ``ctx.output``) are
serialized per *leaf range*, not through one shared lock: the leaves are
split into contiguous stripes with one lock each, and a plan segment
holds exactly the stripes its leaves fall in — segments writing disjoint
leaf ranges proceed concurrently.
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
from .dag import build_plan_dag
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


# ---------------------------------------------------------------------------
# planned engine: plan-segment DAG
# ---------------------------------------------------------------------------

class _StripeLockSet:
    """Ordered set of stripe locks one output-writing segment must hold.

    Acquisition is always in ascending stripe order (the constructor
    receives the locks pre-sorted), so two segments whose leaf ranges
    overlap can never deadlock.
    """

    __slots__ = ("locks",)

    def __init__(self, locks: list) -> None:
        self.locks = locks

    def __enter__(self) -> "_StripeLockSet":
        for lock in self.locks:
            lock.acquire()
        return self

    def __exit__(self, *exc) -> bool:
        for lock in reversed(self.locks):
            lock.release()
        return False


def _output_stripe_locks(compressed: CompressedMatrix, segments: dict, num_workers: int) -> dict:
    """Per-leaf-range stripe locks for the segments that add into the output.

    S2N-at-leaves and L2L both scatter into ``ctx.output``; a single shared
    lock would serialize them entirely (the last contention point of the
    threaded executor).  Leaves are split into contiguous ranges ("stripes"),
    one lock each, and every output-writing segment takes exactly the locks
    of the stripes its leaves fall in — segments touching disjoint leaf
    ranges now add into the output concurrently.
    """
    tree = compressed.tree
    num_leaves = len(tree.leaves)
    num_stripes = max(1, min(4 * num_workers, num_leaves))
    stripe_locks = [threading.Lock() for _ in range(num_stripes)]
    # balanced contiguous ranges in left-to-right leaf order
    stripe_of_leaf = np.arange(num_leaves, dtype=np.intp) * num_stripes // num_leaves
    stripe_of_row = np.empty(tree.n, dtype=np.intp)
    for slot, leaf in enumerate(tree.leaves):
        stripe_of_row[leaf.indices] = stripe_of_leaf[slot]

    locks: dict = {}
    for tid, seg in segments.items():
        buffer, _, rows = seg.dst
        if buffer != "output":
            locks[tid] = None  # workspace scatters are disjoint by construction
            continue
        # Output is written row by row and each row-block is one whole leaf,
        # so its first row names the leaf.
        stripes = np.unique(stripe_of_row[rows[:, 0]])
        locks[tid] = _StripeLockSet([stripe_locks[int(s)] for s in stripes])
    return locks


def _parallel_evaluate_planned(
    compressed: CompressedMatrix,
    weights: np.ndarray,
    num_workers: int,
    pool: Optional[WorkerPool] = None,
    stall_timeout: Optional[float] = None,
) -> np.ndarray:
    plan = compressed.plan()
    ctx = plan.new_context(weights)
    graph, segments = build_plan_dag(plan, num_rhs=weights.shape[1])
    # S2N-at-leaves overlaps L2L on the output; instead of one shared lock,
    # the output is striped by leaf range and each segment holds only the
    # stripes it writes.  Workspace scatters are disjoint per stage by
    # construction (see plan.PlanSegment) and need no lock.
    out_locks = _output_stripe_locks(compressed, segments, num_workers)
    payloads = {
        tid: (lambda s=seg, l=out_locks[tid]: s.run(ctx, out_lock=l))
        for tid, seg in segments.items()
    }
    if pool is not None:
        pool.run(graph, payloads=payloads, stall_timeout=stall_timeout)
    else:
        run_task_graph(graph, num_workers, payloads=payloads, stall_timeout=stall_timeout)
    # Release only on success: after a failed or watchdog-abandoned run an
    # in-flight payload may still be writing through the context, so pooling
    # its buffers could corrupt a later evaluation — let the GC take them.
    output = ctx.output
    plan.release_context(ctx)
    return output


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
    """Evaluate ``K̃ w`` by executing the evaluation DAG with ``num_workers`` threads.

    ``engine`` defaults to :meth:`CompressedMatrix.default_engine`.
    ``engine="planned"`` schedules the batched segments of the cached
    evaluation plan, agreeing with the sequential planned engine to
    floating-point summation order.  ``engine="streamed"`` runs the streaming plan's chunk pipeline
    (bit-identical to the sequential streamed engine — its execution chain
    is sequential by design); its concurrency is bounded by the pipeline's
    buffer count, so ``num_workers`` does not apply to it.  Passing a
    :class:`WorkerPool` as ``pool`` reuses its persistent workers (and
    ignores ``num_workers`` for thread creation — the pool's size governs
    concurrency).  ``stall_timeout`` defaults to the compression's
    ``GOFMMConfig.executor_stall_timeout``; pass ``None`` explicitly to
    disable the watchdog for this call.
    """
    if num_workers < 1:
        raise SchedulingError("need at least one worker")
    engine = engine or compressed.default_engine()
    if stall_timeout is _CONFIG_TIMEOUT:
        stall_timeout = getattr(compressed.config, "executor_stall_timeout", None)
    weights, was_vector = _as_matrix(w, compressed.tree.n)
    if engine == "planned":
        output = _parallel_evaluate_planned(compressed, weights, num_workers, pool, stall_timeout)
    elif engine == "streamed":
        # The streaming plan is already a task graph (chunk pipeline); run
        # it on the caller's pool so serving shares one set of workers.
        # Without a pool it uses the engine's shared pipeline pool —
        # ``num_workers`` does not apply: the chunk pipeline's concurrency
        # is bounded by its buffer count, not by a worker-count argument.
        output = compressed.streaming_plan().execute(
            weights, counters=None, pool=pool, stall_timeout=stall_timeout
        )
    else:
        raise SchedulingError(
            f"unknown evaluation engine {engine!r}; use 'planned' or 'streamed'"
        )
    return output[:, 0] if was_vector else output

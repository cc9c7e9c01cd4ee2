"""Micro-batching request queue: coalesce single-vector requests into wide GEMMs.

conf_sc_YuLRB17's central performance observation is that the compressed
evaluation only reaches BLAS-3 throughput when fed wide right-hand-side
blocks — the planned engine is several-fold faster at 16 RHS than at 1.  A
serving workload, however, arrives as a stream of *independent* ``(n,)``
vectors.  This module closes that gap: a :class:`MicroBatcher` queues
concurrent requests per operator and hands the evaluation one ``(n, k)``
block, slicing the result columns back to per-request futures.

Batching policy (:class:`BatchPolicy`):

* ``max_batch`` — evaluate as soon as this many coalescable requests are
  queued (the GEMM width the operator was tuned for),
* ``max_wait_ms`` — a request never waits longer than this for co-batched
  traffic; an idle server degenerates to at most one ``max_wait_ms`` of
  added latency,
* ``max_queue`` — bounded queue, **per lane**: a submission that finds
  its lane already holding ``max_queue`` requests is rejected with
  :class:`~repro.errors.ServerOverloadedError` carrying a
  ``retry_after_s`` hint (backpressure instead of unbounded memory),
* ``latency_target_ms`` — adaptive batching: the effective wait shrinks
  and grows with an EWMA of the observed p90 batch latency so occupancy
  stays high without blowing the latency budget (see
  :class:`BatchPolicy`); the current wait is exported in the metrics,
* ``lanes`` — named **latency lanes**, see below,
* ``pad_to_full_width`` — see below.

**Latency lanes.**  Every request is submitted on a named lane.  The
default ``"throughput"`` lane batches under ``max_wait_ms`` as above; the
built-in ``"interactive"`` lane sets ``max_wait_ms=0`` — it *flushes
immediately* with whatever lane-mates are already queued, trading batch
occupancy for latency.  Custom lanes are declared with
``BatchPolicy(lanes={"bulk": LanePolicy(max_wait_ms=50.0)})``.  Ready
lanes are served **lowest-wait first**: at every batch boundary a
non-empty low-latency lane preempts the throughput backlog, so a deep
throughput queue cannot head-of-line-block interactive traffic; and since
every lane is bounded by its own ``max_queue`` count, a throughput backlog
cannot crowd interactive requests out of the queue either.

**Deadlines and shedding.**  A request may carry ``deadline_ms``; if the
deadline expires while the request is still queued it is **shed**: its
future fails with :class:`~repro.errors.DeadlineExceededError` and the
request never occupies a GEMM slot — the evaluation capacity goes to
requests that can still meet their SLO, instead of computing answers
nobody is waiting for.  A request admitted into a batch is always
evaluated (the deadline bounds queueing, not evaluation).

**Bit-identity.**  BLAS kernels select different accumulation strategies
for different GEMM widths, so the columns of ``K̃ @ [w₁ … w₁₆]`` are *not*
bitwise equal to the sixteen ``K̃ @ wⱼ`` products.  At a *fixed* width,
however, each output column is a bit-deterministic function of its own
input column alone (a GEMM output element only ever accumulates products
of its own column; zero padding and column position are irrelevant — the
serving tests pin this).  The batcher therefore evaluates every matvec
batch at the canonical width ``max_batch``, zero-padding partial batches:
a request's response is bitwise identical whether it ran alone, in a full
batch, co-batched with any other traffic, **or on any lane** (lanes only
change waiting, never the GEMM width).  Setting
``pad_to_full_width=False`` trades that guarantee for fewer padded columns
at low load (responses stay within floating-point round-off of each
other).

Requests only coalesce within a *lane* — same kind (``"matvec"`` /
``"solve"``), same lane name and, for solves, identical solver
parameters.  Solve batches run the blocked CG of :mod:`repro.solvers`
(one wide matvec per Krylov iteration); their responses are accurate to
the requested tolerance but not bit-pinned, because the blocked CG drops
converged columns from the active set, which couples the iteration shapes
across co-batched requests.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import DeadlineExceededError, ServerOverloadedError, ServingConfigError, ServingError
from ..obs import counters as _obs_counters
from ..obs import get_logger
from ..obs.trace import get_tracer

_LOG = get_logger("serving.batcher")

__all__ = [
    "BatchPolicy",
    "LanePolicy",
    "MicroBatcher",
    "MATVEC",
    "SOLVE",
    "THROUGHPUT",
    "INTERACTIVE",
]

MATVEC = "matvec"
SOLVE = "solve"

#: The default lane: batches under the policy's ``max_wait_ms`` (adaptive
#: when ``latency_target_ms`` is set).
THROUGHPUT = "throughput"
#: The built-in low-latency lane: flushes immediately, never waits for
#: co-batched traffic.
INTERACTIVE = "interactive"


@dataclass(frozen=True)
class LanePolicy:
    """Per-lane overrides of the batching knobs.

    ``max_wait_ms=None`` inherits the policy's ``max_wait_ms`` (including
    its adaptive adjustment when ``latency_target_ms`` is set); ``0.0``
    makes the lane flush immediately.  ``max_batch=None`` inherits the
    policy's ``max_batch``; an explicit value must not exceed it (the
    canonical GEMM width — and therefore bit-identity — is always the
    policy's ``max_batch``).
    """

    max_wait_ms: Optional[float] = None
    max_batch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_wait_ms is not None and not (self.max_wait_ms >= 0.0):
            raise ServingConfigError(
                f"LanePolicy.max_wait_ms must be >= 0 (or None to inherit), got {self.max_wait_ms}"
            )
        if self.max_batch is not None and self.max_batch < 1:
            raise ServingConfigError(
                f"LanePolicy.max_batch must be >= 1 (or None to inherit), got {self.max_batch}"
            )


#: The two lanes every policy ships with.  Custom ``lanes`` entries are
#: merged over these (and may override them).
DEFAULT_LANES: Mapping[str, LanePolicy] = {
    THROUGHPUT: LanePolicy(),
    INTERACTIVE: LanePolicy(max_wait_ms=0.0),
}


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the micro-batching queue (see the module docstring).

    ``latency_target_ms`` arms **adaptive batching**: the batcher tracks an
    EWMA of the observed p90 request latency per batch and shrinks its
    effective wait (halving) whenever the estimate exceeds the target, or
    grows it back (by 25%, never past ``max_wait_ms``) while the estimate
    sits comfortably below — keeping batch occupancy high at light load
    without letting co-batching wait blow the latency budget under heavy
    or slow-evaluating traffic.  ``None`` (the default) keeps the fixed
    ``max_wait_ms`` behavior.  The current effective wait is exposed as
    ``adaptive_wait_ms`` in the operator's metrics snapshot.  Only lanes
    that *inherit* the policy wait (``LanePolicy.max_wait_ms is None``)
    follow — and feed — the adaptive wait; lanes with an explicit wait are
    fixed.

    ``lanes`` declares extra latency lanes (merged over
    :data:`DEFAULT_LANES`); all validation happens here, at construction,
    raising :class:`~repro.errors.ServingConfigError`.

    ``max_queue`` bounds each lane separately (by lane name; a lane's solve
    requests count with its matvecs), so the queued requests of one
    operator are bounded by ``len(lanes) * max_queue`` in total.
    """

    max_batch: int = 16
    max_wait_ms: float = 2.0
    max_queue: int = 256
    pad_to_full_width: bool = True
    retry_after_ms: float = 25.0
    latency_target_ms: Optional[float] = None
    lanes: Optional[Mapping[str, LanePolicy]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.max_batch, int) or self.max_batch < 1:
            raise ServingConfigError(
                f"max_batch must be a positive integer (the canonical GEMM width), got {self.max_batch!r}"
            )
        if not (self.max_wait_ms >= 0.0):
            raise ServingConfigError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if not isinstance(self.max_queue, int) or self.max_queue < 1:
            raise ServingConfigError(f"max_queue must be a positive integer, got {self.max_queue!r}")
        if not (self.retry_after_ms >= 0.0):
            raise ServingConfigError(f"retry_after_ms must be >= 0, got {self.retry_after_ms}")
        if self.latency_target_ms is not None and not (self.latency_target_ms > 0.0):
            raise ServingConfigError(
                f"latency_target_ms must be positive or None, got {self.latency_target_ms}"
            )
        table = dict(DEFAULT_LANES)
        if self.lanes is not None:
            for name, lane in self.lanes.items():
                if not isinstance(name, str) or not name:
                    raise ServingConfigError(f"lane names must be non-empty strings, got {name!r}")
                if not isinstance(lane, LanePolicy):
                    raise ServingConfigError(
                        f"lane {name!r} must be a LanePolicy, got {type(lane).__name__}"
                    )
                table[name] = lane
        for name, lane in table.items():
            if lane.max_batch is not None and lane.max_batch > self.max_batch:
                raise ServingConfigError(
                    f"lane {name!r} max_batch={lane.max_batch} exceeds the policy's "
                    f"canonical width max_batch={self.max_batch}"
                )
        object.__setattr__(self, "lanes", table)

    # -- lane resolution ------------------------------------------------------
    def lane_policy(self, name: str) -> LanePolicy:
        """The :class:`LanePolicy` for ``name``; unknown lanes raise."""
        try:
            return self.lanes[name]
        except KeyError:
            raise ServingError(
                f"unknown lane {name!r}; declared lanes: {', '.join(sorted(self.lanes))}"
            ) from None

    def lane_limits(self, name: str) -> Tuple[Optional[float], int]:
        """``(max_wait_ms, max_batch)`` for a lane; wait ``None`` means
        "inherit the (possibly adaptive) policy wait"."""
        lane = self.lane_policy(name)
        return lane.max_wait_ms, lane.max_batch if lane.max_batch is not None else self.max_batch


class _Request:
    __slots__ = ("kind", "lane", "lane_name", "vector", "params", "future",
                 "enqueued_at", "deadline_at")

    def __init__(
        self,
        kind: str,
        lane: tuple,
        lane_name: str,
        vector: np.ndarray,
        params: Optional[dict],
        deadline_at: Optional[float],
    ) -> None:
        self.kind = kind
        self.lane = lane
        self.lane_name = lane_name
        self.vector = vector
        self.params = params
        self.future: Future = Future()
        self.enqueued_at = time.monotonic()
        self.deadline_at = deadline_at


class MicroBatcher:
    """One bounded queue + one worker thread coalescing requests for one operator.

    ``runner(kind, W, params)`` performs the wide evaluation: it receives
    the request kind, the stacked ``(n, k)`` block (``k`` = the number of
    coalesced requests; the runner applies the policy's canonical-width
    padding for matvec lanes), and the lane's solver parameters; it
    returns one response per request, in column order.  The runner is
    looked up per batch, so
    swapping the underlying operator (hot reload) applies to every batch
    formed after the swap while in-flight batches finish on the operator
    they captured.
    """

    def __init__(
        self,
        runner: Callable[[str, np.ndarray, Optional[dict]], Sequence],
        policy: BatchPolicy,
        metrics,
        name: str = "operator",
        tracer=None,
    ) -> None:
        self._runner = runner
        self.policy = policy
        self.metrics = metrics
        self.name = name
        self.tracer = tracer
        self._cond = threading.Condition()
        #: Effective co-batching wait of wait-inheriting lanes; fixed at
        #: policy.max_wait_ms unless the policy sets a latency target
        #: (then adapted per batch).
        self._wait_ms = policy.max_wait_ms
        self._latency_ewma_ms: Optional[float] = None
        #: One FIFO per lane key; requests only coalesce within a lane.
        self._queues: dict[tuple, deque[_Request]] = {}
        self._depth = 0        # total queued requests
        self._lane_depth: dict[str, int] = {}  # queued per lane name (each <= max_queue)
        self._deadlined = 0    # queued requests carrying a deadline (shed fast path)
        self._closed = False
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._thread is not None

    def start(self) -> None:
        """Start (or restart) the worker; a closed batcher reopens empty."""
        if self._thread is not None:
            return
        with self._cond:
            self._closed = False
        self._thread = threading.Thread(
            target=self._worker, name=f"serving-batcher-{self.name}", daemon=True
        )
        self._thread.start()

    def close(self, drain: bool = True) -> None:
        """Stop the worker.  ``drain=True`` serves queued requests first;
        ``drain=False`` fails them with :class:`ServingError`."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            dropped: List[_Request] = []
            if not drain:
                for queue in self._queues.values():
                    dropped.extend(queue)
                self._queues.clear()
                self._dequeued_locked(dropped)
            self._cond.notify_all()
        for request in dropped:
            if not request.future.set_running_or_notify_cancel():
                continue  # already cancelled by the caller
            request.future.set_exception(
                ServingError(f"server for operator {self.name!r} shut down before the request ran")
            )
            self.metrics.record_response(time.monotonic() - request.enqueued_at, ok=False)
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    # -- submission ---------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        with self._cond:
            return self._depth

    def submit(
        self,
        kind: str,
        vector: np.ndarray,
        params: Optional[dict] = None,
        lane: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> Future:
        """Enqueue one request; returns its future.

        ``lane`` selects the latency lane (default :data:`THROUGHPUT`);
        ``deadline_ms`` arms shed-on-deadline (measured from now).  Raises
        :class:`ServerOverloadedError` when the lane's queue is full and
        :class:`ServingError` for unknown lanes or when the batcher is
        closed or was never started.
        """
        lane_name = THROUGHPUT if lane is None else lane
        self.policy.lane_policy(lane_name)  # validate before touching the queue
        if kind == SOLVE:
            lane_key = (SOLVE, lane_name, tuple(sorted((params or {}).items())))
        elif kind == MATVEC:
            lane_key = (MATVEC, lane_name)
        else:
            raise ServingError(f"unknown request kind {kind!r}; use {MATVEC!r} or {SOLVE!r}")
        deadline_at = None
        if deadline_ms is not None:
            if not (deadline_ms > 0.0):
                raise ServingError(f"deadline_ms must be positive, got {deadline_ms}")
            deadline_at = time.monotonic() + deadline_ms / 1e3
        request = _Request(kind, lane_key, lane_name, vector, params, deadline_at)
        with self._cond:
            if self._closed:
                raise ServingError(f"server for operator {self.name!r} is shut down")
            if self._thread is None:
                raise ServingError(
                    f"server for operator {self.name!r} is not started (call MatvecServer.start())"
                )
            queued = self._lane_depth.get(lane_name, 0)
            if queued >= self.policy.max_queue:
                self.metrics.record_reject(lane_name)
                raise ServerOverloadedError(
                    f"operator {self.name!r} lane {lane_name!r} queue is full "
                    f"({self.policy.max_queue} requests); "
                    f"retry after {self.policy.retry_after_ms:g} ms",
                    retry_after_s=self.policy.retry_after_ms / 1e3,
                )
            self._queues.setdefault(lane_key, deque()).append(request)
            self._lane_depth[lane_name] = queued + 1
            self._depth += 1
            if deadline_at is not None:
                self._deadlined += 1
            self.metrics.record_submit(self._depth, lane_name)
            self._cond.notify_all()
        return request.future

    # -- adaptive wait -------------------------------------------------------
    @property
    def current_wait_ms(self) -> float:
        """The effective co-batching wait (== ``policy.max_wait_ms`` unless adaptive)."""
        with self._cond:
            return self._wait_ms

    #: EWMA smoothing factor for the observed p90 batch latency.
    _EWMA_ALPHA = 0.2
    #: Floor of the adaptive wait: adaptation may effectively disable
    #: co-batching waiting but must be able to recover (0 would make the
    #: multiplicative grow-back a no-op).
    _MIN_WAIT_MS = 0.05

    def _adapt_wait(self, batch: List[_Request], now: float) -> None:
        """Shrink/grow the effective wait from the observed p90 batch latency.

        Called by the worker after every evaluated batch of a
        wait-inheriting lane when the policy sets ``latency_target_ms``.
        The p90 of the batch's end-to-end request latencies feeds an EWMA;
        above the target the wait halves (waiting for co-traffic is the
        one latency component the batcher controls), below 70% of it the
        wait grows 25% back toward ``max_wait_ms`` to recover occupancy.
        """
        target = self.policy.latency_target_ms
        if target is None:
            return
        latencies_ms = [(now - request.enqueued_at) * 1e3 for request in batch]
        observed = float(np.percentile(latencies_ms, 90))
        with self._cond:
            if self._latency_ewma_ms is None:
                self._latency_ewma_ms = observed
            else:
                self._latency_ewma_ms += self._EWMA_ALPHA * (observed - self._latency_ewma_ms)
            if self._latency_ewma_ms > target:
                self._wait_ms = max(self._MIN_WAIT_MS, self._wait_ms * 0.5)
            elif self._latency_ewma_ms < 0.7 * target:
                self._wait_ms = min(
                    self.policy.max_wait_ms, max(self._wait_ms * 1.25, self._MIN_WAIT_MS)
                )
            self.metrics.record_adaptive_wait(self._wait_ms, self._latency_ewma_ms)

    # -- worker -------------------------------------------------------------
    def _effective_wait_ms(self, lane_name: str) -> Tuple[float, int, bool]:
        """(wait_ms, lane_max_batch, inherits) with the adaptive wait applied."""
        wait_ms, lane_batch = self.policy.lane_limits(lane_name)
        if wait_ms is None:
            return self._wait_ms, lane_batch, True
        return wait_ms, lane_batch, False

    def _dequeued_locked(self, requests: Sequence[_Request]) -> None:
        """Release the queue counts of requests just removed from the queues."""
        self._depth -= len(requests)
        for request in requests:
            self._lane_depth[request.lane_name] -= 1
            if request.deadline_at is not None:
                self._deadlined -= 1

    def _extract_expired_locked(self, now: float) -> List[_Request]:
        """Remove and return every queued request whose deadline has passed."""
        if self._deadlined == 0:
            return []
        shed: List[_Request] = []
        for lane_key in list(self._queues):
            queue = self._queues[lane_key]
            if not any(r.deadline_at is not None and r.deadline_at <= now for r in queue):
                continue
            kept: deque[_Request] = deque()
            for request in queue:
                if request.deadline_at is not None and request.deadline_at <= now:
                    shed.append(request)
                else:
                    kept.append(request)
            if kept:
                self._queues[lane_key] = kept
            else:
                del self._queues[lane_key]
        self._dequeued_locked(shed)
        return shed

    def _collect(self) -> Optional[Tuple[List[_Request], List[_Request]]]:
        """Block until work is ready; returns ``(batch, shed)``, ``None`` when
        closed and drained.

        Shedding runs first: deadline-expired requests are returned for the
        worker to fail *before* any of them can occupy a GEMM slot.  Among
        the lanes that are ready (full, wait expired, or the batcher is
        closing) the **lowest-wait lane wins** (ties by earliest flush
        time), so the interactive lane preempts a throughput backlog at
        every batch boundary.
        """
        with self._cond:
            while True:
                if self._depth == 0:
                    if self._closed:
                        return None
                    self._cond.wait()
                    continue
                now = time.monotonic()
                shed = self._extract_expired_locked(now)
                if shed:
                    return [], shed
                best_key = None
                best_rank: Tuple[float, float] = (0.0, 0.0)
                best_batch = 0
                wake: Optional[float] = None
                for lane_key, queue in self._queues.items():
                    head = queue[0]
                    wait_ms, lane_batch, _ = self._effective_wait_ms(lane_key[1])
                    flush_at = head.enqueued_at + wait_ms / 1e3
                    if self._closed or len(queue) >= lane_batch or flush_at <= now:
                        rank = (wait_ms, flush_at)
                        if best_key is None or rank < best_rank:
                            best_key, best_rank, best_batch = lane_key, rank, lane_batch
                    elif wake is None or flush_at < wake:
                        wake = flush_at
                if best_key is not None:
                    queue = self._queues[best_key]
                    take = min(len(queue), best_batch)
                    batch = [queue.popleft() for _ in range(take)]
                    self._dequeued_locked(batch)
                    if not queue:
                        del self._queues[best_key]
                    return batch, []
                if self._deadlined:
                    for queue in self._queues.values():
                        for request in queue:
                            if request.deadline_at is not None and (
                                wake is None or request.deadline_at < wake
                            ):
                                wake = request.deadline_at
                # every not-ready lane has a finite flush time, so wake is set
                self._cond.wait(None if wake is None else max(0.0, wake - now))

    def _active_tracer(self):
        tracer = self.tracer
        return tracer if (tracer is not None and tracer.enabled) else get_tracer()

    def _worker(self) -> None:
        while True:
            collected = self._collect()
            if collected is None:
                return
            batch, shed = collected
            if shed:
                now = time.monotonic()
                tracer = self._active_tracer()
                for request in shed:
                    if not request.future.set_running_or_notify_cancel():
                        continue  # already cancelled by the caller
                    waited_ms = (now - request.enqueued_at) * 1e3
                    request.future.set_exception(
                        DeadlineExceededError(
                            f"request on lane {request.lane_name!r} of operator {self.name!r} "
                            f"shed: deadline expired after {waited_ms:.1f} ms in queue "
                            f"(never evaluated; safe to retry)",
                            lane=request.lane_name,
                            waited_ms=waited_ms,
                        )
                    )
                    self.metrics.record_shed(request.lane_name)
                    _obs_counters.add("requests_shed")
                    if tracer.enabled:
                        tracer.instant(
                            "serve.shed", lane=request.lane_name, waited_ms=waited_ms
                        )
                _LOG.warning(
                    "operator %r shed %d deadline-expired request(s) before evaluation",
                    self.name,
                    len(shed),
                )
            if not batch:
                continue
            # Claim every future before evaluating: a pending future can be
            # cancelled at any time (e.g. an asyncio caller timing out), and
            # set_result on a cancelled future raises — which would kill this
            # worker and wedge the operator.  set_running_or_notify_cancel
            # atomically drops already-cancelled requests and makes the rest
            # uncancellable for the duration of the batch.
            batch = [r for r in batch if r.future.set_running_or_notify_cancel()]
            if not batch:
                continue
            started = time.monotonic()
            try:
                tracer = self._active_tracer()
                if tracer.enabled:
                    with tracer.span(
                        "serve.batch.assemble",
                        operator=self.name,
                        requests=len(batch),
                        lane=batch[0].lane_name,
                    ):
                        block = np.stack([request.vector for request in batch], axis=1)
                else:
                    block = np.stack([request.vector for request in batch], axis=1)
                results = self._runner(batch[0].kind, block, batch[0].params)
                if len(results) != len(batch):
                    raise ServingError(
                        f"runner returned {len(results)} responses for a batch of {len(batch)}"
                    )
            except BaseException as exc:  # fail the whole batch, keep serving
                now = time.monotonic()
                for request in batch:
                    request.future.set_exception(exc)
                    self.metrics.record_response(now - request.enqueued_at, ok=False)
                continue
            now = time.monotonic()
            self.metrics.record_batch(len(batch), now - started)
            _obs_counters.add("batches_assembled")
            _obs_counters.add("batch_requests", len(batch))
            _obs_counters.add("batch_occupancy_sum", len(batch) / self.policy.max_batch)
            _, _, inherits = self._effective_wait_ms(batch[0].lane_name)
            if inherits:
                self._adapt_wait(batch, now)
            for request, result in zip(batch, results):
                request.future.set_result(result)
                self.metrics.record_response(now - request.enqueued_at, lane=request.lane_name)

"""Micro-batching serving runtime for compressed-operator traffic.

The paper's thesis is that hierarchical matrix evaluation reaches hardware
throughput only when fine-grained work is batched into level-wise BLAS-3
calls; the planned engine (PR 1) therefore wants wide ``(n, k)`` blocks,
while a serving workload arrives as independent single vectors.  This
package turns the one into the other:

* :class:`MatvecServer` — a registry of named
  :class:`~repro.api.operator.CompressedOperator` entries, each behind a
  :class:`MicroBatcher`, with hot reload of artifact-backed operators,
* :class:`BatchPolicy` — the batching knobs (``max_batch``,
  ``max_wait_ms``, a queue bounded per lane with
  :class:`~repro.errors.ServerOverloadedError` backpressure, canonical
  GEMM width for bitwise batch-invariance) plus named **latency lanes**
  (:class:`LanePolicy`): a ``"throughput"`` lane that coalesces and an
  ``"interactive"`` lane that flushes immediately, with per-request
  ``deadline_ms`` shed-on-deadline
  (:class:`~repro.errors.DeadlineExceededError`),
* :class:`ServingClient` / :class:`AsyncServingClient` — blocking and
  ``asyncio`` front ends with capped-exponential retry-after backoff,
* :class:`ServingMetrics` — request / latency / batch-occupancy metrics,
  per lane, with a stable :meth:`~ServingMetrics.to_dict` schema and
  :func:`aggregate_metrics` rollups over several instances.

Quickstart::

    from repro.serving import BatchPolicy, MatvecServer

    server = MatvecServer(policy=BatchPolicy(max_batch=16, max_wait_ms=2.0))
    server.register("kernel", operator)
    with server:
        u = server.matvec("kernel", w)          # one request
        futs = [server.submit("kernel", w) for w in stream]   # batched

A demo traffic generator ships as ``python -m repro.serving`` (with
``--metrics-json`` for the stable metrics schema);
``benchmarks/bench_serving_throughput.py`` measures the batched-vs-
sequential request throughput and tail latency.
"""

from .batcher import (
    INTERACTIVE,
    MATVEC,
    SOLVE,
    THROUGHPUT,
    BatchPolicy,
    LanePolicy,
    MicroBatcher,
)
from .client import AsyncServingClient, ServingClient
from .metrics import METRICS_SCHEMA_VERSION, ServingMetrics, aggregate_metrics
from .server import MatvecServer, OperatorEntry, ShardRouter

__all__ = [
    "MatvecServer",
    "OperatorEntry",
    "MicroBatcher",
    "BatchPolicy",
    "LanePolicy",
    "ShardRouter",
    "ServingClient",
    "AsyncServingClient",
    "ServingMetrics",
    "aggregate_metrics",
    "METRICS_SCHEMA_VERSION",
    "MATVEC",
    "SOLVE",
    "THROUGHPUT",
    "INTERACTIVE",
]

"""Request / latency / batch-occupancy metrics for the serving runtime.

One :class:`ServingMetrics` instance per served operator (the server
aggregates snapshots in :meth:`repro.serving.server.MatvecServer.stats`;
:func:`aggregate_metrics` rolls several instances up into one).
Counters are monotonic; latency and batch-size distributions are kept in
bounded sliding windows so percentile reporting stays O(window) and the
memory of a long-running server never grows with traffic.  Latencies are
additionally windowed **per latency lane**, so the interactive and
throughput lanes report separate percentiles.

Two report shapes:

* :meth:`ServingMetrics.snapshot` — the human-facing dict used by
  ``MatvecServer.stats()``; omits sections with no data,
* :meth:`ServingMetrics.to_dict` — the **stable schema** (every key always
  present, ``schema_version`` pinned) consumed by :func:`aggregate_metrics`
  and external scrapers (``python -m repro.serving --metrics-json``).

Everything is guarded by one lock per instance — recording is a few
appends and adds, far off the evaluation hot path (one record per request
plus one per batch, against milliseconds of GEMM work).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..obs import counters as _obs_counters

__all__ = ["ServingMetrics", "aggregate_metrics", "METRICS_SCHEMA_VERSION"]

#: Version of the stable ``to_dict`` / ``aggregate_metrics`` schema.
#: v2 added the ``bytes_resident`` / ``bytes_on_disk`` memory split (how
#: much of the served operator lives in RAM vs pages in from an mmap store).
#: v3 adds the ``counters`` section re-exporting the process-wide pipeline
#: counters of :mod:`repro.obs.counters` — every vocabulary key always
#: present (zero until the instrumented path runs).  The registry is
#: process-wide, so in-process instances report the same values and
#: :func:`aggregate_metrics` sums them across instances.  All v2 keys are
#: unchanged.
METRICS_SCHEMA_VERSION = 3


def _latency_summary(latencies_s: Sequence[float]) -> Dict[str, float]:
    """``{count, mean, p50, p90, p99, max}`` in milliseconds (zeros when empty)."""
    arr = np.asarray(latencies_s, dtype=np.float64)
    if not arr.size:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
    return {
        "count": int(arr.size),
        "mean": float(arr.mean() * 1e3),
        "p50": float(np.percentile(arr, 50) * 1e3),
        "p90": float(np.percentile(arr, 90) * 1e3),
        "p99": float(np.percentile(arr, 99) * 1e3),
        "max": float(arr.max() * 1e3),
    }


class ServingMetrics:
    """Thread-safe serving statistics: counters + sliding-window distributions.

    ``window`` bounds how many recent request latencies / batch sizes feed
    the percentile and occupancy estimates (per lane for latencies).
    """

    def __init__(self, window: int = 4096) -> None:
        self._lock = threading.Lock()
        self._window = int(window)
        self._latencies: deque[float] = deque(maxlen=window)
        self._batch_sizes: deque[int] = deque(maxlen=window)
        self._batch_seconds: deque[float] = deque(maxlen=window)
        #: per-lane sliding latency windows + per-lane counters
        self._lane_latencies: Dict[str, deque] = {}
        self._lane_responses: Dict[str, int] = {}
        self._lane_shed: Dict[str, int] = {}
        self._lane_rejected: Dict[str, int] = {}
        self.requests = 0            # accepted into the queue
        self.responses = 0           # futures resolved successfully
        self.errors = 0              # futures resolved with an exception
        self.rejected = 0            # backpressure rejections
        self.shed = 0                # deadline-expired requests shed before evaluation
        self.batches = 0             # evaluations executed
        self.batched_requests = 0    # requests served across those evaluations
        self.reloads = 0             # successful operator swaps (hot reload)
        self.reload_failures = 0
        self.max_queue_depth = 0
        #: Adaptive-batching state (None until a latency-target policy records):
        #: the batcher's current effective wait and its latency-EWMA estimate.
        self.adaptive_wait_ms = None
        self.latency_ewma_ms = None
        #: Memory split of the served operator (see
        #: ``CompressedMatrix.memory_report``); gauges, refreshed at
        #: registration and on every hot reload, zero until recorded.
        self.bytes_resident = 0
        self.bytes_on_disk = 0

    # -- recording ----------------------------------------------------------
    def record_submit(self, queue_depth: int, lane: Optional[str] = None) -> None:
        with self._lock:
            self.requests += 1
            if queue_depth > self.max_queue_depth:
                self.max_queue_depth = queue_depth

    def record_reject(self, lane: Optional[str] = None) -> None:
        with self._lock:
            self.rejected += 1
            if lane is not None:
                self._lane_rejected[lane] = self._lane_rejected.get(lane, 0) + 1

    def record_shed(self, lane: Optional[str] = None) -> None:
        """A queued request's deadline expired; it was shed unevaluated."""
        with self._lock:
            self.shed += 1
            if lane is not None:
                self._lane_shed[lane] = self._lane_shed.get(lane, 0) + 1

    def record_batch(self, size: int, seconds: float) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += size
            self._batch_sizes.append(int(size))
            self._batch_seconds.append(float(seconds))

    def record_response(self, latency_seconds: float, ok: bool = True,
                        lane: Optional[str] = None) -> None:
        with self._lock:
            if ok:
                self.responses += 1
                self._latencies.append(float(latency_seconds))
                if lane is not None:
                    window = self._lane_latencies.get(lane)
                    if window is None:
                        window = self._lane_latencies[lane] = deque(maxlen=self._window)
                    window.append(float(latency_seconds))
                    self._lane_responses[lane] = self._lane_responses.get(lane, 0) + 1
            else:
                self.errors += 1

    def record_reload(self, ok: bool = True) -> None:
        with self._lock:
            if ok:
                self.reloads += 1
            else:
                self.reload_failures += 1

    def record_adaptive_wait(self, wait_ms: float, latency_ewma_ms: float) -> None:
        """Latest adaptive-batching state (see :class:`repro.serving.batcher.BatchPolicy`)."""
        with self._lock:
            self.adaptive_wait_ms = float(wait_ms)
            self.latency_ewma_ms = float(latency_ewma_ms)

    def record_memory(self, bytes_resident: int, bytes_on_disk: int) -> None:
        """Gauge update: the served operator's resident/on-disk byte split."""
        with self._lock:
            self.bytes_resident = int(bytes_resident)
            self.bytes_on_disk = int(bytes_on_disk)

    # -- raw state (aggregation substrate) -----------------------------------
    def _raw(self) -> Dict[str, object]:
        """A consistent copy of counters + windows, taken under the lock."""
        with self._lock:
            lanes = sorted(
                set(self._lane_latencies) | set(self._lane_shed) | set(self._lane_rejected)
            )
            return {
                "requests": self.requests,
                "responses": self.responses,
                "errors": self.errors,
                "rejected": self.rejected,
                "shed": self.shed,
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "reloads": self.reloads,
                "reload_failures": self.reload_failures,
                "max_queue_depth": self.max_queue_depth,
                "adaptive_wait_ms": self.adaptive_wait_ms,
                "latency_ewma_ms": self.latency_ewma_ms,
                "bytes_resident": self.bytes_resident,
                "bytes_on_disk": self.bytes_on_disk,
                "latencies": list(self._latencies),
                "batch_sizes": list(self._batch_sizes),
                "batch_seconds": list(self._batch_seconds),
                "counters": _obs_counters.snapshot(names=_obs_counters.VOCABULARY),
                "lanes": {
                    lane: {
                        "latencies": list(self._lane_latencies.get(lane, ())),
                        "responses": self._lane_responses.get(lane, 0),
                        "shed": self._lane_shed.get(lane, 0),
                        "rejected": self._lane_rejected.get(lane, 0),
                    }
                    for lane in lanes
                },
            }

    # -- reporting ----------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The stable metrics schema: every key always present.

        This is the shape :func:`aggregate_metrics` and external scrapers
        consume (``python -m repro.serving --metrics-json``); its keys are
        pinned by the unit tests and versioned by ``schema_version``.
        """
        return _render(self._raw(), instances=1)

    def snapshot(self) -> Dict[str, object]:
        """One JSON-friendly dict: counters plus latency/occupancy summaries.

        ``batch_occupancy`` is the mean number of requests coalesced per
        evaluation — the number that explains the serving speedup (a full
        batch amortizes one wide evaluation over ``max_batch`` requests).
        Sections with no data are omitted (use :meth:`to_dict` for the
        stable every-key-present schema).
        """
        raw = self._raw()
        out: Dict[str, object] = {
            "requests": raw["requests"],
            "responses": raw["responses"],
            "errors": raw["errors"],
            "rejected": raw["rejected"],
            "shed": raw["shed"],
            "batches": raw["batches"],
            "batch_occupancy": (
                raw["batched_requests"] / raw["batches"] if raw["batches"] else 0.0
            ),
            "reloads": raw["reloads"],
            "reload_failures": raw["reload_failures"],
            "max_queue_depth": raw["max_queue_depth"],
            "bytes_resident": raw["bytes_resident"],
            "bytes_on_disk": raw["bytes_on_disk"],
        }
        if raw["adaptive_wait_ms"] is not None:
            out["adaptive_wait_ms"] = raw["adaptive_wait_ms"]
            out["latency_ewma_ms"] = raw["latency_ewma_ms"]
        latencies = raw["latencies"]
        if latencies:
            out["latency_ms"] = _latency_summary(latencies)
        else:
            out["latency_ms"] = {"count": 0}
        sizes = np.asarray(raw["batch_sizes"], dtype=np.float64)
        if sizes.size:
            out["recent_batch_sizes"] = {"mean": float(sizes.mean()), "max": int(sizes.max())}
        batch_seconds = np.asarray(raw["batch_seconds"], dtype=np.float64)
        if batch_seconds.size:
            out["batch_eval_ms"] = {
                "mean": float(batch_seconds.mean() * 1e3),
                "max": float(batch_seconds.max() * 1e3),
            }
        if raw["lanes"]:
            out["lanes"] = {
                lane: {
                    "responses": stats["responses"],
                    "shed": stats["shed"],
                    "rejected": stats["rejected"],
                    "latency_ms": _latency_summary(stats["latencies"]),
                }
                for lane, stats in raw["lanes"].items()
            }
        return out


def _render(raw: Dict[str, object], instances: int) -> Dict[str, object]:
    """Render one raw state (or a merged one) into the stable schema."""
    sizes = np.asarray(raw["batch_sizes"], dtype=np.float64)
    batch_seconds = np.asarray(raw["batch_seconds"], dtype=np.float64)
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "instances": instances,
        "requests": raw["requests"],
        "responses": raw["responses"],
        "errors": raw["errors"],
        "rejected": raw["rejected"],
        "shed": raw["shed"],
        "batches": raw["batches"],
        "batched_requests": raw["batched_requests"],
        "batch_occupancy": (
            raw["batched_requests"] / raw["batches"] if raw["batches"] else 0.0
        ),
        "reloads": raw["reloads"],
        "reload_failures": raw["reload_failures"],
        "max_queue_depth": raw["max_queue_depth"],
        "adaptive_wait_ms": raw["adaptive_wait_ms"],
        "latency_ewma_ms": raw["latency_ewma_ms"],
        "bytes_resident": raw["bytes_resident"],
        "bytes_on_disk": raw["bytes_on_disk"],
        "counters": {
            name: raw["counters"].get(name, 0) for name in _obs_counters.VOCABULARY
        },
        "latency_ms": _latency_summary(raw["latencies"]),
        "batch_eval_ms": {
            "count": int(batch_seconds.size),
            "mean": float(batch_seconds.mean() * 1e3) if batch_seconds.size else 0.0,
            "max": float(batch_seconds.max() * 1e3) if batch_seconds.size else 0.0,
        },
        "batch_sizes": {
            "count": int(sizes.size),
            "mean": float(sizes.mean()) if sizes.size else 0.0,
            "max": int(sizes.max()) if sizes.size else 0,
        },
        "lanes": {
            lane: {
                "responses": stats["responses"],
                "shed": stats["shed"],
                "rejected": stats["rejected"],
                "latency_ms": _latency_summary(stats["latencies"]),
            }
            for lane, stats in raw["lanes"].items()
        },
    }


def aggregate_metrics(metrics: Iterable[ServingMetrics]) -> Dict[str, object]:
    """Roll several :class:`ServingMetrics` up into one stable-schema dict.

    Counters are summed, sliding windows concatenated (so the percentiles
    are over the union of the recent samples), per-lane sections merged by
    lane name, and the adaptive-wait state averaged over the instances
    that report one.  :class:`~repro.serving.server.ShardRouter` rolls
    every served operator up with it.
    """
    raws = [m._raw() for m in metrics]
    merged: Dict[str, object] = {
        "requests": 0, "responses": 0, "errors": 0, "rejected": 0, "shed": 0,
        "batches": 0, "batched_requests": 0, "reloads": 0, "reload_failures": 0,
        "max_queue_depth": 0, "bytes_resident": 0, "bytes_on_disk": 0,
        "adaptive_wait_ms": None, "latency_ewma_ms": None,
        "latencies": [], "batch_sizes": [], "batch_seconds": [], "lanes": {},
        "counters": {name: 0 for name in _obs_counters.VOCABULARY},
    }
    adaptive: List[float] = []
    ewma: List[float] = []
    for raw in raws:
        for key in ("requests", "responses", "errors", "rejected", "shed",
                    "batches", "batched_requests", "reloads", "reload_failures",
                    "bytes_resident", "bytes_on_disk"):
            merged[key] += raw[key]
        merged["max_queue_depth"] = max(merged["max_queue_depth"], raw["max_queue_depth"])
        if raw["adaptive_wait_ms"] is not None:
            adaptive.append(raw["adaptive_wait_ms"])
        if raw["latency_ewma_ms"] is not None:
            ewma.append(raw["latency_ewma_ms"])
        merged["latencies"].extend(raw["latencies"])
        merged["batch_sizes"].extend(raw["batch_sizes"])
        merged["batch_seconds"].extend(raw["batch_seconds"])
        for name in _obs_counters.VOCABULARY:
            merged["counters"][name] += raw["counters"].get(name, 0)
        for lane, stats in raw["lanes"].items():
            into = merged["lanes"].setdefault(
                lane, {"latencies": [], "responses": 0, "shed": 0, "rejected": 0}
            )
            into["latencies"].extend(stats["latencies"])
            into["responses"] += stats["responses"]
            into["shed"] += stats["shed"]
            into["rejected"] += stats["rejected"]
    if adaptive:
        merged["adaptive_wait_ms"] = float(np.mean(adaptive))
    if ewma:
        merged["latency_ewma_ms"] = float(np.mean(ewma))
    return _render(merged, instances=len(raws))

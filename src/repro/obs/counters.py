"""Process-wide registry of named pipeline counters and gauges.

One vocabulary shared by compression, evaluation and serving, so a single
scraper (or :class:`~repro.serving.metrics.ServingMetrics` schema v3, which
re-exports these) sees where blocks, bytes and batches actually went:

=============================  =============================================
``blocks_materialized``        near/far blocks materialized on the fly by
                               the streamed engine (chunk fills)
``kernel_entries_evaluated``   kernel entries evaluated through
                               ``matrix.entries`` during skeletonization
                               and chunk materialization
``spill_bytes_out`` /          always 0 (the streamed engine keeps its
``spill_bytes_in``             chunk buffers on the heap); kept so the
                               ledger probe's vocabulary stays stable
``chunk_stalls``               chunk-pipeline stalls (executor watchdog
                               fired while a streamed matvec waited)
``batches_assembled``          micro-batches assembled by the serving tier
``batch_requests``             requests that entered an assembled batch
``batch_occupancy_sum``        Σ (batch size / canonical GEMM width); mean
                               occupancy fraction =
                               ``batch_occupancy_sum / batches_assembled``
``requests_shed``              requests dropped by deadline shedding
``gemm_bytes_n2s`` /           bytes moved per evaluation pass (packed
``gemm_bytes_s2s`` /           operands + workspace traffic); recorded only
``gemm_bytes_s2n`` /           while tracing is enabled so the disabled
``gemm_bytes_l2l``             hot path stays untouched
``faults_injected``            faults fired by an armed
                               :class:`repro.faults.FaultPlan` (worker
                               kills detected parent-side count here too)
``faults_recovered``           faults survived without changing the
                               execution strategy: a retried shard task
                               that succeeded, a transient store read that
                               went through on retry
``faults_degraded``            faults survived by *degrading*: a sharded
                               stage falling back to its single-process
                               equivalent
=============================  =============================================

Counters are monotone within a process; :func:`reset` (tests, benchmark
harness runs) zeroes them.  Every name in :data:`VOCABULARY` is always
present in :func:`snapshot`, so downstream schemas can rely on the keys.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional

__all__ = ["VOCABULARY", "CounterRegistry", "registry", "add", "set_gauge", "get", "snapshot", "reset"]

#: The fixed counter vocabulary (see the module docstring).  Ad-hoc names
#: may be added at runtime; these keys are always present in a snapshot.
VOCABULARY = (
    "blocks_materialized",
    "kernel_entries_evaluated",
    "spill_bytes_out",
    "spill_bytes_in",
    "chunk_stalls",
    "batches_assembled",
    "batch_requests",
    "batch_occupancy_sum",
    "requests_shed",
    "gemm_bytes_n2s",
    "gemm_bytes_s2s",
    "gemm_bytes_s2n",
    "gemm_bytes_l2l",
    "faults_injected",
    "faults_recovered",
    "faults_degraded",
)


class CounterRegistry:
    """Thread-safe name → value registry (counters add, gauges set)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, float] = {name: 0 for name in VOCABULARY}

    def add(self, name: str, value: float = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        with self._lock:
            self._values[name] = self._values.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._values[name] = value

    def get(self, name: str) -> float:
        with self._lock:
            return self._values.get(name, 0)

    def snapshot(self, names: Optional[Iterable[str]] = None) -> Dict[str, float]:
        """Copy of the registry; with ``names``, exactly those keys (0-filled).

        Without ``names`` the snapshot contains every :data:`VOCABULARY`
        key (always) plus any ad-hoc names registered so far.
        """
        with self._lock:
            if names is not None:
                return {name: self._values.get(name, 0) for name in names}
            out = {name: 0 for name in VOCABULARY}
            out.update(self._values)
            return out

    def reset(self) -> None:
        with self._lock:
            self._values = {name: 0 for name in VOCABULARY}


_registry = CounterRegistry()


def registry() -> CounterRegistry:
    """The process-wide registry instance."""
    return _registry


# Module-level conveniences bound to the process-wide registry.
add = _registry.add
set_gauge = _registry.set_gauge
get = _registry.get
snapshot = _registry.snapshot
reset = _registry.reset

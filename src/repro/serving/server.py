"""`MatvecServer`: a registry of named compressed operators behind micro-batchers.

The server is the composition point of the serving runtime:

* a **registry** of named :class:`~repro.api.operator.CompressedOperator`
  entries — registered in-process, or built through a
  :class:`~repro.api.session.Session` (optionally cold-starting from a
  ``Session.save_artifacts`` file, which since format 2 carries the
  partition, the ANN table *and* the interaction lists, so a server pays
  only skeletonization onward at boot),
* one :class:`~repro.serving.batcher.MicroBatcher` per entry, coalescing
  concurrent ``matvec`` / ``solve`` requests into wide evaluations,
* **hot reload**: artifact-backed entries remember their file's stamp
  (mtime + size) and config fingerprints; :meth:`reload` /
  :meth:`poll_reloads` rebuild the operator when the file changes and swap
  it atomically.  Batches formed before the swap finish on the operator
  they captured — in-flight requests are never dropped — and a reload
  failure (missing file, fingerprint mismatch) keeps the old operator
  serving and is recorded in the metrics,
* per-operator :class:`~repro.serving.metrics.ServingMetrics`.

Every evaluation runs the default engine's plan, whose execution chain is
sequential, so a batched response is bit-identical to serving the same
vector alone.  ``num_workers > 1`` gives the entries one shared
:class:`~repro.runtime.executor.WorkerPool` for the plans' fill chunks
(memoryless and partly cached operators materialize blocks on it); the
bits do not depend on it, and fully cached operators never use it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future
from typing import Dict, Optional

import numpy as np

from ..api.operator import CompressedOperator
from ..api.session import Session
from ..config import GOFMMConfig
from ..errors import ServingConfigError, ServingError
from ..obs.trace import Tracer, get_tracer, tracing
from ..solvers import CGResult
from .batcher import MATVEC, SOLVE, BatchPolicy, MicroBatcher
from .metrics import ServingMetrics, aggregate_metrics

__all__ = ["MatvecServer", "OperatorEntry", "ShardRouter"]

#: Solver parameters a solve request may carry (forwarded to CompressedOperator.solve).
_SOLVE_PARAMS = ("shift", "tolerance", "max_iterations", "use_preconditioner", "engine")


def _file_stamp(path) -> tuple[int, int]:
    # A store / dir-format artifact directory is stamped by its manifest:
    # write_array_dir publishes the manifest last, so a manifest change is
    # the authoritative "new contents" signal (directory mtimes are not).
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.json")
    stat = os.stat(path)
    return (stat.st_mtime_ns, stat.st_size)


def _record_memory(entry: "OperatorEntry") -> None:
    """Refresh the entry's resident/on-disk gauges from its current operator."""
    memory = entry.operator.compressed.memory_report()
    entry.metrics.record_memory(memory["bytes_resident"], memory["bytes_on_disk"])


def _prebuild_plan(operator: CompressedOperator) -> None:
    """Build the default engine's plan so the first request skips it.

    ``"planned"`` prebuilds the rank-padded plan; ``"streamed"`` — the
    default of memoryless (uncached-block) and mmap-opened operators, which
    are servable like any other — the exactly packed one.
    """
    if operator.default_engine() == "planned":
        operator.compressed.plan()
    else:
        operator.compressed.streaming_plan()


class OperatorEntry:
    """One served operator: the current operator, its batcher, and its source."""

    def __init__(
        self,
        name: str,
        operator: CompressedOperator,
        policy: BatchPolicy,
        metrics: ServingMetrics,
        evaluate,
        source: Optional[dict] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.name = name
        self.operator = operator
        self.policy = policy
        self.metrics = metrics
        self.source = source  # {"matrix", "config", "artifacts", "coordinates", "stamp"}
        self.version = 1
        self.tracer = tracer
        self._evaluate = evaluate  # (operator, (n,k) block) -> (n,k) result
        self.batcher = MicroBatcher(self._run_batch, policy, metrics, name=name, tracer=tracer)

    def _active_tracer(self):
        """The server's own tracer when it has an enabled one, else the global."""
        tracer = self.tracer
        return tracer if (tracer is not None and tracer.enabled) else get_tracer()

    @property
    def n(self) -> int:
        return self.operator.shape[0]

    def swap(self, operator: CompressedOperator) -> None:
        """Atomically replace the served operator (new batches use it immediately)."""
        if operator.shape != self.operator.shape:
            raise ServingError(
                f"cannot swap operator {self.name!r}: shape {operator.shape} != {self.operator.shape}"
            )
        self.operator = operator
        self.version += 1

    # -- batch execution (called by the batcher worker) ----------------------
    def _run_batch(self, kind: str, block: np.ndarray, params: Optional[dict]):
        operator = self.operator  # snapshot: a reload mid-batch must not mix engines
        if kind == MATVEC:
            k = block.shape[1]
            if self.policy.pad_to_full_width and k < self.policy.max_batch:
                padded = np.zeros((block.shape[0], self.policy.max_batch), dtype=block.dtype)
                padded[:, :k] = block
                block = padded
            tracer = self._active_tracer()
            if tracer.enabled:
                # Activate the server's tracer around the evaluation so the
                # engine-level spans (eval.*) land in the same trace as the
                # serving batch phases.
                with tracing(tracer):
                    with tracer.span(
                        "serve.batch.gemm", operator=self.name, requests=k, width=block.shape[1]
                    ):
                        out = np.asarray(self._evaluate(operator, block))
            else:
                out = np.asarray(self._evaluate(operator, block))
            return [out[:, j].copy() for j in range(k)]
        # solve lane: blocked multi-RHS CG, one wide matvec per Krylov iteration
        result = operator.solve(block, **(params or {}))
        solutions = np.asarray(result.solution)
        responses = []
        for j in range(block.shape[1]):
            responses.append(
                CGResult(
                    solution=solutions[:, j].copy(),
                    iterations=result.iterations,
                    residual_norm=float(result.column_residual_norms[j])
                    if result.column_residual_norms is not None
                    else result.residual_norm,
                    converged=bool(result.column_converged[j])
                    if result.column_converged is not None
                    else result.converged,
                    residual_history=result.residual_history,
                )
            )
        return responses


class MatvecServer:
    """Micro-batching serving runtime over a registry of compressed operators.

    Usage::

        from repro.serving import BatchPolicy, MatvecServer

        server = MatvecServer(policy=BatchPolicy(max_batch=16, max_wait_ms=2.0))
        server.register("kernel", operator)                    # in-process
        server.register("cold", matrix=K, config=cfg,
                        artifacts="artifacts.npz")             # cold start from disk
        server.register("ooc", store="op.store")               # mmap'd operator store
        with server:                                            # start()/stop()
            u = server.matvec("kernel", w)                      # sync convenience
            fut = server.submit("kernel", w)                    # raw future
            res = server.solve("kernel", b, shift=1e-4)

    ``num_workers > 1`` attaches a shared :class:`WorkerPool` on which every
    entry's fill chunks materialize (the results do not depend on it).
    """

    def __init__(
        self,
        policy: Optional[BatchPolicy] = None,
        num_workers: int = 0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.policy = policy or BatchPolicy()
        self.tracer = tracer
        self._entries: Dict[str, OperatorEntry] = {}
        self._lock = threading.Lock()
        self._started = False
        self._num_workers = int(num_workers)
        self._pool = None
        if self._num_workers > 1:
            from ..runtime.executor import WorkerPool

            self._pool = WorkerPool(self._num_workers, name="serving-eval")

    # -- registry ------------------------------------------------------------
    def register(
        self,
        name: str,
        operator: Optional[CompressedOperator] = None,
        *,
        matrix=None,
        config: Optional[GOFMMConfig] = None,
        artifacts=None,
        coordinates=None,
        store=None,
        resident: str = "mmap",
        policy: Optional[BatchPolicy] = None,
    ) -> OperatorEntry:
        """Register a named operator, building it first if needed.

        Either pass a ready ``operator``, or ``matrix`` (+ optional
        ``config`` / ``coordinates``) to compress one here; adding
        ``artifacts`` (a ``Session.save_artifacts`` file) cold-starts the
        build from the persisted partition / ANN / interaction lists and
        arms hot reload on that file.  Alternatively pass ``store`` (a
        ``CompressedOperator.save`` directory) to cold-start the *complete*
        operator from disk with no matrix and no recompression —
        ``resident="mmap"`` (default) serves straight off the mmap'd store
        with a bounded resident footprint, ``resident="ram"`` loads it
        eagerly; hot reload is armed on the store's manifest.  The
        evaluation plan is prebuilt so the first request does not pay the
        plan build.
        """
        with self._lock:
            if name in self._entries:
                # fail before the (possibly minutes-long) build, not after
                raise ServingError(f"operator {name!r} is already registered (use swap/reload)")
        if store is not None and (operator is not None or matrix is not None or artifacts is not None):
            raise ServingError(
                f"register({name!r}): store= is a complete source; it cannot be combined "
                f"with operator/matrix/artifacts"
            )
        if artifacts is not None and matrix is None:
            raise ServingError(
                f"register({name!r}): hot reload from artifacts requires the matrix"
            )
        # Stamp BEFORE building: a file rewritten during the (possibly long)
        # build must look changed to the next poll_reloads, not silently
        # current while the entry serves the pre-rewrite operator.
        source_path = store if store is not None else artifacts
        stamp = _file_stamp(source_path) if source_path is not None else None
        if operator is None:
            if store is not None:
                operator = CompressedOperator.open(store, resident=resident)
            elif matrix is None:
                raise ServingError(
                    f"register({name!r}) needs an operator, a store, or a matrix to compress one from"
                )
            else:
                operator = self._build(matrix, config, artifacts, coordinates)
        source = None
        if store is not None:
            source = {"store": store, "resident": resident, "stamp": stamp}
        elif artifacts is not None:
            source = {
                "matrix": matrix,
                "config": config,
                "artifacts": artifacts,
                "coordinates": coordinates,
                "stamp": stamp,
            }
        _prebuild_plan(operator)  # first request pays no plan build
        with self._lock:
            if name in self._entries:
                raise ServingError(f"operator {name!r} is already registered (use swap/reload)")
            entry = OperatorEntry(
                name,
                operator,
                policy or self.policy,
                ServingMetrics(),
                self._evaluate,
                source=source,
                tracer=self.tracer,
            )
            self._entries[name] = entry
            if self._started:
                entry.batcher.start()
        _record_memory(entry)
        return entry

    def unregister(self, name: str, drain: bool = True) -> None:
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is None:  # concurrent double-unregister must fail cleanly
            raise ServingError(f"unknown operator {name!r}")
        entry.batcher.close(drain=drain)

    def operators(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._entries))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def entry(self, name: str) -> OperatorEntry:
        return self._entry(name)

    def _entry(self, name: str) -> OperatorEntry:
        with self._lock:
            entry = self._entries.get(name)
            known = sorted(self._entries)  # snapshot under the lock
        if entry is None:
            raise ServingError(
                f"unknown operator {name!r}; registered: {', '.join(known) or 'none'}"
            )
        return entry

    def _build(self, matrix, config, artifacts, coordinates) -> CompressedOperator:
        session = Session(matrix, config, coordinates=coordinates)
        if artifacts is not None:
            session.load_artifacts(artifacts)
        return session.compress()

    def _evaluate(self, operator: CompressedOperator, block: np.ndarray) -> np.ndarray:
        if self._pool is not None:
            from ..runtime.executor import parallel_evaluate

            return parallel_evaluate(
                operator.compressed, block, num_workers=self._num_workers, pool=self._pool
            )
        return operator.apply(block)

    # -- hot reload -----------------------------------------------------------
    def swap(self, name: str, operator: CompressedOperator) -> None:
        """Hot-swap an in-process operator; in-flight batches finish on the old one."""
        entry = self._entry(name)
        entry.swap(operator)
        _record_memory(entry)
        entry.metrics.record_reload()

    def reload(self, name: str, force: bool = False) -> bool:
        """Rebuild an artifact-backed entry when its file changed; returns whether it did.

        The file stamp (mtime + size) is the cheap change trigger;
        :meth:`Session.load_artifacts` then re-validates the stored config
        fingerprints, so a stamp change that swapped in an incompatible
        file raises here (and :meth:`poll_reloads` records it) while the
        old operator keeps serving.
        """
        entry = self._entry(name)
        source = entry.source
        if source is None:
            raise ServingError(f"operator {name!r} has no artifact source to reload from")
        try:
            stamp = _file_stamp(source.get("store") or source["artifacts"])
            if not force and stamp == source["stamp"]:
                return False
            if source.get("store") is not None:
                operator = CompressedOperator.open(
                    source["store"], resident=source["resident"]
                )
            else:
                operator = self._build(
                    source["matrix"], source["config"], source["artifacts"], source["coordinates"]
                )
            _prebuild_plan(operator)
            entry.swap(operator)
            source["stamp"] = stamp
        except BaseException:
            entry.metrics.record_reload(ok=False)
            raise
        _record_memory(entry)
        entry.metrics.record_reload()
        return True

    def poll_reloads(self) -> Dict[str, bool]:
        """Try :meth:`reload` on every artifact-backed entry; never raises.

        Returns ``{name: reloaded}``; failures are recorded in the entry's
        metrics (``reload_failures``) and reported as ``False`` — the old
        operator keeps serving.
        """
        outcome: Dict[str, bool] = {}
        with self._lock:
            names = [name for name, entry in self._entries.items() if entry.source is not None]
        for name in names:
            try:
                outcome[name] = self.reload(name)
            except BaseException:
                outcome[name] = False
        return outcome

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "MatvecServer":
        """Start serving; a stopped server restarts (batchers reopen, pool rebuilt)."""
        with self._lock:
            self._started = True
            if self._num_workers > 1 and self._pool is None:
                from ..runtime.executor import WorkerPool

                self._pool = WorkerPool(self._num_workers, name="serving-eval")
            for entry in self._entries.values():
                entry.batcher.start()
        return self

    def stop(self, drain: bool = True) -> None:
        with self._lock:
            self._started = False
            entries = list(self._entries.values())
        for entry in entries:
            entry.batcher.close(drain=drain)
        if self._pool is not None:
            # Bounded join: a watchdog-abandoned evaluation may have left a
            # worker wedged in a payload; stop() must not hang on it.
            self._pool.shutdown(join_timeout=5.0)
            self._pool = None

    def __enter__(self) -> "MatvecServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # -- requests ---------------------------------------------------------------
    def submit(
        self,
        name: str,
        w: np.ndarray,
        kind: str = MATVEC,
        *,
        lane: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        **solve_params,
    ) -> Future:
        """Enqueue one request; returns a ``concurrent.futures.Future``.

        ``kind="matvec"`` resolves to the ``(n,)`` product ``K̃ w``;
        ``kind="solve"`` resolves to a per-request
        :class:`~repro.solvers.CGResult` for ``(K̃ + shift·I) x = w``.
        ``lane`` selects the latency lane (default ``"throughput"``;
        ``"interactive"`` flushes immediately) and ``deadline_ms`` arms
        shed-on-deadline: a request still queued when its deadline expires
        fails with :class:`~repro.errors.DeadlineExceededError` without
        ever occupying a GEMM slot.  Raises
        :class:`ServerOverloadedError` under backpressure.
        """
        entry = self._entry(name)
        # float64 mirrors the evaluation engines: _as_matrix promotes every
        # weight block to float64 regardless of the compression dtype, so a
        # served response matches a direct operator.apply() bit for bit.
        vector = np.ascontiguousarray(np.asarray(w, dtype=np.float64))
        if vector.shape != (entry.n,):
            raise ServingError(
                f"operator {name!r} serves vectors of shape ({entry.n},), got {vector.shape}"
            )
        if kind == SOLVE:
            unknown = set(solve_params) - set(_SOLVE_PARAMS)
            if unknown:
                raise ServingError(
                    f"unknown solve parameter(s) {sorted(unknown)}; allowed: {list(_SOLVE_PARAMS)}"
                )
            return entry.batcher.submit(SOLVE, vector, solve_params,
                                        lane=lane, deadline_ms=deadline_ms)
        if solve_params:
            raise ServingError(f"matvec requests take no solver parameters, got {sorted(solve_params)}")
        return entry.batcher.submit(MATVEC, vector, lane=lane, deadline_ms=deadline_ms)

    def matvec(self, name: str, w: np.ndarray, timeout: Optional[float] = None, *,
               lane: Optional[str] = None, deadline_ms: Optional[float] = None) -> np.ndarray:
        """Blocking convenience: submit one matvec and wait for its response."""
        return self.submit(name, w, lane=lane, deadline_ms=deadline_ms).result(timeout)

    def solve(self, name: str, rhs: np.ndarray, timeout: Optional[float] = None, *,
              lane: Optional[str] = None, deadline_ms: Optional[float] = None, **solve_params):
        """Blocking convenience: submit one solve and wait for its :class:`CGResult`."""
        return self.submit(name, rhs, kind=SOLVE, lane=lane, deadline_ms=deadline_ms,
                           **solve_params).result(timeout)

    # -- reporting ---------------------------------------------------------------
    def stats(self) -> Dict[str, dict]:
        """Per-operator metrics snapshots plus registry/version information."""
        with self._lock:
            entries = dict(self._entries)
        out: Dict[str, dict] = {}
        for name, entry in entries.items():
            snapshot = entry.metrics.snapshot()
            snapshot["version"] = entry.version
            snapshot["queue_depth"] = entry.batcher.queue_depth
            snapshot["n"] = entry.n
            snapshot["hot_reload"] = entry.source is not None
            out[name] = snapshot
        return out

    def __repr__(self) -> str:
        names = ", ".join(self.operators()) or "none"
        return f"<MatvecServer operators=[{names}] started={self._started}>"


class ShardRouter(MatvecServer):
    """A :class:`MatvecServer` whose :meth:`stats` also rolls every operator up.

    Kept only for the benchmark ledger's load generator
    (``benchmarks/ledger/loadgen.py``), which builds
    ``ShardRouter(num_shards=1, policy=...)`` and reads
    ``stats()["cluster"]``.  It exists until a benchmark change points the
    load generator at :class:`MatvecServer`; :func:`aggregate_metrics`
    goes with it.  One shard is the only shape it serves.
    """

    def __init__(self, num_shards: int = 1, *, policy: Optional[BatchPolicy] = None,
                 num_workers: int = 0) -> None:
        if num_shards != 1:
            raise ServingConfigError(
                f"ShardRouter serves exactly one shard, got num_shards={num_shards!r}; "
                f"use MatvecServer"
            )
        super().__init__(policy=policy, num_workers=num_workers)

    def stats(self) -> Dict[str, dict]:
        """``{"cluster": the stable-schema rollup of every operator's metrics,
        "operators": MatvecServer.stats()}``."""
        with self._lock:
            entries = list(self._entries.values())
        return {
            "cluster": aggregate_metrics(entry.metrics for entry in entries),
            "operators": MatvecServer.stats(self),
        }

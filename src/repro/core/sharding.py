"""Shared-memory process-pool scaffolding for sharded pipeline stages.

The forked ANN iterations (:mod:`repro.core.neighbors`) and the subtree
fan-out of the skeletonization sweep
(:mod:`repro.core.skeletonization`) both follow the same recipe:

1. the parent stores the read-only problem state (distance oracle, matrix,
   tree, config) in a module-level global,
2. a ``fork``-context :class:`multiprocessing.Pool` is created — the
   children inherit that state by copy-on-write, so nothing large is
   pickled per task,
3. results flow back through :class:`SharedSlab` arrays
   (:mod:`multiprocessing.shared_memory`), which the parent allocated
   before the fork; workers write disjoint slots, the parent reads them
   after ``pool.map`` returns.

Fork inheritance is load-bearing (plain numpy arrays are copy-on-write
*into* a child but writes never propagate back, hence the slabs), so on
platforms without the ``fork`` start method both callers run in process
instead — :func:`fork_available` is the gate.

A raw ``pool.map`` has a failure mode the callers cannot accept: a worker
killed mid-task (OOM killer, segfault in BLAS) never returns its result,
and the map blocks forever.  :class:`SupervisedPool` wraps the same fork
pool with task-level supervision — results are collected via
``imap_unordered`` under a per-task-gap timeout, missing or errored tasks
are retried (re-forking the pool, with capped backoff), and a task that
exhausts its retry budget raises a typed
:class:`~repro.errors.WorkerCrashError` so the caller can degrade to its
in-process path.  Retrying is always safe here: every shard task
deterministically rewrites its own slab slots from per-node streams, so a
retry produces exactly the bytes the first attempt would have.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing import shared_memory
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import WorkerCrashError
from ..faults import injection as _faults
from ..obs import counters as _obs_counters
from ..obs import get_logger

__all__ = ["SharedSlab", "SupervisedPool", "fork_available", "fork_pool"]

_LOG = get_logger("core.sharding")


def fork_available() -> bool:
    """Whether the ``fork`` start method exists (POSIX; never on Windows)."""
    return "fork" in multiprocessing.get_all_start_methods()


def fork_pool(workers: int):
    """A ``fork``-context worker pool (caller must ensure :func:`fork_available`)."""
    return multiprocessing.get_context("fork").Pool(processes=max(1, int(workers)))


class SharedSlab:
    """A numpy array backed by :class:`multiprocessing.shared_memory.SharedMemory`.

    Created by the parent *before* forking the pool; the forked workers
    inherit the object and write through :attr:`array` into memory the
    parent sees.  The parent owns the lifetime: call :meth:`close` (with
    ``unlink=True``) once the results have been read.
    """

    def __init__(self, shape: tuple, dtype) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(self.shape)) * self.dtype.itemsize)
        self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self._array: np.ndarray | None = np.ndarray(self.shape, dtype=self.dtype, buffer=self._shm.buf)

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            raise ValueError("shared slab has been closed")
        return self._array

    def close(self, unlink: bool = True) -> None:
        """Release the mapping; ``unlink`` destroys the backing segment."""
        self._array = None
        try:
            self._shm.close()
        except BufferError:
            # A live view still pins the buffer; unlink below still reclaims
            # the segment once every process has dropped its mapping.
            pass
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedSlab":
        return self

    def __exit__(self, *exc: object) -> None:
        # Context-managed slabs always unlink: the sharded stages stack
        # them in an ExitStack so no injection/exception path can leak a
        # /dev/shm segment.
        self.close(unlink=True)


# ---------------------------------------------------------------------------
# supervised execution
# ---------------------------------------------------------------------------

def _supervised_call(payload):
    """Worker-side wrapper around one shard task (module-level: fork-picklable).

    Fires the ``shard.worker`` fault point with the task's identity (so a
    plan can kill/stall/error one precise attempt), then runs the task.
    Failures are *returned*, not raised — a raised exception would poison
    the pool's result pipe ordering; the supervisor decides what to retry.
    """
    fn, key, task, attempt = payload
    try:
        _faults.fire("shard.worker", task=key, attempt=attempt)
        return key, True, fn(task)
    except BaseException as exc:  # noqa: BLE001 - reported to the supervisor
        return key, False, f"{type(exc).__name__}: {exc}"


class SupervisedPool:
    """A fork pool that survives worker death, stalls, and task errors.

    ``map(fn, tasks)`` submits each task through :func:`_supervised_call`
    via ``imap_unordered`` and collects results under ``task_timeout`` —
    the maximum *gap between completions*, not a total-runtime bound.  A
    gap timeout means the outstanding tasks' workers are dead or wedged
    (``multiprocessing.Pool`` refills killed workers, but the tasks they
    held never return): the pool is terminated and re-forked, and the
    missing tasks are resubmitted with capped backoff, up to ``retries``
    extra attempts per task.  Past the budget a
    :class:`~repro.errors.WorkerCrashError` is raised so callers can
    degrade to their in-process path.

    Telemetry: each failure round reports its losses through
    ``injection.record_detection("shard.worker", …)`` (counted as
    injected only while a plan scripting that point is armed) and every
    task that subsequently succeeds on a retry increments
    ``faults_recovered``.

    Context manager; the pool (if any) is terminated on exit — results
    travel through shared slabs, so there is never anything to drain.
    """

    def __init__(
        self,
        workers: int,
        *,
        retries: int = 2,
        task_timeout: Optional[float] = None,
        backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
        label: str = "shard",
    ) -> None:
        self.workers = max(1, int(workers))
        self.retries = max(0, int(retries))
        self.task_timeout = task_timeout
        self.backoff_s = float(backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self.label = label
        self._pool = None

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self._discard_pool()

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = fork_pool(self.workers)
        return self._pool

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def map(self, fn: Callable, tasks: Sequence) -> list:
        """Run ``fn`` over ``tasks`` with supervision; results in task order.

        Task keys are the positions in ``tasks``; a retried task reruns
        with the same key and an incremented attempt number (visible to
        fault-plan ``match`` triggers as ``task=`` / ``attempt=``).
        """
        pending = {key: task for key, task in enumerate(tasks)}
        attempts = {key: 0 for key in pending}
        results: dict = {}
        round_no = 0
        while pending:
            pool = self._ensure_pool()
            payloads = [(fn, key, pending[key], attempts[key]) for key in sorted(pending)]
            failed: dict = {}
            try:
                it = pool.imap_unordered(_supervised_call, payloads, chunksize=1)
                for _ in range(len(payloads)):
                    key, ok, value = it.next(self.task_timeout)
                    if ok:
                        results[key] = value
                        if attempts[key]:
                            _obs_counters.add("faults_recovered")
                        del pending[key]
                    else:
                        failed[key] = value
            except multiprocessing.TimeoutError:
                # Dead or wedged workers: whatever is still pending (minus
                # successes above) is lost — fall through to the retry round.
                pass
            except (OSError, EOFError) as exc:
                # Pool infrastructure breakage (result pipe torn down by a
                # dying worker); treat the whole round as lost.
                _LOG.warning("%s pool infrastructure failed mid-round: %s", self.label, exc)
            if not pending:
                break

            # Failure round: pending now holds errored + vanished tasks.
            self._discard_pool()
            _faults.record_detection("shard.worker", len(pending))
            for key in pending:
                attempts[key] += 1
            exhausted = sorted(key for key in pending if attempts[key] > self.retries)
            if exhausted:
                detail = "; ".join(
                    f"task {key}: {failed[key]}" for key in exhausted if key in failed
                )
                raise WorkerCrashError(
                    f"{self.label}: {len(exhausted)} of {len(attempts)} shard tasks failed "
                    f"past the retry budget (shard_retries={self.retries})"
                    + (f" [{detail}]" if detail else ""),
                    failed_tasks=tuple(exhausted),
                    attempts=max(attempts[key] for key in exhausted),
                )
            delay = min(self.max_backoff_s, self.backoff_s * (2**round_no))
            _LOG.warning(
                "%s: %d shard task(s) failed or vanished (%s); re-forking the pool and "
                "retrying in %.0f ms (attempt %d/%d)",
                self.label,
                len(pending),
                ", ".join(str(k) for k in sorted(pending)),
                delay * 1e3,
                max(attempts[key] for key in pending),
                self.retries,
            )
            time.sleep(delay)
            round_no += 1
        return [results[key] for key in sorted(results)]

"""Exception hierarchy for the GOFMM reproduction.

All library-raised exceptions derive from :class:`GOFMMError` so callers can
catch everything the package raises with a single ``except`` clause while the
more specific subclasses carry enough context to act on programmatically.
"""

from __future__ import annotations

__all__ = [
    "GOFMMError",
    "ConfigurationError",
    "NotSPDError",
    "CompressionError",
    "ArtifactMismatchError",
    "StorageError",
    "StorageRetryExhaustedError",
    "RankDeficiencyError",
    "EvaluationError",
    "SchedulingError",
    "ExecutorStallError",
    "WorkerCrashError",
    "MatrixDefinitionError",
    "ServingError",
    "ServingConfigError",
    "ServerOverloadedError",
    "DeadlineExceededError",
]


class GOFMMError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ConfigurationError(GOFMMError, ValueError):
    """A user-supplied parameter is invalid or inconsistent.

    Raised at configuration time (before any expensive work) so parameter
    mistakes are surfaced immediately.
    """


class NotSPDError(GOFMMError, ValueError):
    """The supplied matrix violates a symmetric-positive-definite requirement.

    GOFMM's Gram distances (kernel / angle) are only proper metrics when the
    input is SPD; a non-positive diagonal entry, for instance, makes the
    Gram-space geometry ill-defined.
    """


class CompressionError(GOFMMError, RuntimeError):
    """The compression phase failed to produce a usable hierarchical matrix."""


class ArtifactMismatchError(CompressionError, ConfigurationError):
    """A persisted artifact cannot be installed into the current session.

    Raised by ``Session.load_artifacts`` / the operator store when a file's
    stage fingerprints do not match the loading config, or when the file
    itself is truncated, hand-edited, or otherwise fails the trust-boundary
    validation.  Subclasses both :class:`CompressionError` (the historical
    type, so existing handlers keep working) and
    :class:`ConfigurationError` (it is a configuration-level mistake:
    pointing a session at artifacts built under a different config).
    """


class StorageError(GOFMMError, RuntimeError):
    """The out-of-core storage layer was used in an invalid state.

    A write into a read-only stored block provider, an object that cannot
    be interpreted as a panel source/sink.
    """


class StorageRetryExhaustedError(StorageError):
    """A transient storage read kept failing past the retry budget.

    Raised by :func:`repro.storage.store.read_array_dir` once a manifest or
    array read has failed with a *transient* ``OSError`` (EIO, EAGAIN,
    ESTALE, ...) ``storage_read_retries + 1`` times in a row.  Distinct from
    :class:`ArtifactMismatchError`: the artifact may be perfectly valid —
    the device serving it is not.  ``attempts`` counts the reads performed.
    """

    def __init__(self, message: str, path: str = "", attempts: int = 0) -> None:
        super().__init__(message)
        self.path = str(path)
        self.attempts = int(attempts)


class RankDeficiencyError(CompressionError):
    """A skeletonization produced an empty or invalid skeleton.

    Typically means a leaf's off-diagonal block is numerically zero, or the
    sampling set was degenerate.
    """


class EvaluationError(GOFMMError, RuntimeError):
    """The evaluation (matvec) phase was invoked in an invalid state."""


class SchedulingError(GOFMMError, RuntimeError):
    """The task runtime was given an inconsistent DAG or machine model."""


class ExecutorStallError(SchedulingError):
    """The executor's stall watchdog abandoned a run.

    Subclasses :class:`SchedulingError` (and therefore ``RuntimeError`` and
    :class:`GOFMMError`), so existing handlers keep working, but carries
    the identities of the tasks that were in flight when the watchdog
    fired — the first one is exposed as :attr:`task_label` for log lines
    and dashboards.
    """

    def __init__(self, message: str, stalled_tasks: tuple = ()) -> None:
        super().__init__(message)
        self.stalled_tasks = tuple(str(t) for t in stalled_tasks)

    @property
    def task_label(self) -> str:
        """The first stalled task's id (empty when none were in flight)."""
        return self.stalled_tasks[0] if self.stalled_tasks else ""


class WorkerCrashError(GOFMMError, RuntimeError):
    """A supervised fork-pool shard exhausted its retry budget.

    Raised by :class:`repro.core.sharding.SupervisedPool` after a shard
    task has died (killed worker), stalled past ``shard_task_timeout_s``,
    or errored on every one of its ``shard_retries + 1`` attempts.  The
    sharded stages catch it and degrade to their single-process
    equivalents.  ``failed_tasks`` are the task keys still outstanding;
    ``attempts`` is the attempt count the budget was measured against.
    """

    def __init__(self, message: str, failed_tasks: tuple = (), attempts: int = 0) -> None:
        super().__init__(message)
        self.failed_tasks = tuple(failed_tasks)
        self.attempts = int(attempts)


class MatrixDefinitionError(GOFMMError, ValueError):
    """A test-matrix generator was asked for an impossible configuration."""


class ServingError(GOFMMError, RuntimeError):
    """The serving runtime was used in an invalid state.

    Unknown operator name, a closed server/batcher, a malformed request
    vector, or a hot-reload attempt on an entry with no artifact source.
    """


class ServingConfigError(ServingError, ConfigurationError):
    """An invalid serving configuration value (batch policy, lane, shard count).

    Raised at construction time — before any server thread starts — so a
    bad knob fails where it was written instead of deep inside the batcher.
    Subclasses both :class:`ServingError` and :class:`ConfigurationError`,
    so either family of handler catches it.
    """


class ServerOverloadedError(ServingError):
    """Backpressure rejection: the request queue is at capacity.

    Carries ``retry_after_s`` — the server's hint for how long the client
    should back off before retrying (the serving clients honor it).
    """

    def __init__(self, message: str, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class DeadlineExceededError(ServingError):
    """A request's deadline expired while it was still queued; it was shed.

    Shedding happens *before* the request occupies a GEMM slot — the
    evaluation never ran, so retrying (with a fresh deadline) is always
    safe.  ``lane`` is the latency lane the request was queued on and
    ``waited_ms`` how long it sat in the queue before being shed.
    """

    def __init__(self, message: str, lane: str = "", waited_ms: float = 0.0) -> None:
        super().__init__(message)
        self.lane = lane
        self.waited_ms = float(waited_ms)


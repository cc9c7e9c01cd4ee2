"""Unit tests for the exception hierarchy."""

import pytest

from repro import (
    CompressionError,
    ConfigurationError,
    EvaluationError,
    GOFMMError,
    MatrixDefinitionError,
    NotSPDError,
    RankDeficiencyError,
    SchedulingError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError,
            NotSPDError,
            CompressionError,
            RankDeficiencyError,
            EvaluationError,
            SchedulingError,
            MatrixDefinitionError,
        ],
    )
    def test_all_derive_from_gofmm_error(self, exc):
        assert issubclass(exc, GOFMMError)
        with pytest.raises(GOFMMError):
            raise exc("boom")

    def test_value_error_compatibility(self):
        # Configuration / matrix errors behave like ValueError for generic callers.
        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(NotSPDError, ValueError)
        assert issubclass(MatrixDefinitionError, ValueError)

    def test_runtime_error_compatibility(self):
        assert issubclass(CompressionError, RuntimeError)
        assert issubclass(EvaluationError, RuntimeError)
        assert issubclass(SchedulingError, RuntimeError)

    def test_rank_deficiency_is_compression_error(self):
        assert issubclass(RankDeficiencyError, CompressionError)


class TestFaultToleranceErrors:
    """The typed failures of the fault-tolerance layer."""

    def test_storage_retry_exhausted_carries_path_and_attempts(self):
        from repro.errors import StorageError, StorageRetryExhaustedError

        exc = StorageRetryExhaustedError("gave up", path="/tmp/x", attempts=3)
        assert issubclass(StorageRetryExhaustedError, StorageError)
        assert issubclass(StorageRetryExhaustedError, GOFMMError)
        assert exc.path == "/tmp/x" and exc.attempts == 3

    def test_executor_stall_carries_task_labels(self):
        from repro.errors import ExecutorStallError

        exc = ExecutorStallError("stalled", stalled_tasks=["b", "a"])
        assert issubclass(ExecutorStallError, SchedulingError)
        assert issubclass(ExecutorStallError, RuntimeError)
        assert exc.stalled_tasks == ("b", "a")
        assert exc.task_label == "b"
        assert ExecutorStallError("stalled").task_label == ""

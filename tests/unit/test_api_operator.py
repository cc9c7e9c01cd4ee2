"""Unit tests for CompressedOperator (the scipy LinearOperator facade)."""

import numpy as np
import pytest
import scipy.sparse.linalg as sla

from repro import GOFMMConfig
from repro.api import CompressedOperator, Session
from repro.gofmm import compress as gofmm_compress

from ..conftest import make_gaussian_kernel_matrix
from ..oracles.evaluate_reference import reference_matvec

COMMON = dict(leaf_size=32, max_rank=24, tolerance=1e-7, neighbors=8, num_neighbor_trees=3, seed=0)


@pytest.fixture(scope="module")
def matrix():
    return make_gaussian_kernel_matrix(n=220, d=3, bandwidth=1.5, seed=0)


@pytest.fixture(scope="module")
def operator(matrix):
    return Session(matrix, GOFMMConfig(**COMMON, budget=0.2)).compress()


class TestLinearOperatorProtocol:
    def test_is_a_scipy_linear_operator(self, operator, matrix):
        assert isinstance(operator, sla.LinearOperator)
        assert operator.shape == (matrix.n, matrix.n)
        assert operator.dtype == np.float64
        assert sla.aslinearoperator(operator) is operator

    def test_matvec_matches_legacy_compress(self, operator, matrix):
        """CompressedOperator agrees with gofmm.compress(...).matvec to 1e-13."""
        legacy = gofmm_compress(matrix, GOFMMConfig(**COMMON, budget=0.2))
        w = np.random.default_rng(0).standard_normal(matrix.n)
        assert np.max(np.abs(operator.matvec(w) - legacy.matvec(w))) < 1e-13
        wide = np.random.default_rng(1).standard_normal((matrix.n, 7))
        assert np.max(np.abs(operator.matmat(wide) - legacy.matvec(wide))) < 1e-13

    def test_rmatvec_is_symmetric(self, operator, matrix):
        w = np.random.default_rng(2).standard_normal(matrix.n)
        assert np.allclose(operator.rmatvec(w), operator.matvec(w))
        assert operator.adjoint() is operator

    def test_matmul_operator_syntax(self, operator, matrix):
        w = np.random.default_rng(3).standard_normal((matrix.n, 3))
        assert np.allclose(operator @ w, operator.matmat(w))

    def test_apply_forwards_engine(self, operator, matrix):
        w = np.random.default_rng(4).standard_normal((matrix.n, 3))
        planned = operator.apply(w, engine="planned")
        assert np.allclose(planned, reference_matvec(operator.compressed, w), atol=1e-10)
        assert np.array_equal(
            operator.apply(w, engine="streamed"), reference_matvec(operator.compressed, w)
        )


class TestScipySolverInterop:
    def test_scipy_cg_converges(self, operator, matrix):
        """The operator drops into scipy.sparse.linalg.cg; shift keeps it well conditioned."""
        shifted = sla.LinearOperator(
            shape=operator.shape,
            dtype=operator.dtype,
            matvec=lambda v: operator.matvec(v) + 1.0 * np.asarray(v).reshape(-1),
        )
        b = np.random.default_rng(5).standard_normal(matrix.n)
        x, info = sla.cg(shifted, b, rtol=1e-9, maxiter=800)
        assert info == 0
        assert np.linalg.norm(shifted.matvec(x) - b) / np.linalg.norm(b) < 1e-8

    def test_scipy_cg_directly_on_operator(self, operator, matrix):
        """cg on K̃ itself (no shift): the kernel matrix fixture is SPD enough."""
        b = operator.matvec(np.random.default_rng(6).standard_normal(matrix.n))
        x, info = sla.cg(operator, b, rtol=1e-6, maxiter=2000)
        if info == 0:  # convergence depends on the compression-perturbed spectrum
            assert np.linalg.norm(operator.matvec(x) - b) / np.linalg.norm(b) < 1e-5
        else:  # even without full convergence cg must have made progress
            assert np.linalg.norm(operator.matvec(x) - b) < np.linalg.norm(b)

    def test_native_solve(self, operator, matrix):
        b = np.random.default_rng(7).standard_normal((matrix.n, 2))
        result = operator.solve(b, shift=1.0, tolerance=1e-9, max_iterations=500)
        assert result.converged
        assert result.solution.shape == (matrix.n, 2)
        check = operator.apply(result.solution) + 1.0 * result.solution
        assert np.linalg.norm(check - b) / np.linalg.norm(b) < 1e-7


class TestReports:
    def test_report_attached(self, operator):
        assert operator.report is not None
        assert operator.report.num_leaves > 0

    def test_delegated_reports(self, operator, matrix):
        assert operator.n == matrix.n
        assert operator.rank_summary()["mean"] > 0
        assert operator.storage_report()["total"] > 0
        assert operator.interaction_report()["num_leaves"] > 0
        assert operator.evaluation_flops(4) > 0
        assert 0 <= operator.relative_error(num_rhs=4, num_sample_rows=50) < 0.1

    def test_relative_error_engine_forwarded(self, operator):
        planned = operator.relative_error(num_rhs=4, num_sample_rows=50, engine="planned")
        streamed = operator.relative_error(num_rhs=4, num_sample_rows=50, engine="streamed")
        assert planned == pytest.approx(streamed, rel=1e-6, abs=1e-12)

    def test_repr_mentions_shape_and_engine(self, operator):
        text = repr(operator)
        assert "CompressedOperator" in text
        assert f"engine={operator.default_engine()}" in text


class TestOperatorReport:
    """operator.report: CompressionReport fields + callable stable summary."""

    REPORT_KEYS = {
        "schema_version", "n", "engine", "bytes_resident", "bytes_on_disk",
        "average_rank", "max_rank", "num_leaves", "tree_depth",
        "near_pairs", "far_pairs", "compression_seconds", "stage_seconds",
    }

    def test_report_is_still_a_compression_report(self, operator):
        from repro.core.compress import CompressionReport

        assert isinstance(operator.report, CompressionReport)
        assert operator.report.num_leaves > 0

    def test_report_call_returns_stable_schema(self, operator, matrix):
        summary = operator.report()
        assert set(summary) == self.REPORT_KEYS
        assert summary["n"] == matrix.n
        assert summary["engine"] == operator.default_engine()
        assert summary["bytes_resident"] > 0
        assert summary["bytes_on_disk"] == 0  # fully in-memory operator

    def test_save_open_roundtrip_swaps_residency(self, operator, matrix, tmp_path):
        path = tmp_path / "operator.store"
        operator.save(path)
        reopened = CompressedOperator.open(path, resident="mmap")
        summary = reopened.report()
        assert summary["bytes_on_disk"] > 0
        assert summary["engine"] == "streamed"
        w = np.random.default_rng(5).standard_normal((matrix.n, 3))
        assert np.array_equal(
            reopened.apply(w), reference_matvec(operator.compressed, w)
        )


class TestLifetime:
    """Reference counting alone frees an operator: nothing makes it cyclic."""

    @pytest.mark.parametrize("resident", ["mmap", "ram"])
    def test_opened_operator_dies_with_its_last_reference(self, operator, matrix, tmp_path, resident):
        import gc
        import os
        import weakref

        path = tmp_path / "lifetime.store"
        operator.save(path)
        w = np.random.default_rng(9).standard_normal((matrix.n, 2))
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            opened = CompressedOperator.open(path, resident=resident)
            opened.apply(w)
            opened.solve(w, shift=1.0, tolerance=1e-8)
            refs = weakref.ref(opened), weakref.ref(opened.compressed)
            del opened
            assert [ref() for ref in refs] == [None, None]
            if os.path.exists("/proc/self/maps"):
                with open("/proc/self/maps") as maps:
                    assert [line for line in maps if str(path) in line] == []
        finally:
            if enabled:
                gc.enable()

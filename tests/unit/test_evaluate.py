"""Unit tests for the evaluation phase (Algorithm 2.7) through ``CompressedMatrix.matvec``."""

import numpy as np
import pytest

from repro import EvaluationError, GOFMMConfig, compress
from repro.config import DistanceMetric
from repro.core.plan import EvaluationCounters

from ..conftest import make_gaussian_kernel_matrix, make_random_spd


@pytest.fixture(scope="module")
def compressed_pair():
    matrix = make_gaussian_kernel_matrix(n=220, d=3, bandwidth=1.5, seed=0)
    config = GOFMMConfig(
        leaf_size=28, max_rank=28, tolerance=1e-9, neighbors=8,
        budget=0.3, num_neighbor_trees=4, distance=DistanceMetric.KERNEL, seed=0,
    )
    return matrix, compress(matrix, config)


class TestMatvecCorrectness:
    def test_single_vector(self, compressed_pair):
        matrix, cm = compressed_pair
        w = np.random.default_rng(0).standard_normal(matrix.n)
        exact = matrix.matvec(w)
        approx = cm.matvec(w)
        assert approx.shape == (matrix.n,)
        assert np.linalg.norm(approx - exact) / np.linalg.norm(exact) < 5e-2

    def test_multiple_rhs(self, compressed_pair):
        matrix, cm = compressed_pair
        w = np.random.default_rng(1).standard_normal((matrix.n, 5))
        exact = matrix.matvec(w)
        approx = cm.matvec(w)
        assert approx.shape == (matrix.n, 5)
        assert np.linalg.norm(approx - exact) / np.linalg.norm(exact) < 5e-2

    def test_multiple_rhs_consistent_with_single(self, compressed_pair):
        matrix, cm = compressed_pair
        w = np.random.default_rng(2).standard_normal((matrix.n, 3))
        combined = cm.matvec(w)
        separate = np.column_stack([cm.matvec(w[:, j]) for j in range(3)])
        assert np.allclose(combined, separate, atol=1e-10)

    def test_linearity(self, compressed_pair):
        matrix, cm = compressed_pair
        gen = np.random.default_rng(3)
        w1 = gen.standard_normal(matrix.n)
        w2 = gen.standard_normal(matrix.n)
        assert np.allclose(
            cm.matvec(2.0 * w1 - 0.5 * w2),
            2.0 * cm.matvec(w1) - 0.5 * cm.matvec(w2),
            atol=1e-8,
        )

    def test_matches_explicit_dense_form(self, compressed_pair):
        matrix, cm = compressed_pair
        w = np.random.default_rng(4).standard_normal((matrix.n, 2))
        dense_tilde = cm.to_dense()
        assert np.allclose(cm.matvec(w), dense_tilde @ w, atol=1e-8)

    def test_zero_input(self, compressed_pair):
        matrix, cm = compressed_pair
        assert np.allclose(cm.matvec(np.zeros(matrix.n)), 0.0)


class TestInputValidation:
    def test_wrong_length_rejected(self, compressed_pair):
        _, cm = compressed_pair
        with pytest.raises(EvaluationError):
            cm.matvec(np.zeros(cm.n + 1))

    def test_wrong_rows_rejected(self, compressed_pair):
        _, cm = compressed_pair
        with pytest.raises(EvaluationError):
            cm.matvec(np.zeros((cm.n - 3, 2)))

    def test_3d_input_rejected(self, compressed_pair):
        _, cm = compressed_pair
        with pytest.raises(EvaluationError):
            cm.matvec(np.zeros((cm.n, 2, 2)))


class TestCounters:
    def test_flop_counters_populated(self, compressed_pair):
        matrix, cm = compressed_pair
        cm.counters = counters = EvaluationCounters()
        cm.matvec(np.random.default_rng(5).standard_normal((matrix.n, 4)))
        assert counters.n2s > 0
        assert counters.s2s > 0
        assert counters.s2n > 0
        assert counters.l2l > 0
        assert counters.total == pytest.approx(counters.n2s + counters.s2s + counters.s2n + counters.l2l)

    def test_counters_scale_with_rhs(self, compressed_pair):
        matrix, cm = compressed_pair
        gen = np.random.default_rng(6)
        cm.counters = c1 = EvaluationCounters()
        cm.matvec(gen.standard_normal((matrix.n, 1)))
        cm.counters = c4 = EvaluationCounters()
        cm.matvec(gen.standard_normal((matrix.n, 4)))
        assert c4.total == pytest.approx(4.0 * c1.total, rel=1e-6)


class TestHSSEvaluation:
    def test_hss_matvec_on_matrix_without_structure(self):
        """Budget 0 on an unstructured random SPD matrix still runs (accuracy is not guaranteed)."""
        matrix = make_random_spd(n=96, seed=1, decay=3.0)
        config = GOFMMConfig(
            leaf_size=24, max_rank=24, tolerance=1e-8, neighbors=4, budget=0.0,
            distance=DistanceMetric.ANGLE, num_neighbor_trees=2, seed=0,
        )
        cm = compress(matrix, config)
        w = np.random.default_rng(0).standard_normal(96)
        out = cm.matvec(w)
        assert out.shape == (96,)
        assert np.all(np.isfinite(out))

    def test_hss_is_accurate_for_fast_decay(self):
        matrix = make_random_spd(n=128, seed=2, decay=4.0)
        config = GOFMMConfig(
            leaf_size=32, max_rank=32, tolerance=1e-10, neighbors=4, budget=0.0,
            distance=DistanceMetric.ANGLE, num_neighbor_trees=2, seed=0,
        )
        cm = compress(matrix, config)
        w = np.random.default_rng(1).standard_normal((128, 3))
        exact = matrix.matvec(w)
        approx = cm.matvec(w)
        assert np.linalg.norm(approx - exact) / np.linalg.norm(exact) < 1e-2

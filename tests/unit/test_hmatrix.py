"""Unit tests for the CompressedMatrix object (storage, reports, dense form)."""

import numpy as np
import pytest

from repro import GOFMMConfig, compress
from repro.config import DistanceMetric
from repro.core.hmatrix import BlockProvider

from ..conftest import make_gaussian_kernel_matrix


@pytest.fixture(scope="module")
def compressed_pair():
    matrix = make_gaussian_kernel_matrix(n=200, d=3, bandwidth=1.2, seed=1)
    config = GOFMMConfig(
        leaf_size=25, max_rank=25, tolerance=1e-8, neighbors=6,
        budget=0.25, num_neighbor_trees=3, distance=DistanceMetric.KERNEL, seed=1,
    )
    return matrix, compress(matrix, config)


class TestOperatorInterface:
    def test_shape(self, compressed_pair):
        matrix, cm = compressed_pair
        assert cm.shape == (matrix.n, matrix.n)
        assert cm.n == matrix.n

    def test_matmul_operator(self, compressed_pair):
        matrix, cm = compressed_pair
        w = np.random.default_rng(0).standard_normal((matrix.n, 2))
        assert np.allclose(cm @ w, cm.matvec(w))

    def test_transpose_matvec_equals_matvec(self, compressed_pair):
        matrix, cm = compressed_pair
        w = np.random.default_rng(1).standard_normal(matrix.n)
        assert np.allclose(cm.matvec_transpose(w), cm.matvec(w))

    def test_dense_form_symmetric_with_symmetric_lists(self, compressed_pair):
        _, cm = compressed_pair
        dense = cm.to_dense()
        assert np.allclose(dense, dense.T, atol=1e-9 * np.abs(dense).max())

    def test_dense_form_approximates_source(self, compressed_pair):
        matrix, cm = compressed_pair
        dense = cm.to_dense()
        exact = matrix.to_dense()
        rel = np.linalg.norm(dense - exact) / np.linalg.norm(exact)
        assert rel < 5e-2


class TestReports:
    def test_rank_summary(self, compressed_pair):
        _, cm = compressed_pair
        summary = cm.rank_summary()
        assert 0 < summary["mean"] <= summary["max"] <= cm.config.max_rank
        assert summary["min"] >= 0

    def test_storage_report_consistency(self, compressed_pair):
        _, cm = compressed_pair
        report = cm.storage_report()
        assert report["total"] == pytest.approx(
            report["coefficients"] + report["near_blocks"] + report["far_blocks"]
        )
        assert report["dense_equivalent"] == cm.n**2
        # At this tiny N the representation is not necessarily smaller than
        # dense; the ratio just has to be well defined and positive.
        assert report["compression_ratio"] > 0.0

    def test_compression_ratio_exceeds_one_at_larger_scale(self):
        matrix = make_gaussian_kernel_matrix(n=512, d=3, bandwidth=2.0, seed=7)
        config = GOFMMConfig(
            leaf_size=64, max_rank=16, tolerance=1e-4, neighbors=4,
            budget=0.05, num_neighbor_trees=2, distance=DistanceMetric.KERNEL, seed=7,
        )
        cm = compress(matrix, config)
        assert cm.storage_report()["compression_ratio"] > 1.0

    def test_interaction_report(self, compressed_pair):
        _, cm = compressed_pair
        report = cm.interaction_report()
        assert report["num_leaves"] == len(cm.tree.leaves)
        assert report["near_pairs"] >= report["num_leaves"]  # each leaf is near itself
        assert report["is_hss"] == 0.0

    def test_evaluation_flops_scale_with_rhs(self, compressed_pair):
        _, cm = compressed_pair
        assert cm.evaluation_flops(num_rhs=4) == pytest.approx(4 * cm.evaluation_flops(num_rhs=1))

    def test_relative_error_reasonable(self, compressed_pair):
        _, cm = compressed_pair
        eps2 = cm.relative_error(num_rhs=4, num_sample_rows=80)
        assert 0.0 <= eps2 < 5e-2


class TestBlockProvider:
    def test_cache_hit(self, compressed_pair):
        matrix, cm = compressed_pair
        leaf = cm.tree.leaves[0]
        key = (leaf.node_id, leaf.node_id)
        assert key in cm.near_blocks
        block = cm.near_blocks.get(key)
        assert np.allclose(block, matrix.entries(leaf.indices, leaf.indices))

    def test_lazy_fallback_without_cache(self, compressed_pair):
        matrix, cm = compressed_pair
        provider = BlockProvider(cm.tree, matrix, use_skeletons=False)
        leaf = cm.tree.leaves[1]
        block = provider.get((leaf.node_id, leaf.node_id))
        assert np.allclose(block, matrix.entries(leaf.indices, leaf.indices))
        assert len(provider) == 0  # nothing stored

    def test_missing_block_without_matrix_returns_none(self, compressed_pair):
        _, cm = compressed_pair
        provider = BlockProvider(cm.tree, None, use_skeletons=True)
        assert provider.get((0, 1)) is None

    def test_cached_entries_counts(self, compressed_pair):
        _, cm = compressed_pair
        for provider in (cm.near_blocks, cm.far_blocks):
            blocks = [block for _, block in provider.cached_items()]
            assert provider.cached_entries == sum(block.size for block in blocks) > 0
            assert provider.bytes_resident == sum(block.nbytes for block in blocks)

    def test_accounting_follows_store(self, compressed_pair):
        """Totals are kept by ``store`` (reports read them per call): a replaced block leaves them."""
        _, cm = compressed_pair
        provider = BlockProvider(cm.tree, None, use_skeletons=False)
        provider.store((0, 1), np.zeros((2, 3)))
        provider.store((0, 2), np.zeros((4, 4), dtype=np.float32))
        assert (provider.cached_entries, provider.bytes_resident) == (22, 48 + 64)
        provider.store((0, 1), np.zeros((1, 1)))
        assert (provider.cached_entries, provider.bytes_resident, len(provider)) == (17, 8 + 64, 2)


class TestUncachedCompression:
    def test_matvec_identical_with_and_without_caching(self):
        matrix = make_gaussian_kernel_matrix(n=150, d=3, bandwidth=1.2, seed=2)
        base = GOFMMConfig(
            leaf_size=25, max_rank=20, tolerance=1e-7, neighbors=6,
            budget=0.25, num_neighbor_trees=3, distance=DistanceMetric.KERNEL, seed=2,
        )
        cached = compress(matrix, base)
        uncached = compress(matrix, base.replace(cache_near_blocks=False, cache_far_blocks=False))
        w = np.random.default_rng(0).standard_normal((matrix.n, 3))
        assert np.allclose(cached.matvec(w), uncached.matvec(w), atol=1e-10)
        assert len(uncached.near_blocks) == 0
        assert len(uncached.far_blocks) == 0

"""Unit tests for nested ID skeletonization (Algorithm 2.6).

One sweep, one lattice: every execution route of
:func:`repro.core.skeletonization.skeletonize_tree` — on the caller's
thread, fanned out over 2–4 worker threads, traced or not — must select
the skeletons of the per-node oracle
(``tests/oracles/skeletonization_reference.py``) and be **bitwise** equal
to the single-thread route, because every node's row sample comes from
its own deterministic stream.
"""

import functools
import importlib

import numpy as np
import pytest

from repro import GOFMMConfig, RankDeficiencyError
from repro.api import Session
from repro.config import DistanceMetric
from repro.core.distances import make_distance
from repro.core.interactions import build_node_neighbor_lists
from repro.core.neighbors import all_nearest_neighbors
from repro.core.skeletonization import (
    _pow2,
    sample_rows_level,
    skeletonize_level,
    skeletonize_tree,
)
from repro.core.tree import build_tree
from repro.matrices import DenseSPD
from repro.obs import Tracer, counters, tracing

from ..conftest import make_gaussian_kernel_matrix
from ..oracles.skeletonization_reference import skeletonize_tree_reference


def prepared(n=200, leaf_size=25, max_rank=20, tolerance=1e-7, neighbors=6, adaptive=True, seed=0):
    matrix = make_gaussian_kernel_matrix(n=n, d=3, bandwidth=1.5, seed=seed)
    config = GOFMMConfig(
        leaf_size=leaf_size, max_rank=max_rank, tolerance=tolerance, neighbors=neighbors,
        budget=0.2, num_neighbor_trees=3, adaptive_rank=adaptive,
        distance=DistanceMetric.KERNEL, seed=seed,
    )
    distance = make_distance(matrix, config.distance)
    rng = np.random.default_rng(seed)
    table = all_nearest_neighbors(distance, config, rng=rng)
    tree = build_tree(matrix.n, config, distance, rng=rng)
    build_node_neighbor_lists(tree, table, rng=rng)
    return matrix, config, tree, table


def sample_rows(node, n, sample_size, neighbors, base):
    return sample_rows_level([node], n, sample_size, neighbors, base)[0]


class TestSampleRows:
    def test_excludes_node_indices(self):
        matrix, config, tree, neighbors = prepared()
        node = tree.leaves[0]
        rows = sample_rows(node, matrix.n, 40, neighbors, 0)
        assert np.intersect1d(rows, node.indices).size == 0

    def test_sample_size_respected(self):
        matrix, config, tree, neighbors = prepared()
        rows = sample_rows(tree.leaves[1], matrix.n, 30, neighbors, 1)
        assert rows.size <= 2 * 30  # neighbor part + uniform part
        assert rows.size >= 20

    def test_small_complement_returns_everything(self):
        matrix, config, tree, neighbors = prepared()
        left = tree.root.left
        rows = sample_rows(left, matrix.n, matrix.n, neighbors, 2)
        assert rows.size == matrix.n - left.size

    def test_root_has_empty_sample(self):
        matrix, config, tree, neighbors = prepared()
        assert sample_rows(tree.root, matrix.n, 50, neighbors, 3).size == 0

    def test_rows_unique_and_in_range(self):
        matrix, config, tree, neighbors = prepared()
        rows = sample_rows(tree.leaves[2], matrix.n, 64, neighbors, 4)
        assert len(np.unique(rows)) == rows.size
        assert rows.min() >= 0 and rows.max() < matrix.n

    def test_level_mask_is_left_clean_between_nodes(self):
        """Sampling a node inside a level equals sampling it alone."""
        matrix, config, tree, neighbors = prepared()
        level = tree.levels()[tree.depth]
        together = sample_rows_level(level, matrix.n, 40, neighbors, 5)
        for node, rows in zip(level, together):
            assert np.array_equal(rows, sample_rows(node, matrix.n, 40, neighbors, 5))

    def test_shape_bucket_rounds_up_to_powers_of_two(self):
        assert [_pow2(v) for v in (0, 1, 2, 3, 5, 8, 9)] == [0, 1, 2, 4, 8, 8, 16]


class TestSkeletonizeTree:
    def test_every_non_root_node_gets_skeleton(self):
        matrix, config, tree, neighbors = prepared()
        stats = skeletonize_tree(tree, matrix, config, neighbors)
        for node in tree.nodes:
            if node.is_root:
                continue
            assert node.skeleton is not None
            assert node.coeffs is not None
            assert node.skeleton_rank == node.skeleton.size
        assert stats.num_nodes == len(tree.nodes) - 1

    def test_nesting_property(self):
        """α̃ ⊂ l̃ ∪ r̃ for every internal node (the nested-skeleton property)."""
        matrix, config, tree, neighbors = prepared()
        skeletonize_tree(tree, matrix, config, neighbors)
        for node in tree.nodes:
            if node.is_root or node.is_leaf:
                continue
            left, right = node.children()
            child_skeletons = np.union1d(left.skeleton, right.skeleton)
            assert np.all(np.isin(node.skeleton, child_skeletons))

    def test_leaf_skeleton_subset_of_indices(self):
        matrix, config, tree, neighbors = prepared()
        skeletonize_tree(tree, matrix, config, neighbors)
        for leaf in tree.leaves:
            assert np.all(np.isin(leaf.skeleton, leaf.indices))

    def test_rank_bounded_by_config(self):
        matrix, config, tree, neighbors = prepared(max_rank=12)
        stats = skeletonize_tree(tree, matrix, config, neighbors)
        assert stats.max_rank <= 12

    def test_coeff_shapes(self):
        matrix, config, tree, neighbors = prepared()
        skeletonize_tree(tree, matrix, config, neighbors)
        for node in tree.nodes:
            if node.is_root:
                continue
            if node.is_leaf:
                assert node.coeffs.shape == (node.skeleton_rank, node.size)
            else:
                left, right = node.children()
                assert node.coeffs.shape == (node.skeleton_rank, left.skeleton_rank + right.skeleton_rank)

    def test_leaf_offdiagonal_block_approximation(self):
        """The sampled ID should approximate the true off-diagonal block well."""
        matrix, config, tree, neighbors = prepared(max_rank=25, tolerance=1e-9)
        skeletonize_tree(tree, matrix, config, neighbors)
        leaf = tree.leaves[0]
        outside = np.setdiff1d(np.arange(matrix.n), leaf.indices)
        exact = matrix.entries(outside, leaf.indices)
        approx = matrix.entries(outside, leaf.skeleton) @ leaf.coeffs
        rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert rel < 5e-2

    def test_looser_tolerance_gives_smaller_average_rank(self):
        matrix, config, tree, neighbors = prepared(tolerance=1e-2, max_rank=25)
        loose = skeletonize_tree(tree, matrix, config, neighbors)
        matrix2, config2, tree2, neighbors2 = prepared(tolerance=1e-9, max_rank=25)
        tight = skeletonize_tree(tree2, matrix2, config2, neighbors2)
        assert loose.average_rank <= tight.average_rank

    def test_level_sweep_violation_detected(self):
        matrix, config, tree, neighbors = prepared()
        internal = next(node for node in tree.nodes if not node.is_leaf and not node.is_root)
        with pytest.raises(RankDeficiencyError, match="level sweep violated"):
            skeletonize_level([internal], matrix.n, matrix, config, neighbors, 0)

    @pytest.mark.parametrize("secure", [True, False])
    def test_zero_offdiagonal_raises_only_under_secure_accuracy(self, secure):
        identity = DenseSPD(np.eye(64))
        config = GOFMMConfig(
            leaf_size=16, max_rank=8, tolerance=1e-3, budget=0.0,
            distance=DistanceMetric.LEXICOGRAPHIC, secure_accuracy=secure,
        )
        tree = build_tree(64, config, distance=None)
        # Off-diagonal blocks of the identity are exactly zero -> rank 0 everywhere.
        if secure:
            with pytest.raises(RankDeficiencyError):
                skeletonize_tree(tree, identity, config, None)
        else:
            assert skeletonize_tree(tree, identity, config, None).max_rank == 0


# ---------------------------------------------------------------------------
# the equivalence lattice
# ---------------------------------------------------------------------------

def _run(skeletonizer, adaptive, workers=1, traced=False):
    """One lattice cell: ``(tree, stats, entry evaluations)`` on a fresh problem."""
    matrix, config, tree, neighbors = prepared(
        n=384, leaf_size=32, max_rank=16, tolerance=1e-6, neighbors=8, adaptive=adaptive
    )
    config = config.replace(compression_workers=workers)
    before = matrix.entry_evaluations
    with tracing(Tracer() if traced else None):
        stats = skeletonizer(tree, matrix, config, neighbors, rng=np.random.default_rng(11))
    return tree, stats, matrix.entry_evaluations - before


_oracle_cell = functools.lru_cache(maxsize=None)(
    lambda adaptive: _run(skeletonize_tree_reference, adaptive)
)
_in_process_cell = functools.lru_cache(maxsize=None)(
    lambda adaptive: _run(skeletonize_tree, adaptive)
)


def _assert_same_nodes(tree, reference, coeffs_match):
    for node, ref in zip(tree.nodes, reference.nodes):
        assert node.skeleton_rank == ref.skeleton_rank
        if ref.skeleton is None:
            assert node.skeleton is None
        else:
            assert np.array_equal(node.skeleton, ref.skeleton)
            assert coeffs_match(node.coeffs, ref.coeffs)


class TestEquivalenceLattice:
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "fixed-rank"])
    def test_cell_matches_oracle_and_in_process_sweep(self, adaptive, workers, traced):
        tree, stats, evaluations = _run(skeletonize_tree, adaptive, workers, traced)

        # Against the per-node oracle: the same skeletons, ranks, stats and
        # entry evaluations; coefficients up to LAPACK-vs-stacked-QR noise.
        oracle_tree, oracle_stats, oracle_evaluations = _oracle_cell(adaptive)
        _assert_same_nodes(tree, oracle_tree, lambda a, b: np.allclose(a, b, atol=1e-8))
        assert stats == oracle_stats
        assert evaluations == oracle_evaluations

        # Against the in-process, untraced sweep: everything bitwise.
        base_tree, base_stats, base_evaluations = _in_process_cell(adaptive)
        _assert_same_nodes(tree, base_tree, lambda a, b: a.dtype == b.dtype and np.array_equal(a, b))
        assert stats == base_stats
        assert evaluations == base_evaluations

    def test_one_worker_starts_no_pool(self, monkeypatch):
        matrix, config, tree, neighbors = prepared(n=192, leaf_size=32)
        pools = []
        monkeypatch.setattr(
            "repro.core.skeletonization.ThreadPoolExecutor", lambda *a, **k: pools.append(a)
        )
        stats = skeletonize_tree(tree, matrix, config.replace(compression_workers=1), neighbors)
        assert pools == []
        assert stats.num_nodes == len(tree.nodes) - 1  # root is never skeletonized

    def test_task_compression_error_surfaces(self):
        """A typed error raised inside a subtree task reaches the caller.

        Zero off-diagonal blocks under ``secure_accuracy`` are rank
        deficient on every thread; the fan-out re-raises the task's error
        and touches no fault counter.
        """
        config = GOFMMConfig(
            leaf_size=16, max_rank=8, tolerance=1e-3, budget=0.0,
            distance=DistanceMetric.LEXICOGRAPHIC, secure_accuracy=True,
            compression_workers=2,
        )
        tree = build_tree(256, config, distance=None)
        counters.reset()
        with pytest.raises(RankDeficiencyError):
            skeletonize_tree(tree, DenseSPD(np.eye(256)), config, None)
        for name in ("faults_injected", "faults_recovered", "faults_degraded"):
            assert counters.get(name) == 0

    def test_operators_agree_with_oracle_through_session(self, monkeypatch):
        matrix = make_gaussian_kernel_matrix(n=256, d=3, bandwidth=1.5, seed=2)
        config = GOFMMConfig(
            leaf_size=32, max_rank=16, tolerance=1e-6, neighbors=8, budget=0.1,
            num_neighbor_trees=3, seed=0,
        )
        op = Session(matrix, config).compress()
        # repro.core.compress the *attribute* is the compress() function.
        stage_module = importlib.import_module("repro.core.compress")
        monkeypatch.setattr(stage_module, "skeletonize_tree", skeletonize_tree_reference)
        op_ref = Session(matrix, config).compress()
        w = np.random.default_rng(0).standard_normal((matrix.n, 4))
        assert np.allclose(op_ref.compressed.matvec(w), op.compressed.matvec(w), atol=1e-8)
        assert op.relative_error() == pytest.approx(op_ref.relative_error(), abs=1e-10)

    def test_operators_bitwise_equal_across_workers_through_session(self):
        matrix = make_gaussian_kernel_matrix(n=256, d=3, bandwidth=1.5, seed=2)
        config = GOFMMConfig(
            leaf_size=32, max_rank=16, tolerance=1e-6, neighbors=8, budget=0.1,
            num_neighbor_trees=3, seed=0,
        )
        op_one = Session(matrix, config).compress()
        op_two = Session(matrix, config.replace(compression_workers=2)).compress()
        w = np.random.default_rng(0).standard_normal((matrix.n, 4))
        np.testing.assert_array_equal(op_one.compressed.matvec(w), op_two.compressed.matvec(w))

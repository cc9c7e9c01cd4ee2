"""Unit tests for the balanced metric ball tree (Algorithm 2.1)."""

import numpy as np
import pytest

from repro import GOFMMConfig
from repro.config import DistanceMetric
from repro.core.distances import GeometricDistance, make_distance
from repro.core.tree import build_tree, metric_split, random_split

from ..conftest import make_gaussian_kernel_matrix


@pytest.fixture(scope="module")
def tree_and_matrix():
    matrix = make_gaussian_kernel_matrix(n=200, d=3, bandwidth=1.5, seed=0)
    config = GOFMMConfig(leaf_size=25, max_rank=16, neighbors=4, distance=DistanceMetric.KERNEL)
    distance = make_distance(matrix, config.distance)
    tree = build_tree(matrix.n, config, distance)
    return tree, matrix, config


class TestStructure:
    def test_invariants(self, tree_and_matrix):
        tree, _, config = tree_and_matrix
        tree.check_invariants(config.leaf_size)

    def test_leaves_partition_indices(self, tree_and_matrix):
        tree, matrix, _ = tree_and_matrix
        union = np.sort(np.concatenate([leaf.indices for leaf in tree.leaves]))
        assert np.array_equal(union, np.arange(matrix.n))

    def test_complete_tree(self, tree_and_matrix):
        tree, _, _ = tree_and_matrix
        assert len(tree.leaves) == 2**tree.depth
        assert len(tree.nodes) == 2 ** (tree.depth + 1) - 1
        assert all(leaf.level == tree.depth for leaf in tree.leaves)

    def test_depth_minimal_for_leaf_size(self, tree_and_matrix):
        tree, matrix, config = tree_and_matrix
        assert matrix.n <= config.leaf_size * 2**tree.depth
        assert matrix.n > config.leaf_size * 2 ** (tree.depth - 1)

    def test_node_ids_are_positions(self, tree_and_matrix):
        tree, _, _ = tree_and_matrix
        for node_id, node in enumerate(tree.nodes):
            assert node.node_id == node_id

    def test_leaf_lookup(self, tree_and_matrix):
        tree, matrix, _ = tree_and_matrix
        for i in range(0, matrix.n, 17):
            leaf = tree.leaf_of(i)
            assert i in leaf.indices
        ids = tree.leaf_ids_of(np.arange(0, matrix.n, 17))
        assert all(tree.node(nid).is_leaf for nid in ids)

    def test_morton_ids_match_tree_paths(self, tree_and_matrix):
        tree, _, _ = tree_and_matrix
        for node in tree.nodes:
            if node.parent is not None:
                assert node.morton.parent() == node.parent.morton
                assert node.parent.morton.is_ancestor_of(node.morton)

    def test_permutation_is_a_permutation(self, tree_and_matrix):
        tree, matrix, _ = tree_and_matrix
        assert np.array_equal(np.sort(tree.permutation), np.arange(matrix.n))


class TestTraversals:
    def test_postorder_visits_children_first(self, tree_and_matrix):
        tree, _, _ = tree_and_matrix
        seen = set()
        for node in tree.postorder():
            if not node.is_leaf:
                left, right = node.children()
                assert left.node_id in seen and right.node_id in seen
            seen.add(node.node_id)
        assert len(seen) == len(tree.nodes)

    def test_preorder_visits_parents_first(self, tree_and_matrix):
        tree, _, _ = tree_and_matrix
        seen = set()
        for node in tree.preorder():
            if node.parent is not None:
                assert node.parent.node_id in seen
            seen.add(node.node_id)
        assert len(seen) == len(tree.nodes)

    def test_levels_grouping(self, tree_and_matrix):
        tree, _, _ = tree_and_matrix
        levels = tree.levels()
        assert len(levels[0]) == 1
        for depth, group in enumerate(levels):
            assert len(group) == 2**depth


class TestSplitting:
    def test_metric_split_balanced(self):
        pts = np.random.default_rng(0).standard_normal((101, 3))
        distance = GeometricDistance(pts)
        rng = np.random.default_rng(1)
        left, right = metric_split(np.arange(101), distance, rng, centroid_samples=8)
        assert abs(left.size - right.size) <= 1
        assert np.array_equal(np.sort(np.concatenate([left, right])), np.arange(101))

    def test_metric_split_separates_clusters(self):
        gen = np.random.default_rng(2)
        cluster_a = gen.standard_normal((40, 2))
        cluster_b = gen.standard_normal((40, 2)) + 50.0
        pts = np.vstack([cluster_a, cluster_b])
        order = gen.permutation(80)
        distance = GeometricDistance(pts[order])
        left, right = metric_split(np.arange(80), distance, np.random.default_rng(3), centroid_samples=8)
        labels = (order >= 40).astype(int)
        left_labels = labels[left]
        right_labels = labels[right]
        # Each side should be (almost) pure: the split recovers the two clusters.
        assert min(np.mean(left_labels), 1 - np.mean(left_labels)) < 0.05
        assert min(np.mean(right_labels), 1 - np.mean(right_labels)) < 0.05

    def test_metric_split_degenerate_points(self):
        pts = np.zeros((20, 2))
        distance = GeometricDistance(pts)
        left, right = metric_split(np.arange(20), distance, np.random.default_rng(0), centroid_samples=4)
        assert left.size == 10 and right.size == 10

    @pytest.mark.parametrize("metric", [DistanceMetric.KERNEL, DistanceMetric.ANGLE])
    def test_metric_split_evaluates_each_pivot_column_once(self, metric):
        # centroid distances (n x n_c cross + n_c x n_c sample block), then one
        # kernel column per pivot: the p column both picks q and scores the split.
        matrix = make_gaussian_kernel_matrix(n=150, d=3, seed=4)
        distance = make_distance(matrix, metric)
        indices = np.arange(0, 150, 2)
        n, n_c = indices.size, 8
        matrix.entry_evaluations = 0
        metric_split(indices, distance, np.random.default_rng(5), centroid_samples=n_c)
        assert matrix.entry_evaluations == n * n_c + n_c**2 + 2 * n

    def test_metric_split_requires_two_indices(self):
        pts = np.zeros((3, 2))
        distance = GeometricDistance(pts)
        with pytest.raises(Exception):
            metric_split(np.array([1]), distance, np.random.default_rng(0), centroid_samples=2)

    def test_random_split_preserves_order(self):
        indices = np.array([5, 3, 9, 1, 7])
        left, right = random_split(indices, np.random.default_rng(0))
        assert np.array_equal(left, [5, 3])
        assert np.array_equal(right, [9, 1, 7])


class TestMetricFreeOrderings:
    def test_lexicographic_keeps_input_order(self):
        config = GOFMMConfig(leaf_size=16, distance=DistanceMetric.LEXICOGRAPHIC)
        tree = build_tree(64, config, distance=None)
        assert np.array_equal(tree.permutation, np.arange(64))

    def test_random_order_is_a_shuffle(self):
        config = GOFMMConfig(leaf_size=16, distance=DistanceMetric.RANDOM, seed=3)
        tree = build_tree(64, config, distance=None)
        assert not np.array_equal(tree.permutation, np.arange(64))
        assert np.array_equal(np.sort(tree.permutation), np.arange(64))

    def test_single_leaf_when_n_below_leaf_size(self):
        config = GOFMMConfig(leaf_size=128, distance=DistanceMetric.LEXICOGRAPHIC)
        tree = build_tree(50, config, distance=None)
        assert tree.depth == 0
        assert len(tree.leaves) == 1
        assert tree.leaves[0].size == 50

"""The slab-batched blocks stage against its per-pair oracle (exact equality)."""

import functools
import importlib

import numpy as np
import pytest

from repro import GOFMMConfig
from repro.config import DistanceMetric
from repro.core.interactions import InteractionLists
from repro.matrices import CallbackMatrix, DenseSPD, build_matrix

from ..oracles import blocks_reference

stages = importlib.import_module("repro.core.compress")

#: One name per matrix class the suite compresses: distance kernels that
#: evaluate in place through ``from_sq_dists_inplace`` (K05 Gaussian, K07
#: inverse multiquadric), dot-product kernels called once per block (K09
#: polynomial, K10 cosine), a dense Hessian (K02), a graph Laplacian with no
#: coordinates (G03) and a bare callback.
MATRICES = ("K05", "K07", "K09", "K10", "K02", "G03", "callback")


def _matrix(name: str, n: int):
    if name == "callback":
        dense = build_matrix("K04", n).to_dense()
        return CallbackMatrix(lambda rows, cols: dense[np.ix_(rows, cols)], n)
    return build_matrix(name, n)


@functools.lru_cache(maxsize=None)
def _skeletonized(name: str, n: int, leaf_size: int, symmetrize: bool):
    """``(matrix, config, tree)`` after stages 1-4; the blocks stage never mutates them."""
    matrix = _matrix(name, n)
    config = GOFMMConfig(
        leaf_size=leaf_size, max_rank=min(leaf_size, 24), tolerance=1e-6, neighbors=8,
        num_neighbor_trees=3, budget=0.25, symmetrize_lists=symmetrize, seed=3,
    )
    distance = stages.run_distance_stage(matrix, config, None)
    neighbors = stages.run_neighbors_stage(distance, config)
    tree = stages.run_partition_stage(matrix.n, config, distance)
    stages.run_interactions_stage(tree, neighbors, config)
    stages.run_skeletons_stage(tree, matrix, config, neighbors)
    return matrix, config, tree


def assert_same_provider(ours, oracle):
    """Keys, insertion order, blocks and byte accounting all exactly the oracle's."""
    assert [key for key, _ in ours.cached_items()] == [key for key, _ in oracle.cached_items()]
    for (key, block), (_, expected) in zip(ours.cached_items(), oracle.cached_items()):
        assert block.dtype == expected.dtype and block.shape == expected.shape, key
        assert np.array_equal(block, expected), key
        assert not block.flags.writeable, key
    assert len(ours) == len(oracle)
    assert ours.cached_entries == sum(block.size for _, block in oracle.cached_items())
    assert ours.bytes_resident == sum(block.nbytes for _, block in oracle.cached_items())


def assert_stage_matches_oracle(tree, matrix, config):
    before = matrix.entry_evaluations
    near, far = stages.run_blocks_stage(tree, matrix, config)
    ours = matrix.entry_evaluations - before
    oracle_near, oracle_far = blocks_reference.run_blocks_stage(tree, matrix, config)
    assert matrix.entry_evaluations - before == 2 * ours     # no entry skipped or repeated
    assert_same_provider(near, oracle_near)
    assert_same_provider(far, oracle_far)
    return near, far


@pytest.mark.parametrize("cache_near,cache_far", [(True, False), (False, True), (True, True)])
@pytest.mark.parametrize("symmetrize", [True, False])
@pytest.mark.parametrize("n", [256, 250], ids=["uniform", "ragged"])
@pytest.mark.parametrize("name", MATRICES)
def test_blocks_stage_equals_per_pair_oracle(name, n, symmetrize, cache_near, cache_far):
    matrix, config, tree = _skeletonized(name, n, 32, symmetrize)
    assert (len({leaf.size for leaf in tree.leaves}) == 1) == (n == 256)
    config = config.replace(cache_near_blocks=cache_near, cache_far_blocks=cache_far)
    near, far = assert_stage_matches_oracle(tree, matrix, config)
    assert (len(near) > 0) == cache_near and (len(far) > 0) == cache_far


@pytest.mark.parametrize("name", ["K05", "K09"])
@pytest.mark.parametrize("leaf_size", [128, 512])
def test_blocks_of_large_leaves(name, leaf_size):
    """Leaves of 128 / 512: each near block spans several evaluator pieces, no size cap."""
    matrix, config, tree = _skeletonized(name, 4 * leaf_size, leaf_size, True)
    near, _ = assert_stage_matches_oracle(tree, matrix, config)
    assert any(block.shape == (leaf_size, leaf_size) for _, block in near.cached_items())


def test_rank_zero_skeletons():
    """Zero off-diagonal blocks give rank-0 skeletons: (r, 0), (0, r) and (0, 0) far blocks."""
    n, coupled = 128, 48        # three leaves coupled, their sibling and the other half not
    dense = np.eye(n)
    spd = np.random.default_rng(0).standard_normal((coupled, coupled))
    dense[:coupled, :coupled] = spd @ spd.T / n + np.eye(coupled)
    matrix = DenseSPD(dense)
    config = GOFMMConfig(
        leaf_size=16, max_rank=8, tolerance=1e-3, budget=0.0, secure_accuracy=False,
        distance=DistanceMetric.LEXICOGRAPHIC,
    )
    tree = stages.run_partition_stage(n, config, None)
    stages.run_interactions_stage(tree, None, config)
    stages.run_skeletons_stage(tree, matrix, config, None)
    ranks = {node.skeleton_rank for node in tree.nodes if not node.is_root}
    assert 0 in ranks and max(ranks) > 0
    _, far = assert_stage_matches_oracle(tree, matrix, config)
    shapes = {block.shape for _, block in far.cached_items()}
    assert any(p == 0 and k > 0 for p, k in shapes) and any(p > 0 and k == 0 for p, k in shapes)


def test_slabs_split_at_the_module_constant(monkeypatch):
    """A slab too small for one group's blocks splits the group; the blocks do not change."""
    assert 2**20 <= stages._SLAB_BYTES <= 16 * 2**20      # a few MiB: heap, not mmap
    matrix, config, tree = _skeletonized("K05", 256, 32, True)
    monkeypatch.setattr(stages, "_SLAB_BYTES", 3 * 32 * 32 * 8)
    near, _ = assert_stage_matches_oracle(tree, matrix, config)
    bases = {id(block.base) for _, block in near.cached_items()}
    assert len(bases) >= len(near) // 3


def test_near_stage_reads_lists_off_a_pristine_tree():
    """With ``lists`` the stage needs ``node.indices`` only (the session's pristine partition)."""
    matrix, config, tree = _skeletonized("K05", 256, 32, True)
    pristine = tree.clone_structure()
    assert all(not leaf.near for leaf in pristine.leaves)
    lists = InteractionLists(
        near={leaf.node_id: list(leaf.near) for leaf in tree.leaves}, far={}, leaf_position={},
        num_leaves=len(tree.leaves), budget_cap=0,
    )
    ours = stages.run_near_blocks_stage(pristine, matrix, config, lists)
    assert_same_provider(ours, blocks_reference.run_blocks_stage(tree, matrix, config)[0])
    assert ours._tree is pristine

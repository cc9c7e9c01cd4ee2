"""Per-node postorder form of Algorithm 2.6 — the skeletonization oracle.

Relocated from ``src/repro/core/skeletonization.py`` when the level sweep
became the only skeletonizer.  One node at a time, one fresh O(n) mask per
node, one LAPACK pivoted QR per block: slow, obvious, and independent of
the sweep's shared-mask sampler, shape bucketing and stacked
decompositions.  It shares only the stream helpers (``node_stream_base``,
``node_stream``, ``fill_uniform``) with ``src/``, so both draw the same
row samples and must select identical skeletons on numerically
nondegenerate blocks (exactly rank-deficient blocks may break
floating-point pivot ties differently).
"""

from __future__ import annotations

import numpy as np

from repro.core.skeletonization import collect_stats, fill_uniform, node_stream, node_stream_base
from repro.errors import RankDeficiencyError
from repro.linalg.id import interpolative_decomposition


def sample_rows(node, n, sample_size, neighbors, rng):
    """Importance-sampled row set ``I' ⊂ {0..N-1} \\ node.indices``.

    Neighbor rows (from ``N(α)``) that lie outside the node come first; the
    remainder of the budget is filled uniformly from the other outside
    rows.  If the complement is smaller than the requested sample, the
    whole complement is returned.
    """
    inside = np.zeros(n, dtype=bool)
    inside[node.indices] = True
    complement_size = n - node.indices.size
    if complement_size <= 0:
        return np.empty(0, dtype=np.intp)
    if complement_size <= sample_size:
        return np.nonzero(~inside)[0].astype(np.intp)

    chosen = []
    count = 0
    if neighbors is not None and node.neighbor_list is not None:
        cand = node.neighbor_list[~inside[node.neighbor_list]]
        if cand.size > sample_size:
            cand = rng.choice(cand, size=sample_size, replace=False)
        if cand.size:
            chosen.append(cand.astype(np.intp))
            inside[cand] = True  # from here on "inside" means "not eligible"
            count += cand.size
    if count < sample_size:
        need = min(sample_size - count, complement_size - count)
        if need > 0:
            chosen.append(fill_uniform(rng, n, need, inside))
    if not chosen:
        return np.empty(0, dtype=np.intp)
    return np.unique(np.concatenate(chosen))


def _assign(node, skeleton, coeffs):
    node.skeleton = skeleton
    node.coeffs = coeffs
    node.skeleton_rank = int(skeleton.size)
    return node.skeleton_rank


def skeletonize_node(node, matrix, config, neighbors, rng):
    """Tasks SKEL(α) + COEF(α): set ``node.skeleton`` / ``node.coeffs``; returns the rank."""
    if node.is_leaf:
        columns = node.indices
    else:
        left, right = node.children()
        if left.skeleton is None or right.skeleton is None:
            raise RankDeficiencyError(
                f"children of node {node.node_id} have not been skeletonized (postorder violated)"
            )
        columns = np.concatenate([left.skeleton, right.skeleton])

    empty = np.empty(0, dtype=np.intp)
    if columns.size == 0:
        _assign(node, empty, np.zeros((0, 0)))
        if config.secure_accuracy:
            raise RankDeficiencyError(f"node {node.node_id} has no columns to skeletonize")
        return 0
    rows = sample_rows(node, matrix.n, config.effective_sample_size(), neighbors, rng)
    if rows.size == 0:
        # Root-like node: nothing outside it, so no off-diagonal block exists.
        return _assign(node, empty, np.zeros((0, columns.size)))

    block = matrix.entries(rows, columns)
    decomposition = interpolative_decomposition(
        block,
        max_rank=config.max_rank,
        tolerance=config.tolerance,
        adaptive=config.adaptive_rank,
    )
    if decomposition.rank == 0:
        if config.secure_accuracy:
            raise RankDeficiencyError(f"node {node.node_id}: adaptive ID selected rank 0")
        return _assign(node, empty, np.zeros((0, columns.size)))
    return _assign(
        node, columns[decomposition.skeleton], decomposition.coeffs.astype(config.dtype)
    )


def skeletonize_tree_reference(tree, matrix, config, neighbors, rng=None):
    """Algorithm 2.6 over the whole tree in postorder, skipping the root."""
    rng = rng or np.random.default_rng(config.seed)
    base = node_stream_base(rng)
    for node in tree.postorder():
        if not node.is_root:
            skeletonize_node(node, matrix, config, neighbors, node_stream(base, node.node_id))
    return collect_stats(tree)

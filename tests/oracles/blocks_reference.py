"""Per-pair form of the blocks stage (tasks Kba + SKba) — the caching oracle.

Relocated from ``src/repro/core/compress.py`` when the blocks stage became
slab-batched.  One ``matrix.entries`` call per cached pair, in list order:
slow, obvious, and independent of the stage's shape grouping, slabs and
``entries_batched``.  The stage must reproduce these keys, this insertion
order and these blocks exactly (``np.array_equal``).  Near blocks follow the
fold rule: a pair listed both ways is evaluated once, as the block of its
smaller leaf id; a diagonal block or a one-way pair as its target's.
"""

from __future__ import annotations

import numpy as np

from repro.core.hmatrix import BlockProvider


def run_blocks_stage(tree, matrix, config):
    """Evaluate and store the direct and skeleton blocks, one pair at a time."""
    near_blocks = BlockProvider(tree, matrix, use_skeletons=False)
    far_blocks = BlockProvider(tree, matrix, use_skeletons=True)
    if config.cache_near_blocks:
        for leaf in tree.leaves:
            for alpha_id in leaf.near:
                alpha = tree.node(alpha_id)
                if alpha_id < leaf.node_id and leaf.node_id in alpha.near:
                    continue                     # owned by alpha

                near_blocks.store((leaf.node_id, alpha_id), matrix.entries(leaf.indices, alpha.indices))
    if config.cache_far_blocks:
        for node in tree.nodes:
            if not node.far or node.skeleton is None:
                continue
            for alpha_id in node.far:
                alpha = tree.node(alpha_id)
                cols = alpha.skeleton if alpha.skeleton is not None else np.empty(0, dtype=np.intp)
                far_blocks.store((node.node_id, alpha_id), matrix.entries(node.skeleton, cols))
    return near_blocks, far_blocks

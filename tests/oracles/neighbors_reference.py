"""Per-row form of the ANN search (steps 1–3 of Algorithm 2.2) — the neighbors oracle.

Every leaf's exhaustive
κ-NN is merged into the table one row at a time, and convergence is the
full-table :func:`~repro.core.neighbors.unchanged_fraction` recomputed
after every tree: slow, obvious, and independent of the driver's leaf
batching, screening, incremental convergence bookkeeping and thread waves.
:func:`~repro.core.neighbors.all_nearest_neighbors` must reproduce these
tables, iteration counts and convergence flags exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.neighbors import (
    NeighborTable,
    exhaustive_neighbors,
    init_table,
    tree_seed_schedule,
    unchanged_fraction,
)
from repro.core.tree import build_tree


def _merge_candidates(current_idx, current_dist, cand_idx, cand_dist):
    """Merge candidate neighbors into a row, keeping the κ smallest distinct ones.

    Dedup keeps the smallest ``(distance, position)`` occurrence per index;
    selection orders by ``(distance, position)``; short rows pad by
    repeating the last entry.
    """
    kappa = current_idx.size
    all_idx = np.concatenate([current_idx, cand_idx])
    all_dist = np.concatenate([current_dist, cand_dist])
    # Deduplicate, keeping the smallest distance per index.
    order = np.argsort(all_dist, kind="stable")
    all_idx = all_idx[order]
    all_dist = all_dist[order]
    _, first = np.unique(all_idx, return_index=True)
    first.sort()
    all_idx = all_idx[first]
    all_dist = all_dist[first]
    order = np.argsort(all_dist, kind="stable")[:kappa]
    out_idx = all_idx[order]
    out_dist = all_dist[order]
    if out_idx.size < kappa:  # pad (can only happen when N < κ)
        pad = kappa - out_idx.size
        out_idx = np.concatenate([out_idx, np.repeat(out_idx[-1:], pad)])
        out_dist = np.concatenate([out_dist, np.repeat(out_dist[-1:], pad)])
    return out_idx, out_dist


def _leaf_exhaustive_update(leaf_indices, distance, table_idx, table_dist, kappa):
    """Task ANN(α): exhaustive κ-NN inside one leaf, merged row by row into the table."""
    d = distance.pairwise(leaf_indices, leaf_indices)
    k_local = min(kappa, leaf_indices.size)
    # argpartition gives the k smallest per row without a full sort.
    part = np.argpartition(d, kth=k_local - 1, axis=1)[:, :k_local]
    for row_pos, i in enumerate(leaf_indices):
        cand_pos = part[row_pos]
        table_idx[i], table_dist[i] = _merge_candidates(
            table_idx[i], table_dist[i], leaf_indices[cand_pos], d[row_pos, cand_pos]
        )


def _reference_pass(tree, distance, table_idx, table_dist, kappa):
    """One projection tree's leaves, merged per row; returns the unchanged fraction."""
    previous = table_idx.copy()
    for leaf in tree.leaves:
        _leaf_exhaustive_update(leaf.indices, distance, table_idx, table_dist, kappa)
    return unchanged_fraction(previous, table_idx)


def reference_neighbors(distance, config, rng=None) -> NeighborTable:
    """The ANN search with per-row merges and a full-table convergence check."""
    n = distance.n
    kappa = min(config.neighbors, n)
    rng = rng or np.random.default_rng(config.seed)
    if n <= config.leaf_size:
        table = exhaustive_neighbors(distance, kappa)
        return NeighborTable(table.indices, table.distances, iterations=1, converged=True)

    table_idx, table_dist = init_table(n, kappa, rng)
    iterations = 0
    converged = False
    for seed in tree_seed_schedule(rng, config.num_neighbor_trees):
        iterations += 1
        tree = build_tree(
            n, config, distance, rng=np.random.default_rng(seed), randomized_pivots=True
        )
        unchanged = _reference_pass(tree, distance, table_idx, table_dist, kappa)
        if unchanged >= config.neighbor_accuracy_target and iterations > 1:
            converged = True
            break
    return NeighborTable(table_idx, table_dist, iterations=iterations, converged=converged)

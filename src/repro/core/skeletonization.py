"""Nested interpolative-decomposition skeletonization (§2.2, Algorithm 2.6).

For a leaf β the off-diagonal block ``K_{Iβ}`` (``I`` = everything outside
β) is approximated by a column ID

    K_{Iβ} ≈ K_{Iβ̃} P_{β̃β},

where the *skeleton* β̃ ⊂ β holds at most ``s`` columns.  For an internal
node α the same ID is computed on the columns ``[l̃ r̃]`` (the children's
skeletons), which makes the skeletons *nested*, α̃ ⊂ l̃ ∪ r̃, and yields the
telescoping coefficient expression of Eq. (10).

Touching all of ``I`` would cost O(N) rows per node, so the rows are
subsampled (``I' ⊂ I``) with *neighbor-based importance sampling*: rows that
are neighbors of the node's indices are included first (they are where the
off-diagonal block is largest and hardest to interpolate), and the rest of
the sample is drawn uniformly from the remaining far-away rows.

The only cross-node dependency is parent-on-children, so the algorithm is
one bottom-up **level sweep** (:func:`skeletonize_level`, tasks SKEL +
COEF of Table 2 for every node of a level at once):

1. *shared sampling streams over one ownership mask* — every node draws
   its rows from its own deterministic stream (:func:`node_stream`), the
   whole level against one boolean mask, O(|indices| + sample) per node,
2. *shape bucketing* — the sampled blocks are grouped by padded shape
   (rows and columns rounded up to powers of two) and stacked; zero
   padding never changes a block's decomposition,
3. *stacked decompositions* — each bucket runs through one batched pivoted
   QR + triangular solve (:mod:`repro.linalg.id`), or block by block when
   the blocks are large enough to be LAPACK-bound.

A node's result depends only on ``(stream base, node_id)``, its own
indices / neighbor list and its children's skeletons — never on which
other nodes share the call.  Whole *subtrees* therefore factor perfectly,
and :func:`skeletonize_tree` fans them out over a thread pool when
``config.compression_workers > 1``: each subtree's task writes only its
own nodes, and any worker count produces bit-identical trees.  The per-node
postorder form of Algorithm 2.6 lives on as the test oracle
``tests/oracles/skeletonization_reference.py``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..config import GOFMMConfig
from ..errors import RankDeficiencyError
from ..linalg.id import (
    batched_interpolative_decomposition,
    interpolative_decomposition,
    stacked_sweep_applies,
)
from ..matrices.base import SPDMatrix
from ..obs import counters as _obs_counters
from ..obs.trace import get_tracer
from .neighbors import NeighborTable
from .tree import BallTree, TreeNode

__all__ = [
    "SkeletonizationStats",
    "collect_stats",
    "node_stream_base",
    "node_stream",
    "fill_uniform",
    "sample_rows_level",
    "skeletonize_level",
    "skeletonize_tree",
]


@dataclass
class SkeletonizationStats:
    """Aggregate statistics of a skeletonization pass (reported by benchmarks)."""

    num_nodes: int = 0
    total_rank: int = 0
    max_rank: int = 0
    ranks: list[int] | None = None

    def record(self, rank: int) -> None:
        self.num_nodes += 1
        self.total_rank += rank
        self.max_rank = max(self.max_rank, rank)
        if self.ranks is None:
            self.ranks = []
        self.ranks.append(rank)

    @property
    def average_rank(self) -> float:
        return self.total_rank / self.num_nodes if self.num_nodes else 0.0


def collect_stats(tree: BallTree) -> SkeletonizationStats:
    """Stats of an already-skeletonized tree, recorded in postorder (root skipped)."""
    stats = SkeletonizationStats()
    for node in tree.postorder():
        if node.is_root:
            continue
        stats.record(node.skeleton_rank)
    return stats


# ---------------------------------------------------------------------------
# row sampling
# ---------------------------------------------------------------------------

def node_stream_base(rng: np.random.Generator) -> int:
    """One draw from the stage generator seeding every per-node stream.

    Row sampling uses an independent generator per tree node, derived
    deterministically from ``(base, node_id)`` (:func:`node_stream`).
    Because the derivation depends only on the node id — never on the
    traversal order or on which thread handles the node — the level
    sweep, a subtree's slice of it in a worker, and the per-node test
    oracle all draw bit-identical row samples for every node.
    """
    return int(rng.integers(np.iinfo(np.int64).max))


def node_stream(base: int, node_id: int) -> np.random.Generator:
    """The deterministic row-sampling generator of one tree node."""
    return np.random.default_rng([base, node_id])


def fill_uniform(rng: np.random.Generator, n: int, need: int, banned: np.ndarray) -> np.ndarray:
    """``need`` distinct uniform draws from ``{0..n-1}`` minus ``banned``.

    Rejection sampling: batches of uniform integers are drawn and filtered
    against the ``banned`` mask (which is mutated to mark accepted rows),
    so the cost is O(need) expected instead of the O(n) pool
    materialization of ``rng.choice(pool, replace=False)``.  The caller
    guarantees at least ``need`` unbanned rows exist.
    """
    out: list[np.ndarray] = []
    got = 0
    while got < need:
        m = need - got
        cand = rng.integers(0, n, size=m + (m >> 2) + 8)
        cand = cand[~banned[cand]]
        if cand.size:
            # Deduplicate keeping first occurrences in draw order.
            _, first = np.unique(cand, return_index=True)
            take = cand[np.sort(first)][:m]
            banned[take] = True
            out.append(take.astype(np.intp))
            got += take.size
    if not out:
        return np.empty(0, dtype=np.intp)
    return np.concatenate(out)


def _sample_rows(
    node: TreeNode,
    n: int,
    sample_size: int,
    neighbors: Optional[NeighborTable],
    rng: np.random.Generator,
    banned: np.ndarray,
) -> np.ndarray:
    """Importance-sampled row set ``I' ⊂ {0..N-1} \\ node.indices`` of one node.

    Neighbor rows (from ``N(α)``) that lie outside the node come first; the
    remainder of the budget is filled uniformly from the other outside
    rows.  If the complement is smaller than the requested sample, the
    whole complement is returned.  ``banned`` is the level's shared
    ownership mask: this function marks the node's rows on entry and
    un-marks exactly what it touched before returning, so each node costs
    O(|indices| + sample) mask work instead of an O(n) allocation.
    """
    complement_size = n - node.indices.size
    if complement_size <= 0:
        return np.empty(0, dtype=np.intp)
    banned[node.indices] = True
    touched: list[np.ndarray] = [node.indices]
    try:
        if complement_size <= sample_size:
            return np.nonzero(~banned)[0].astype(np.intp)

        chosen: list[np.ndarray] = []
        count = 0
        if neighbors is not None and node.neighbor_list is not None:
            cand = node.neighbor_list[~banned[node.neighbor_list]]
            if cand.size > sample_size:
                cand = rng.choice(cand, size=sample_size, replace=False)
            if cand.size:
                cand = cand.astype(np.intp)
                chosen.append(cand)
                banned[cand] = True  # from here on "banned" means "not eligible"
                touched.append(cand)
                count += cand.size

        if count < sample_size:
            need = min(sample_size - count, complement_size - count)
            if need > 0:
                take = fill_uniform(rng, n, need, banned)
                chosen.append(take)
                touched.append(take)

        if not chosen:
            return np.empty(0, dtype=np.intp)
        return np.unique(np.concatenate(chosen))
    finally:
        for indices in touched:
            banned[indices] = False


def sample_rows_level(
    members: list[TreeNode],
    n: int,
    sample_size: int,
    neighbors: Optional[NeighborTable],
    base: int,
) -> list[np.ndarray]:
    """Importance-sampled row sets for every node of one tree level.

    The level's nodes partition the index set, so all of the level's
    draws run against **one** shared ownership mask; each node draws from
    its own :func:`node_stream`, so the samples do not depend on which
    nodes share the call.
    """
    banned = np.zeros(n, dtype=bool)
    return [
        _sample_rows(node, n, sample_size, neighbors, node_stream(base, node.node_id), banned)
        for node in members
    ]


# ---------------------------------------------------------------------------
# the level sweep
# ---------------------------------------------------------------------------

def _pow2(size: int) -> int:
    """``size`` rounded up to a power of two (the shape-bucket key)."""
    return 1 << (size - 1).bit_length() if size > 0 else 0


def _assign_empty(node: TreeNode, num_columns: int) -> None:
    node.skeleton = np.empty(0, dtype=np.intp)
    node.coeffs = np.zeros((0, num_columns))
    node.skeleton_rank = 0


def skeletonize_level(
    members: list[TreeNode],
    n: int,
    matrix: SPDMatrix,
    config: GOFMMConfig,
    neighbors: Optional[NeighborTable],
    base: int,
) -> None:
    """Skeletonize one tree level's nodes in place (tasks SKEL + COEF).

    Samples every node's rows against one shared ownership mask, buckets
    the sampled blocks by padded shape, runs each bucket through a stacked
    decomposition, and assigns ``skeleton`` / ``coeffs`` /
    ``skeleton_rank`` on the nodes.  ``members`` may be a whole level or
    one subtree's slice of it (the results are identical) and must be
    processed bottom-up across calls (children before parents).  Raises
    :class:`RankDeficiencyError` when ``config.secure_accuracy`` is set
    and a node cannot produce a nonzero skeleton.
    """
    sample_size = config.effective_sample_size()
    rows_per_node = sample_rows_level(members, n, sample_size, neighbors, base)

    # Bucket the level's sampled blocks by padded shape.
    buckets: dict[tuple[int, int], list[tuple[TreeNode, np.ndarray, np.ndarray]]] = {}
    for node, rows in zip(members, rows_per_node):
        if node.is_leaf:
            columns = node.indices
        else:
            left, right = node.children()
            if left.skeleton is None or right.skeleton is None:
                raise RankDeficiencyError(
                    f"children of node {node.node_id} have not been skeletonized "
                    "(level sweep violated)"
                )
            columns = np.concatenate([left.skeleton, right.skeleton])

        if columns.size == 0:
            node.skeleton = np.empty(0, dtype=np.intp)
            node.coeffs = np.zeros((0, 0))
            node.skeleton_rank = 0
            if config.secure_accuracy:
                raise RankDeficiencyError(
                    f"node {node.node_id} has no columns to skeletonize"
                )
            continue
        if rows.size == 0:
            # Root-like node: nothing outside it, no off-diagonal block.
            _assign_empty(node, columns.size)
            continue

        key = (_pow2(rows.size), _pow2(columns.size))
        buckets.setdefault(key, []).append((node, rows, columns))

    for (pad_rows, pad_cols), group in sorted(buckets.items()):
        # One stacked evaluation for the whole bucket's entries (tasks
        # Kba of the SKEL stage): same values and evaluation counts as
        # per-node matrix.entries calls, far fewer kernel invocations.
        blocks = matrix.entries_batched(
            [rows for _, rows, _ in group], [columns for _, _, columns in group]
        )
        if stacked_sweep_applies(len(group), pad_rows, pad_cols):
            stack = np.zeros((len(group), pad_rows, pad_cols))
            row_counts = np.empty(len(group), dtype=np.intp)
            col_counts = np.empty(len(group), dtype=np.intp)
            for g, (node, rows, columns) in enumerate(group):
                stack[g, : rows.size, : columns.size] = blocks[g]
                row_counts[g] = rows.size
                col_counts[g] = columns.size
            decompositions = batched_interpolative_decomposition(
                stack,
                max_rank=config.max_rank,
                tolerance=config.tolerance,
                adaptive=config.adaptive_rank,
                row_counts=row_counts,
                col_counts=col_counts,
            )
        else:
            # Large blocks stay cache-resident inside one LAPACK call,
            # so the bucket is decomposed block by block (no padding).
            decompositions = [
                interpolative_decomposition(
                    block,
                    max_rank=config.max_rank,
                    tolerance=config.tolerance,
                    adaptive=config.adaptive_rank,
                )
                for block in blocks
            ]
        for g, ((node, rows, columns), decomposition) in enumerate(zip(group, decompositions)):
            if decomposition.rank == 0:
                if config.secure_accuracy:
                    block = blocks[g]
                    block_norm = float(np.abs(block).max()) if block.size else 0.0
                    raise RankDeficiencyError(
                        f"node {node.node_id}: adaptive ID selected rank 0 "
                        f"(block norm {block_norm:g})"
                    )
                _assign_empty(node, columns.size)
                continue
            node.skeleton = columns[decomposition.skeleton]
            node.coeffs = decomposition.coeffs.astype(config.dtype)
            node.skeleton_rank = decomposition.rank


# ---------------------------------------------------------------------------
# subtree fan-out
# ---------------------------------------------------------------------------

def _subtree_level_slices(root_id: int, shard_level: int, depth: int) -> Iterator[tuple[int, int]]:
    """``(lo, hi)`` node-id ranges of one subtree's levels, bottom-up.

    Node ids are breadth-first positions in a complete binary tree, so the
    descendants of ``root_id`` at depth offset ``d`` occupy the contiguous
    id range ``[(root_id+1)·2^d − 1, (root_id+2)·2^d − 2]``.
    """
    for d in range(depth - shard_level, -1, -1):
        yield (root_id + 1) * (1 << d) - 1, (root_id + 2) * (1 << d) - 2


def _shard_level(tree: BallTree, config: GOFMMConfig) -> int:
    """Depth of the fan-out's subtree roots, or ``0`` to sweep on the caller's thread.

    Fanning out helps only with more than one worker and a tree deep
    enough to split; the level is the shallowest with at least one
    subtree per worker.
    """
    workers = config.compression_workers
    if workers <= 1 or tree.depth < 1:
        return 0
    return min(tree.depth, max(1, (workers - 1).bit_length()))


def _skeletonize_shards(
    tree: BallTree,
    matrix: SPDMatrix,
    config: GOFMMConfig,
    neighbors: Optional[NeighborTable],
    base: int,
    shard_level: int,
) -> None:
    """Skeletonize levels ``depth … shard_level`` subtree by subtree on a thread pool.

    Each task runs one subtree's levels bottom-up through
    :func:`skeletonize_level` on the tree's own nodes.  Subtrees own
    disjoint nodes, so the tasks write nothing in common; the per-node
    LAPACK calls and kernel-entry ufuncs release the GIL, so they overlap.
    A task's :class:`~repro.errors.CompressionError` (``secure_accuracy`` rank
    deficiency) propagates to the caller.
    """
    num_subtrees = 1 << shard_level
    per_subtree = (1 << (tree.depth - shard_level + 1)) - 1
    workers = min(config.compression_workers, num_subtrees)

    def run(root_id: int) -> None:
        for lo, hi in _subtree_level_slices(root_id, shard_level, tree.depth):
            skeletonize_level(tree.nodes[lo : hi + 1], tree.n, matrix, config, neighbors, base)

    before = matrix.entry_evaluations
    with get_tracer().span(
        "skeletonize.shards",
        levels=tree.depth - shard_level + 1,
        nodes=num_subtrees * per_subtree,
        workers=workers,
        entries=0,
    ) as span:
        with ThreadPoolExecutor(workers, thread_name_prefix="gofmm-skeletonize") as pool:
            for _ in pool.map(run, range(num_subtrees - 1, 2 * num_subtrees - 1)):
                pass
        span.set(entries=int(matrix.entry_evaluations - before))


def skeletonize_tree(
    tree: BallTree,
    matrix: SPDMatrix,
    config: GOFMMConfig,
    neighbors: Optional[NeighborTable],
    rng: Optional[np.random.Generator] = None,
) -> SkeletonizationStats:
    """Algorithm 2.6 over the whole tree as one bottom-up level sweep.

    The root has an empty complement (no off-diagonal block), so it is
    never skeletonized; its "skeleton" is irrelevant because ``Far(root)``
    is always empty.  With ``config.compression_workers > 1`` (and a tree
    deep enough to split, :func:`_shard_level`) the bottom levels run
    subtree-parallel on a thread pool and the sweep finishes the levels
    above on the caller's thread.  Every worker count produces
    bit-identical trees, stats and entry-evaluation counts.
    """
    rng = rng or np.random.default_rng(config.seed)
    base = node_stream_base(rng)
    levels = tree.levels()
    tracer = get_tracer()
    start_entries = matrix.entry_evaluations

    first = tree.depth
    shard_level = _shard_level(tree, config)
    if shard_level:
        _skeletonize_shards(tree, matrix, config, neighbors, base, shard_level)
        first = shard_level - 1

    for level in range(first, 0, -1):
        members = levels[level]
        before = matrix.entry_evaluations
        with tracer.span("skeletonize.level", level=level, nodes=len(members)) as span:
            skeletonize_level(members, tree.n, matrix, config, neighbors, base)
            span.set(entries=int(matrix.entry_evaluations - before))
    _obs_counters.add("kernel_entries_evaluated", int(matrix.entry_evaluations - start_entries))
    return collect_stats(tree)

"""Balanced binary metric ball tree (§2.1, Algorithm 2.1).

The tree recursively splits the index set ``{0, …, N−1}`` into two equal
halves until nodes hold at most ``m`` indices.  The leaves, read left to
right, define the symmetric permutation under which ``K`` is approximated
by the hierarchical structure of Eq. (5).

``metricSplit`` (Algorithm 2.1) performs each split:

1. pick an approximate centroid ``c`` from a small sample of the node,
2. ``p`` = index farthest from ``c``; ``q`` = index farthest from ``p``,
3. split the node's indices at the median of ``d(i, p) − d(i, q)``.

When no distance metric is available (lexicographic or random ordering,
Figure 7's reference schemes), the split simply keeps/permutes the input
order and cuts in half, which is exactly what HODLR / STRUMPACK do for dense
matrices.

The same class also builds the *randomized projection trees* used by the
neighbor search: identical construction except that ``p`` and ``q`` are
chosen at random.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from ..config import DistanceMetric, GOFMMConfig
from ..errors import CompressionError
from .distances import Distance
from .morton import ROOT_MORTON, MortonID

__all__ = ["TreeNode", "BallTree", "build_tree", "metric_split", "random_split"]


@dataclass
class TreeNode:
    """One node of the partition tree.

    ``indices`` are *global* matrix indices (original ordering) owned by the
    node; children split them evenly.  Skeletonization results are attached
    later by the compression driver (``skeleton``, ``coeffs``).

    ``parent`` is held weakly (the tree's ``nodes`` list owns every node),
    so a tree is no reference cycle: it is freed — with the store pages its
    skeletons and coefficients may map — as soon as its last user drops it.
    """

    node_id: int
    level: int
    morton: MortonID
    indices: np.ndarray
    parent: Optional["TreeNode"] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    # Filled during compression:
    skeleton: Optional[np.ndarray] = None          # global indices of the skeleton α̃
    coeffs: Optional[np.ndarray] = None            # P_{α̃ α} (leaf) or P_{α̃ [l̃ r̃]} (internal)
    skeleton_rank: int = 0
    neighbor_list: Optional[np.ndarray] = None     # N(α): neighbor indices of the node
    near: list = field(default_factory=list)       # Near(α): list of leaf node_ids
    far: list = field(default_factory=list)        # Far(α): list of node_ids

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def size(self) -> int:
        return int(self.indices.size)

    def children(self) -> tuple["TreeNode", "TreeNode"]:
        if self.is_leaf:
            raise CompressionError(f"node {self.node_id} is a leaf and has no children")
        assert self.left is not None and self.right is not None
        return self.left, self.right

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.is_leaf else "internal"
        return f"TreeNode(id={self.node_id}, level={self.level}, size={self.size}, {kind})"


def _get_parent(node: TreeNode) -> Optional[TreeNode]:
    ref = node.__dict__["_parent_ref"]
    return None if ref is None else ref()


def _set_parent(node: TreeNode, parent: Optional[TreeNode]) -> None:
    node.__dict__["_parent_ref"] = None if parent is None else weakref.ref(parent)


TreeNode.parent = property(_get_parent, _set_parent)


def metric_split(
    indices: np.ndarray,
    distance: Distance,
    rng: np.random.Generator,
    centroid_samples: int,
    randomized: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 2.1: split ``indices`` evenly into (left, right).

    With ``randomized=True`` the pivots ``p`` and ``q`` are drawn uniformly
    (the construction used for the ANN projection trees); otherwise they are
    the farthest-point pivots of the ball-tree construction.
    """
    indices = np.asarray(indices, dtype=np.intp)
    n = indices.size
    if n < 2:
        raise CompressionError("cannot split a node with fewer than 2 indices")

    if randomized:
        p_pos, q_pos = rng.choice(n, size=2, replace=False)
        p = indices[p_pos]
        q = indices[q_pos]
        d_p = distance.to_point(indices, int(p))
    else:
        sample = indices[rng.choice(n, size=min(centroid_samples, n), replace=False)]
        d_to_c = distance.to_centroid(indices, sample)
        p = indices[int(np.argmax(d_to_c))]
        d_p = distance.to_point(indices, int(p))
        q = indices[int(np.argmax(d_p))]
        if p == q:
            # Degenerate geometry (all points coincide): fall back to a random pivot.
            q = indices[int(rng.integers(n))]

    d_q = distance.to_point(indices, int(q))
    score = d_p - d_q

    # Median split with deterministic tie-breaking: argsort is stable, so
    # equal scores keep their relative order and the halves stay balanced.
    order = np.argsort(score, kind="stable")
    half = n // 2
    left = indices[order[:half]]
    right = indices[order[half:]]
    return left, right


def _split_level_randomized(
    level_indices: list[np.ndarray],
    distance: Distance,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Random-pivot splits for one whole tree level, batched.

    Semantically (and bitwise) identical to calling
    :func:`metric_split(randomized=True)` node by node: the pivot draws
    happen per node in frontier order (same generator stream), and the
    pivot distances go through :meth:`~repro.core.distances.Distance.pairwise_blocks`
    with one single-column block per node — per slice the very GEMM /
    kernel evaluation ``to_point`` performs.  What the batching removes is
    the per-node Python and small-array overhead, which dominates the
    projection-tree builds of the ANN search (hundreds of nodes, each
    holding only a few indices).
    """
    pivots_p = np.empty(len(level_indices), dtype=np.intp)
    pivots_q = np.empty(len(level_indices), dtype=np.intp)
    for i, indices in enumerate(level_indices):
        if indices.size < 2:
            raise CompressionError("cannot split a node with fewer than 2 indices")
        p_pos, q_pos = rng.choice(indices.size, size=2, replace=False)
        pivots_p[i] = indices[p_pos]
        pivots_q[i] = indices[q_pos]

    out: list[Optional[tuple[np.ndarray, np.ndarray]]] = [None] * len(level_indices)
    by_size: dict[int, list[int]] = {}
    for i, indices in enumerate(level_indices):
        by_size.setdefault(indices.size, []).append(i)
    for size, members in by_size.items():
        stacked = np.stack([level_indices[i] for i in members])
        # One single-column block per pivot: fusing both pivots into one
        # two-column GEMM is *not* bitwise-stable on every BLAS, and the
        # splits must reproduce ``to_point`` exactly.
        d_p = distance.pairwise_blocks(stacked, pivots_p[members][:, None])[:, :, 0]
        d_q = distance.pairwise_blocks(stacked, pivots_q[members][:, None])[:, :, 0]
        order = np.argsort(d_p - d_q, axis=1, kind="stable")
        ordered = np.take_along_axis(stacked, order, axis=1)
        half = size // 2
        for g, i in enumerate(members):
            out[i] = (ordered[g, :half], ordered[g, half:])
    return out  # type: ignore[return-value]


def random_split(indices: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Split preserving the current order (used for lexicographic/random trees)."""
    indices = np.asarray(indices, dtype=np.intp)
    half = indices.size // 2
    return indices[:half], indices[half:]


class BallTree:
    """Complete balanced binary partition tree over matrix indices.

    All leaves live at the same depth ``⌈log2(N / m)⌉`` so that sibling
    relationships (and hence the HSS structure of Eq. (5)) are well defined
    at every level.  Nodes are stored in breadth-first order; ``node_id`` is
    the position in that ordering (root = 0), which matches the labelling of
    Figure 2.
    """

    def __init__(self, nodes: list[TreeNode], depth: int, n: int) -> None:
        self.nodes = nodes
        self.depth = depth
        self.n = n
        self.root = nodes[0]
        self.leaves: list[TreeNode] = [node for node in nodes if node.is_leaf]
        # Map each global index to the leaf (node_id / Morton ID) that owns it.
        self._leaf_of_index = np.empty(n, dtype=np.intp)
        for leaf in self.leaves:
            self._leaf_of_index[leaf.indices] = leaf.node_id
        # Permutation: global index -> position in the left-to-right leaf ordering.
        self._permutation = np.concatenate([leaf.indices for leaf in self.leaves])

    # -- lookups ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

    def leaf_of(self, index: int) -> TreeNode:
        """The leaf owning a global matrix index."""
        return self.nodes[int(self._leaf_of_index[index])]

    def leaf_ids_of(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized ``leaf_of``: node_ids of the leaves owning each index."""
        return self._leaf_of_index[np.asarray(indices, dtype=np.intp)]

    def morton_of_index(self, index: int) -> MortonID:
        """MortonID(i) in the paper: the Morton ID of the leaf containing index i."""
        return self.leaf_of(index).morton

    @property
    def permutation(self) -> np.ndarray:
        """Global indices in left-to-right leaf order (the symmetric permutation of K)."""
        return self._permutation

    # -- copying ----------------------------------------------------------------
    def clone_structure(self) -> "BallTree":
        """Structural copy: same partition, no compression state.

        Returns a new tree whose nodes share the (read-only) ``indices``
        arrays but carry none of the per-node state attached by later
        pipeline stages (``neighbor_list``, ``near``/``far``, ``skeleton``,
        ``coeffs``).  The session API clones the cached partition for every
        compression so artifacts can be reused without aliasing mutable
        state between operators.
        """
        clones = [
            TreeNode(node_id=node.node_id, level=node.level, morton=node.morton, indices=node.indices)
            for node in self.nodes
        ]
        for node in self.nodes:
            if node.is_leaf:
                continue
            clone = clones[node.node_id]
            left, right = node.children()
            clone.left = clones[left.node_id]
            clone.right = clones[right.node_id]
            clone.left.parent = clone
            clone.right.parent = clone
        return BallTree(clones, self.depth, self.n)

    # -- traversals -------------------------------------------------------------
    def level_order(self) -> Iterator[TreeNode]:
        return iter(self.nodes)

    def levels(self) -> list[list[TreeNode]]:
        """Nodes grouped per level, root first."""
        out: list[list[TreeNode]] = [[] for _ in range(self.depth + 1)]
        for node in self.nodes:
            out[node.level].append(node)
        return out

    def preorder(self) -> Iterator[TreeNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.append(node.right)  # type: ignore[arg-type]
                stack.append(node.left)   # type: ignore[arg-type]

    def postorder(self) -> Iterator[TreeNode]:
        # Iterative postorder: reverse of (node, right, left) preorder.
        stack = [self.root]
        out: list[TreeNode] = []
        while stack:
            node = stack.pop()
            out.append(node)
            if not node.is_leaf:
                stack.append(node.left)   # type: ignore[arg-type]
                stack.append(node.right)  # type: ignore[arg-type]
        return iter(reversed(out))

    # -- invariant checking (used heavily by the tests) ---------------------------
    def check_invariants(self, leaf_size: int) -> None:
        """Raise if the partition violates its structural invariants."""
        seen = np.zeros(self.n, dtype=bool)
        for leaf in self.leaves:
            if leaf.size > leaf_size and self.depth > 0:
                raise CompressionError(f"leaf {leaf.node_id} has {leaf.size} > m={leaf_size} indices")
            if np.any(seen[leaf.indices]):
                raise CompressionError("leaves overlap")
            seen[leaf.indices] = True
        if not np.all(seen):
            raise CompressionError("leaves do not cover all indices")
        for node in self.nodes:
            if not node.is_leaf:
                left, right = node.children()
                merged = np.sort(np.concatenate([left.indices, right.indices]))
                if not np.array_equal(merged, np.sort(node.indices)):
                    raise CompressionError(f"node {node.node_id} indices != union of children")
                if abs(left.size - right.size) > 1:
                    raise CompressionError(f"node {node.node_id} split is unbalanced")


def build_tree(
    n: int,
    config: GOFMMConfig,
    distance: Optional[Distance],
    rng: Optional[np.random.Generator] = None,
    randomized_pivots: bool = False,
    initial_order: Optional[np.ndarray] = None,
) -> BallTree:
    """Construct the balanced partition tree (task SPLI of Table 2).

    Parameters
    ----------
    n:
        number of matrix indices.
    config:
        supplies the leaf size ``m`` and centroid sample size ``n_c``.
    distance:
        distance object, or ``None`` for metric-free orderings.
    randomized_pivots:
        use random pivots (projection tree for the ANN search) instead of
        farthest-point pivots.
    initial_order:
        ordering of the root indices.  Defaults to ``0..n−1``; the RANDOM
        metric passes a shuffled permutation.
    """
    rng = rng or np.random.default_rng(config.seed)
    if initial_order is None:
        root_indices = np.arange(n, dtype=np.intp)
    else:
        root_indices = np.asarray(initial_order, dtype=np.intp).copy()
        if root_indices.size != n:
            raise CompressionError("initial_order must be a permutation of 0..n-1")

    if config.distance is DistanceMetric.RANDOM and initial_order is None:
        root_indices = rng.permutation(n).astype(np.intp)

    m = config.leaf_size
    depth = 0
    while n > m * (1 << depth):
        depth += 1

    nodes: list[TreeNode] = []
    root = TreeNode(node_id=0, level=0, morton=ROOT_MORTON, indices=root_indices)
    nodes.append(root)
    frontier = [root]
    for level in range(depth):
        metric = distance is not None and config.distance.defines_distance
        level_splits: Optional[list[tuple[np.ndarray, np.ndarray]]] = None
        if metric and randomized_pivots:
            # Projection trees (ANN search): batch the whole level's pivot
            # distances — bitwise-identical splits, no per-node overhead.
            level_splits = _split_level_randomized([node.indices for node in frontier], distance, rng)
        next_frontier: list[TreeNode] = []
        for pos, node in enumerate(frontier):
            if level_splits is not None:
                left_idx, right_idx = level_splits[pos]
            elif metric:
                left_idx, right_idx = metric_split(
                    node.indices, distance, rng, config.centroid_samples, randomized=randomized_pivots
                )
            else:
                left_idx, right_idx = random_split(node.indices, rng)
            left = TreeNode(
                node_id=len(nodes),
                level=level + 1,
                morton=node.morton.left_child(),
                indices=left_idx,
                parent=node,
            )
            nodes.append(left)
            right = TreeNode(
                node_id=len(nodes),
                level=level + 1,
                morton=node.morton.right_child(),
                indices=right_idx,
                parent=node,
            )
            nodes.append(right)
            node.left, node.right = left, right
            next_frontier.extend((left, right))
        frontier = next_frontier

    return BallTree(nodes, depth, n)

"""First-class pipeline stage artifacts and their config dependencies.

The compression pipeline (ANN search → metric-tree partition → Near/Far
lists → skeletonization → near / far block caching → evaluation plan)
factors into seven artifacts.  Each artifact is tagged with the exact
subset of :class:`repro.config.GOFMMConfig` fields it depends on (``depends_on``)
and with its upstream artifacts (``STAGE_UPSTREAM``); a config change
invalidates an artifact iff it touches one of the artifact's own fields
or invalidates something upstream (:func:`invalidated_stages`).

The payoff: ``Session.recompress(tolerance=..., budget=..., max_rank=...)``
reuses the ball tree and the ANN table — the dominant cost at large n —
and pays only for skeletonization onward; a ``tolerance`` change also keeps
the near blocks, which are a function of the partition, the Near lists and
the matrix alone (most of the cached bytes).

Artifacts are plain data, deliberately decoupled from any particular
:class:`~repro.core.tree.BallTree` instance: the partition is cached
pristine (never mutated) and cloned per compression, and
:class:`Interactions` stamps its lists onto whichever clone a compression
is working on.  That is what makes it safe to hand out several
:class:`~repro.api.operator.CompressedOperator` objects that share
upstream artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional

import numpy as np

from ..core.hmatrix import BlockProvider, CompressedMatrix
from ..core.interactions import InteractionLists
from ..core.morton import ROOT_MORTON
from ..core.neighbors import NeighborTable
from ..core.skeletonization import SkeletonizationStats
from ..core.tree import BallTree, TreeNode

__all__ = [
    "STAGE_ORDER",
    "STAGE_FIELDS",
    "STAGE_UPSTREAM",
    "stage_fingerprint",
    "changed_fields",
    "invalidated_stages",
    "Partition",
    "Neighbors",
    "Interactions",
    "Skeletons",
    "NearBlocks",
    "FarBlocks",
    "Plan",
]


#: Pipeline stages in build order.
STAGE_ORDER: tuple[str, ...] = (
    "partition", "neighbors", "interactions", "skeletons", "near_blocks", "far_blocks", "plan"
)

#: The exact GOFMMConfig fields each stage reads.  A stage artifact stays
#: valid across a config change iff none of its fields changed and nothing
#: upstream was invalidated.
STAGE_FIELDS: Dict[str, frozenset] = {
    "partition": frozenset({"leaf_size", "distance", "centroid_samples", "seed"}),
    "neighbors": frozenset(
        {
            "distance",
            "neighbors",
            "leaf_size",
            "num_neighbor_trees",
            "neighbor_accuracy_target",
            "seed",
        }
    ),
    # neighbor_workers / compression_workers are deliberately untracked:
    # they are pure execution knobs (the threaded neighbor search and the
    # skeletonization fan-out are worker-count deterministic), so changing
    # them never invalidates an artifact.
    "interactions": frozenset(
        {"budget", "symmetrize_lists", "max_rank", "sample_size", "oversampling", "leaf_size", "seed"}
    ),
    "skeletons": frozenset(
        {
            "max_rank",
            "tolerance",
            "adaptive_rank",
            "sample_size",
            "oversampling",
            "secure_accuracy",
            "dtype",
            "seed",
        }
    ),
    "near_blocks": frozenset({"cache_near_blocks"}),
    "far_blocks": frozenset({"cache_far_blocks"}),
    "plan": frozenset({"prebuild_plan", "plan_rank_bucketing", "streaming_chunk_bytes"}),
}

#: Direct upstream dependencies (the partition and the ANN table are
#: independent of each other — both derive from the distance oracle alone).
STAGE_UPSTREAM: Dict[str, tuple[str, ...]] = {
    "partition": (),
    "neighbors": (),
    "interactions": ("partition", "neighbors"),
    "skeletons": ("interactions",),
    # Near blocks K[β, α] never see a skeleton: they survive any change
    # that leaves the partition and the Near lists alone.
    "near_blocks": ("interactions",),
    "far_blocks": ("skeletons",),
    "plan": ("near_blocks", "far_blocks"),
}


def stage_fingerprint(config, stage: str) -> dict:
    """The ``{field: value}`` snapshot an artifact of ``stage`` was built under."""
    return {name: getattr(config, name) for name in STAGE_FIELDS[stage]}


def changed_fields(old_config, new_config) -> frozenset:
    """Config fields whose values differ between two configurations."""
    tracked = frozenset().union(*STAGE_FIELDS.values())
    return frozenset(
        name for name in tracked if getattr(old_config, name) != getattr(new_config, name)
    )


def invalidated_stages(changed: frozenset | set) -> frozenset:
    """Stages that must rebuild when the given config fields change.

    A stage is invalidated directly (one of its own fields changed) or
    transitively (an upstream stage was invalidated).  This is the
    stage-invalidation matrix the test-suite checks field by field.
    """
    stale: set[str] = set()
    for stage in STAGE_ORDER:  # build order is a topological order
        if STAGE_FIELDS[stage] & set(changed):
            stale.add(stage)
        elif any(up in stale for up in STAGE_UPSTREAM[stage]):
            stale.add(stage)
    return frozenset(stale)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

@dataclass
class Partition:
    """Stage 1: the metric ball tree (pristine — cloned before any mutation)."""

    stage: ClassVar[str] = "partition"
    depends_on: ClassVar[frozenset] = STAGE_FIELDS["partition"]

    tree: BallTree

    @property
    def permutation(self) -> np.ndarray:
        """Global indices in left-to-right leaf order (the symmetric permutation of K)."""
        return self.tree.permutation

    @property
    def num_leaves(self) -> int:
        return len(self.tree.leaves)

    @property
    def depth(self) -> int:
        return self.tree.depth

    def working_tree(self) -> BallTree:
        """A fresh structural clone for one compression to mutate."""
        return self.tree.clone_structure()

    # -- persistence (Session.save_artifacts / load_artifacts) --------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The partition as plain arrays (every node's index set, concatenated).

        Nodes are stored in breadth-first id order; the tree is complete
        and balanced, so the structure itself needs no encoding — node
        ``i``'s children are ``2i+1`` / ``2i+2``.
        """
        nodes = self.tree.nodes
        offsets = np.zeros(len(nodes) + 1, dtype=np.intp)
        for i, node in enumerate(nodes):
            offsets[i + 1] = offsets[i] + node.indices.size
        indices = np.concatenate([node.indices for node in nodes])
        return {"node_offsets": offsets, "node_indices": indices}

    @classmethod
    def from_arrays(cls, node_offsets: np.ndarray, node_indices: np.ndarray, depth: int, n: int) -> "Partition":
        """Rebuild the pristine partition from :meth:`to_arrays` output."""
        node_offsets = np.asarray(node_offsets, dtype=np.intp)
        node_indices = np.asarray(node_indices, dtype=np.intp)
        num_nodes = node_offsets.size - 1
        nodes: List[TreeNode] = []
        for i in range(num_nodes):
            level = (i + 1).bit_length() - 1
            morton = ROOT_MORTON if i == 0 else nodes[(i - 1) // 2].morton.child(bool(i % 2 == 0))
            nodes.append(
                TreeNode(
                    node_id=i,
                    level=level,
                    morton=morton,
                    indices=node_indices[node_offsets[i] : node_offsets[i + 1]].copy(),
                )
            )
        for i, node in enumerate(nodes):
            if 2 * i + 2 < num_nodes:
                node.left = nodes[2 * i + 1]
                node.right = nodes[2 * i + 2]
                node.left.parent = node
                node.right.parent = node
        return cls(tree=BallTree(nodes, int(depth), int(n)))


@dataclass
class Neighbors:
    """Stage 2: the ANN table (``None`` for metric-free orderings)."""

    stage: ClassVar[str] = "neighbors"
    depends_on: ClassVar[frozenset] = STAGE_FIELDS["neighbors"]

    table: Optional[NeighborTable]

    @property
    def iterations(self) -> int:
        return self.table.iterations if self.table is not None else 0

    @property
    def converged(self) -> bool:
        return self.table.converged if self.table is not None else True


@dataclass
class Interactions:
    """Stage 3: Near/Far lists plus the per-node neighbor lists N(α).

    Stored as plain dicts keyed by ``node_id`` so the artifact can be
    re-stamped onto any structural clone of the partition.
    """

    stage: ClassVar[str] = "interactions"
    depends_on: ClassVar[frozenset] = STAGE_FIELDS["interactions"]

    lists: InteractionLists
    neighbor_lists: Dict[int, np.ndarray] = field(default_factory=dict)

    @classmethod
    def capture(cls, tree: BallTree, lists: InteractionLists) -> "Interactions":
        """Snapshot the lists a tree was annotated with by the interactions stage."""
        neighbor_lists = {
            node.node_id: node.neighbor_list
            for node in tree.nodes
            if node.neighbor_list is not None
        }
        return cls(lists=lists, neighbor_lists=neighbor_lists)

    def materialize(self, tree: BallTree) -> InteractionLists:
        """Stamp the cached lists onto a fresh clone of the partition."""
        for node in tree.nodes:
            node.near = list(self.lists.near.get(node.node_id, []))
            node.far = list(self.lists.far.get(node.node_id, []))
            neighbor_list = self.neighbor_lists.get(node.node_id)
            node.neighbor_list = neighbor_list
        return self.lists


@dataclass
class Skeletons:
    """Stage 4: the skeletonized working tree (immutable once built)."""

    stage: ClassVar[str] = "skeletons"
    depends_on: ClassVar[frozenset] = STAGE_FIELDS["skeletons"]

    tree: BallTree
    lists: InteractionLists
    stats: SkeletonizationStats

    @property
    def average_rank(self) -> float:
        return self.stats.average_rank

    @property
    def max_rank(self) -> int:
        return self.stats.max_rank


@dataclass
class NearBlocks:
    """Stage 5: cached (or lazily evaluated) direct blocks ``K[β, α]``, ``α ∈ Near(β)``.

    Bound to the pristine partition (it reads ``node.indices`` only), never
    to a skeletonized working tree, so reusing it keeps no old skeletons or
    coefficients alive.
    """

    stage: ClassVar[str] = "near_blocks"
    depends_on: ClassVar[frozenset] = STAGE_FIELDS["near_blocks"]

    blocks: BlockProvider


@dataclass
class FarBlocks:
    """Stage 6: cached (or lazily evaluated) skeleton blocks ``K[β̃, α̃]``, ``α ∈ Far(β)``."""

    stage: ClassVar[str] = "far_blocks"
    depends_on: ClassVar[frozenset] = STAGE_FIELDS["far_blocks"]

    blocks: BlockProvider


@dataclass
class Plan:
    """Stage 7: the assembled operator (CompressedMatrix + its cached plan)."""

    stage: ClassVar[str] = "plan"
    depends_on: ClassVar[frozenset] = STAGE_FIELDS["plan"]

    compressed: CompressedMatrix

    @property
    def evaluation_plan(self):
        """The ``"planned"`` plan, if one has been built (``None`` before first use)."""
        return self.compressed._plan

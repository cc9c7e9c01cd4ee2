"""Compression phase (§2.2, Algorithm 2.2), factored into pipeline stages.

The driver runs the paper's pipeline:

1. iterative ANN search with randomized projection trees (tasks SPLI + ANN),
2. metric ball-tree partitioning (task SPLI),
3. Near-list construction with budget voting (LeafNear) and Far-list
   construction (FindFar + MergeFar, or the symmetric dual-tree variant),
4. nested skeletonization (tasks SKEL + COEF),
5. optional caching of near and far submatrices (tasks Kba + SKba), each
   entry evaluated once, in bulk, into read-only slabs — near blocks into
   per-leaf block-rows holding each symmetric pair once, which the
   evaluation plan multiplies in place both ways,
6. optionally (``config.prebuild_plan``) the ``"planned"`` evaluation plan
   (:meth:`repro.core.hmatrix.CompressedMatrix.plan`).

Each step is exposed as a ``run_*_stage`` function so the staged session
API (:mod:`repro.api`) can cache and reuse individual stage artifacts
across recompressions; :func:`compress` chains them into the one-shot
monolithic path and returns a :class:`repro.core.hmatrix.CompressedMatrix`
plus a :class:`CompressionReport` with wall-clock time, entry-evaluation
counts and rank statistics per phase — the numbers the paper's tables
report as "Comp" time and average rank.

Randomness discipline: every stage draws from its own generator, derived
deterministically from ``config.seed`` and the stage name
(:func:`stage_rng`).  Stages therefore produce identical results whether
they run fused inside :func:`compress` or individually under a session
with upstream artifacts reused — the property the deprecation-shim
equivalence tests pin down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..config import DistanceMetric, GOFMMConfig
from ..errors import CompressionError
from ..matrices.base import SPDMatrix, as_spd_matrix
from .distances import Distance, make_distance
from .hmatrix import BlockProvider, CompressedMatrix, RowSlab, fold_near_rows
from .interactions import InteractionLists, build_interaction_lists, build_node_neighbor_lists
from .neighbors import NeighborTable, all_nearest_neighbors
from .skeletonization import SkeletonizationStats, skeletonize_tree
from .tree import BallTree, build_tree

__all__ = [
    "CompressionReport",
    "compress",
    "stage_rng",
    "run_distance_stage",
    "run_neighbors_stage",
    "run_partition_stage",
    "run_interactions_stage",
    "run_skeletons_stage",
    "fill_row_slabs",
    "run_near_blocks_stage",
    "run_far_blocks_stage",
    "run_blocks_stage",
]


@dataclass
class CompressionReport:
    """Per-phase timings and statistics of one compression run.

    ``reused_phases`` lists pipeline stages that were satisfied from a
    session cache instead of being executed (always empty for the one-shot
    :func:`compress` path); reused stages contribute no ``phase_seconds``.
    """

    phase_seconds: dict[str, float] = field(default_factory=dict)
    entry_evaluations: int = 0
    average_rank: float = 0.0
    max_rank: int = 0
    num_leaves: int = 0
    tree_depth: int = 0
    near_pairs: int = 0
    far_pairs: int = 0
    neighbor_iterations: int = 0
    neighbor_converged: bool = True
    reused_phases: list[str] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.phase_seconds.values()))

    def summary(self) -> str:
        phases = ", ".join(f"{k}={v:.3f}s" for k, v in self.phase_seconds.items())
        reused = f"; reused: {', '.join(self.reused_phases)}" if self.reused_phases else ""
        return (
            f"compression: {self.total_seconds:.3f}s ({phases}); "
            f"avg rank {self.average_rank:.1f}, max rank {self.max_rank}, "
            f"{self.num_leaves} leaves, {self.near_pairs} near pairs, {self.far_pairs} far pairs"
            f"{reused}"
        )


class _PhaseTimer:
    def __init__(self, report: CompressionReport) -> None:
        self.report = report

    def __call__(self, name: str):
        return _Phase(self.report, name)


class _Phase:
    def __init__(self, report: CompressionReport, name: str) -> None:
        self.report = report
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.report.phase_seconds[self.name] = self.report.phase_seconds.get(self.name, 0.0) + (
            time.perf_counter() - self.start
        )
        return False


# ---------------------------------------------------------------------------
# stage functions
# ---------------------------------------------------------------------------

# Fixed tags so each stage's generator is a deterministic function of
# (config.seed, stage) alone — never of how many draws earlier stages made.
_STAGE_SEED_TAGS = {
    "neighbors": 1,
    "partition": 2,
    "interactions": 3,
    "skeletons": 4,
}


def stage_rng(config: GOFMMConfig, stage: str) -> np.random.Generator:
    """Independent generator for one pipeline stage.

    Seeded from ``(stage tag, config.seed)`` so a stage re-run in isolation
    (session recompress) reproduces exactly the draws it would have made
    inside the fused pipeline.  ``seed=None`` yields fresh entropy.
    """
    tag = _STAGE_SEED_TAGS[stage]
    if config.seed is None:
        return np.random.default_rng()
    return np.random.default_rng([tag, config.seed])


def run_distance_stage(
    matrix: SPDMatrix,
    config: GOFMMConfig,
    coordinates: Optional[np.ndarray] = None,
) -> Optional[Distance]:
    """Build the distance oracle for partitioning / neighbor search."""
    return make_distance(matrix, config.distance, coordinates)


def run_neighbors_stage(
    distance: Optional[Distance],
    config: GOFMMConfig,
) -> Optional[NeighborTable]:
    """Iterative ANN search (tasks SPLI + ANN); ``None`` for metric-free orderings."""
    if distance is None or not config.distance.defines_distance:
        return None
    return all_nearest_neighbors(distance, config, rng=stage_rng(config, "neighbors"))


def run_partition_stage(
    n: int,
    config: GOFMMConfig,
    distance: Optional[Distance],
) -> BallTree:
    """Metric ball-tree partitioning (task SPLI)."""
    return build_tree(n, config, distance, rng=stage_rng(config, "partition"))


def run_interactions_stage(
    tree: BallTree,
    neighbors: Optional[NeighborTable],
    config: GOFMMConfig,
) -> InteractionLists:
    """Node neighbor lists N(α) plus Near/Far lists (Algorithms 2.3–2.5).

    Mutates ``tree`` (attaches ``neighbor_list``, ``near``, ``far`` to its
    nodes) and returns the :class:`InteractionLists`.
    """
    if neighbors is not None:
        build_node_neighbor_lists(
            tree,
            neighbors,
            max_size=4 * config.effective_sample_size(),
            rng=stage_rng(config, "interactions"),
        )
    return build_interaction_lists(tree, neighbors, config)


def run_skeletons_stage(
    tree: BallTree,
    matrix: SPDMatrix,
    config: GOFMMConfig,
    neighbors: Optional[NeighborTable],
) -> SkeletonizationStats:
    """Nested skeletonization (tasks SKEL + COEF); mutates ``tree`` nodes."""
    return skeletonize_tree(tree, matrix, config, neighbors, rng=stage_rng(config, "skeletons"))


#: Bytes of one block slab.  Large enough that a slab of small blocks
#: amortizes the Python-level ``entries_batched`` call over dozens of
#: blocks (the stage's time is flat from 256 KiB to 16 MiB); small enough
#: that slabs come from the heap, not from one fresh mapping each (glibc's
#: mmap threshold tops out at 32 MiB), and stay under the 4 MiB at which
#: numpy marks an allocation ``MADV_HUGEPAGE`` — mixing page sizes into the
#: heap slowed the *next* compression's untouched stages by 6-10 % on the
#: ledger's ``hss_coarse``.
_SLAB_BYTES = 2 * 2**20


def _evaluate_blocks(
    matrix: SPDMatrix,
    keys: list[tuple[int, int]],
    index_sets: list[np.ndarray],
    put: Callable[[int, np.ndarray], None],
) -> None:
    """Evaluate ``K[index_sets[β]][:, index_sets[α]]`` for every ``(β, α)`` key, in bulk.

    Same-shape blocks are evaluated one slab at a time through
    ``entries_batched(rows, cols, out=slab)`` — bitwise identical to
    per-block ``entries`` by that method's contract; ``put(i, block)``
    receives block ``keys[i]`` as a read-only view of its slab.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (beta_id, alpha_id) in enumerate(keys):
        shape = (index_sets[beta_id].size, index_sets[alpha_id].size)
        groups.setdefault(shape, []).append(i)
    for (p, k), members in groups.items():
        per_slab = max(1, _SLAB_BYTES // max(1, 8 * p * k))
        for start in range(0, len(members), per_slab):
            chunk = members[start : start + per_slab]
            slab = np.empty((len(chunk), p, k))
            matrix.entries_batched(
                np.stack([index_sets[keys[i][0]] for i in chunk]),
                np.stack([index_sets[keys[i][1]] for i in chunk]),
                out=slab,
            )
            slab.flags.writeable = False  # before slicing: views inherit the flag
            for i, block in zip(chunk, slab):
                put(i, block)


def fill_row_slabs(
    rows: list[tuple[int, tuple[int, ...], tuple[bool, ...]]],
    index_sets: list[np.ndarray],
    fill: Callable[[list[tuple[int, int]], list[np.ndarray]], None],
) -> tuple[list[RowSlab], dict[tuple[int, int], np.ndarray]]:
    """Lay the block-rows ``K[β, cols]`` of ``rows = [(β, cols, mirror)]`` out in row slabs.

    The one L2L operand format: the near-blocks stage caches these slabs,
    and the planned engine runs its L2L segments on them in place, one per
    slab (or on fresh ones this routine fills from a provider lacking
    them).  Rows of the same ``(m, Σk)`` shape share ``(g, m, Σk)`` float64
    slabs of at most ``_SLAB_BYTES`` (one row at least), in ``rows`` order.
    ``fill(keys, views)`` writes each block ``K[β, α]`` into its column view
    of β's row; the slabs are read-only afterwards.  Returns the slabs and
    the views by key, in ``rows`` order.
    """
    groups: dict[tuple[int, int], list] = {}
    for row in rows:
        beta_id, cols, _ = row
        shape = (index_sets[beta_id].size, sum(index_sets[a].size for a in cols))
        groups.setdefault(shape, []).append(row)
    slabs: list[RowSlab] = []
    views: dict[tuple[int, int], np.ndarray] = {}
    for (m, width), members in groups.items():
        per_slab = max(1, _SLAB_BYTES // max(1, 8 * m * width))
        for start in range(0, len(members), per_slab):
            chunk = members[start : start + per_slab]
            slab = RowSlab(
                np.empty((len(chunk), m, width)),
                tuple((beta_id, cols) for beta_id, cols, _ in chunk),
                tuple(mirror for _, _, mirror in chunk),
            )
            views.update(slab.blocks(index_sets))
            slabs.append(slab)
    keys = [(beta_id, alpha_id) for beta_id, cols, _ in rows for alpha_id in cols]
    fill(keys, [views[key] for key in keys])
    for array in [slab.array for slab in slabs] + list(views.values()):
        array.flags.writeable = False  # views made before the fill keep their own flag
    return slabs, {key: views[key] for key in keys}


def run_near_blocks_stage(
    tree: BallTree,
    matrix: SPDMatrix,
    config: GOFMMConfig,
    lists: Optional[InteractionLists] = None,
) -> BlockProvider:
    """Task Kba(β): evaluate and store the direct blocks ``K[β, α]``, ``α ∈ Near(β)``,
    each symmetric pair once.

    Each leaf's row holds its diagonal block and the pairs it owns
    (:func:`~repro.core.hmatrix.fold_near_rows`): a pair listed both ways is
    evaluated once, as ``K[min, max]``, and the provider reads the other
    direction as its transpose.  The blocks are evaluated straight into the
    leaf's block-row of a :class:`~repro.core.hmatrix.RowSlab`, the planned
    engine's L2L operand; they keep the bits of per-block ``entries``.
    Near(β) is read from ``lists`` when given, else from ``leaf.near``; with
    ``lists`` the tree needs ``node.indices`` only, so the session passes
    its pristine partition and the provider outlives any skeletonization.
    """
    near_blocks = BlockProvider(tree, matrix, use_skeletons=False)
    if config.cache_near_blocks:
        near = {
            leaf.node_id: list(leaf.near if lists is None else lists.near_of(leaf))
            for leaf in tree.leaves
        }
        index_sets = [node.indices for node in tree.nodes]

        def fill(keys, views):
            _evaluate_blocks(matrix, keys, index_sets, lambda i, block: np.copyto(views[i], block))

        near_blocks.store_rows(*fill_row_slabs(fold_near_rows(near), index_sets, fill))
    return near_blocks


def run_far_blocks_stage(tree: BallTree, matrix: SPDMatrix, config: GOFMMConfig) -> BlockProvider:
    """Task SKba(β): evaluate and store the skeleton blocks ``K[β̃, α̃]``, ``α ∈ Far(β)``."""
    far_blocks = BlockProvider(tree, matrix, use_skeletons=True)
    if config.cache_far_blocks:
        empty = np.empty(0, dtype=np.intp)
        keys = [
            (node.node_id, alpha_id)
            for node in tree.nodes
            if node.skeleton is not None
            for alpha_id in node.far
        ]
        skeletons = [node.skeleton if node.skeleton is not None else empty for node in tree.nodes]
        blocks: list[Optional[np.ndarray]] = [None] * len(keys)
        _evaluate_blocks(matrix, keys, skeletons, blocks.__setitem__)
        for key, block in zip(keys, blocks):
            far_blocks.store(key, block)
    return far_blocks


def run_blocks_stage(
    tree: BallTree,
    matrix: SPDMatrix,
    config: GOFMMConfig,
) -> tuple[BlockProvider, BlockProvider]:
    """Tasks Kba(β) and SKba(β): evaluate and store the direct and skeleton blocks."""
    return run_near_blocks_stage(tree, matrix, config), run_far_blocks_stage(tree, matrix, config)


# ---------------------------------------------------------------------------
# one-shot driver
# ---------------------------------------------------------------------------

def compress(
    matrix,
    config: Optional[GOFMMConfig] = None,
    coordinates: Optional[np.ndarray] = None,
    return_report: bool = False,
):
    """Compress an SPD matrix into a hierarchical (FMM/HSS) representation.

    This is the one-shot monolithic path: every stage runs.  To reuse
    stage artifacts across parameter changes or operator families, use
    :class:`repro.api.Session` (which produces identical results — the
    stages and their seeding are shared).

    Parameters
    ----------
    matrix:
        an :class:`repro.matrices.base.SPDMatrix`, a dense ``numpy`` array,
        or a ``(callback, n)`` pair.
    config:
        :class:`repro.config.GOFMMConfig`; defaults to the paper's default
        parameters (angle distance, 3 % budget).
    coordinates:
        optional point coordinates overriding ``matrix.coordinates`` (only
        used by the geometric distance).
    return_report:
        when true, return ``(CompressedMatrix, CompressionReport)``.

    Returns
    -------
    CompressedMatrix or (CompressedMatrix, CompressionReport)
    """
    matrix = as_spd_matrix(matrix)
    config = config or GOFMMConfig()
    report = CompressionReport()
    phase = _PhaseTimer(report)
    start_evals = matrix.entry_evaluations

    if matrix.n < 2:
        raise CompressionError("cannot compress a 1x1 matrix")

    with phase("distance"):
        distance = run_distance_stage(matrix, config, coordinates)

    with phase("neighbors"):
        neighbors = run_neighbors_stage(distance, config)
    if neighbors is not None:
        report.neighbor_iterations = neighbors.iterations
        report.neighbor_converged = neighbors.converged

    with phase("tree"):
        tree = run_partition_stage(matrix.n, config, distance)
        report.num_leaves = len(tree.leaves)
        report.tree_depth = tree.depth

    with phase("lists"):
        lists = run_interactions_stage(tree, neighbors, config)
        report.near_pairs = lists.total_near_pairs()
        report.far_pairs = lists.total_far_pairs()

    with phase("skeletonization"):
        stats = run_skeletons_stage(tree, matrix, config, neighbors)
        report.average_rank = stats.average_rank
        report.max_rank = stats.max_rank

    with phase("caching"):
        near_blocks, far_blocks = run_blocks_stage(tree, matrix, config)

    report.entry_evaluations = matrix.entry_evaluations - start_evals

    compressed = CompressedMatrix(
        tree=tree,
        lists=lists,
        config=config,
        near_blocks=near_blocks,
        far_blocks=far_blocks,
        matrix=matrix,
        neighbors=neighbors,
    )
    if config.prebuild_plan:
        # Flatten the tree into the evaluation plan now rather than on
        # the first matvec, so the "plan" phase shows up in the report and
        # later matvecs are pure execution.
        with phase("plan"):
            compressed.plan()
    if return_report:
        return compressed, report
    return compressed

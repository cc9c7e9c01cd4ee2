"""The compressed hierarchical matrix object produced by GOFMM.

A :class:`CompressedMatrix` bundles everything Algorithm 2.2 produced — the
metric tree (with per-node skeletons and interpolation coefficients), the
Near/Far interaction lists, and (optionally cached) near/far submatrices —
and exposes the operations a user of the library needs:

* ``matvec(w)`` / ``@`` — the fast approximate product (Algorithm 2.7),
  run by a cached :class:`repro.core.streaming.StreamingPlan`: level-batched
  GEMMs on cached blocks in place, the rest materialized chunk by chunk
  inside a bounded workspace.  The two engine names are two packings of
  that plan, chosen by where the blocks live: ``"planned"`` (rank-padded,
  :meth:`CompressedMatrix.plan`) and ``"streamed"`` (exact,
  :meth:`CompressedMatrix.streaming_plan` — for memoryless compressions and
  mmap-opened stores),
* ``to_dense()`` — explicit ``K̃`` for small problems (tests, exact error),
* storage / rank / FLOP reports used by the benchmark harness,
* ``relative_error`` — the sampled ε2 metric of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional

import numpy as np

from ..config import GOFMMConfig
from ..errors import EvaluationError
from ..matrices.base import SPDMatrix
from .plan import EvaluationCounters, _as_matrix, pads_ranks
from .streaming import StreamingPlan, build_streaming_plan
from .interactions import InteractionLists
from .neighbors import NeighborTable
from .tree import BallTree, TreeNode

__all__ = ["BlockProvider", "CompressedMatrix", "RowSlab", "evaluate_block", "fold_near_rows"]


def evaluate_block(
    tree: BallTree, matrix: Optional[SPDMatrix], use_skeletons: bool, key: tuple[int, int]
) -> Optional[np.ndarray]:
    """Evaluate block ``key = (β, α)`` from the source matrix (``None`` without one).

    Far blocks (``use_skeletons``) are ``K_{β̃α̃}``, near blocks ``K_{βα}``.
    """
    if matrix is None:
        return None
    beta = tree.node(key[0])
    alpha = tree.node(key[1])
    if use_skeletons:
        rows = beta.skeleton if beta.skeleton is not None else np.empty(0, dtype=np.intp)
        cols = alpha.skeleton if alpha.skeleton is not None else np.empty(0, dtype=np.intp)
    else:
        rows = beta.indices
        cols = alpha.indices
    return matrix.entries(rows, cols)


def fold_near_rows(near) -> list[tuple[int, tuple[int, ...], tuple[bool, ...]]]:
    """The cached block-rows of the Near lists ``near`` (leaf β → Near(β)), each
    symmetric pair once: ``[(β, cols, mirror)]`` in ``near`` order.

    A pair listed both ways is owned by its smaller node id, whose row
    holds ``K[β, α]`` (``β < α``) with ``mirror`` set: the block also
    applies transposed, ``K[α, β] = K[β, α]ᵀ``, and α's row skips β.  A
    diagonal block or a pair listed one way only (``symmetrize_lists=False``)
    stays in its target's row, applied one way.  Leaves whose row would be
    empty are left out.
    """
    listed = {(beta, alpha) for beta, cols in near.items() for alpha in cols}
    rows = []
    for beta, cols in near.items():
        kept = [a for a in cols if not (a < beta and (a, beta) in listed)]
        if kept:
            rows.append((beta, tuple(kept), tuple(a > beta and (a, beta) in listed for a in kept)))
    return rows


class RowSlab(NamedTuple):
    """Block-rows of ``g`` leaves of one shape, stacked ``(g, m, Σk)``.

    ``rows`` names row ``i`` of ``array`` as ``(β, cols)``: the row is
    ``K[β, cols]``, and the block ``(β, α)`` is the ``(m, |α|)`` column view
    at α's position in ``cols``.  ``mirror[i]`` flags the columns whose
    block also applies transposed (``K[α, β] = K[β, α]ᵀ``, a folded
    symmetric pair owned by β; see :func:`fold_near_rows`).  The planned
    engine's L2L operand.
    """

    array: np.ndarray
    rows: tuple[tuple[int, tuple[int, ...]], ...]
    mirror: tuple[tuple[bool, ...], ...]

    def blocks(self, index_sets) -> list[tuple[tuple[int, int], np.ndarray]]:
        """``((β, α), view)`` for every block, in row order (``index_sets[α]``: α's indices)."""
        out = []
        for row, (beta_id, cols) in zip(self.array, self.rows):
            offset = 0
            for alpha_id in cols:
                k = index_sets[alpha_id].size
                out.append(((beta_id, alpha_id), row[:, offset : offset + k]))
                offset += k
        return out

    def directions(self) -> list[tuple[int, int]]:
        """The ordered pairs the slab applies: ``(β, α)`` per column, and
        ``(α, β)`` per mirrored one."""
        out = []
        for (beta_id, cols), flags in zip(self.rows, self.mirror):
            for alpha_id, flag in zip(cols, flags):
                out.append((beta_id, alpha_id))
                if flag:
                    out.append((alpha_id, beta_id))
        return out


class BlockProvider:
    """Dict-like provider of near/far submatrices.

    When caching is enabled at compression time the blocks are stored in an
    internal dict (tasks ``Kba`` / ``SKba`` of Table 2) — as read-only views
    of the slabs the blocks stage evaluated them into: near blocks as
    column views of their leaf's :class:`RowSlab` row, far blocks as views
    of same-shape slabs.  A folded symmetric pair is held once, as its
    owner's block: ``get`` of the other direction returns its transposed
    view, and ``in`` holds for both.  When caching is disabled, each
    request evaluates the block from the original matrix on the fly —
    trading time for the O(N) cache memory, exactly the trade-off the paper
    describes.

    A provider may be shared between operators (a near provider reads
    ``node.indices`` only, so it outlives any one skeletonization): cached
    blocks must never be written through.
    """

    def __init__(self, tree: BallTree, matrix: Optional[SPDMatrix], use_skeletons: bool) -> None:
        self._tree = tree
        self._matrix = matrix
        self._use_skeletons = use_skeletons
        self._cache: Dict[tuple[int, int], np.ndarray] = {}
        # (α, β) → (β, α): the mirrored direction of a folded pair → its owned key.
        self._mirror: Dict[tuple[int, int], tuple[int, int]] = {}
        # Running totals, kept by ``store``: reports read them on every call.
        self._entries = 0
        self._nbytes = 0
        # Leaf β → the row slab whose row i is β's cached block-row (store_rows).
        self._rows: Dict[int, RowSlab] = {}

    def store(self, key: tuple[int, int], block: np.ndarray) -> None:
        """Cache ``block`` as ``key``; for either direction of a folded pair it
        replaces the owned block (``block.T`` for the mirrored direction)."""
        owner = self._mirror.get(key)
        if owner is not None:
            key, block = owner, block.T
        self._put(key, block)
        # A replaced block no longer matches its row: retire the owner's row.
        self._rows.pop(key[0], None)

    def _put(self, key: tuple[int, int], block: np.ndarray) -> None:
        previous = self._cache.get(key)
        if previous is not None:
            self._entries -= previous.size
            self._nbytes -= previous.nbytes
        self._cache[key] = block
        self._entries += block.size
        self._nbytes += block.nbytes

    def store_rows(self, slabs: list[RowSlab], blocks: Dict[tuple[int, int], np.ndarray]) -> None:
        """Cache ``blocks`` — column views of the rows of ``slabs`` — in ``blocks`` order,
        and link each mirrored column's other direction to its block.

        :meth:`row_slabs` then hands the slabs out whole until a block of
        one of their rows is replaced through :meth:`store`.
        """
        for key, block in blocks.items():
            self._put(key, block)
            self._rows.pop(key[0], None)
        for slab in slabs:
            for (beta, cols), flags in zip(slab.rows, slab.mirror):
                self._rows[beta] = slab
                for alpha, flag in zip(cols, flags):
                    if flag:
                        self._mirror[(alpha, beta)] = (beta, alpha)

    def row_slabs(self) -> list[RowSlab]:
        """The cached row slabs none of whose blocks has been replaced, in storing order."""
        slabs = {id(slab): slab for slab in self._rows.values()}
        return [
            slab for slab in slabs.values()
            if all(self._rows.get(beta) is slab for beta, _ in slab.rows)
        ]

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._cache or key in self._mirror

    def get(self, key: tuple[int, int]) -> Optional[np.ndarray]:
        block = self._cache.get(key)
        if block is not None:
            return block
        owner = self._mirror.get(key)
        if owner is not None:
            return self._cache[owner].T
        return evaluate_block(self._tree, self._matrix, self._use_skeletons, key)

    @property
    def cached_entries(self) -> int:
        return self._entries

    def cached_items(self):
        """Iterate ``(key, block)`` over the cached blocks (insertion order; a
        folded pair once, under its owned key)."""
        return self._cache.items()

    @property
    def bytes_resident(self) -> int:
        """Heap bytes held by the cached blocks."""
        return self._nbytes

    #: Whether the blocks are views of a file (never, for the in-memory provider).
    disk_backed = False

    @property
    def bytes_on_disk(self) -> int:
        """Disk bytes backing the blocks (always 0 for the in-memory provider)."""
        return 0

    def __len__(self) -> int:
        return len(self._cache)


@dataclass
class CompressedMatrix:
    """Hierarchically compressed SPD matrix ``K̃ ≈ K`` (Eq. (1))."""

    tree: BallTree
    lists: InteractionLists
    config: GOFMMConfig
    near_blocks: BlockProvider
    far_blocks: BlockProvider
    matrix: Optional[SPDMatrix] = None
    neighbors: Optional[NeighborTable] = None
    counters: EvaluationCounters = field(default_factory=EvaluationCounters)
    _plan: Optional[StreamingPlan] = field(default=None, repr=False, compare=False)
    _streaming_plan: Optional[StreamingPlan] = field(default=None, repr=False, compare=False)

    # -- linear operator interface -------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.tree.n, self.tree.n)

    @property
    def n(self) -> int:
        return self.tree.n

    def plan(self, rebuild: bool = False) -> StreamingPlan:
        """The cached ``"planned"`` plan (built on first use).

        Ranks are padded per ``config.plan_rank_bucketing``, which batches
        adaptive-rank trees into fewer, larger GEMMs.  When the bucketing
        pads no rank, the plan is the exact one: an already built
        :meth:`streaming_plan` is reused unless ``rebuild``.
        """
        if self._plan is None or rebuild:
            self._plan = self._shared_or_built(self._streaming_plan, rebuild,
                                               self.config.plan_rank_bucketing)
        return self._plan

    def streaming_plan(self, rebuild: bool = False) -> StreamingPlan:
        """The cached ``"streamed"`` plan (built on first use).

        Exact rank packing, so its products are bitwise those of the
        per-node traversal; fill chunks are bounded by
        ``config.streaming_chunk_bytes``.  An already built :meth:`plan`
        that pads no rank is reused unless ``rebuild``.
        """
        if self._streaming_plan is None or rebuild:
            self._streaming_plan = self._shared_or_built(self._plan, rebuild, "none")
        return self._streaming_plan

    def _shared_or_built(self, other: Optional[StreamingPlan], rebuild: bool,
                         bucketing: str) -> StreamingPlan:
        """``other`` when it exists and the padding pads nothing, else a new plan."""
        if (other is None or rebuild
                or pads_ranks(self.tree, self.config.plan_rank_bucketing)):
            return build_streaming_plan(self, bucketing)
        return other

    def default_engine(self) -> str:
        """Engine used when ``matvec`` is called without an explicit ``engine``.

        Residency decides: ``"planned"`` when every block is on the heap —
        no provider is disk-backed (an mmap-opened store's are, even when
        it holds no blocks), and either both caches are on or the padded
        plan is already built.
        Otherwise ``"streamed"``: memoryless compressions evaluate blocks
        chunk by chunk in a bounded workspace, and mmap-opened stores run
        L2L on their stored row slabs in place, packing only the far
        block-rows onto the heap.  Both are the same plan class with the
        same fill rules; they differ only in rank padding.  Pass
        ``engine="planned"`` (or call :meth:`plan`) to opt into padding
        anyway.
        """
        on_disk = self.near_blocks.disk_backed or self.far_blocks.disk_backed
        cached = self.config.cache_near_blocks and self.config.cache_far_blocks
        return "planned" if not on_disk and (cached or self._plan is not None) else "streamed"

    def matvec(self, w: np.ndarray, engine: Optional[str] = None) -> np.ndarray:
        """Approximate product ``K̃ w`` (Algorithm 2.7); accepts (N,) or (N, r).

        ``engine="planned"`` executes :meth:`plan` (rank-padded, agreeing
        with the per-node traversal to summation order); ``"streamed"``
        executes :meth:`streaming_plan` (exact packing, bit-identical to
        the per-node traversal of Algorithm 2.7).  Defaults to
        :meth:`default_engine`.
        """
        engine = engine or self.default_engine()
        if engine == "planned":
            plan = self.plan()
        elif engine == "streamed":
            plan = self.streaming_plan()
        else:
            raise EvaluationError(f"unknown evaluation engine {engine!r}; use 'planned' or 'streamed'")
        weights, was_vector = _as_matrix(w, self.tree.n)
        output = plan.execute(weights, counters=self.counters)
        return output[:, 0] if was_vector else output

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        return self.matvec(w)

    def matvec_transpose(self, w: np.ndarray, engine: Optional[str] = None) -> np.ndarray:
        """Product with ``K̃ᵀ``.

        With symmetric interaction lists ``K̃`` is symmetric by construction
        and this equals :meth:`matvec`; it is provided so users can verify
        symmetry numerically.
        """
        return self.matvec(w, engine=engine)

    # -- explicit form (small problems only) ----------------------------------
    def ordered_indices(self) -> Dict[int, np.ndarray]:
        """Indices owned by each node in left-to-right *leaf* order.

        A node's ``indices`` array preserves the order produced by its
        parent's split, which generally differs from the concatenation of its
        children's index arrays; the telescoping expression of Eq. (10)
        stacks children blocks, so explicit reconstructions must use this
        child-concatenated ordering.
        """
        ordered: Dict[int, np.ndarray] = {}
        for node in self.tree.postorder():
            if node.is_leaf:
                ordered[node.node_id] = node.indices
            else:
                left, right = node.children()
                ordered[node.node_id] = np.concatenate([ordered[left.node_id], ordered[right.node_id]])
        return ordered

    def telescoped_coefficients(self) -> Dict[int, np.ndarray]:
        """Full coefficient matrices ``P_{α̃α}`` (Eq. (10)) for every non-root node.

        Each entry maps the node's owned indices — in the left-to-right leaf
        order returned by :meth:`ordered_indices` — to its skeleton.  Cost is
        O(s · N log N) memory, so this is intended for diagnostics and
        ``to_dense`` at test scale.
        """
        full: Dict[int, np.ndarray] = {}
        for node in self.tree.postorder():
            if node.is_root or node.coeffs is None:
                continue
            if node.is_leaf:
                full[node.node_id] = node.coeffs
            else:
                left, right = node.children()
                pl = full.get(left.node_id)
                pr = full.get(right.node_id)
                if pl is None or pr is None:
                    full[node.node_id] = np.zeros((node.skeleton_rank, node.size))
                    continue
                stacked = np.zeros((pl.shape[0] + pr.shape[0], node.size))
                stacked[: pl.shape[0], : left.size] = pl
                stacked[pl.shape[0] :, left.size :] = pr
                full[node.node_id] = node.coeffs @ stacked
        return full

    def to_dense(self) -> np.ndarray:
        """Materialize ``K̃`` (O(N²) memory; tests and small problems only)."""
        if self.matrix is None and (len(self.near_blocks) == 0 and len(self.far_blocks) == 0):
            raise EvaluationError("cannot materialize: no cached blocks and no source matrix")
        n = self.tree.n
        out = np.zeros((n, n))
        telescoped = self.telescoped_coefficients()
        ordered = self.ordered_indices()

        for leaf in self.tree.leaves:
            for alpha_id in leaf.near:
                alpha = self.tree.node(alpha_id)
                block = self.near_blocks.get((leaf.node_id, alpha_id))
                if block is None:
                    raise EvaluationError(f"missing near block ({leaf.node_id}, {alpha_id})")
                out[np.ix_(leaf.indices, alpha.indices)] += block

        for node in self.tree.nodes:
            if not node.far:
                continue
            p_beta = telescoped.get(node.node_id)
            if p_beta is None or node.skeleton_rank == 0:
                continue
            for alpha_id in node.far:
                alpha = self.tree.node(alpha_id)
                p_alpha = telescoped.get(alpha_id)
                if p_alpha is None or alpha.skeleton_rank == 0:
                    continue
                block = self.far_blocks.get((node.node_id, alpha_id))
                if block is None:
                    raise EvaluationError(f"missing far block ({node.node_id}, {alpha_id})")
                out[np.ix_(ordered[node.node_id], ordered[alpha_id])] += p_beta.T @ block @ p_alpha
        return out

    # -- accuracy ---------------------------------------------------------------
    def relative_error(
        self,
        num_rhs: int = 10,
        num_sample_rows: int = 100,
        rng: np.random.Generator | None = None,
        engine: Optional[str] = None,
    ) -> float:
        """Sampled ε2 = ||K̃w − Kw||_F / ||Kw||_F against the source matrix.

        ``engine`` selects the matvec engine used for the approximate
        product (default: :meth:`default_engine`), so ε2 measures the engine
        users actually run — matching :func:`repro.gofmm.run`.
        """
        if self.matrix is None:
            raise EvaluationError("relative_error requires the source matrix to be attached")
        from .accuracy import relative_error as _relative_error

        return _relative_error(
            self,
            self.matrix,
            num_rhs=num_rhs,
            num_sample_rows=num_sample_rows,
            rng=rng,
            engine=engine,
        )

    # -- reports -----------------------------------------------------------------
    def rank_summary(self) -> dict[str, float]:
        """Skeleton-rank statistics (the "average rank" the paper reports)."""
        ranks = [node.skeleton_rank for node in self.tree.nodes if not node.is_root]
        if not ranks:
            return {"mean": 0.0, "max": 0, "min": 0}
        return {"mean": float(np.mean(ranks)), "max": int(np.max(ranks)), "min": int(np.min(ranks))}

    def storage_report(self) -> dict[str, float]:
        """Approximate storage of the representation, in number of float64 entries."""
        coeff_entries = sum(node.coeffs.size for node in self.tree.nodes if node.coeffs is not None)
        near_entries = self.near_blocks.cached_entries
        far_entries = self.far_blocks.cached_entries
        total = coeff_entries + near_entries + far_entries
        dense = self.tree.n ** 2
        return {
            "coefficients": float(coeff_entries),
            "near_blocks": float(near_entries),
            "far_blocks": float(far_entries),
            "total": float(total),
            "dense_equivalent": float(dense),
            "compression_ratio": float(dense / total) if total else float("inf"),
        }

    def memory_report(self) -> dict[str, int]:
        """Resident vs on-disk bytes of the representation (stable schema).

        ``bytes_resident`` counts heap-held arrays: skeleton coefficients
        (unless they are mmap views into an operator store), cached blocks
        of in-memory providers, and of each plan *already built* (this
        report never builds them; one shared by both engines counts once)
        the operands it owns (not the near cache's row slabs it runs L2L
        on), its index tables and its chunk workspace.
        ``bytes_on_disk`` counts mmap-backed coefficients/blocks.  Keys are
        always present, so serving metrics and ``CompressedOperator.report()``
        can rely on the schema.
        """
        from ..storage.store import is_disk_backed

        coeff_resident = coeff_disk = 0
        for node in self.tree.nodes:
            for array in (node.coeffs, node.skeleton):
                if array is None:
                    continue
                if is_disk_backed(array):
                    coeff_disk += array.nbytes
                else:
                    coeff_resident += array.nbytes
        resident = coeff_resident
        on_disk = coeff_disk
        for provider in (self.near_blocks, self.far_blocks):
            resident += int(getattr(provider, "bytes_resident", 0))
            on_disk += int(getattr(provider, "bytes_on_disk", 0))
        plans = {id(plan): plan for plan in (self._plan, self._streaming_plan) if plan is not None}
        for plan in plans.values():             # a plan shared by both engines counts once
            resident += plan.owned_bytes() + plan.index_bytes() + plan.workspace_bytes
        return {"bytes_resident": int(resident), "bytes_on_disk": int(on_disk)}

    def plan_report(self) -> dict[str, float]:
        """Size of the ``"planned"`` plan's in-place work (builds it if not yet cached)."""
        plan = self.plan()
        return {
            "segments": float(plan.num_segments),
            "workspace_rows": float(plan.workspace_rows),
            "packed_entries": float(plan.packed_entries()),
            "near_pairs": float(self.lists.total_near_pairs()),
            "far_pairs": float(self.lists.total_far_pairs()),
        }

    def streaming_report(self) -> dict[str, float]:
        """Size/chunking of the streaming plan (builds it if not yet cached)."""
        return self.streaming_plan().report()

    def interaction_report(self) -> dict[str, float]:
        """Sizes of the interaction lists (how much of K is treated directly)."""
        near_pairs = self.lists.total_near_pairs()
        far_pairs = self.lists.total_far_pairs()
        leaves = len(self.tree.leaves)
        return {
            "num_leaves": float(leaves),
            "near_pairs": float(near_pairs),
            "far_pairs": float(far_pairs),
            "avg_near_per_leaf": float(near_pairs / leaves) if leaves else 0.0,
            "budget_cap": float(self.lists.budget_cap),
            "is_hss": float(self.lists.is_hss()),
        }

    def evaluation_flops(self, num_rhs: int = 1) -> float:
        """Predicted FLOPs of one evaluation with ``num_rhs`` right-hand sides (Table 2 model)."""
        total = 0.0
        for node in self.tree.nodes:
            if node.is_root or node.coeffs is None:
                continue
            total += 2.0 * node.coeffs.shape[0] * node.coeffs.shape[1] * num_rhs  # N2S
            total += 2.0 * node.coeffs.shape[0] * node.coeffs.shape[1] * num_rhs  # S2N
            for alpha_id in node.far:
                alpha = self.tree.node(alpha_id)
                total += 2.0 * node.skeleton_rank * alpha.skeleton_rank * num_rhs  # S2S
        for leaf in self.tree.leaves:
            for alpha_id in leaf.near:
                alpha = self.tree.node(alpha_id)
                total += 2.0 * leaf.size * alpha.size * num_rhs  # L2L
        return total

"""Plan machinery: Algorithm 2.7 as level-batched GEMMs.

The paper states the evaluation as four task families (N2S / S2S / S2N /
L2L) run one tree node at a time.  Run that way in Python, the hot path is
dominated by interpreter and allocation overhead rather than BLAS (the
per-node traversal survives only as the test suite's oracle).

This module holds what the evaluation plan
(:class:`repro.core.streaming.StreamingPlan`, the one plan class) is made
of:

* **one workspace** — every active node's skeleton weights ``w̃`` and
  potentials ``ũ`` live at a precomputed row offset of two ``(R, r)``
  arrays (``R`` = total active skeleton rank), replacing the per-node
  dicts,
* **one segment** — each task family is the same three steps on different
  buffers: gather the inputs of a batch of nodes, multiply them by the
  batch's packed ``(g, a, b)`` operand in one ``np.matmul``, then write or
  scatter-add the products.  A :class:`PlanSegment` is that record: the
  operand plus a source and a destination access ``(buffer, block,
  index)`` into the per-matvec :class:`PlanContext`,
* **block size is the fast path** — an access views its buffer as
  ``(rows / block, block, r)`` and ``index`` names whole blocks.  With
  ``block = 1`` it lists rows.  When every leaf has size ``m`` the leaf
  gathers use ``block = m`` over the leaf-permuted weights, and when every
  active rank is ``s`` the workspace accesses use ``block = s``, so one
  index moves a whole leaf or node — kilobytes instead of one row.  Both
  forms give the same bits; the planner picks the block from the
  uniformity it observes, with no knob,
* **packed coefficients** — the :class:`PassLayout` groups the nodes of
  each level by coefficient shape and stacks their ``P`` matrices into one
  contiguous array, so each level of the upward (N2S) and downward (S2N)
  passes is a handful of batched GEMMs instead of thousands of tiny ones,
* **dead-branch pruning** — a node participates in the up/down passes only
  if it (or an ancestor) appears in some Far list; with ``budget`` large
  enough that everything is handled directly, the passes vanish entirely,
* **rank bucketing** — when the tree's active skeleton ranks are
  non-uniform (adaptive rank), a layout built with ``"pow2"`` or ``"max"``
  pads each rank up to a bucket (next power of two, or the per-level
  maximum) before grouping, so adaptive-rank trees batch into a few large
  GEMM groups instead of fragmenting into one group per distinct rank; all
  padding is zeros, leaving the product unchanged up to floating-point
  order.  ``CompressedMatrix.plan()`` packs with
  ``config.plan_rank_bucketing``, ``streaming_plan()`` exactly.

For the S2S and L2L families, each target's interaction blocks form one
wide block-row — the whole Far (resp. Near) list of a node becomes a
single GEMM with a large inner dimension, and every scatter target appears
exactly once per segment, keeping every scatter a plain vectorized
fancy-index add — no ``np.add.at`` in the hot loop.
:func:`_pack_s2s_segments` concatenates (and rank-pads) the block-rows of
fully cached S2S targets at build.  The L2L operand is the near cache's own
row slab (:class:`repro.core.hmatrix.RowSlab`): the near-blocks stage
evaluates each leaf's block-row — its diagonal block and the symmetric
pairs it owns — into it once, and :func:`slab_segments` runs one segment
per intact slab on it unchanged, applying the owned blocks both ways
(:class:`SlabSegment`) — no second copy of the near blocks; a store holds
and reopens the same slabs.

**Thread safety.**  Segments and layouts are immutable after build; all
mutable per-matvec state lives in a :class:`PlanContext`, created per call
and never shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..errors import CompressionError, EvaluationError

__all__ = [
    "BUCKETING_MODES",
    "EvaluationCounters",
    "PassLayout",
    "PlanContext",
    "PlanSegment",
    "build_pass_layout",
    "gather_gemm_scatter",
    "pad_ranks",
    "pads_ranks",
]


@dataclass
class EvaluationCounters:
    """FLOP counters per task family (used for the GFLOPS reporting of Table 5)."""

    n2s: float = 0.0
    s2s: float = 0.0
    s2n: float = 0.0
    l2l: float = 0.0

    @property
    def total(self) -> float:
        return self.n2s + self.s2s + self.s2n + self.l2l

    def add_flops(self, flops_per_rhs: Dict[str, float], num_rhs: int) -> None:
        """Add a plan's per-RHS family flops (keys ``n2s`` … ``l2l``) for ``num_rhs`` columns."""
        for family, flops in flops_per_rhs.items():
            setattr(self, family, getattr(self, family) + flops * num_rhs)


def _as_matrix(w: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim == 1:
        if w.shape[0] != n:
            raise EvaluationError(f"weight vector has length {w.shape[0]}, expected {n}")
        return w.reshape(n, 1), True
    if w.ndim == 2:
        if w.shape[0] != n:
            raise EvaluationError(f"weight matrix has {w.shape[0]} rows, expected {n}")
        return w, False
    raise EvaluationError("weights must be a vector or a 2-D array")


# ---------------------------------------------------------------------------
# per-matvec state
# ---------------------------------------------------------------------------

class PlanContext:
    """Mutable per-matvec state: the named buffers segments read and write.

    ``weights`` / ``output`` are the ``(N, r)`` input and result.  ``wtil``
    stacks the skeleton weights of every active node (node ``α`` owns rows
    ``offset[α] : offset[α] + rank[α]``); ``util`` stacks the skeleton
    potentials with the same layout.  ``leaves`` holds the weights in
    left-to-right leaf order when every leaf has the same size (else
    ``None``), so that one block of it is one leaf.  ``sums`` accumulates
    the row slabs' transposed products (:class:`SlabSegment`; allocated by
    the first).
    """

    __slots__ = ("weights", "leaves", "wtil", "util", "output", "sums", "num_rhs")

    def __init__(
        self,
        weights: np.ndarray,
        workspace_rows: int,
        leaf_perm: Optional[np.ndarray] = None,
        buffers: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        self.weights = weights
        self.num_rhs = weights.shape[1]
        self.output = np.zeros_like(weights)
        if buffers is not None:
            # Pooled workspaces (StreamingPlan.new_context): zeroed here so a
            # reused buffer is indistinguishable from a fresh allocation.
            wtil, util = buffers
            wtil.fill(0.0)
            util.fill(0.0)
            self.wtil = wtil
            self.util = util
        else:
            self.wtil = np.zeros((workspace_rows, self.num_rhs), dtype=weights.dtype)
            self.util = np.zeros((workspace_rows, self.num_rhs), dtype=weights.dtype)
        self.leaves = weights[leaf_perm] if leaf_perm is not None else None
        self.sums = None


# ---------------------------------------------------------------------------
# the plan segment: gather → batched GEMM → write / scatter-add
# ---------------------------------------------------------------------------

def _blocks(buffer: np.ndarray, block: int) -> np.ndarray:
    """``buffer`` viewed as ``(rows / block, block, r)``."""
    return buffer.reshape(buffer.shape[0] // block, block, buffer.shape[1])


def gather_gemm_scatter(ctx: PlanContext, operand: np.ndarray, src: tuple, dst: tuple) -> None:
    """One batched GEMM of Algorithm 2.7 on the buffers of ``ctx``.

    ``operand`` is a ``(g, a, b)`` stack; ``src`` and ``dst`` are
    ``(buffer, block, index)`` accesses.  The gather takes ``index`` (a
    ``(g, …)`` table of blocks) from the named buffer viewed as blocks and
    reshapes it to ``(g, b, r)``; the ``(g, a, r)`` products are then
    scatter-added at the destination index, or — for a ``slice`` index,
    N2S's contiguous block of fresh workspace rows — written there.
    """
    num_rhs = ctx.num_rhs
    name, block, index = src
    gathered = _blocks(getattr(ctx, name), block)[index]
    res = np.matmul(operand, gathered.reshape(operand.shape[0], operand.shape[2], num_rhs))
    name, block, index = dst
    target = _blocks(getattr(ctx, name), block)
    if isinstance(index, slice):
        target[index] = res.reshape(res.shape[0] * res.shape[1] // block, block, num_rhs)
        return
    target[index] += res.reshape(index.shape + (block, num_rhs))


class PlanSegment:
    """One batched-GEMM unit of work: ``dst ⟵ operand @ src`` for a batch.

    ``operand`` is the packed ``(g, a, b)`` stack of coefficients (N2S:
    ``P``; S2N: ``Pᵀ``), of concatenated far block-rows (S2S), or the near
    cache's row slab of ``g`` leaf block-rows, used in place (L2L);
    ``src`` / ``dst`` are the ``(buffer, block, index)`` accesses of
    :func:`gather_gemm_scatter`.  ``run`` takes the per-matvec context.
    Build-time concatenation keeps every segment's scatter targets
    disjoint.
    """

    __slots__ = ("kind", "level", "operand", "src", "dst", "flops_per_rhs")

    def __init__(self, kind: str, level: int, operand: np.ndarray, src: tuple, dst: tuple) -> None:
        self.kind = kind
        self.level = level
        self.operand = operand
        self.src = src
        self.dst = dst
        self.flops_per_rhs = 2.0 * operand.size

    @property
    def batch(self) -> int:
        return self.operand.shape[0]

    def tables(self) -> tuple:
        """The segment's index tables (what :meth:`StreamingPlan.index_bytes` counts)."""
        return (self.src[2], self.dst[2])

    def run(self, ctx: PlanContext) -> None:
        gather_gemm_scatter(ctx, self.operand, self.src, self.dst)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlanSegment({self.kind}, level={self.level}, batch={self.batch})"


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------

def _active_nodes(tree) -> np.ndarray:
    """Nodes participating in the up/down passes.

    A node's ``w̃`` / ``ũ`` matters only if the node or one of its ancestors
    appears in a Far interaction (as source or target); everything else is
    dead weight a per-node traversal computes anyway.
    """
    active = np.zeros(len(tree.nodes), dtype=bool)
    for node in tree.nodes:
        if node.far:
            active[node.node_id] = True
            active[node.far] = True
    # propagate down: a child inherits activity from its parent
    for node in tree.nodes:  # breadth-first order: parents precede children
        if node.parent is not None and active[node.parent.node_id]:
            active[node.node_id] = True
    return active


#: Valid values of ``GOFMMConfig.plan_rank_bucketing``.
BUCKETING_MODES: tuple[str, ...] = ("none", "pow2", "max")


def pad_ranks(ranks: np.ndarray, mode: str = "pow2") -> np.ndarray:
    """Padded ranks for a group of nodes; zeros (inactive nodes) stay zero.

    ``"none"`` returns the ranks unchanged, ``"pow2"`` rounds each rank up
    to the next power of two, and ``"max"`` pads every nonzero rank to the
    group maximum (per level, when called with one level's ranks).
    """
    ranks = np.asarray(ranks, dtype=np.intp)
    if mode not in BUCKETING_MODES:
        raise CompressionError(
            f"rank bucketing mode must be one of {BUCKETING_MODES}, got {mode!r}"
        )
    if mode == "none" or ranks.size == 0:
        return ranks.copy()
    out = np.zeros_like(ranks)
    nonzero = ranks > 0
    if mode == "max":
        out[nonzero] = int(ranks.max())
        return out
    bits = np.frompyfunc(lambda r: 1 << (int(r) - 1).bit_length(), 1, 1)
    out[nonzero] = bits(ranks[nonzero]).astype(np.intp)
    return out


def _padded_rank_table(tree, levels, active: np.ndarray, mode: str) -> np.ndarray:
    """Workspace rank of every node: the skeleton rank, bucketed when non-uniform.

    Adaptive-rank trees scatter ranks across many close values, fragmenting
    the shape groups below into tiny batches.  Padding each active rank up
    to a bucket (``"pow2"``: next power of two; ``"max"``: the per-level
    maximum) collapses the groups back into a few large GEMMs; every padded
    workspace row / coefficient row / block row is zero, so the evaluation
    is unchanged up to floating-point summation order.  Trees whose active
    ranks are already uniform are never padded.
    """
    true_rank = np.asarray([node.skeleton_rank for node in tree.nodes], dtype=np.intp)
    prank = true_rank.copy()
    active_mask = active & (true_rank > 0)
    if mode == "none" or np.unique(true_rank[active_mask]).size <= 1:
        return prank
    if mode == "max":
        for level_nodes in levels:
            ids = [n.node_id for n in level_nodes if active_mask[n.node_id]]
            if ids:
                prank[ids] = pad_ranks(true_rank[ids], "max")
    else:
        prank[active_mask] = pad_ranks(true_rank[active_mask], mode)
    return prank


def pads_ranks(tree, mode: str) -> bool:
    """Whether bucketing ``mode`` pads any workspace rank of ``tree``.

    When it pads none, the padded plan is the exact one, so the two plans
    can be one object.
    """
    true_rank = np.asarray([node.skeleton_rank for node in tree.nodes], dtype=np.intp)
    prank = _padded_rank_table(tree, tree.levels(), _active_nodes(tree), mode)
    return not np.array_equal(prank, true_rank)


def _padded_children_width(node, skel_offset: np.ndarray, prank: np.ndarray) -> int:
    """Padded column count of a node's coefficient matrix ``P_{α̃[l̃r̃]}``."""
    return int(
        sum(
            prank[child.node_id]
            for child in node.children()
            if child.skeleton_rank > 0 and skel_offset[child.node_id] >= 0
        )
    )


def _group_key(node, skel_offset: np.ndarray, prank: np.ndarray) -> tuple[int, int]:
    """Shape-group key of a node's (padded) coefficient matrix.

    Shared between the N2S and S2N grouping loops so both passes bucket
    nodes by exactly the same rule.
    """
    if node.is_leaf:
        return (int(prank[node.node_id]), node.size)
    return (int(prank[node.node_id]), _padded_children_width(node, skel_offset, prank))


def _padded_coeffs(node, skel_offset: np.ndarray, prank: np.ndarray) -> np.ndarray:
    """Node coefficients zero-padded to the bucketed workspace layout.

    Rows grow from the true rank to the padded rank; for internal nodes
    the columns of each child's slice move to that child's padded offset.
    """
    s = node.skeleton_rank
    big_s = int(prank[node.node_id])
    coeffs = np.asarray(node.coeffs)
    if node.is_leaf:
        if big_s == s:
            return coeffs
        out = np.zeros((big_s, coeffs.shape[1]), dtype=coeffs.dtype)
        out[:s] = coeffs
        return out
    kpad = _padded_children_width(node, skel_offset, prank)
    if big_s == s and kpad == coeffs.shape[1]:
        return coeffs
    out = np.zeros((big_s, kpad), dtype=coeffs.dtype)
    col = 0
    src = 0
    for child in node.children():
        if child.skeleton_rank > 0 and skel_offset[child.node_id] >= 0:
            out[:s, col : col + child.skeleton_rank] = coeffs[:, src : src + child.skeleton_rank]
            col += int(prank[child.node_id])
            src += child.skeleton_rank
    return out


def _children_rows(node, skel_offset: np.ndarray, prank: np.ndarray) -> np.ndarray:
    """Workspace rows of a node's children ``[w̃_l; w̃_r]`` (padded), in stacking order."""
    rows = []
    for child in node.children():
        if child.skeleton_rank > 0 and skel_offset[child.node_id] >= 0:
            start = skel_offset[child.node_id]
            rows.append(np.arange(start, start + prank[child.node_id]))
    if not rows:
        return np.empty(0, dtype=np.intp)
    return np.concatenate(rows)


def _children_table(nodes, k: int, skel_offset: np.ndarray, prank: np.ndarray, family: str) -> np.ndarray:
    """``(g, k)`` workspace rows of each node's children, checked against the coefficient width."""
    table = np.empty((len(nodes), k), dtype=np.intp)
    for g, node in enumerate(nodes):
        rows = _children_rows(node, skel_offset, prank)
        if rows.size != k:
            raise EvaluationError(
                f"{family}({node.node_id}): coefficient width {k} does not match "
                f"children skeleton sizes {rows.size}"
            )
        table[g] = rows
    return table


def _own_rows(nodes, s: int, skel_offset: np.ndarray) -> np.ndarray:
    """``(g, s)`` workspace rows of each node's own ``w̃`` / ``ũ``."""
    return np.stack([np.arange(skel_offset[n.node_id], skel_offset[n.node_id] + s) for n in nodes])


def _workspace_access(buffer: str, rows: np.ndarray, uniform_rank: int) -> tuple:
    """Access to a ``(g, k)`` table of workspace rows.

    With a uniform rank every node owns one aligned ``uniform_rank``-row
    block of the workspace, so the table is listed as blocks; otherwise as
    rows.
    """
    if uniform_rank and rows.shape[1] % uniform_rank == 0:
        return (buffer, uniform_rank, rows[:, ::uniform_rank] // uniform_rank)
    return (buffer, 1, rows)


class PassLayout:
    """Chunk-agnostic packing machinery of the up/down passes.

    Everything the evaluation needs *besides* the interaction blocks: the
    workspace row layout (``skel_offset`` / ``workspace_rows``), the packed
    N2S / S2N level segments, and the uniformity metadata that picks the
    segments' block sizes.  :func:`repro.core.streaming.build_streaming_plan`
    combines a layout with the S2S / L2L work: cached work in place, the
    rest filled chunk by chunk.
    """

    __slots__ = (
        "n", "workspace_rows", "skel_offset", "prank", "n2s_levels", "s2n_levels",
        "leaf_perm", "uniform_leaf_size", "uniform_rank", "leaf_slot",
    )

    def __init__(self, **fields) -> None:
        for name in self.__slots__:
            setattr(self, name, fields[name])

    def new_context(self, weights: np.ndarray, buffers=None) -> PlanContext:
        """A per-matvec context laid out for this layout (``buffers``: a pooled workspace pair).

        Every evaluation starts here, so this is where weights that are not
        a real ``(n, r)`` array are rejected.
        """
        shape = np.shape(weights)
        if len(shape) != 2 or shape[0] != self.n:
            raise EvaluationError(f"weights must be an ({self.n}, r) array, got shape {shape}")
        if np.iscomplexobj(weights):
            raise EvaluationError(f"weights must be real, got dtype {np.asarray(weights).dtype}")
        return PlanContext(weights, self.workspace_rows, self.leaf_perm, buffers)

    def flops_per_rhs(self, s2s, l2l) -> Dict[str, float]:
        """Per-RHS flops of each family: this layout's passes plus the given S2S / L2L work."""
        return {
            "n2s": sum(s.flops_per_rhs for level in self.n2s_levels for s in level),
            "s2s": sum(s.flops_per_rhs for s in s2s),
            "s2n": sum(s.flops_per_rhs for level in self.s2n_levels for s in level),
            "l2l": sum(s.flops_per_rhs for s in l2l),
        }


def build_pass_layout(compressed, bucketing: str = "none") -> PassLayout:
    """Build the block-free :class:`PassLayout` of a compressed matrix.

    ``bucketing`` pads workspace ranks exactly like
    ``GOFMMConfig.plan_rank_bucketing``; ``"none"`` (exact packing) keeps
    the GEMM shapes — and therefore the results — identical to the
    per-node traversal of Algorithm 2.7.
    """
    tree = compressed.tree
    levels = tree.levels()
    active = _active_nodes(tree)
    prank = _padded_rank_table(tree, levels, active, bucketing)

    # Uniformity picks the block sizes: whole-leaf / whole-node gathers
    # instead of row-wise fancy indexing.  Ranks are the *padded* ranks —
    # bucketing can turn an adaptive-rank tree uniform.
    leaf_sizes = {leaf.size for leaf in tree.leaves}
    uniform_leaf_size = leaf_sizes.pop() if len(leaf_sizes) == 1 else 0
    active_ranks = {
        int(prank[node.node_id])
        for node in tree.nodes
        if active[node.node_id] and node.skeleton_rank > 0
    }
    uniform_rank = active_ranks.pop() if len(active_ranks) == 1 else 0
    leaf_slot = {leaf.node_id: i for i, leaf in enumerate(tree.leaves)}

    # ---- workspace offsets + upward (N2S) pass, bottom-up -----------------
    skel_offset = np.full(len(tree.nodes), -1, dtype=np.intp)
    offset = 0
    n2s_levels: List[List[PlanSegment]] = []
    for level in range(tree.depth, 0, -1):
        members = [n for n in levels[level] if active[n.node_id] and n.skeleton_rank > 0]
        groups: Dict[tuple[int, int], list] = {}
        for node in members:
            if node.coeffs is None:
                raise EvaluationError(
                    f"node {node.node_id} is active in the far field but has no coefficients"
                )
            if node.coeffs.shape[0] != node.skeleton_rank:
                raise EvaluationError(
                    f"node {node.node_id}: coefficient rows {node.coeffs.shape[0]} != "
                    f"skeleton rank {node.skeleton_rank}"
                )
            groups.setdefault(_group_key(node, skel_offset, prank), []).append(node)
        level_segments: List[PlanSegment] = []
        for (s, k), nodes in sorted(groups.items()):
            # the batch's nodes own consecutive workspace rows: one slice write
            dst = ("wtil", 1, slice(offset, offset + len(nodes) * s))
            for node in nodes:
                skel_offset[node.node_id] = offset
                offset += int(prank[node.node_id])
            coeffs = np.stack([_padded_coeffs(n, skel_offset, prank) for n in nodes])
            if not nodes[0].is_leaf:
                rows = _children_table(nodes, k, skel_offset, prank, "N2S")
                src = _workspace_access("wtil", rows, uniform_rank)
            elif uniform_leaf_size:
                slots = np.asarray([leaf_slot[n.node_id] for n in nodes], dtype=np.intp)
                src = ("leaves", uniform_leaf_size, slots)
            else:
                src = ("weights", 1, np.stack([n.indices for n in nodes]))
            level_segments.append(PlanSegment("N2S", level, coeffs, src, dst))
        n2s_levels.append(level_segments)
    workspace_rows = offset

    # ---- downward (S2N) pass, top-down ------------------------------------
    # A node needs S2N only if its ũ can be nonzero: it has far interactions
    # itself or an ancestor pushes potentials into it.
    needs_s2n = np.zeros(len(tree.nodes), dtype=bool)
    for node in tree.nodes:
        has_far = bool(node.far) and node.skeleton_rank > 0
        from_parent = node.parent is not None and needs_s2n[node.parent.node_id]
        needs_s2n[node.node_id] = (has_far or from_parent) and node.skeleton_rank > 0
    s2n_levels: List[List[PlanSegment]] = []
    for level in range(1, tree.depth + 1):
        members = [n for n in levels[level] if needs_s2n[n.node_id] and n.coeffs is not None]
        groups = {}
        for node in members:
            groups.setdefault(_group_key(node, skel_offset, prank), []).append(node)
        level_segments = []
        for (s, k), nodes in sorted(groups.items()):
            coeffs_t = np.stack([_padded_coeffs(n, skel_offset, prank).T for n in nodes])
            src = _workspace_access("util", _own_rows(nodes, s, skel_offset), uniform_rank)
            if nodes[0].is_leaf:
                dst = ("output", 1, np.stack([n.indices for n in nodes]))
            else:
                rows = _children_table(nodes, k, skel_offset, prank, "S2N")
                dst = _workspace_access("util", rows, uniform_rank)
            level_segments.append(PlanSegment("S2N", level, coeffs_t, src, dst))
        s2n_levels.append(level_segments)

    return PassLayout(
        n=tree.n,
        workspace_rows=workspace_rows,
        skel_offset=skel_offset,
        prank=prank,
        n2s_levels=n2s_levels,
        s2n_levels=s2n_levels,
        leaf_perm=tree.permutation if uniform_leaf_size else None,
        uniform_leaf_size=uniform_leaf_size,
        uniform_rank=uniform_rank,
        leaf_slot=leaf_slot,
    )


def _pack_s2s_segments(compressed, layout: PassLayout, targets) -> List[PlanSegment]:
    """Pack the far field of ``targets`` (``(node, far partners)`` pairs): each
    target's cached far blocks concatenated into one wide (rank-padded)
    block-row, the block-rows batched by shape.  Each block is copied once,
    straight into its batch.
    """
    skel_offset, prank = layout.skel_offset, layout.prank
    s2s_groups: Dict[tuple[int, int], list] = {}
    for node, alphas in targets:
        shape = (int(prank[node.node_id]), int(sum(prank[a.node_id] for a in alphas)))
        s2s_groups.setdefault(shape, []).append((node, alphas))
    s2s_segments: List[PlanSegment] = []
    for (s, k), entries in sorted(s2s_groups.items()):
        blocks = None
        cols = np.empty((len(entries), k), dtype=np.intp)
        for g, (node, alphas) in enumerate(entries):
            offset = 0
            for alpha in alphas:
                key = (node.node_id, alpha.node_id)
                block = compressed.far_blocks.get(key)
                if block.shape != (node.skeleton_rank, alpha.skeleton_rank):
                    raise EvaluationError(
                        f"far block {key} has shape {block.shape}, "
                        f"expected {(node.skeleton_rank, alpha.skeleton_rank)}"
                    )
                if blocks is None:
                    # Keep the compression's dtype: packing must not change
                    # precision or double the memory of a float32 representation.
                    blocks = np.zeros((len(entries), s, k), dtype=block.dtype)
                blocks[g, : block.shape[0], offset : offset + block.shape[1]] = block
                width, start = int(prank[alpha.node_id]), skel_offset[alpha.node_id]
                cols[g, offset : offset + width] = np.arange(start, start + width)
                offset += width
        src = _workspace_access("wtil", cols, layout.uniform_rank)
        dst_rows = _own_rows([node for node, _ in entries], s, skel_offset)
        dst = _workspace_access("util", dst_rows, layout.uniform_rank)
        s2s_segments.append(PlanSegment("S2S", 0, blocks, src, dst))
    return s2s_segments


def _copy_blocks(provider, keys: list[tuple[int, int]], views: list[np.ndarray]) -> None:
    """Fill row-slab ``views`` with the provider's cached blocks ``keys``."""
    for key, view in zip(keys, views):
        block = provider.get(key)
        if block.shape != view.shape:
            raise EvaluationError(
                f"near block {key} has shape {block.shape}, expected {view.shape}"
            )
        np.copyto(view, block)


def intact_row_slabs(compressed) -> tuple[list, set]:
    """The near cache's row slabs that apply listed pairs only, none twice,
    and the ordered pairs they apply.

    A slab applies ``(β, α)`` for every column and ``(α, β)`` for every
    mirrored one (:meth:`~repro.core.hmatrix.RowSlab.directions`).  A slab
    is intact when each of those is in the leaves' current Near lists and
    no earlier intact slab applies it.  Every plan runs its L2L segments on
    these slabs in place; the listed pairs they leave out fill.
    """
    listed = {(leaf.node_id, alpha) for leaf in compressed.tree.leaves for alpha in leaf.near}
    cached = getattr(compressed.near_blocks, "row_slabs", None)
    covered: set = set()
    slabs = []
    for slab in cached() if cached is not None else []:
        directions = slab.directions()
        unique = set(directions)
        if len(unique) == len(directions) and unique <= listed and covered.isdisjoint(unique):
            covered |= unique
            slabs.append(slab)
    return slabs, covered


def _mirrors(provider, beta: int, alpha: int) -> bool:
    """Whether the provider's ``(α, β)`` block is exactly its ``(β, α)`` block transposed."""
    return np.array_equal(provider.get((alpha, beta)), provider.get((beta, alpha)).T)


def near_row_slabs(compressed) -> list:
    """Every cached near block in row slabs, each symmetric pair once (what a store saves).

    The near cache's intact slabs (:func:`intact_row_slabs`) come first.
    The listed pairs they leave out that the provider caches go into fresh
    rows of the leaves without an intact row, filled by the near-blocks
    stage's own routine: a pair cached both ways as exact transposes folds
    into the row of its smaller free leaf, any other into its target's
    row.  A pair left out whose target already has an intact row is not
    stored (an opened store evaluates it from its matrix).
    """
    from .compress import fill_row_slabs  # compress → hmatrix → plan: import at use

    tree, provider = compressed.tree, compressed.near_blocks
    slabs, covered = intact_row_slabs(compressed)
    taken = {beta_id for slab in slabs for beta_id, _ in slab.rows}
    rest = {
        (leaf.node_id, alpha) for leaf in tree.leaves for alpha in leaf.near
        if (leaf.node_id, alpha) not in covered and (leaf.node_id, alpha) in provider
    }
    rows = []
    for leaf in tree.leaves:
        beta = leaf.node_id
        if beta in taken:
            continue
        cols, mirror = [], []
        for alpha in leaf.near:
            if (beta, alpha) not in rest:
                continue
            folds = alpha != beta and (alpha, beta) in rest and _mirrors(provider, beta, alpha)
            if folds and alpha < beta and alpha not in taken:
                continue                      # alpha's row holds the pair
            cols.append(alpha)
            mirror.append(folds)
        if cols:
            rows.append((beta, tuple(cols), tuple(mirror)))
    if rows:
        index_sets = [node.indices for node in tree.nodes]
        fresh, _ = fill_row_slabs(
            rows, index_sets, lambda keys, views: _copy_blocks(provider, keys, views)
        )
        slabs += fresh
    return slabs


class SlabSegment(PlanSegment):
    """An L2L segment on a row slab that also applies its mirrored columns transposed.

    After the forward ``y[β] += row @ w[cols]`` of every row, one batched
    GEMM on the slab's transposed view gives ``z = rowᵀ @ w[β]`` for each
    row, and ``sums[targets] += reduce @ z``: ``reduce`` is a fixed CSR map
    of ones that sums, for each mirrored leaf α, its parts of ``z`` in
    slab-row order — a slab may hold several rows mirroring one leaf, whose
    contributions a fancy-index add would drop.  ``sums`` (on the context)
    collects every slab's transposed sums per leaf, in ``block``-row parts
    (a whole leaf in leaf order when leaves are uniform, so each part moves
    as one block; else one row in row order); the last slab segment adds it
    to the output, ``y[flush] += sums``.  ``back`` gathers each row's ``w[β]``.
    """

    __slots__ = ("back", "reduce", "targets", "block", "flush")

    def __init__(self, operand, src, dst, back, reduce, targets, block, flush=None) -> None:
        super().__init__("L2L", 0, operand, src, dst)
        self.back = back
        self.reduce = reduce
        self.targets = targets
        self.block = block
        self.flush = flush
        self.flops_per_rhs = 4.0 * operand.size

    def tables(self) -> tuple:
        return super().tables() + (
            self.back[2], self.targets, self.reduce.data, self.reduce.indices, self.reduce.indptr,
        )

    def run(self, ctx: PlanContext) -> None:
        gather_gemm_scatter(ctx, self.operand, self.src, self.dst)
        g, m, width = self.operand.shape
        r = ctx.num_rhs
        name, block, index = self.back
        weights = _blocks(getattr(ctx, name), block)[index].reshape(g, m, r)
        z = np.matmul(self.operand.transpose(0, 2, 1), weights)
        summed = self.reduce @ z.reshape(g * width // self.block, self.block * r)
        if ctx.sums is None:
            ctx.sums = np.zeros(ctx.output.shape)
        _blocks(ctx.sums, self.block)[self.targets] += summed.reshape(-1, self.block, r)
        if self.flush is not None:
            ctx.output[self.flush] += ctx.sums


def _mirror_reduction(sizes: list, slab, block: int, parts_of):
    """``(targets, reduce)`` of :class:`SlabSegment`: the ``block``-row parts
    of ``sums`` the slab's mirrored leaves own (``parts_of(α)``; ``sizes[α]``:
    α's size), by node id, and the CSR map from the parts of ``z`` onto
    them."""
    from scipy.sparse import csr_matrix

    width = slab.array.shape[2]
    starts: Dict[int, list] = {}                  # α → first part of each of its columns
    for i, ((_, cols), flags) in enumerate(zip(slab.rows, slab.mirror)):
        offset = i * width
        for alpha, flag in zip(cols, flags):
            if flag:
                starts.setdefault(alpha, []).append(offset // block)
            offset += sizes[alpha]
    # Part j of leaf α sums z's part start + j over α's columns, in slab-row order.
    targets, columns, indptr = [], [], [0]
    for alpha in sorted(starts):
        for part, target in enumerate(parts_of(alpha)):
            targets.append(target)
            columns += [start + part for start in starts[alpha]]
            indptr.append(len(columns))
    shape = (len(targets), slab.array.shape[0] * width // block)
    reduce = csr_matrix((np.ones(len(columns)), columns, indptr), shape=shape)
    return np.asarray(targets, dtype=np.intp), reduce


def slab_segments(compressed, layout: PassLayout, slabs) -> List[PlanSegment]:
    """The direct part on row slabs: one L2L segment per slab, the slab itself as
    operand.  Slabs with mirrored columns (:class:`SlabSegment`) come last, in
    order: the last adds every slab's transposed sums to the output."""
    tree = compressed.tree
    sizes = [node.size for node in tree.nodes]
    if layout.uniform_leaf_size:     # sums in leaf order: a leaf is one part
        parts_of = lambda alpha: [layout.leaf_slot[alpha]]
    else:                            # sums in row order: a row is one part
        parts_of = lambda alpha: tree.node(alpha).indices.tolist()
    l2l_segments: List[PlanSegment] = []
    mirrored: List[SlabSegment] = []
    for slab in slabs:
        leaves = [tree.node(beta_id) for beta_id, _ in slab.rows]
        dst = ("output", 1, np.stack([leaf.indices for leaf in leaves]))
        if layout.uniform_leaf_size:
            slots = [[layout.leaf_slot[a] for a in cols] for _, cols in slab.rows]
            src = ("leaves", layout.uniform_leaf_size, np.asarray(slots, dtype=np.intp))
        else:
            cols = [np.concatenate([tree.node(a).indices for a in row]) for _, row in slab.rows]
            src = ("weights", 1, np.stack(cols))
        if not any(any(flags) for flags in slab.mirror):
            l2l_segments.append(PlanSegment("L2L", 0, slab.array, src, dst))
            continue
        block = layout.uniform_leaf_size or 1
        if layout.uniform_leaf_size:
            own = np.asarray([[layout.leaf_slot[leaf.node_id]] for leaf in leaves], dtype=np.intp)
            back = ("leaves", block, own)
        else:
            back = ("weights", 1, dst[2])
        targets, reduce = _mirror_reduction(sizes, slab, block, parts_of)
        mirrored.append(SlabSegment(slab.array, src, dst, back, reduce, targets, block))
    if mirrored:
        mirrored[-1].flush = layout.leaf_perm if layout.uniform_leaf_size else slice(None)
    return l2l_segments + mirrored

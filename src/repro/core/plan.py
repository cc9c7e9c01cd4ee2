"""Packed evaluation plan: Algorithm 2.7 as level-batched GEMMs.

The reference engine in :mod:`repro.core.evaluate` executes the four task
families (N2S / S2S / S2N / L2L) one tree node at a time, storing every
intermediate ``w̃`` / ``ũ`` in a dict keyed by node id.  That is faithful to
the paper's task formulation and is kept as the correctness oracle, but the
hot path is dominated by interpreter and allocation overhead rather than
BLAS.

This module flattens the tree, once per compression, into an
:class:`EvaluationPlan`:

* **one workspace** — every active node's skeleton weights ``w̃`` and
  potentials ``ũ`` live at a precomputed row offset of two ``(R, r)``
  arrays (``R`` = total active skeleton rank), replacing the per-node
  dicts,
* **packed coefficients** — nodes of each level are grouped by coefficient
  shape and their ``P`` matrices stacked into one contiguous ``(g, s, k)``
  array, so each level of the upward (N2S) and downward (S2N) passes is a
  handful of batched GEMMs instead of thousands of tiny ones,
* **packed interaction blocks** — near and far blocks are grouped by shape
  the same way; the lists themselves are stored as CSR-style index arrays
  (``near_indptr`` / ``near_cols`` over leaves, ``far_indptr`` /
  ``far_cols`` over nodes),
* **dead-branch pruning** — a node participates in the up/down passes only
  if it (or an ancestor) appears in some Far list; with ``budget`` large
  enough that everything is handled directly, the passes vanish entirely,
* **rank bucketing** — when the tree's active skeleton ranks are
  non-uniform (adaptive rank), ``config.plan_rank_bucketing`` pads each
  rank up to a bucket (next power of two, or the per-level maximum) before
  grouping, so adaptive-rank trees batch into a few large GEMM groups
  instead of fragmenting into one group per distinct rank; all padding is
  zeros, leaving the product unchanged up to floating-point order.

The plan is built lazily by :meth:`repro.core.hmatrix.CompressedMatrix.plan`
and cached there, so repeated matvecs (e.g. inside CG) reuse it.  For the
S2S and L2L families, each target's interaction blocks are concatenated
into one wide block-row at build time — the whole Far (resp. Near) list of
a node becomes a single GEMM with a large inner dimension, and every
scatter target appears exactly once per stage, keeping every scatter a
plain vectorized fancy-index add — no ``np.add.at`` in the hot loop.

:func:`evaluate_planned` is numerically equivalent to
:func:`repro.core.evaluate.evaluate` up to floating-point summation order
(the equivalence tests assert agreement to 1e-10).

**Thread safety / reentrancy.**  The plan itself (packed coefficients,
blocks, index tables) is immutable after :func:`build_plan`; all mutable
per-matvec state lives in a :class:`PlanContext`.  Contexts are created per
call — never shared — so any number of threads may evaluate the same plan
concurrently (the serving runtime relies on this).  To avoid paying two
workspace allocations per request under load, the plan keeps a small
thread-safe pool of workspace buffers: :meth:`EvaluationPlan.new_context`
reuses a (zeroed) buffer pair when one of matching width is available and
:meth:`EvaluationPlan.release_context` returns it.  The output array is
always freshly allocated — it is handed to the caller.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import CompressionError, EvaluationError
from ..obs import counters as _obs_counters
from ..obs.trace import get_tracer
from .evaluate import EvaluationCounters, _as_matrix

__all__ = [
    "BUCKETING_MODES",
    "EvaluationPlan",
    "PassLayout",
    "PlanContext",
    "build_pass_layout",
    "build_plan",
    "evaluate_planned",
    "pad_ranks",
]


# ---------------------------------------------------------------------------
# per-matvec state
# ---------------------------------------------------------------------------

class PlanContext:
    """Mutable per-matvec state: the input/output and the packed workspace.

    ``wtil`` stacks the skeleton weights of every active node (node ``α``
    owns rows ``offset[α] : offset[α] + rank[α]``); ``util`` stacks the
    skeleton potentials with the same layout.

    When the structure is uniform the context also exposes blocked 3-D
    views used by the slot-gather fast paths: ``leaf_view[i]`` is the
    weight block of the ``i``-th leaf (in left-to-right leaf order) and
    ``wtil3[j]`` / ``util3[j]`` the workspace block of the ``j``-th active
    node.  Gathering whole blocks through these views moves kilobytes per
    index instead of one row, which is what makes the packed engine
    memory-efficient rather than just batched.
    """

    __slots__ = ("weights", "output", "wtil", "util", "num_rhs", "leaf_view", "wtil3", "util3")

    def __init__(
        self,
        weights: np.ndarray,
        workspace_rows: int,
        leaf_perm: Optional[np.ndarray] = None,
        leaf_size: int = 0,
        rank: int = 0,
        buffers: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        self.weights = weights
        self.num_rhs = weights.shape[1]
        self.output = np.zeros_like(weights)
        if buffers is not None:
            # Pooled workspaces (EvaluationPlan.new_context): zeroed here so a
            # reused buffer is indistinguishable from a fresh allocation.
            wtil, util = buffers
            wtil.fill(0.0)
            util.fill(0.0)
            self.wtil = wtil
            self.util = util
        else:
            self.wtil = np.zeros((workspace_rows, self.num_rhs), dtype=weights.dtype)
            self.util = np.zeros((workspace_rows, self.num_rhs), dtype=weights.dtype)
        if leaf_perm is not None and leaf_size > 0:
            self.leaf_view = weights[leaf_perm].reshape(-1, leaf_size, self.num_rhs)
        else:
            self.leaf_view = None
        if rank > 0 and workspace_rows % rank == 0:
            self.wtil3 = self.wtil.reshape(-1, rank, self.num_rhs)
            self.util3 = self.util.reshape(-1, rank, self.num_rhs)
        else:
            self.wtil3 = None
            self.util3 = None


# ---------------------------------------------------------------------------
# plan segments (one batched GEMM each)
# ---------------------------------------------------------------------------

class PlanSegment:
    """One batched-GEMM unit of work; subclasses implement :meth:`run`.

    ``run`` takes the per-matvec context plus one optional lock used only
    by the threaded executor: ``out_lock`` serializes adds into the output
    (S2N-at-leaves and L2L overlap there).  Workspace scatters need no
    lock — build-time concatenation keeps every stage's scatter targets
    disjoint.
    """

    __slots__ = ("level", "flops_per_rhs")
    kind = "?"

    def __init__(self, level: int, flops_per_rhs: float) -> None:
        self.level = level
        self.flops_per_rhs = flops_per_rhs

    @property
    def batch(self) -> int:
        raise NotImplementedError

    def run(self, ctx: PlanContext, out_lock=None) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(level={self.level}, batch={self.batch})"


class N2SLeafSegment(PlanSegment):
    """``w̃ = P_{β̃β} w_β`` for a batch of same-shape leaves (upward pass, bottom)."""

    __slots__ = ("coeffs", "src", "dst_start", "dst_stop")
    kind = "N2S"

    def __init__(self, level: int, coeffs: np.ndarray, src: np.ndarray, dst_start: int) -> None:
        super().__init__(level, 2.0 * coeffs.shape[0] * coeffs.shape[1] * coeffs.shape[2])
        self.coeffs = coeffs              # (g, s, m)
        self.src = src                    # (g, m) global weight rows
        self.dst_start = dst_start        # nodes packed contiguously: one slice assign
        self.dst_stop = dst_start + coeffs.shape[0] * coeffs.shape[1]

    @property
    def batch(self) -> int:
        return self.coeffs.shape[0]

    def run(self, ctx: PlanContext, out_lock=None) -> None:
        res = np.matmul(self.coeffs, ctx.weights[self.src])
        ctx.wtil[self.dst_start : self.dst_stop] = res.reshape(-1, ctx.num_rhs)


class N2SLeafSlotSegment(PlanSegment):
    """N2S leaf fast path for uniform leaf size: sources are whole leaf blocks."""

    __slots__ = ("coeffs", "src_slots", "dst_start", "dst_stop")
    kind = "N2S"

    def __init__(self, level: int, coeffs: np.ndarray, src_slots: np.ndarray, dst_start: int) -> None:
        super().__init__(level, 2.0 * coeffs.shape[0] * coeffs.shape[1] * coeffs.shape[2])
        self.coeffs = coeffs              # (g, s, m)
        self.src_slots = src_slots        # (g,) leaf slots into leaf_view
        self.dst_start = dst_start
        self.dst_stop = dst_start + coeffs.shape[0] * coeffs.shape[1]

    @property
    def batch(self) -> int:
        return self.coeffs.shape[0]

    def run(self, ctx: PlanContext, out_lock=None) -> None:
        res = np.matmul(self.coeffs, ctx.leaf_view[self.src_slots])
        ctx.wtil[self.dst_start : self.dst_stop] = res.reshape(-1, ctx.num_rhs)


class N2SInternalSegment(PlanSegment):
    """``w̃_α = P_{α̃[l̃r̃]} [w̃_l; w̃_r]`` for a batch of same-shape internal nodes."""

    __slots__ = ("coeffs", "src_rows", "dst_start", "dst_stop")
    kind = "N2S"

    def __init__(self, level: int, coeffs: np.ndarray, src_rows: np.ndarray, dst_start: int) -> None:
        super().__init__(level, 2.0 * coeffs.shape[0] * coeffs.shape[1] * coeffs.shape[2])
        self.coeffs = coeffs              # (g, s, k)
        self.src_rows = src_rows          # (g, k) rows into wtil (children slices)
        self.dst_start = dst_start
        self.dst_stop = dst_start + coeffs.shape[0] * coeffs.shape[1]

    @property
    def batch(self) -> int:
        return self.coeffs.shape[0]

    def run(self, ctx: PlanContext, out_lock=None) -> None:
        res = np.matmul(self.coeffs, ctx.wtil[self.src_rows])
        ctx.wtil[self.dst_start : self.dst_stop] = res.reshape(-1, ctx.num_rhs)


class N2SInternalSlotSegment(PlanSegment):
    """N2S internal fast path for uniform rank: children gathered as rank blocks."""

    __slots__ = ("coeffs", "src_slots", "dst_start", "dst_stop")
    kind = "N2S"

    def __init__(self, level: int, coeffs: np.ndarray, src_slots: np.ndarray, dst_start: int) -> None:
        super().__init__(level, 2.0 * coeffs.shape[0] * coeffs.shape[1] * coeffs.shape[2])
        self.coeffs = coeffs              # (g, s, k)
        self.src_slots = src_slots        # (g, k/s) node slots into wtil3
        self.dst_start = dst_start
        self.dst_stop = dst_start + coeffs.shape[0] * coeffs.shape[1]

    @property
    def batch(self) -> int:
        return self.coeffs.shape[0]

    def run(self, ctx: PlanContext, out_lock=None) -> None:
        gathered = ctx.wtil3[self.src_slots].reshape(self.batch, -1, ctx.num_rhs)
        res = np.matmul(self.coeffs, gathered)
        ctx.wtil[self.dst_start : self.dst_stop] = res.reshape(-1, ctx.num_rhs)


class S2SSegment(PlanSegment):
    """``ũ_β = [K_{β̃α̃₁} | K_{β̃α̃₂} | …] [w̃_α₁; w̃_α₂; …]`` for a batch of targets.

    Each target node's far blocks are concatenated horizontally at build
    time, so the whole far field of a node is **one** GEMM with a large
    inner dimension, and every ``β`` appears exactly once across the entire
    S2S stage — scatter targets are disjoint and no lock is needed even
    under threaded execution.
    """

    __slots__ = ("blocks", "src_rows", "dst_rows")
    kind = "S2S"

    def __init__(self, blocks: np.ndarray, src_rows: np.ndarray, dst_rows: np.ndarray) -> None:
        super().__init__(0, 2.0 * blocks.shape[0] * blocks.shape[1] * blocks.shape[2])
        self.blocks = blocks              # (g, s, K) with K = Σ rank(α) over Far(β)
        self.src_rows = src_rows          # (g, K) rows of the stacked w̃_α
        self.dst_rows = dst_rows          # (g, s) rows of ũ_β, unique across the stage

    @property
    def batch(self) -> int:
        return self.blocks.shape[0]

    def run(self, ctx: PlanContext, out_lock=None) -> None:
        res = np.matmul(self.blocks, ctx.wtil[self.src_rows])
        ctx.util[self.dst_rows] += res


class S2SSlotSegment(PlanSegment):
    """S2S fast path for uniform skeleton rank: gather/scatter whole blocks.

    With every active node at rank ``s`` the workspace factors into an
    ``(active, s, r)`` tensor; sources are gathered and targets scattered
    as node-sized blocks through it, so the index arrays are per-node, not
    per-row.
    """

    __slots__ = ("blocks", "src_slots", "dst_slots")
    kind = "S2S"

    def __init__(self, blocks: np.ndarray, src_slots: np.ndarray, dst_slots: np.ndarray) -> None:
        super().__init__(0, 2.0 * blocks.shape[0] * blocks.shape[1] * blocks.shape[2])
        self.blocks = blocks              # (g, s, q·s)
        self.src_slots = src_slots        # (g, q) node slots into wtil3
        self.dst_slots = dst_slots        # (g,) node slot of each target, unique

    @property
    def batch(self) -> int:
        return self.blocks.shape[0]

    def run(self, ctx: PlanContext, out_lock=None) -> None:
        gathered = ctx.wtil3[self.src_slots].reshape(self.batch, -1, ctx.num_rhs)
        ctx.util3[self.dst_slots] += np.matmul(self.blocks, gathered)


class S2NInternalSegment(PlanSegment):
    """``[ũ_l; ũ_r] += Pᵀ ũ_α`` for a batch of internal nodes (downward pass).

    Every child has exactly one parent, so ``dst_rows`` is duplicate-free
    across the whole level — no lock needed.
    """

    __slots__ = ("coeffs_t", "src_rows", "dst_rows")
    kind = "S2N"

    def __init__(self, level: int, coeffs_t: np.ndarray, src_rows: np.ndarray, dst_rows: np.ndarray) -> None:
        super().__init__(level, 2.0 * coeffs_t.shape[0] * coeffs_t.shape[1] * coeffs_t.shape[2])
        self.coeffs_t = coeffs_t          # (g, k, s)
        self.src_rows = src_rows          # (g, s) rows of ũ_α
        self.dst_rows = dst_rows          # (g, k) rows of the children's ũ

    @property
    def batch(self) -> int:
        return self.coeffs_t.shape[0]

    def run(self, ctx: PlanContext, out_lock=None) -> None:
        res = np.matmul(self.coeffs_t, ctx.util[self.src_rows])
        ctx.util[self.dst_rows] += res


class S2NInternalSlotSegment(PlanSegment):
    """S2N internal fast path for uniform rank: potentials move as rank blocks."""

    __slots__ = ("coeffs_t", "src_slots", "dst_slots", "rank")
    kind = "S2N"

    def __init__(self, level: int, coeffs_t: np.ndarray, src_slots: np.ndarray, dst_slots: np.ndarray, rank: int) -> None:
        super().__init__(level, 2.0 * coeffs_t.shape[0] * coeffs_t.shape[1] * coeffs_t.shape[2])
        self.coeffs_t = coeffs_t          # (g, k, s)
        self.src_slots = src_slots        # (g,) slot of the node in util3
        self.dst_slots = dst_slots        # (g, k/s) slots of the children, unique per level
        self.rank = rank

    @property
    def batch(self) -> int:
        return self.coeffs_t.shape[0]

    def run(self, ctx: PlanContext, out_lock=None) -> None:
        res = np.matmul(self.coeffs_t, ctx.util3[self.src_slots])
        ctx.util3[self.dst_slots] += res.reshape(self.batch, -1, self.rank, ctx.num_rhs)


class S2NLeafSegment(PlanSegment):
    """``u_β += Pᵀ ũ_β`` at the leaves: potentials land in the output."""

    __slots__ = ("coeffs_t", "src_rows", "dst")
    kind = "S2N"

    def __init__(self, level: int, coeffs_t: np.ndarray, src_rows: np.ndarray, dst: np.ndarray) -> None:
        super().__init__(level, 2.0 * coeffs_t.shape[0] * coeffs_t.shape[1] * coeffs_t.shape[2])
        self.coeffs_t = coeffs_t          # (g, m, s)
        self.src_rows = src_rows          # (g, s)
        self.dst = dst                    # (g, m) global output rows (disjoint leaves)

    @property
    def batch(self) -> int:
        return self.coeffs_t.shape[0]

    def run(self, ctx: PlanContext, out_lock=None) -> None:
        res = np.matmul(self.coeffs_t, ctx.util[self.src_rows])
        if out_lock is not None:
            with out_lock:
                ctx.output[self.dst] += res
        else:
            ctx.output[self.dst] += res


class S2NLeafSlotSegment(PlanSegment):
    """S2N leaf fast path for uniform rank: the node's ũ is one rank block."""

    __slots__ = ("coeffs_t", "src_slots", "dst")
    kind = "S2N"

    def __init__(self, level: int, coeffs_t: np.ndarray, src_slots: np.ndarray, dst: np.ndarray) -> None:
        super().__init__(level, 2.0 * coeffs_t.shape[0] * coeffs_t.shape[1] * coeffs_t.shape[2])
        self.coeffs_t = coeffs_t          # (g, m, s)
        self.src_slots = src_slots        # (g,) slot of the leaf's ũ block
        self.dst = dst                    # (g, m) global output rows

    @property
    def batch(self) -> int:
        return self.coeffs_t.shape[0]

    def run(self, ctx: PlanContext, out_lock=None) -> None:
        res = np.matmul(self.coeffs_t, ctx.util3[self.src_slots])
        if out_lock is not None:
            with out_lock:
                ctx.output[self.dst] += res
        else:
            ctx.output[self.dst] += res


class L2LSegment(PlanSegment):
    """``u_β += [K_{βα₁} | K_{βα₂} | …] [w_α₁; w_α₂; …]`` for a batch of leaves.

    The direct part: each leaf's near blocks are concatenated horizontally,
    so the whole Near list of a leaf is one GEMM and each leaf's output rows
    appear exactly once across the L2L stage.  ``out_lock`` is still needed
    under threaded execution because S2N-at-leaves writes the same output.
    """

    __slots__ = ("blocks", "src", "dst")
    kind = "L2L"

    def __init__(self, blocks: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
        super().__init__(0, 2.0 * blocks.shape[0] * blocks.shape[1] * blocks.shape[2])
        self.blocks = blocks              # (g, mb, K) with K = Σ |α| over Near(β)
        self.src = src                    # (g, K) global weight rows
        self.dst = dst                    # (g, mb) global output rows, unique across the stage

    @property
    def batch(self) -> int:
        return self.blocks.shape[0]

    def run(self, ctx: PlanContext, out_lock=None) -> None:
        res = np.matmul(self.blocks, ctx.weights[self.src])
        if out_lock is not None:
            with out_lock:
                ctx.output[self.dst] += res
        else:
            ctx.output[self.dst] += res


class L2LSlotSegment(PlanSegment):
    """L2L fast path for uniform leaf size: gather sources as leaf blocks.

    Sources are whole leaves, gathered through the ``(leaves, m, r)`` view
    of the permuted weights; the scatter still uses global output rows
    (each leaf's rows appear once across the stage).
    """

    __slots__ = ("blocks", "src_slots", "dst")
    kind = "L2L"

    def __init__(self, blocks: np.ndarray, src_slots: np.ndarray, dst: np.ndarray) -> None:
        super().__init__(0, 2.0 * blocks.shape[0] * blocks.shape[1] * blocks.shape[2])
        self.blocks = blocks              # (g, m, p·m)
        self.src_slots = src_slots        # (g, p) leaf slots into leaf_view
        self.dst = dst                    # (g, m) global output rows, unique across the stage

    @property
    def batch(self) -> int:
        return self.blocks.shape[0]

    def run(self, ctx: PlanContext, out_lock=None) -> None:
        gathered = ctx.leaf_view[self.src_slots].reshape(self.batch, -1, ctx.num_rhs)
        res = np.matmul(self.blocks, gathered)
        if out_lock is not None:
            with out_lock:
                ctx.output[self.dst] += res
        else:
            ctx.output[self.dst] += res


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------

class EvaluationPlan:
    """Precomputed execution plan for the matvec of a compressed matrix.

    Built once by :func:`build_plan` (usually via
    ``CompressedMatrix.plan()``) and reused across matvecs; only the
    ``(R, r)`` workspace depends on the number of right-hand sides and is
    allocated per call.
    """

    def __init__(
        self,
        n: int,
        workspace_rows: int,
        skel_offset: np.ndarray,
        n2s_levels: List[List[PlanSegment]],
        s2s_segments: List[PlanSegment],
        s2n_levels: List[List[PlanSegment]],
        l2l_segments: List[PlanSegment],
        near_indptr: np.ndarray,
        near_cols: np.ndarray,
        far_indptr: np.ndarray,
        far_cols: np.ndarray,
        leaf_perm: Optional[np.ndarray] = None,
        uniform_leaf_size: int = 0,
        uniform_rank: int = 0,
    ) -> None:
        self.n = n
        self.workspace_rows = workspace_rows
        self.skel_offset = skel_offset
        self.leaf_perm = leaf_perm
        self.uniform_leaf_size = uniform_leaf_size
        self.uniform_rank = uniform_rank
        self.n2s_levels = n2s_levels          # bottom-up (leaf level first)
        self.s2s_segments = s2s_segments
        self.s2n_levels = s2n_levels          # top-down (level 1 first)
        self.l2l_segments = l2l_segments
        self.near_indptr = near_indptr
        self.near_cols = near_cols
        self.far_indptr = far_indptr
        self.far_cols = far_cols
        # Pooled per-call workspace buffers (see the module docstring): a
        # bounded LIFO of (wtil, util) pairs protected by a lock, so
        # concurrent callers are reentrant while repeated matvecs (CG,
        # serving) skip the two workspace allocations per call.
        self._pool_lock = threading.Lock()
        self._workspace_pool: List[tuple[np.ndarray, np.ndarray]] = []
        self.flops_per_rhs: Dict[str, float] = {
            "n2s": sum(s.flops_per_rhs for level in n2s_levels for s in level),
            "s2s": sum(s.flops_per_rhs for s in s2s_segments),
            "s2n": sum(s.flops_per_rhs for level in s2n_levels for s in level),
            "l2l": sum(s.flops_per_rhs for s in l2l_segments),
        }

    # -- inspection ---------------------------------------------------------
    def segments(self) -> Iterator[PlanSegment]:
        for level in self.n2s_levels:
            yield from level
        yield from self.s2s_segments
        for level in self.s2n_levels:
            yield from level
        yield from self.l2l_segments

    @property
    def num_segments(self) -> int:
        return sum(1 for _ in self.segments())

    def packed_entries(self) -> int:
        """Total float64 entries held in packed coefficient/block arrays."""
        total = 0
        for seg in self.segments():
            for name in ("coeffs", "coeffs_t", "blocks"):
                arr = getattr(seg, name, None)
                if arr is not None:
                    total += arr.size
        return total

    def stages(self) -> List[Tuple[str, List[PlanSegment]]]:
        """Barrier-separated stages, in a valid sequential order.

        Segments within one stage are mutually independent up to the locks
        described on :class:`PlanSegment`; the threaded executor builds its
        DAG from exactly this structure.
        """
        out: List[Tuple[str, List[PlanSegment]]] = []
        for i, level in enumerate(self.n2s_levels):
            if level:
                out.append((f"N2S@{level[0].level}", level))
        if self.s2s_segments:
            out.append(("S2S", self.s2s_segments))
        for level in self.s2n_levels:
            if level:
                out.append((f"S2N@{level[0].level}", level))
        if self.l2l_segments:
            out.append(("L2L", self.l2l_segments))
        return out

    def describe(self) -> str:
        fams = {"N2S": 0, "S2S": 0, "S2N": 0, "L2L": 0}
        for seg in self.segments():
            fams[seg.kind] += 1
        return (
            f"plan: {self.num_segments} segments "
            f"(N2S={fams['N2S']}, S2S={fams['S2S']}, S2N={fams['S2N']}, L2L={fams['L2L']}), "
            f"workspace {self.workspace_rows} rows, {self.packed_entries()} packed entries"
        )

    # -- execution ----------------------------------------------------------
    #: Maximum number of pooled workspace pairs kept per plan (≈ the number
    #: of concurrent evaluations worth caching for; beyond it, extra
    #: contexts simply allocate and are dropped on release).
    WORKSPACE_POOL_MAX = 8

    def new_context(self, weights: np.ndarray) -> PlanContext:
        """A fresh per-call context, reusing a pooled workspace when possible.

        Pair every ``new_context`` with a :meth:`release_context` (use
        ``try/finally`` as :meth:`execute` does) so the buffers return to
        the pool; forgetting to release is safe — it only costs the reuse.
        """
        buffers = None
        with self._pool_lock:
            for i, (wtil, _) in enumerate(self._workspace_pool):
                if wtil.shape[1] == weights.shape[1] and wtil.dtype == weights.dtype:
                    buffers = self._workspace_pool.pop(i)
                    break
        return PlanContext(
            weights,
            self.workspace_rows,
            leaf_perm=self.leaf_perm,
            leaf_size=self.uniform_leaf_size,
            rank=self.uniform_rank,
            buffers=buffers,
        )

    def release_context(self, ctx: PlanContext) -> None:
        """Return a context's workspace buffers to the pool (not the output)."""
        wtil, util = ctx.wtil, ctx.util
        # Defensive: a released context must never be run again.
        ctx.wtil = ctx.util = ctx.wtil3 = ctx.util3 = None
        if wtil is None:
            return
        with self._pool_lock:
            if len(self._workspace_pool) < self.WORKSPACE_POOL_MAX:
                self._workspace_pool.append((wtil, util))

    def workspace_pool_size(self) -> int:
        with self._pool_lock:
            return len(self._workspace_pool)

    def execute(self, weights: np.ndarray, counters: Optional[EvaluationCounters] = None) -> np.ndarray:
        """Sequential execution of the plan on an ``(N, r)`` weight matrix.

        Reentrant: all mutable state lives in the per-call context, so
        concurrent ``execute`` calls on one plan are safe and each is
        bit-identical to running alone.  With tracing enabled
        (:mod:`repro.obs`), each pass stage gets a span and its byte
        traffic is added to the ``gemm_bytes_*`` counters; the disabled
        cost is one attribute check per matvec.
        """
        ctx = self.new_context(weights)
        try:
            tracer = get_tracer()
            if tracer.enabled:
                self._execute_traced(ctx, tracer)
            else:
                for _, stage in self.stages():
                    for segment in stage:
                        segment.run(ctx)
            output = ctx.output
        finally:
            self.release_context(ctx)
        if counters is not None:
            self.add_flops(counters, weights.shape[1])
        return output

    def _execute_traced(self, ctx: PlanContext, tracer) -> None:
        """Traced sequential execution: identical work, one span per stage."""
        for _, stage in self.stages():
            kind = stage[0].kind.lower()
            with tracer.span(f"eval.{kind}", level=stage[0].level, segments=len(stage)):
                for segment in stage:
                    segment.run(ctx)
            _obs_counters.add(f"gemm_bytes_{kind}", _stage_bytes(stage, ctx.num_rhs))

    def add_flops(self, counters: EvaluationCounters, num_rhs: int) -> None:
        counters.n2s += self.flops_per_rhs["n2s"] * num_rhs
        counters.s2s += self.flops_per_rhs["s2s"] * num_rhs
        counters.s2n += self.flops_per_rhs["s2n"] * num_rhs
        counters.l2l += self.flops_per_rhs["l2l"] * num_rhs


def _stage_bytes(stage: List[PlanSegment], num_rhs: int) -> int:
    """Approximate bytes one stage moves: packed operands + workspace rows.

    For a packed ``(g, a, b)`` operand the GEMM reads ``g·b`` workspace
    rows and writes ``g·a``, each ``num_rhs`` floats wide.  Recorded only
    on the traced path, so the disabled matvec never computes this.
    """
    total = 0
    for seg in stage:
        for name in ("coeffs", "coeffs_t", "blocks"):
            arr = getattr(seg, name, None)
            if arr is not None:
                g, a, b = arr.shape
                total += arr.nbytes + g * (a + b) * num_rhs * arr.itemsize
    return total


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------

def _csr_lists(tree) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    near_indptr = np.zeros(len(tree.leaves) + 1, dtype=np.intp)
    near_cols: list[int] = []
    for i, leaf in enumerate(tree.leaves):
        near_cols.extend(leaf.near)
        near_indptr[i + 1] = len(near_cols)
    far_indptr = np.zeros(len(tree.nodes) + 1, dtype=np.intp)
    far_cols: list[int] = []
    for i, node in enumerate(tree.nodes):
        far_cols.extend(node.far)
        far_indptr[i + 1] = len(far_cols)
    return (
        near_indptr,
        np.asarray(near_cols, dtype=np.intp),
        far_indptr,
        np.asarray(far_cols, dtype=np.intp),
    )


def _active_nodes(tree, far_cols: np.ndarray) -> np.ndarray:
    """Nodes participating in the up/down passes.

    A node's ``w̃`` / ``ũ`` matters only if the node or one of its ancestors
    appears in a Far interaction (as source or target); everything else is
    dead weight the reference engine computes anyway.
    """
    active = np.zeros(len(tree.nodes), dtype=bool)
    active[far_cols] = True
    for node in tree.nodes:
        if node.far:
            active[node.node_id] = True
    # propagate down: a child inherits activity from its parent
    for node in tree.nodes:  # breadth-first order: parents precede children
        if node.parent is not None and active[node.parent.node_id]:
            active[node.node_id] = True
    return active


def _require_block(provider, key: tuple[int, int], what: str) -> np.ndarray:
    block = provider.get(key)
    if block is None:
        raise EvaluationError(f"missing {what} block {key} while building evaluation plan")
    # Keep the compression's dtype: packing must not change precision or
    # double the memory of a float32 representation.
    return np.ascontiguousarray(block)


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


class PassLayout:
    """Chunk-agnostic packing machinery of the up/down passes.

    Everything the evaluation needs *besides* the interaction blocks: the
    workspace row layout (``skel_offset`` / ``workspace_rows``), the packed
    N2S / S2N level segments, the CSR Near/Far index tables, and the
    uniformity metadata enabling the slot-gather fast paths.  The planned
    engine (:func:`build_plan`) combines a layout with eagerly packed
    S2S / L2L block segments; the streamed engine
    (:mod:`repro.core.streaming`) combines the same layout with chunked
    on-the-fly block materialization — one planner, two block strategies.
    """

    __slots__ = (
        "n", "workspace_rows", "skel_offset", "prank", "active", "needs_s2n",
        "n2s_levels", "s2n_levels", "near_indptr", "near_cols", "far_indptr",
        "far_cols", "leaf_perm", "uniform_leaf_size", "uniform_rank", "leaf_slot",
    )

    def __init__(self, **fields) -> None:
        for name in self.__slots__:
            setattr(self, name, fields[name])

    def new_context(self, weights: np.ndarray) -> PlanContext:
        """A per-matvec context laid out for this layout (no pooling)."""
        return PlanContext(
            weights,
            self.workspace_rows,
            leaf_perm=self.leaf_perm,
            leaf_size=self.uniform_leaf_size,
            rank=self.uniform_rank,
        )


def build_pass_layout(compressed, bucketing: str = "none") -> PassLayout:
    """Build the block-free :class:`PassLayout` of a compressed matrix.

    ``bucketing`` pads workspace ranks exactly like
    ``GOFMMConfig.plan_rank_bucketing``; the streamed engine always passes
    ``"none"`` (exact packing keeps its GEMM shapes — and therefore its
    results — identical to the per-node reference traversal).
    """
    tree = compressed.tree
    levels = tree.levels()
    near_indptr, near_cols, far_indptr, far_cols = _csr_lists(tree)
    active = _active_nodes(tree, far_cols)
    prank = _padded_rank_table(tree, levels, active, bucketing)

    # Uniformity enables the slot-gather fast paths: whole-block gathers
    # through 3-D views instead of row-wise fancy indexing.  Ranks are the
    # *padded* ranks — bucketing can turn an adaptive-rank tree uniform.
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
            dst_start = offset
            for node in nodes:
                skel_offset[node.node_id] = offset
                offset += int(prank[node.node_id])
            coeffs = np.stack([_padded_coeffs(n, skel_offset, prank) for n in nodes])
            if nodes[0].is_leaf:
                if uniform_leaf_size:
                    slots = np.asarray([leaf_slot[n.node_id] for n in nodes], dtype=np.intp)
                    level_segments.append(N2SLeafSlotSegment(level, coeffs, slots, dst_start))
                else:
                    src = np.stack([n.indices for n in nodes])
                    level_segments.append(N2SLeafSegment(level, coeffs, src, dst_start))
            else:
                src_rows = np.empty((len(nodes), k), dtype=np.intp)
                for g, node in enumerate(nodes):
                    rows = _children_rows(node, skel_offset, prank)
                    if rows.size != k:
                        raise EvaluationError(
                            f"N2S({node.node_id}): coefficient width {k} does not match "
                            f"children skeleton sizes {rows.size}"
                        )
                    src_rows[g] = rows
                if uniform_rank and s == uniform_rank and k % uniform_rank == 0:
                    slots = src_rows[:, :: uniform_rank] // uniform_rank
                    level_segments.append(N2SInternalSlotSegment(level, coeffs, slots, dst_start))
                else:
                    level_segments.append(N2SInternalSegment(level, coeffs, src_rows, dst_start))
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
            uniform = uniform_rank and s == uniform_rank
            if nodes[0].is_leaf:
                dst = np.stack([n.indices for n in nodes])
                if uniform:
                    slots = np.asarray([skel_offset[n.node_id] // uniform_rank for n in nodes])
                    level_segments.append(S2NLeafSlotSegment(level, coeffs_t, slots, dst))
                else:
                    src_rows = np.stack(
                        [np.arange(skel_offset[n.node_id], skel_offset[n.node_id] + s) for n in nodes]
                    )
                    level_segments.append(S2NLeafSegment(level, coeffs_t, src_rows, dst))
            else:
                dst_rows = np.empty((len(nodes), k), dtype=np.intp)
                for g, node in enumerate(nodes):
                    rows = _children_rows(node, skel_offset, prank)
                    if rows.size != k:
                        raise EvaluationError(
                            f"S2N({node.node_id}): coefficient width {k} does not match "
                            f"children skeleton sizes {rows.size}"
                        )
                    dst_rows[g] = rows
                if uniform and k % uniform_rank == 0:
                    src_slots = np.asarray([skel_offset[n.node_id] // uniform_rank for n in nodes])
                    dst_slots = dst_rows[:, :: uniform_rank] // uniform_rank
                    level_segments.append(
                        S2NInternalSlotSegment(level, coeffs_t, src_slots, dst_slots, uniform_rank)
                    )
                else:
                    src_rows = np.stack(
                        [np.arange(skel_offset[n.node_id], skel_offset[n.node_id] + s) for n in nodes]
                    )
                    level_segments.append(S2NInternalSegment(level, coeffs_t, src_rows, dst_rows))
        s2n_levels.append(level_segments)

    return PassLayout(
        n=tree.n,
        workspace_rows=workspace_rows,
        skel_offset=skel_offset,
        prank=prank,
        active=active,
        needs_s2n=needs_s2n,
        n2s_levels=n2s_levels,
        s2n_levels=s2n_levels,
        near_indptr=near_indptr,
        near_cols=near_cols,
        far_indptr=far_indptr,
        far_cols=far_cols,
        leaf_perm=tree.permutation if uniform_leaf_size else None,
        uniform_leaf_size=uniform_leaf_size,
        uniform_rank=uniform_rank,
        leaf_slot=leaf_slot,
    )


def _pack_s2s_segments(compressed, layout: PassLayout) -> List[PlanSegment]:
    """Eagerly pack the far field: concatenate each target's far blocks into
    one wide block-row, then batch the block-rows by shape."""
    tree = compressed.tree
    skel_offset, prank = layout.skel_offset, layout.prank
    uniform_rank = layout.uniform_rank
    s2s_segments: List[PlanSegment] = []
    s2s_groups: Dict[tuple[int, int], list] = {}
    for node in tree.nodes:
        if not node.far or node.skeleton_rank == 0:
            continue
        blocks: list[np.ndarray] = []
        rows: list[np.ndarray] = []
        for alpha_id in node.far:
            alpha = tree.node(alpha_id)
            if alpha.skeleton_rank == 0:
                continue
            block = _require_block(compressed.far_blocks, (node.node_id, alpha_id), "far")
            if block.shape != (node.skeleton_rank, alpha.skeleton_rank):
                raise EvaluationError(
                    f"far block ({node.node_id},{alpha_id}) has shape {block.shape}, "
                    f"expected {(node.skeleton_rank, alpha.skeleton_rank)}"
                )
            pad_shape = (int(prank[node.node_id]), int(prank[alpha.node_id]))
            if block.shape != pad_shape:
                padded = np.zeros(pad_shape, dtype=block.dtype)
                padded[: block.shape[0], : block.shape[1]] = block
                block = padded
            blocks.append(block)
            start = skel_offset[alpha.node_id]
            rows.append(np.arange(start, start + pad_shape[1]))
        if not blocks:
            continue
        row_block = np.hstack(blocks)
        s2s_groups.setdefault(row_block.shape, []).append((node, row_block, np.concatenate(rows)))
    for (s, k), entries in sorted(s2s_groups.items()):
        blocks = np.stack([e[1] for e in entries])
        if uniform_rank and s == uniform_rank and k % uniform_rank == 0:
            # every source/target is one whole rank-s block of the workspace
            src_slots = np.stack([e[2][::uniform_rank] // uniform_rank for e in entries])
            dst_slots = np.asarray([skel_offset[e[0].node_id] // uniform_rank for e in entries])
            s2s_segments.append(S2SSlotSegment(blocks, src_slots, dst_slots))
        else:
            src_rows = np.stack([e[2] for e in entries])
            dst_rows = np.stack(
                [np.arange(skel_offset[e[0].node_id], skel_offset[e[0].node_id] + s) for e in entries]
            )
            s2s_segments.append(S2SSegment(blocks, src_rows, dst_rows))
    return s2s_segments


def _pack_l2l_segments(compressed, layout: PassLayout) -> List[PlanSegment]:
    """Eagerly pack the direct part: concatenate each leaf's near blocks into
    one wide block-row, then batch the block-rows by shape."""
    tree = compressed.tree
    uniform_leaf_size, leaf_slot = layout.uniform_leaf_size, layout.leaf_slot
    l2l_segments: List[PlanSegment] = []
    l2l_groups = {}
    for leaf in tree.leaves:
        if not leaf.near:
            continue
        blocks = []
        cols: list[np.ndarray] = []
        for alpha_id in leaf.near:
            alpha = tree.node(alpha_id)
            block = _require_block(compressed.near_blocks, (leaf.node_id, alpha_id), "near")
            if block.shape != (leaf.size, alpha.size):
                raise EvaluationError(
                    f"near block ({leaf.node_id},{alpha_id}) has shape {block.shape}, "
                    f"expected {(leaf.size, alpha.size)}"
                )
            blocks.append(block)
            cols.append(alpha.indices)
        row_block = np.hstack(blocks)
        l2l_groups.setdefault(row_block.shape, []).append((leaf, row_block, np.concatenate(cols)))
    for (mb, k), entries in sorted(l2l_groups.items()):
        blocks = np.stack([e[1] for e in entries])
        dst = np.stack([e[0].indices for e in entries])
        if uniform_leaf_size and mb == uniform_leaf_size and k % uniform_leaf_size == 0:
            src_slots = np.stack(
                [np.asarray([leaf_slot[a] for a in e[0].near], dtype=np.intp) for e in entries]
            )
            l2l_segments.append(L2LSlotSegment(blocks, src_slots, dst))
        else:
            src = np.stack([e[2] for e in entries])
            l2l_segments.append(L2LSegment(blocks, src, dst))
    return l2l_segments


def build_plan(compressed) -> EvaluationPlan:
    """Flatten a :class:`~repro.core.hmatrix.CompressedMatrix` into an :class:`EvaluationPlan`."""
    bucketing = getattr(compressed.config, "plan_rank_bucketing", "none")
    layout = build_pass_layout(compressed, bucketing)
    return EvaluationPlan(
        n=layout.n,
        workspace_rows=layout.workspace_rows,
        skel_offset=layout.skel_offset,
        n2s_levels=layout.n2s_levels,
        s2s_segments=_pack_s2s_segments(compressed, layout),
        s2n_levels=layout.s2n_levels,
        l2l_segments=_pack_l2l_segments(compressed, layout),
        near_indptr=layout.near_indptr,
        near_cols=layout.near_cols,
        far_indptr=layout.far_indptr,
        far_cols=layout.far_cols,
        leaf_perm=layout.leaf_perm,
        uniform_leaf_size=layout.uniform_leaf_size,
        uniform_rank=layout.uniform_rank,
    )


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


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def evaluate_planned(compressed, w: np.ndarray, counters: Optional[EvaluationCounters] = None) -> np.ndarray:
    """Planned-engine matvec ``u ≈ K̃ w``; drop-in for :func:`repro.core.evaluate.evaluate`.

    Builds (or reuses) the cached :class:`EvaluationPlan` of ``compressed``
    and executes it sequentially.  Accepts ``(N,)`` or ``(N, r)`` weights.
    """
    weights, was_vector = _as_matrix(w, compressed.tree.n)
    plan = compressed.plan()
    output = plan.execute(weights, counters=counters)
    return output[:, 0] if was_vector else output

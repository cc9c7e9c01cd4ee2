"""The evaluation plan: Algorithm 2.7 on cached blocks in place, the rest streamed.

:class:`StreamingPlan` is the one plan class.  It combines a
:class:`~repro.core.plan.PassLayout` (workspace offsets, packed N2S / S2N
level segments) with the S2S / L2L work, split by residency:

* **in place** — cached work runs :class:`~repro.core.plan.PlanSegment`
  records on operands that exist before the call: the near cache's intact
  :class:`~repro.core.hmatrix.RowSlab` rows (one GEMM per slab, on the
  cache's own bytes — the mapped store's, for an mmap-opened operator —
  plus one on its transposed view for the pairs the rows fold), and an
  S2S target whose far blocks are all cached multiplies its block-row,
  concatenated once at build.  These segments form one
  :class:`PlannedChunk` per stage.
* **waves** — the pairs left over (uncached blocks, partly cached targets,
  pairs no intact row applies: the near cache off, a replaced block, a
  store in the older flat layout) run in waves.  :func:`pair_waves` colours
  each pass's unordered pairs ``{a, b}`` first-fit, in lexicographic order:
  no node appears twice in a wave, so same-shape items batch into one 3-D
  GEMM with a plain vectorized scatter-add, and each target accumulates
  its contributions *in wave order* whatever the grouping, chunk budget,
  rank padding or threads.  The waves are a pure function of the lists.
* **each symmetric pair once** — GOFMM's lists are symmetric and so is K
  (``K_ba = K_abᵀ``).  The near cache holds a pair listed both ways once,
  in the row of its smaller leaf, and its row slab applies it both ways
  (:class:`~repro.core.plan.SlabSegment`).  When both directions of a
  pair fill and the provider caches neither, the pair folds the same way:
  its ``(min, max)`` block ``B`` is evaluated once and applied both ways,
  ``y[a] += B w[b]`` and, for ``a ≠ b``, ``y[b] += Bᵀ w[a]``.  Otherwise
  each listed direction is a one-sided item of the same wave; a diagonal
  pair is applied once.
* **fill chunks** — the wave segments are packed, in execution order,
  into chunks bounded by ``GOFMMConfig.streaming_chunk_bytes``: each
  chunk's blocks are materialized into a reusable buffer (missing blocks
  are evaluated in stacked batches through
  :meth:`repro.matrices.base.SPDMatrix.entries_batched` — bitwise equal to
  a per-pair evaluation — and cached ones copied) and the chunk's GEMMs run
  from that buffer.  The cycling buffers are plain heap arrays and together
  stay within the configured budget, so evaluation-phase block memory is
  bounded no matter how many interaction pairs the compression has —
  unless a single block is larger than one buffer's share (a chunk holds at
  least one block), which the plan logs once at build.

Each target gets either one block-row product or its per-block sum in wave
order, the rules the per-node oracle follows too.  ``CompressedMatrix``
builds two packings of this plan: :meth:`~repro.core.hmatrix.CompressedMatrix.plan`
pads ranks per ``config.plan_rank_bucketing`` (the ``"planned"`` engine)
and :meth:`~repro.core.hmatrix.CompressedMatrix.streaming_plan` packs them
exactly (the ``"streamed"`` engine, bit-identical to the per-node oracle).

**Execution.**  A plan that fills no chunk — every fully cached operator,
in memory or mapped — runs its stages (:meth:`StreamingPlan.stages`) in
the caller's thread: N2S, S2S, S2N, L2L.  A plan that fills chunks
pipelines them: upcoming chunks materialize on the shared persistent
:class:`~repro.runtime.executor.WorkerPool` while the current chunk's GEMMs
execute (materialization dominates a memoryless matvec and NumPy's
ufuncs/BLAS release the GIL).  The execution chain itself is strictly
sequential in both cases (chunk order, with the S2N pass between the last
S2S chunk and the first L2L chunk), so the result is deterministic and
independent of threads.

The plan works for *any* caching configuration.  It needs the source
matrix attached for whatever is not cached, and because chunks materialize
on several worker threads concurrently, that matrix's entry evaluation must
be thread-safe for concurrent reads (the built-in matrix classes are; see
:meth:`repro.matrices.base.SPDMatrix.entries_batched`).

**Thread safety.**  The plan is immutable after construction; every
:meth:`~StreamingPlan.execute` call owns its context and its chunk
buffers, so concurrent matvecs on one plan are safe and each is
bit-identical to running alone.  The ``(R, r)`` skeleton workspaces of
in-place runs come from a small thread-safe pool on the plan
(:meth:`~StreamingPlan.new_context` / :meth:`~StreamingPlan.release_context`),
so repeated short matvecs (CG, serving) skip two allocations per call; the
output is always fresh.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import EvaluationError
from ..obs import counters as _obs_counters
from ..obs import get_logger
from ..obs.trace import get_tracer
from .plan import (
    EvaluationCounters,
    PassLayout,
    PlanContext,
    PlanSegment,
    _pack_s2s_segments,
    build_pass_layout,
    gather_gemm_scatter,
    intact_row_slabs,
    slab_segments,
)

_LOG = get_logger("core.streaming")

__all__ = [
    "PlannedChunk",
    "StreamSegment",
    "StreamChunk",
    "StreamingPlan",
    "build_streaming_plan",
    "pair_waves",
]

#: Per-call cap (in packed block bytes) on one ``entries_batched``
#: materialization call.  A ``KernelMatrix`` writes the blocks straight into
#: the chunk buffer and keeps its elementwise scratch L2-sized, so what a
#: call still allocates in proportion to its size is the gathered point
#: coordinates (``g·(p+k)·d``), the norm and index tables — and, for a
#: partly cached segment, the fresh blocks themselves.  The cap keeps those
#: small so the chunk budget governs the engine's memory high-water mark.
_MATERIALIZE_CALL_BYTES = 2 << 20

#: Number of chunk buffers cycling through the pipeline.  The execution
#: chain is strictly sequential (bit-identity), but up to
#: ``_PIPELINE_BUFFERS - 1`` future chunks materialize concurrently while
#: one executes — materialization is the dominant cost of a memoryless
#: matvec and NumPy's ufuncs/BLAS release the GIL, so the extra
#: materializer threads give real overlap.  ``streaming_chunk_bytes`` is
#: split across all the buffers, keeping the total workspace bound.
_PIPELINE_BUFFERS = 4

#: Granularity (bytes) of one panel-source read / panel-sink write when
#: weights stream through :meth:`StreamingPlan.execute` as column panels.
#: Bounds the transient a single ``source.read`` hands back, independent
#: of ``n``.
_PANEL_IO_BYTES = 8 << 20


# ---------------------------------------------------------------------------
# segments and chunks
# ---------------------------------------------------------------------------

class StreamSegment:
    """One same-shape batch of interaction blocks from one wave.

    ``rows[g]`` / ``cols[g]`` are the global entry indices of the ``g``-th
    block (skeleton sets for S2S, leaf index sets for L2L) and ``keys[g]``
    its provider key; ``src`` / ``dst`` are the ``(buffer, block, index)``
    gather / scatter accesses of the batched GEMM, run by
    :func:`~repro.core.plan.gather_gemm_scatter`.  A ``mirrored`` segment
    holds folded pairs: each block ``B`` is ``K[a, b]`` with ``a < b`` and
    also runs transposed, ``y[b] += Bᵀ w[a]``, with the two accesses
    swapped.  No node appears twice in a wave, so every scatter target is
    disjoint within the segment and the fancy-index add is a plain
    vectorized scatter.
    """

    __slots__ = (
        "kind", "shape", "keys", "rows", "cols", "src", "dst", "mirrored", "wave",
        "cached", "missing", "flops_per_rhs",
    )

    def __init__(
        self,
        kind: str,
        shape: Tuple[int, int],
        keys: List[tuple[int, int]],
        rows: List[np.ndarray],
        cols: List[np.ndarray],
        src: Optional[np.ndarray] = None,
        dst: Optional[np.ndarray] = None,
        mirrored: bool = False,
        wave: int = 0,
    ) -> None:
        self.kind = kind                  # "S2S" (util scatter) or "L2L" (output scatter)
        self.shape = shape                # (p, k) of every block in the batch
        self.keys = keys
        self.mirrored = mirrored          # folded pairs: also apply each block transposed
        self.wave = wave                  # the pass's wave this batch belongs to
        # Pre-stacked (g, p) / (g, k) index tables: entries_batched takes
        # the 2-D arrays straight into its stacked fast path, paying no
        # per-matvec restacking.
        self.rows = np.stack(rows)
        self.cols = np.stack(cols)
        # Gather rows (wtil for S2S, weights for L2L) and scatter rows
        # (util for S2S, output for L2L).  For L2L these are the block's
        # global entry indices themselves, so they alias the stacked
        # rows/cols instead of duplicating O(pairs) index memory.
        s2s = kind == "S2S"
        self.src = ("wtil" if s2s else "weights", 1, self.cols if src is None else src)
        self.dst = ("util" if s2s else "output", 1, self.rows if dst is None else dst)
        self.cached: List[int] = []       # filled by bind_cache
        self.missing: List[int] = list(range(len(keys)))
        self.flops_per_rhs = (4.0 if mirrored else 2.0) * len(keys) * shape[0] * shape[1]

    @property
    def batch(self) -> int:
        return len(self.keys)

    def tables(self) -> tuple:
        """The segment's index tables (what :meth:`StreamingPlan.index_bytes` counts)."""
        return (self.src[2], self.dst[2], self.rows, self.cols)

    @property
    def elems(self) -> int:
        return self.batch * self.shape[0] * self.shape[1]

    def bind_cache(self, provider) -> None:
        """Split the segment's keys into cached / to-evaluate once, at build.

        The block cache is immutable after compression, so the split never
        changes between matvecs — checking it per materialization would be
        thousands of dict probes per call for nothing.
        """
        hits = [key in provider for key in self.keys]
        self.cached = [g for g, hit in enumerate(hits) if hit]
        self.missing = [g for g, hit in enumerate(hits) if not hit]

    def materialize(self, provider, matrix, out: np.ndarray) -> None:
        """Fill ``out`` (a ``(g, p, k)`` buffer view) with this segment's blocks.

        Cached blocks are copied from the provider; the rest are evaluated
        in stacked sub-batches (bounded so the evaluator's temporaries stay
        small), written straight into the buffer when the whole segment is
        uncached — the memoryless hot path.
        """
        for g in self.cached:
            out[g] = provider.get(self.keys[g])
        if not self.missing:
            return
        if matrix is None:
            kind = "far" if self.kind == "S2S" else "near"
            raise EvaluationError(
                f"missing {kind} block {self.keys[self.missing[0]]} and no source matrix "
                "attached to stream it from"
            )
        per_block = max(1, self.shape[0] * self.shape[1] * 8)
        step = max(1, _MATERIALIZE_CALL_BYTES // per_block)
        if not self.cached:
            for start in range(0, self.batch, step):
                stop = min(start + step, self.batch)
                matrix.entries_batched(
                    self.rows[start:stop], self.cols[start:stop], out=out[start:stop]
                )
            return
        for start in range(0, len(self.missing), step):
            chosen = self.missing[start : start + step]
            blocks = matrix.entries_batched(self.rows[chosen], self.cols[chosen])
            for block, g in zip(blocks, chosen):
                out[g] = block

    def run(self, ctx: PlanContext, blocks: np.ndarray) -> None:
        """Execute the batched GEMM + scatter from materialized ``blocks``
        (and, for folded pairs, the transposed one with the accesses swapped)."""
        gather_gemm_scatter(ctx, blocks, self.src, self.dst)
        if self.mirrored:
            (src, _, cols), (dst, _, rows) = self.src, self.dst
            gather_gemm_scatter(ctx, blocks.transpose(0, 2, 1), (src, 1, rows), (dst, 1, cols))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StreamSegment({self.kind}, batch={self.batch}, shape={self.shape})"


class StreamChunk:
    """A contiguous run of segments materialized into one buffer and executed together."""

    __slots__ = (
        "segments", "offsets", "total_elems", "flops_per_rhs",
        "num_blocks", "missing_elems",
    )

    def __init__(self, segments: List[StreamSegment]) -> None:
        self.segments = segments
        self.offsets: List[int] = []
        offset = 0
        for segment in segments:
            self.offsets.append(offset)
            offset += segment.elems
        self.total_elems = offset
        self.flops_per_rhs = sum(s.flops_per_rhs for s in segments)
        # Telemetry aggregates, fixed once bind_cache has run on the
        # segments (the cache split never changes between matvecs).
        self.num_blocks = sum(s.batch for s in segments)
        self.missing_elems = sum(
            len(s.missing) * s.shape[0] * s.shape[1] for s in segments
        )

    def _views(self, buffer: np.ndarray):
        for segment, offset in zip(self.segments, self.offsets):
            g, (p, k) = segment.batch, segment.shape
            yield segment, buffer[offset : offset + segment.elems].reshape(g, p, k)

    def materialize(self, near_blocks, far_blocks, matrix, buffer: np.ndarray) -> None:
        for segment, view in self._views(buffer):
            provider = far_blocks if segment.kind == "S2S" else near_blocks
            segment.materialize(provider, matrix, view)

    def run(self, ctx: PlanContext, buffer: np.ndarray) -> None:
        for segment, view in self._views(buffer):
            segment.run(ctx, view)


class PlannedChunk:
    """In-place segments (:class:`~repro.core.plan.PlanSegment`) as a chunk.

    The plan's cached work: L2L on the near cache's intact row slabs or
    S2S on block-rows packed at build.  The operands are the segments' own,
    so the chunk fills nothing — no buffer, no blocks, no kernel entries.
    """

    __slots__ = ("segments", "flops_per_rhs")

    total_elems = num_blocks = missing_elems = 0

    def __init__(self, segments: list) -> None:
        self.segments = segments
        self.flops_per_rhs = sum(s.flops_per_rhs for s in segments)

    def materialize(self, near_blocks, far_blocks, matrix, buffer) -> None:
        """Nothing to fill: the operands are in place."""

    def run(self, ctx: PlanContext, buffer) -> None:
        for segment in self.segments:
            segment.run(ctx)


def _level_stages(kind: str, levels) -> List[Tuple[str, list]]:
    """A pass's non-empty levels as ``(label, segments)`` stages."""
    return [(f"{kind}@{level[0].level}", level) for level in levels if level]


def _stage_bytes(stage: List[PlanSegment], num_rhs: int) -> int:
    """Approximate bytes one stage moves: packed operands + workspace rows.

    For a packed ``(g, a, b)`` operand the GEMM reads ``g·b`` workspace
    rows and writes ``g·a``, each ``num_rhs`` floats wide.  Recorded only
    on the traced path, so the disabled matvec never computes this.
    """
    total = 0
    for seg in stage:
        g, a, b = seg.operand.shape
        total += seg.operand.nbytes + g * (a + b) * num_rhs * seg.operand.itemsize
    return total


# ---------------------------------------------------------------------------
# the shared materialization/execution pool
# ---------------------------------------------------------------------------

_POOL_LOCK = threading.Lock()
_POOL = None  # lazily created WorkerPool shared by every plan that fills chunks


def _shared_pool():
    """The persistent worker pool pipelining every plan that fills chunks.

    Workers materialize upcoming chunks while one runs the current chunk's
    GEMMs; the pool is shared across plans and across concurrent
    evaluations (``WorkerPool.run`` is reentrant), and its daemon threads
    live for the process.
    """
    global _POOL
    from ..runtime.executor import WorkerPool

    with _POOL_LOCK:
        if _POOL is None:
            workers = max(2, min(_PIPELINE_BUFFERS, (os.cpu_count() or 2)))
            _POOL = WorkerPool(workers, name="streaming")
        return _POOL


# ---------------------------------------------------------------------------
# the streaming plan
# ---------------------------------------------------------------------------

class StreamingPlan:
    """The evaluation plan of one compressed matrix (see the module docstring).

    Holds the :class:`~repro.core.plan.PassLayout` (N2S / S2N level
    segments, workspace offsets) plus the S2S / L2L schedule: planned
    chunks for the cached work, then the fill chunks of the rest.
    """

    #: Maximum number of pooled workspace pairs kept per plan (≈ the number
    #: of concurrent evaluations worth caching for; beyond it, extra
    #: contexts simply allocate and are dropped on release).
    WORKSPACE_POOL_MAX = 8

    def __init__(
        self,
        layout: PassLayout,
        s2s_chunks: List[StreamChunk],
        l2l_chunks: List[StreamChunk],
        near_blocks,
        far_blocks,
        matrix,
        chunk_bytes: int,
        stall_timeout: Optional[float],
    ) -> None:
        self.layout = layout
        self.s2s_chunks = s2s_chunks
        self.l2l_chunks = l2l_chunks
        self.near_blocks = near_blocks
        self.far_blocks = far_blocks
        self.matrix = matrix
        self.chunk_bytes = chunk_bytes
        self.stall_timeout = stall_timeout
        chunks = s2s_chunks + l2l_chunks
        self.buffer_elems = max((c.total_elems for c in chunks), default=0)
        #: Chunks that fill a buffer (a ``mat:`` task each); the planned
        #: chunks run on their segments' own operands.
        self.filled_chunks = sum(1 for c in chunks if c.total_elems)
        # The cycling buffers only exceed the budget when a single
        # interaction block is bigger than one buffer's share of it (the
        # packer's one-block minimum); the buffers stay on the heap.
        if self.workspace_bytes > self.chunk_bytes:
            _LOG.info(
                "streaming workspace (%d bytes) exceeds chunk budget (%d bytes): "
                "a single block is larger than one buffer's share",
                self.workspace_bytes,
                self.chunk_bytes,
            )
        self.flops_per_rhs: Dict[str, float] = layout.flops_per_rhs(s2s_chunks, l2l_chunks)
        # Pooled per-call workspace buffers: a bounded LIFO of (wtil, util)
        # pairs behind a lock, so concurrent callers stay reentrant.
        self._pool_lock = threading.Lock()
        self._workspace_pool: List[tuple[np.ndarray, np.ndarray]] = []

    # -- inspection ---------------------------------------------------------
    @property
    def workspace_rows(self) -> int:
        return self.layout.workspace_rows

    def stages(self) -> List[Tuple[str, list]]:
        """The in-place segments, barrier-separated, in execution order.

        N2S levels bottom-up, the planned S2S chunk, S2N levels top-down and
        the planned L2L chunk — the whole evaluation of a plan that fills no
        chunk.  The segment lists are the plan's own.
        """
        planned = lambda chunks: [c.segments for c in chunks if isinstance(c, PlannedChunk)]
        return (
            _level_stages("N2S", self.layout.n2s_levels)
            + [("S2S", segments) for segments in planned(self.s2s_chunks)]
            + _level_stages("S2N", self.layout.s2n_levels)
            + [("L2L", segments) for segments in planned(self.l2l_chunks)]
        )

    def segments(self) -> Iterator[PlanSegment]:
        for _, stage in self.stages():
            yield from stage

    @property
    def num_segments(self) -> int:
        return sum(1 for _ in self.segments())

    def packed_entries(self) -> int:
        """Total entries of the in-place operands, the near cache's row slabs included."""
        return sum(segment.operand.size for segment in self.segments())

    @property
    def num_chunks(self) -> int:
        return len(self.s2s_chunks) + len(self.l2l_chunks)

    @property
    def num_buffers(self) -> int:
        """Chunk buffers cycling through one execution (none when nothing is filled)."""
        return min(_PIPELINE_BUFFERS, self.filled_chunks)

    @property
    def workspace_bytes(self) -> int:
        """Bytes held by all cycling chunk buffers together (the bounded workspace)."""
        return self.num_buffers * self.buffer_elems * 8

    def index_bytes(self) -> int:
        """Persistent gather/scatter index-table bytes of the whole plan.

        Unlike the block *values* (bounded by the chunk workspace), the
        index tables scale with the number of interaction pairs —
        ``O((p + k))`` integers per pair, roughly an eighth of the eager
        block bytes at rank 16 / leaf 32.  Reported so memory planning for
        large memoryless runs accounts for it; aliased arrays (L2L
        src/dst) are counted once.  Every segment counts: the layout's
        N2S / S2N levels and every chunk's.
        """
        levels = self.layout.n2s_levels + self.layout.s2n_levels
        segments = [s for level in levels for s in level]
        segments += [s for chunk in self.s2s_chunks + self.l2l_chunks for s in chunk.segments]
        seen: set = set()
        total = 0
        for segment in segments:
            for array in segment.tables():
                if isinstance(array, np.ndarray) and id(array) not in seen:
                    seen.add(id(array))
                    total += array.nbytes
        return total

    def owned_bytes(self) -> int:
        """Bytes of the operands the plan owns: every in-place operand but the
        near cache's row slabs its L2L runs on."""
        return sum(seg.operand.nbytes for seg in self.segments() if seg.kind != "L2L")

    def describe(self) -> str:
        segments = sum(len(c.segments) for c in self.s2s_chunks + self.l2l_chunks)
        return (
            f"streaming plan: {self.num_chunks} chunks ({len(self.s2s_chunks)} S2S, "
            f"{len(self.l2l_chunks)} L2L), {segments} segments, "
            f"workspace {self.workspace_bytes} bytes (budget {self.chunk_bytes}), "
            f"index tables {self.index_bytes()} bytes"
        )

    def report(self) -> Dict[str, float]:
        return {
            "chunks": float(self.num_chunks),
            "s2s_chunks": float(len(self.s2s_chunks)),
            "l2l_chunks": float(len(self.l2l_chunks)),
            "segments": float(sum(len(c.segments) for c in self.s2s_chunks + self.l2l_chunks)),
            "workspace_bytes": float(self.workspace_bytes),
            "chunk_budget_bytes": float(self.chunk_bytes),
            "index_bytes": float(self.index_bytes()),
            "workspace_rows": float(self.layout.workspace_rows),
        }

    # -- execution ----------------------------------------------------------
    def new_context(self, weights: np.ndarray) -> PlanContext:
        """A fresh per-call context, reusing a pooled workspace when possible.

        Pair every ``new_context`` with a :meth:`release_context` so the
        buffers return to the pool; forgetting to release is safe — it only
        costs the reuse.
        """
        buffers = None
        with self._pool_lock:
            for i, (wtil, _) in enumerate(self._workspace_pool):
                if wtil.shape[1:] == np.shape(weights)[1:] and wtil.dtype == weights.dtype:
                    buffers = self._workspace_pool.pop(i)
                    break
        return self.layout.new_context(weights, buffers)

    def release_context(self, ctx: PlanContext) -> None:
        """Return a context's workspace buffers to the pool (not the output)."""
        wtil, util = ctx.wtil, ctx.util
        # Defensive: a released context must never be run again.
        ctx.wtil = ctx.util = ctx.leaves = None
        if wtil is None:
            return
        with self._pool_lock:
            if len(self._workspace_pool) < self.WORKSPACE_POOL_MAX:
                self._workspace_pool.append((wtil, util))

    def workspace_pool_size(self) -> int:
        with self._pool_lock:
            return len(self._workspace_pool)

    #: Sentinel: "use the stall timeout captured from the config at build".
    _PLAN_TIMEOUT = object()

    def execute(
        self,
        weights,
        counters: Optional[EvaluationCounters] = None,
        pool=None,
        stall_timeout=_PLAN_TIMEOUT,
        out=None,
        panel_cols: Optional[int] = None,
    ) -> Optional[np.ndarray]:
        """One matvec on ``(N, r)`` weights.

        ``weights`` is either a plain array (the classic path: one context,
        one result array) or anything :func:`repro.storage.panels.as_panel_source`
        accepts — a ``PanelSource``, or a path to an ``.npy`` file opened
        via mmap.  Non-array weights, an explicit ``out`` sink, or an
        explicit ``panel_cols`` all select the **panel path**: the RHS is
        processed as column panels of at most ``panel_cols`` columns, each
        read in bounded row-range slices, so peak residency is
        ``O(workspace + panel)`` instead of ``O(n * r)``.

        ``out`` accepts an array, a ``PanelSink``, or a path (written as a
        fresh ``.npy`` via write-mode mmap).  With a sink the return value
        is ``None``; otherwise the dense result is returned.

        Note on bit patterns: BLAS GEMM accumulation differs across RHS
        widths, so a panel of width ``c`` is bit-identical to evaluating
        those same ``c`` columns alone — not to slicing a full-width
        evaluation (the established engine-contract caveat from the
        serving batcher, which pads to a canonical width for that reason).

        ``pool`` and ``stall_timeout`` apply to the fill-chunk pipeline
        only: a plan that fills no chunk runs in the caller's thread.
        ``stall_timeout`` defaults to the config value captured at plan
        build; pass ``None`` explicitly to disable the watchdog for this
        call (``parallel_evaluate`` forwards its argument here).
        """
        if stall_timeout is self._PLAN_TIMEOUT:
            stall_timeout = self.stall_timeout
        if isinstance(weights, np.ndarray) and out is None and panel_cols is None:
            output = self._execute_array(weights, pool, stall_timeout, buffers=None)
            if counters is not None:
                counters.add_flops(self.flops_per_rhs, weights.shape[1])
            return output

        from ..storage.panels import as_panel_sink, as_panel_source

        source = as_panel_source(weights)
        n, num_rhs = source.shape
        if n != self.layout.n:
            raise EvaluationError(
                f"panel source has {n} rows, operator expects {self.layout.n}"
            )
        cols = panel_cols if panel_cols is not None else self.default_panel_cols(num_rhs)
        if cols < 1:
            raise EvaluationError(f"panel_cols must be >= 1, got {cols}")
        cols = min(cols, num_rhs) if num_rhs else cols
        result = None
        if out is None:
            result = np.empty((n, num_rhs))
            sink = None
        else:
            sink = as_panel_sink(out, (n, num_rhs))
        # The chunk buffers are independent of the RHS width, so one set
        # cycles through every panel.
        buffers = self._allocate_buffers()
        for start in range(0, num_rhs, cols):
            stop = min(start + cols, num_rhs)
            panel = self._read_panel(source, n, start, stop)
            out_panel = self._execute_array(panel, pool, stall_timeout, buffers=buffers)
            if sink is not None:
                self._write_panel(sink, out_panel, start)
            else:
                result[:, start:stop] = out_panel
            if counters is not None:
                counters.add_flops(self.flops_per_rhs, stop - start)
        if sink is not None and hasattr(sink, "flush"):
            sink.flush()
        return result

    def default_panel_cols(self, num_rhs: int) -> int:
        """Panel width sizing the input + output panels to the chunk budget.

        Each in-flight panel pair costs ``2 * n * cols * 8`` bytes (plus
        the layout's ``2 * workspace_rows * cols * 8`` skeleton workspace),
        so the default keeps them together within ``chunk_bytes`` —
        mirroring how the chunk buffers split the same budget.
        """
        per_col = 2 * (self.layout.n + self.layout.workspace_rows) * 8
        cols = max(1, self.chunk_bytes // max(per_col, 1))
        return min(cols, num_rhs) if num_rhs else cols

    @staticmethod
    def _read_panel(source, n: int, col_start: int, col_stop: int) -> np.ndarray:
        """Assemble one float64 column panel from bounded row-range reads."""
        width = col_stop - col_start
        panel = np.empty((n, width))
        rows_per = max(1, _PANEL_IO_BYTES // max(width * 8, 1))
        for row_start in range(0, n, rows_per):
            row_stop = min(row_start + rows_per, n)
            panel[row_start:row_stop] = source.read(row_start, row_stop, col_start, col_stop)
        return panel

    @staticmethod
    def _write_panel(sink, panel: np.ndarray, col_start: int) -> None:
        width = panel.shape[1]
        rows_per = max(1, _PANEL_IO_BYTES // max(width * 8, 1))
        for row_start in range(0, panel.shape[0], rows_per):
            row_stop = min(row_start + rows_per, panel.shape[0])
            sink.write(row_start, col_start, panel[row_start:row_stop])

    def _allocate_buffers(self) -> List[np.ndarray]:
        """The cycling chunk buffers (heap, reused across panels)."""
        return [np.empty(self.buffer_elems) for _ in range(self.num_buffers)]

    def _execute_array(
        self, weights: np.ndarray, pool, stall_timeout, buffers: Optional[List[np.ndarray]]
    ) -> np.ndarray:
        """One full evaluation of an in-memory ``(N, r)`` weight array.

        ``buffers`` lets the panel loop reuse one set of chunk buffers
        across panels; ``None`` allocates (and lets GC drop) a fresh set.
        """
        if not self.filled_chunks:
            ctx = self.new_context(weights)
            try:
                self._run_stages(self.stages(), ctx)
                return ctx.output
            finally:
                self.release_context(ctx)
        # A pipelined run takes a fresh workspace: an abandoned run's tasks may
        # still write through its context, so it must never be pooled.
        ctx = self.layout.new_context(weights)
        if buffers is None:
            buffers = self._allocate_buffers()
        graph, payloads = self._build_graph(ctx, buffers)
        (pool or _shared_pool()).run(graph, payloads=payloads, stall_timeout=stall_timeout)
        return ctx.output

    @staticmethod
    def _run_stages(stages, ctx: PlanContext) -> None:
        """Run ``stages`` in order, in this thread.  Traced: one span per stage,
        and its byte traffic added to the ``gemm_bytes_*`` counters."""
        tracer = get_tracer()
        if not tracer.enabled:
            for _, stage in stages:
                for segment in stage:
                    segment.run(ctx)
            return
        for _, stage in stages:
            kind = stage[0].kind.lower()
            with tracer.span(f"eval.{kind}", level=stage[0].level, segments=len(stage)):
                for segment in stage:
                    segment.run(ctx)
            _obs_counters.add(f"gemm_bytes_{kind}", _stage_bytes(stage, ctx.num_rhs))

    def _build_graph(self, ctx: PlanContext, buffers):
        """The buffered chunk pipeline as a task graph.

        ``exec`` tasks form a strict chain (deterministic, reference-order
        accumulation); ``mat:i`` — only for chunks that fill a buffer — runs
        concurrently with earlier materializations and executions, gated
        only by its buffer being free again (the exec of the chunk that
        filled it ``len(buffers)`` fills earlier — the buffers cycle).  The
        S2N pass sits between the last S2S chunk and the first L2L chunk,
        matching the per-node traversal's stage order on the shared output
        rows.
        """
        from ..runtime.task import Task, TaskGraph

        graph = TaskGraph()
        payloads = {}
        chunks = self.s2s_chunks + self.l2l_chunks
        num_s2s = len(self.s2s_chunks)

        def add(task_id: str, kind: str, flops: float, payload) -> None:
            graph.add_task(Task(task_id=task_id, kind=kind, node_id=0, flops=flops))
            payloads[task_id] = payload

        num_rhs = ctx.num_rhs
        n2s = _level_stages("N2S", self.layout.n2s_levels)
        s2n = _level_stages("S2N", self.layout.s2n_levels)
        add("N2S", "N2S", self.flops_per_rhs["n2s"] * num_rhs, lambda: self._run_stages(n2s, ctx))
        add("S2N", "S2N", self.flops_per_rhs["s2n"] * num_rhs, lambda: self._run_stages(s2n, ctx))
        num_buffers = len(buffers)

        def run_mat(chunk, buffer, index) -> None:
            tracer = get_tracer()
            if tracer.enabled:
                with tracer.span(
                    "stream.chunk.fill",
                    chunk=index,
                    kind=chunk.segments[0].kind,
                    elems=chunk.total_elems,
                ):
                    chunk.materialize(self.near_blocks, self.far_blocks, self.matrix, buffer)
            else:
                chunk.materialize(self.near_blocks, self.far_blocks, self.matrix, buffer)
            _obs_counters.add("blocks_materialized", chunk.num_blocks)
            if chunk.missing_elems:
                _obs_counters.add("kernel_entries_evaluated", chunk.missing_elems)

        def run_exec(chunk, buffer, index) -> None:
            tracer = get_tracer()
            if tracer.enabled:
                with tracer.span(
                    f"eval.{chunk.segments[0].kind.lower()}",
                    chunk=index,
                    segments=len(chunk.segments),
                ):
                    chunk.run(ctx, buffer)
            else:
                chunk.run(ctx, buffer)

        filled: List[int] = []            # chunk indices with a mat: task, in order
        for i, chunk in enumerate(chunks):
            buffer = None
            if chunk.total_elems:
                buffer = buffers[len(filled) % num_buffers]
                add(f"mat:{i}", "MAT", float(chunk.total_elems),
                    lambda c=chunk, b=buffer, i=i: run_mat(c, b, i))
                filled.append(i)
            add(f"exec:{i}", chunk.segments[0].kind, chunk.flops_per_rhs * num_rhs,
                lambda c=chunk, b=buffer, i=i: run_exec(c, b, i))

        graph.add_dependency("N2S", "S2N")
        for m, i in enumerate(filled):
            graph.add_dependency(f"mat:{i}", f"exec:{i}")
            if m >= num_buffers:
                graph.add_dependency(f"exec:{filled[m - num_buffers]}", f"mat:{i}")
        for i in range(1, len(chunks)):
            graph.add_dependency(f"exec:{i - 1}", f"exec:{i}")
        if num_s2s > 0:
            graph.add_dependency("N2S", "exec:0")
            graph.add_dependency(f"exec:{num_s2s - 1}", "S2N")
        if num_s2s < len(chunks):
            graph.add_dependency("S2N", f"exec:{num_s2s}")
        graph.validate()
        return graph, payloads


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------

def _targets(tree) -> Tuple[list, list]:
    """``(far, near)``: every target with its interaction partners.

    Far: nodes with a skeleton and the partners of their Far list that have
    one.  Near: non-empty leaves and the non-empty leaves of their Near list.
    """
    far = []
    for node in tree.nodes:
        if node.skeleton_rank == 0:
            continue
        pairs = [alpha for alpha in map(tree.node, node.far) if alpha.skeleton_rank > 0]
        if pairs:
            far.append((node, pairs))
    near = []
    for leaf in tree.leaves:
        if leaf.size == 0:
            continue
        pairs = [alpha for alpha in map(tree.node, leaf.near) if alpha.size > 0]
        if pairs:
            near.append((leaf, pairs))
    return far, near


def pair_waves(pairs) -> List[List[Tuple[int, int]]]:
    """The fill schedule of one pass: a first-fit edge colouring of its pairs.

    ``pairs`` are unordered node pairs ``(a, b)``, ``a <= b`` (a diagonal
    pair is ``(a, a)``).  Taken in lexicographic order, each joins the
    first wave in which neither endpoint appears yet, so no node appears
    twice in a wave and a maximum degree of Δ takes at most 2Δ − 1 waves.
    A pure function of the lists: chunk budget, rank padding and caching
    do not move it.
    """
    waves: List[List[Tuple[int, int]]] = []
    busy: Dict[int, set] = {}
    for a, b in sorted(set(pairs)):
        taken = busy.setdefault(a, set()) | busy.setdefault(b, set())
        wave = next(w for w in range(len(waves) + 1) if w not in taken)
        if wave == len(waves):
            waves.append([])
        waves[wave].append((a, b))
        busy[a].add(wave)
        busy[b].add(wave)
    return waves


def _wave_groups(targets: List[tuple], fill: set, provider, shape_of) -> List[tuple]:
    """Wave-major, shape-sorted ``(wave, (shape, mirrored), members)`` groups of one pass.

    ``targets`` are every target of the pass with its partners (the waves
    come from all of them); ``fill`` names the ``(target, source)`` items
    that fill chunks.  A pair folds — one ``(min, max)`` block, applied both ways —
    when both of its directions are fill items and the provider caches
    neither; otherwise each fill direction is a one-sided ``(target,
    source)`` member of the same wave.  Each target therefore receives its
    contributions in wave order, whatever the grouping.
    """
    nodes: Dict[int, object] = {}
    listed: set = set()
    for target, partners in targets:
        nodes[target.node_id] = target
        for partner in partners:
            nodes[partner.node_id] = partner
            listed.add((target.node_id, partner.node_id))
    groups: List[tuple] = []
    for j, wave in enumerate(pair_waves((min(key), max(key)) for key in listed)):
        by_shape: Dict[tuple, list] = {}
        for a, b in wave:
            directions = {(a, b), (b, a)}
            items = sorted(key for key in directions if key in fill)
            folds = len(items) == 2 and not any(key in provider for key in items)
            for t, s in items[:1] if folds else items:
                group = by_shape.setdefault((shape_of(nodes[t], nodes[s]), folds), [])
                group.append((nodes[t], nodes[s]))
        groups.extend((j, key, members) for key, members in sorted(by_shape.items()))
    return groups


def _fill_chunks(kind, targets, fill, shape_of, make_segment, provider, budget_elems) -> List[StreamChunk]:
    """The wave-major fill chunks of the ``fill`` items of one pass.

    One segment per wave group, split along the batch dimension to the
    chunk budget (a subset of a wave keeps its targets disjoint), its cache
    split bound once, then packed greedily into chunks.
    """
    if not fill:
        return []
    segments: List[StreamSegment] = []
    for wave, (shape, mirrored), members in _wave_groups(targets, fill, provider, shape_of):
        step = max(1, budget_elems // max(shape[0] * shape[1], 1))
        for start in range(0, len(members), step):
            segment = make_segment(kind, shape, members[start : start + step], mirrored, wave)
            segment.bind_cache(provider)
            segments.append(segment)
    return _pack_chunks(segments, budget_elems)


class _S2SSegmentFactory:
    """Builds S2S stream segments (skeleton blocks, workspace gather/scatter)."""

    def __init__(self, skel_offset: np.ndarray) -> None:
        self.skel_offset = skel_offset

    def __call__(
        self, kind: str, shape: tuple[int, int], members: list, mirrored: bool, wave: int
    ) -> StreamSegment:
        s, k = shape
        offset = self.skel_offset
        src = np.stack([np.arange(offset[a.node_id], offset[a.node_id] + k) for _, a in members])
        dst = np.stack([np.arange(offset[b.node_id], offset[b.node_id] + s) for b, _ in members])
        return StreamSegment(
            kind,
            shape,
            keys=[(b.node_id, a.node_id) for b, a in members],
            rows=[b.skeleton for b, _ in members],
            cols=[a.skeleton for _, a in members],
            src=src,
            dst=dst,
            mirrored=mirrored,
            wave=wave,
        )


def _l2l_segment(
    kind: str, shape: tuple[int, int], members: list, mirrored: bool, wave: int
) -> StreamSegment:
    """Builds an L2L stream segment (leaf blocks, global gather/scatter)."""
    return StreamSegment(
        kind,
        shape,
        keys=[(b.node_id, a.node_id) for b, a in members],
        rows=[b.indices for b, _ in members],
        cols=[a.indices for _, a in members],
        mirrored=mirrored,
        wave=wave,
    )


def _planned(segments: list) -> List[PlannedChunk]:
    return [PlannedChunk(segments)] if segments else []


def _pack_chunks(segments: List[StreamSegment], budget_elems: int) -> List[StreamChunk]:
    """Greedy packing of consecutive segments into chunks whose buffers fit the budget."""
    chunks: List[StreamChunk] = []
    current: List[StreamSegment] = []
    current_elems = 0
    for segment in segments:
        if current and current_elems + segment.elems > budget_elems:
            chunks.append(StreamChunk(current))
            current, current_elems = [], 0
        current.append(segment)
        current_elems += segment.elems
    if current:
        chunks.append(StreamChunk(current))
    return chunks


def build_streaming_plan(compressed, bucketing: str = "none") -> StreamingPlan:
    """Build the evaluation plan of a compressed matrix.

    ``bucketing`` pads the layout's ranks (:func:`~repro.core.plan.pad_ranks`);
    the default exact packing keeps the GEMM shapes — and the bits — of the
    per-node oracle.  Cached work becomes planned chunks, which lead their
    stage so the fill chunks' materialization overlaps them: S2S targets
    whose far blocks are all cached, packed as block-rows, and L2L on the
    near cache's intact row slabs.  Everything else is split into
    wave-major fill chunks; their S2S segments address the real ranks
    inside padded offsets, which is exact because padding rows are zero.
    """
    config = compressed.config
    layout = build_pass_layout(compressed, bucketing)
    # The chunk budget is split across twice the pipeline's cycling buffers
    # so all in-flight chunks together stay within half of
    # streaming_chunk_bytes (one block minimum per chunk) — halving the
    # chunk size costs nothing once the pipeline is saturated, and the
    # finer granularity both smooths the materialize/execute overlap and
    # leaves headroom for the batch evaluator's transient temporaries
    # inside the configured budget.
    chunk_bytes = int(getattr(config, "streaming_chunk_bytes", 32 * 2**20))
    budget_elems = max(1, chunk_bytes // (2 * _PIPELINE_BUFFERS) // 8)

    far_blocks, near_blocks = compressed.far_blocks, compressed.near_blocks
    far_targets, near_targets = _targets(compressed.tree)
    cached = [all((b.node_id, a.node_id) in far_blocks for a in pairs) for b, pairs in far_targets]
    slabs, in_place = intact_row_slabs(compressed)
    packed = _pack_s2s_segments(compressed, layout, [t for t, c in zip(far_targets, cached) if c])
    s2s_fill = {
        (b.node_id, a.node_id) for (b, pairs), c in zip(far_targets, cached) if not c for a in pairs
    }
    s2s_chunks = _planned(packed) + _fill_chunks(
        "S2S", far_targets, s2s_fill, lambda b, a: (b.skeleton_rank, a.skeleton_rank),
        _S2SSegmentFactory(layout.skel_offset), far_blocks, budget_elems,
    )
    l2l_fill = {(b.node_id, a.node_id) for b, pairs in near_targets for a in pairs} - in_place
    l2l_chunks = _planned(slab_segments(compressed, layout, slabs)) + _fill_chunks(
        "L2L", near_targets, l2l_fill, lambda b, a: (b.size, a.size), _l2l_segment,
        near_blocks, budget_elems,
    )
    return StreamingPlan(
        layout=layout,
        s2s_chunks=s2s_chunks,
        l2l_chunks=l2l_chunks,
        near_blocks=near_blocks,
        far_blocks=far_blocks,
        matrix=compressed.matrix,
        chunk_bytes=chunk_bytes,
        stall_timeout=getattr(config, "executor_stall_timeout", None),
    )

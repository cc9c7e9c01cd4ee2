"""Iterative all-nearest-neighbor (ANN) search with randomized projection trees.

GOFMM's sparse correction and importance sampling both need, for every index
``i``, the ``κ`` indices ``j`` with the smallest ``d_ij`` (§2.2, steps 1–3 of
Algorithm 2.2).  Exact all-pairs search costs ``O(N²)`` distance evaluations,
so the paper uses the greedy iterative scheme of [43]:

1. build a *randomized projection tree* — same construction as the metric
   ball tree but with random pivots,
2. inside every leaf, run an exhaustive k-nearest-neighbor search and merge
   the candidates into each index's running neighbor list,
3. repeat with a fresh random tree until the lists stop improving (80 %
   unchanged) or 10 iterations have run.

Each iteration costs ``O(N m)`` distance evaluations (``m`` = leaf size), so
the whole search is ``O(N m · iters)``.

Every iteration runs the same blocked leaf pass: each batch of leaf
distance blocks is stacked, ``argpartition``'d, and merged into the table
by :func:`screened_merge` with no per-row Python.  With
``config.neighbor_workers > 1`` the iterations' leaf passes are fanned out
in waves over a thread pool that writes candidates into preallocated
arrays; the caller still merges iterations strictly in seed order and
applies the convergence check after each one, so the table is identical
for every worker count.  The rng stream is fixed up front (table fillers,
then one tree seed per iteration from :func:`tree_seed_schedule`), which
is what lets threads take iterations without touching it.  The per-row
merge oracle the tests compare against lives in
``tests/oracles/neighbors_reference.py``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import GOFMMConfig
from .distances import Distance
from .tree import build_tree

__all__ = [
    "NeighborTable",
    "all_nearest_neighbors",
    "exhaustive_neighbors",
    "merge_candidate_block",
    "screened_merge",
    "leaf_candidate_batches",
    "row_set_overlap",
    "unchanged_fraction",
    "init_table",
    "tree_seed_schedule",
]

#: Workspace cap (bytes) on one stacked leaf-distance block of the leaf
#: pass — bounds peak memory at large n without changing any result
#: (leaf batches touch disjoint table rows, so batch boundaries are free).
LEAF_BATCH_BYTES = 64 * 2**20


@dataclass
class NeighborTable:
    """Per-index nearest-neighbor lists N(i).

    Attributes
    ----------
    indices:
        ``(N, κ)`` array; row ``i`` holds the global indices of the κ current
        best neighbors of ``i`` (including ``i`` itself, which always has
        distance 0).
    distances:
        ``(N, κ)`` matching distances, sorted ascending per row.
    iterations:
        number of projection-tree iterations actually performed.
    converged:
        whether the 80 %-unchanged stopping criterion fired before the
        iteration cap.
    """

    indices: np.ndarray
    distances: np.ndarray
    iterations: int
    converged: bool

    @property
    def kappa(self) -> int:
        return self.indices.shape[1]

    def neighbors_of(self, i: int) -> np.ndarray:
        return self.indices[i]

    def recall_against(self, exact: "NeighborTable") -> float:
        """Fraction of exact neighbors recovered (used by tests / diagnostics)."""
        total = self.indices.shape[0] * self.indices.shape[1]
        hits = int(row_set_overlap(self.indices, exact.indices).sum())
        return hits / total


def row_set_overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row ``|set(a_i) ∩ set(b_i)|`` for two ``(n, k)`` nonnegative int arrays.

    Vectorized replacement for a per-row ``np.intersect1d`` loop: each row
    is offset into its own disjoint value range (``row · bound``), after
    which row-sorted copies of both arrays are globally sorted end to end
    and one ``searchsorted`` answers every membership query at once.
    Duplicate values within a row count once, matching set semantics.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"row_set_overlap needs equal shapes, got {a.shape} vs {b.shape}")
    if a.size == 0:
        return np.zeros(a.shape[0], dtype=np.intp)
    bound = int(max(a.max(), b.max())) + 1
    offsets = np.arange(a.shape[0], dtype=np.int64)[:, None] * bound
    a_off = np.sort(a.astype(np.int64) + offsets, axis=1)
    b_off = np.sort(b.astype(np.int64) + offsets, axis=1)
    distinct = np.ones(a.shape, dtype=bool)
    distinct[:, 1:] = a_off[:, 1:] != a_off[:, :-1]
    flat_b = b_off.ravel()  # globally sorted: offsets dominate row values
    flat_a = a_off.ravel()
    pos = np.searchsorted(flat_b, flat_a)
    member = np.zeros(flat_a.size, dtype=bool)
    inside = pos < flat_b.size
    member[inside] = flat_b[pos[inside]] == flat_a[inside]
    return (member.reshape(a.shape) & distinct).sum(axis=1).astype(np.intp)


def unchanged_fraction(previous: np.ndarray, current: np.ndarray) -> float:
    """Mean per-row *set* overlap between two index tables, in ``[0, 1]``.

    The convergence measure of the iterative search.  An earlier version
    compared ``np.sort(previous) == np.sort(current)`` elementwise, which
    counts positional matches of the sorted rows: a row that swaps a
    single neighbor shifts the sorted order and can nevertheless score
    mostly "unchanged" (or, conversely, one insertion can misalign and
    undercount every later column).  Set overlap is what the stopping
    rule of Algorithm 2.2 means; the regression tests pin this.
    """
    kappa = current.shape[1]
    if kappa == 0:
        return 1.0
    # Integer sum first, one float division last: the driver's incremental
    # convergence bookkeeping (overlap of merged rows + κ per skipped row)
    # must land on the bitwise-same fraction, which exact integer
    # accumulation guarantees and a float mean of per-row fractions would not.
    total = int(row_set_overlap(previous, current).sum())
    return total / (current.shape[0] * kappa)


def init_table(n: int, kappa: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The initial neighbor table: self at distance 0 plus random fillers.

    Filler distances are unknown and marked ``+inf`` so anything real
    wins.  The driver and the test oracle both initialize through this
    helper (one ``(n, κ-1)`` draw), keeping their rng streams identical.
    """
    idx_table = np.empty((n, kappa), dtype=np.intp)
    dist_table = np.full((n, kappa), np.inf, dtype=np.float64)
    idx_table[:, 0] = np.arange(n)
    dist_table[:, 0] = 0.0
    if kappa > 1:
        idx_table[:, 1:] = rng.integers(0, n, size=(n, kappa - 1))
    return idx_table, dist_table


def tree_seed_schedule(rng: np.random.Generator, count: int) -> list[int]:
    """Per-iteration projection-tree seeds, drawn up front.

    One scalar draw per tree, in iteration order.  Materializing the
    schedule before any tree is built is what lets the driver hand
    iterations to worker threads without the worker count ever touching the
    rng stream.
    """
    return [int(rng.integers(np.iinfo(np.int64).max)) for _ in range(count)]


def merge_candidate_block(
    table_idx: np.ndarray,
    table_dist: np.ndarray,
    rows: np.ndarray,
    cand_idx: np.ndarray,
    cand_dist: np.ndarray,
    row_chunk: int = 65536,
) -> None:
    """Merge per-row candidate lists into the global table — no per-row Python.

    ``rows`` are the (distinct) global indices being updated; ``cand_idx``
    / ``cand_dist`` hold each row's candidates.  Bit-for-bit equivalent to
    merging row by row with the per-row oracle (``_merge_candidates`` in
    ``tests/oracles/neighbors_reference.py``).  Its tie-breaking is: dedup
    keeps the smallest ``(distance, position)`` occurrence per index,
    selection orders by ``(distance, position)``, and short rows pad by
    repeating the last entry.  All three rules are reproduced with four
    stable per-row ``argsort`` passes over the ``(rows, κ + k)`` concatenation —
    order by ``(distance, position)``, then by index to make duplicates
    adjacent, keep each index's first occurrence, then order the
    survivors back by ``(distance, position)``; dropped duplicates are
    re-keyed strictly after every real entry so they only ever surface as
    padding, which is then rewritten to the oracle's repeat-last-entry
    form.  Large updates are processed in row chunks to bound workspace.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size > row_chunk:
        for start in range(0, rows.size, row_chunk):
            stop = start + row_chunk
            merge_candidate_block(
                table_idx, table_dist, rows[start:stop], cand_idx[start:stop], cand_dist[start:stop]
            )
        return

    kappa = table_idx.shape[1]
    width = kappa + cand_idx.shape[1]
    all_idx = np.concatenate([table_idx[rows], cand_idx], axis=1)
    all_dist = np.concatenate([table_dist[rows], cand_dist], axis=1)

    # Order each row by (distance, position); o1's values are the positions.
    o1 = np.argsort(all_dist, axis=1, kind="stable")
    idx1 = np.take_along_axis(all_idx, o1, axis=1)
    dist1 = np.take_along_axis(all_dist, o1, axis=1)
    # Then by index: rows ordered by (index, distance, position), so equal
    # indices are adjacent with their best occurrence first.
    o2 = np.argsort(idx1, axis=1, kind="stable")
    idx2 = np.take_along_axis(idx1, o2, axis=1)
    dist2 = np.take_along_axis(dist1, o2, axis=1)
    pos2 = np.take_along_axis(o1, o2, axis=1)

    keep = np.ones(idx2.shape, dtype=bool)
    keep[:, 1:] = idx2[:, 1:] != idx2[:, :-1]
    # Re-key dropped duplicates after every real entry: +inf distance and a
    # position beyond the row width lose every (distance, position)
    # comparison — including against real +inf-distance fillers.
    dist2 = np.where(keep, dist2, np.inf)
    sel_pos = np.where(keep, pos2, width + pos2)

    # Order survivors by (distance, position) and take the first κ.
    o3 = np.argsort(sel_pos, axis=1, kind="stable")
    dist3 = np.take_along_axis(dist2, o3, axis=1)
    o4 = np.argsort(dist3, axis=1, kind="stable")
    final = np.take_along_axis(o3, o4, axis=1)[:, :kappa]
    out_idx = np.take_along_axis(idx2, final, axis=1)
    out_dist = np.take_along_axis(dist3, o4, axis=1)[:, :kappa]

    # Rows with fewer than κ distinct entries pad by repeating the last one.
    counts = keep.sum(axis=1)
    short = counts < kappa
    if np.any(short):
        src = np.minimum(np.arange(kappa)[None, :], counts[short, None] - 1)
        out_idx[short] = np.take_along_axis(out_idx[short], src, axis=1)
        out_dist[short] = np.take_along_axis(out_dist[short], src, axis=1)

    table_idx[rows] = out_idx
    table_dist[rows] = out_dist


#: Reusable stamp workspace for :func:`_membership_scan`.  Allocated once
#: (lazily, to the largest ``chunk·n`` seen) and cleared incrementally —
#: only the slots a chunk actually stamped are reset — so the scan costs
#: O(rows·(κ+k)) scattered accesses with no per-call allocation of the
#: O(chunk·n) array.  Not thread-safe: only the merge uses it, and the
#: merge runs on the search's calling thread (the worker threads compute
#: candidates, never merge them).
#: Stamp-array span per chunk.  Sized to stay cache-resident: each chunk's
#: span is walked four times (scatter, verify, gather, clear), so keeping it
#: within the last-level cache beats amortizing the Python loop over fewer,
#: larger chunks.  The floor bounds the per-chunk numpy overhead when a
#: single row's span is already bigger than the budget.
_SCAN_BUDGET_ELEMENTS = 2**21  # 4 MiB of int16 stamps
_SCAN_MIN_CHUNK_ROWS = 256
_SCAN_SCRATCH: Optional[np.ndarray] = None
_DISTINCT_SCRATCH: Optional[np.ndarray] = None


def _membership_scan(
    n: int, cur_idx: np.ndarray, cand_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each candidate, the column of its stored twin (or −1 if absent).

    Rows are processed in chunks; within a chunk, row ``r`` owns the span
    ``[r·n, (r+1)·n)`` of the stamp array, so one scatter of each row's
    table columns followed by one gather at the candidates' positions
    answers every membership query at once — the numpy equivalent of a
    per-row perfect hash.  A duplicated table entry overwrites its earlier
    occurrence's stamp, so a self-gather mismatch flags exactly the rows
    that still carry duplicates.

    Returns ``(col_of, distinct)`` where ``col_of`` is ``(m, k)`` stored-twin
    columns and ``distinct`` is an ``(m,)`` view into reusable scratch
    (consume it before the next call).
    """
    global _SCAN_SCRATCH, _DISTINCT_SCRATCH
    m, kappa = cur_idx.shape
    # Column stamps must fit the dtype; fall back to int32 for huge κ.
    dtype = np.int16 if kappa <= np.iinfo(np.int16).max else np.int32
    chunk = min(m, max(_SCAN_MIN_CHUNK_ROWS, _SCAN_BUDGET_ELEMENTS // max(1, n)))
    need = chunk * n
    if _SCAN_SCRATCH is None or _SCAN_SCRATCH.size < need or _SCAN_SCRATCH.dtype != dtype:
        _SCAN_SCRATCH = np.full(need, -1, dtype=dtype)
    if _DISTINCT_SCRATCH is None or _DISTINCT_SCRATCH.size < m:
        _DISTINCT_SCRATCH = np.empty(max(m, 1024), dtype=bool)
    ws = _SCAN_SCRATCH
    cols = np.arange(kappa, dtype=dtype)
    col_of = np.empty(cand_idx.shape, dtype=np.intp)
    for start in range(0, m, chunk):
        stop = min(m, start + chunk)
        base = (np.arange(stop - start, dtype=np.intp) * n)[:, None]
        flat_cur = cur_idx[start:stop] + base
        ws[flat_cur] = cols
        _DISTINCT_SCRATCH[start:stop] = (ws[flat_cur] == cols).all(axis=1)
        col_of[start:stop] = ws[cand_idx[start:stop] + base]
        ws[flat_cur] = -1  # incremental clear: leave the scratch all −1
    return col_of, _DISTINCT_SCRATCH[:m]


def screened_merge(
    table_idx: np.ndarray,
    table_dist: np.ndarray,
    rows: np.ndarray,
    cand_idx: np.ndarray,
    cand_dist: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Screen-then-merge: the leaf pass's fast path into the table.

    One membership pass over the candidates answers two questions at once:

    1. *Which rows can change at all?*  Against a row whose κ entries are
       distinct, a candidate ``(c, d)`` is **inert** iff ``c`` is already
       stored with distance ``s ≤ d`` (the dedup keeps the earlier, i.e.
       stored, occurrence on ties and the smaller distance otherwise) or
       ``c`` is absent and ``d ≥`` the row's largest stored distance (the
       stable ``(distance, position)`` selection seats all κ stored
       entries ahead of it).  Rows with only inert candidates are skipped
       — bitwise-unchanged under the per-row oracle merge — which is what
       makes late, nearly-converged iterations cheap.

    2. *Who wins each stored/candidate duplicate pair?*  For the rows that
       do change, the membership verdicts already encode the oracle's
       dedup: losing candidates (stored twin at ``s ≤ d``) and beaten
       stored entries (candidate at ``d < s``) are re-keyed to ``NaN``
       distance, after which a **single** stable argsort of the
       ``(κ + k)``-wide concatenation reproduces the oracle's
       ``(distance, position)`` selection order exactly — stable sort
       ranks NaNs after every finite and ``+inf`` entry, in position
       order, precisely the re-keying :func:`merge_candidate_block` builds
       with four argsorts.  Rows that still carry duplicate entries
       (random ``+inf`` fillers may collide until κ distinct neighbors
       have been seen) take the general :func:`merge_candidate_block`
       path, which re-deduplicates the row itself; so do rows whose
       candidates repeat an index that is not inert.  Inert repeats (the
       thread waves pad short leaves with the row's own index at ``+inf``)
       are never seated and keep the fast path.

    Precondition (both merge sources satisfy it by construction): table rows
    are sorted ascending by distance.

    Returns ``(touched, overlap)``: the global indices of the rows actually
    merged (a superset of the rows that changed) and the integer
    :func:`row_set_overlap` sum between those rows' previous and merged
    contents.  A skipped row is distinct and untouched — its overlap with
    its previous self is exactly κ — so the caller reconstructs the full
    table's convergence fraction as ``(overlap + (len(rows) − len(touched)) · κ)
    / (len(rows) · κ)``, bitwise equal to :func:`unchanged_fraction` without
    rescanning the table.  For the fast-path rows even the overlap is a
    byproduct of the merge: every selected entry except a selected
    *non-member* candidate carries an index the row already had, so the
    overlap is κ minus the count of those.  The first merge, into a fresh
    :func:`init_table`, is screened too: its rows are sorted (self at 0,
    fillers at ``+inf``) and rows whose random fillers collide are not
    distinct, so they take the general path.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size == 0:
        return rows, 0

    kappa = table_idx.shape[1]
    cur_idx = table_idx[rows]
    cur_dist = table_dist[rows]

    # Stamp-array membership: each chunk row owns a disjoint span of a
    # reusable scratch array; scattering a row's table columns into its span
    # and gathering at the candidates' positions answers membership, yields
    # the stored twin's column, and (via overwrite detection) flags rows
    # that still carry duplicate entries — all in O(m·(κ+k)) gathers.
    col_of, distinct = _membership_scan(table_idx.shape[0], cur_idx, cand_idx)
    member = col_of >= 0
    stored = np.take_along_axis(cur_dist, np.maximum(col_of, 0), axis=1)
    distinct_full = distinct.copy()  # scratch view: detach before more numpy work

    # Rows are sorted ascending, so the last column is the stored maximum.
    row_max = cur_dist[:, -1][:, None]
    inert = np.where(member, cand_dist >= stored, cand_dist >= row_max)
    affected = ~distinct_full | ~inert.all(axis=1)

    # Two copies of one index that both beat the row would both be seated
    # by the single sort below, so rows repeating a non-inert candidate take
    # the general path too.  Inert candidates get distinct negative keys:
    # their repeats (a short leaf's self padding) are never seated.
    fast = affected & distinct_full
    if np.any(fast):
        keys = np.where(inert[fast], -1 - np.arange(cand_idx.shape[1]), cand_idx[fast])
        keys.sort(axis=1)
        fast[np.flatnonzero(fast)[(keys[:, 1:] == keys[:, :-1]).any(axis=1)]] = False

    overlap = 0
    general = affected & ~fast
    if np.any(general):
        merge_candidate_block(
            table_idx, table_dist, rows[general], cand_idx[general], cand_dist[general]
        )
        # cur_idx is a fancy-indexing copy, i.e. the pre-merge contents.
        overlap += int(row_set_overlap(cur_idx[general], table_idx[rows[general]]).sum())

    if np.any(fast):
        if fast.all():
            # Every row takes the fast path (the common case while the
            # table is still improving): skip the boolean-subset copies.
            member_f, inert_f, col_f = member, inert, col_of
            cand_dist_f = cand_dist.copy()  # the caller's array: do not scribble
            cur_dist_f = cur_dist  # fancy-indexing copy: ours to mutate
            cur_idx_f, cand_idx_f, rows_f = cur_idx, cand_idx, rows
        else:
            member_f, inert_f, col_f = member[fast], inert[fast], col_of[fast]
            cand_dist_f = cand_dist[fast]  # fancy indexing: already a copy
            cur_dist_f = cur_dist[fast]
            cur_idx_f, cand_idx_f, rows_f = cur_idx[fast], cand_idx[fast], rows[fast]
        cand_dist_f[member_f & inert_f] = np.nan  # losing candidates
        winners = member_f & ~inert_f
        win_r, win_j = np.nonzero(winners)
        cur_dist_f[win_r, col_f[win_r, win_j]] = np.nan  # beaten stored entries

        comb_idx = np.concatenate([cur_idx_f, cand_idx_f], axis=1)
        comb_dist = np.concatenate([cur_dist_f, cand_dist_f], axis=1)
        sel = np.argsort(comb_dist, axis=1, kind="stable")[:, :kappa]
        table_idx[rows_f] = np.take_along_axis(comb_idx, sel, axis=1)
        table_dist[rows_f] = np.take_along_axis(comb_dist, sel, axis=1)

        # Overlap with the previous row contents, for free: selected stored
        # entries and selected member candidates keep indices the row had.
        sel_is_cand = sel >= kappa
        new_member = np.take_along_axis(member_f, np.where(sel_is_cand, sel - kappa, 0), axis=1)
        fresh = int((sel_is_cand & ~new_member).sum())
        overlap += rows_f.size * kappa - fresh

    return rows[affected], overlap


def leaf_candidate_batches(
    leaves: list[np.ndarray],
    distance: Distance,
    kappa: int,
    workspace_bytes: int = LEAF_BATCH_BYTES,
):
    """Per-leaf κ-NN candidates for many leaves at once (task ANN(α), batched).

    Yields ``(rows, cand_idx, cand_dist)`` triples ready for
    :func:`merge_candidate_block`: leaves are grouped by size (the median
    splits keep sizes within one of each other, so there are at most two
    groups per tree), stacked under the workspace budget, and each stack
    gets one ``argpartition`` over its ``(batch, L, L)`` distance block.
    Per-slice ``argpartition`` results equal the per-leaf 2-D calls of the
    per-row oracle, so downstream merges see identical candidates in
    identical order.
    """
    by_size: dict[int, list[np.ndarray]] = {}
    for leaf in leaves:
        by_size.setdefault(leaf.size, []).append(leaf)
    for size, group in sorted(by_size.items()):
        if size == 0:
            continue
        k_local = min(kappa, size)
        batch = max(1, int(workspace_bytes // (size * size * 8)))
        for start in range(0, len(group), batch):
            chunk = group[start : start + batch]
            stacked = np.stack(chunk)  # (B, L) global indices
            dists = distance.pairwise_blocks(stacked, stacked)
            part = np.argpartition(dists, kth=k_local - 1, axis=2)[:, :, :k_local]
            cand_dist = np.take_along_axis(dists, part, axis=2)
            cand_idx = stacked[np.arange(len(chunk))[:, None, None], part]
            flat = len(chunk) * size
            yield (
                stacked.reshape(flat),
                cand_idx.reshape(flat, k_local),
                cand_dist.reshape(flat, k_local),
            )


def exhaustive_neighbors(distance: Distance, kappa: int, chunk: int = 1024) -> NeighborTable:
    """Exact κ-NN by brute force (O(N²) distances) — the reference for tests."""
    n = distance.n
    kappa = min(kappa, n)
    all_idx = np.arange(n, dtype=np.intp)
    idx_out = np.empty((n, kappa), dtype=np.intp)
    dist_out = np.empty((n, kappa), dtype=np.float64)
    for start in range(0, n, chunk):
        rows = all_idx[start : start + chunk]
        d = distance.pairwise(rows, all_idx)
        part = np.argpartition(d, kth=kappa - 1, axis=1)[:, :kappa]
        part_dist = np.take_along_axis(d, part, axis=1)
        order = np.argsort(part_dist, axis=1, kind="stable")
        idx_out[rows] = np.take_along_axis(part, order, axis=1)
        dist_out[rows] = np.take_along_axis(part_dist, order, axis=1)
    return NeighborTable(indices=idx_out, distances=dist_out, iterations=0, converged=True)


def all_nearest_neighbors(
    distance: Distance,
    config: GOFMMConfig,
    rng: np.random.Generator | None = None,
) -> NeighborTable:
    """Iterative randomized-projection-tree ANN search (steps 1–3 of Algorithm 2.2).

    Initializes the table, draws the seed schedule, then per iteration
    merges that tree's leaf candidates with :func:`screened_merge` and
    applies the set-overlap convergence check.  A merge reports
    ``(touched, overlap)``: how many rows it merged and their integer
    :func:`row_set_overlap` sum against their previous contents.  Skipped
    rows are bitwise-untouched distinct rows contributing exactly κ each,
    so the reconstructed fraction equals the full-table
    :func:`unchanged_fraction` bit for bit.
    """
    n = distance.n
    kappa = min(config.neighbors, n)
    rng = rng or np.random.default_rng(config.seed)

    if n <= config.leaf_size or config.num_neighbor_trees == 0:
        # A single leaf: one exhaustive pass is already exact.
        table = exhaustive_neighbors(distance, kappa)
        return NeighborTable(table.indices, table.distances, iterations=1, converged=True)

    idx_table, dist_table = init_table(n, kappa, rng)
    seeds = tree_seed_schedule(rng, config.num_neighbor_trees)
    iterations = 0
    converged = False
    with closing(_iteration_candidates(distance, config, seeds, kappa)) as passes:
        for batches in passes:
            iterations += 1
            touched = overlap = 0
            for rows, cand_idx, cand_dist in batches:
                merged, part = screened_merge(idx_table, dist_table, rows, cand_idx, cand_dist)
                touched += merged.size
                overlap += part
            unchanged = (overlap + (n - touched) * kappa) / (n * kappa)
            if unchanged >= config.neighbor_accuracy_target and iterations > 1:
                converged = True
                break
    return NeighborTable(
        indices=idx_table, distances=dist_table, iterations=iterations, converged=converged
    )


def _projection_leaves(distance: Distance, config: GOFMMConfig, seed: int) -> list[np.ndarray]:
    """The leaf index sets of one iteration's randomized projection tree."""
    tree = build_tree(
        distance.n, config, distance, rng=np.random.default_rng(seed), randomized_pivots=True
    )
    return [leaf.indices for leaf in tree.leaves]


def _iteration_candidates(distance: Distance, config: GOFMMConfig, seeds: list[int], kappa: int):
    """Per iteration, in seed order, the ``(rows, cand_idx, cand_dist)`` batches to merge.

    Iterations go out in thread waves when ``neighbor_workers > 1`` and
    there is more than one tree; otherwise each runs on the caller's
    thread when the merge asks for it.
    """
    if config.neighbor_workers > 1 and len(seeds) > 1:
        yield from _threaded_waves(distance, config, seeds, kappa)
        return
    for seed in seeds:
        yield leaf_candidate_batches(_projection_leaves(distance, config, seed), distance, kappa)


def _leaf_candidates_into(
    leaves: list[np.ndarray],
    distance: Distance,
    idx_out: np.ndarray,
    dist_out: np.ndarray,
) -> None:
    """Write the κ-NN candidates of ``leaves`` into their rows of one table slot.

    Unused candidate columns of short leaves are padded with the row's
    own index at distance ``+inf``, which the merge discards for free (the
    row's self entry at distance 0 always wins the dedup).  Leaves own
    disjoint rows, so any split of one tree's leaves writes the same slot.
    """
    kappa = idx_out.shape[1]
    for rows, cand_idx, cand_dist in leaf_candidate_batches(leaves, distance, kappa):
        k_local = cand_idx.shape[1]
        idx_out[rows, :k_local] = cand_idx
        dist_out[rows, :k_local] = cand_dist
        if k_local < kappa:
            idx_out[rows, k_local:] = rows[:, None]
            dist_out[rows, k_local:] = np.inf


def _threaded_waves(distance: Distance, config: GOFMMConfig, seeds: list[int], kappa: int):
    """Run iterations in waves of ``neighbor_workers`` on a thread pool.

    A wave builds each of its iterations' projection trees once (one task
    per tree), then splits every tree's leaves into chunks so a partial
    wave still occupies every thread; the chunks write candidates into a
    preallocated ``(wave, n, κ)`` pair of arrays.  Each iteration's slot
    is yielded as one whole-table batch, in seed order; a slot is only
    rewritten by the next wave, after the caller has merged it.
    """
    n = distance.n
    workers = config.neighbor_workers
    wave = min(workers, len(seeds))
    idx_out = np.empty((wave, n, kappa), dtype=np.intp)
    dist_out = np.empty((wave, n, kappa), dtype=np.float64)
    all_rows = np.arange(n, dtype=np.intp)
    with ThreadPoolExecutor(workers, thread_name_prefix="gofmm-neighbors") as pool:
        for start in range(0, len(seeds), wave):
            batch = seeds[start : start + wave]
            trees = list(pool.map(lambda seed: _projection_leaves(distance, config, seed), batch))
            chunks = max(1, workers // len(batch))
            fills = [
                pool.submit(
                    _leaf_candidates_into, leaves[chunk::chunks], distance, idx_out[slot], dist_out[slot]
                )
                for slot, leaves in enumerate(trees)
                for chunk in range(chunks)
            ]
            for fill in fills:
                fill.result()
            for slot in range(len(batch)):
                yield [(all_rows, idx_out[slot], dist_out[slot])]

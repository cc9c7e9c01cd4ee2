"""Interpolative decomposition (ID) via rank-revealing pivoted QR.

GOFMM's skeletonization (§2.2, Eq. (7)) approximates a sampled off-diagonal
block ``A = K_{I'β}`` of shape ``(p, n)`` by a column ID

    A ≈ A[:, skeleton] @ P,

where ``skeleton`` is a subset of ``s`` column indices (the *skeletons* β̃)
and ``P`` is an ``s × n`` interpolation matrix whose restriction to the
skeleton columns is the identity.  The skeletons are the first ``s`` pivots
of a pivoted QR factorization (LAPACK GEQP3); ``P`` is obtained from a
triangular solve with the leading ``s × s`` block of ``R`` (TRSM).

The rank ``s`` is chosen adaptively: the diagonal of ``R`` is a cheap proxy
for the singular values of ``A``, and we truncate at the first diagonal
entry falling below ``tolerance`` relative to the largest one (matching the
paper's ``σ_{s+1}(K_{I'β}) < τ`` criterion on the sampled block).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

__all__ = [
    "InterpolativeDecomposition",
    "interpolative_decomposition",
    "batched_interpolative_decomposition",
    "id_reconstruction",
]


@dataclass(frozen=True)
class InterpolativeDecomposition:
    """Result of a column interpolative decomposition ``A ≈ A[:, skeleton] @ coeffs``.

    Attributes
    ----------
    skeleton:
        integer array of ``rank`` column indices into the original matrix.
    coeffs:
        ``(rank, n)`` interpolation matrix ``P``.  ``P[:, skeleton]`` is (up
        to round-off) the identity.
    rank:
        the selected rank ``s``.
    diag_r:
        absolute values of the diagonal of the pivoted-QR ``R`` factor —
        useful as singular-value estimates for diagnostics.
    """

    skeleton: np.ndarray
    coeffs: np.ndarray
    rank: int
    diag_r: np.ndarray

    def reconstruct(self, columns: np.ndarray) -> np.ndarray:
        """Reconstruct ``A`` from its skeleton columns: ``columns @ coeffs``."""
        return np.asarray(columns) @ self.coeffs


def _select_rank(diag_r: np.ndarray, tolerance: float, max_rank: int, relative: bool) -> int:
    """Pick the adaptive rank from |diag(R)| of a pivoted QR.

    Keeps pivots while ``|r_kk|`` stays above ``tolerance`` (relative to
    ``|r_00|`` when ``relative`` is true), capped at ``max_rank``.  At least
    one pivot is always kept when the matrix is nonzero.
    """
    if diag_r.size == 0:
        return 0
    scale = diag_r[0] if relative else 1.0
    if scale <= 0.0 or not np.isfinite(scale):
        return 0
    keep = np.nonzero(diag_r >= tolerance * scale)[0]
    if keep.size == 0:
        rank = 1 if diag_r[0] > 0.0 else 0
    else:
        rank = int(keep[-1]) + 1
    return int(min(rank, max_rank, diag_r.size))


def interpolative_decomposition(
    matrix: np.ndarray,
    max_rank: int,
    tolerance: float = 0.0,
    adaptive: bool = True,
    relative: bool = True,
) -> InterpolativeDecomposition:
    """Compute a column ID of ``matrix`` with at most ``max_rank`` skeleton columns.

    Parameters
    ----------
    matrix:
        ``(p, n)`` dense array.  Rows are the sampled "observer" indices
        ``I'``, columns are the indices of the node being skeletonized.
    max_rank:
        hard cap ``s`` on the number of skeleton columns.
    tolerance:
        adaptive truncation threshold ``τ`` applied to the diagonal of the
        pivoted-QR ``R`` factor.  Ignored when ``adaptive`` is false.
    adaptive:
        when false, keep exactly ``min(max_rank, n, p)`` columns regardless
        of ``tolerance``.
    relative:
        interpret ``tolerance`` relative to the largest pivot magnitude
        (the paper's behaviour) instead of as an absolute threshold.

    Returns
    -------
    InterpolativeDecomposition
        skeleton indices, interpolation coefficients, selected rank, and the
        pivot magnitudes.
    """
    a = np.ascontiguousarray(matrix, dtype=np.float64)
    p, n = a.shape
    hard_cap = int(min(max_rank, n, p)) if p > 0 else 0
    if n == 0 or p == 0 or hard_cap == 0:
        return InterpolativeDecomposition(
            skeleton=np.empty(0, dtype=np.intp),
            coeffs=np.zeros((0, n)),
            rank=0,
            diag_r=np.empty(0),
        )

    # Rank-revealing QR with column pivoting (GEQP3).  mode="r" avoids
    # forming Q, which we never need.
    r, piv = sla.qr(a, mode="r", pivoting=True, check_finite=False)
    k = min(r.shape[0], n)
    diag_r = np.abs(np.diag(r[:k, :k]))

    if adaptive:
        rank = _select_rank(diag_r, tolerance, hard_cap, relative)
    else:
        rank = hard_cap
    if rank == 0:
        # Zero matrix: represent it with an empty skeleton and zero coeffs.
        return InterpolativeDecomposition(
            skeleton=np.empty(0, dtype=np.intp),
            coeffs=np.zeros((0, n)),
            rank=0,
            diag_r=diag_r,
        )

    r11 = r[:rank, :rank]
    r12 = r[:rank, rank:n]
    # Guard against an exactly singular leading block (can happen when the
    # adaptive rule keeps a pivot that is numerically zero).
    if rank > 0 and np.abs(r11[-1, -1]) <= np.finfo(np.float64).tiny:
        nz = np.nonzero(np.abs(np.diag(r11)) > np.finfo(np.float64).tiny)[0]
        rank = int(nz[-1]) + 1 if nz.size else 0
        if rank == 0:
            return InterpolativeDecomposition(
                skeleton=np.empty(0, dtype=np.intp),
                coeffs=np.zeros((0, n)),
                rank=0,
                diag_r=diag_r,
            )
        r11 = r[:rank, :rank]
        r12 = r[:rank, rank:n]

    if n > rank:
        t = sla.solve_triangular(r11, r12, lower=False, check_finite=False)
    else:
        t = np.zeros((rank, 0))

    # Assemble P in the *original* (unpivoted) column order: the skeleton
    # columns get identity coefficients, the rest get T.
    coeffs = np.zeros((rank, n))
    coeffs[:, piv[:rank]] = np.eye(rank)
    if n > rank:
        coeffs[:, piv[rank:n]] = t

    return InterpolativeDecomposition(
        skeleton=np.asarray(piv[:rank], dtype=np.intp),
        coeffs=coeffs,
        rank=int(rank),
        diag_r=diag_r,
    )


#: Dispatch threshold of :func:`batched_interpolative_decomposition`: the
#: stacked sweep engages for blocks of at most this many elements
#: (~16 KiB).  Small blocks are where per-block LAPACK calls are
#: overhead-bound; larger blocks stay cache-resident inside one GEQP3
#: call but would be re-streamed from memory on every step of a stacked
#: sweep, so they go block by block.
_STACK_MAX_BLOCK_ELEMENTS = 2048


def stacked_sweep_applies(num_blocks: int, rows: int, cols: int) -> bool:
    """Whether :func:`batched_interpolative_decomposition` would use the
    stacked sweep for a bucket of ``num_blocks`` blocks of shape
    ``(rows, cols)``.  Callers can skip building the padded stack when the
    bucket would be dispatched block by block anyway.

    The decision depends only on the block *shape*, never on the bucket
    size: the stacked sweep and GEQP3 resolve floating-point pivot ties
    differently, so a count-based dispatch would let the grouping (how a
    tree level is sliced across threads) leak into the results.  A
    shape-only rule (with the shape-sized interpolation solve of
    :func:`batched_interpolative_decomposition`) is what keeps every
    slicing of the same nodes — whole level, subtree slice, single node —
    bitwise identical, the invariant the subtree fan-out of the
    skeletonization sweep is built on.
    """
    return rows * cols <= _STACK_MAX_BLOCK_ELEMENTS


def _batched_cpqr(
    at: np.ndarray,
    piv: np.ndarray,
    diag: np.ndarray,
    cols_true: np.ndarray,
    steps: int,
    tolerance: float,
    adaptive: bool,
    relative: bool,
) -> int:
    """In-place batched column-pivoted QR on transposed blocks.

    ``at`` has shape ``(g, k, p)`` — every block stored **transposed**, so
    that an original column is one contiguous row and a column swap is a
    single fancy-indexed row swap.  On return ``at[i, c, j]`` holds the
    pivoted ``R`` factor entry ``R[j, c]`` (for ``c >= j``), ``piv`` the
    column pivots, and ``diag`` the pivot magnitudes; the return value is
    the number of steps performed (early-stopped once every block's
    trailing pivot falls below its adaptive threshold).

    Pivots come from downdated partial squared column norms with the
    GEQP3 cancellation safeguard: ``vn2`` remembers each column's squared
    norm at its last exact evaluation, and once the downdated ``vn``
    falls below ``sqrt(eps) * vn2`` the downdate has lost its significant
    digits and the column is re-measured from the (fully updated)
    trailing matrix.  Columns at or beyond ``cols_true[i]`` are zero
    padding: they are masked out of pivot selection until every real
    column of block ``i`` is consumed, so padding can never enter a
    skeleton.
    """
    g, k, p = at.shape
    batch = np.arange(g)
    padded = bool(np.any(cols_true < k))
    real = piv < cols_true[:, None]
    # Squared partial norms: the downdate is then one subtraction, and the
    # LAPACK reliability test ``temp * (vn1/vn2)^2 <= tol3z`` becomes the
    # direct comparison ``vn <= tol3z * vn2``.
    vn = np.einsum("gkp,gkp->gk", at, at)
    vn2 = vn.copy()
    tol3z = np.sqrt(np.finfo(np.float64).eps)
    stop_thresh: np.ndarray | None = None
    j_col = np.empty((g, 2), dtype=np.intp)
    done = 0

    for j in range(steps):
        # -- pivot from downdated squared norms (padded columns masked) -----
        scored = np.where(real[:, j:], vn[:, j:], -1.0) if padded else vn[:, j:]
        col = j + np.argmax(scored, axis=1)
        # one fancy assignment swaps rows j <-> col of every block
        j_col[:, 0] = j
        j_col[:, 1] = col
        col_j = j_col[:, ::-1]
        at[batch[:, None], j_col] = at[batch[:, None], col_j]
        piv[batch[:, None], j_col] = piv[batch[:, None], col_j]
        if padded:
            real[batch[:, None], j_col] = real[batch[:, None], col_j]
        vn[batch[:, None], j_col] = vn[batch[:, None], col_j]
        vn2[batch[:, None], j_col] = vn2[batch[:, None], col_j]

        # -- Householder reflector (LARFG conventions, v0 = 1) --------------
        x = at[:, j, j:]
        xnorm = np.sqrt(np.einsum("gp,gp->g", x, x))
        diag[:, j] = xnorm
        x0 = x[:, 0].copy()
        beta = -np.copysign(xnorm, x0)
        live = xnorm > 0.0
        denom = np.where(live, x0 - beta, 1.0)
        tau = np.where(live, (beta - x0) / np.where(beta != 0.0, beta, 1.0), 0.0)
        v = x / denom[:, None]
        v[:, 0] = 1.0
        at[:, j, j] = np.where(live, beta, x0)
        at[:, j, j + 1 :] = 0.0

        # -- apply the reflection to the trailing columns -------------------
        if j + 1 < k:
            trail = at[:, j + 1 :, j:]
            w = np.matmul(trail, v[:, :, None])[..., 0]
            trail -= (tau[:, None] * w)[:, :, None] * v[:, None, :]

            # Downdate the partial squared norms with the now-final row j of
            # R (= the first entry of every updated trailing row); columns
            # whose downdate cancels catastrophically are re-measured from
            # the (fully updated) trailing matrix.
            vt = vn[:, j + 1 :]
            vt2 = vn2[:, j + 1 :]
            vt -= np.square(at[:, j + 1 :, j])
            unreliable = (vt <= tol3z * vt2) & (vt2 > 0.0)
            np.clip(vt, 0.0, None, out=vt)
            if np.any(unreliable):
                cols = j + 1 + np.unique(np.nonzero(unreliable)[1])
                sub = at[:, cols, j + 1 :]
                fresh = np.einsum("gcp,gcp->gc", sub, sub)
                flagged = unreliable[:, cols - (j + 1)]
                vt[unreliable] = fresh[flagged]
                vt2[unreliable] = fresh[flagged]

        done = j + 1
        if adaptive:
            if stop_thresh is None:
                stop_thresh = tolerance * (diag[:, 0] if relative else np.ones(g))
                # Zero blocks (first pivot 0 → rank 0, threshold 0) count as
                # converged from the start, or one such block would keep the
                # whole bucket sweeping to the step cap.
                converged_at_start = diag[:, 0] <= 0.0
            # diag(R) of a pivoted QR is non-increasing, so the check can
            # run every few steps: extra steps past the stopping point only
            # append below-threshold diag entries, which the per-block rank
            # selection ignores.
            if (j & 3) == 3 and np.all(converged_at_start | (diag[:, j] < stop_thresh)):
                break
    return done


def _empty_id(n: int, diag_r: np.ndarray | None = None) -> InterpolativeDecomposition:
    return InterpolativeDecomposition(
        skeleton=np.empty(0, dtype=np.intp),
        coeffs=np.zeros((0, n)),
        rank=0,
        diag_r=diag_r if diag_r is not None else np.empty(0),
    )


def batched_interpolative_decomposition(
    stack: np.ndarray,
    max_rank: int,
    tolerance: float = 0.0,
    adaptive: bool = True,
    relative: bool = True,
    row_counts: np.ndarray | None = None,
    col_counts: np.ndarray | None = None,
) -> list[InterpolativeDecomposition]:
    """Column IDs of a stack of same-shape (possibly zero-padded) blocks.

    This is the batched entry point behind the ``"batched"`` compression
    backend: ``stack`` is a ``(g, P, K)`` array holding ``g`` sampled
    off-diagonal blocks, each padded with zero rows/columns up to the
    bucket shape ``(P, K)``.  ``row_counts`` / ``col_counts`` give each
    block's true (unpadded) shape; padding never affects the result —
    zero rows contribute nothing to column norms or reflections, and zero
    columns are excluded from pivoting, so block ``i`` receives exactly
    the decomposition :func:`interpolative_decomposition` would produce
    on its unpadded ``(row_counts[i], col_counts[i])`` block, up to
    floating-point summation order.  (On *exactly* rank-deficient blocks
    the two implementations may break the resulting pivot ties
    differently; both decompositions remain equally accurate.)

    The factorization is a batched Businger–Golub pivoted QR over the
    transposed stack: pivots come from downdated partial column norms
    with the GEQP3 cancellation safeguard, every per-step operation is
    one stacked array call instead of ``g`` interpreter-bound LAPACK
    calls, and the sweep stops early once every block's trailing pivot
    falls below its adaptive threshold — at most ``min(max_rank, P, K)``
    steps instead of the full ``min(P, K)`` a per-block GEQP3 performs.
    The interpolation coefficients come from one stacked triangular
    solve (``numpy.linalg.solve`` on the batched, identity-padded
    ``R11``).

    Stacking pays exactly where per-block LAPACK calls are
    overhead-bound: many small blocks.  Large blocks stay cache-resident
    inside a per-block GEQP3 but would be re-streamed from memory on
    every step of a stacked sweep, so buckets of large blocks (or
    near-singleton buckets) are dispatched to
    :func:`interpolative_decomposition` block by block instead — same
    results either way.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError(f"stack must be a (g, P, K) array, got shape {stack.shape}")
    g, p, k = stack.shape
    rows_true = (
        np.full(g, p, dtype=np.intp) if row_counts is None else np.asarray(row_counts, dtype=np.intp)
    )
    cols_true = (
        np.full(g, k, dtype=np.intp) if col_counts is None else np.asarray(col_counts, dtype=np.intp)
    )
    hard_caps = np.minimum(max_rank, np.minimum(rows_true, cols_true))
    steps = int(min(max_rank, p, k))
    if g == 0:
        return []
    if steps <= 0 or p == 0 or k == 0:
        return [_empty_id(int(n)) for n in cols_true]

    if not stacked_sweep_applies(g, p, k):
        return [
            interpolative_decomposition(
                stack[i, : rows_true[i], : cols_true[i]],
                max_rank=max_rank,
                tolerance=tolerance,
                adaptive=adaptive,
                relative=relative,
            )
            for i in range(g)
        ]

    at = np.ascontiguousarray(stack.transpose(0, 2, 1))
    piv = np.tile(np.arange(k), (g, 1))
    diag = np.zeros((g, steps))
    done = _batched_cpqr(at, piv, diag, cols_true, steps, tolerance, adaptive, relative)
    a = at.transpose(0, 2, 1)  # R view: a[i, j, c] = R[j, c] for c >= j
    diag = diag[:, :done]
    tiny = np.finfo(np.float64).tiny

    ranks = np.empty(g, dtype=np.intp)
    for i in range(g):
        if adaptive:
            rank = _select_rank(diag[i], tolerance, int(hard_caps[i]), relative)
        else:
            rank = int(min(hard_caps[i], done))
        if rank > 0 and np.abs(a[i, rank - 1, rank - 1]) <= tiny:
            nz = np.nonzero(np.abs(np.diagonal(a[i, :rank, :rank])) > tiny)[0]
            rank = int(nz[-1]) + 1 if nz.size else 0
        ranks[i] = rank

    # One stacked triangular solve for every block's interpolation matrix:
    # R11 is embedded into a (steps, steps) identity so np.linalg.solve can
    # run batched; rows at or beyond each block's rank solve the identity.
    # The size comes from the bucket shape, never from the largest rank in
    # the bucket, so a block's coefficients do not depend on its mates.
    if ranks.max() > 0:
        r11 = np.broadcast_to(np.eye(steps), (g, steps, steps)).copy()
        rhs = np.zeros((g, steps, k))
        for i in range(g):
            r = int(ranks[i])
            if r > 0:
                r11[i, :r, :r] = a[i, :r, :r]
                r11[i, :r, r:] = 0.0
                rhs[i, :r, :] = a[i, :r, :]
        sol = np.linalg.solve(r11, rhs)

    out: list[InterpolativeDecomposition] = []
    for i in range(g):
        r = int(ranks[i])
        n_i = int(cols_true[i])
        if r == 0:
            out.append(_empty_id(n_i, diag[i]))
            continue
        skeleton = piv[i, :r]
        coeffs = np.zeros((r, n_i))
        coeffs[np.arange(r), skeleton] = 1.0
        rest = piv[i, r:]
        real = rest < n_i  # drop padded columns from the interpolation matrix
        if np.any(real):
            coeffs[:, rest[real]] = sol[i, :r, r:][:, real]
        out.append(
            InterpolativeDecomposition(
                skeleton=np.asarray(skeleton, dtype=np.intp),
                coeffs=coeffs,
                rank=r,
                diag_r=diag[i].copy(),
            )
        )
    return out


def id_reconstruction(matrix: np.ndarray, decomposition: InterpolativeDecomposition) -> np.ndarray:
    """Reconstruct the full block from an ID of it (for testing/diagnostics)."""
    if decomposition.rank == 0:
        return np.zeros_like(np.asarray(matrix, dtype=np.float64))
    cols = np.asarray(matrix, dtype=np.float64)[:, decomposition.skeleton]
    return cols @ decomposition.coeffs

"""Solvers for ``(K̃ + shift·I) x = b`` built on the compressed operator.

The paper names a factorization of the H-matrix as its future work.  For
HSS-structured operators (every Near list the leaf itself, every Far list
the sibling — ``budget=0``) this module provides it: a telescoping
factorization on the compression's nested interpolative bases that applies
the exact inverse of ``K̃ + shift·I`` in O(n·r) per right-hand side.  Other
operators (FMM, with off-diagonal near blocks) are solved iteratively with
the block-Jacobi preconditioner that falls out of the compression for free
(the dense leaf diagonal blocks are already cached by the ``Kba`` task).

* :func:`conjugate_gradient` — (blocked) CG for ``(A + shift·I) X = B``
  given any matvec callable (dense, compressed, or matrix-free); a block of
  right-hand sides runs per-column recurrences over shared wide matvecs,
* :class:`HSSFactor` — the exact inverse of an HSS operator's ``K̃ + shift·I``,
* :class:`BlockJacobiPreconditioner` — Cholesky factors of the leaf diagonal
  blocks of a :class:`repro.core.hmatrix.CompressedMatrix`,
* :func:`make_preconditioner` — the one place that picks between the two
  (used by :func:`solve` and ``CompressedOperator.preconditioner``); with
  the factor, PCG converges in one iteration,
* :func:`solve` — convenience wrapper: compressed operator + preconditioner
  + (P)CG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla

from .core.hmatrix import CompressedMatrix
from .errors import EvaluationError
from .obs import get_logger

__all__ = [
    "CGResult",
    "conjugate_gradient",
    "BlockJacobiPreconditioner",
    "HSSFactor",
    "has_hss_structure",
    "make_preconditioner",
    "solve",
]

_LOG = get_logger("solvers")


@dataclass
class CGResult:
    """Outcome of a (preconditioned, possibly blocked) conjugate-gradient solve.

    ``solution`` has the shape of the input ``rhs`` (``(n,)`` or ``(n, k)``).
    For a multi-RHS solve, ``residual_norm`` / ``converged`` summarize the
    worst column (max norm / all converged); ``column_residual_norms`` and
    ``column_converged`` carry the per-column outcome.  ``residual_history``
    records the max residual norm across columns per iteration.
    """

    solution: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    residual_history: list[float]
    column_residual_norms: Optional[np.ndarray] = None
    column_converged: Optional[np.ndarray] = None


def conjugate_gradient(
    matvec: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    shift: float = 0.0,
    tolerance: float = 1e-8,
    max_iterations: int = 500,
    preconditioner: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    x0: Optional[np.ndarray] = None,
) -> CGResult:
    """Preconditioned (blocked) CG for ``(A + shift·I) X = B`` with ``A`` SPD.

    ``rhs`` may be a single vector ``(n,)`` or a block of ``k`` right-hand
    sides ``(n, k)``.  In the blocked case every iteration applies one wide
    product ``A @ P`` for all still-active columns at once — exactly the
    shape the planned engine's level-batched GEMMs are fastest at — while
    the CG recurrences (``alpha``, ``beta``) run independently per column;
    converged or broken-down columns are dropped from the active block and
    the iteration continues until all columns finish or ``max_iterations``.

    ``matvec`` only needs to implement products with ``A``; the shift is
    applied here so callers can regularize without touching the compressed
    representation.  ``preconditioner`` must accept the shape it is given
    (the :class:`BlockJacobiPreconditioner` handles both).  Convergence is
    declared per column when the true (unpreconditioned) residual norm drops
    below ``tolerance · ||b||``.
    """
    b_in = np.asarray(rhs, dtype=np.float64)
    if b_in.ndim not in (1, 2):
        raise EvaluationError(
            f"conjugate_gradient expects a vector (n,) or a block (n, k) of right-hand sides, "
            f"got shape {b_in.shape}"
        )
    single = b_in.ndim == 1
    b = b_in[:, None] if single else b_in
    n, k = b.shape

    def apply(x: np.ndarray) -> np.ndarray:
        """(A + shift·I) @ x for any column width (single path stays 1-D)."""
        out = np.asarray(matvec(x[:, 0] if single else x), dtype=np.float64)
        return out.reshape(x.shape) + shift * x

    def precondition(r: np.ndarray) -> np.ndarray:
        if preconditioner is None:
            return r
        out = np.asarray(preconditioner(r[:, 0] if single else r), dtype=np.float64)
        return out.reshape(r.shape)

    if x0 is None:
        # A·0 = 0: the initial residual is b itself, one matvec saved per solve
        x = np.zeros((n, k))
        r = b.copy()
    else:
        x = np.asarray(x0, dtype=np.float64).reshape(n, k).copy()
        r = b - apply(x)
    z = precondition(r)
    p = z.copy()
    rz = np.einsum("ij,ij->j", r, z)
    b_norms = np.linalg.norm(b, axis=0)
    b_norms[b_norms == 0.0] = 1.0

    res_norms = np.linalg.norm(r, axis=0)
    history = [float(res_norms.max())]
    converged_cols = res_norms <= tolerance * b_norms
    # Converged / broken-down columns are dropped from the active index set:
    # the wide matvec and preconditioner then run only on the columns still
    # iterating, so a hard column does not keep paying for finished ones.
    active = np.flatnonzero(~converged_cols)
    iterations = 0
    while active.size and iterations < max_iterations:
        pa = p[:, active]
        ap = apply(pa)
        denom = np.einsum("ij,ij->j", pa, ap)
        # Numerical loss of positive definiteness (heavy compression error):
        # freeze the affected columns rather than diverge; the caller sees
        # converged=False for them.
        ok = denom > 0.0
        if not ok.all():
            active, pa, ap, denom = active[ok], pa[:, ok], ap[:, ok], denom[ok]
            if not active.size:
                break
        alpha = rz[active] / denom
        x[:, active] += alpha * pa
        r[:, active] -= alpha * ap
        iterations += 1
        res_norms[active] = np.linalg.norm(r[:, active], axis=0)
        history.append(float(res_norms[active].max()))
        newly = res_norms[active] <= tolerance * b_norms[active]
        converged_cols[active[newly]] = True
        active = active[~newly]
        if not active.size:
            break
        za = precondition(r[:, active])
        rz_new = np.einsum("ij,ij->j", r[:, active], za)
        # Loss of positive definiteness in the (preconditioned) operator —
        # typically a sign that the compression error exceeds the shift.
        good = (rz_new > 0.0) & np.isfinite(rz_new)
        if not good.all():
            active, za, rz_new = active[good], za[:, good], rz_new[good]
            if not active.size:
                break
        beta = rz_new / rz[active]
        rz[active] = rz_new
        p[:, active] = za + beta * p[:, active]

    final_norms = res_norms
    solution = x[:, 0] if single else x
    return CGResult(
        solution=solution,
        iterations=iterations,
        residual_norm=float(final_norms.max()),
        converged=bool(np.all(converged_cols)),
        residual_history=history,
        column_residual_norms=None if single else final_norms,
        column_converged=None if single else converged_cols.copy(),
    )


class BlockJacobiPreconditioner:
    """Block-Jacobi preconditioner from the leaf diagonal blocks of a compression.

    The compression already stores (or can lazily evaluate) every dense leaf
    block ``K_{ββ}``; their Cholesky factors define the preconditioner
    ``M⁻¹ = blockdiag(K_{ββ})⁻¹`` — the standard cheap preconditioner for
    kernel systems, obtained here with no extra entry evaluations.

    ``shift`` must match the shift passed to the solver so the preconditioner
    approximates the actual system matrix ``K + shift·I``.
    """

    def __init__(self, compressed: CompressedMatrix, shift: float = 0.0) -> None:
        self.n = compressed.n
        self._factors: list[tuple[np.ndarray, np.ndarray]] = []
        for leaf in compressed.tree.leaves:
            shifted = _leaf_system(compressed, leaf, shift)
            try:
                factor = sla.cho_factor(shifted, check_finite=False)
            except sla.LinAlgError as exc:
                raise EvaluationError(
                    f"leaf {leaf.node_id} diagonal block is not positive definite "
                    f"(shift={shift}): {exc}"
                ) from exc
            self._factors.append((leaf.indices, factor))

    def __call__(self, residual: np.ndarray) -> np.ndarray:
        residual = np.asarray(residual, dtype=np.float64)
        out = np.empty_like(residual)
        for indices, factor in self._factors:
            out[indices] = sla.cho_solve(factor, residual[indices], check_finite=False)
        return out


class HSSFactor:
    """Exact inverse of ``K̃ + shift·I`` for an HSS-structured compression.

    When every leaf's Near list is itself and every node's Far list is its
    sibling, ``K̃`` is a textbook HSS matrix and a telescoping factorization
    on the compression's own nested bases (INV-ASKIT's structure) inverts
    it exactly, bottom-up, in one pass over the tree.  Every node τ owns a
    system ``A_τ``:

    * ``A_τ = K_ττ + shift·I`` at a leaf;
    * ``A_τ = [[D̂_l, K_{l̃r̃}], [K_{r̃l̃}, D̂_r]]`` at an internal node and at
      the root, built from both stored far blocks — the operator the matvec
      applies, not its symmetrization;
    * ``D̂_τ = (U_τᵀ A_τ⁻¹ U_τ)⁻¹`` with ``U_τ = coeffs_τᵀ`` is τ's reduced
      system, the block its parent sees.

    The interpolative bases make ``D̂_τ`` a Schur complement: ``U_τ``'s
    skeleton rows are the identity, so ``T = [Y N]`` with ``Y`` the
    skeleton columns and ``N = [−E; I]`` (``E`` the coefficients of the
    redundant columns) satisfies ``U_τᵀ T = [I 0]`` and ``D̂_τ = B_ss −
    B_sr B_rr⁻¹ B_rs`` for ``B = Tᵀ A_τ T``.  Only ``B_rr`` is factored
    (Cholesky at the leaves, LU above them, LU of the whole ``A_τ`` at the
    root), so no ill-conditioned ``U_τᵀ A_τ⁻¹ U_τ`` is ever inverted and
    the solve stays as backward stable as a dense LU of ``K̃ + shift·I``.
    Per node the factor keeps the factor of ``B_rr`` and ``B_sr`` /
    ``B_rs`` (one block at the symmetric leaves): at most ``m² − s²``
    numbers for a node of width ``m`` and rank ``s``.

    Applying the inverse is an upward pass that eliminates each node's
    redundant unknowns (``c_τ = Nᵀ b_τ``, ``b̂_τ = Yᵀ b_τ − B_sr B_rr⁻¹
    c_τ``; an internal node's ``b_τ`` stacks its children's ``b̂``) and a
    downward pass that recovers them from τ's slice ``x̂_τ`` of its
    parent's solution (``x_τ = Y x̂_τ + N B_rr⁻¹ (c_τ − B_rs x̂_τ)``) —
    O(n·r) per right-hand side.

    Raises :class:`~repro.errors.EvaluationError` when a block is missing,
    a node of positive rank has no interpolative coefficients, or a
    factorization breaks down (a singular reduced system, a leaf block that
    is not positive definite).  The object is immutable and safe to share
    across threads.
    """

    def __init__(self, compressed: CompressedMatrix, shift: float = 0.0) -> None:
        self.n = compressed.n
        self._nodes: list[_NodeFactor] = []
        reduced: dict[int, np.ndarray] = {}
        for node in compressed.tree.postorder():
            if node.is_leaf:
                record = _NodeFactor(node.node_id, indices=node.indices)
                a = _leaf_system(compressed, node, shift)
            else:
                left, right = node.children()
                d_left = reduced.pop(left.node_id)
                record = _NodeFactor(node.node_id, children=(left.node_id, right.node_id),
                                     split=d_left.shape[0])
                a = _parent_system(compressed, left, right, d_left, reduced.pop(right.node_id))
            if node.is_root:
                record.factorize(a, cholesky=node.is_leaf)
            else:
                reduced[node.node_id] = record.eliminate(a, _coefficients(node, a.shape[0]),
                                                         symmetric=node.is_leaf)
            self._nodes.append(record)

    @property
    def nbytes(self) -> int:
        """Bytes held by the factor (factors, coupling blocks, index arrays)."""
        return sum(record.nbytes for record in self._nodes)

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        b = rhs.reshape(self.n, -1)
        # upward, children before parents: c_τ = Nᵀ b_τ, b̂_τ = Yᵀ b_τ − B_sr B_rr⁻¹ c_τ
        redundant: dict[int, np.ndarray] = {}
        condensed: dict[int, np.ndarray] = {}
        for record in self._nodes:
            if record.children is None:
                b_tau = b[record.indices]
            else:
                b_tau = np.concatenate([condensed.pop(c) for c in record.children])
            if record.coeffs is None:                      # the root
                redundant[record.node_id] = b_tau
                continue
            b_skel = b_tau[record.skel]
            c_tau = b_tau[record.red] - (record.coeffs.T @ b_skel)[record.red]
            redundant[record.node_id] = c_tau
            condensed[record.node_id] = b_skel - record.b_sr @ record.solve(c_tau)
        # downward, parents before children: x_τ = Y x̂_τ + N B_rr⁻¹ (c_τ − B_rs x̂_τ)
        out = np.empty_like(b)
        given: dict[int, np.ndarray] = {}
        for record in reversed(self._nodes):
            c_tau = redundant.pop(record.node_id)
            if record.coeffs is None:
                x_tau = record.solve(c_tau)
            else:
                x_hat = given.pop(record.node_id)
                x_tau = np.zeros((record.coeffs.shape[1], b.shape[1]))
                x_tau[record.red] = record.solve(c_tau - record.b_rs @ x_hat)
                x_tau[record.skel] = x_hat - record.coeffs @ x_tau
            if record.children is None:
                out[record.indices] = x_tau
            else:
                given[record.children[0]] = x_tau[: record.split]
                given[record.children[1]] = x_tau[record.split :]
        return out.reshape(rhs.shape)


class _NodeFactor:
    """One node's share of an :class:`HSSFactor`.

    ``skel`` / ``red`` are the positions of the skeleton and redundant
    unknowns among the node's ``m`` (its leaf indices, or its children's
    stacked skeletons); ``coeffs`` is ``U_τᵀ`` (``None`` at the root).
    """

    __slots__ = ("node_id", "indices", "children", "split", "factor", "cholesky",
                 "coeffs", "skel", "red", "b_sr", "b_rs")

    def __init__(self, node_id: int, indices=None, children=None, split: int = 0) -> None:
        self.node_id = node_id
        self.indices = indices
        self.children = children
        self.split = split
        self.factor = None
        self.cholesky = False
        self.coeffs = self.skel = self.red = self.b_sr = self.b_rs = None

    def eliminate(self, a: np.ndarray, coeffs: np.ndarray, symmetric: bool) -> np.ndarray:
        """Factor ``B_rr`` of ``B = Tᵀ a T``, keep ``B_sr`` / ``B_rs``; return ``D̂_τ``.

        A ``symmetric`` system (a leaf's ``K_ββ + shift·I``) is factored by
        Cholesky, which reads one triangle, and keeps ``B_rs = B_srᵀ`` as a
        view rather than a second block.
        """
        skel, red = _interpolation_split(coeffs, self.node_id)
        e = np.asarray(coeffs, dtype=np.float64)[:, red]
        a_y = a[:, skel]                                   # A Y
        a_n = a[:, red]
        a_n -= a_y @ e                                     # A N
        self.b_sr = a_n[skel]                              # Yᵀ A N
        b_rr = a_n[red]
        del a_n
        b_rr -= e.T @ self.b_sr                            # Nᵀ A N
        self.factorize(b_rr, cholesky=symmetric)
        # Nᵀ A Y
        self.b_rs = self.b_sr.T if symmetric else a_y[red] - e.T @ a_y[skel]
        self.coeffs, self.skel, self.red = coeffs, skel, red
        d_hat = a_y[skel] - self.b_sr @ self.solve(self.b_rs)
        if not np.isfinite(d_hat).all():
            raise EvaluationError(f"node {self.node_id}: singular reduced system")
        return d_hat

    def factorize(self, a: np.ndarray, cholesky: bool) -> None:
        """Cholesky (``cholesky``) or LU factors of ``a``; a breakdown is an ``EvaluationError``."""
        self.cholesky = cholesky
        if a.shape[0] == 0:
            self.factor = ()
            return
        try:
            if cholesky:
                # ``a`` is symmetric, so ``a.T`` is the Fortran-ordered array LAPACK
                # factors in place (no copy)
                self.factor = sla.cho_factor(a.T, overwrite_a=True, check_finite=False)
                return
            lu, piv = sla.lu_factor(a, overwrite_a=True, check_finite=False)
        except sla.LinAlgError as exc:
            raise EvaluationError(f"node {self.node_id}: factorization failed: {exc}") from exc
        pivots = np.diagonal(lu)
        if not (np.isfinite(pivots).all() and np.all(pivots != 0.0)):
            raise EvaluationError(f"node {self.node_id}: singular reduced system")
        # LAPACK's sequential row swaps as one permutation: P a = L U, (P b)[i] = b[order[i]]
        order = np.arange(piv.size)
        for i, j in enumerate(piv):
            order[i], order[j] = order[j], order[i]
        self.factor = (lu, order)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if rhs.shape[0] == 0:
            return np.zeros(rhs.shape)
        if self.cholesky:
            return sla.cho_solve(self.factor, rhs, check_finite=False)
        # Two triangular solves rather than ``lu_solve``: LAPACK getrs is not safe
        # under concurrent calls in some OpenBLAS builds, and solves run on many threads.
        lu, order = self.factor
        y = sla.solve_triangular(lu, rhs[order], lower=True, unit_diagonal=True,
                                 check_finite=False)
        return sla.solve_triangular(lu, y, check_finite=False)

    @property
    def nbytes(self) -> int:
        parts = [self.skel, self.red, self.b_sr, *(self.factor or ())]
        if self.b_rs is not None and self.b_rs.base is not self.b_sr:
            parts.append(self.b_rs)
        return sum(part.nbytes for part in parts if isinstance(part, np.ndarray))


def _leaf_system(compressed: CompressedMatrix, leaf, shift: float) -> np.ndarray:
    """A fresh float64 copy of the leaf's ``K_ββ + shift·I``."""
    block = compressed.near_blocks.get((leaf.node_id, leaf.node_id))
    if block is None:
        raise EvaluationError(
            f"leaf {leaf.node_id} has no cached or computable diagonal block; "
            "compress with cache_near_blocks=True or attach the source matrix"
        )
    a = np.array(block, dtype=np.float64)
    a[np.diag_indices_from(a)] += shift
    return a


def _parent_system(compressed: CompressedMatrix, left, right, d_left, d_right) -> np.ndarray:
    """``[[D̂_l, K_{l̃r̃}], [K_{r̃l̃}, D̂_r]]`` for the parent of ``left`` and ``right``."""
    sl, sr = d_left.shape[0], d_right.shape[0]
    a = np.zeros((sl + sr, sl + sr))
    a[:sl, :sl] = d_left
    a[sl:, sl:] = d_right
    if sl and sr:
        for rows, cols, key in ((slice(None, sl), slice(sl, None), (left.node_id, right.node_id)),
                                (slice(sl, None), slice(None, sl), (right.node_id, left.node_id))):
            block = compressed.far_blocks.get(key)
            if block is None or block.shape != a[rows, cols].shape:
                raise EvaluationError(f"missing or misshapen far block {key}")
            a[rows, cols] = block
    return a


def _coefficients(node, width: int) -> np.ndarray:
    """``U_τᵀ`` (``s × width``); a rank-0 node has none."""
    rank = int(node.skeleton_rank)
    if rank == 0:
        return np.zeros((0, width))
    if node.coeffs is None or node.coeffs.shape != (rank, width):
        raise EvaluationError(
            f"node {node.node_id} has rank {rank} but no {rank}x{width} coefficients"
        )
    return node.coeffs


def _interpolation_split(coeffs: np.ndarray, node_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the identity (skeleton) columns of ``coeffs`` and of the rest."""
    unit = (coeffs == 1.0) & (np.count_nonzero(coeffs, axis=0) == 1)
    rows, cols = np.nonzero(unit)
    found, first = np.unique(rows, return_index=True)
    if found.size != coeffs.shape[0]:
        raise EvaluationError(f"node {node_id}: coefficients are not an interpolative basis")
    skel = cols[first]
    keep = np.ones(coeffs.shape[1], dtype=bool)
    keep[skel] = False
    return skel, np.flatnonzero(keep)


def has_hss_structure(compressed: CompressedMatrix) -> bool:
    """True when ``K̃`` is HSS: every Near list is ``[leaf]``, every Far list ``[sibling]``.

    Decided from the interaction lists alone — the structure the
    factorization relies on — never from the ``budget`` that produced them.
    """
    lists = compressed.lists
    if not lists.is_hss():
        return False
    for node in compressed.tree.nodes:
        if node.is_root:
            expected = []
        else:
            parent = node.parent
            expected = [(parent.right if node is parent.left else parent.left).node_id]
        if list(lists.far_of(node)) != expected:
            return False
    return True


def make_preconditioner(compressed: CompressedMatrix, shift: float = 0.0):
    """The preconditioner every solve entry point uses for ``K̃ + shift·I``.

    An HSS-structured operator gets its exact inverse (:class:`HSSFactor`),
    so PCG converges in one iteration; any other operator — or an HSS one
    whose factorization breaks down — gets :class:`BlockJacobiPreconditioner`.
    """
    if has_hss_structure(compressed):
        try:
            return HSSFactor(compressed, shift=shift)
        except EvaluationError as exc:
            _LOG.info("HSS factorization unavailable (shift=%g), using block-Jacobi: %s",
                      shift, exc)
    return BlockJacobiPreconditioner(compressed, shift=shift)


def solve(
    compressed: CompressedMatrix,
    rhs: np.ndarray,
    shift: float = 0.0,
    tolerance: float = 1e-8,
    max_iterations: int = 500,
    use_preconditioner: bool = True,
    engine: Optional[str] = None,
) -> CGResult:
    """Solve ``(K̃ + shift·I) x = b`` with preconditioned CG.

    The preconditioner is :func:`make_preconditioner`'s: the exact
    :class:`HSSFactor` for HSS operators (one iteration), block-Jacobi
    otherwise.  ``rhs`` may be a vector ``(n,)`` or a block ``(n, k)``; the
    blocked solver evaluates each Krylov product for all right-hand sides
    as one wide matvec, which the planned engine executes as level-batched
    GEMMs.  ``engine`` selects the matvec engine for the Krylov iterations
    (default: the operator's residency choice).
    """
    preconditioner = make_preconditioner(compressed, shift=shift) if use_preconditioner else None
    return conjugate_gradient(
        matvec=lambda v: compressed.matvec(v, engine=engine),
        rhs=rhs,
        shift=shift,
        tolerance=tolerance,
        max_iterations=max_iterations,
        preconditioner=preconditioner,
    )

"""Solvers for ``(K̃ + shift·I) x = b`` built on the compressed operator.

The paper names a factorization of the H-matrix as its future work.  This
module provides it: a telescoping Cholesky factorization on the
compression's nested interpolative bases that applies the inverse of the
operator's HSS part (leaf diagonal blocks plus one skeleton coupling
between every pair of siblings) plus ``shift·I`` in O(n·r) per right-hand
side.  Like the paper's evaluation, it runs level by level: nodes that
share a level, a width and a rank form one group whose factors (and the
coefficients ``E`` it needs, stored with them) are stacks, applied as a
few stacked GEMMs per group.  For an HSS-structured operator (every Near list the leaf itself,
every Far list the sibling — ``budget=0``) the HSS part is the whole
operator and the factor is its exact inverse; for an FMM operator it is
the preconditioner of CG (INV-ASKIT's use of the hierarchical factor).

* :func:`conjugate_gradient` — (blocked) CG for ``(A + shift·I) X = B``
  given any matvec callable (dense, compressed, or matrix-free); a block of
  right-hand sides runs per-column recurrences over shared wide matvecs,
* :class:`HSSFactor` — the inverse of an operator's HSS part plus ``shift·I``,
  as :class:`FactorGroup` stacks,
* :class:`BlockJacobiPreconditioner` — Cholesky factors of the leaf diagonal
  blocks of a :class:`repro.core.hmatrix.CompressedMatrix`, the fallback
  when the HSS part cannot be factored,
* :func:`make_preconditioner` — the one place that picks between the two
  (used by :func:`solve` and ``CompressedOperator.preconditioner``); with
  the exact factor, PCG converges in one iteration,
* :func:`solve` — convenience wrapper: compressed operator + preconditioner
  + (P)CG.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.linalg as sla

from .core.hmatrix import CompressedMatrix
from .errors import EvaluationError
from .obs import get_logger, get_tracer

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
    """Inverse of the HSS part of ``K̃`` plus ``shift·I``, by telescoping Cholesky.

    The HSS part keeps each leaf's diagonal block and couples every pair of
    siblings through their skeletons, ``K_{l̃r̃}``: the far block when the
    siblings are far (always, for an HSS-structured operator, which the
    factor then inverts exactly), else evaluated from the attached matrix
    (an FMM operator, which uses the factor as its preconditioner).  A
    telescoping factorization on the compression's own nested bases
    (INV-ASKIT's structure) inverts it bottom-up, in one pass over the
    tree.  Every node τ owns a symmetric system ``A_τ``:

    * ``A_τ = K_ττ + shift·I`` at a leaf;
    * ``A_τ = [[D̂_l, K_{l̃r̃}], [K_{r̃l̃}, D̂_r]]``, symmetrized, at an
      internal node and at the root;
    * ``D̂_τ = (U_τᵀ A_τ⁻¹ U_τ)⁻¹`` with ``U_τ = coeffs_τᵀ`` is τ's reduced
      system, the block its parent sees.

    The interpolative bases make ``D̂_τ`` a Schur complement: ``U_τ``'s
    skeleton rows are the identity, so ``T = [Y N]`` with ``Y`` the
    skeleton columns and ``N = [−E; I]`` (``E`` the coefficients of the
    redundant columns) satisfies ``U_τᵀ T = [I 0]`` and ``D̂_τ = B_ss −
    B_sr B_rr⁻¹ B_rs`` for ``B = Tᵀ A_τ T``.  Only ``B_rr`` — and the
    root's whole ``A_τ`` — is factored, by Cholesky, so no ill-conditioned
    ``U_τᵀ A_τ⁻¹ U_τ`` is ever inverted.  Each step is a congruence, so a
    completed factorization proves the factor SPD, as PCG needs.

    A node of width ``m`` (its leaf size, or ``s_l + s_r``) and rank ``s``
    keeps ``E`` (``s × ρ``, ``ρ = m − s``), ``R⁻¹`` (``ρ × ρ``, the inverse
    of ``B_rr``'s Cholesky factor ``R``, so ``B_rr⁻¹ = R⁻¹ R⁻ᵀ``) and ``W
    = B_rr⁻¹ B_rs`` (``ρ × s``): ``m² − s²`` numbers.  ``E`` duplicates
    the redundant columns of the compression's coefficients; stored, the
    apply reads it in place instead of gathering it per call.  Nodes that
    share (level, ``m``, ``s``) form one :class:`FactorGroup` whose arrays
    are stacks, written node by node as the build eliminates.

    Applying the inverse runs the groups deepest level first, each as a
    few stacked GEMMs over one per-call workspace (the right-hand side's
    ``n`` rows, then every group's ``b̂`` rows): gather each node's
    unknowns skeleton first (``b_s``, ``b_r``), ``c = b_r − Eᵀ b_s``, ``z
    = R⁻¹ R⁻ᵀ c``, ``b̂ = b_s − Wᵀ c`` into the node's rows.  The root
    solves its system with ``potrs`` in place; the downward pass mirrors
    the upward one (``x_r = z − W x̂``, scatter ``[x̂ − E x_r, x_r]``) and
    leaves the solution in the workspace's first ``n`` rows.  O(n·r) per
    right-hand side.

    Raises :class:`~repro.errors.EvaluationError` when a block is missing
    (a sibling coupling with no far block and no matrix to evaluate it
    from), a node of positive rank has no interpolative coefficients, or a
    Cholesky factorization fails (the HSS part plus ``shift·I`` is not
    positive definite).  The object is immutable and safe to share across
    threads: every call allocates its own workspace.
    """

    def __init__(self, compressed: CompressedMatrix, shift: float = 0.0) -> None:
        start = time.perf_counter()
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("solvers.factor.build") as span:
                self._build(compressed, shift)
                span.set(nodes=len(compressed.tree.nodes), groups=len(self.groups),
                         nbytes=self.nbytes)
        else:
            self._build(compressed, shift)
        _LOG.info("HSS factor (shift=%g) built in %.3f s: %d groups, %d bytes",
                  shift, time.perf_counter() - start, len(self.groups), self.nbytes)

    def _build(self, compressed: CompressedMatrix, shift: float) -> None:
        tree = compressed.tree
        self.n = tree.n
        members: dict[tuple[int, int, int], list] = {}
        for node in tree.nodes:
            if not node.is_root:
                members.setdefault((node.level, _width(node), node.skeleton_rank), []).append(node)
        # deepest level first: a group's children have written their b̂ before it reads them
        groups, place, rows = [], {}, self.n
        for level, m, s in sorted(members, key=lambda key: (-key[0], key[1], key[2])):
            nodes = members[(level, m, s)]
            g, rho = len(nodes), m - s
            if rho < 0:
                raise EvaluationError(f"node {nodes[0].node_id}: rank {s} exceeds its width {m}")
            for i, node in enumerate(nodes):
                place[node.node_id] = (len(groups), i, rows + i * s)
            groups.append(FactorGroup(
                level=level,
                idx=np.empty((g, m), dtype=np.intp),
                slots=slice(rows, rows + g * s),
                e=np.empty((g, s, rho)),
                uinv=np.zeros((g, rho, rho)),
                w=np.empty((g, rho, s)),
            ))
            rows += g * s
        self.groups: tuple[FactorGroup, ...] = tuple(groups)
        self.workspace_rows = rows

        def slot_rows(node) -> np.ndarray:
            first = place[node.node_id][2]
            return np.arange(first, first + node.skeleton_rank)

        reduced: dict[int, np.ndarray] = {}
        for node in tree.postorder():
            if node.is_leaf:
                order = node.indices
                a = _leaf_system(compressed, node, shift)
            else:
                left, right = node.children()
                order = np.concatenate([slot_rows(left), slot_rows(right)])
                a = _parent_system(compressed, left, right,
                                   reduced.pop(left.node_id), reduced.pop(right.node_id))
            if node.is_root:
                self._root_rows = order
                self._root_factor = _cholesky(a, node.node_id) if a.shape[0] else None
            else:
                group, i, _ = place[node.node_id]
                coeffs = _coefficients(node, a.shape[0])
                reduced[node.node_id] = _eliminate(a, coeffs, order, self.groups[group], i, node.node_id)

    @property
    def nbytes(self) -> int:
        """Bytes held by the factor: every group's stacks and the root's factor and rows."""
        root = self._root_rows.nbytes + (0 if self._root_factor is None else self._root_factor.nbytes)
        return root + sum(group.nbytes for group in self.groups)

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        tracer = get_tracer()
        if tracer.enabled:
            columns = 1 if np.ndim(rhs) == 1 else np.shape(rhs)[-1]
            with tracer.span("solvers.factor.apply", levels=len({g.level for g in self.groups}) + 1,
                             groups=len(self.groups), columns=columns):
                return self._apply(rhs)
        return self._apply(rhs)

    def _apply(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        b = rhs.reshape(self.n, -1)
        r = b.shape[1]
        ws = np.empty((self.workspace_rows, r))
        ws[: self.n] = b
        solved = []
        for group in self.groups:                      # upward, children before parents
            g, s = group.e.shape[:2]
            bt = ws[group.idx]                         # (g, m, r), skeleton unknowns first
            b_s, c = bt[:, :s], bt[:, s:]
            c -= _t(group.e) @ b_s                     # c = b_r − Eᵀ b_s
            solved.append(group.uinv @ (_t(group.uinv) @ c))
            b_s -= _t(group.w) @ c                     # b̂ = b_s − Wᵀ c
            ws[group.slots] = b_s.reshape(g * s, r)
        if self._root_factor is not None:
            ws[self._root_rows] = _POTRS(self._root_factor, ws[self._root_rows])[0]
        for group, z in zip(reversed(self.groups), reversed(solved)):  # downward
            g, s = group.e.shape[:2]
            x = np.empty((g, group.idx.shape[1], r))
            x_hat, x_red = x[:, :s], x[:, s:]
            x_hat[...] = ws[group.slots].reshape(g, s, r)
            np.subtract(z, group.w @ x_hat, out=x_red)     # x_r = z − W x̂
            x_hat -= group.e @ x_red                   # x_s = x̂ − E x_r
            ws[group.idx] = x
        return ws[: self.n].reshape(rhs.shape)


class FactorGroup(NamedTuple):
    """The nodes of one (level, ``m``, ``s``) shape group of an :class:`HSSFactor`, as stacks.

    ``idx[i]`` holds the workspace rows of node ``i``'s ``m`` unknowns,
    skeleton ones first: rows of the right-hand side at a leaf, its
    children's ``b̂`` rows above.  ``slots`` are the group's own ``b̂``
    rows, ``s`` per node, node-major.  ``e``, ``uinv`` and ``w`` stack
    ``E``, ``R⁻¹`` (upper triangular) and ``W``.
    """

    level: int
    idx: np.ndarray
    slots: slice
    e: np.ndarray
    uinv: np.ndarray
    w: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.idx.nbytes + self.e.nbytes + self.uinv.nbytes + self.w.nbytes


#: LAPACK's Cholesky solve and triangular inverse, resolved once.
_POTRS = sla.get_lapack_funcs("potrs", dtype=np.float64)
_TRTRI = sla.get_lapack_funcs("trtri", dtype=np.float64)


def _t(stack: np.ndarray) -> np.ndarray:
    """The transpose of every matrix in a ``(g, a, b)`` stack (a view)."""
    return stack.transpose(0, 2, 1)


def _width(node) -> int:
    """Number of unknowns node τ eliminates from: its leaf size, or ``s_l + s_r``."""
    if node.is_leaf:
        return node.size
    return node.left.skeleton_rank + node.right.skeleton_rank


def _cholesky(a: np.ndarray, node_id: int) -> np.ndarray:
    """Upper Cholesky factor of the symmetric ``a``; a failure is an ``EvaluationError``."""
    try:
        # ``a`` is symmetric, so ``a.T`` is the Fortran-ordered array LAPACK
        # factors in place (no copy)
        factor, _ = sla.cho_factor(a.T, overwrite_a=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise EvaluationError(f"node {node_id}: factorization failed: {exc}") from exc
    return factor


def _eliminate(a: np.ndarray, coeffs: np.ndarray, order: np.ndarray, group: FactorGroup,
               i: int, node_id: int) -> np.ndarray:
    """Factor ``B_rr`` of ``B = Tᵀ a T`` into slot ``i`` of ``group``; return ``D̂_τ``.

    ``order`` says where the node's unknowns live in the apply's workspace.
    """
    skel, red = _interpolation_split(coeffs, node_id)
    s = skel.size
    group.idx[i, :s] = order[skel]
    group.idx[i, s:] = order[red]
    e = group.e[i]
    e[...] = coeffs[:, red]
    a_y = a[:, skel]                                   # A Y
    a_n = a[:, red]
    a_n -= a_y @ e                                     # A N
    b_sr = a_n[skel]                                   # Yᵀ A N
    b_rr = a_n[red]
    del a_n
    b_rr -= e.T @ b_sr                                 # Nᵀ A N
    w = group.w[i]
    if red.size:
        factor = _cholesky(b_rr, node_id)
        w[...] = _POTRS(factor, b_sr.T)[0]             # B_rs = B_srᵀ: a is symmetric
        inverse, info = _TRTRI(factor, overwrite_c=True)
        if info:
            raise EvaluationError(f"node {node_id}: singular Cholesky factor")
        group.uinv[i] = np.triu(inverse)
    d_hat = a_y[skel] - b_sr @ w
    if not np.isfinite(d_hat).all():
        raise EvaluationError(f"node {node_id}: singular reduced system")
    return d_hat


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
    """Symmetrized ``[[D̂_l, K_{l̃r̃}], [K_{r̃l̃}, D̂_r]]`` for the parent of ``left`` and ``right``.

    ``far_blocks.get`` returns the cached sibling coupling, or evaluates it
    from the attached matrix when the siblings are near.
    """
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
    return (a + a.T) * 0.5


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

    Then ``K̃`` is its own HSS part and :class:`HSSFactor` is its exact
    inverse.  Decided from the interaction lists alone, never from the
    ``budget`` that produced them.
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

    Every operator gets :class:`HSSFactor`, the inverse of its HSS part:
    exact for an HSS-structured operator (PCG converges in one iteration),
    a preconditioner for an FMM one.  When the factor cannot be built — no
    matrix to evaluate a sibling coupling from, missing coefficients, or an
    HSS part that is not positive definite at this shift — the operator
    gets :class:`BlockJacobiPreconditioner`.
    """
    try:
        return HSSFactor(compressed, shift=shift)
    except EvaluationError as exc:
        _LOG.info("HSS-part factor unavailable (shift=%g), using block-Jacobi: %s", shift, exc)
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

    The preconditioner is :func:`make_preconditioner`'s: the
    :class:`HSSFactor` of the operator's HSS part (exact for HSS
    operators: one iteration), block-Jacobi when it cannot be built.
    ``rhs`` may be a vector ``(n,)`` or a block ``(n, k)``.  The blocked
    solver evaluates each Krylov product for all right-hand sides as one
    wide matvec, run by the plan as level-batched GEMMs.  ``engine``
    selects the matvec engine for the Krylov iterations (default: the
    operator's residency choice).
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

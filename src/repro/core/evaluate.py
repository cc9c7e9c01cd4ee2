"""Evaluation phase (§2.2, Algorithm 2.7): the fast matvec ``u ≈ K̃ w``.

Four task families, matching Table 2:

* ``N2S`` (nodes → skeletons, postorder): skeleton weights
  ``w̃_β = P_{β̃β} w_β`` at leaves and ``w̃_α = P_{α̃[l̃r̃]} [w̃_l; w̃_r]`` at
  internal nodes (the upward pass of an FMM),
* ``S2S`` (skeletons → skeletons, any order): skeleton potentials
  ``ũ_β = Σ_{α ∈ Far(β)} K_{β̃α̃} w̃_α`` (the far-field translation),
* ``S2N`` (skeletons → nodes, preorder): push potentials down with the
  transposed coefficients (the downward pass),
* ``L2L`` (leaves → leaves, any order): the direct part,
  ``u_β += Σ_{α ∈ Near(β)} K_{βα} w_α``, which includes the dense diagonal
  blocks because ``β ∈ Near(β)``.

The functions are written so that each task is a standalone unit operating
on a shared state object; the sequential driver below simply runs them in a
valid order, while :mod:`repro.runtime` builds a dependency DAG over the
very same task functions to execute them out of order (in parallel or in a
scheduler simulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..errors import EvaluationError
from .tree import BallTree, TreeNode

__all__ = ["EvaluationState", "EvaluationCounters", "evaluate", "task_n2s", "task_s2s", "task_s2n", "task_l2l"]


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


@dataclass
class EvaluationState:
    """Mutable per-matvec state shared by the evaluation tasks.

    ``skeleton_weights[node_id]`` holds ``w̃`` (shape ``(rank, r)``) and
    ``skeleton_potentials[node_id]`` holds ``ũ``.  ``output`` accumulates the
    result ``u``.
    """

    weights: np.ndarray
    output: np.ndarray
    skeleton_weights: Dict[int, np.ndarray] = field(default_factory=dict)
    skeleton_potentials: Dict[int, np.ndarray] = field(default_factory=dict)
    counters: EvaluationCounters = field(default_factory=EvaluationCounters)


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
# individual tasks
# ---------------------------------------------------------------------------

def task_n2s(node: TreeNode, state: EvaluationState) -> None:
    """N2S(α): compute the node's skeleton weights ``w̃_α``."""
    if node.is_root or node.coeffs is None:
        return
    r = state.weights.shape[1]
    if node.skeleton_rank == 0:
        state.skeleton_weights[node.node_id] = np.zeros((0, r))
        return
    if node.is_leaf:
        local = state.weights[node.indices]
        state.skeleton_weights[node.node_id] = node.coeffs @ local
        state.counters.n2s += 2.0 * node.coeffs.shape[0] * node.coeffs.shape[1] * r
    else:
        left, right = node.children()
        wl = state.skeleton_weights.get(left.node_id)
        wr = state.skeleton_weights.get(right.node_id)
        if wl is None or wr is None:
            raise EvaluationError(f"N2S({node.node_id}) ran before its children (postorder violated)")
        stacked = np.vstack([wl, wr]) if (wl.size or wr.size) else np.zeros((0, r))
        if stacked.shape[0] != node.coeffs.shape[1]:
            raise EvaluationError(
                f"N2S({node.node_id}): coefficient width {node.coeffs.shape[1]} does not match "
                f"children skeleton sizes {stacked.shape[0]}"
            )
        state.skeleton_weights[node.node_id] = node.coeffs @ stacked
        state.counters.n2s += 2.0 * node.coeffs.shape[0] * node.coeffs.shape[1] * r


def task_s2s(node: TreeNode, state: EvaluationState, far_blocks: Dict[tuple[int, int], np.ndarray]) -> None:
    """S2S(β): accumulate skeleton potentials from every far node."""
    if node.is_root or node.skeleton_rank == 0:
        return
    r = state.weights.shape[1]
    acc = state.skeleton_potentials.setdefault(node.node_id, np.zeros((node.skeleton_rank, r)))
    for alpha_id in node.far:
        block = far_blocks.get((node.node_id, alpha_id))
        if block is None:
            raise EvaluationError(f"missing cached far block ({node.node_id}, {alpha_id})")
        w_alpha = state.skeleton_weights.get(alpha_id)
        if w_alpha is None:
            raise EvaluationError(f"S2S({node.node_id}) needs w̃ of node {alpha_id} (N2S not finished)")
        if block.shape[1] != w_alpha.shape[0]:
            raise EvaluationError(
                f"S2S({node.node_id}): far block ({node.node_id},{alpha_id}) has {block.shape[1]} columns, "
                f"but node {alpha_id} has skeleton rank {w_alpha.shape[0]}"
            )
        acc += block @ w_alpha
        state.counters.s2s += 2.0 * block.shape[0] * block.shape[1] * r


def task_s2n(node: TreeNode, state: EvaluationState) -> None:
    """S2N(β): push skeleton potentials down to children (or to the output at leaves)."""
    if node.is_root or node.coeffs is None:
        return
    r = state.weights.shape[1]
    potentials = state.skeleton_potentials.get(node.node_id)
    if potentials is None or node.skeleton_rank == 0:
        return
    contribution = node.coeffs.T @ potentials
    state.counters.s2n += 2.0 * node.coeffs.shape[0] * node.coeffs.shape[1] * r
    if node.is_leaf:
        state.output[node.indices] += contribution
    else:
        left, right = node.children()
        split = left.skeleton_rank
        if left.skeleton_rank:
            acc_l = state.skeleton_potentials.setdefault(left.node_id, np.zeros((left.skeleton_rank, r)))
            acc_l += contribution[:split]
        if right.skeleton_rank:
            acc_r = state.skeleton_potentials.setdefault(right.node_id, np.zeros((right.skeleton_rank, r)))
            acc_r += contribution[split:]


def task_l2l(node: TreeNode, state: EvaluationState, tree: BallTree, near_blocks: Dict[tuple[int, int], np.ndarray]) -> None:
    """L2L(β): direct (dense) contribution from every near leaf."""
    if not node.is_leaf:
        return
    r = state.weights.shape[1]
    for alpha_id in node.near:
        alpha = tree.node(alpha_id)
        block = near_blocks.get((node.node_id, alpha_id))
        if block is None:
            raise EvaluationError(f"missing cached near block ({node.node_id}, {alpha_id})")
        state.output[node.indices] += block @ state.weights[alpha.indices]
        state.counters.l2l += 2.0 * block.shape[0] * block.shape[1] * r


# ---------------------------------------------------------------------------
# sequential driver
# ---------------------------------------------------------------------------

def evaluate(compressed, w: np.ndarray, counters: EvaluationCounters | None = None) -> np.ndarray:
    """Sequential Algorithm 2.7 on a :class:`repro.core.hmatrix.CompressedMatrix`.

    ``w`` may be a vector or an ``(N, r)`` matrix (GOFMM supports multiple
    right-hand sides).  Returns an array of the same shape.
    """
    tree = compressed.tree
    weights, was_vector = _as_matrix(w, tree.n)
    state = EvaluationState(weights=weights, output=np.zeros_like(weights))

    for node in tree.postorder():
        task_n2s(node, state)
    for node in tree.nodes:
        task_s2s(node, state, compressed.far_blocks)
    for node in tree.preorder():
        task_s2n(node, state)
    for leaf in tree.leaves:
        task_l2l(leaf, state, tree, compressed.near_blocks)

    if counters is not None:
        counters.n2s += state.counters.n2s
        counters.s2s += state.counters.s2s
        counters.s2n += state.counters.s2n
        counters.l2l += state.counters.l2l

    return state.output[:, 0] if was_vector else state.output

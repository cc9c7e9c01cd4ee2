"""Per-node form of the evaluation phase (Algorithm 2.7) — the matvec oracle.

Relocated from ``src/repro/core/evaluate.py`` when block residency became
the only engine switch.  Four task families, matching Table 2:

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

One node at a time, intermediates in dicts keyed by node id: slow,
obvious, and independent of the plan's packing, rank padding and chunking.
A target's products follow the evaluation plan's rules, so the exactly
packed plan (``engine="streamed"``) must equal the oracle bitwise
(``np.array_equal``):

* a leaf whose block-row is a row of one of the near provider's intact
  ``row_slabs()`` (every row of the slab its leaf's current Near list)
  multiplies that row in one GEMM,
* a target whose far blocks are all cached multiplies its concatenated
  block-row in one GEMM,
* every other target accumulates block by block, in list order.

The ``"planned"`` packing of the same plan pads adaptive ranks, and agrees
to summation order; with uniform ranks (or ``plan_rank_bucketing="none"``)
it pads nothing and is bitwise equal too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.core.plan import EvaluationCounters, _as_matrix
from repro.errors import EvaluationError


@dataclass
class EvaluationState:
    """Per-matvec state: ``w̃`` and ``ũ`` per node id, and the output ``u``."""

    weights: np.ndarray
    output: np.ndarray
    skeleton_weights: Dict[int, np.ndarray] = field(default_factory=dict)
    skeleton_potentials: Dict[int, np.ndarray] = field(default_factory=dict)
    counters: EvaluationCounters = field(default_factory=EvaluationCounters)


def task_n2s(node, state: EvaluationState) -> None:
    """N2S(α): compute the node's skeleton weights ``w̃_α``."""
    if node.is_root or node.coeffs is None:
        return
    r = state.weights.shape[1]
    if node.skeleton_rank == 0:
        state.skeleton_weights[node.node_id] = np.zeros((0, r))
        return
    if node.is_leaf:
        local = state.weights[node.indices]
    else:
        left, right = node.children()
        wl = state.skeleton_weights.get(left.node_id)
        wr = state.skeleton_weights.get(right.node_id)
        if wl is None or wr is None:
            raise EvaluationError(f"N2S({node.node_id}) ran before its children (postorder violated)")
        local = np.vstack([wl, wr]) if (wl.size or wr.size) else np.zeros((0, r))
        if local.shape[0] != node.coeffs.shape[1]:
            raise EvaluationError(
                f"N2S({node.node_id}): coefficient width {node.coeffs.shape[1]} does not match "
                f"children skeleton sizes {local.shape[0]}"
            )
    state.skeleton_weights[node.node_id] = node.coeffs @ local
    state.counters.n2s += 2.0 * node.coeffs.shape[0] * node.coeffs.shape[1] * r


def task_s2s(node, state: EvaluationState, far_blocks, tree) -> None:
    """S2S(β): accumulate skeleton potentials from every far node.

    One GEMM on the concatenated block-row when every far block is cached,
    else one per block in Far-list order.
    """
    if node.is_root or node.skeleton_rank == 0:
        return
    r = state.weights.shape[1]
    acc = state.skeleton_potentials.setdefault(node.node_id, np.zeros((node.skeleton_rank, r)))
    far = [a for a in node.far if tree.node(a).skeleton_rank > 0]
    if far and all((node.node_id, a) in far_blocks for a in far):
        blocks = [far_blocks.get((node.node_id, a)) for a in far]
        acc += np.hstack(blocks) @ np.vstack([state.skeleton_weights[a] for a in far])
        state.counters.s2s += 2.0 * sum(block.size for block in blocks) * r
        return
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


def task_s2n(node, state: EvaluationState) -> None:
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
        return
    left, right = node.children()
    split = left.skeleton_rank
    for child, part in ((left, contribution[:split]), (right, contribution[split:])):
        if child.skeleton_rank:
            acc = state.skeleton_potentials.setdefault(child.node_id, np.zeros((child.skeleton_rank, r)))
            acc += part


def intact_rows(tree, near_blocks) -> Dict[int, np.ndarray]:
    """Leaf id → its block-row, for the rows of the provider's intact row slabs."""
    rows: Dict[int, np.ndarray] = {}
    for slab in getattr(near_blocks, "row_slabs", lambda: [])():
        if all(tuple(tree.node(beta).near) == cols for beta, cols in slab.rows):
            rows.update((beta, row) for (beta, _), row in zip(slab.rows, slab.array))
    return rows


def task_l2l(node, state: EvaluationState, tree, near_blocks, rows) -> None:
    """L2L(β): direct (dense) contribution from every near leaf.

    One GEMM on the leaf's cached row (``rows``, from :func:`intact_rows`)
    when it has one, else one per block in Near-list order.
    """
    if not node.is_leaf:
        return
    r = state.weights.shape[1]
    row = rows.get(node.node_id)
    if row is not None:
        cols = np.concatenate([tree.node(a).indices for a in node.near])
        state.output[node.indices] += row @ state.weights[cols]
        state.counters.l2l += 2.0 * row.size * r
        return
    for alpha_id in node.near:
        alpha = tree.node(alpha_id)
        block = near_blocks.get((node.node_id, alpha_id))
        if block is None:
            raise EvaluationError(f"missing cached near block ({node.node_id}, {alpha_id})")
        state.output[node.indices] += block @ state.weights[alpha.indices]
        state.counters.l2l += 2.0 * block.shape[0] * block.shape[1] * r


def reference_matvec(cm, w: np.ndarray, counters: EvaluationCounters | None = None) -> np.ndarray:
    """Sequential Algorithm 2.7 on a :class:`repro.core.hmatrix.CompressedMatrix`.

    ``w`` may be a vector or an ``(N, r)`` matrix; returns the same shape.
    Missing blocks are evaluated from ``cm.matrix`` one pair at a time.
    """
    tree = cm.tree
    weights, was_vector = _as_matrix(w, tree.n)
    state = EvaluationState(weights=weights, output=np.zeros_like(weights))

    for node in tree.postorder():
        task_n2s(node, state)
    for node in tree.nodes:
        task_s2s(node, state, cm.far_blocks, tree)
    for node in tree.preorder():
        task_s2n(node, state)
    rows = intact_rows(tree, cm.near_blocks)
    for leaf in tree.leaves:
        task_l2l(leaf, state, tree, cm.near_blocks, rows)

    if counters is not None:
        counters.add_flops(vars(state.counters), 1)

    return state.output[:, 0] if was_vector else state.output

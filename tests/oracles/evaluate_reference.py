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

* the rows of the near provider's intact ``row_slabs()`` run first.  A
  row ``(β, cols)`` applies ``(β, α)`` for each column and ``(α, β)`` for
  each mirrored one (a folded symmetric pair, stored once); a slab is
  intact when all it applies is listed in the current Near lists and no
  earlier intact slab applies it.  Each row multiplies in one GEMM,
  ``u_β += row @ w[cols]``.  For each row with a mirrored column,
  ``z = rowᵀ @ w_β`` (one GEMM on the whole row); a slab sums each
  mirrored leaf α's parts of ``z`` over its rows in order, the slabs'
  sums accumulate per leaf in slab order, and each leaf gets
  ``u_α += Σ`` once, after every slab,
* a target whose far blocks are all cached multiplies its concatenated
  block-row in one GEMM,
* every other listed pair accumulates block by block in **wave order**, not
  list order: each pass's unordered pairs ``{a, b}`` are coloured
  first-fit in lexicographic order (no node twice in a wave, see
  :func:`pair_waves`), and the waves are replayed in turn.  A pair whose
  two directions both accumulate block by block, with neither block
  cached, is evaluated once as ``B = K[a, b]`` (``a < b``) and applied
  both ways: ``u_a += B w_b`` and ``u_b += Bᵀ w_a``.

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


def pair_waves(pairs) -> list:
    """First-fit edge colouring: each pair, in lexicographic order, takes the
    lowest wave holding neither of its endpoints."""
    waves, used = [], {}
    for a, b in sorted(set(pairs)):
        wave = 0
        while wave in used.get(a, ()) or wave in used.get(b, ()):
            wave += 1
        if wave == len(waves):
            waves.append([])
        waves[wave].append((a, b))
        used.setdefault(a, set()).add(wave)
        used.setdefault(b, set()).add(wave)
    return waves


def fill_items(lists: Dict[int, list], fill: set, provider):
    """One pass's block-by-block work in wave order: ``(target, source, mirrored)``.

    ``lists`` maps every target of the pass to its partners (the waves come
    from all of them); ``fill`` names the ``(target, source)`` items that
    accumulate block by block.  ``mirrored`` items fold both directions of
    a pair into the ``(min, max)`` block.
    """
    listed = {(t, s) for t, partners in lists.items() for s in partners}
    for wave in pair_waves((min(t, s), max(t, s)) for t, s in listed):
        for a, b in wave:
            items = [key for key in sorted({(a, b), (b, a)}) if key in fill]
            if len(items) == 2 and not any(key in provider for key in items):
                yield a, b, True
            else:
                yield from ((t, s, False) for t, s in items)


def far_lists(tree) -> Dict[int, list]:
    """Node id → its Far partners with a skeleton, for nodes with a skeleton and any."""
    lists = {}
    for node in tree.nodes:
        if node.is_root or node.skeleton_rank == 0:
            continue
        far = [a for a in node.far if tree.node(a).skeleton_rank > 0]
        if far:
            lists[node.node_id] = far
    return lists


def near_lists(tree) -> Dict[int, list]:
    """Leaf id → its non-empty Near leaves, for non-empty leaves with any."""
    lists = {}
    for leaf in tree.leaves:
        near = [a for a in leaf.near if tree.node(a).size > 0]
        if leaf.size > 0 and near:
            lists[leaf.node_id] = near
    return lists


def _block(provider, key, kind: str) -> np.ndarray:
    """The block as a fill materializes it: a C-ordered copy (the provider may
    hand out the transposed view of a folded pair's block)."""
    block = provider.get(key)
    if block is None:
        raise EvaluationError(f"missing cached {kind} block {key}")
    return np.ascontiguousarray(block)


def task_s2s(node, state: EvaluationState, far_blocks, far: list) -> None:
    """S2S(β) of a node whose far blocks are all cached: one GEMM on the
    concatenated block-row."""
    r = state.weights.shape[1]
    blocks = [far_blocks.get((node.node_id, a)) for a in far]
    acc = state.skeleton_potentials.setdefault(node.node_id, np.zeros((node.skeleton_rank, r)))
    acc += np.hstack(blocks) @ np.vstack([state.skeleton_weights[a] for a in far])
    state.counters.s2s += 2.0 * sum(block.size for block in blocks) * r


def pass_s2s(state: EvaluationState, far_blocks, tree) -> None:
    """Every S2S(β): ``ũ_β = Σ_{α ∈ Far(β)} K_{β̃α̃} w̃_α``."""
    lists = far_lists(tree)
    cached = {b for b, far in lists.items() if all((b, a) in far_blocks for a in far)}
    for b in sorted(cached):
        task_s2s(tree.node(b), state, far_blocks, lists[b])
    r = state.weights.shape[1]

    def acc(node_id):
        rank = tree.node(node_id).skeleton_rank
        return state.skeleton_potentials.setdefault(node_id, np.zeros((rank, r)))

    fill = {(t, s) for t in set(lists) - cached for s in lists[t]}
    for t, s, mirrored in fill_items(lists, fill, far_blocks):
        block = _block(far_blocks, (t, s), "far")
        if block.shape[1] != state.skeleton_weights[s].shape[0]:
            raise EvaluationError(
                f"S2S({t}): far block ({t},{s}) has {block.shape[1]} columns, "
                f"but node {s} has skeleton rank {state.skeleton_weights[s].shape[0]}"
            )
        acc(t)[...] += block @ state.skeleton_weights[s]
        if mirrored:
            acc(s)[...] += block.T @ state.skeleton_weights[t]
        state.counters.s2s += (4.0 if mirrored else 2.0) * block.size * r


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


def intact_slabs(tree, near_blocks) -> list:
    """The provider's row slabs that apply listed pairs only, none twice."""
    listed = {(leaf.node_id, a) for leaf in tree.leaves for a in leaf.near}
    applied, slabs = set(), []
    for slab in getattr(near_blocks, "row_slabs", lambda: [])():
        keys = []
        for (beta, cols), flags in zip(slab.rows, slab.mirror):
            for alpha, flag in zip(cols, flags):
                keys += [(beta, alpha), (alpha, beta)] if flag else [(beta, alpha)]
        if len(set(keys)) == len(keys) and set(keys) <= listed and applied.isdisjoint(keys):
            applied.update(keys)
            slabs.append(slab)
    return slabs


def task_slab(slab, state: EvaluationState, tree, totals: Dict[int, np.ndarray]) -> None:
    """L2L of one intact row slab: every row forward, then its mirrored columns
    transposed, summed per leaf in row order and added to ``totals``."""
    r = state.weights.shape[1]
    for (beta, cols), row in zip(slab.rows, slab.array):
        source = np.concatenate([tree.node(a).indices for a in cols])
        state.output[tree.node(beta).indices] += row @ state.weights[source]
        state.counters.l2l += 2.0 * row.size * r
    sums: Dict[int, np.ndarray] = {}
    for (beta, cols), flags, row in zip(slab.rows, slab.mirror, slab.array):
        if not any(flags):
            continue
        z = row.T @ state.weights[tree.node(beta).indices]
        offset = 0
        for alpha, flag in zip(cols, flags):
            k = tree.node(alpha).size
            if flag:
                part = z[offset : offset + k]
                sums[alpha] = part if alpha not in sums else sums[alpha] + part
            offset += k
    for alpha, part in sums.items():
        totals[alpha] = part if alpha not in totals else totals[alpha] + part
    if sums:
        state.counters.l2l += 2.0 * slab.array.size * r


def pass_l2l(state: EvaluationState, tree, near_blocks) -> None:
    """Every L2L(β): the direct (dense) contribution ``u_β += Σ_{α ∈ Near(β)} K_{βα} w_α``.

    The intact row slabs (:func:`intact_slabs`) first, their transposed sums
    added once at the end, then every listed pair they do not apply, block by
    block in wave order.
    """
    r = state.weights.shape[1]
    applied, totals = set(), {}
    for slab in intact_slabs(tree, near_blocks):
        task_slab(slab, state, tree, totals)
        for (beta, cols), flags in zip(slab.rows, slab.mirror):
            applied.update((beta, a) for a in cols)
            applied.update((a, beta) for a, flag in zip(cols, flags) if flag)
    for alpha, total in totals.items():
        state.output[tree.node(alpha).indices] += total
    lists = near_lists(tree)
    fill = {(t, s) for t, partners in lists.items() for s in partners} - applied
    for t, s, mirrored in fill_items(lists, fill, near_blocks):
        block = _block(near_blocks, (t, s), "near")
        target, source = tree.node(t).indices, tree.node(s).indices
        state.output[target] += block @ state.weights[source]
        if mirrored:
            state.output[source] += block.T @ state.weights[target]
        state.counters.l2l += (4.0 if mirrored else 2.0) * block.size * r


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
    pass_s2s(state, cm.far_blocks, tree)
    for node in tree.preorder():
        task_s2n(node, state)
    pass_l2l(state, tree, cm.near_blocks)

    if counters is not None:
        counters.add_flops(vars(state.counters), 1)

    return state.output[:, 0] if was_vector else state.output

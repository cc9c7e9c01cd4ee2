"""Symbolic traversals building the compression and evaluation task DAGs.

The paper (Figure 3) builds dependencies at runtime by *symbolically
executing* Algorithms 2.2 and 2.7: walking the traversals without doing the
numerical work and recording which task writes each intermediate quantity
(``w̃_α``, ``ũ_β``, skeletons) and which tasks read it.  The read-after-write
pairs become edges of the DAG.

Evaluation DAG (Algorithm 2.7):

* ``N2S(α)`` reads the children's ``w̃`` — edges child→parent (postorder),
* ``S2S(β)`` reads ``w̃_α`` for every ``α ∈ Far(β)`` — edges ``N2S(α) →
  S2S(β)`` (these are the dependencies OpenMP's ``task depend`` cannot
  express because they are only known after the Near/Far lists exist),
* ``S2N(β)`` reads ``ũ_β`` (written by ``S2S(β)`` and by ``S2N(parent)``) —
  edges ``S2S(β) → S2N(β)`` and ``S2N(parent) → S2N(β)``,
* ``L2L(β)`` is independent of the other three families (it only touches
  ``w`` and ``u``), exactly as stated in the paper.

Compression DAG (Algorithm 2.2):

* ``SPLI`` parent→child (preorder),
* ``ANN(leaf)`` after the leaf's ``SPLI``,
* ``SKEL`` child→parent (postorder), after the node's ``SPLI``,
* ``COEF(α)`` after ``SKEL(α)`` (any order otherwise),
* ``SKba(β)`` after ``SKEL`` of β and of every far node,
* ``Kba(β)`` after the leaf's ``SPLI`` (any order otherwise).
"""

from __future__ import annotations

from ..core.tree import BallTree
from .costs import CostModel
from .task import Task, TaskGraph

__all__ = ["build_compression_dag", "build_evaluation_dag"]


def _mk(graph: TaskGraph, kind: str, node, cost: CostModel, flops: float, bytes_moved: float = 0.0) -> Task:
    task = Task(
        task_id=f"{kind}:{node.node_id}",
        kind=kind,
        node_id=node.node_id,
        level=node.level,
        flops=flops,
        bytes_moved=bytes_moved,
        memory_bound=CostModel.is_memory_bound(kind),
        gpu_eligible=CostModel.is_gpu_eligible(kind),
    )
    return graph.add_task(task)


def build_evaluation_dag(tree: BallTree, cost: CostModel, include_l2l: bool = True) -> TaskGraph:
    """Task DAG of Algorithm 2.7 (N2S, S2S, S2N, L2L) for the given tree.

    The tree must already carry its interaction lists (``node.near`` /
    ``node.far``), i.e. come from a finished compression.
    """
    graph = TaskGraph()

    # Create tasks.
    for node in tree.nodes:
        if not node.is_root:
            _mk(graph, "N2S", node, cost, cost.n2s(node.is_leaf))
            _mk(graph, "S2N", node, cost, cost.s2n(node.is_leaf))
            if node.far:
                _mk(graph, "S2S", node, cost, cost.s2s(len(node.far)))
        if node.is_leaf and include_l2l and node.near:
            _mk(
                graph,
                "L2L",
                node,
                cost,
                cost.l2l(len(node.near)),
                bytes_moved=cost.bytes_moved("KBA", near_size=len(node.near)),
            )

    # N2S: children before parents (RAW on w̃ of the children).
    for node in tree.nodes:
        if node.is_root or node.is_leaf:
            continue
        for child in node.children():
            if f"N2S:{child.node_id}" in graph and f"N2S:{node.node_id}" in graph:
                graph.add_dependency(f"N2S:{child.node_id}", f"N2S:{node.node_id}")

    # S2S(β) reads w̃_α for α ∈ Far(β).
    for node in tree.nodes:
        s2s_id = f"S2S:{node.node_id}"
        if s2s_id not in graph:
            continue
        for alpha_id in node.far:
            n2s_id = f"N2S:{alpha_id}"
            if n2s_id in graph:
                graph.add_dependency(n2s_id, s2s_id)

    # S2N(β) reads ũ_β written by S2S(β) and by S2N(parent).
    for node in tree.nodes:
        s2n_id = f"S2N:{node.node_id}"
        if s2n_id not in graph:
            continue
        s2s_id = f"S2S:{node.node_id}"
        if s2s_id in graph:
            graph.add_dependency(s2s_id, s2n_id)
        if node.parent is not None and not node.parent.is_root:
            parent_id = f"S2N:{node.parent.node_id}"
            if parent_id in graph:
                graph.add_dependency(parent_id, s2n_id)

    graph.validate()
    return graph


def build_compression_dag(tree: BallTree, cost: CostModel, num_neighbor_trees: int = 1) -> TaskGraph:
    """Task DAG of Algorithm 2.2 (SPLI, ANN, SKEL, COEF, Kba, SKba)."""
    graph = TaskGraph()

    for node in tree.nodes:
        _mk(
            graph,
            "SPLI",
            node,
            cost,
            cost.spli(node.size),
            bytes_moved=cost.bytes_moved("SPLI", node_size=node.size),
        )
        if node.is_leaf:
            # The ANN task is repeated once per projection-tree iteration; we
            # fold the iterations into a single task with scaled cost.
            _mk(
                graph,
                "ANN",
                node,
                cost,
                cost.ann() * max(num_neighbor_trees, 1),
                bytes_moved=cost.bytes_moved("ANN"),
            )
        if not node.is_root:
            _mk(graph, "SKEL", node, cost, cost.skel())
            _mk(graph, "COEF", node, cost, cost.coef())
            if node.far:
                _mk(graph, "SKba", node, cost, cost.skba(len(node.far)), bytes_moved=cost.bytes_moved("SKBA", far_size=len(node.far)))
        if node.is_leaf and node.near:
            _mk(graph, "Kba", node, cost, cost.kba(len(node.near)), bytes_moved=cost.bytes_moved("KBA", near_size=len(node.near)))

    for node in tree.nodes:
        spli_id = f"SPLI:{node.node_id}"
        # SPLI: parent before children (preorder).
        if node.parent is not None:
            graph.add_dependency(f"SPLI:{node.parent.node_id}", spli_id)
        # ANN after the leaf's SPLI.
        if node.is_leaf:
            graph.add_dependency(spli_id, f"ANN:{node.node_id}")
        # SKEL after the node's SPLI and after the children's SKEL.
        skel_id = f"SKEL:{node.node_id}"
        if skel_id in graph:
            graph.add_dependency(spli_id, skel_id)
            if not node.is_leaf:
                for child in node.children():
                    child_skel = f"SKEL:{child.node_id}"
                    if child_skel in graph:
                        graph.add_dependency(child_skel, skel_id)
            # COEF after SKEL.
            graph.add_dependency(skel_id, f"COEF:{node.node_id}")
            # SKba needs the node's and its far nodes' skeletons.
            skba_id = f"SKba:{node.node_id}"
            if skba_id in graph:
                graph.add_dependency(skel_id, skba_id)
                for alpha_id in node.far:
                    alpha_skel = f"SKEL:{alpha_id}"
                    if alpha_skel in graph:
                        graph.add_dependency(alpha_skel, skba_id)
        # Kba after the leaf's SPLI (needs the final index sets of both leaves).
        kba_id = f"Kba:{node.node_id}"
        if kba_id in graph:
            graph.add_dependency(spli_id, kba_id)
            for alpha_id in node.near:
                graph.add_dependency(f"SPLI:{alpha_id}", kba_id)

    graph.validate()
    return graph

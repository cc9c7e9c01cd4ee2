"""Graph-Laplacian test matrices (the paper's G01–G05).

The paper compresses the (regularized) *inverse* Laplacian of five sparse
graphs from the UFL collection — powersim (power grid), poli_large
(economics), rgg_n_2_16_s0 (random geometric graph), denormal, and
conf6_0-8x8-30 (lattice QCD).  These are the headline "no coordinates
available" cases: a dense SPD matrix with no geometric side information.

Those exact graphs are not downloadable offline, so each generator here
builds a synthetic graph of the same structural family with ``networkx`` and
returns ``K = (L + σ D_avg I)^{-1}`` densely, which is SPD because
``L + σ I`` is.  The inverse is computed through a sparse factorization of
the shifted Laplacian, exactly how a user of the real graphs would obtain
entry evaluations.
"""

from __future__ import annotations

from typing import Callable

import networkx as nx
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import MatrixDefinitionError
from .base import DenseSPD

__all__ = [
    "inverse_graph_laplacian",
    "power_grid_graph",
    "economic_network_graph",
    "random_geometric_graph",
    "near_regular_graph",
    "lattice_qcd_like_graph",
    "graph_matrix",
]


def _connected(graph: nx.Graph) -> nx.Graph:
    """Return the largest connected component with nodes relabelled 0..n-1."""
    if graph.number_of_nodes() == 0:
        raise MatrixDefinitionError("graph has no nodes")
    if not nx.is_connected(graph):
        component = max(nx.connected_components(graph), key=len)
        graph = graph.subgraph(component).copy()
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")


def power_grid_graph(n: int, seed: int = 0) -> nx.Graph:
    """Sparse, tree-like graph with a few redundancy edges (powersim-like)."""
    rng = np.random.default_rng(seed)
    graph = nx.random_labeled_tree(n, seed=seed)
    extra = max(1, n // 20)
    nodes = np.arange(n)
    for _ in range(extra):
        u, v = rng.choice(nodes, size=2, replace=False)
        graph.add_edge(int(u), int(v))
    return _connected(graph)

def economic_network_graph(n: int, seed: int = 0) -> nx.Graph:
    """Heavy-tailed-degree graph (poli_large-like) via powerlaw cluster model."""
    m = max(1, min(3, n - 1))
    graph = nx.powerlaw_cluster_graph(n, m, 0.3, seed=seed)
    return _connected(graph)


def random_geometric_graph(n: int, seed: int = 0) -> nx.Graph:
    """Random geometric graph in the unit square (rgg_n_2_16_s0-like)."""
    radius = np.sqrt(4.0 / max(n, 2))  # ~4 expected neighbors, stays connected after LCC
    graph = nx.random_geometric_graph(n, radius, seed=seed)
    return _connected(graph)


def near_regular_graph(n: int, seed: int = 0) -> nx.Graph:
    """Nearly-regular expander-ish graph (denormal-like banded structure)."""
    k = min(6, max(2, n - 1))
    if k % 2 == 1:
        k -= 1
    graph = nx.connected_watts_strogatz_graph(n, max(k, 2), 0.05, seed=seed)
    return _connected(graph)


def lattice_qcd_like_graph(n: int, seed: int = 0) -> nx.Graph:
    """Periodic 4D lattice graph (conf6_0-8x8-30-like)."""
    side = max(2, int(round(n ** 0.25)))
    dims = [side, side, side, max(2, int(np.ceil(n / side**3)))]
    graph = nx.grid_graph(dim=dims, periodic=True)
    graph = nx.convert_node_labels_to_integers(graph, ordering="sorted")
    if graph.number_of_nodes() > n:
        graph = graph.subgraph(range(n)).copy()
    return _connected(graph)


_GRAPH_BUILDERS: dict[str, Callable[[int, int], nx.Graph]] = {
    "G01": power_grid_graph,
    "G02": economic_network_graph,
    "G03": random_geometric_graph,
    "G04": near_regular_graph,
    "G05": lattice_qcd_like_graph,
}


def inverse_graph_laplacian(
    graph: nx.Graph,
    shift: float = 1e-2,
    n_target: int | None = None,
    name: str = "graph",
) -> DenseSPD:
    """Dense SPD matrix ``(L + σ d̄ I)^{-1}`` for the given graph.

    ``L`` is the combinatorial Laplacian, ``d̄`` the average degree, and the
    shift ``σ d̄`` regularizes the singular Laplacian.  The result carries
    **no coordinates** on purpose: it is the geometry-oblivious test case.
    """
    n = graph.number_of_nodes()
    lap = nx.laplacian_matrix(graph).astype(np.float64).tocsc()
    avg_degree = float(lap.diagonal().mean()) if n else 1.0
    shifted = (lap + shift * max(avg_degree, 1.0) * sp.identity(n, format="csc")).tocsc()
    solver = spla.factorized(shifted)
    keep = n if n_target is None else min(n_target, n)
    # One keep × keep array the whole way: column j is the first ``keep``
    # rows of the j-th solve, symmetrised and scaled in place.
    dense = np.empty((keep, keep), order="F")
    unit = np.zeros(n)
    for j in range(keep):
        unit[j] = 1.0
        dense[:, j] = solver(unit)[:keep]
        unit[j] = 0.0
    _symmetrize_in_place(dense)
    dense /= max(dense.max(), -dense.min(), np.finfo(np.float64).tiny)
    # ``dense`` is symmetric, so its transpose is the same matrix, C-ordered.
    return DenseSPD(dense.T, coordinates=None, validate=False, name=name)


def _symmetrize_in_place(a: np.ndarray) -> None:
    """``a ← 0.5 (a + aᵀ)`` one tile pair at a time, bit for bit the allocating form."""
    n, tile = a.shape[0], 256
    for i in range(0, n, tile):
        rows = slice(i, i + tile)
        for j in range(i, n, tile):
            cols = slice(j, j + tile)
            sym = 0.5 * (a[rows, cols] + a[cols, rows].T)
            a[rows, cols] = sym
            a[cols, rows] = sym.T


def graph_matrix(which: str, n: int, seed: int = 0, shift: float = 1e-2) -> DenseSPD:
    """Build one of the G01–G05 emulated inverse graph Laplacians at size ``n``."""
    key = which.upper()
    if key not in _GRAPH_BUILDERS:
        raise MatrixDefinitionError(f"unknown graph matrix {which!r}; expected one of {sorted(_GRAPH_BUILDERS)}")
    # Build slightly larger than requested so the largest connected component
    # still has at least n nodes, then truncate.
    oversize = int(np.ceil(n * 1.1)) + 4
    graph = _GRAPH_BUILDERS[key](oversize, seed)
    if graph.number_of_nodes() < n:
        graph = _GRAPH_BUILDERS[key](2 * oversize, seed)
    return inverse_graph_laplacian(graph, shift=shift, n_target=n, name=key)

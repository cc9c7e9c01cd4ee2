"""Unit tests for the graph-Laplacian matrices (G01–G05 emulation)."""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import MatrixDefinitionError
from repro.matrices.graphs import (
    economic_network_graph,
    graph_matrix,
    inverse_graph_laplacian,
    lattice_qcd_like_graph,
    near_regular_graph,
    power_grid_graph,
    random_geometric_graph,
)

GRAPH_BUILDERS = [
    power_grid_graph,
    economic_network_graph,
    random_geometric_graph,
    near_regular_graph,
    lattice_qcd_like_graph,
]


@pytest.mark.parametrize("builder", GRAPH_BUILDERS, ids=lambda f: f.__name__)
class TestGraphGenerators:
    def test_connected(self, builder):
        graph = builder(80, seed=0)
        assert nx.is_connected(graph)

    def test_labels_are_contiguous(self, builder):
        graph = builder(60, seed=1)
        assert sorted(graph.nodes()) == list(range(graph.number_of_nodes()))

    def test_deterministic(self, builder):
        g1 = builder(50, seed=7)
        g2 = builder(50, seed=7)
        assert set(g1.edges()) == set(g2.edges())


class TestInverseGraphLaplacian:
    def test_spd(self):
        graph = random_geometric_graph(70, seed=0)
        m = inverse_graph_laplacian(graph, shift=1e-2)
        a = m.array
        assert np.allclose(a, a.T, atol=1e-10)
        assert np.linalg.eigvalsh(a).min() > 0.0

    def test_no_coordinates(self):
        graph = power_grid_graph(40, seed=0)
        m = inverse_graph_laplacian(graph)
        assert m.coordinates is None

    def test_matches_direct_inverse(self):
        graph = nx.cycle_graph(12)
        lap = nx.laplacian_matrix(graph).toarray().astype(float)
        shift = 0.1 * lap.diagonal().mean()
        expected = np.linalg.inv(lap + shift * np.eye(12))
        expected /= np.abs(expected).max()
        m = inverse_graph_laplacian(graph, shift=0.1)
        assert np.allclose(m.array, expected, atol=1e-8)

    @pytest.mark.parametrize("n", [300, 517])
    @pytest.mark.parametrize("n_target", [None, 280])
    def test_equals_the_allocating_formula(self, n, n_target):
        """One in-place keep × keep array gives the column-stack formula's bits."""
        graph = random_geometric_graph(n, seed=3)
        size = graph.number_of_nodes()
        lap = nx.laplacian_matrix(graph).astype(np.float64).tocsc()
        shift = 1e-2 * max(float(lap.diagonal().mean()), 1.0)
        solver = spla.factorized((lap + shift * sp.identity(size, format="csc")).tocsc())
        keep = size if n_target is None else min(n_target, size)
        cols = np.column_stack([solver(np.eye(size, 1, -j).ravel()) for j in range(keep)])
        dense = cols[:keep, :]
        dense = 0.5 * (dense + dense.T)
        dense /= max(np.abs(dense).max(), np.finfo(np.float64).tiny)
        m = inverse_graph_laplacian(graph, n_target=n_target)
        assert np.array_equal(m.array, dense)
        assert m.array.flags.c_contiguous

    def test_truncation_keeps_spd(self):
        graph = near_regular_graph(60, seed=2)
        m = inverse_graph_laplacian(graph, n_target=40)
        assert m.n == 40
        assert np.linalg.eigvalsh(m.array).min() > 0.0


class TestGraphMatrixFactory:
    @pytest.mark.parametrize("name", ["G01", "G02", "G03", "G04", "G05"])
    def test_all_names_build(self, name):
        m = graph_matrix(name, 64, seed=0)
        assert m.n == 64
        assert np.linalg.eigvalsh(m.array).min() > 0.0

    def test_lowercase_accepted(self):
        assert graph_matrix("g03", 32).n == 32

    def test_unknown_name_rejected(self):
        with pytest.raises(MatrixDefinitionError):
            graph_matrix("G99", 32)

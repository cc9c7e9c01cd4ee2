"""Unit tests for the named matrix testbed registry."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import MatrixDefinitionError
from repro.matrices import available_matrices, build_matrix, matrix_info
from repro.matrices.registry import MATRIX_GROUPS

ALL_NAMES = available_matrices()

# Matrices cheap enough to build densely in a unit test.
SMALL_BUILD_NAMES = [
    "K02", "K03", "K04", "K05", "K06", "K07", "K08", "K09", "K10", "K11",
    "K12", "K14", "K15", "K17", "K18", "G01", "G03", "G05", "covtype", "mnist",
]


class TestRegistryContents:
    def test_paper_testbed_present(self):
        for name in ["K02", "K03", "K06", "K15", "K17", "K18", "G01", "G05", "covtype", "higgs", "mnist"]:
            assert name in ALL_NAMES

    def test_info_available_for_every_matrix(self):
        for name in ALL_NAMES:
            info = matrix_info(name)
            assert info.name == name
            assert info.default_n >= 1024
            assert info.group in MATRIX_GROUPS

    def test_groups_partition_registry(self):
        grouped = sorted(name for names in MATRIX_GROUPS.values() for name in names)
        assert grouped == sorted(ALL_NAMES)

    def test_group_filter(self):
        graph_names = available_matrices(group="graph")
        assert set(graph_names) == {"G01", "G02", "G03", "G04", "G05"}

    def test_unknown_group_rejected(self):
        with pytest.raises(MatrixDefinitionError):
            available_matrices(group="nope")

    def test_unknown_matrix_rejected(self):
        with pytest.raises(MatrixDefinitionError):
            build_matrix("K99", 64)
        with pytest.raises(MatrixDefinitionError):
            matrix_info("K99")

    def test_too_small_size_rejected(self):
        with pytest.raises(MatrixDefinitionError):
            build_matrix("K04", 2)


@pytest.mark.parametrize("name", SMALL_BUILD_NAMES)
class TestBuiltMatrices:
    def test_size_and_spd_character(self, name):
        m = build_matrix(name, 72, seed=0)
        assert m.n == 72
        # Cheap SPD sanity check (positive diagonal, symmetric samples).
        m.validate_spd(sample=32)

    def test_coordinates_flag_matches_info(self, name):
        m = build_matrix(name, 48, seed=0)
        info = matrix_info(name)
        if info.has_coordinates:
            assert m.coordinates is not None
        else:
            assert m.coordinates is None


class TestDeterminism:
    @pytest.mark.parametrize("name", ["K04", "K12", "G03", "covtype"])
    def test_same_seed_same_matrix(self, name):
        a = build_matrix(name, 48, seed=5)
        b = build_matrix(name, 48, seed=5)
        idx = np.arange(16)
        assert np.allclose(a.entries(idx, idx), b.entries(idx, idx))


class TestSPDEigenvalues:
    @pytest.mark.parametrize("name", ["K02", "K04", "K10", "K15", "G03"])
    def test_strictly_positive_definite(self, name):
        m = build_matrix(name, 64, seed=0)
        eigenvalues = np.linalg.eigvalsh(m.to_dense())
        assert eigenvalues.min() > 0.0


class TestImportCost:
    def test_importing_the_package_leaves_networkx_unloaded(self):
        # Only the graph matrices G01–G05 need networkx; they import it on build.
        src = str(Path(__file__).resolve().parents[2] / "src")
        code = (
            "import sys; import repro, repro.api, repro.matrices; "
            "assert 'networkx' not in sys.modules, 'networkx imported'"
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

"""Engine selection: block residency picks the engine, and nothing else does.

``CompressedMatrix.default_engine`` returns ``"planned"`` exactly when no
block provider is disk-backed and either both caches are on or the packed
plan is already built; everything else streams.  The lattice below pins
every combination of residency × caching × plan state to the answer the
engine picked while a config field still named it (``evaluation_engine``,
forced to ``"streamed"`` for mmap-opened stores).
"""

import json

import numpy as np
import pytest

from repro import GOFMMConfig
from repro.api import CompressedOperator, Session
from repro.config import DistanceMetric
from repro.errors import EvaluationError

from ..conftest import make_gaussian_kernel_matrix
from .test_ann_sweep import rewrite_npz_meta

CACHING = {
    "both-cached": (True, True),
    "near-only": (True, False),
    "far-only": (False, True),
    "memoryless": (False, False),
}


def make_config(caching: str = "both-cached") -> GOFMMConfig:
    cache_near, cache_far = CACHING[caching]
    return GOFMMConfig(
        leaf_size=32, max_rank=24, tolerance=1e-7, neighbors=8,
        budget=0.2, num_neighbor_trees=3, distance=DistanceMetric.KERNEL, seed=0,
        cache_near_blocks=cache_near, cache_far_blocks=cache_far,
    )


@pytest.fixture(scope="module")
def matrix():
    return make_gaussian_kernel_matrix(n=180, d=3, bandwidth=1.5, seed=0)


@pytest.fixture(scope="module")
def stores(matrix, tmp_path_factory):
    """One saved store per caching configuration, plus its fresh operator."""
    root = tmp_path_factory.mktemp("engine-stores")
    saved = {}
    for caching in CACHING:
        operator = Session(matrix, make_config(caching)).compress()
        path = root / caching
        operator.save(path)
        saved[caching] = (operator, path)
    return saved


class TestDefaultEngineLattice:
    @pytest.mark.parametrize("built", [False, True], ids=["plan-not-built", "plan-built"])
    @pytest.mark.parametrize("caching", list(CACHING))
    @pytest.mark.parametrize("residency", ["in-memory", "ram", "mmap"])
    def test_cell(self, matrix, stores, residency, caching, built):
        fresh, path = stores[caching]
        if residency == "in-memory":
            operator = Session(matrix, make_config(caching)).compress()
        else:
            operator = CompressedOperator.open(path, resident=residency, matrix=matrix)
        if built:
            # Only whether a plan exists matters; a stored partial cache
            # cannot pack one itself (its provider never evaluates), so
            # borrow the fresh twin's plan over the same tree.
            operator.compressed._plan = fresh.compressed.plan()
        if residency == "mmap":
            expected = "streamed"
        else:
            expected = "planned" if caching == "both-cached" or built else "streamed"
        assert operator.default_engine() == expected


class TestEngineArgument:
    def test_unknown_engine_raises(self, stores, matrix):
        operator, _ = stores["both-cached"]
        for engine in ("reference", "nope"):
            with pytest.raises(EvaluationError, match="unknown evaluation engine"):
                operator.apply(np.zeros(matrix.n), engine=engine)

    def test_knob_is_gone(self):
        assert "evaluation_engine" not in GOFMMConfig.__dataclass_fields__
        with pytest.raises(TypeError):
            GOFMMConfig(evaluation_engine="planned")


class TestReportedEngine:
    def test_repr_names_the_engine_that_runs(self, matrix):
        operator = Session(matrix, make_config("memoryless")).compress()
        assert operator.default_engine() == "streamed"
        assert "engine=streamed" in repr(operator)
        cached = Session(matrix, make_config()).compress()
        assert "engine=planned" in repr(cached)

    def test_mmap_memoryless_without_matrix_raises_streamed_error(self, stores, matrix):
        _, path = stores["memoryless"]
        operator = CompressedOperator.open(path, resident="mmap")
        assert operator.default_engine() == "streamed"
        with pytest.raises(EvaluationError, match="no source matrix"):
            operator.apply(np.ones(matrix.n))


# ---------------------------------------------------------------------------
# files written while ``evaluation_engine`` was a config field still open
# ---------------------------------------------------------------------------

RETIRED_VALUES = ["planned", "streamed", "reference"]


@pytest.mark.parametrize("value", RETIRED_VALUES)
@pytest.mark.parametrize("residency", ["ram", "mmap"])
def test_store_with_retired_engine_key_opens(tmp_path, stores, matrix, residency, value):
    operator, _ = stores["both-cached"]
    path = tmp_path / "op.store"
    operator.save(path)
    w = np.random.default_rng(1).standard_normal((matrix.n, 3))
    expected = CompressedOperator.open(path, resident=residency).apply(w)

    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["evaluation_engine"] = value
    manifest["fingerprints"]["plan"]["evaluation_engine"] = value
    manifest_path.write_text(json.dumps(manifest))
    reopened = CompressedOperator.open(path, resident=residency)
    assert reopened.default_engine() == ("streamed" if residency == "mmap" else "planned")
    assert reopened.apply(w).tobytes() == expected.tobytes()


@pytest.mark.parametrize("value", RETIRED_VALUES)
@pytest.mark.parametrize("fmt", ["npz", "dir"])
def test_artifact_with_retired_engine_key_loads(tmp_path, matrix, fmt, value):
    config = make_config()
    w = np.random.default_rng(2).standard_normal((matrix.n, 3))
    expected = Session(matrix, config).compress().apply(w)
    saver = Session(matrix, config)
    path = tmp_path / ("artifacts.npz" if fmt == "npz" else "artifacts")
    saver.save_artifacts(path, format=fmt)

    def add_retired(meta):
        meta["config"] = {"evaluation_engine": value}
        meta["fingerprints"]["plan"] = {"evaluation_engine": value}

    if fmt == "npz":
        rewrite_npz_meta(path, add_retired)
    else:
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        add_retired(manifest)
        manifest_path.write_text(json.dumps(manifest))

    loader = Session(matrix, config)
    assert loader.load_artifacts(path) == ("partition", "neighbors", "interactions")
    operator = loader.compress()
    assert operator.default_engine() == "planned"
    assert operator.apply(w).tobytes() == expected.tobytes()

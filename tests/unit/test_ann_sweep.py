"""Unit tests for the ANN sweep (steps 1–3 of Algorithm 2.2).

The contract under test is stronger than "similar recall": the driver
:func:`~repro.core.neighbors.all_nearest_neighbors` must reproduce the
per-row oracle of ``tests/oracles/neighbors_reference.py`` **bit for bit**
— tables, iteration count and convergence flag — for every
``neighbor_workers`` (thread count is an execution knob, never a
semantic one) and with telemetry on or off.
"""

import json
from functools import lru_cache

import numpy as np
import pytest

from repro import ConfigurationError, GOFMMConfig
from repro.api import CompressedOperator, Session
from repro.config import DistanceMetric
from repro.core.distances import GeometricDistance, make_distance
from repro.core.neighbors import (
    NeighborTable,
    all_nearest_neighbors,
    exhaustive_neighbors,
    init_table,
    merge_candidate_block,
    row_set_overlap,
    screened_merge,
    unchanged_fraction,
)
from repro.core.tree import build_tree
from repro.errors import ArtifactMismatchError
from repro.matrices import build_matrix
from repro.obs import Tracer, tracing

from ..conftest import make_gaussian_kernel_matrix
from ..oracles.neighbors_reference import _merge_candidates, reference_neighbors


def geometric_config(**overrides):
    params = dict(
        distance=DistanceMetric.GEOMETRIC, leaf_size=32, neighbors=8,
        num_neighbor_trees=4, neighbor_accuracy_target=0.999, seed=0,
    )
    params.update(overrides)
    return GOFMMConfig(**params)


@pytest.fixture()
def points():
    return np.random.default_rng(7).standard_normal((600, 4))


def test_config_rejects_bad_worker_counts():
    with pytest.raises(ConfigurationError, match="neighbor_workers"):
        geometric_config(neighbor_workers=0)
    with pytest.raises(ConfigurationError, match="compression_workers"):
        GOFMMConfig(compression_workers=-1)


def test_neighbor_backend_knob_is_gone():
    assert "neighbor_backend" not in GOFMMConfig.__dataclass_fields__
    with pytest.raises(ImportError):
        import repro.core.neighbor_backends  # noqa: F401


# ---------------------------------------------------------------------------
# merge kernels: blocked/screened paths against the per-row oracle
# ---------------------------------------------------------------------------

def random_merge_problem(rng, n=512, m=96, kappa=7, k=5, duplicates=False):
    """A random table + candidate block with realistic invariants.

    Tables start from ``init_table`` (self at 0, +inf fillers) and the
    candidates carry exact distances; with ``duplicates`` the candidate
    rows also repeat entries (the self-padded short leaves of the thread
    waves do exactly this).
    """
    idx_table, dist_table = init_table(n, kappa, rng)
    rows = np.sort(rng.choice(n, size=m, replace=False)).astype(np.intp)
    cand_idx = rng.integers(0, n, size=(m, k)).astype(np.intp)
    cand_dist = rng.random((m, k))
    if duplicates:
        # Repeats that lose to a stored entry — the documented precondition.
        # The thread waves pad short leaves with the row's own index at
        # +inf; self at distance 0 re-proposes the stored self entry.
        cand_idx[:, -1] = rows
        cand_dist[:, -1] = np.inf
        cand_idx[::3, 1] = rows[::3]
        cand_dist[::3, 1] = 0.0
    return idx_table, dist_table, rows, cand_idx, cand_dist


@pytest.mark.parametrize("duplicates", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_merge_candidate_block_matches_oracle(seed, duplicates):
    rng = np.random.default_rng(seed)
    idx_table, dist_table, rows, cand_idx, cand_dist = random_merge_problem(
        rng, duplicates=duplicates
    )
    oracle_idx, oracle_dist = idx_table.copy(), dist_table.copy()
    for r, row in enumerate(rows):
        oracle_idx[row], oracle_dist[row] = _merge_candidates(
            oracle_idx[row], oracle_dist[row], cand_idx[r], cand_dist[r]
        )
    merge_candidate_block(idx_table, dist_table, rows, cand_idx, cand_dist)
    np.testing.assert_array_equal(idx_table, oracle_idx)
    np.testing.assert_array_equal(dist_table, oracle_dist)


def _check_screened_merge(idx_table, dist_table, rows, cand_idx, cand_dist):
    pre_idx = idx_table.copy()
    oracle_idx, oracle_dist = idx_table.copy(), dist_table.copy()
    for r, row in enumerate(rows):
        oracle_idx[row], oracle_dist[row] = _merge_candidates(
            oracle_idx[row], oracle_dist[row], cand_idx[r], cand_dist[r]
        )
    touched, overlap = screened_merge(idx_table, dist_table, rows, cand_idx, cand_dist)
    np.testing.assert_array_equal(idx_table, oracle_idx)
    np.testing.assert_array_equal(dist_table, oracle_dist)
    # The reported overlap must equal the post-hoc set overlap over the
    # touched rows (what the incremental convergence measure consumes);
    # untouched rows are unchanged by construction.
    assert touched.size <= rows.size
    untouched = np.setdiff1d(rows, touched)
    np.testing.assert_array_equal(pre_idx[untouched], idx_table[untouched])
    assert overlap == int(row_set_overlap(pre_idx[touched], idx_table[touched]).sum())


def _screened_merge_problem(seed, warm):
    rng = np.random.default_rng(seed)
    idx_table, dist_table, rows, cand_idx, cand_dist = random_merge_problem(
        rng, duplicates=(seed % 2 == 1)
    )
    if warm:
        # Warm the table first so screening has real distances to screen against.
        warm_idx = rng.integers(0, idx_table.shape[0], size=cand_idx.shape).astype(np.intp)
        merge_candidate_block(idx_table, dist_table, rows, warm_idx, rng.random(cand_dist.shape))
    else:
        # The first merge goes into a fresh init_table; make sure some of
        # its random fillers collide, so those rows take the general path.
        idx_table[rows[::4], 2] = idx_table[rows[::4], 1]
        idx_table[rows[1::8], 1] = rows[1::8]
        assert any(len(set(idx_table[row])) < idx_table.shape[1] for row in rows)
    return idx_table, dist_table, rows, cand_idx, cand_dist


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_screened_merge_matches_oracle(seed, warm):
    _check_screened_merge(*_screened_merge_problem(seed, warm))


def test_screened_merge_matches_oracle_on_any_seed():
    # The candidates repeat indices freely, including repeats that beat the
    # stored row; those rows must leave the fast path.
    for seed in range(200):
        _check_screened_merge(*_screened_merge_problem(seed, warm=seed % 2 == 0))


def test_screened_merge_repeated_winning_candidate():
    rng = np.random.default_rng(5)
    idx_table, dist_table = init_table(64, 4, rng)
    rows = np.arange(8, dtype=np.intp)
    idx_table[rows, 1:] = np.arange(3) + 40  # distinct fillers
    cand_idx = np.tile(np.array([20, 21, 20, 22], dtype=np.intp), (8, 1))
    cand_dist = np.tile(np.array([0.3, 0.2, 0.1, 0.5]), (8, 1))
    _check_screened_merge(idx_table, dist_table, rows, cand_idx, cand_dist)
    # Index 20 is seated once, at its nearer distance.
    np.testing.assert_array_equal(idx_table[rows, 1:], np.tile([20, 21, 22], (8, 1)))
    np.testing.assert_array_equal(dist_table[rows, 1:], np.tile([0.1, 0.2, 0.5], (8, 1)))


def test_row_set_overlap_pinned():
    a = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    b = np.array([[2, 1, 9], [3, 4, 5], [0, 1, 2]])
    np.testing.assert_array_equal(row_set_overlap(a, b), [2, 3, 0])
    # Duplicates count once (set semantics).
    a = np.array([[1, 1, 2]])
    b = np.array([[1, 2, 2]])
    np.testing.assert_array_equal(row_set_overlap(a, b), [2])


def test_unchanged_fraction_is_set_based():
    """Regression pin for the convergence check.

    A row whose neighbor *set* is unchanged must count as fully converged
    regardless of column order, and a single swapped neighbor must cost
    exactly one overlap unit — the positional comparison this replaced
    could mis-score both cases.
    """
    prev = np.array([[0, 1, 2, 3], [4, 5, 6, 7]])
    perm = np.array([[3, 2, 1, 0], [7, 6, 5, 4]])
    assert unchanged_fraction(prev, perm) == 1.0
    one_swap = np.array([[0, 1, 2, 9], [4, 5, 6, 7]])
    assert unchanged_fraction(prev, one_swap) == pytest.approx(7 / 8)
    disjoint = prev + 100
    assert unchanged_fraction(prev, disjoint) == 0.0


def test_recall_against_matches_loop(points):
    config = geometric_config()
    distance = GeometricDistance(points)
    table = all_nearest_neighbors(distance, config)
    exact = exhaustive_neighbors(distance, config.neighbors)
    hits = 0
    for i in range(points.shape[0]):
        hits += np.intersect1d(table.indices[i], exact.indices[i]).size
    assert table.recall_against(exact) == pytest.approx(hits / exact.indices.size)


# ---------------------------------------------------------------------------
# the lattice: driver ≡ oracle for every worker count, telemetry and distance
# ---------------------------------------------------------------------------

def assert_tables_identical(a: NeighborTable, b: NeighborTable):
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.distances, b.distances)
    assert a.iterations == b.iterations
    assert a.converged == b.converged


LATTICE_MATRIX = make_gaussian_kernel_matrix(n=600, d=3, bandwidth=1.5, seed=3)


def lattice_config(metric, **overrides):
    # An uneven n/leaf_size split gives two leaf sizes per tree, and a
    # target the search reaches before the last tree exercises both the
    # convergence exit and the discarded speculative iterations.
    params = dict(
        distance=metric, leaf_size=40, neighbors=8, num_neighbor_trees=6,
        neighbor_accuracy_target=0.97, seed=11,
    )
    params.update(overrides)
    return GOFMMConfig(**params)


@lru_cache(maxsize=None)
def lattice_oracle(metric):
    config = lattice_config(metric)
    return reference_neighbors(make_distance(LATTICE_MATRIX, metric), config)


@pytest.mark.parametrize(
    "metric", [DistanceMetric.KERNEL, DistanceMetric.ANGLE, DistanceMetric.GEOMETRIC]
)
@pytest.mark.parametrize("telemetry", [False, True], ids=["telemetry-off", "telemetry-on"])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_driver_matches_oracle(workers, telemetry, metric):
    config = lattice_config(metric, neighbor_workers=workers, telemetry=telemetry)
    distance = make_distance(LATTICE_MATRIX, metric)
    with tracing(Tracer() if telemetry else None):
        table = all_nearest_neighbors(distance, config)
    assert_tables_identical(table, lattice_oracle(metric))


@pytest.mark.parametrize("metric", [DistanceMetric.KERNEL, DistanceMetric.ANGLE])
def test_entry_count_is_worker_count_independent(metric):
    """Entries evaluated on worker threads reach the matrix's counter.

    Two trees on two workers run as one wave, so no iteration is
    speculative and both counts cover exactly the same work.
    """
    matrix = make_gaussian_kernel_matrix(n=600, d=3, bandwidth=1.5, seed=3)
    counts = []
    for workers in (1, 2):
        config = lattice_config(metric, num_neighbor_trees=2, neighbor_workers=workers)
        matrix.reset_counter()
        distance = make_distance(matrix, metric)
        all_nearest_neighbors(distance, config)
        counts.append(matrix.entry_evaluations)
    assert counts[0] > 0
    assert counts[1] == counts[0]


def test_oracle_lattice_converges_early():
    """The lattice config stops before its last tree, so it covers the exit."""
    oracle = lattice_oracle(DistanceMetric.GEOMETRIC)
    assert oracle.converged
    assert 1 < oracle.iterations < 6


def test_single_leaf_bypasses_to_exact(points):
    config = geometric_config(leaf_size=points.shape[0], neighbor_workers=2)
    distance = GeometricDistance(points)
    exact = exhaustive_neighbors(distance, config.neighbors)
    table = all_nearest_neighbors(distance, config)
    assert np.array_equal(table.indices, exact.indices)
    assert np.array_equal(table.distances, exact.distances)
    assert table.converged


# ---------------------------------------------------------------------------
# leaf distance blocks: symmetry pre-check for evaluating each block once
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def symmetry_matrix(name):
    return build_matrix(name, n=1000)


@pytest.mark.parametrize(
    "metric", [DistanceMetric.KERNEL, DistanceMetric.ANGLE, DistanceMetric.GEOMETRIC]
)
@pytest.mark.parametrize("name", ["K05", "K07"])  # Gaussian, inverse multiquadric
def test_leaf_distance_blocks_are_bitwise_symmetric(name, metric):
    """``pairwise_blocks(s, s)`` equals its transpose exactly for every leaf batch.

    Evaluating only half of each leaf's distance block is a valid rewrite
    of the leaf pass only if this holds bit for bit.
    """
    matrix = symmetry_matrix(name)
    config = GOFMMConfig(distance=metric, leaf_size=48, seed=2)
    distance = make_distance(matrix, metric)
    tree = build_tree(
        matrix.n, config, distance, rng=np.random.default_rng(5), randomized_pivots=True
    )
    by_size = {}
    for leaf in tree.leaves:
        by_size.setdefault(leaf.indices.size, []).append(leaf.indices)
    assert len(by_size) == 2  # 1000 / 48 leaves: both leaf sizes are covered
    for group in by_size.values():
        stacked = np.stack(group)
        d = distance.pairwise_blocks(stacked, stacked)
        assert np.array_equal(d, d.transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# session integration: invalidation + persistence
# ---------------------------------------------------------------------------

class TestSessionIntegration:
    @pytest.fixture()
    def session(self):
        matrix = make_gaussian_kernel_matrix(n=240, d=3, bandwidth=1.5, seed=0)
        config = GOFMMConfig(
            leaf_size=32, max_rank=24, tolerance=1e-7, neighbors=8,
            num_neighbor_trees=3, budget=0.2, seed=0,
        )
        session = Session(matrix, config)
        session.compress()
        return session

    def test_worker_knobs_invalidate_nothing(self, session):
        """Worker counts are execution knobs: same results, no rebuild."""
        assert session.stale_stages(neighbor_workers=8) == frozenset()
        assert session.stale_stages(compression_workers=8) == frozenset()

    def test_threaded_table_roundtrips_through_artifacts(self, tmp_path):
        matrix = make_gaussian_kernel_matrix(n=240, d=3, bandwidth=1.5, seed=0)
        config = GOFMMConfig(
            leaf_size=32, max_rank=24, tolerance=1e-7, neighbors=8,
            num_neighbor_trees=3, budget=0.2, seed=0, neighbor_workers=2,
        )
        saver = Session(matrix, config)
        _, built_neighbors, _ = saver.prepare()
        path = tmp_path / "artifacts.npz"
        saver.save_artifacts(path)

        loader = Session(matrix, config)
        loaded_stages = loader.load_artifacts(path)
        assert "neighbors" in loaded_stages
        _, loaded_neighbors, _ = loader.prepare()
        assert_tables_identical(built_neighbors.table, loaded_neighbors.table)
        # The threaded table equals a single-thread build bit for bit (same
        # session seed, workers are an execution knob).
        _, serial_neighbors, _ = Session(matrix, config.replace(neighbor_workers=1)).prepare()
        assert_tables_identical(loaded_neighbors.table, serial_neighbors.table)


# ---------------------------------------------------------------------------
# files written while ``neighbor_backend`` was a config field still load
# ---------------------------------------------------------------------------

RETIRED = {"neighbor_backend": "blocked"}


@pytest.fixture()
def retired_problem():
    matrix = make_gaussian_kernel_matrix(n=240, d=3, bandwidth=1.5, seed=0)
    config = GOFMMConfig(
        leaf_size=32, max_rank=24, tolerance=1e-7, neighbors=8,
        num_neighbor_trees=3, budget=0.2, seed=0,
    )
    return matrix, config


def rewrite_npz_meta(path, edit):
    with np.load(path) as data:
        payload = {key: data[key] for key in data.files}
    meta = json.loads(bytes(payload["meta"]))
    edit(meta)
    payload["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def test_artifact_with_retired_key_loads(tmp_path, retired_problem):
    matrix, config = retired_problem
    saver = Session(matrix, config)
    partition, neighbors, _ = saver.prepare()
    path = tmp_path / "artifacts.npz"
    saver.save_artifacts(path)

    def add_retired(meta):
        for stage in ("neighbors", "interactions"):
            meta["fingerprints"][stage].update(RETIRED)

    rewrite_npz_meta(path, add_retired)
    loader = Session(matrix, config)
    assert loader.load_artifacts(path) == ("partition", "neighbors", "interactions")
    loaded_partition, loaded_neighbors, _ = loader.prepare()
    assert np.array_equal(loaded_neighbors.table.indices, neighbors.table.indices)
    assert np.array_equal(loaded_neighbors.table.distances, neighbors.table.distances)
    for a, b in zip(loaded_partition.tree.nodes, partition.tree.nodes):
        assert np.array_equal(a.indices, b.indices)

    # A *tracked* key that differs still blocks the load.
    def change_tracked(meta):
        meta["fingerprints"]["neighbors"]["num_neighbor_trees"] += 1

    rewrite_npz_meta(path, change_tracked)
    with pytest.raises(ArtifactMismatchError, match="neighbors"):
        Session(matrix, config).load_artifacts(path)


def test_store_with_retired_key_opens(tmp_path, retired_problem):
    matrix, config = retired_problem
    operator = Session(matrix, config).compress()
    w = np.random.default_rng(1).standard_normal((matrix.n, 3))
    path = tmp_path / "op.store"
    operator.save(path)
    expected = CompressedOperator.open(path).apply(w)

    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"].update(RETIRED)
    manifest["fingerprints"]["neighbors"].update(RETIRED)
    manifest_path.write_text(json.dumps(manifest))
    reopened = CompressedOperator.open(path)
    assert reopened.apply(w).tobytes() == expected.tobytes()

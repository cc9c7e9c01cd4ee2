"""Unit tests for the staged session API (repro.api.Session)."""

import numpy as np
import pytest

import importlib

from repro import GOFMMConfig

# ``repro.core`` re-exports the ``compress`` function, which shadows the
# submodule in ``import repro.core.compress as ...`` — resolve the module.
pipeline = importlib.import_module("repro.core.compress")
from repro.api import (
    STAGE_FIELDS,
    STAGE_ORDER,
    Session,
    changed_fields,
    invalidated_stages,
)
from repro.core.compress import compress as monolithic_compress
from repro.errors import CompressionError
from repro.gofmm import compress as gofmm_compress
from repro.matrices import KernelMatrix
from repro.matrices.kernels import GaussianKernel

from ..conftest import make_gaussian_kernel_matrix
from ..oracles.evaluate_reference import reference_matvec

COMMON = dict(leaf_size=32, max_rank=24, tolerance=1e-7, neighbors=8, num_neighbor_trees=3, seed=0)


@pytest.fixture()
def matrix():
    return make_gaussian_kernel_matrix(n=240, d=3, bandwidth=1.5, seed=0)


def make_session(matrix, **overrides) -> Session:
    params = dict(COMMON, budget=0.2)
    params.update(overrides)
    return Session(matrix, GOFMMConfig(**params))


class TestInvalidationMatrix:
    """Which config fields rebuild which artifacts (the stage-invalidation matrix)."""

    @pytest.mark.parametrize(
        "field,expected",
        [
            ("tolerance", {"skeletons", "far_blocks", "plan"}),
            ("adaptive_rank", {"skeletons", "far_blocks", "plan"}),
            ("secure_accuracy", {"skeletons", "far_blocks", "plan"}),
            ("dtype", {"skeletons", "far_blocks", "plan"}),
            ("budget", {"interactions", "skeletons", "near_blocks", "far_blocks", "plan"}),
            ("symmetrize_lists", {"interactions", "skeletons", "near_blocks", "far_blocks", "plan"}),
            ("max_rank", {"interactions", "skeletons", "near_blocks", "far_blocks", "plan"}),
            ("sample_size", {"interactions", "skeletons", "near_blocks", "far_blocks", "plan"}),
            ("oversampling", {"interactions", "skeletons", "near_blocks", "far_blocks", "plan"}),
            ("neighbors", {"neighbors", "interactions", "skeletons", "near_blocks", "far_blocks", "plan"}),
            ("num_neighbor_trees", {"neighbors", "interactions", "skeletons", "near_blocks", "far_blocks", "plan"}),
            ("neighbor_accuracy_target", {"neighbors", "interactions", "skeletons", "near_blocks", "far_blocks", "plan"}),
            # Worker counts are execution knobs: the neighbor search and the
            # skeletonization sweep are worker-count deterministic, so
            # nothing is invalidated.
            ("neighbor_workers", set()),
            ("compression_workers", set()),
            ("centroid_samples", {"partition", "interactions", "skeletons", "near_blocks", "far_blocks", "plan"}),
            ("leaf_size", set(STAGE_ORDER)),
            ("distance", set(STAGE_ORDER)),
            ("seed", set(STAGE_ORDER)),
            ("cache_near_blocks", {"near_blocks", "plan"}),
            ("cache_far_blocks", {"far_blocks", "plan"}),
            ("prebuild_plan", {"plan"}),
            ("plan_rank_bucketing", {"plan"}),
            ("streaming_chunk_bytes", {"plan"}),
        ],
    )
    def test_single_field_invalidation(self, field, expected):
        assert invalidated_stages({field}) == frozenset(expected)

    def test_no_change_invalidates_nothing(self):
        assert invalidated_stages(frozenset()) == frozenset()

    def test_every_stage_field_is_a_config_field(self):
        fields = set(GOFMMConfig.__dataclass_fields__)
        for stage, deps in STAGE_FIELDS.items():
            assert deps <= fields, f"stage {stage} depends on unknown fields {deps - fields}"

    def test_changed_fields_detects_differences(self):
        a = GOFMMConfig(**COMMON, budget=0.1)
        b = a.replace(budget=0.2, tolerance=1e-3)
        assert changed_fields(a, b) == frozenset({"budget", "tolerance"})


class TestSessionReuse:
    def test_sweep_reuses_partition_and_ann(self, matrix, monkeypatch):
        """tolerance/budget/max_rank sweeps run zero ANN searches and zero tree builds."""
        session = make_session(matrix)
        session.compress()

        ann_calls = []
        tree_calls = []
        original_ann = pipeline.all_nearest_neighbors
        original_tree = pipeline.build_tree
        monkeypatch.setattr(
            pipeline, "all_nearest_neighbors", lambda *a, **k: ann_calls.append(1) or original_ann(*a, **k)
        )
        monkeypatch.setattr(
            pipeline, "build_tree", lambda *a, **k: tree_calls.append(1) or original_tree(*a, **k)
        )

        session.recompress(tolerance=1e-3)
        session.recompress(budget=0.05)
        session.recompress(max_rank=16)
        session.recompress(tolerance=1e-5, budget=0.1, max_rank=20)

        assert ann_calls == [], "recompress must not re-run the ANN search"
        assert tree_calls == [], "recompress must not rebuild the ball tree"
        assert session.stage_builds["partition"] == 1
        assert session.stage_builds["neighbors"] == 1
        assert session.stage_builds["skeletons"] == 5

    def test_plan_reuse_honours_the_chunk_budget(self, matrix):
        """Fill chunks follow the chunk budget, so a plan is reused only under it."""
        session = make_session(matrix, cache_near_blocks=False, cache_far_blocks=False)
        op = session.compress()
        plan = op.compressed.plan()
        assert plan.filled_chunks > 0
        kept = session.recompress(prebuild_plan=True)
        assert session.last_built == ("plan",)
        assert kept.compressed._plan is plan
        budget = op.compressed.config.streaming_chunk_bytes // 4
        moved = session.recompress(streaming_chunk_bytes=budget)
        assert session.last_built == ("plan",)
        assert moved.compressed._plan is not plan
        assert moved.compressed.plan().report()["chunk_budget_bytes"] == budget

    def test_tolerance_change_reuses_interactions(self, matrix):
        session = make_session(matrix)
        session.compress()
        session.recompress(tolerance=1e-4)
        assert session.last_built == ("skeletons", "far_blocks", "plan")
        assert session.last_reused == ("partition", "neighbors", "interactions", "near_blocks")

    def test_budget_change_rebuilds_interactions(self, matrix):
        session = make_session(matrix)
        session.compress()
        session.recompress(budget=0.4)
        assert "interactions" in session.last_built
        assert "partition" in session.last_reused
        assert "neighbors" in session.last_reused

    def test_leaf_size_change_rebuilds_everything(self, matrix):
        session = make_session(matrix)
        session.compress()
        session.recompress(leaf_size=24)
        assert session.last_built == STAGE_ORDER

    def test_identical_recompress_reuses_everything(self, matrix):
        session = make_session(matrix)
        op1 = session.compress()
        op2 = session.recompress()
        assert session.last_built == ()
        assert op2.compressed is op1.compressed

    def test_report_marks_reused_phases(self, matrix):
        session = make_session(matrix)
        cold = session.compress()
        assert cold.report.reused_phases == []
        warm = session.recompress(tolerance=1e-3)
        assert "neighbors" in warm.report.reused_phases
        assert "tree" in warm.report.reused_phases
        assert "skeletonization" in warm.report.phase_seconds
        assert "neighbors" not in warm.report.phase_seconds

    def test_stale_stages_introspection(self, matrix):
        session = make_session(matrix)
        assert session.stale_stages() == frozenset(STAGE_ORDER)  # nothing built yet
        session.compress()
        assert session.stale_stages() == frozenset()
        assert session.stale_stages(tolerance=1e-3) == frozenset({"skeletons", "far_blocks", "plan"})
        assert "partition" in session.stale_stages(leaf_size=16)

    def test_invalidate_drops_stage_and_downstream(self, matrix):
        session = make_session(matrix)
        session.compress()
        near = session.artifact("near_blocks")
        dropped = session.invalidate("skeletons")
        assert dropped == frozenset({"skeletons", "far_blocks", "plan"})
        assert session.artifact("skeletons") is None
        assert session.artifact("partition") is not None
        assert session.artifact("near_blocks") is near
        session.compress()
        assert session.last_built == ("skeletons", "far_blocks", "plan")
        assert session.last_reused == ("partition", "neighbors", "interactions", "near_blocks")
        assert session.invalidate("near_blocks") == frozenset({"near_blocks", "plan"})
        session.compress()
        assert session.last_built == ("near_blocks", "plan")
        with pytest.raises(CompressionError, match="unknown stage"):
            session.invalidate("nonsense")
        assert session.invalidate() == frozenset(STAGE_ORDER)
        assert session.artifact("partition") is None

    def test_artifact_accessors(self, matrix):
        session = make_session(matrix)
        assert session.artifact("partition") is None
        session.compress()
        partition = session.artifact("partition")
        assert partition.num_leaves == len(partition.tree.leaves)
        assert session.artifact("neighbors").table is not None
        assert session.artifact("skeletons").average_rank > 0

    def test_partition_artifact_stays_pristine(self, matrix):
        """The cached tree must never inherit skeletons from a compression."""
        session = make_session(matrix)
        session.compress()
        tree = session.artifact("partition").tree
        assert all(node.skeleton is None for node in tree.nodes)
        assert all(node.coeffs is None for node in tree.nodes)
        assert all(not node.near and not node.far for node in tree.nodes)


class TestAbortedPassConsistency:
    def test_failed_recompress_does_not_poison_downstream_caches(self, matrix, monkeypatch):
        """If a pass rebuilds interactions and then aborts, a retry must rebuild
        skeletons/blocks/plan instead of silently reusing stale ones."""
        session = make_session(matrix, budget=0.05)
        session.compress()

        original = pipeline.run_skeletons_stage
        calls = {"n": 0}

        def failing_once(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected skeletonization failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_skeletons_stage", failing_once)
        with pytest.raises(RuntimeError, match="injected"):
            session.recompress(budget=0.5)  # rebuilds interactions, then aborts

        # Retry at the same config: downstream stages were built against the
        # *old* interactions and must not be reused.
        op = session.recompress()
        assert set(session.last_built) >= {"skeletons", "near_blocks", "far_blocks", "plan"}

        cold = monolithic_compress(matrix, session.config)
        w = np.random.default_rng(6).standard_normal((matrix.n, 4))
        assert np.max(np.abs(op.apply(w) - cold.matvec(w))) < 1e-13

    def test_run_with_session_rejects_foreign_matrix(self, matrix):
        from repro.errors import EvaluationError
        from repro.gofmm import run

        session = make_session(matrix)
        other = make_gaussian_kernel_matrix(n=240, d=3, bandwidth=2.0, seed=9)
        with pytest.raises(EvaluationError, match="session"):
            run(other, session.config, session=session)
        # None and the session's own matrix are both fine.
        assert run(None, session.config, num_rhs=4, session=session).epsilon2 >= 0
        assert run(session.matrix, session.config, num_rhs=4, session=session).epsilon2 >= 0


class TestNearBlocksReuse:
    """Near blocks outlive a recompress that cannot have changed them."""

    def test_tolerance_recompress_shares_the_near_provider(self, matrix):
        session = make_session(matrix)
        op = session.compress()
        looser = session.recompress(tolerance=1e-3)
        assert looser.compressed.near_blocks is op.compressed.near_blocks
        assert looser.compressed.far_blocks is not op.compressed.far_blocks
        assert session.stage_builds["near_blocks"] == 1
        assert session.stage_builds["far_blocks"] == 2
        assert "caching" in looser.report.phase_seconds          # the far half ran
        assert "caching" not in looser.report.reused_phases
        assert looser.report.reused_phases.count("tree") == 1

    def test_near_provider_is_bound_to_the_pristine_partition(self, matrix):
        """Never to a skeletonized working tree: a reused provider keeps no old skeletons alive."""
        session = make_session(matrix)
        op = session.compress()
        provider = op.compressed.near_blocks
        assert provider._tree is session.artifact("partition").tree
        assert provider._tree is not op.compressed.tree
        assert all(node.skeleton is None and node.coeffs is None for node in provider._tree.nodes)

    def test_operator_unchanged_by_a_recompress_sharing_its_blocks(self, matrix):
        """Slabs are read-only: nothing ``looser`` does can reach ``op`` through them."""
        session = make_session(matrix)
        op = session.compress()
        weights = np.random.default_rng(7).standard_normal((matrix.n, 3))
        before = op.apply(weights)
        before_reference = reference_matvec(op.compressed, weights)
        looser = session.recompress(tolerance=1e-2)
        looser.apply(weights)
        assert looser.solve(weights[:, 0], shift=1.0).converged    # preconditioners shift copies
        assert np.array_equal(op.apply(weights), before)
        del looser
        assert np.array_equal(op.apply(weights), before)
        assert np.array_equal(reference_matvec(op.compressed, weights), before_reference)
        cold = monolithic_compress(matrix, op.config)
        assert np.array_equal(cold.matvec(weights), before)

    def test_cached_blocks_reject_writes(self, matrix):
        op = make_session(matrix).compress()
        for provider in (op.compressed.near_blocks, op.compressed.far_blocks):
            _, block = next(iter(provider.cached_items()))
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 0.0

    def test_attach_never_inherits_near_blocks(self):
        """Another matrix has other entries: only the matrix-light stages are shared."""
        first, second = TestAttach()._family()
        session = make_session(first)
        session.compress()
        other = session.attach(second)
        assert other.artifact("near_blocks") is None
        op = other.compress()
        assert other.stage_builds["near_blocks"] == 1
        assert other.artifact("near_blocks") is not session.artifact("near_blocks")
        key = _first_near_key(op)
        rows, cols = (op.compressed.tree.node(i).indices for i in key)
        assert np.array_equal(op.compressed.near_blocks.get(key), second.entries(rows, cols))

    def test_abort_in_the_far_stage_leaves_a_valid_near_entry(self, matrix, monkeypatch):
        session = make_session(matrix, budget=0.05)
        session.compress()
        original = pipeline.run_far_blocks_stage
        calls = {"n": 0}

        def failing_once(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected far-block failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_far_blocks_stage", failing_once)
        with pytest.raises(RuntimeError, match="injected"):
            session.recompress(budget=0.5)      # new lists, skeletons and near blocks, then aborts
        assert session.stale_stages() == frozenset({"far_blocks", "plan"})
        op = session.recompress()
        assert session.last_built == ("far_blocks", "plan")
        cold = monolithic_compress(matrix, session.config)
        weights = np.random.default_rng(8).standard_normal((matrix.n, 4))
        assert np.array_equal(op.apply(weights), cold.matvec(weights))

    def test_entry_evaluations_of_a_tolerance_recompress_have_no_near_term(self):
        """The saving as a noise-free count; a cold compress still evaluates every entry once."""
        config = GOFMMConfig(**COMMON, budget=0.2)
        looser_config = config.replace(tolerance=1e-3)

        def counts(tree):
            # each symmetric near pair is evaluated once
            pairs = {(min(leaf.node_id, a), max(leaf.node_id, a)) for leaf in tree.leaves for a in leaf.near}
            near = sum(tree.node(b).size * tree.node(a).size for b, a in pairs)
            far = sum(
                node.skeleton_rank * tree.node(a).skeleton_rank for node in tree.nodes for a in node.far
            )
            return near, far

        def sampling(cfg):
            """Entries the skeletons stage alone evaluates, counted on a fresh matrix."""
            fresh = make_gaussian_kernel_matrix(n=240, d=3, bandwidth=1.5, seed=0)
            distance = pipeline.run_distance_stage(fresh, cfg, None)
            neighbors = pipeline.run_neighbors_stage(distance, cfg)
            tree = pipeline.run_partition_stage(fresh.n, cfg, distance)
            pipeline.run_interactions_stage(tree, neighbors, cfg)
            before = fresh.entry_evaluations
            pipeline.run_skeletons_stage(tree, fresh, cfg, neighbors)
            return fresh.entry_evaluations - before, before

        session = Session(make_gaussian_kernel_matrix(n=240, d=3, bandwidth=1.5, seed=0), config)
        cold = session.compress()
        near, far = counts(cold.compressed.tree)
        skeleton_samples, upstream = sampling(config)
        assert near > 0 and far > 0
        assert cold.report.entry_evaluations == upstream + skeleton_samples + near + far

        warm = session.recompress(tolerance=looser_config.tolerance)
        warm_near, warm_far = counts(warm.compressed.tree)
        assert warm_near == near
        assert warm.report.entry_evaluations == sampling(looser_config)[0] + warm_far


def _first_near_key(op):
    leaf = op.compressed.tree.leaves[0]
    return (leaf.node_id, leaf.near[0])


class TestEquivalence:
    def test_session_matches_monolithic_compress(self, matrix):
        config = GOFMMConfig(**COMMON, budget=0.2)
        op = Session(matrix, config).compress()
        cm = monolithic_compress(matrix, config)
        w = np.random.default_rng(1).standard_normal((matrix.n, 5))
        assert np.max(np.abs(op.apply(w) - cm.matvec(w))) < 1e-13

    def test_gofmm_shim_matches_session(self, matrix):
        """gofmm.compress (the deprecation shim) ≡ the session path to 1e-13."""
        config = GOFMMConfig(**COMMON, budget=0.2)
        shim = gofmm_compress(matrix, config)
        op = Session(matrix, config).compress()
        w = np.random.default_rng(2).standard_normal((matrix.n, 4))
        assert np.max(np.abs(op.apply(w) - shim.matvec(w))) < 1e-13

    def test_warm_recompress_matches_cold_compress(self, matrix):
        """A warm recompress must equal a from-scratch compression at the new config."""
        session = make_session(matrix)
        session.compress()
        warm = session.recompress(tolerance=1e-3, budget=0.05)
        cold = monolithic_compress(matrix, session.config)
        w = np.random.default_rng(3).standard_normal((matrix.n, 4))
        assert np.max(np.abs(warm.apply(w) - cold.matvec(w))) < 1e-13

    def test_reports_agree_with_monolithic(self, matrix):
        config = GOFMMConfig(**COMMON, budget=0.2)
        op = Session(matrix, config).compress()
        _, report = monolithic_compress(matrix, config, return_report=True)
        assert op.report.num_leaves == report.num_leaves
        assert op.report.tree_depth == report.tree_depth
        assert op.report.near_pairs == report.near_pairs
        assert op.report.far_pairs == report.far_pairs
        assert op.report.average_rank == pytest.approx(report.average_rank)


class TestAttach:
    def _family(self, n=240, bandwidths=(1.0, 2.0)):
        gen = np.random.default_rng(0)
        points = gen.standard_normal((n, 3))
        return [
            KernelMatrix(points, GaussianKernel(bandwidth=b), regularization=1e-6, name=f"g{b}")
            for b in bandwidths
        ]

    def test_attach_shares_partition_and_ann(self):
        first, second = self._family()
        session = make_session(first)
        session.compress()
        other = session.attach(second)
        other.compress()
        # The attached session never built its own partition / ANN / lists.
        assert other.stage_builds["partition"] == 0
        assert other.stage_builds["neighbors"] == 0
        assert other.stage_builds["interactions"] == 0
        assert other.artifact("partition") is session.artifact("partition")
        assert other.artifact("neighbors") is session.artifact("neighbors")

    def test_attached_operator_is_accurate(self):
        """Shared-partition compression agrees with an independent compression."""
        first, second = self._family()
        session = make_session(first)
        session.compress()
        shared_op = session.attach(second).compress()
        independent = monolithic_compress(second, session.config)

        w = np.random.default_rng(4).standard_normal((second.n, 6))
        exact = second.matvec(w)

        def eps(approx):
            return np.linalg.norm(approx - exact) / np.linalg.norm(exact)

        shared_eps = eps(shared_op.apply(w))
        independent_eps = eps(independent.matvec(w))
        # The shared partition was built for a different bandwidth, so allow
        # a modest accuracy gap — but both must be genuine compressions.
        assert shared_eps < 1e-2
        assert shared_eps < max(10 * independent_eps, 1e-6)

    def test_attach_rejects_size_mismatch(self, matrix):
        session = make_session(matrix)
        other = make_gaussian_kernel_matrix(n=128, d=3, bandwidth=1.5, seed=1)
        with pytest.raises(CompressionError):
            session.attach(other)

    def test_attach_with_config_changes(self):
        first, second = self._family()
        session = make_session(first)
        session.compress()
        other = session.attach(second, budget=0.0)
        op = other.compress()
        assert op.config.budget == 0.0
        assert other.stage_builds["partition"] == 0
        # budget changed relative to the shared artifact → lists rebuilt.
        assert other.stage_builds["interactions"] == 1

    def test_operators_of_family_are_independent(self):
        """Mutating nothing: two attached operators keep distinct skeleton state."""
        first, second = self._family()
        session = make_session(first)
        op1 = session.compress()
        op2 = session.attach(second).compress()
        assert op1.tree is not op2.tree
        w = np.random.default_rng(5).standard_normal(first.n)
        assert not np.allclose(op1.apply(w), op2.apply(w))


class TestArtifactPersistence:
    """Session.save_artifacts / load_artifacts: disk-backed Partition + Neighbors."""

    def test_roundtrip_reproduces_operator_exactly(self, matrix, tmp_path):
        session = make_session(matrix)
        op1 = session.compress()
        path = tmp_path / "artifacts.npz"
        session.save_artifacts(path)

        fresh = make_session(make_gaussian_kernel_matrix(n=240, d=3, bandwidth=1.5, seed=0))
        assert fresh.load_artifacts(path) == ("partition", "neighbors", "interactions")
        op2 = fresh.compress()
        assert fresh.last_reused == ("partition", "neighbors", "interactions")
        assert fresh.stage_builds["partition"] == 0
        assert fresh.stage_builds["neighbors"] == 0
        assert fresh.stage_builds["interactions"] == 0
        w = np.random.default_rng(0).standard_normal((matrix.n, 3))
        assert np.array_equal(op1.compressed.matvec(w), op2.compressed.matvec(w))

    def test_restored_tree_is_structurally_identical(self, matrix, tmp_path):
        session = make_session(matrix)
        session.prepare()
        path = tmp_path / "artifacts.npz"
        session.save_artifacts(path)
        fresh = make_session(matrix)
        fresh.load_artifacts(path)
        original = session.artifact("partition").tree
        restored = fresh.artifact("partition").tree
        assert np.array_equal(original.permutation, restored.permutation)
        assert original.depth == restored.depth
        for a, b in zip(original.nodes, restored.nodes):
            assert a.level == b.level and a.morton == b.morton
            assert np.array_equal(a.indices, b.indices)
        restored.check_invariants(session.config.leaf_size)

    def test_neighbor_table_roundtrip(self, matrix, tmp_path):
        session = make_session(matrix)
        session.prepare()
        path = tmp_path / "artifacts.npz"
        session.save_artifacts(path)
        fresh = make_session(matrix)
        fresh.load_artifacts(path)
        original = session.artifact("neighbors").table
        restored = fresh.artifact("neighbors").table
        assert np.array_equal(original.indices, restored.indices)
        assert np.array_equal(original.distances, restored.distances)
        assert original.iterations == restored.iterations
        assert original.converged == restored.converged

    def test_metric_free_ordering_saves_none_table(self, tmp_path):
        from repro.config import DistanceMetric

        matrix = make_gaussian_kernel_matrix(n=128, d=2, bandwidth=1.0, seed=1)
        session = make_session(matrix, distance=DistanceMetric.LEXICOGRAPHIC)
        path = tmp_path / "artifacts.npz"
        session.save_artifacts(path)
        fresh = make_session(matrix, distance=DistanceMetric.LEXICOGRAPHIC)
        fresh.load_artifacts(path)
        assert fresh.artifact("neighbors").table is None
        fresh.compress()

    def test_size_mismatch_rejected(self, matrix, tmp_path):
        session = make_session(matrix)
        path = tmp_path / "artifacts.npz"
        session.save_artifacts(path)
        other = make_session(make_gaussian_kernel_matrix(n=128, d=3, bandwidth=1.5, seed=0))
        with pytest.raises(CompressionError, match="n="):
            other.load_artifacts(path)

    def test_save_builds_only_persistable_stages(self, matrix, tmp_path):
        """Snapshotting builds exactly the matrix-light artifacts, nothing more."""
        session = make_session(matrix)
        session.save_artifacts(tmp_path / "artifacts.npz")
        assert session.stage_builds["partition"] == 1
        assert session.stage_builds["neighbors"] == 1
        assert session.stage_builds["interactions"] == 1
        assert session.stage_builds["skeletons"] == 0
        assert session.stage_builds["near_blocks"] == 0
        assert session.stage_builds["far_blocks"] == 0

    def test_truncated_neighbor_table_rejected_at_load(self, matrix, tmp_path):
        session = make_session(matrix)
        path = tmp_path / "artifacts.npz"
        session.save_artifacts(path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["neighbor_indices"] = payload["neighbor_indices"][:100]
        payload["neighbor_distances"] = payload["neighbor_distances"][:100]
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(CompressionError, match="neighbor table"):
            make_session(matrix).load_artifacts(path)

    def test_malformed_partition_rejected_at_load(self, matrix, tmp_path):
        session = make_session(matrix)
        path = tmp_path / "artifacts.npz"
        session.save_artifacts(path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["node_indices"] = payload["node_indices"].copy()
        payload["node_indices"][-5:] = 0  # duplicate indices: leaves now overlap
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(CompressionError):
            make_session(matrix).load_artifacts(path)

    def test_fingerprint_mismatch_rejected(self, matrix, tmp_path):
        session = make_session(matrix)
        path = tmp_path / "artifacts.npz"
        session.save_artifacts(path)
        other = make_session(matrix, leaf_size=64)
        with pytest.raises(CompressionError, match="fingerprint"):
            other.load_artifacts(path)

    def test_downstream_config_changes_do_not_block_load(self, matrix, tmp_path):
        """Artifacts only depend on partition/neighbors fields; sweeping
        tolerance or budget must still accept the saved file."""
        session = make_session(matrix)
        path = tmp_path / "artifacts.npz"
        session.save_artifacts(path)
        other = make_session(matrix, tolerance=1e-3, budget=0.0, max_rank=12)
        other.load_artifacts(path)
        op = other.compress()
        assert op.relative_error() < 1.0


class TestInteractionsPersistence:
    """Format-2 artifacts carry the interaction lists (serving cold start)."""

    def test_interactions_lists_roundtrip_exactly(self, matrix, tmp_path):
        session = make_session(matrix)
        session.prepare()
        path = tmp_path / "artifacts.npz"
        session.save_artifacts(path)
        fresh = make_session(matrix)
        fresh.load_artifacts(path)
        original = session.artifact("interactions")
        restored = fresh.artifact("interactions")
        assert restored is not None
        assert set(original.lists.near) == set(restored.lists.near)
        for node_id, members in original.lists.near.items():
            assert list(members) == list(restored.lists.near[node_id])  # order too
        assert set(original.lists.far) == set(restored.lists.far)
        for node_id, members in original.lists.far.items():
            assert list(members) == list(restored.lists.far[node_id])
        assert original.lists.budget_cap == restored.lists.budget_cap
        assert original.lists.num_leaves == restored.lists.num_leaves
        assert set(original.neighbor_lists) == set(restored.neighbor_lists)
        for node_id, lst in original.neighbor_lists.items():
            assert np.array_equal(lst, restored.neighbor_lists[node_id])

    def test_budget_change_degrades_to_two_stages(self, matrix, tmp_path):
        """An interactions fingerprint mismatch skips the lists but still
        installs the partition + ANN table (budget sweeps keep working)."""
        session = make_session(matrix)
        path = tmp_path / "artifacts.npz"
        session.save_artifacts(path)
        other = make_session(matrix, budget=0.0)
        assert other.load_artifacts(path) == ("partition", "neighbors")
        other.compress()
        assert other.stage_builds["partition"] == 0
        assert other.stage_builds["interactions"] == 1

    def test_malformed_lists_rejected_at_load(self, matrix, tmp_path):
        session = make_session(matrix)
        path = tmp_path / "artifacts.npz"
        session.save_artifacts(path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["far_cols"] = payload["far_cols"].copy()
        if payload["far_cols"].size:
            payload["far_cols"][0] = 10_000_000  # node id out of range
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(CompressionError, match="Far"):
            make_session(matrix).load_artifacts(path)

    def test_format1_files_still_load(self, matrix, tmp_path):
        """A pre-interactions artifact file installs its two stages."""
        import json as _json

        session = make_session(matrix)
        path = tmp_path / "artifacts.npz"
        session.save_artifacts(path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        meta = _json.loads(bytes(payload["meta"]))
        meta["format"] = 1
        del meta["budget_cap"], meta["num_leaves"]
        del meta["fingerprints"]["interactions"]
        payload = {
            k: v for k, v in payload.items()
            if k in ("node_offsets", "node_indices", "neighbor_indices", "neighbor_distances")
        }
        payload["meta"] = np.frombuffer(_json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        fresh = make_session(matrix)
        assert fresh.load_artifacts(path) == ("partition", "neighbors")
        fresh.compress()

    def test_cold_start_runs_zero_ann_and_list_work(self, matrix, tmp_path):
        session = make_session(matrix)
        op1 = session.compress()
        path = tmp_path / "artifacts.npz"
        session.save_artifacts(path)
        fresh = make_session(make_gaussian_kernel_matrix(n=240, d=3, bandwidth=1.5, seed=0))
        fresh.load_artifacts(path)
        op2 = fresh.compress()
        assert fresh.stage_builds["interactions"] == 0
        assert fresh.last_built == ("skeletons", "near_blocks", "far_blocks", "plan")
        w = np.random.default_rng(3).standard_normal(matrix.n)
        assert np.array_equal(op1.compressed.matvec(w), op2.compressed.matvec(w))


class TestArtifactMismatchError:
    """Satellite: artifact failures raise the typed ArtifactMismatchError."""

    def test_fingerprint_mismatch_raises_typed_error(self, matrix, tmp_path):
        from repro.errors import ArtifactMismatchError, ConfigurationError

        session = make_session(matrix)
        path = tmp_path / "artifacts.npz"
        session.save_artifacts(path)
        other = make_session(matrix, leaf_size=64)
        with pytest.raises(ArtifactMismatchError, match="fingerprint"):
            other.load_artifacts(path)
        # the typed error stays catchable under both historical families
        with pytest.raises(CompressionError):
            other.load_artifacts(path)
        with pytest.raises(ConfigurationError):
            other.load_artifacts(path)

    def test_truncated_npz_raises_typed_error(self, matrix, tmp_path):
        from repro.errors import ArtifactMismatchError

        session = make_session(matrix)
        path = tmp_path / "artifacts.npz"
        session.save_artifacts(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 3])
        with pytest.raises(ArtifactMismatchError, match="truncated or corrupt"):
            make_session(matrix).load_artifacts(path)

    def test_size_mismatch_raises_typed_error(self, matrix, tmp_path):
        from repro.errors import ArtifactMismatchError

        session = make_session(matrix)
        path = tmp_path / "artifacts.npz"
        session.save_artifacts(path)
        other = make_session(make_gaussian_kernel_matrix(n=128, d=3, bandwidth=1.5, seed=0))
        with pytest.raises(ArtifactMismatchError, match="n="):
            other.load_artifacts(path)


class TestDirArtifactFormat:
    """Session.save_artifacts(format="dir"): the mmap-able format-v2 directory."""

    def test_dir_roundtrip_reproduces_operator_exactly(self, matrix, tmp_path):
        session = make_session(matrix)
        path = tmp_path / "artifacts.store"
        session.save_artifacts(path, format="dir")
        assert path.is_dir() and (path / "manifest.json").exists()
        fresh = make_session(matrix)
        assert fresh.load_artifacts(path) == ("partition", "neighbors", "interactions")
        w = np.random.default_rng(0).standard_normal(matrix.n)
        direct = session.compress().matvec(w)
        assert np.array_equal(fresh.compress().matvec(w), direct)

    def test_unknown_format_rejected(self, matrix, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="format"):
            make_session(matrix).save_artifacts(tmp_path / "x", format="zip")

    def test_corrupt_dir_array_raises_typed_error(self, matrix, tmp_path):
        from repro.errors import ArtifactMismatchError

        session = make_session(matrix)
        path = tmp_path / "artifacts.store"
        session.save_artifacts(path, format="dir")
        victim = path / "node_indices.npy"
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
        with pytest.raises(ArtifactMismatchError):
            make_session(matrix).load_artifacts(path)

    def test_wrong_directory_kind_rejected(self, matrix, tmp_path):
        from repro.errors import ArtifactMismatchError

        session = make_session(matrix)
        operator = session.compress()
        store = tmp_path / "operator.store"
        operator.save(store)  # an operator store is not a session-artifacts dir
        with pytest.raises(ArtifactMismatchError, match="session-artifacts"):
            make_session(matrix).load_artifacts(store)

    def test_dir_format_loads_arrays_as_mmap(self, matrix, tmp_path):
        session = make_session(matrix)
        path = tmp_path / "artifacts.store"
        session.save_artifacts(path, format="dir")
        from repro.storage import read_array_dir

        _, arrays = read_array_dir(path, mmap=True)
        assert all(isinstance(arr, np.memmap) for arr in arrays.values())

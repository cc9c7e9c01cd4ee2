"""Unit tests for the rank-padded evaluation plan (the "planned" matvec engine).

The per-node traversal in ``tests/oracles/evaluate_reference.py`` is the
correctness oracle: every test here asserts that the planned engine
reproduces it to 1e-10 across kernels, budgets (HSS and FMM), and
right-hand-side shapes.
"""

import numpy as np
import pytest

from repro import ConfigurationError, EvaluationError, GOFMMConfig, compress
from repro.api import Session
from repro.config import DistanceMetric
from repro.core.plan import EvaluationCounters, PlanSegment, SlabSegment, pad_ranks, pads_ranks
from repro.core.streaming import StreamingPlan, build_streaming_plan
from repro.errors import CompressionError
from repro.matrices import build_matrix
from repro.runtime import parallel_evaluate

from ..conftest import make_gaussian_kernel_matrix, make_random_spd
from ..oracles.evaluate_reference import reference_matvec


def _config(budget: float, **overrides) -> GOFMMConfig:
    base = dict(
        leaf_size=28, max_rank=28, tolerance=1e-9, neighbors=8,
        budget=budget, num_neighbor_trees=4, distance=DistanceMetric.KERNEL, seed=0,
    )
    base.update(overrides)
    return GOFMMConfig(**base)


@pytest.fixture(scope="module")
def fmm_pair():
    matrix = make_gaussian_kernel_matrix(n=220, d=3, bandwidth=1.5, seed=0)
    return matrix, compress(matrix, _config(budget=0.3))


@pytest.fixture(scope="module")
def hss_pair():
    matrix = make_gaussian_kernel_matrix(n=220, d=3, bandwidth=1.5, seed=0)
    return matrix, compress(matrix, _config(budget=0.0))


class TestEquivalence:
    @pytest.mark.parametrize("budget", [0.0, 0.15, 0.5])
    def test_matches_reference_across_budgets(self, budget):
        matrix = make_gaussian_kernel_matrix(n=220, d=3, bandwidth=1.5, seed=0)
        cm = compress(matrix, _config(budget=budget))
        w = np.random.default_rng(0).standard_normal((matrix.n, 4))
        assert np.allclose(cm.matvec(w, engine="planned"), reference_matvec(cm, w), atol=1e-10)

    def test_single_vector(self, fmm_pair):
        matrix, cm = fmm_pair
        w = np.random.default_rng(1).standard_normal(matrix.n)
        planned = cm.matvec(w, engine="planned")
        assert planned.shape == (matrix.n,)
        assert np.allclose(planned, reference_matvec(cm, w), atol=1e-10)

    def test_multi_rhs(self, fmm_pair):
        matrix, cm = fmm_pair
        w = np.random.default_rng(2).standard_normal((matrix.n, 7))
        planned = cm.matvec(w, engine="planned")
        assert planned.shape == (matrix.n, 7)
        assert np.allclose(planned, reference_matvec(cm, w), atol=1e-10)

    def test_hss_case(self, hss_pair):
        matrix, cm = hss_pair
        w = np.random.default_rng(3).standard_normal((matrix.n, 3))
        assert np.allclose(cm.matvec(w, engine="planned"), reference_matvec(cm, w), atol=1e-10)

    def test_unstructured_matrix(self):
        matrix = make_random_spd(n=96, seed=2)
        cm = compress(matrix, _config(budget=0.25, leaf_size=24, max_rank=24, distance=DistanceMetric.ANGLE))
        w = np.random.default_rng(4).standard_normal((96, 2))
        assert np.allclose(cm.matvec(w, engine="planned"), reference_matvec(cm, w), atol=1e-10)

    @pytest.mark.parametrize("name", ["gaussian-narrow", "gaussian-wide"])
    def test_across_kernels(self, name):
        bandwidth = 0.6 if name == "gaussian-narrow" else 2.5
        matrix = make_gaussian_kernel_matrix(n=200, d=3, bandwidth=bandwidth, seed=5)
        cm = compress(matrix, _config(budget=0.2))
        w = np.random.default_rng(5).standard_normal((200, 3))
        assert np.allclose(cm.matvec(w, engine="planned"), reference_matvec(cm, w), atol=1e-10)

    def test_matches_explicit_dense_form(self, fmm_pair):
        matrix, cm = fmm_pair
        w = np.random.default_rng(6).standard_normal((matrix.n, 2))
        assert np.allclose(cm.matvec(w, engine="planned"), cm.to_dense() @ w, atol=1e-8)

    def test_uncached_blocks(self):
        """The plan fills blocks chunk by chunk when compression skipped caching."""
        matrix = make_gaussian_kernel_matrix(n=150, d=3, bandwidth=1.2, seed=6)
        cm = compress(matrix, _config(budget=0.2, leaf_size=25, max_rank=20,
                                      cache_near_blocks=False, cache_far_blocks=False))
        w = np.random.default_rng(7).standard_normal(150)
        assert np.allclose(cm.matvec(w, engine="planned"), reference_matvec(cm, w), atol=1e-10)

    def test_uncached_blocks_default_to_streamed(self):
        """Memory-bounded configs must not be silently packed by the default engine."""
        matrix = make_gaussian_kernel_matrix(n=150, d=3, bandwidth=1.2, seed=6)
        cm = compress(matrix, _config(budget=0.2, leaf_size=25, max_rank=20,
                                      cache_near_blocks=False, cache_far_blocks=False))
        assert cm.default_engine() == "streamed"
        cm.matvec(np.zeros(150))
        assert cm._plan is None  # default matvec did not build a packed plan
        # explicit opt-in still packs, and flips the default back to planned
        cm.matvec(np.zeros(150), engine="planned")
        assert cm._plan is not None
        assert cm.default_engine() == "planned"


class TestEngineSelection:
    def test_matvec_engine_argument(self, fmm_pair):
        matrix, cm = fmm_pair
        w = np.random.default_rng(8).standard_normal(matrix.n)
        assert np.allclose(cm.matvec(w, engine="planned"), reference_matvec(cm, w), atol=1e-10)

    def test_unknown_engine_rejected(self, fmm_pair):
        _, cm = fmm_pair
        with pytest.raises(EvaluationError):
            cm.matvec(np.zeros(cm.n), engine="warp-drive")

    def test_explicit_engine_overrides_default(self):
        matrix = make_gaussian_kernel_matrix(n=150, d=3, bandwidth=1.2, seed=9)
        cm = compress(matrix, _config(budget=0.2, leaf_size=25))
        w = np.random.default_rng(9).standard_normal(150)
        # the default comes from residency (cached, in memory: planned);
        # an explicit argument overrides it
        assert cm.default_engine() == "planned"
        assert np.array_equal(cm.matvec(w), cm.matvec(w, engine="planned"))
        assert np.array_equal(cm.matvec(w, engine="streamed"), reference_matvec(cm, w))

    def test_prebuild_plan_phase_reported(self):
        matrix = make_gaussian_kernel_matrix(n=150, d=3, bandwidth=1.2, seed=10)
        cm, report = compress(matrix, _config(budget=0.2, leaf_size=25, prebuild_plan=True), return_report=True)
        assert "plan" in report.phase_seconds
        assert cm._plan is not None


class TestPlanStructure:
    def test_plan_cached_and_rebuildable(self, fmm_pair):
        _, cm = fmm_pair
        plan = cm.plan()
        assert cm.plan() is plan
        assert cm.plan(rebuild=True) is not plan
        assert isinstance(plan, StreamingPlan)

    def test_workspace_offsets_disjoint(self, fmm_pair):
        _, cm = fmm_pair
        plan = cm.plan()
        spans = []
        for node in cm.tree.nodes:
            off = plan.layout.skel_offset[node.node_id]
            if off >= 0:
                spans.append((off, off + node.skeleton_rank))
        spans.sort()
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0
        assert spans[-1][1] <= plan.workspace_rows

    def test_scatter_targets_unique_within_segment(self, fmm_pair):
        """Rounds must leave no duplicate output row inside any one segment."""
        _, cm = fmm_pair
        plan = cm.plan()
        for seg in plan.segments():
            if seg.kind not in ("S2S", "L2L"):
                continue
            # the index lists whole blocks of the destination (rows when block is 1)
            flat = seg.dst[2].ravel()
            assert flat.size == np.unique(flat).size

    def test_hss_plan_has_no_offdiagonal_l2l(self, hss_pair):
        _, cm = hss_pair
        plan = cm.plan()
        l2l = [seg for seg in plan.segments() if seg.kind == "L2L"]
        # budget 0: the direct part is exactly the diagonal leaf blocks
        assert sum(seg.batch for seg in l2l) == len(cm.tree.leaves)
        assert all(seg.operand.shape[1] == seg.operand.shape[2] for seg in l2l)

    def test_stages_cover_all_segments(self, fmm_pair):
        _, cm = fmm_pair
        plan = cm.plan()
        staged = sum(len(stage) for _, stage in plan.stages())
        assert staged == plan.num_segments > 0

    def test_plan_report(self, fmm_pair):
        _, cm = fmm_pair
        report = cm.plan_report()
        assert report["segments"] > 0
        assert report["packed_entries"] > 0
        assert report["workspace_rows"] == cm.plan().workspace_rows
        assert report["near_pairs"] == cm.lists.total_near_pairs()
        assert report["far_pairs"] == cm.lists.total_far_pairs()


def _row_twin(access, leaf_perm):
    """The block-1 form of a ``(buffer, block, index)`` access: each block index expanded to its rows."""
    buffer, block, index = access
    if block == 1 or isinstance(index, slice):
        return access
    rows = (index[..., None] * block + np.arange(block)).reshape(len(index), -1)
    if buffer == "leaves":  # row i of the leaf-ordered weights is weights row leaf_perm[i]
        return ("weights", 1, leaf_perm[rows])
    return (buffer, 1, rows)


def _twin_in_place(plan) -> int:
    """Replace every segment with block > 1 by its block-1 twin; returns how many changed."""
    changed = 0
    for _, stage in plan.stages():
        for i, seg in enumerate(stage):
            src, dst = _row_twin(seg.src, plan.layout.leaf_perm), _row_twin(seg.dst, plan.layout.leaf_perm)
            if isinstance(seg, SlabSegment):
                back = _row_twin(seg.back, plan.layout.leaf_perm)
                if (src, dst, back) != (seg.src, seg.dst, seg.back):
                    stage[i] = SlabSegment(seg.operand, src, dst, back, seg.reduce, seg.targets,
                                           seg.block, seg.flush)
                    changed += 1
            elif (src, dst) != (seg.src, seg.dst):
                stage[i] = PlanSegment(seg.kind, seg.level, seg.operand, src, dst)
                changed += 1
    return changed


_BLOCK_CASES = {
    "adaptive-pow2": dict(tolerance=1e-4, max_rank=12),
    "adaptive-none": dict(tolerance=1e-4, max_rank=12, plan_rank_bucketing="none"),
    "fixed-rank": dict(max_rank=8, adaptive_rank=False),
}


@pytest.fixture(
    scope="module",
    params=[(n, case) for n in (256, 250) for case in _BLOCK_CASES],
    ids=lambda p: f"{'uniform' if p[0] == 256 else 'ragged'}-leaves-{p[1]}",
)
def block_case(request):
    n, case = request.param
    matrix = make_gaussian_kernel_matrix(n=n, d=3, bandwidth=1.5, seed=3)
    return n, case, compress(matrix, _config(budget=0.3, leaf_size=32, **_BLOCK_CASES[case]))


class TestBlockSize:
    """Block > 1 is a fast path only: its block-1 twin gives the same bytes."""

    @pytest.mark.parametrize("r", [1, 4, 16])
    def test_block_segments_equal_their_row_twins(self, block_case, r):
        n, case, cm = block_case
        plan = cm.plan(rebuild=True)
        if n == 256:
            assert plan.layout.uniform_leaf_size == 32
            assert any(seg.src[0] == "leaves" for seg in plan.segments())
        if case == "fixed-rank":
            assert plan.layout.uniform_rank == 8
            assert any(seg.src[1] == 8 for seg in plan.segments())
        w = np.random.default_rng(r).standard_normal((cm.n, r))
        expected = plan.execute(w)
        expected_parallel = parallel_evaluate(cm, w, num_workers=2, engine="planned")
        assert expected_parallel.tobytes() == expected.tobytes()
        changed = _twin_in_place(plan)
        assert cm.plan() is plan and all(seg.src[1] == seg.dst[1] == 1 for seg in plan.segments())
        assert all(seg.back[1] == 1 for seg in plan.segments() if isinstance(seg, SlabSegment))
        assert changed > 0 or (n == 250 and plan.layout.uniform_rank == 0)
        assert plan.execute(w).tobytes() == expected.tobytes()
        parallel = parallel_evaluate(cm, w, num_workers=2, engine="planned")
        assert parallel.tobytes() == expected_parallel.tobytes()


class TestCounters:
    def test_counters_populated_and_scale_with_rhs(self, fmm_pair):
        matrix, cm = fmm_pair
        c1, c4 = EvaluationCounters(), EvaluationCounters()
        gen = np.random.default_rng(11)
        cm.plan().execute(gen.standard_normal((matrix.n, 1)), counters=c1)
        cm.plan().execute(gen.standard_normal((matrix.n, 4)), counters=c4)
        assert c1.n2s > 0 and c1.s2s > 0 and c1.s2n > 0 and c1.l2l > 0
        assert c4.total == pytest.approx(4.0 * c1.total, rel=1e-12)

    def test_planned_flops_not_more_than_reference(self):
        """Dead-branch pruning means an unpadded plan never outworks the oracle."""
        matrix = make_gaussian_kernel_matrix(n=220, d=3, bandwidth=1.5, seed=0)
        cm = compress(matrix, _config(budget=0.3, plan_rank_bucketing="none"))
        ref, planned = EvaluationCounters(), EvaluationCounters()
        w = np.random.default_rng(12).standard_normal((matrix.n, 2))
        reference_matvec(cm, w, counters=ref)
        cm.plan().execute(w, counters=planned)
        assert planned.total <= ref.total + 1e-9

    def test_bucketing_defragments_adaptive_plans(self):
        """pow2 rank padding must not create more segments than exact packing."""
        matrix = make_gaussian_kernel_matrix(n=220, d=3, bandwidth=1.5, seed=0)
        cfg = _config(budget=0.3, tolerance=1e-4, max_rank=24)
        padded = compress(matrix, cfg).plan()
        exact = compress(matrix, cfg.replace(plan_rank_bucketing="none")).plan()
        assert padded.num_segments <= exact.num_segments
        w = np.random.default_rng(3).standard_normal((matrix.n, 2))
        assert np.allclose(padded.execute(w), exact.execute(w), atol=1e-10)

    def test_bucketed_flops_bounded_by_padding_factor(self, fmm_pair):
        """pow2 padding costs at most 2x per rank dimension over the oracle."""
        matrix, cm = fmm_pair
        ref, planned = EvaluationCounters(), EvaluationCounters()
        w = np.random.default_rng(12).standard_normal((matrix.n, 2))
        reference_matvec(cm, w, counters=ref)
        cm.plan().execute(w, counters=planned)
        assert planned.total <= 4.0 * ref.total + 1e-9


class TestValidation:
    def test_wrong_length_rejected(self, fmm_pair):
        _, cm = fmm_pair
        with pytest.raises(EvaluationError):
            cm.matvec(np.zeros(cm.n + 1), engine="planned")

    def test_build_plan_direct(self, fmm_pair):
        _, cm = fmm_pair
        plan = build_streaming_plan(cm, cm.config.plan_rank_bucketing)
        w = np.random.default_rng(13).standard_normal((cm.n, 2))
        assert np.allclose(plan.execute(w), reference_matvec(cm, w), atol=1e-10)


class TestReentrancy:
    """Concurrent matvecs on one plan: per-call pooled workspaces, no sharing."""

    def test_concurrent_matvecs_bit_identical_to_alone(self, fmm_pair):
        import threading

        matrix, cm = fmm_pair
        rng = np.random.default_rng(20)
        vectors = rng.standard_normal((8, matrix.n, 2))
        expected = [cm.matvec(v, engine="planned") for v in vectors]
        results = [None] * len(vectors)
        barrier = threading.Barrier(len(vectors))

        def run(i):
            barrier.wait(timeout=30)
            results[i] = cm.matvec(vectors[i], engine="planned")

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(vectors))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)

    def test_workspace_pool_reuses_buffers(self, fmm_pair):
        _, cm = fmm_pair
        plan = cm.plan()
        w = np.random.default_rng(21).standard_normal((cm.n, 3))
        plan.execute(w)
        assert plan.workspace_pool_size() >= 1
        pooled = plan._workspace_pool[-1][0]
        plan.execute(w)  # same width: the pooled pair is taken and returned
        assert plan._workspace_pool[-1][0] is pooled

    def test_pool_is_bounded(self, fmm_pair):
        _, cm = fmm_pair
        plan = cm.plan()
        contexts = [plan.new_context(np.zeros((cm.n, 1))) for _ in range(2 * plan.WORKSPACE_POOL_MAX)]
        for ctx in contexts:
            plan.release_context(ctx)
        assert plan.workspace_pool_size() <= plan.WORKSPACE_POOL_MAX

    def test_released_context_is_inert(self, fmm_pair):
        _, cm = fmm_pair
        plan = cm.plan()
        ctx = plan.new_context(np.zeros((cm.n, 1)))
        plan.release_context(ctx)
        assert ctx.wtil is None and ctx.util is None
        plan.release_context(ctx)  # double release is a no-op


class TestRankBucketing:
    def test_pad_ranks_modes(self):
        ranks = np.array([0, 3, 5, 8])
        assert list(pad_ranks(ranks, "none")) == [0, 3, 5, 8]
        assert list(pad_ranks(ranks, "pow2")) == [0, 4, 8, 8]
        assert list(pad_ranks(ranks, "max")) == [0, 8, 8, 8]

    def test_pad_ranks_rejects_unknown_mode(self):
        with pytest.raises(CompressionError):
            pad_ranks(np.array([1, 2]), "weird")

    def test_switching_bucketing_invalidates_only_plan(self):
        matrix = make_gaussian_kernel_matrix(n=128, d=2, bandwidth=1.2, seed=6)
        config = GOFMMConfig(
            leaf_size=16, max_rank=8, neighbors=4, num_neighbor_trees=2, seed=0,
        )
        session = Session(matrix, config)
        session.compress()
        assert session.stale_stages(plan_rank_bucketing="none") == frozenset({"plan"})
        op = session.recompress(plan_rank_bucketing="none")
        assert session.last_built == ("plan",)
        w = np.random.default_rng(1).standard_normal(matrix.n)
        assert np.allclose(
            op.compressed.matvec(w, engine="planned"),
            reference_matvec(op.compressed, w),
            atol=1e-10,
        )


class TestSharedPlan:
    """A bucketing that pads no rank gives the exact plan: both engines share one object."""

    @staticmethod
    def _unpadded(**overrides):
        config = GOFMMConfig(leaf_size=64, max_rank=32, budget=0.3, seed=0,
                             plan_rank_bucketing="none", **overrides)
        cm = compress(build_matrix("K05", n=1024), config)
        assert not pads_ranks(cm.tree, config.plan_rank_bucketing)
        return cm

    @staticmethod
    def _plan_bytes(plan) -> int:
        return plan.owned_bytes() + plan.index_bytes() + plan.workspace_bytes

    def test_one_plan_one_count(self):
        cm = self._unpadded()
        before = cm.memory_report()["bytes_resident"]
        plan = cm.plan()
        assert cm.streaming_plan() is plan
        assert cm.memory_report()["bytes_resident"] - before == self._plan_bytes(plan)
        w = np.random.default_rng(0).standard_normal((cm.n, 4))
        expected = reference_matvec(cm, w)
        assert np.array_equal(cm.matvec(w, engine="planned"), expected)
        assert np.array_equal(cm.matvec(w, engine="streamed"), expected)

    def test_streamed_first_is_shared_too(self):
        cm = self._unpadded(adaptive_rank=False)
        plan = cm.streaming_plan()
        assert cm.plan() is plan

    def test_rebuild_builds_a_fresh_plan(self):
        cm = self._unpadded()
        plan = cm.plan()
        assert cm.streaming_plan(rebuild=True) is not plan
        assert cm.plan() is plan
        assert cm.plan(rebuild=True) is not plan

    def test_uniform_ranks_are_never_padded(self):
        config = GOFMMConfig(leaf_size=64, max_rank=32, budget=0.3, seed=0, adaptive_rank=False)
        cm = compress(build_matrix("K05", n=1024), config)
        assert config.plan_rank_bucketing == "pow2"
        assert not pads_ranks(cm.tree, "pow2")
        assert cm.streaming_plan() is cm.plan()

    def test_padding_plans_stay_separate(self):
        matrix = make_gaussian_kernel_matrix(n=220, d=3, bandwidth=1.5, seed=0)
        cm = compress(matrix, _config(budget=0.3, tolerance=1e-4, max_rank=24,
                                      plan_rank_bucketing="pow2"))
        assert pads_ranks(cm.tree, "pow2")
        plan = cm.plan()
        assert cm.streaming_plan() is not plan
        expected = self._plan_bytes(plan) + self._plan_bytes(cm.streaming_plan())
        cm._plan = cm._streaming_plan = None
        before = cm.memory_report()["bytes_resident"]
        cm.plan(), cm.streaming_plan()
        assert cm.memory_report()["bytes_resident"] - before == expected

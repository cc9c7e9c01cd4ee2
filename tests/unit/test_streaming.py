"""Unit tests for the streamed evaluation engine (:mod:`repro.core.streaming`).

The load-bearing guarantees:

* the streamed matvec is **bit-identical** to the per-node reference
  traversal on memoryless configurations (blocks uncached — near-only,
  far-only, both off), pinned with ``np.array_equal``, not a tolerance,
* chunk boundaries never change the result: a budget smaller than one
  segment (one single-block chunk per listed pair) and a budget swallowing the
  whole evaluation (degenerate single chunk per stage) both reproduce the
  reference bitwise,
* ``default_engine`` prefers the streamed engine exactly when block
  caching was disabled and no plan has been built,
* the chunk workspace stays within ``streaming_chunk_bytes``,
* memoryless operators are servable end to end,
* stored operators stay bitwise whether their near rows are multiplied in
  place (row-slab stores) or filled block by block (stores in the older
  flat layout), and a fully cached mmap store needs no workspace and no
  block reads.
"""

import logging

import numpy as np
import pytest

from repro import ConfigurationError, GOFMMConfig
from repro.api import CompressedOperator, Session
from repro.config import DistanceMetric, hss_config
from repro.errors import EvaluationError
from repro.gofmm import compress
from repro.obs import counters as obs_counters
from repro.runtime import parallel_evaluate
from repro.serving import BatchPolicy, MatvecServer
from repro.storage import OperatorStore

from ..conftest import make_gaussian_kernel_matrix, rewrite_in_flat_layout
from ..oracles.evaluate_reference import far_lists, near_lists, reference_matvec


def make_config(**overrides) -> GOFMMConfig:
    base = dict(
        leaf_size=32, max_rank=16, tolerance=1e-7, neighbors=8,
        budget=0.15, num_neighbor_trees=3, distance=DistanceMetric.KERNEL, seed=0,
    )
    base.update(overrides)
    return GOFMMConfig(**base)


@pytest.fixture(scope="module")
def matrix():
    return make_gaussian_kernel_matrix(n=360, d=3, bandwidth=1.5, seed=0)


@pytest.fixture(scope="module")
def memoryless(matrix):
    return compress(matrix, make_config(cache_near_blocks=False, cache_far_blocks=False))


def _listed(lists) -> set:
    """Every listed ``(target, partner)`` item of one pass."""
    return {(t, s) for t, partners in lists.items() for s in partners}


def _unordered(lists) -> set:
    """The unordered pairs ``(min, max)`` of one pass's lists."""
    return {(min(key), max(key)) for key in _listed(lists)}


class TestConfig:
    def test_streaming_chunk_bytes_validated(self):
        with pytest.raises(ConfigurationError, match="streaming_chunk_bytes"):
            make_config(streaming_chunk_bytes=0)
        with pytest.raises(ConfigurationError, match="streaming_chunk_bytes"):
            make_config(streaming_chunk_bytes=-4096)
        assert make_config(streaming_chunk_bytes=1 << 20).streaming_chunk_bytes == 1 << 20


class TestBitIdentity:
    """streamed ≡ the per-node oracle, bitwise, on every caching configuration."""

    @pytest.mark.parametrize(
        "cache_near,cache_far",
        [(False, False), (True, False), (False, True), (True, True)],
        ids=["memoryless", "near-only", "far-only", "fully-cached"],
    )
    def test_streamed_matches_reference_bitwise(self, matrix, cache_near, cache_far):
        cm = compress(
            matrix, make_config(cache_near_blocks=cache_near, cache_far_blocks=cache_far)
        )
        w = np.random.default_rng(1).standard_normal((matrix.n, 5))
        assert np.array_equal(
            cm.matvec(w, engine="streamed"), reference_matvec(cm, w)
        )

    def test_vector_shape_preserved(self, memoryless, matrix):
        w = np.random.default_rng(2).standard_normal(matrix.n)
        out = memoryless.matvec(w, engine="streamed")
        assert out.shape == (matrix.n,)
        assert np.array_equal(out, reference_matvec(memoryless, w))

    def test_hss_memoryless(self, matrix):
        cm = compress(
            matrix,
            hss_config(
                leaf_size=32, max_rank=16, neighbors=8, num_neighbor_trees=3,
                distance=DistanceMetric.KERNEL, seed=0,
                cache_near_blocks=False, cache_far_blocks=False,
            ),
        )
        w = np.random.default_rng(3).standard_normal((matrix.n, 3))
        assert np.array_equal(
            cm.matvec(w, engine="streamed"), reference_matvec(cm, w)
        )

    def test_repeated_calls_are_bit_stable(self, memoryless, matrix):
        w = np.random.default_rng(4).standard_normal((matrix.n, 4))
        first = memoryless.matvec(w, engine="streamed")
        for _ in range(3):
            assert np.array_equal(first, memoryless.matvec(w, engine="streamed"))


class TestChunkBoundaries:
    def test_chunk_smaller_than_one_segment(self, matrix):
        # 2 KiB budget: far smaller than any wave segment — every chunk
        # degenerates to a single block (one per listed pair), and the
        # result must still be reference-bitwise.
        cm = compress(
            matrix,
            make_config(
                cache_near_blocks=False, cache_far_blocks=False, streaming_chunk_bytes=2048
            ),
        )
        plan = cm.streaming_plan()
        chunks = plan.s2s_chunks + plan.l2l_chunks
        assert all(chunk.num_blocks == 1 for chunk in chunks)
        assert plan.num_chunks == len(_unordered(near_lists(cm.tree))) + len(
            _unordered(far_lists(cm.tree))
        ) > 30
        w = np.random.default_rng(5).standard_normal((matrix.n, 3))
        assert np.array_equal(
            cm.matvec(w, engine="streamed"), reference_matvec(cm, w)
        )

    def test_single_chunk_degenerate(self, matrix):
        # A budget swallowing the whole evaluation = the planned-style
        # "everything resident at once" path, still bitwise reference.
        cm = compress(
            matrix,
            make_config(
                cache_near_blocks=False, cache_far_blocks=False, streaming_chunk_bytes=1 << 30
            ),
        )
        plan = cm.streaming_plan()
        assert len(plan.s2s_chunks) <= 1 and len(plan.l2l_chunks) <= 1
        w = np.random.default_rng(6).standard_normal((matrix.n, 3))
        assert np.array_equal(
            cm.matvec(w, engine="streamed"), reference_matvec(cm, w)
        )

    def test_workspace_within_budget(self, memoryless):
        plan = memoryless.streaming_plan()
        assert plan.workspace_bytes <= memoryless.config.streaming_chunk_bytes
        report = memoryless.streaming_report()
        assert report["workspace_bytes"] <= report["chunk_budget_bytes"]

    def test_chunk_budget_rebuilds_only_plan_stage(self, matrix):
        session = Session(matrix, make_config(cache_near_blocks=False, cache_far_blocks=False))
        session.compress()
        assert session.stale_stages(streaming_chunk_bytes=1 << 20) == frozenset({"plan"})
        op = session.recompress(streaming_chunk_bytes=1 << 20)
        assert session.last_built == ("plan",)
        assert op.compressed.streaming_plan().chunk_bytes == 1 << 20


class TestDefaultEngineSelection:
    """The fallback table of :meth:`CompressedMatrix.default_engine`."""

    @pytest.mark.parametrize(
        "cache_near,cache_far,expected",
        [
            (True, True, "planned"),     # fully cached: every block is resident
            (False, False, "streamed"),  # memoryless: stream from the matrix
            (True, False, "streamed"),   # far blocks must be streamed
            (False, True, "streamed"),   # near blocks must be streamed
        ],
    )
    def test_selection(self, matrix, cache_near, cache_far, expected):
        cm = compress(
            matrix, make_config(cache_near_blocks=cache_near, cache_far_blocks=cache_far)
        )
        assert cm.default_engine() == expected

    def test_without_matrix_still_streams(self, matrix):
        cm = compress(matrix, make_config(cache_near_blocks=False, cache_far_blocks=False))
        cm.matrix = None
        assert cm.default_engine() == "streamed"

    def test_explicit_plan_opt_in_restores_planned(self, matrix):
        cm = compress(matrix, make_config(cache_near_blocks=False, cache_far_blocks=False))
        assert cm.default_engine() == "streamed"
        cm.plan()
        assert cm.default_engine() == "planned"


class TestExecutionPaths:
    def test_missing_blocks_without_matrix_raise(self, matrix):
        cm = compress(matrix, make_config(cache_near_blocks=False, cache_far_blocks=False))
        cm.matrix = None
        cm._streaming_plan = None  # force a rebuild against the detached state
        with pytest.raises(EvaluationError, match="no source matrix"):
            cm.matvec(np.zeros(matrix.n), engine="streamed")

    @pytest.mark.parametrize("engine", ["planned", "streamed"])
    @pytest.mark.parametrize(
        "shape,dtype",
        [((1, 2), float), ((-40, 2), float), ((0,), float), ((0, 2), complex)],
        ids=["extra-row", "missing-rows", "vector", "complex"],
    )
    def test_bad_weights_rejected_by_both_engines(self, matrix, engine, shape, dtype):
        cm = compress(matrix, make_config())
        plan = cm.plan() if engine == "planned" else cm.streaming_plan()
        weights = np.ones((matrix.n + shape[0],) + shape[1:], dtype=dtype)
        with pytest.raises(EvaluationError, match="weights must be"):
            plan.execute(weights)

    def test_parallel_evaluate_dispatches_streamed(self, memoryless, matrix):
        w = np.random.default_rng(7).standard_normal((matrix.n, 3))
        out = parallel_evaluate(memoryless, w, num_workers=2, engine="streamed")
        assert np.array_equal(out, reference_matvec(memoryless, w))

    def test_counters_accumulate(self, matrix):
        cm = compress(matrix, make_config(cache_near_blocks=False, cache_far_blocks=False))
        before = cm.counters.total
        cm.matvec(np.ones(matrix.n), engine="streamed")
        assert cm.counters.total > before

    def test_flops_match_planned_accounting(self, matrix):
        # Exact packing: the streamed flop model must equal the Table 2
        # model the planned engine and the per-node oracle report.
        cm = compress(matrix, make_config(cache_near_blocks=False, cache_far_blocks=False))
        plan = cm.streaming_plan()
        total = sum(plan.flops_per_rhs.values())
        assert total == pytest.approx(cm.evaluation_flops(1), rel=1e-12)


class TestServingMemoryless:
    def test_memoryless_operator_served_bit_identically(self, matrix):
        operator = Session(
            matrix, make_config(cache_near_blocks=False, cache_far_blocks=False)
        ).compress()
        assert operator.default_engine() == "streamed"
        rng = np.random.default_rng(8)
        vectors = rng.standard_normal((4, matrix.n))
        server = MatvecServer(policy=BatchPolicy(max_batch=4, max_wait_ms=5.0))
        server.register("memoryless", operator)
        with server:
            served = [server.matvec("memoryless", v, timeout=60) for v in vectors]
        # the canonical-width guarantee holds for the streamed engine too:
        # a served response equals the request evaluated alone at width 4
        for vector, response in zip(vectors, served):
            direct = np.asarray(operator.apply(_padded_column(vector, matrix.n, 4)))
            assert np.array_equal(response, direct[:, 0])

    def test_entries_batched_out_matches_plain(self, matrix):
        rng = np.random.default_rng(9)
        rows = np.stack([rng.choice(matrix.n, size=12, replace=False) for _ in range(6)])
        cols = np.stack([rng.choice(matrix.n, size=9, replace=False) for _ in range(6)])
        plain = matrix.entries_batched(list(rows), list(cols))
        buffer = np.empty((6, 12, 9))
        views = matrix.entries_batched(rows, cols, out=buffer)
        for g in range(6):
            assert np.array_equal(plain[g], buffer[g])
            assert views[g].base is buffer or views[g] is buffer[g]


def _padded_column(vector: np.ndarray, n: int, width: int) -> np.ndarray:
    block = np.zeros((n, width))
    block[:, 0] = vector
    return block


class TestWorkspaceAccounting:
    """Satellite: ``workspace_bytes`` is the plan's true allocation bound."""

    @pytest.fixture(scope="class")
    def session(self, matrix):
        session = Session(matrix, make_config(cache_near_blocks=False, cache_far_blocks=False))
        session.compress()
        return session

    def _plan(self, session, chunk_bytes):
        return session.recompress(
            streaming_chunk_bytes=chunk_bytes
        ).compressed.streaming_plan()

    def test_workspace_bytes_upper_bounds_observed_allocation(self, session):
        """Property: across chunk budgets, the buffers actually allocated for
        an execution never exceed the advertised ``workspace_bytes``, and
        every chunk of the plan fits inside one buffer."""
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        @settings(max_examples=12, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        @given(chunk_bytes=st.integers(min_value=1024, max_value=1 << 22))
        def check(chunk_bytes):
            plan = self._plan(session, chunk_bytes)
            buffers = plan._allocate_buffers()
            assert sum(b.nbytes for b in buffers) <= plan.workspace_bytes
            for chunk in plan.s2s_chunks + plan.l2l_chunks:
                assert chunk.total_elems <= plan.buffer_elems
            # every buffer is a plain heap array, within budget or not
            for buffer in buffers:
                assert type(buffer) is np.ndarray

        check()

    def test_exactly_at_budget_is_silent_and_bitwise(self, session, caplog):
        """Regression: the over-budget notice is strictly-greater-than — a
        plan whose workspace lands exactly on the budget says nothing, and
        moving the budget never changes a result."""
        from repro.core.streaming import StreamingPlan

        base = self._plan(session, 1 << 20)
        assert base.num_chunks >= 1 and base.workspace_bytes > 0

        def clone(chunk_bytes):
            return StreamingPlan(
                layout=base.layout,
                s2s_chunks=base.s2s_chunks,
                l2l_chunks=base.l2l_chunks,
                near_blocks=base.near_blocks,
                far_blocks=base.far_blocks,
                matrix=base.matrix,
                chunk_bytes=chunk_bytes,
                stall_timeout=None,
            )

        def notices():
            return [r for r in caplog.records if "exceeds chunk budget" in r.getMessage()]

        w = np.random.default_rng(11).standard_normal((base.layout.n, 2))
        with caplog.at_level(logging.INFO, logger="repro.core.streaming"):
            at_budget = clone(base.workspace_bytes)
            assert notices() == []
            assert np.array_equal(at_budget.execute(w), base.execute(w))

            over_budget = clone(base.workspace_bytes - 8)
            assert len(notices()) == 1
            assert np.array_equal(over_budget.execute(w), base.execute(w))

    def test_over_budget_workspace_is_resident_not_on_disk(self, matrix):
        """The over-budget workspace is heap memory: ``memory_report`` adds
        it to ``bytes_resident`` and an in-memory operator has nothing on disk."""
        cm = compress(
            matrix,
            make_config(
                cache_near_blocks=False, cache_far_blocks=False, streaming_chunk_bytes=2048
            ),
        )
        before = cm.memory_report()
        plan = cm.streaming_plan()
        assert plan.workspace_bytes > plan.chunk_bytes
        w = np.random.default_rng(13).standard_normal((matrix.n, 2))
        cm.matvec(w, engine="streamed")
        after = cm.memory_report()
        assert after["bytes_on_disk"] == before["bytes_on_disk"] == 0
        assert after["bytes_resident"] - before["bytes_resident"] == (
            plan.owned_bytes() + plan.index_bytes() + plan.workspace_bytes
        )

    @pytest.mark.parametrize("cached", [True, False])
    def test_index_bytes_count_every_segment(self, matrix, cached):
        """The N2S / S2N tables count as well as the chunks' gather/scatter tables
        and the row slabs' transposed-half tables."""
        cm = compress(matrix, make_config(cache_near_blocks=cached, cache_far_blocks=cached))
        plan = cm.streaming_plan()
        levels = plan.layout.n2s_levels + plan.layout.s2n_levels
        passes = [s for level in levels for s in level]
        chunks = [s for chunk in plan.s2s_chunks + plan.l2l_chunks for s in chunk.segments]

        def tables(segments):
            found = {}
            for segment in segments:
                reduce = getattr(segment, "reduce", None)
                mirror = (segment.back[2], segment.targets, reduce.data, reduce.indices,
                          reduce.indptr) if reduce is not None else ()
                for array in (segment.src[2], segment.dst[2],
                              getattr(segment, "rows", None), getattr(segment, "cols", None),
                              *mirror):
                    if isinstance(array, np.ndarray):
                        found[id(array)] = array
            return found

        assert sum(a.nbytes for a in tables(passes).values()) > 0
        assert plan.index_bytes() == sum(a.nbytes for a in tables(passes + chunks).values())

    def test_over_budget_plan_logs_once_and_stays_bitwise(self, matrix, caplog):
        """A 2 KiB budget puts single blocks over one buffer's share: the
        plan keeps heap buffers, says so once at build, and stays bitwise."""
        cm = compress(
            matrix,
            make_config(
                cache_near_blocks=False, cache_far_blocks=False, streaming_chunk_bytes=2048
            ),
        )
        with caplog.at_level(logging.INFO, logger="repro.core.streaming"):
            plan = cm.streaming_plan()
            assert plan.workspace_bytes > plan.chunk_bytes
            assert all(type(b) is np.ndarray for b in plan._allocate_buffers())
            w = np.random.default_rng(12).standard_normal((matrix.n, 3))
            for _ in range(2):
                assert np.array_equal(
                    cm.matvec(w, engine="streamed"), reference_matvec(cm, w)
                )
        logged = [r.getMessage() for r in caplog.records if "exceeds chunk budget" in r.getMessage()]
        assert len(logged) == 1 and str(plan.workspace_bytes) in logged[0]

    def test_panel_execution_matches_per_panel_reference(self, matrix, tmp_path):
        cm = compress(
            matrix,
            make_config(cache_near_blocks=False, cache_far_blocks=False),
        )
        plan = cm.streaming_plan()
        num_rhs = 5
        w = np.random.default_rng(13).standard_normal((matrix.n, num_rhs))
        weights_path = tmp_path / "w.npy"
        out_path = tmp_path / "u.npy"
        np.save(weights_path, w)
        panel_cols = 2
        plan.execute(str(weights_path), out=str(out_path), panel_cols=panel_cols)
        expected = np.empty_like(w)
        for start in range(0, num_rhs, panel_cols):
            stop = min(start + panel_cols, num_rhs)
            expected[:, start:stop] = reference_matvec(cm, w[:, start:stop])
        assert np.array_equal(np.load(out_path), expected)


_CACHING = {"both": (True, True), "near-only": (True, False), "far-only": (False, True)}
_LAYOUTS = ("row-slab", "flat")


class TestStoredEquivalenceLattice:
    """Stored operators ≡ the per-node oracle, bitwise, whether the streamed
    engine runs L2L on the store's row slabs or fills a flat store's rows."""

    @pytest.fixture(scope="class")
    def stores(self, matrix, tmp_path_factory):
        stores = {}
        for caching, (near, far) in _CACHING.items():
            cm = compress(matrix, make_config(cache_near_blocks=near, cache_far_blocks=far))
            for layout in _LAYOUTS:
                path = tmp_path_factory.mktemp("lattice") / f"{caching}-{layout}.store"
                OperatorStore.save(cm, path)
                if layout == "flat":
                    rewrite_in_flat_layout(path)
                stores[caching, layout] = (cm, path)
        return stores

    @pytest.mark.parametrize("resident", ["mmap", "ram"])
    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("caching", list(_CACHING))
    def test_apply_and_panels_match_reference(self, stores, matrix, caching, layout, resident, tmp_path):
        cm, path = stores[caching, layout]
        opened = CompressedOperator.open(path, resident=resident, matrix=matrix)
        w = np.random.default_rng(14).standard_normal((matrix.n, 16))
        for width in (1, 16):
            expected = reference_matvec(opened.compressed, w[:, :width])
            assert np.array_equal(opened.apply(w[:, :width], engine="streamed"), expected)
            if layout == "row-slab":  # the same rows as the fresh operator's
                assert np.array_equal(expected, reference_matvec(cm, w[:, :width]))
        plan = opened.compressed.streaming_plan()
        np.save(tmp_path / "w.npy", w)
        for width in (1, 16):
            out = tmp_path / f"u{width}.npy"
            plan.execute(str(tmp_path / "w.npy"), out=str(out), panel_cols=width)
            expected = np.hstack(
                [reference_matvec(opened.compressed, w[:, s : s + width]) for s in range(0, 16, width)]
            )
            assert np.array_equal(np.load(out), expected)

    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_fully_cached_mmap_store_runs_in_place(self, stores, matrix, layout):
        from repro.storage import is_disk_backed

        cm, path = stores["both", layout]
        compressed = CompressedOperator.open(path, resident="mmap").compressed
        plan = compressed.streaming_plan()
        w = np.random.default_rng(15).standard_normal((matrix.n, 4))
        expected = reference_matvec(compressed, w)
        calls = []
        for provider in (compressed.near_blocks, compressed.far_blocks):
            get = provider.get
            provider.get = lambda key, get=get: calls.append(key) or get(key)
        before = obs_counters.get("blocks_materialized")
        assert np.array_equal(plan.execute(w), expected)
        materialized = obs_counters.get("blocks_materialized") - before
        if layout == "row-slab":
            assert plan.workspace_bytes == 0 and plan.report()["workspace_bytes"] == 0
            assert calls == [] and materialized == 0
            slabs = compressed.near_blocks.row_slabs()
            operands = [s.operand for c in plan.l2l_chunks for s in c.segments]
            assert operands and all(is_disk_backed(operand) for operand in operands)
            assert all(any(np.shares_memory(o, slab.array) for slab in slabs) for o in operands)
        else:
            # A flat store's rows take the fill path, block by block.
            assert plan.workspace_bytes > 0 and calls and materialized == len(calls)
            assert {key[0] for key in calls} == {leaf.node_id for leaf in compressed.tree.leaves}

    def test_in_place_plan_runs_in_the_callers_thread(self, stores, matrix):
        # A plan with nothing to fill runs its stages here: a shut-down pool
        # passed in is never asked, and every span lands on this thread.
        import threading

        from repro.obs import Tracer, tracing
        from repro.runtime.executor import WorkerPool

        _, path = stores["both", "row-slab"]
        compressed = CompressedOperator.open(path, resident="mmap").compressed
        plan = compressed.streaming_plan()
        assert plan.filled_chunks == 0
        pool = WorkerPool(1)
        pool.shutdown()
        w = np.random.default_rng(16).standard_normal((matrix.n, 2))
        tracer = Tracer()
        with tracing(tracer):
            out = plan.execute(w, pool=pool, stall_timeout=0.05)
        assert np.array_equal(out, reference_matvec(compressed, w))
        spans = tracer.spans()
        assert {"eval.n2s", "eval.s2s", "eval.s2n", "eval.l2l"} <= {s.name for s in spans}
        assert all(s.thread_id == threading.get_ident() for s in spans)

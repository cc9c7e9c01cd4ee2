"""The plan's L2L operands are the near cache's row slabs.

The near-blocks stage evaluates each leaf's block-row — its diagonal block
and the symmetric pairs it owns — into a shared row slab; the plan
multiplies those slabs in place, both ways.  Listed pairs no intact row
applies fill through chunks, block by block, the rule the per-node oracle
follows too.
"""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from repro import GOFMMConfig, compress
from repro.api import CompressedOperator, Session
from repro.core.hmatrix import BlockProvider
from repro.matrices import build_matrix
from repro.obs import counters as obs_counters
from repro.storage import is_disk_backed

from ..conftest import rewrite_in_flat_layout
from ..oracles.evaluate_reference import reference_matvec


def _config(**overrides) -> GOFMMConfig:
    return GOFMMConfig(**{"leaf_size": 64, "max_rank": 32, "budget": 0.3, **overrides})


def _near_blocks(cm) -> list:
    return [block for _, block in cm.near_blocks.cached_items()]


def _borrows(operand, blocks) -> bool:
    return any(np.shares_memory(operand, block) for block in blocks)


def _l2l(plan) -> list:
    """The plan's in-place L2L segments."""
    return [seg for seg in plan.segments() if seg.kind == "L2L"]


@pytest.fixture(scope="module")
def k05_session():
    """K05, n = 2048, leaves of 64, budget 0.3: off-diagonal near blocks exist."""
    session = Session(build_matrix("K05", n=2048), _config())
    op = session.compress()
    near = op.compressed.near_blocks
    assert any(beta != alpha for beta, alpha in (key for key, _ in near.cached_items()))
    return session, op


class TestZeroCopyPlan:
    def test_every_l2l_operand_is_a_near_cache_slab(self, k05_session):
        _, op = k05_session
        cm = op.compressed
        plan = cm.plan(rebuild=True)
        blocks = _near_blocks(cm)
        l2l = _l2l(plan)
        assert l2l and plan.filled_chunks == 0
        assert all(_borrows(seg.operand, blocks) for seg in l2l)
        # the operands are the cache, no more and no less
        assert sum(seg.operand.size for seg in l2l) == cm.near_blocks.cached_entries
        assert all(not seg.operand.flags.writeable for seg in l2l)

    def test_build_plan_allocates_a_small_fraction_of_the_near_cache(self):
        # Rank 8 keeps the operands the plan does own (N2S / S2N coefficient
        # stacks, S2S block-rows) at 4 % of the near cache; at rank 32 they
        # are 30 %, and a second copy of the near blocks would be 100 %.
        cm = compress(build_matrix("K05", n=2048), _config(max_rank=8))
        cm.plan()  # warm every lazy import and cache outside the measurement
        tracemalloc.start()
        try:
            plan = cm.plan(rebuild=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _l2l(plan)
        assert peak < 0.1 * cm.near_blocks.bytes_resident, (peak, cm.near_blocks.bytes_resident)

    def test_tolerance_only_recompress_reuses_the_operands(self, k05_session):
        session, op = k05_session
        first = [seg.operand for seg in _l2l(op.compressed.plan())]
        looser = session.recompress(tolerance=1e-3)
        assert "near_blocks" in session.last_reused
        second = [seg.operand for seg in _l2l(looser.compressed.plan())]
        assert len(first) == len(second)
        assert all(a is b for a, b in zip(first, second))

    def test_memory_report_counts_only_the_operands_the_plan_owns(self):
        cm = compress(build_matrix("K05", n=2048), _config())
        assert cm._plan is None
        before = cm.memory_report()["bytes_resident"]
        plan = cm.plan()
        grown = cm.memory_report()["bytes_resident"] - before
        blocks = _near_blocks(cm) + [block for _, block in cm.far_blocks.cached_items()]
        owned = sum(seg.operand.nbytes for seg in plan.segments() if not _borrows(seg.operand, blocks))
        assert owned == plan.owned_bytes() > 0
        # besides its operands, a plan holds only its index tables: no workspace
        assert plan.workspace_bytes == 0 and grown == owned + plan.index_bytes()
        # L2L adds nothing: the plan owns exactly its N2S / S2N / S2S operands
        assert owned == sum(seg.operand.nbytes for seg in plan.segments() if seg.kind != "L2L")

    def test_cached_blocks_are_the_matrix_entries(self, k05_session):
        _, op = k05_session
        cm = op.compressed
        for (beta, alpha), block in cm.near_blocks.cached_items():
            rows, cols = cm.tree.node(beta).indices, cm.tree.node(alpha).indices
            assert np.array_equal(block, cm.matrix.entries(rows, cols)), (beta, alpha)
            assert not block.flags.writeable


class TestZeroCopyStore:
    """A fully cached mmap store runs the streamed engine on its own bytes."""

    @pytest.fixture(scope="class")
    def opened(self, k05_session, tmp_path_factory):
        _, op = k05_session
        path = tmp_path_factory.mktemp("zero-copy") / "k05.store"
        op.save(path)
        return CompressedOperator.open(path, resident="mmap").compressed

    def test_streamed_l2l_runs_on_the_mapped_slabs(self, opened):
        plan = opened.streaming_plan(rebuild=True)
        slabs = opened.near_blocks.row_slabs()
        operands = [seg.operand for chunk in plan.l2l_chunks for seg in chunk.segments]
        assert operands and all(is_disk_backed(operand) for operand in operands)
        assert all(any(np.shares_memory(o, slab.array) for slab in slabs) for o in operands)
        assert sum(o.size for o in operands) == opened.near_blocks.cached_entries
        assert plan.workspace_bytes == 0
        before = obs_counters.get("blocks_materialized")
        plan.execute(np.random.default_rng(3).standard_normal((opened.n, 4)))
        assert obs_counters.get("blocks_materialized") == before

    def test_memory_report_counts_what_the_streaming_plan_owns(self, opened):
        opened._streaming_plan = None
        before = opened.memory_report()["bytes_resident"]
        plan = opened.streaming_plan()
        grown = opened.memory_report()["bytes_resident"] - before
        # the packed S2S block-rows and the N2S / S2N coefficient stacks
        owned = sum(seg.operand.nbytes for seg in plan.segments() if seg.kind != "L2L")
        assert plan.owned_bytes() == owned > sum(
            seg.operand.nbytes for chunk in plan.s2s_chunks for seg in chunk.segments
        )
        assert grown == owned + plan.index_bytes()


def _fresh(n: int):
    matrix = build_matrix("K05", n=n)
    return matrix, compress(matrix, _config())


@pytest.fixture(scope="module", params=[2048, 2000], ids=["uniform-leaves", "ragged-leaves"])
def fresh_pair(request):
    matrix, cm = _fresh(request.param)
    assert (len({leaf.size for leaf in cm.tree.leaves}) == 1) == (request.param == 2048)
    return matrix, cm


def _planned(cm, r: int) -> np.ndarray:
    w = np.random.default_rng(r).standard_normal((cm.n, r))
    return cm.matvec(w, engine="planned")


def _exact(cm):
    """``cm`` with its planned plan packed exactly: then its bits are the oracle's."""
    config = cm.config.replace(plan_rank_bucketing="none")
    return dataclasses.replace(cm, config=config, _plan=None, _streaming_plan=None)


def _oracle(cm, r: int) -> np.ndarray:
    return reference_matvec(cm, np.random.default_rng(r).standard_normal((cm.n, r)))


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal up to summation order."""
    return np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def _without_rows(cm, matrix):
    """``cm`` with a near provider that caches nothing: every leaf's row fills."""
    near = BlockProvider(cm.tree, matrix, use_skeletons=False)
    return dataclasses.replace(cm, near_blocks=near, _plan=None, _streaming_plan=None)


class TestFillPathLattice:
    """Cells without an intact row fill it block by block, and give the bits
    of an operator that holds no row slab (up to round-off where one caches
    the blocks and the other folds mirrored pairs); at exact packing, the
    oracle's."""

    @pytest.mark.parametrize("r", [1, 16])
    def test_store_opened_into_ram(self, fresh_pair, tmp_path, r):
        """A row-slab store opened into RAM runs L2L on the loaded slabs, filling
        nothing; one in the older flat layout fills every row."""
        matrix, cm = fresh_pair
        path = os.path.join(tmp_path, "k.store")
        CompressedOperator(cm).save(path)
        opened = CompressedOperator.open(path, resident="ram").compressed
        assert opened.default_engine() == "planned"
        assert np.array_equal(_planned(opened, r), _planned(cm, r))
        plan, slabs = opened.plan(), opened.near_blocks.row_slabs()
        operands = [seg.operand for seg in _l2l(plan)]
        assert len(operands) == len(slabs) and plan.filled_chunks == 0
        # slabs with mirrored columns run last, so compare as a set
        assert {id(operand) for operand in operands} == {id(slab.array) for slab in slabs}
        assert plan.owned_bytes() == sum(
            seg.operand.nbytes for seg in plan.segments() if seg.kind != "L2L"
        )
        rewrite_in_flat_layout(path)
        flat = CompressedOperator.open(path, resident="ram").compressed
        # The flat store caches every block, so its pairs stay one-sided; an
        # operator caching none folds each mirrored pair into one block and
        # applies it transposed, which moves the sums at round-off.
        assert _close(_planned(flat, r), _planned(_without_rows(cm, matrix), r))
        assert np.array_equal(_planned(_exact(flat), r), _oracle(flat, r))
        assert not _l2l(flat.plan()) and flat.plan().filled_chunks > 0
        assert flat.plan().owned_bytes() == flat.plan().packed_entries() * 8

    @pytest.mark.parametrize("r", [1, 16])
    def test_near_cache_off(self, fresh_pair, r):
        matrix, cm = fresh_pair
        off = compress(matrix, cm.config.replace(cache_near_blocks=False))
        assert len(off.near_blocks) == 0
        assert np.array_equal(_planned(off, r), _planned(_without_rows(cm, matrix), r))
        assert np.array_equal(_planned(_exact(off), r), _oracle(off, r))

    @pytest.mark.parametrize("r", [1, 16])
    def test_overwritten_block_retires_its_row(self, fresh_pair, r):
        matrix, cm = fresh_pair
        # a private compression: the store below mutates its provider
        _, mutated = _fresh(cm.n)
        provider = mutated.near_blocks
        slabs = provider.row_slabs()
        leaf = next(leaf for leaf in mutated.tree.leaves if len(leaf.near) > 1)
        key = (leaf.node_id, leaf.near[-1])
        # the slab applying the key holds its owner's row, whichever direction the key is
        stale = next(slab for slab in slabs if key in slab.directions())
        provider.store(key, np.array(provider.get(key)))
        assert all(slab is not stale for slab in provider.row_slabs())
        assert len(provider.row_slabs()) == len(slabs) - 1
        plan = mutated.plan()
        operands = [seg.operand for seg in _l2l(plan)]
        assert not any(operand is stale.array for operand in operands)
        assert sum(operand.size for operand in operands) == sum(
            slab.array.size for slab in slabs
        ) - stale.array.size
        assert plan.filled_chunks > 0
        assert np.array_equal(_planned(_exact(mutated), r), _oracle(mutated, r))

    @pytest.mark.parametrize("r", [1, 16])
    def test_changed_near_list_refuses_the_row(self, fresh_pair, r):
        """A cached row that applies a pair the current Near lists drop is filled, not used."""
        matrix, cm = fresh_pair
        _, changed = _fresh(cm.n)
        leaf = next(leaf for leaf in changed.tree.leaves if len(leaf.near) > 1)
        dropped = (leaf.node_id, leaf.near[-1])
        leaf.near = leaf.near[:-1]
        stale = next(
            slab for slab in changed.near_blocks.row_slabs() if dropped in slab.directions()
        )
        operands = [seg.operand for seg in _l2l(changed.plan())]
        assert not any(operand is stale.array for operand in operands)
        assert np.array_equal(_planned(_exact(changed), r), _oracle(changed, r))

"""The planned engine's L2L operands are the near cache's row slabs.

The near-blocks stage evaluates each leaf's block-row ``K[β, Near(β)]``
into a shared row slab; the plan multiplies those slabs in place.  Leaves
the cache holds no intact row for get fresh slabs filled from the provider
by the same routine, and every cell gives the bits of the fresh operator.
"""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from repro import GOFMMConfig, compress
from repro.api import CompressedOperator, Session
from repro.core.hmatrix import BlockProvider
from repro.core.plan import build_plan
from repro.matrices import build_matrix


def _config(**overrides) -> GOFMMConfig:
    return GOFMMConfig(**{"leaf_size": 64, "max_rank": 32, "budget": 0.3, **overrides})


def _near_blocks(cm) -> list:
    return [block for _, block in cm.near_blocks.cached_items()]


def _borrows(operand, blocks) -> bool:
    return any(np.shares_memory(operand, block) for block in blocks)


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
        assert plan.l2l_segments
        assert all(_borrows(seg.operand, blocks) for seg in plan.l2l_segments)
        # the operands are the cache, no more and no less
        assert sum(seg.operand.size for seg in plan.l2l_segments) == cm.near_blocks.cached_entries
        assert all(not seg.operand.flags.writeable for seg in plan.l2l_segments)

    def test_build_plan_allocates_a_small_fraction_of_the_near_cache(self):
        # Rank 8 keeps the operands the plan does own (N2S / S2N coefficient
        # stacks, S2S block-rows) at 4 % of the near cache; at rank 32 they
        # are 30 %, and a second copy of the near blocks would be 100 %.
        cm = compress(build_matrix("K05", n=2048), _config(max_rank=8))
        build_plan(cm)  # warm every lazy import and cache outside the measurement
        tracemalloc.start()
        try:
            plan = build_plan(cm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.l2l_segments
        assert peak < 0.1 * cm.near_blocks.bytes_resident, (peak, cm.near_blocks.bytes_resident)

    def test_tolerance_only_recompress_reuses_the_operands(self, k05_session):
        session, op = k05_session
        first = [seg.operand for seg in op.compressed.plan().l2l_segments]
        looser = session.recompress(tolerance=1e-3)
        assert "near_blocks" in session.last_reused
        second = [seg.operand for seg in looser.compressed.plan().l2l_segments]
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
        assert grown == owned == plan.owned_bytes() > 0
        # L2L adds nothing: the plan owns exactly its N2S / S2N / S2S operands
        assert owned == sum(seg.operand.nbytes for seg in plan.segments() if seg.kind != "L2L")

    def test_cached_blocks_are_the_matrix_entries(self, k05_session):
        _, op = k05_session
        cm = op.compressed
        for (beta, alpha), block in cm.near_blocks.cached_items():
            rows, cols = cm.tree.node(beta).indices, cm.tree.node(alpha).indices
            assert np.array_equal(block, cm.matrix.entries(rows, cols)), (beta, alpha)
            assert not block.flags.writeable


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


class TestFillPathLattice:
    """Cells that fill fresh row slabs give the fresh operator's bits."""

    @pytest.mark.parametrize("r", [1, 16])
    def test_store_opened_into_ram(self, fresh_pair, tmp_path, r):
        matrix, cm = fresh_pair
        path = os.path.join(tmp_path, "k.store")
        CompressedOperator(cm).save(path)
        opened = CompressedOperator.open(path, resident="ram").compressed
        assert opened.default_engine() == "planned"
        assert np.array_equal(_planned(opened, r), _planned(cm, r))
        assert opened.plan().owned_bytes() == opened.plan().packed_entries() * 8

    @pytest.mark.parametrize("r", [1, 16])
    def test_near_cache_off(self, fresh_pair, r):
        matrix, cm = fresh_pair
        off = compress(matrix, cm.config.replace(cache_near_blocks=False))
        assert len(off.near_blocks) == 0
        assert np.array_equal(_planned(off, r), _planned(cm, r))

    @pytest.mark.parametrize("r", [1, 16])
    def test_overwritten_block_retires_its_row(self, fresh_pair, r):
        matrix, cm = fresh_pair
        expected = _planned(cm, r)
        # a private compression: the store below mutates its provider
        _, mutated = _fresh(cm.n)
        provider = mutated.near_blocks
        slabs = provider.row_slabs()
        leaf = next(leaf for leaf in mutated.tree.leaves if len(leaf.near) > 1)
        key = (leaf.node_id, leaf.near[-1])
        stale = next(slab for slab in slabs if any(beta == leaf.node_id for beta, _ in slab.rows))
        provider.store(key, np.array(provider.get(key)))
        assert all(slab is not stale for slab in provider.row_slabs())
        assert len(provider.row_slabs()) == len(slabs) - 1
        plan = mutated.plan()
        operands = [seg.operand for seg in plan.l2l_segments]
        assert not any(operand is stale.array for operand in operands)
        assert sum(operand.size for operand in operands) == sum(
            slab.array.size for slab in slabs
        )
        assert np.array_equal(_planned(mutated, r), expected)

    @pytest.mark.parametrize("r", [1, 16])
    def test_changed_near_list_refuses_the_row(self, fresh_pair, r):
        """A cached row that is not its leaf's current Near list is refilled, not used."""
        matrix, cm = fresh_pair
        _, changed = _fresh(cm.n)
        leaf = next(leaf for leaf in changed.tree.leaves if len(leaf.near) > 1)
        leaf.near = leaf.near[:-1]
        stale = next(
            slab for slab in changed.near_blocks.row_slabs()
            if any(beta == leaf.node_id for beta, _ in slab.rows)
        )
        operands = [seg.operand for seg in changed.plan().l2l_segments]
        assert not any(operand is stale.array for operand in operands)
        uncached = dataclasses.replace(
            changed, near_blocks=BlockProvider(changed.tree, matrix, use_skeletons=False), _plan=None
        )
        assert np.array_equal(_planned(changed, r), _planned(uncached, r))

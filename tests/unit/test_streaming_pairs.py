"""Each symmetric pair once: the streamed engine's wave schedule and folded fills.

The fill chunks run each pass's listed pairs in waves (a first-fit edge
colouring, :func:`repro.core.streaming.pair_waves`).  A pair listed both
ways, with neither block cached, is evaluated once as its ``(min, max)``
block and applied both ways; a pair listed one way stays one-sided.  So one
memoryless matvec evaluates ``Σ |a|·|b|`` entries over the unordered pairs,
and the schedule is a pure function of the lists.
"""

import numpy as np
import pytest

from repro import GOFMMConfig, compress
from repro.core.streaming import StreamChunk, pair_waves
from repro.matrices import build_matrix
from repro.obs import counters as obs_counters

from ..oracles.evaluate_reference import far_lists, near_lists, reference_matvec

PASSES = {"S2S": far_lists, "L2L": near_lists}
CACHING = {"near-off": (False, True), "far-off": (True, False), "both-off": (False, False)}


def _config(symmetrize: bool, caching: str, **overrides) -> GOFMMConfig:
    cache_near, cache_far = CACHING[caching]
    return GOFMMConfig(
        leaf_size=64, max_rank=32, budget=0.3, symmetrize_lists=symmetrize,
        cache_near_blocks=cache_near, cache_far_blocks=cache_far, **overrides,
    )


def _listed(lists) -> set:
    return {(t, s) for t, partners in lists.items() for s in partners}


def _unordered(lists) -> set:
    return {(min(key), max(key)) for key in _listed(lists)}


def _filled_passes(caching: str) -> list:
    cache_near, cache_far = CACHING[caching]
    return [kind for kind, cached in (("S2S", cache_far), ("L2L", cache_near)) if not cached]


def _size(tree, kind: str, node_id: int) -> int:
    node = tree.node(node_id)
    return node.skeleton_rank if kind == "S2S" else node.size


def _segments(plan, kind: str) -> list:
    chunks = plan.s2s_chunks if kind == "S2S" else plan.l2l_chunks
    return [seg for chunk in chunks if isinstance(chunk, StreamChunk) for seg in chunk.segments]


def _schedule(plan, kind: str) -> dict:
    """``(target, partner)`` item → ``(wave, folded)``, read off the fill segments."""
    items = {}
    for seg in _segments(plan, kind):
        for a, b in seg.keys:
            for item in [(a, b), (b, a)] if seg.mirrored else [(a, b)]:
                assert item not in items, item
                items[item] = (seg.wave, seg.mirrored)
    return items


@pytest.fixture(scope="module", params=[1024, 1000], ids=["uniform-leaves", "ragged-leaves"])
def matrix(request):
    return build_matrix("K05", n=request.param)


@pytest.fixture(scope="module")
def compressed(matrix):
    """One compression per lattice cell, shared by the tests of this module."""
    cells = {}

    def get(symmetrize: bool, caching: str, **overrides):
        key = (symmetrize, caching, tuple(sorted(overrides.items())))
        if key not in cells:
            cells[key] = compress(matrix, _config(symmetrize, caching, **overrides))
        return cells[key]

    return get


@pytest.mark.parametrize("caching", list(CACHING))
@pytest.mark.parametrize("symmetrize", [True, False], ids=["symmetrized", "paper-lists"])
class TestPairOnceCounts:
    def test_one_matvec_evaluates_each_listed_pair_once(self, compressed, symmetrize, caching):
        cm = compressed(symmetrize, caching)
        tree = cm.tree
        pairs = {
            (kind, a, b): _size(tree, kind, a) * _size(tree, kind, b)
            for kind in _filled_passes(caching)
            for a, b in _unordered(PASSES[kind](tree))
        }
        plan = cm.streaming_plan()
        w = np.random.default_rng(7).standard_normal((cm.n, 3))
        before = {name: obs_counters.get(name) for name in ("kernel_entries_evaluated", "blocks_materialized")}
        out = cm.matvec(w, engine="streamed")
        assert obs_counters.get("kernel_entries_evaluated") - before["kernel_entries_evaluated"] == sum(
            pairs.values()
        )
        assert obs_counters.get("blocks_materialized") - before["blocks_materialized"] == len(pairs)
        chunks = plan.s2s_chunks + plan.l2l_chunks
        assert sum(c.missing_elems for c in chunks) == sum(pairs.values())
        assert np.array_equal(out, reference_matvec(cm, w))

    def test_only_pairs_listed_both_ways_fold(self, compressed, symmetrize, caching):
        cm = compressed(symmetrize, caching)
        one_way = 0
        for kind in _filled_passes(caching):
            listed = _listed(PASSES[kind](cm.tree))
            mirrored = {(a, b) for a, b in listed if a < b and (b, a) in listed}
            one_way += sum((b, a) not in listed for a, b in listed)
            folded = {key for key, (_, fold) in _schedule(cm.streaming_plan(), kind).items() if fold}
            assert folded == mirrored | {(b, a) for a, b in mirrored}
        # the paper's lists leave pairs listed one way: those stay one-sided
        assert (one_way == 0) == symmetrize


@pytest.mark.parametrize("symmetrize", [True, False], ids=["symmetrized", "paper-lists"])
class TestWaveSchedule:
    def test_waves_hold_every_item_once_with_disjoint_nodes(self, compressed, symmetrize):
        cm = compressed(symmetrize, "both-off")
        plan = cm.streaming_plan()
        for kind, lists_of in PASSES.items():
            lists = lists_of(cm.tree)
            schedule = _schedule(plan, kind)
            assert set(schedule) == _listed(lists)
            waves = {}
            for (t, s), (wave, _) in schedule.items():
                waves.setdefault(wave, set()).add((min(t, s), max(t, s)))
            for pairs in waves.values():
                nodes = [node for a, b in pairs for node in {a, b}]
                assert len(nodes) == len(set(nodes)), kind
            degree = {}
            for a, b in _unordered(lists):
                for node in {a, b}:
                    degree[node] = degree.get(node, 0) + 1
            assert sorted(waves) == list(range(len(waves)))
            assert len(waves) <= 2 * max(degree.values()) - 1
            # the chunks run the waves in order
            order = [seg.wave for seg in _segments(plan, kind)]
            assert order == sorted(order)

    def test_waves_are_a_function_of_the_lists(self, compressed, symmetrize):
        cm = compressed(symmetrize, "both-off")
        assert cm.plan() is not cm.streaming_plan()       # the planned packing pads ranks
        expected = {kind: _schedule(cm.streaming_plan(), kind) for kind in PASSES}
        for chunk_bytes in (4096, 1 << 16, 1 << 30):
            other = compressed(symmetrize, "both-off", streaming_chunk_bytes=chunk_bytes)
            for kind in PASSES:
                assert _schedule(other.streaming_plan(), kind) == expected[kind], chunk_bytes
        for kind in PASSES:
            assert _schedule(cm.plan(), kind) == expected[kind]
            waves = pair_waves(_unordered(PASSES[kind](cm.tree)))
            assert {pair: j for j, wave in enumerate(waves) for pair in wave} == {
                (min(key), max(key)): wave for key, (wave, _) in expected[kind].items()
            }


def test_pair_waves_first_fit():
    # a triangle with a self-loop and a pendant edge, given out of order
    waves = pair_waves([(2, 3), (1, 2), (1, 1), (1, 3), (3, 4), (1, 2)])
    assert waves == [[(1, 1), (2, 3)], [(1, 2), (3, 4)], [(1, 3)]]
    assert pair_waves([]) == []


@pytest.mark.parametrize("r", [1, 16])
def test_stacked_transposed_matmul_equals_the_oracles_2d_product(compressed, r):
    """The engine's mirrored GEMM (one ``np.matmul`` on the transposed
    stack) gives the bits of the oracle's ``block.T @ w`` for every folded
    shape the plans use."""
    rng = np.random.default_rng(r)
    shapes = set()
    for symmetrize in (True, False):
        plan = compressed(symmetrize, "both-off").streaming_plan()
        shapes |= {(seg.batch, seg.shape) for kind in PASSES for seg in _segments(plan, kind) if seg.mirrored}
    assert shapes
    for g, (p, k) in sorted(shapes):
        blocks = rng.standard_normal((g, p, k))
        w = rng.standard_normal((g, p, r))
        stacked = np.matmul(blocks.transpose(0, 2, 1), w)
        for i in range(g):
            assert np.array_equal(stacked[i], blocks[i].copy().T @ w[i].copy()), (g, p, k)

"""The near cache and the store hold each symmetric pair once.

A leaf's cached block-row holds its diagonal block and the pairs it owns:
a pair listed both ways is evaluated once, as ``K[min, max]``, and its
other direction is read as the transpose.  A pair listed one way only
(``symmetrize_lists=False``) stays in its target's row.  The L2L on row
slabs applies every owned block both ways; the per-node oracle follows the
same rule, so both engines stay bitwise equal to it on every residency of
the near blocks.
"""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from repro import GOFMMConfig, compress
from repro.api import CompressedOperator
from repro.core.hmatrix import BlockProvider
from repro.core.plan import SlabSegment, near_row_slabs
from repro.errors import ArtifactMismatchError
from repro.matrices import build_matrix
from repro.storage import OperatorStore, read_array_dir, write_array_dir

from ..conftest import rewrite_in_flat_layout, rewrite_in_full_row_layout
from ..oracles.evaluate_reference import reference_matvec


def _config(**overrides) -> GOFMMConfig:
    return GOFMMConfig(**{"leaf_size": 64, "max_rank": 32, "budget": 0.3, **overrides})


def _listed(cm) -> set:
    return {(leaf.node_id, alpha) for leaf in cm.tree.leaves for alpha in leaf.near}


def _unordered(cm) -> set:
    return {(min(key), max(key)) for key in _listed(cm)}


def _entries(cm, keys) -> int:
    return sum(cm.tree.node(b).size * cm.tree.node(a).size for b, a in keys)


@pytest.fixture(
    scope="module",
    params=[(n, sym) for n in (2048, 2000) for sym in (True, False)],
    ids=lambda p: f"{'uniform' if p[0] == 2048 else 'ragged'}-leaves-"
                  f"{'symmetrized' if p[1] else 'paper-lists'}",
)
def folded(request):
    n, symmetrize = request.param
    matrix = build_matrix("K05", n=n)
    config = _config(symmetrize_lists=symmetrize)
    cm, report = compress(matrix, config, return_report=True)
    off = compress(matrix, config.replace(cache_near_blocks=False), return_report=True)[1]
    listed = _listed(cm)
    one_way = {key for key in listed if key[::-1] not in listed}
    assert bool(one_way) != symmetrize            # paper lists leave some pairs one-sided
    assert (len({leaf.size for leaf in cm.tree.leaves}) == 1) == (n == 2048)
    return matrix, cm, report.entry_evaluations - off.entry_evaluations


class TestFoldCounts:
    def test_cache_holds_each_unordered_pair_once(self, folded):
        _, cm, _ = folded
        assert cm.near_blocks.cached_entries == _entries(cm, _unordered(cm))
        assert len(cm.near_blocks) == len(_unordered(cm))

    def test_compress_evaluates_no_mirror(self, folded):
        _, cm, near_evaluations = folded
        listed = _listed(cm)
        mirrors = {(b, a) for b, a in listed if a < b and (a, b) in listed}
        assert near_evaluations == cm.near_blocks.cached_entries
        assert near_evaluations == _entries(cm, listed) - _entries(cm, mirrors) > 0

    def test_rows_hold_the_diagonal_and_the_owned_pairs(self, folded):
        _, cm, _ = folded
        listed = _listed(cm)
        for slab in cm.near_blocks.row_slabs():
            for (beta, cols), flags in zip(slab.rows, slab.mirror):
                for alpha, flag in zip(cols, flags):
                    both = alpha != beta and (alpha, beta) in listed
                    assert flag == both and (not both or beta < alpha), (beta, alpha)


class TestProviderContract:
    def test_both_directions_are_in_the_provider(self, folded):
        _, cm, _ = folded
        assert all(key in cm.near_blocks for key in _listed(cm))

    def test_mirror_is_the_transposed_view_of_the_owned_block(self, folded):
        _, cm, _ = folded
        listed, provider = _listed(cm), cm.near_blocks
        mirrored = [(b, a) for b, a in listed if a < b and (a, b) in listed]
        assert mirrored
        for b, a in mirrored:
            owned, mirror = provider.get((a, b)), provider.get((b, a))
            assert np.shares_memory(owned, mirror) and np.array_equal(mirror, owned.T)
            assert not mirror.flags.writeable

    def test_near_part_of_to_dense_is_symmetric(self, folded):
        _, cm, _ = folded
        near = np.zeros((cm.n, cm.n))
        for b, a in _listed(cm):
            near[np.ix_(cm.tree.node(b).indices, cm.tree.node(a).indices)] = cm.near_blocks.get((b, a))
        listed_both = {key for key in _listed(cm) if key[::-1] in _listed(cm)}
        mask = np.zeros((cm.n, cm.n), dtype=bool)
        for b, a in listed_both:
            mask[np.ix_(cm.tree.node(b).indices, cm.tree.node(a).indices)] = True
        assert np.array_equal(near[mask], near.T[mask])

    def test_storing_either_direction_retires_the_owners_row(self, folded):
        matrix, cm, _ = folded
        for direction in (0, 1):
            provider = _rebuilt(cm, matrix)
            slab = next(s for s in provider.row_slabs() if any(any(f) for f in s.mirror))
            i, j = next((i, j) for i, flags in enumerate(slab.mirror) for j, f in enumerate(flags) if f)
            owner, alpha = slab.rows[i][0], slab.rows[i][1][j]
            key = (owner, alpha) if direction == 0 else (alpha, owner)
            replacement = np.full(provider.get(key).shape, 2.0)
            provider.store(key, replacement)
            assert all(slab is not s for s in provider.row_slabs())
            assert np.array_equal(provider.get(key), replacement)
            assert np.array_equal(provider.get(key[::-1]), replacement.T)


def _rebuilt(cm, matrix) -> BlockProvider:
    """A private near cache of ``cm``'s lists (tests below write to it)."""
    from repro.core.compress import run_near_blocks_stage

    return run_near_blocks_stage(cm.tree, matrix, cm.config)


# ---------------------------------------------------------------------------
# equivalence lattice: every residency of the near blocks ≡ the oracle
# ---------------------------------------------------------------------------

_CELLS = ("in-memory", "mmap", "ram", "full-rows", "flat", "replaced-block", "near-off")


@pytest.fixture(scope="module", params=[2048, 2000], ids=["uniform-leaves", "ragged-leaves"])
def exact_pair(request):
    matrix = build_matrix("K05", n=request.param)
    return matrix, compress(matrix, _config(plan_rank_bucketing="none"))


def _cell(name, matrix, cm, tmp_path):
    if name == "in-memory":
        return cm
    if name == "near-off":
        return compress(matrix, cm.config.replace(cache_near_blocks=False))
    if name == "replaced-block":
        near = _rebuilt(cm, matrix)
        owned = next(key for key, _ in near.cached_items() if key[0] != key[1])
        near.store(owned[::-1], np.array(near.get(owned[::-1])))
        return dataclasses.replace(cm, near_blocks=near, _plan=None, _streaming_plan=None)
    path = os.path.join(tmp_path, f"{name}.store")
    CompressedOperator(cm).save(path)
    if name == "full-rows":
        rewrite_in_full_row_layout(path)
    elif name == "flat":
        rewrite_in_flat_layout(path)
    resident = "mmap" if name in ("mmap", "full-rows") else "ram"
    return CompressedOperator.open(path, resident=resident).compressed


class TestFoldLattice:
    @pytest.mark.parametrize("cell", _CELLS)
    @pytest.mark.parametrize("r", [1, 16])
    def test_both_engines_equal_the_oracle(self, exact_pair, cell, r, tmp_path):
        matrix, cm = exact_pair
        operator = _cell(cell, matrix, cm, tmp_path)
        w = np.random.default_rng(r).standard_normal((cm.n, r))
        expected = reference_matvec(operator, w)
        assert np.array_equal(operator.matvec(w, engine="planned"), expected)
        assert np.array_equal(operator.matvec(w, engine="streamed"), expected)
        if cell in ("mmap", "ram"):     # the store holds the same rows as the cache
            assert np.array_equal(expected, reference_matvec(cm, w))
        else:                           # other sums, the same operator
            fresh = reference_matvec(cm, w)
            assert np.max(np.abs(expected - fresh)) <= 1e-13 * np.max(np.abs(fresh))

    def test_full_row_store_runs_in_place(self, exact_pair, tmp_path):
        """A store written before the column table opens as full rows applied one way."""
        matrix, cm = exact_pair
        path = os.path.join(tmp_path, "full-rows.store")
        CompressedOperator(cm).save(path)
        rewrite_in_full_row_layout(path)
        assert "near_slab_cols" not in read_array_dir(path)[1]
        opened = CompressedOperator.open(path, resident="mmap").compressed
        slabs = opened.near_blocks.row_slabs()
        assert all(not any(any(flags) for flags in slab.mirror) for slab in slabs)
        assert sum(len(cols) for slab in slabs for _, cols in slab.rows) == len(_listed(cm))
        plan = opened.streaming_plan()
        assert plan.filled_chunks == 0
        assert not any(isinstance(s, SlabSegment) for s in plan.segments())
        w = np.random.default_rng(5).standard_normal((cm.n, 16))
        folded = cm.matvec(w)
        assert np.allclose(opened.matvec(w), folded, rtol=0, atol=1e-13 * np.abs(folded).max())

    def test_folded_store_holds_each_pair_once(self, exact_pair, tmp_path):
        _, cm = exact_pair
        path = os.path.join(tmp_path, "k.store")
        CompressedOperator(cm).save(path)
        manifest, arrays = read_array_dir(path)
        assert arrays["near_slab_data"].size == cm.near_blocks.cached_entries
        assert manifest["counts"]["near_blocks"] == len(_listed(cm)) and manifest["blocks_complete"]
        opened = CompressedOperator.open(path, resident="mmap").compressed
        assert opened.near_blocks.cached_entries == cm.near_blocks.cached_entries
        assert all(key in opened.near_blocks for key in _listed(cm))

    def test_saved_rows_of_a_replaced_block_keep_every_pair(self, exact_pair, tmp_path):
        """A retired row is saved in fresh rows: the store still applies every listed pair once."""
        matrix, cm = exact_pair
        replaced = _cell("replaced-block", matrix, cm, tmp_path)
        slabs = near_row_slabs(replaced)
        keys = [key for slab in slabs for key in slab.directions()]
        assert len(keys) == len(set(keys)) and set(keys) == _listed(cm)
        path = os.path.join(tmp_path, "replaced.store")
        CompressedOperator(replaced).save(path)
        opened = CompressedOperator.open(path, resident="ram").compressed
        w = np.random.default_rng(6).standard_normal((cm.n, 4))
        assert np.array_equal(opened.matvec(w), reference_matvec(opened, w))
        assert opened.streaming_plan().filled_chunks == 0


class TestStoreColumnTable:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        cm = compress(build_matrix("K05", n=2048), _config())
        path = tmp_path_factory.mktemp("fold") / "k.store"
        CompressedOperator(cm).save(path)
        return cm, path

    def _edited(self, path, tmp_path, edit):
        manifest, arrays = read_array_dir(path, mmap=False)
        edit(arrays)
        edited = tmp_path / "edited.store"
        write_array_dir(edited, manifest, arrays)
        return edited

    def test_a_pair_applied_twice_raises(self, store, tmp_path):
        _, path = store

        def edit(arrays):
            mirror, cols = arrays["near_slab_mirror"], arrays["near_slab_cols"]
            indptr, leaves = arrays["near_slab_col_indptr"], arrays["near_slab_leaves"]
            # flag a one-way column (the diagonal) as mirrored: it applies (β, β) twice
            i = next(i for i, beta in enumerate(leaves) if beta in cols[indptr[i] : indptr[i + 1]])
            j = indptr[i] + list(cols[indptr[i] : indptr[i + 1]]).index(leaves[i])
            mirror[j] = True

        with pytest.raises(ArtifactMismatchError, match="twice"):
            OperatorStore(self._edited(path, tmp_path, edit)).open()

    def test_a_malformed_column_table_raises(self, store, tmp_path):
        _, path = store

        def edit(arrays):
            arrays["near_slab_mirror"] = arrays["near_slab_mirror"][:-1]

        with pytest.raises(ArtifactMismatchError, match="column table"):
            OperatorStore(self._edited(path, tmp_path, edit)).open()


class TestStreamedSave:
    def test_save_does_not_copy_the_near_cache(self, tmp_path):
        cm = compress(build_matrix("K05", n=2048), _config(max_rank=8))
        warm = os.path.join(tmp_path, "warm.store")
        OperatorStore.save(cm, warm)                # warm lazy imports outside the measurement
        tracemalloc.start()
        try:
            OperatorStore.save(cm, os.path.join(tmp_path, "k.store"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * cm.near_blocks.bytes_resident, (peak, cm.near_blocks.bytes_resident)

    def test_stored_bytes_equal_a_concatenated_save(self, tmp_path):
        cm = compress(build_matrix("K05", n=2000), _config(max_rank=8))
        path = tmp_path / "k.store"
        OperatorStore.save(cm, path)
        slabs = near_row_slabs(cm)
        far = dict(cm.far_blocks.cached_items())
        expected = {
            "near_slab_data": np.concatenate([slab.array.ravel() for slab in slabs]),
            "far_block_data": np.concatenate([far[key].ravel() for key in sorted(far)]),
            "coeff_data": np.concatenate(
                [node.coeffs.ravel() for node in cm.tree.nodes if node.coeffs is not None]
            ),
        }
        for name, array in expected.items():
            np.save(tmp_path / f"{name}.npy", array)
            assert (path / f"{name}.npy").read_bytes() == (tmp_path / f"{name}.npy").read_bytes()

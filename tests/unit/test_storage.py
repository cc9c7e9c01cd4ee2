"""Unit tests for the out-of-core storage subsystem (repro.storage).

Covers the two pillars: the format-v2 operator store (save / mmap
cold-start / trust-boundary validation) and the panel source/sink
streaming layer — plus the serving integration
(``MatvecServer.register(store=...)``) and hardened store reads.
"""

import json
import os

import numpy as np
import pytest

from repro import GOFMMConfig
from repro.api import CompressedOperator, Session
from repro.errors import ArtifactMismatchError, ConfigurationError, StorageError
from repro.storage import (
    ArrayPanelSource,
    MmapPanelSink,
    MmapPanelSource,
    OperatorStore,
    StoredBlockProvider,
    as_panel_sink,
    as_panel_source,
    is_disk_backed,
    read_array_dir,
    write_array_dir,
)

from ..conftest import make_gaussian_kernel_matrix
from ..oracles.evaluate_reference import reference_matvec

#: Fine tree with cached blocks: the store must carry skeletons,
#: coefficients, and both block families.
CONFIG = dict(
    leaf_size=16, max_rank=8, adaptive_rank=False, budget=0.2,
    neighbors=8, num_neighbor_trees=3, seed=0,
)


@pytest.fixture(scope="module")
def matrix():
    return make_gaussian_kernel_matrix(n=220, d=3, bandwidth=1.5, seed=0)


@pytest.fixture(scope="module")
def operator(matrix):
    return Session(matrix, GOFMMConfig(**CONFIG)).compress()


@pytest.fixture(scope="module")
def store_path(operator, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "operator.store"
    operator.save(path)
    return path


@pytest.fixture(scope="module")
def weights(matrix):
    return np.random.default_rng(3).standard_normal((matrix.n, 4))


@pytest.fixture(scope="module")
def reference(operator, weights):
    return reference_matvec(operator.compressed, weights)


class TestArrayDir:
    def test_round_trip_preserves_arrays_and_manifest(self, tmp_path):
        arrays = {
            "a": np.arange(12, dtype=np.float64).reshape(3, 4),
            "b": np.array([1, 2, 3], dtype=np.intp),
        }
        path = tmp_path / "dir.store"
        write_array_dir(path, {"kind": "test", "schema_version": 2}, arrays)
        manifest, loaded = read_array_dir(path, mmap=True)
        assert manifest["kind"] == "test"
        for name, arr in arrays.items():
            assert np.array_equal(loaded[name], arr)
            assert is_disk_backed(loaded[name])

    def test_publish_is_atomic_over_existing_dir(self, tmp_path):
        path = tmp_path / "dir.store"
        write_array_dir(path, {"kind": "test"}, {"a": np.zeros(3)})
        write_array_dir(path, {"kind": "test"}, {"a": np.ones(5)})
        _, loaded = read_array_dir(path)
        assert np.array_equal(loaded["a"], np.ones(5))
        assert not any(name.startswith("dir.store.tmp-") for name in os.listdir(tmp_path))

    def test_missing_manifest_raises(self, tmp_path):
        (tmp_path / "empty.store").mkdir()
        with pytest.raises(ArtifactMismatchError):
            read_array_dir(tmp_path / "empty.store")

    def test_truncated_array_raises(self, tmp_path):
        path = tmp_path / "dir.store"
        write_array_dir(path, {"kind": "test"}, {"a": np.arange(1000.0)})
        victim = path / "a.npy"
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
        with pytest.raises(ArtifactMismatchError):
            read_array_dir(path)

    def test_manifest_shape_mismatch_raises(self, tmp_path):
        path = tmp_path / "dir.store"
        write_array_dir(path, {"kind": "test"}, {"a": np.arange(10.0)})
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["arrays"]["a"]["shape"] = [99]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactMismatchError):
            read_array_dir(path)


class TestOperatorStore:
    def test_mmap_open_is_bit_identical_to_reference(self, store_path, weights, reference):
        reopened = CompressedOperator.open(store_path, resident="mmap")
        assert reopened.default_engine() == "streamed"
        assert np.array_equal(reopened.apply(weights), reference)

    def test_ram_open_is_bit_identical(self, store_path, weights, reference):
        reopened = CompressedOperator.open(store_path, resident="ram")
        assert np.array_equal(reference_matvec(reopened.compressed, weights), reference)

    def test_mmap_open_reports_bytes_on_disk(self, store_path):
        reopened = CompressedOperator.open(store_path, resident="mmap")
        report = reopened.report()
        assert report["bytes_on_disk"] > 0
        memory = reopened.compressed.memory_report()
        assert set(memory) == {"bytes_resident", "bytes_on_disk"}
        assert memory["bytes_on_disk"] == report["bytes_on_disk"]

    def test_store_metadata(self, store_path, operator):
        store = OperatorStore(store_path)
        assert store.n == operator.n
        assert store.bytes_on_disk > 0
        assert set(store.fingerprints) == {
            "partition", "neighbors", "interactions", "skeletons", "near_blocks", "far_blocks",
            "plan",
        }
        assert store.config().leaf_size == CONFIG["leaf_size"]

    def test_wrong_kind_raises(self, tmp_path):
        path = tmp_path / "notastore"
        write_array_dir(path, {"kind": "something-else", "schema_version": 2}, {"a": np.zeros(1)})
        with pytest.raises(ArtifactMismatchError):
            OperatorStore(path)

    def test_truncated_store_array_raises(self, store_path, tmp_path, operator):
        path = tmp_path / "corrupt.store"
        operator.save(path)
        victim = path / "coeff_data.npy"
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
        with pytest.raises(ArtifactMismatchError):
            OperatorStore(path).open()

    @staticmethod
    def _edited_store(operator, tmp_path, edit):
        """A fresh store whose arrays ``edit`` rewrites, manifest inventory included."""
        path = tmp_path / "edited.store"
        operator.save(path)
        manifest, arrays = read_array_dir(path, mmap=False)
        edit(arrays)
        write_array_dir(path, manifest, arrays)
        return path

    def test_slab_shape_disagreeing_with_its_leaves_raises(self, operator, tmp_path):
        def edit(arrays):
            shapes = arrays["near_slab_shapes"]
            i = int(np.flatnonzero(shapes[:, 1] != shapes[:, 2])[0])
            shapes[i, 1], shapes[i, 2] = shapes[i, 2], shapes[i, 1]  # same size, wrong row height

        path = self._edited_store(operator, tmp_path, edit)
        with pytest.raises(ArtifactMismatchError, match="disagrees with its leaves"):
            OperatorStore(path).open()

    def test_slab_offsets_not_covering_the_data_raise(self, operator, tmp_path):
        def edit(arrays):
            arrays["near_slab_data"] = arrays["near_slab_data"][:-1]

        path = self._edited_store(operator, tmp_path, edit)
        with pytest.raises(ArtifactMismatchError, match="do not cover"):
            OperatorStore(path).open(resident="ram")

    def test_leaf_in_two_slabs_raises(self, operator, tmp_path):
        def edit(arrays):
            leaves = arrays["near_slab_leaves"]
            leaves[-1] = leaves[0]

        path = self._edited_store(operator, tmp_path, edit)
        with pytest.raises(ArtifactMismatchError, match="two slabs"):
            OperatorStore(path).open()

    def test_config_overrides_apply(self, store_path):
        reopened = CompressedOperator.open(
            store_path, resident="mmap", streaming_chunk_bytes=1 << 20
        )
        assert reopened.config.streaming_chunk_bytes == 1 << 20

    @pytest.mark.parametrize("resident", ["mmap", "ram"])
    def test_store_with_removed_compression_backend_key_opens(
        self, operator, weights, reference, tmp_path, resident
    ):
        """Stores written before ``compression_backend`` was removed open unchanged.

        ``config_from_jsonable`` ignoring unknown keys is the whole
        compatibility story — there is no migration shim.
        """
        path = tmp_path / "old.store"
        operator.save(path)
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["compression_backend"] = "batched"
        manifest["fingerprints"]["skeletons"]["compression_backend"] = "batched"
        manifest_path.write_text(json.dumps(manifest))
        reopened = CompressedOperator.open(path, resident=resident)
        assert np.array_equal(reference_matvec(reopened.compressed, weights), reference)

    @pytest.mark.parametrize("resident", ["mmap", "ram"])
    def test_store_with_retired_spill_degrade_key_opens(
        self, operator, weights, reference, tmp_path, resident
    ):
        """Stores written while ``spill_degrade_to_heap`` was a config field
        open unchanged, and their streamed engine runs on heap buffers."""
        path = tmp_path / "old.store"
        operator.save(path)
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["spill_degrade_to_heap"] = False
        manifest_path.write_text(json.dumps(manifest))
        reopened = CompressedOperator.open(
            path, resident=resident, streaming_chunk_bytes=2048
        )
        assert not hasattr(reopened.config, "spill_degrade_to_heap")
        assert np.array_equal(reopened.apply(weights, engine="streamed"), reference)

    def test_store_with_retired_shard_keys_opens(self, operator, weights, reference, tmp_path):
        """Stores written while ``shard_retries`` / ``shard_task_timeout_s``
        were config fields open unchanged."""
        path = tmp_path / "old.store"
        operator.save(path)
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"].update(shard_retries=2, shard_task_timeout_s=60.0)
        manifest_path.write_text(json.dumps(manifest))
        reopened = CompressedOperator.open(path)
        assert not hasattr(reopened.config, "shard_retries")
        assert np.array_equal(reopened.apply(weights, engine="streamed"), reference)

    @pytest.mark.parametrize("resident", ["mmap", "ram"])
    def test_store_with_the_single_blocks_fingerprint_opens(
        self, operator, weights, reference, tmp_path, resident
    ):
        """Stores written while ``blocks`` was one stage open unchanged.

        The manifest's per-stage fingerprints are provenance, not a gate:
        splitting ``blocks`` into ``near_blocks`` / ``far_blocks`` added a
        key and changed nothing ``open`` reads.
        """
        path = tmp_path / "old.store"
        operator.save(path)
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        fingerprints = manifest["fingerprints"]
        fingerprints["blocks"] = {**fingerprints.pop("near_blocks"), **fingerprints.pop("far_blocks")}
        assert fingerprints["blocks"] == {"cache_near_blocks": True, "cache_far_blocks": True}
        manifest_path.write_text(json.dumps(manifest))
        reopened = CompressedOperator.open(path, resident=resident)
        assert np.array_equal(reference_matvec(reopened.compressed, weights), reference)


class TestMemorylessStore:
    """A store saved from a memoryless compression holds no blocks: ``matrix=`` supplies them."""

    @pytest.mark.parametrize("budget", [0.0, 0.2], ids=["hss", "fmm"])
    @pytest.mark.parametrize("resident", ["ram", "mmap"])
    def test_solve_matches_the_in_memory_operator(self, matrix, tmp_path, budget, resident):
        config = GOFMMConfig(
            **{**CONFIG, "budget": budget, "cache_near_blocks": False, "cache_far_blocks": False}
        )
        operator = Session(matrix, config).compress()
        path = tmp_path / "memoryless.store"
        operator.save(path)
        b = np.random.default_rng(5).standard_normal((matrix.n, 2))
        expected = operator.solve(b, shift=1.0, tolerance=1e-10)
        opened = CompressedOperator.open(path, resident=resident, matrix=matrix)
        result = opened.solve(b, shift=1.0, tolerance=1e-10)
        assert result.converged and result.iterations == expected.iterations
        assert np.array_equal(result.solution, expected.solution)

    def test_without_the_matrix_a_missing_block_is_none(self, matrix, tmp_path):
        config = GOFMMConfig(**{**CONFIG, "cache_near_blocks": False, "cache_far_blocks": False})
        path = tmp_path / "memoryless.store"
        Session(matrix, config).compress().save(path)
        compressed = CompressedOperator.open(path, resident="ram").compressed
        leaf = compressed.tree.leaves[0].node_id
        assert compressed.near_blocks.get((leaf, leaf)) is None


class TestStoredBlockProvider:
    def _provider(self):
        blocks = {(0, 1): np.arange(6.0).reshape(2, 3), (2, 3): np.ones((1, 4))}
        keys = np.array(sorted(blocks), dtype=np.intp)
        flat, indptr, shapes = [], [0], []
        for key in sorted(blocks):
            block = blocks[key]
            flat.append(block.ravel())
            shapes.append(block.shape)
            indptr.append(indptr[-1] + block.size)
        return blocks, StoredBlockProvider(
            keys=keys,
            indptr=np.array(indptr, dtype=np.intp),
            shapes=np.array(shapes, dtype=np.intp),
            data=np.concatenate(flat),
        )

    def test_get_returns_stored_blocks(self):
        blocks, provider = self._provider()
        for key, block in blocks.items():
            assert np.array_equal(provider.get(key), block)
        assert provider.get((9, 9)) is None

    def test_store_is_rejected(self):
        _, provider = self._provider()
        with pytest.raises(StorageError):
            provider.store((4, 5), np.zeros((2, 2)))

    def test_inconsistent_indptr_raises(self):
        with pytest.raises(ArtifactMismatchError):
            StoredBlockProvider(
                keys=np.array([[0, 1]], dtype=np.intp),
                indptr=np.array([0, 7], dtype=np.intp),
                shapes=np.array([[2, 3]], dtype=np.intp),
                data=np.zeros(6),
            )

    def test_duplicate_keys_raise(self):
        # A later duplicate would shadow the earlier block, and len() would
        # disagree with cached_entries.
        with pytest.raises(ArtifactMismatchError, match="duplicate"):
            StoredBlockProvider(
                keys=np.array([[0, 1], [0, 1]], dtype=np.intp),
                indptr=np.array([0, 4, 8], dtype=np.intp),
                shapes=np.array([[2, 2], [2, 2]], dtype=np.intp),
                data=np.zeros(8),
            )

    def test_mmap_blocks_are_plain_ndarray_views_yet_disk_backed(self, store_path):
        provider = CompressedOperator.open(store_path, resident="mmap").compressed.near_blocks
        key = next(iter(provider.cached_items()))[0]
        block = provider.get(key)
        assert type(block) is np.ndarray
        assert provider.disk_backed and is_disk_backed(block)


class TestPanels:
    def test_array_source_reads_views(self):
        data = np.arange(24.0).reshape(6, 4)
        source = ArrayPanelSource(data)
        assert source.shape == (6, 4)
        assert np.array_equal(source.read(1, 4, 0, 2), data[1:4, 0:2])

    def test_mmap_source_and_sink_round_trip(self, tmp_path):
        data = np.random.default_rng(0).standard_normal((10, 5))
        src_path = tmp_path / "w.npy"
        np.save(src_path, data)
        source = MmapPanelSource(src_path)
        assert np.array_equal(source.read(0, 10, 0, 5), data)

        sink_path = tmp_path / "out.npy"
        sink = MmapPanelSink(sink_path, shape=(10, 5))
        sink.write(0, 0, data[:, :3])
        sink.write(0, 3, data[:, 3:])
        sink.close()
        assert np.array_equal(np.load(sink_path), data)

    def test_as_panel_source_dispatch(self, tmp_path):
        arr = np.zeros((3, 2))
        assert isinstance(as_panel_source(arr), ArrayPanelSource)
        path = tmp_path / "x.npy"
        np.save(path, arr)
        assert isinstance(as_panel_source(str(path)), MmapPanelSource)
        source = ArrayPanelSource(arr)
        assert as_panel_source(source) is source
        with pytest.raises(StorageError):
            as_panel_source(42)

    def test_as_panel_sink_validates_shape(self):
        out = np.zeros((4, 2))
        with pytest.raises(StorageError):
            as_panel_sink(out, (5, 2))


class TestServingColdStart:
    def test_register_from_store_serves_bit_identically(self, store_path, operator, weights):
        from repro.serving import BatchPolicy, MatvecServer

        server = MatvecServer()
        # bit-identity holds per matched RHS width (GEMM accumulation differs
        # across widths), so serve width-1 batches and compare to a width-1
        # reference traversal
        entry = server.register("ooc", store=store_path, policy=BatchPolicy(max_batch=1))
        with server:
            got = server.matvec("ooc", weights[:, 0])
        assert np.array_equal(got, reference_matvec(operator.compressed, weights[:, 0]))
        assert entry.source is not None and entry.source["store"] == store_path

    def test_store_entry_reports_memory_and_reloads(self, store_path, operator):
        from repro.serving import MatvecServer

        server = MatvecServer()
        server.register("ooc", store=store_path)
        stats = server.stats()["ooc"]
        assert stats["bytes_on_disk"] > 0
        assert stats["hot_reload"] is True
        assert server.reload("ooc") is False  # unchanged manifest
        operator.save(store_path)  # republish bumps the manifest stamp
        assert server.reload("ooc") is True

    def test_store_excludes_other_sources(self, store_path, matrix):
        from repro.errors import ServingError
        from repro.serving import MatvecServer

        with pytest.raises(ServingError):
            MatvecServer().register("x", store=store_path, matrix=matrix)


class TestStorageFaultTolerance:
    """Hardened reads: transient errors retry, persistent ones fail typed."""

    def test_transient_read_error_is_retried_and_recovered(self, store_path):
        from repro.faults import FaultPlan, nth_call
        from repro.obs import counters

        clean_manifest, clean_arrays = read_array_dir(store_path, mmap=False)
        plan = FaultPlan()
        plan.inject("storage.read", trigger=nth_call(1))  # default: transient EIO
        recovered_before = counters.get("faults_recovered")
        with plan.armed():
            manifest, arrays = read_array_dir(store_path, mmap=False)
        assert manifest == clean_manifest
        for key in clean_arrays:
            assert np.array_equal(arrays[key], clean_arrays[key])
        assert plan.injected == 1
        assert counters.get("faults_recovered") == recovered_before + 1

    def test_persistent_read_error_exhausts_typed(self, store_path):
        from repro.errors import StorageRetryExhaustedError
        from repro.faults import FaultPlan, always

        plan = FaultPlan()
        plan.inject("storage.read", trigger=always(), times=None)
        with plan.armed():
            with pytest.raises(StorageRetryExhaustedError) as info:
                read_array_dir(store_path, mmap=False, retries=1)
        assert info.value.attempts == 2
        assert info.value.path  # names the read that kept failing

    def test_missing_file_is_not_retried(self, tmp_path):
        # FileNotFoundError means a wrong/corrupt artifact, not a flaky
        # device: it must fail fast as ArtifactMismatchError, no backoff.
        with pytest.raises(ArtifactMismatchError):
            read_array_dir(tmp_path / "nope", retries=5)

    def test_operator_store_opens_through_transient_faults(self, store_path, weights, reference):
        from repro.faults import FaultPlan, nth_call

        plan = FaultPlan()
        plan.inject("storage.read", trigger=nth_call(1))
        with plan.armed():
            op = CompressedOperator.open(store_path, resident="mmap")
        assert np.array_equal(op @ weights, reference)
        assert plan.injected == 1

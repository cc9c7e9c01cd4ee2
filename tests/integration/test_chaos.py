"""End-to-end chaos drill: the full pipeline survives a seeded fault plan.

One compress → store → serve run is executed twice over the same inputs:
once fault-free (the oracle), once under an armed :class:`FaultPlan` that

* kills the worker holding shard task 0 in every fresh fork pool
  (``shard.worker``) — the supervised pools re-fork and retry,
* fails the first store read with a transient ``EIO`` (``storage.read``)
  — the hardened reader backs off and retries,
* flags the first routed request (``serving.shard``) — the router kills
  the picked shard mid-flight and fails over.

The contract: every stage's output under chaos is **bit-identical** to
the fault-free oracle, the counter ledger balances
(``faults_injected == faults_recovered + faults_degraded``), and the
whole drill finishes inside a hard wall-clock budget — recovery must be
bounded, not merely eventual.
"""

import time

import numpy as np
import pytest

from repro import GOFMMConfig
from repro.api import CompressedOperator, Session
from repro.core.sharding import fork_available
from repro.faults import FaultPlan, match, nth_call
from repro.obs import counters
from repro.serving import BatchPolicy, ShardRouter

from ..conftest import make_gaussian_kernel_matrix

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires the fork start method")

N = 192

#: Sharded everywhere, cached blocks (the store must cold-start serving),
#: tight supervision so injected kills are detected in seconds.
CONFIG = dict(
    leaf_size=16, max_rank=8, adaptive_rank=False, budget=0.2,
    neighbors=8, num_neighbor_trees=3, seed=0,
    neighbor_workers=2,
    compression_workers=2,
    shard_retries=2, shard_task_timeout_s=2.0,
)

#: Tiny workspace budget so a streamed engine that fills its blocks runs
#: many single-block chunks through its heap buffers.  (Cached blocks need
#: no workspace: the engine multiplies them in place.)
CHUNK_BYTES = 2048


def _pipeline(matrix, w, store_dir):
    """compress → save → mmap cold-start → streamed matvecs → routed matvec."""
    session = Session(matrix, GOFMMConfig(**CONFIG))
    op = session.compress()
    op.save(store_dir)
    reopened = CompressedOperator.open(
        store_dir, resident="mmap", streaming_chunk_bytes=CHUNK_BYTES
    )
    streamed = reopened.apply(w, engine="streamed")
    # Uncached near blocks are evaluated chunk by chunk into heap buffers.
    tight = session.recompress(streaming_chunk_bytes=CHUNK_BYTES, cache_near_blocks=False)
    plan = tight.compressed.streaming_plan()
    filled = tight.apply(w, engine="streamed")
    router = ShardRouter(
        num_shards=2,
        policy=BatchPolicy(max_batch=8, max_wait_ms=2.0, max_queue=512),
    )
    router.register("kernel", store=store_dir)
    with router:
        routed = router.matvec("kernel", w[:, 0], timeout=30)
    return {
        "direct": op.apply(w), "streamed": streamed, "filled": filled,
        "routed": routed, "plan": plan,
    }


@needs_fork
class TestChaosPipeline:
    def test_pipeline_survives_seeded_faults_bit_identically(self, tmp_path):
        matrix = make_gaussian_kernel_matrix(n=N, d=3, bandwidth=1.2, seed=0)
        w = np.random.default_rng(11).standard_normal((N, 2))

        counters.reset()
        oracle = _pipeline(matrix, w, tmp_path / "clean")
        assert oracle["plan"].filled_chunks > 1  # the tight leg really fills buffers
        assert counters.get("faults_injected") == 0  # unarmed runs inject nothing

        plan = FaultPlan(seed=7)
        plan.inject("shard.worker", kill=True, times=None,
                    trigger=match(task=0, attempt=0))
        plan.inject("storage.read", trigger=nth_call(1))   # default: transient EIO
        plan.inject("serving.shard", trigger=nth_call(1))  # flag: router kills shard

        counters.reset()
        started = time.monotonic()
        with plan.armed():
            chaos = _pipeline(matrix, w, tmp_path / "chaos")
        elapsed = time.monotonic() - started

        # bit-identity at every stage: recovery may never change a result
        assert np.array_equal(chaos["direct"], oracle["direct"])
        assert np.array_equal(chaos["streamed"], oracle["streamed"])
        assert np.array_equal(chaos["filled"], oracle["filled"])
        assert np.array_equal(chaos["routed"], oracle["routed"])

        # every scripted point actually fired ...
        injected = counters.get("faults_injected")
        recovered = counters.get("faults_recovered")
        degraded = counters.get("faults_degraded")
        assert plan.detected >= 1          # at least one worker kill was detected
        assert injected == plan.injected >= 3
        # ... and the ledger balances: nothing injected went unaccounted
        assert injected == recovered + degraded
        assert recovered >= 3

        # recovery is bounded: retries + backoff, not hangs
        assert elapsed < 90.0

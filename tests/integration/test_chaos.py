"""End-to-end chaos drill: the full pipeline survives a seeded fault plan.

One compress → store → serve run is executed twice over the same inputs:
once fault-free (the oracle), once under an armed :class:`FaultPlan` that
fails the first store manifest read and the first store array read with
a transient ``EIO`` (``storage.read``) — the hardened reader backs off
and retries each — and the reopened store is then served through a
:class:`MatvecServer`.

The contract: every stage's output under chaos is **bit-identical** to
the fault-free oracle, the counter ledger balances
(``faults_injected == faults_recovered + faults_degraded``), and the
whole drill finishes inside a hard wall-clock budget — recovery must be
bounded, not merely eventual.
"""

import time

import numpy as np

from repro import GOFMMConfig
from repro.api import CompressedOperator, Session
from repro.faults import FaultPlan, match
from repro.obs import counters
from repro.serving import BatchPolicy, MatvecServer

from ..conftest import make_gaussian_kernel_matrix

N = 192

#: Cached blocks: the store must cold-start serving.
CONFIG = dict(
    leaf_size=16, max_rank=8, adaptive_rank=False, budget=0.2,
    neighbors=8, num_neighbor_trees=3, seed=0,
)

#: Tiny workspace budget so a streamed engine that fills its blocks runs
#: many single-block chunks through its heap buffers.  (Cached blocks need
#: no workspace: the engine multiplies them in place.)
CHUNK_BYTES = 2048


def _pipeline(matrix, w, store_dir):
    """compress → save → mmap cold-start → streamed matvecs → served matvec."""
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
    server = MatvecServer(policy=BatchPolicy(max_batch=8, max_wait_ms=2.0, max_queue=512))
    server.register("kernel", store=store_dir)
    with server:
        served = server.matvec("kernel", w[:, 0], timeout=30)
    return {
        "direct": op.apply(w), "streamed": streamed, "filled": filled,
        "served": served, "plan": plan,
    }


class TestChaosPipeline:
    def test_pipeline_survives_seeded_faults_bit_identically(self, tmp_path):
        matrix = make_gaussian_kernel_matrix(n=N, d=3, bandwidth=1.2, seed=0)
        w = np.random.default_rng(11).standard_normal((N, 2))

        counters.reset()
        oracle = _pipeline(matrix, w, tmp_path / "clean")
        assert oracle["plan"].filled_chunks > 1  # the tight leg really fills buffers
        assert counters.get("faults_injected") == 0  # unarmed runs inject nothing

        plan = FaultPlan(seed=7)
        # default action: a transient EIO, once per spec
        plan.inject("storage.read", trigger=match(what="manifest"))
        plan.inject("storage.read", trigger=match(what="array"))

        counters.reset()
        started = time.monotonic()
        with plan.armed():
            chaos = _pipeline(matrix, w, tmp_path / "chaos")
        elapsed = time.monotonic() - started

        # bit-identity at every stage: recovery may never change a result
        assert np.array_equal(chaos["direct"], oracle["direct"])
        assert np.array_equal(chaos["streamed"], oracle["streamed"])
        assert np.array_equal(chaos["filled"], oracle["filled"])
        assert np.array_equal(chaos["served"], oracle["served"])

        # every scripted point actually fired ...
        injected = counters.get("faults_injected")
        recovered = counters.get("faults_recovered")
        degraded = counters.get("faults_degraded")
        assert injected == plan.injected >= 2
        # ... and the ledger balances: nothing injected went unaccounted
        assert injected == recovered + degraded
        assert recovered >= 2

        # recovery is bounded: retries + backoff, not hangs
        assert elapsed < 90.0

"""Unit tests for deterministic fault injection and supervised execution.

The contracts under test:

* the fault-point registry validates like the other registries
  (register / duplicate / unknown / unregister),
* triggers are pure, seeded, and reproducible — two identical plans make
  identical fire/skip decisions,
* ``fire`` is a no-op unless a plan is armed, and arming is scoped,
* :class:`~repro.core.sharding.SupervisedPool` survives task errors,
  killed workers, and stalls by re-forking and retrying, raises a typed
  :class:`~repro.errors.WorkerCrashError` past the budget, and keeps the
  ``faults_injected == faults_recovered + faults_degraded`` ledger,
* the sharded stages degrade to their single-process equivalents
  **bit-identically**, and no ``/dev/shm`` segment survives a failed
  (or healthy) sharded run.
"""

import errno
import os

import numpy as np
import pytest

from repro import ConfigurationError, GOFMMConfig
from repro.config import DistanceMetric
from repro.core import sharding
from repro.core.distances import make_distance
from repro.core.interactions import build_node_neighbor_lists
from repro.core.neighbors import all_nearest_neighbors
from repro.core.sharding import SharedSlab, SupervisedPool, fork_available
from repro.core.skeletonization import skeletonize_tree
from repro.core.tree import build_tree
from repro.errors import RankDeficiencyError, WorkerCrashError
from repro.faults import (
    FaultPlan,
    always,
    available_fault_points,
    first_n,
    get_fault_point,
    injection,
    is_registered,
    match,
    nth_call,
    probability,
    register_point,
    unregister_point,
)
from repro.matrices import DenseSPD
from repro.obs import counters

from ..conftest import make_gaussian_kernel_matrix

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires the fork start method")


@pytest.fixture(autouse=True)
def _clean_state():
    counters.reset()
    yield
    injection.disarm()
    counters.reset()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_builtins_available(self):
        assert {"shard.worker", "storage.read", "serving.shard"} <= set(
            available_fault_points()
        )
        assert is_registered("shard.worker")

    def test_unknown_point_raises_with_known_list(self):
        with pytest.raises(ConfigurationError, match="registered points"):
            get_fault_point("nope")
        with pytest.raises(ConfigurationError, match="registered points"):
            FaultPlan().inject("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_point("storage.read")

    def test_register_unregister_custom_point(self):
        spec = register_point("test.custom", description="for this test")
        try:
            assert is_registered("test.custom")
            assert get_fault_point("test.custom") is spec
        finally:
            unregister_point("test.custom")
        assert not is_registered("test.custom")
        with pytest.raises(ConfigurationError, match="not registered"):
            unregister_point("test.custom")

    def test_default_errors_of_builtins(self):
        assert get_fault_point("storage.read").default_error().errno == errno.EIO
        assert get_fault_point("serving.shard").default_error is None


# ---------------------------------------------------------------------------
# triggers and scripting
# ---------------------------------------------------------------------------

class TestTriggers:
    def _flag_pattern(self, plan, calls, **ctx):
        # serving.shard has no default error, so an actionless inject is a
        # flag — fire() returns the trigger decision without raising.
        with plan.armed():
            return [injection.fire("serving.shard", **ctx) for _ in range(calls)]

    def test_nth_call_fires_exactly_once(self):
        plan = FaultPlan()
        plan.inject("serving.shard", trigger=nth_call(3))
        assert self._flag_pattern(plan, 5) == [False, False, True, False, False]

    def test_first_n_fires_on_the_first_calls(self):
        plan = FaultPlan()
        plan.inject("serving.shard", trigger=first_n(2), times=None)
        assert self._flag_pattern(plan, 4) == [True, True, False, False]

    def test_times_bounds_always(self):
        plan = FaultPlan()
        plan.inject("serving.shard", trigger=always(), times=2)
        assert self._flag_pattern(plan, 4) == [True, True, False, False]

    def test_match_fires_on_context(self):
        plan = FaultPlan()
        plan.inject("serving.shard", trigger=match(shard="shard-1"), times=None)
        with plan.armed():
            assert not injection.fire("serving.shard", shard="shard-0")
            assert injection.fire("serving.shard", shard="shard-1")
            assert not injection.fire("serving.shard")  # key absent: no match

    def test_probability_is_seed_reproducible(self):
        def pattern(seed):
            plan = FaultPlan(seed=seed)
            plan.inject("serving.shard", trigger=probability(0.5), times=None)
            return self._flag_pattern(plan, 64)

        assert pattern(7) == pattern(7)
        assert any(pattern(7)) and not all(pattern(7))
        assert pattern(7) != pattern(8)  # different seed, different chaos

    def test_scripting_validation(self):
        plan = FaultPlan()
        with pytest.raises(ConfigurationError, match="n >= 1"):
            nth_call(0)
        with pytest.raises(ConfigurationError, match="p in"):
            probability(1.5)
        with pytest.raises(ConfigurationError, match="key=value"):
            match()
        with pytest.raises(ConfigurationError, match="kill= excludes"):
            plan.inject("shard.worker", kill=True, error=ValueError("x"))
        with pytest.raises(ConfigurationError, match="either error= or stall_s="):
            plan.inject("shard.worker", error=ValueError("x"), stall_s=1.0)
        with pytest.raises(ConfigurationError, match="stall_s must be positive"):
            plan.inject("shard.worker", stall_s=0.0)
        with pytest.raises(ConfigurationError, match="times must be"):
            plan.inject("shard.worker", times=0)

    def test_points_and_has(self):
        plan = FaultPlan()
        plan.inject("storage.read")
        plan.inject("shard.worker")
        assert plan.points() == ("shard.worker", "storage.read")
        assert plan.has("storage.read") and not plan.has("serving.shard")


# ---------------------------------------------------------------------------
# arming and the fire fast path
# ---------------------------------------------------------------------------

class TestArming:
    def test_fire_is_noop_when_disarmed(self):
        assert not injection.armed()
        assert injection.fire("storage.read") is False
        assert counters.get("faults_injected") == 0

    def test_arming_is_scoped_and_restores_previous(self):
        outer, inner = FaultPlan(), FaultPlan()
        with injection.arming(outer):
            assert injection.active_plan() is outer
            with injection.arming(inner):
                assert injection.active_plan() is inner
            assert injection.active_plan() is outer
        assert injection.active_plan() is None

    def test_armed_for_reports_scripted_points(self):
        plan = FaultPlan()
        plan.inject("storage.read")
        with plan.armed():
            assert injection.armed_for("storage.read")
            assert not injection.armed_for("shard.worker")

    def test_default_error_raised_and_counted(self):
        plan = FaultPlan()
        plan.inject("storage.read", trigger=nth_call(1))
        with plan.armed():
            with pytest.raises(OSError) as info:
                injection.fire("storage.read", path="x")
            assert info.value.errno == errno.EIO
            assert injection.fire("storage.read", path="x") is False  # budget spent
        assert plan.injected == 1
        assert counters.get("faults_injected") == 1

    def test_record_detection_requires_scripted_point(self):
        plan = FaultPlan()
        with plan.armed():
            assert injection.record_detection("shard.worker", 3) is False
        plan.inject("shard.worker", kill=True)
        with plan.armed():
            assert injection.record_detection("shard.worker", 3) is True
        assert plan.injected == 3 and plan.detected == 3
        assert counters.get("faults_injected") == 3
        assert injection.record_detection("shard.worker") is False  # disarmed


# ---------------------------------------------------------------------------
# supervised fork pool
# ---------------------------------------------------------------------------

def _triple(x):
    return 3 * x


@needs_fork
class TestSupervisedPool:
    def test_map_returns_results_in_task_order(self):
        with SupervisedPool(2) as pool:
            assert pool.map(_triple, range(6)) == [0, 3, 6, 9, 12, 15]

    def test_task_error_is_retried_and_recovered(self):
        plan = FaultPlan()
        plan.inject("shard.worker", trigger=match(task=1, attempt=0), times=None,
                    error=lambda: RuntimeError("injected task failure"))
        with plan.armed(), SupervisedPool(2, retries=2, backoff_s=0.01) as pool:
            assert pool.map(_triple, range(4)) == [0, 3, 6, 9]
        # The error fired in the child; the parent ledger counts it at
        # detection time and the successful retry as a recovery.
        assert plan.detected == 1
        assert counters.get("faults_injected") == 1
        assert counters.get("faults_recovered") == 1

    def test_killed_worker_is_detected_and_retried(self):
        plan = FaultPlan()
        plan.inject("shard.worker", kill=True, trigger=match(task=0, attempt=0), times=None)
        with plan.armed(), SupervisedPool(
            2, retries=2, task_timeout=2.0, backoff_s=0.01
        ) as pool:
            assert pool.map(_triple, range(4)) == [0, 3, 6, 9]
        assert plan.detected >= 1
        assert counters.get("faults_recovered") >= 1

    def test_stalled_worker_is_detected_and_retried(self):
        plan = FaultPlan()
        plan.inject("shard.worker", stall_s=30.0, trigger=match(task=0, attempt=0), times=None)
        with plan.armed(), SupervisedPool(
            2, retries=1, task_timeout=0.5, backoff_s=0.01
        ) as pool:
            assert pool.map(_triple, range(3)) == [0, 3, 6]
        assert counters.get("faults_recovered") >= 1

    def test_budget_exhaustion_raises_typed_error(self):
        plan = FaultPlan()
        plan.inject("shard.worker", trigger=match(task=0), times=None,
                    error=lambda: RuntimeError("injected persistent failure"))
        with plan.armed(), SupervisedPool(2, retries=1, backoff_s=0.01) as pool:
            with pytest.raises(WorkerCrashError, match="retry budget") as info:
                pool.map(_triple, range(3))
        assert info.value.failed_tasks == (0,)
        assert info.value.attempts == 2
        # Both rounds lost task 0; both are accounted as injected.
        assert counters.get("faults_injected") == 2
        assert counters.get("faults_recovered") == 0


# ---------------------------------------------------------------------------
# shared-slab lifetime + bit-identical degradation
# ---------------------------------------------------------------------------

def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except (FileNotFoundError, NotADirectoryError):  # pragma: no cover - non-tmpfs hosts
        return None


def _prepared(n=192, seed=0, **overrides):
    matrix = make_gaussian_kernel_matrix(n=n, d=3, bandwidth=1.5, seed=seed)
    config = GOFMMConfig(**{
        "leaf_size": 32, "max_rank": 16, "tolerance": 1e-6, "neighbors": 8,
        "budget": 0.2, "num_neighbor_trees": 3, "distance": DistanceMetric.KERNEL,
        "seed": seed, **overrides,
    })
    distance = make_distance(matrix, config.distance)
    rng = np.random.default_rng(seed)
    neighbors = all_nearest_neighbors(distance, config, rng=rng)
    tree = build_tree(matrix.n, config, distance, rng=rng)
    build_node_neighbor_lists(tree, neighbors, rng=rng)
    return matrix, config, tree, neighbors


class TestSharedSlabLifetime:
    def test_context_manager_closes_and_unlinks(self):
        before = _shm_entries()
        with SharedSlab((4, 4), np.float64) as slab:
            slab.array[:] = 7.0
            assert slab.array.sum() == 112.0
        with pytest.raises(ValueError, match="closed"):
            slab.array
        if before is not None:
            assert _shm_entries() <= before

    @needs_fork
    def test_failed_sharded_compression_leaks_no_segment_and_matches_in_process(self):
        m1, c1, t1, n1 = _prepared()
        m2, c2, t2, n2 = _prepared()
        c2 = c2.replace(compression_workers=2, shard_retries=0, shard_task_timeout_s=1.0)
        plan = FaultPlan()
        plan.inject("shard.worker", kill=True, trigger=always(), times=None)

        before = _shm_entries()
        s1 = skeletonize_tree(t1, m1, c1, n1, rng=np.random.default_rng(9))
        with plan.armed():
            s2 = skeletonize_tree(t2, m2, c2, n2, rng=np.random.default_rng(9))
        if before is not None:
            assert _shm_entries() <= before  # every slab closed and unlinked

        # Degraded run: bit-identical to the in-process sweep, fully counted.
        for a, b in zip(t1.nodes, t2.nodes):
            assert a.skeleton_rank == b.skeleton_rank
            if a.skeleton is not None:
                assert np.array_equal(a.skeleton, b.skeleton)
                assert np.array_equal(a.coeffs, b.coeffs)
        assert s1.ranks == s2.ranks
        assert counters.get("faults_degraded") == 1
        assert plan.detected >= 1

    @needs_fork
    def test_failed_forked_neighbors_degrade_bitwise_to_serial(self):
        matrix = make_gaussian_kernel_matrix(n=192, d=3, bandwidth=1.5, seed=1)
        config = GOFMMConfig(
            leaf_size=32, max_rank=16, neighbors=8, budget=0.2, num_neighbor_trees=3,
            distance=DistanceMetric.KERNEL, seed=1,
            neighbor_workers=2, shard_retries=0,
        )
        distance = make_distance(matrix, config.distance)
        plan = FaultPlan()
        plan.inject("shard.worker", trigger=always(), times=None,
                    error=lambda: RuntimeError("injected shard failure"))

        before = _shm_entries()
        with plan.armed():
            faulty = all_nearest_neighbors(distance, config, np.random.default_rng(5))
        healthy = all_nearest_neighbors(
            distance, config.replace(neighbor_workers=1), np.random.default_rng(5)
        )
        if before is not None:
            assert _shm_entries() <= before

        assert np.array_equal(faulty.indices, healthy.indices)
        assert np.array_equal(faulty.distances, healthy.distances)
        assert faulty.iterations == healthy.iterations
        assert faulty.converged == healthy.converged
        assert counters.get("faults_degraded") == 1

    @needs_fork
    def test_healthy_sharded_run_leaks_no_segment(self):
        m, c, t, n = _prepared()
        c = c.replace(compression_workers=2)
        before = _shm_entries()
        skeletonize_tree(t, m, c, n, rng=np.random.default_rng(9))
        if before is not None:
            assert _shm_entries() <= before

    @needs_fork
    def test_shard_side_compression_error_surfaces_after_one_attempt(self, monkeypatch):
        """A typed error raised by the task body is the input's, not a fault.

        Zero off-diagonal blocks under ``secure_accuracy`` are rank deficient
        in every process, so the fan-out must re-raise after the first
        attempt: no pool re-fork, no degrade, no fault counter touched.
        """
        identity = DenseSPD(np.eye(256))
        config = GOFMMConfig(
            leaf_size=16, max_rank=8, tolerance=1e-3, budget=0.0,
            distance=DistanceMetric.LEXICOGRAPHIC, secure_accuracy=True,
            compression_workers=2, shard_retries=2,
        )
        tree = build_tree(256, config, distance=None)
        forks = []
        fork_pool = sharding.fork_pool
        monkeypatch.setattr(
            sharding, "fork_pool", lambda workers: forks.append(workers) or fork_pool(workers)
        )
        before = _shm_entries()
        with pytest.raises(RankDeficiencyError):
            skeletonize_tree(tree, identity, config, None)
        assert forks == [2]
        for name in ("faults_injected", "faults_recovered", "faults_degraded"):
            assert counters.get(name) == 0
        if before is not None:
            assert _shm_entries() <= before

"""Unit tests for deterministic fault injection.

The contracts under test:

* the fault-point registry validates like the other registries
  (register / duplicate / unknown / unregister),
* triggers are pure, seeded, and reproducible — two identical plans make
  identical fire/skip decisions,
* ``fire`` is a no-op unless a plan is armed, and arming is scoped.
"""

import errno

import pytest

from repro import ConfigurationError
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
from repro.obs import counters


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
        assert "storage.read" in available_fault_points()
        assert is_registered("storage.read")

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

    @pytest.mark.parametrize("point", ["serving.shard", "shard.worker"])
    def test_retired_points_are_gone(self, point):
        # each point left with the component it was the seam of
        assert not is_registered(point)
        with pytest.raises(ConfigurationError, match="registered points"):
            FaultPlan().inject(point)


# ---------------------------------------------------------------------------
# triggers and scripting
# ---------------------------------------------------------------------------

class TestTriggers:
    @pytest.fixture(autouse=True)
    def _flag_point(self):
        # A point without a default error: an actionless inject is a flag —
        # fire() returns the trigger decision without raising.
        register_point("test.flag", description="flag point for the trigger tests")
        yield
        unregister_point("test.flag")

    def _flag_pattern(self, plan, calls, **ctx):
        with plan.armed():
            return [injection.fire("test.flag", **ctx) for _ in range(calls)]

    def test_nth_call_fires_exactly_once(self):
        plan = FaultPlan()
        plan.inject("test.flag", trigger=nth_call(3))
        assert self._flag_pattern(plan, 5) == [False, False, True, False, False]

    def test_first_n_fires_on_the_first_calls(self):
        plan = FaultPlan()
        plan.inject("test.flag", trigger=first_n(2), times=None)
        assert self._flag_pattern(plan, 4) == [True, True, False, False]

    def test_times_bounds_always(self):
        plan = FaultPlan()
        plan.inject("test.flag", trigger=always(), times=2)
        assert self._flag_pattern(plan, 4) == [True, True, False, False]

    def test_match_fires_on_context(self):
        plan = FaultPlan()
        plan.inject("test.flag", trigger=match(shard="shard-1"), times=None)
        with plan.armed():
            assert not injection.fire("test.flag", shard="shard-0")
            assert injection.fire("test.flag", shard="shard-1")
            assert not injection.fire("test.flag")  # key absent: no match

    def test_probability_is_seed_reproducible(self):
        def pattern(seed):
            plan = FaultPlan(seed=seed)
            plan.inject("test.flag", trigger=probability(0.5), times=None)
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
        with pytest.raises(ConfigurationError, match="either error= or stall_s="):
            plan.inject("test.flag", error=ValueError("x"), stall_s=1.0)
        with pytest.raises(ConfigurationError, match="stall_s must be positive"):
            plan.inject("test.flag", stall_s=0.0)
        with pytest.raises(ConfigurationError, match="times must be"):
            plan.inject("test.flag", times=0)
        with pytest.raises(TypeError, match="kill"):
            plan.inject("test.flag", kill=True)  # compression runs on threads: nothing to kill

    def test_points_and_has(self):
        plan = FaultPlan()
        plan.inject("storage.read")
        plan.inject("test.flag")
        assert plan.points() == ("storage.read", "test.flag")
        assert plan.has("storage.read") and not plan.has("test.custom")


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
            assert not injection.armed_for("test.custom")

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

"""Deterministic fault injection + the supervision seams that survive it.

Two halves:

* :mod:`repro.faults.plan` — the fault-point registry (``shard.worker``,
  ``storage.read``), trigger schedules
  (:func:`nth_call`, :func:`probability`, :func:`match`, …) and the seeded
  :class:`FaultPlan` scripting what breaks when.
* :mod:`repro.faults.injection` — the process-global arming state and the
  :func:`~repro.faults.injection.fire` fast path the pipeline seams call
  (one ``None`` check when no plan is armed).

The point of injecting faults is proving the supervision around them:
the :class:`~repro.core.sharding.SupervisedPool` retries killed shard
tasks and degrades sharded stages to their single-process equivalents
bit-identically and store reads retry transient I/O errors — all of it
counted in
``faults_injected`` / ``faults_recovered`` / ``faults_degraded``
(:mod:`repro.obs.counters`) and exercised end-to-end by
``tests/integration/test_chaos.py``.
"""

from .injection import (
    active_plan,
    arm,
    armed,
    armed_for,
    arming,
    disarm,
    fire,
    record_detection,
)
from .plan import (
    FaultPlan,
    FaultPointSpec,
    FaultSpec,
    always,
    available_fault_points,
    first_n,
    get_fault_point,
    is_registered,
    match,
    nth_call,
    probability,
    register_point,
    unregister_point,
)

__all__ = [
    "FaultPlan",
    "FaultPointSpec",
    "FaultSpec",
    "always",
    "nth_call",
    "first_n",
    "probability",
    "match",
    "register_point",
    "unregister_point",
    "get_fault_point",
    "available_fault_points",
    "is_registered",
    "fire",
    "arm",
    "disarm",
    "arming",
    "armed",
    "armed_for",
    "active_plan",
    "record_detection",
]

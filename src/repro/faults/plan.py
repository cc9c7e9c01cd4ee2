"""Deterministic fault plans: what to break, where, and on which call.

A :class:`FaultPlan` is a seeded script of failures against named *fault
points* — seams the pipeline code declares once (the registry below)
and fires through :func:`repro.faults.injection.fire` on every pass.
With no plan armed a fire is a single module-global ``None`` check (the
:mod:`repro.obs.trace` fast-path idiom); with a plan armed, each
registered :class:`FaultSpec`
consults its trigger schedule and acts:

``error``  raise the configured exception at the fault point,
``kill``   ``os._exit`` the current process (a fork-pool worker vanishing
           mid-task, exactly what the OOM killer looks like),
``stall``  sleep ``stall_s`` seconds (a wedged worker / device),
``flag``   return ``True`` from ``fire`` and let the seam act (the
           action of a point registered without a ``default_error``
           when ``inject`` names no other).

Triggers are pure functions of ``(call_count, ctx, rng)`` — reproducible
chaos: :func:`nth_call`, :func:`first_n`, :func:`always`,
:func:`probability` (seeded per spec from the plan seed), and
:func:`match` (fire when the seam's context matches, e.g.
``match(task=0, attempt=0)`` kills exactly the first attempt of shard
task 0).  ``times`` bounds how often a spec fires in the process that
evaluates it; state mutated inside a forked worker stays in that worker.

Built-in fault points::

    shard.worker    entry of every supervised fork-pool shard task
    storage.read    store manifest / array reads (read_array_dir)
"""

from __future__ import annotations

import errno
import os
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..errors import ConfigurationError
from ..obs import get_logger

__all__ = [
    "FaultPointSpec",
    "register_point",
    "unregister_point",
    "get_fault_point",
    "available_fault_points",
    "is_registered",
    "FaultSpec",
    "FaultPlan",
    "always",
    "nth_call",
    "first_n",
    "probability",
    "match",
]

_LOG = get_logger("faults")

# A trigger: (call_count, ctx, rng) -> bool.  call_count is 1-based.
TriggerFn = Callable[[int, dict, np.random.Generator], bool]


# ---------------------------------------------------------------------------
# fault-point registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultPointSpec:
    """One registered fault point: a named seam the pipeline fires through.

    ``default_error`` builds the exception an ``inject(point)`` with no
    explicit action raises — e.g. ``storage.read`` defaults to EIO so a
    plan can say "the device glitches here" without spelling out the errno.
    """

    name: str
    description: str = ""
    default_error: Optional[Callable[[], BaseException]] = field(default=None, repr=False)


_REGISTRY: Dict[str, FaultPointSpec] = {}


def register_point(
    name: str,
    *,
    description: str = "",
    default_error: Optional[Callable[[], BaseException]] = None,
    overwrite: bool = False,
) -> FaultPointSpec:
    """Register a fault point under ``name`` and return its spec."""
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"fault point name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(
            f"fault point {name!r} is already registered (pass overwrite=True to replace)"
        )
    spec = FaultPointSpec(name=name, description=description, default_error=default_error)
    _REGISTRY[name] = spec
    return spec


def unregister_point(name: str) -> None:
    """Remove a registered fault point (built-ins may be removed too; tests use this)."""
    if name not in _REGISTRY:
        raise ConfigurationError(f"fault point {name!r} is not registered")
    del _REGISTRY[name]


def get_fault_point(name: str) -> FaultPointSpec:
    """Look up a fault point by name; raises with the list of known points."""
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(f"unknown fault point {name!r}; registered points: {known}")
    return spec


def available_fault_points() -> tuple:
    """Names of all registered fault points, sorted."""
    return tuple(sorted(_REGISTRY))


def is_registered(name: str) -> bool:
    return name in _REGISTRY


# ---------------------------------------------------------------------------
# triggers
# ---------------------------------------------------------------------------

def always() -> TriggerFn:
    """Fire on every call (bounded only by the spec's ``times``)."""
    return lambda count, ctx, rng: True


def nth_call(n: int) -> TriggerFn:
    """Fire on exactly the ``n``-th call of the fault point (1-based)."""
    if n < 1:
        raise ConfigurationError(f"nth_call requires n >= 1, got {n}")
    return lambda count, ctx, rng: count == n


def first_n(n: int) -> TriggerFn:
    """Fire on each of the first ``n`` calls."""
    if n < 0:
        raise ConfigurationError(f"first_n requires n >= 0, got {n}")
    return lambda count, ctx, rng: count <= n


def probability(p: float) -> TriggerFn:
    """Fire with probability ``p`` per call, from the spec's seeded stream.

    The stream is derived from ``(plan seed, point name, spec index)``, so
    two runs of the same plan make identical fire/skip decisions.
    """
    if not (0.0 <= p <= 1.0):
        raise ConfigurationError(f"probability requires p in [0, 1], got {p}")
    return lambda count, ctx, rng: bool(rng.random() < p)


def match(**expected) -> TriggerFn:
    """Fire when every ``key=value`` matches the seam's call context.

    Seams pass identifying context to ``fire`` (e.g. the supervised pool
    passes ``task=<key>, attempt=<n>``); ``match(task=0, attempt=0)``
    kills exactly the first attempt of shard task 0 and nothing else.
    """
    if not expected:
        raise ConfigurationError("match() requires at least one key=value to match on")
    return lambda count, ctx, rng: all(ctx.get(k) == v for k, v in expected.items())


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------

_ACTIONS = ("error", "kill", "stall", "flag")


class FaultSpec:
    """One scripted failure: a fault point, a trigger, an action, a budget."""

    __slots__ = ("point", "trigger", "times", "action", "error", "stall_s", "calls", "fired", "_rng")

    def __init__(
        self,
        point: str,
        trigger: TriggerFn,
        times: Optional[int],
        action: str,
        error: Optional[BaseException | Callable[[], BaseException]],
        stall_s: float,
        rng: np.random.Generator,
    ) -> None:
        self.point = point
        self.trigger = trigger
        self.times = times
        self.action = action
        self.error = error
        self.stall_s = float(stall_s)
        self.calls = 0
        self.fired = 0
        self._rng = rng

    def _make_error(self) -> BaseException:
        if callable(self.error):
            return self.error()
        return self.error

    def evaluate(self, ctx: dict) -> bool:
        """Advance this spec by one call; ``True`` when it should fire."""
        self.calls += 1
        if self.times is not None and self.fired >= self.times:
            return False
        if not self.trigger(self.calls, ctx, self._rng):
            return False
        self.fired += 1
        return True


class FaultPlan:
    """A seeded script of failures to inject while the plan is armed.

    Build the plan, script it with :meth:`inject`, then run the workload
    under :meth:`armed` (a context manager that installs the plan as the
    process-global active plan and always disarms on exit)::

        plan = FaultPlan(seed=7)
        plan.inject("shard.worker", kill=True, trigger=match(task=0, attempt=0))
        plan.inject("storage.read", trigger=nth_call(1))
        with plan.armed():
            run_pipeline()

    Every parent-side fire increments the ``faults_injected`` counter (and
    the plan's own :attr:`injected` ledger); kills inside forked workers
    are counted at *detection* time by the supervisor (the increment made
    in the doomed child dies with it), so the counter ledger balances:
    ``faults_recovered + faults_degraded == faults_injected`` for a plan
    whose every fault is survived.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._specs: Dict[str, List[FaultSpec]] = {}
        self._lock = threading.Lock()
        self.injected = 0
        self.detected = 0

    # -- scripting ----------------------------------------------------------
    def inject(
        self,
        point: str,
        *,
        trigger: Optional[TriggerFn] = None,
        times: Optional[int] = 1,
        error: Optional[BaseException | Callable[[], BaseException]] = None,
        kill: bool = False,
        stall_s: Optional[float] = None,
    ) -> FaultSpec:
        """Script one failure at ``point``; returns the spec (for its counters).

        Exactly one action applies: ``kill=True`` exits the process,
        ``stall_s`` sleeps, ``error`` raises (an exception instance or a
        zero-arg factory).  With none given, the point's registered
        ``default_error`` is raised; a point without one becomes a *flag* —
        ``fire`` returns ``True`` and the seam acts.
        ``times`` bounds total fires (``None`` = unlimited);
        ``trigger`` defaults to :func:`always`.
        """
        spec_point = get_fault_point(point)
        if kill and (error is not None or stall_s is not None):
            raise ConfigurationError(f"inject({point!r}): kill= excludes error= and stall_s=")
        if error is not None and stall_s is not None:
            raise ConfigurationError(f"inject({point!r}): pass either error= or stall_s=, not both")
        if times is not None and times < 1:
            raise ConfigurationError(f"inject({point!r}): times must be >= 1 or None, got {times}")
        if kill:
            action = "kill"
        elif stall_s is not None:
            if stall_s <= 0:
                raise ConfigurationError(f"inject({point!r}): stall_s must be positive, got {stall_s}")
            action = "stall"
        elif error is not None:
            action = "error"
        elif spec_point.default_error is not None:
            action, error = "error", spec_point.default_error
        else:
            action = "flag"
        with self._lock:
            index = sum(len(specs) for specs in self._specs.values())
            rng = np.random.default_rng([self.seed, zlib.crc32(point.encode()), index])
            spec = FaultSpec(point, trigger or always(), times, action, error, stall_s or 0.0, rng)
            self._specs.setdefault(point, []).append(spec)
        return spec

    def has(self, point: str) -> bool:
        """Whether any failure is scripted at ``point``."""
        return bool(self._specs.get(point))

    def points(self) -> tuple:
        """Fault points this plan scripts, sorted."""
        return tuple(sorted(p for p, specs in self._specs.items() if specs))

    # -- firing (called via repro.faults.injection) -------------------------
    def fire(self, point: str, **ctx) -> bool:
        """Evaluate every spec at ``point``; act on the ones that trigger.

        Returns ``True`` iff a *flag*-action spec fired (the seam then
        performs the failure itself).  ``error`` raises, ``kill`` never
        returns, ``stall`` sleeps then continues evaluating.
        """
        from ..obs import counters as _obs_counters

        specs = self._specs.get(point)
        if not specs:
            return False
        flagged = False
        for spec in specs:
            with self._lock:
                triggered = spec.evaluate(ctx)
                if triggered:
                    self.injected += 1
            if not triggered:
                continue
            _obs_counters.add("faults_injected")
            _LOG.warning("fault plan firing %s at %s (ctx=%s)", spec.action, point, ctx)
            if spec.action == "kill":
                os._exit(17)
            elif spec.action == "stall":
                time.sleep(spec.stall_s)
            elif spec.action == "error":
                raise spec._make_error()
            else:
                flagged = True
        return flagged

    def record_detection(self, point: str, count: int = 1) -> bool:
        """Account for faults that fired in a now-dead child process.

        A ``kill`` inside a forked worker increments counters in the
        child's copy-on-write memory, which dies with it; the supervisor
        calls this when it *detects* the loss, so the parent's
        ``faults_injected`` ledger still balances.  No-op (returns
        ``False``) when the plan scripts nothing at ``point``.
        """
        from ..obs import counters as _obs_counters

        if not self.has(point):
            return False
        with self._lock:
            self.detected += int(count)
            self.injected += int(count)
        _obs_counters.add("faults_injected", int(count))
        return True

    # -- arming -------------------------------------------------------------
    def armed(self):
        """Context manager: install as the active plan, disarm on exit."""
        from . import injection

        return injection.arming(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        scripted = {p: len(s) for p, s in self._specs.items()}
        return f"<FaultPlan seed={self.seed} specs={scripted} injected={self.injected}>"


# ---------------------------------------------------------------------------
# built-in fault points
# ---------------------------------------------------------------------------

register_point(
    "shard.worker",
    description="entry of every supervised fork-pool shard task (kill/stall/error a worker)",
)
register_point(
    "storage.read",
    description="operator-store manifest and array reads (transient I/O errors)",
    default_error=lambda: OSError(errno.EIO, "injected transient I/O error"),
)

"""The process-global armed plan and the zero-cost ``fire`` fast path.

Pipeline seams call :func:`fire` unconditionally on their hot paths::

    from ..faults import injection as _faults
    ...
    _faults.fire("storage.read", path=manifest_path)

With no plan armed (the production state) that is one module-global load
plus a ``None`` check — the same disabled-cost discipline as
``obs/trace.py``'s ``get_tracer().enabled``, and covered by the same ≤3%
planned-matvec overhead guard in the obs tests.  Arming is explicit and
scoped (:func:`arming` / ``FaultPlan.armed()``), so chaos never leaks
past the ``with`` block that requested it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .plan import FaultPlan

__all__ = [
    "fire",
    "arm",
    "disarm",
    "arming",
    "active_plan",
    "armed",
    "armed_for",
]

#: The active plan; ``None`` is the production fast path.
_PLAN: Optional[FaultPlan] = None


def fire(point: str, **ctx) -> bool:
    """Fire fault point ``point``; a no-op ``False`` when no plan is armed.

    With a plan armed, delegates to :meth:`FaultPlan.fire`: may raise the
    scripted error, stall, or return ``True`` for
    flag-style points whose seam performs the failure itself.
    """
    plan = _PLAN
    if plan is None:
        return False
    return plan.fire(point, **ctx)


def arm(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` as the process-global active plan (replaces any)."""
    global _PLAN
    _PLAN = plan
    return plan


def disarm() -> None:
    """Remove the active plan; ``fire`` returns to the no-op fast path."""
    global _PLAN
    _PLAN = None


@contextmanager
def arming(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scoped arming: install ``plan``, restore the previous plan on exit."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous


def active_plan() -> Optional[FaultPlan]:
    """The armed plan, or ``None``."""
    return _PLAN


def armed() -> bool:
    """Whether any plan is armed."""
    return _PLAN is not None


def armed_for(point: str) -> bool:
    """Whether the armed plan scripts faults at ``point``."""
    plan = _PLAN
    return plan is not None and plan.has(point)

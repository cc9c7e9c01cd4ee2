"""Tasks and task graphs.

A :class:`Task` is one per-node unit of work from Table 2 (``SPLI``, ``ANN``,
``SKEL``, ``COEF``, ``Kba``, ``SKba``, ``N2S``, ``S2S``, ``S2N``, ``L2L``).
A :class:`TaskGraph` is the dependency DAG over those tasks, built by the
symbolic traversals in :mod:`repro.runtime.dag`.  The graph supports the
queries every scheduler needs — ready sets, critical path, total work — and
validates acyclicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..errors import SchedulingError

__all__ = ["Task", "TaskGraph"]


@dataclass
class Task:
    """One schedulable unit of work.

    Attributes
    ----------
    task_id:
        unique string identifier, conventionally ``"<KIND>:<node_id>"``.
    kind:
        task family name from Table 2 (``"N2S"``, ``"SKEL"``, …).
    node_id:
        tree node the task operates on.
    level:
        tree level of that node (used by the level-by-level scheduler's
        barriers).
    flops:
        estimated floating point operations (Table 2 cost model).
    memory_bound:
        whether the task's runtime is governed by memory traffic rather than
        FLOPS (e.g. ``SPLI``, ``ANN``, permutation-heavy work).
    gpu_eligible:
        whether a GPU worker may execute the task (the paper offloads only
        the large GEMM-like evaluation tasks, chiefly ``L2L``).

    The threaded executor takes the callables it runs separately, keyed by
    ``task_id`` (:meth:`repro.runtime.executor.WorkerPool.run`).
    """

    task_id: str
    kind: str
    node_id: int
    level: int = 0
    flops: float = 0.0
    bytes_moved: float = 0.0
    memory_bound: bool = False
    gpu_eligible: bool = False

    def __hash__(self) -> int:
        return hash(self.task_id)


class TaskGraph:
    """Directed acyclic graph of tasks with read-after-write dependencies."""

    def __init__(self) -> None:
        self.tasks: dict[str, Task] = {}
        self._successors: dict[str, set[str]] = {}
        self._predecessors: dict[str, set[str]] = {}

    # -- construction ------------------------------------------------------
    def add_task(self, task: Task) -> Task:
        if task.task_id in self.tasks:
            raise SchedulingError(f"duplicate task id {task.task_id!r}")
        self.tasks[task.task_id] = task
        self._successors[task.task_id] = set()
        self._predecessors[task.task_id] = set()
        return task

    def add_dependency(self, before: str, after: str) -> None:
        """Declare that ``after`` reads data written by ``before`` (RAW edge)."""
        if before not in self.tasks or after not in self.tasks:
            raise SchedulingError(f"unknown task in dependency {before!r} -> {after!r}")
        if before == after:
            raise SchedulingError(f"task {before!r} cannot depend on itself")
        self._successors[before].add(after)
        self._predecessors[after].add(before)

    # -- queries ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self.tasks

    def successors(self, task_id: str) -> set[str]:
        return self._successors[task_id]

    def predecessors(self, task_id: str) -> set[str]:
        return self._predecessors[task_id]

    def roots(self) -> list[str]:
        """Tasks with no predecessors (initially ready)."""
        return [tid for tid, preds in self._predecessors.items() if not preds]

    def total_flops(self) -> float:
        return sum(task.flops for task in self.tasks.values())

    def kinds(self) -> set[str]:
        return {task.kind for task in self.tasks.values()}

    def tasks_of_kind(self, kind: str) -> list[Task]:
        return [task for task in self.tasks.values() if task.kind == kind]

    # -- structural algorithms ---------------------------------------------
    def topological_order(self) -> list[str]:
        """Kahn's algorithm; raises :class:`SchedulingError` if a cycle exists."""
        in_degree = {tid: len(preds) for tid, preds in self._predecessors.items()}
        frontier = [tid for tid, deg in in_degree.items() if deg == 0]
        order: list[str] = []
        while frontier:
            tid = frontier.pop()
            order.append(tid)
            for succ in self._successors[tid]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    frontier.append(succ)
        if len(order) != len(self.tasks):
            raise SchedulingError("task graph contains a cycle")
        return order

    def validate(self) -> None:
        """Raise if the graph is not a DAG."""
        self.topological_order()

    def critical_path_time(self, time_fn: Callable[[Task], float]) -> float:
        """Length of the longest path under the given per-task time function.

        No schedule on any number of workers can finish faster than this;
        the schedulers' tests assert that invariant.
        """
        order = self.topological_order()
        finish: dict[str, float] = {}
        for tid in order:
            task = self.tasks[tid]
            earliest = max((finish[p] for p in self._predecessors[tid]), default=0.0)
            finish[tid] = earliest + max(time_fn(task), 0.0)
        return max(finish.values(), default=0.0)

    def subset(self, kinds: Iterable[str]) -> "TaskGraph":
        """New graph containing only tasks of the given kinds, with transitive edges dropped.

        Used to schedule the compression and evaluation phases separately.
        """
        kinds = set(kinds)
        out = TaskGraph()
        for task in self.tasks.values():
            if task.kind in kinds:
                out.add_task(task)
        for tid, succs in self._successors.items():
            if tid not in out.tasks:
                continue
            for succ in succs:
                if succ in out.tasks:
                    out.add_dependency(tid, succ)
        return out

"""Task-based runtime substrate (§2.3).

The paper replaces level-by-level tree traversals with out-of-order task
scheduling: every per-node computation (Table 2) becomes a task, a
dependency DAG is built by symbolic traversal, and a lightweight dynamic
HEFT scheduler with job stealing dispatches tasks to workers — including
heterogeneous ones (a GPU worker that is far faster on FLOP-heavy tasks).

This subpackage reproduces that machinery in two complementary forms:

* a **real executor** (:mod:`repro.runtime.executor`): a persistent
  worker pool that runs task graphs honoring their edges — the evaluation
  plan pipelines its block materialization on it — and
* a **scheduler simulator** (:mod:`repro.runtime.schedulers` +
  :mod:`repro.runtime.machine`) that replays the same DAG against analytic
  machine models (Haswell, KNL, ARM, Haswell+P100) with the Table 2 cost
  model — this regenerates the strong-scaling study (Figure 4) and the
  architecture study (Table 5) without the original hardware.
"""

from .task import Task, TaskGraph
from .costs import CostModel
from .machine import MachineModel, Worker, arm_4, haswell_24, haswell_p100, knl_68, scaled_machine
from .dag import build_compression_dag, build_evaluation_dag
from .schedulers import (
    HEFTScheduler,
    LevelByLevelScheduler,
    OmpTaskScheduler,
    ScheduleResult,
    simulate_all_schedulers,
)
from .executor import WorkerPool, parallel_evaluate, run_task_graph

__all__ = [
    "Task",
    "TaskGraph",
    "CostModel",
    "MachineModel",
    "Worker",
    "haswell_24",
    "knl_68",
    "arm_4",
    "haswell_p100",
    "scaled_machine",
    "build_compression_dag",
    "build_evaluation_dag",
    "LevelByLevelScheduler",
    "OmpTaskScheduler",
    "HEFTScheduler",
    "ScheduleResult",
    "simulate_all_schedulers",
    "parallel_evaluate",
    "run_task_graph",
    "WorkerPool",
]

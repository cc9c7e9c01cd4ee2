"""Staged compression sessions: the user-facing pipeline API.

This package redesigns the top-level GOFMM entry points around explicit,
reusable pipeline artifacts:

* :class:`Session` — owns the pipeline stages (partition → ANN → interaction
  lists → skeletons → near blocks → far blocks → plan) as individually
  cached artifacts and rebuilds only what a config change invalidates
  (``recompress``), or shares the matrix-light artifacts across a family of
  operators (``attach``),
* :class:`CompressedOperator` — the result: a
  ``scipy.sparse.linalg.LinearOperator`` that works directly with
  ``scipy.sparse.linalg.cg`` / ``gmres`` / ``lobpcg`` and carries
  ``solve`` / ``relative_error`` / report accessors,
* :mod:`repro.api.stages` — the artifact classes plus the stage → config-field
  dependency tables (:data:`STAGE_FIELDS`, :func:`invalidated_stages`).

The legacy one-shot helpers (``repro.gofmm.compress`` / ``run`` /
``compare_fmm_hss``) are thin wrappers over sessions and remain fully
supported.
"""

from .operator import CompressedOperator
from .session import Session
from .stages import (
    STAGE_FIELDS,
    STAGE_ORDER,
    STAGE_UPSTREAM,
    FarBlocks,
    Interactions,
    NearBlocks,
    Neighbors,
    Partition,
    Plan,
    Skeletons,
    changed_fields,
    invalidated_stages,
)

__all__ = [
    "Session",
    "CompressedOperator",
    "Partition",
    "Neighbors",
    "Interactions",
    "Skeletons",
    "NearBlocks",
    "FarBlocks",
    "Plan",
    "STAGE_ORDER",
    "STAGE_FIELDS",
    "STAGE_UPSTREAM",
    "changed_fields",
    "invalidated_stages",
]

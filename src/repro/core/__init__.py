"""Core GOFMM algorithm: distances, metric tree, interaction lists, skeletonization, evaluation.

The top-level user API lives in :mod:`repro.gofmm`; this subpackage holds the
algorithmic pieces in the order the paper presents them:

* :mod:`repro.core.distances` — the three distance measures of §2.1
  (geometric ℓ2, Gram ℓ2 "kernel", Gram angle) plus the two reference
  orderings (lexicographic, random),
* :mod:`repro.core.morton` — Morton IDs (root-to-node path codes),
* :mod:`repro.core.tree` — the balanced binary metric ball tree and
  Algorithm 2.1 ``metricSplit``,
* :mod:`repro.core.neighbors` — iterative randomized-projection-tree
  all-nearest-neighbor search,
* :mod:`repro.core.interactions` — neighbor / Near / Far lists
  (Algorithms 2.3–2.5) with the ``budget`` cap,
* :mod:`repro.core.skeletonization` — nested interpolative decomposition
  (Algorithm 2.6, tasks SKEL / COEF) as one bottom-up level sweep of
  shape-bucketed stacked pivoted QRs, fanned out over subtrees on a
  thread pool when ``compression_workers > 1``,
* :mod:`repro.core.compress` — Algorithm 2.2 (compression driver),
* :mod:`repro.core.plan` — Algorithm 2.7 (N2S / S2S / S2N / L2L) as
  level-batched GEMM segments over a packed workspace layout,
* :mod:`repro.core.streaming` — the evaluation plan: those segments on
  cached blocks in place, the rest materialized chunk by chunk in a
  bounded workspace,
* :mod:`repro.core.hmatrix` — the compressed-matrix object, whose
  ``default_engine`` picks the plan's packing (rank-padded "planned" or
  exact "streamed") by block residency,
* :mod:`repro.core.accuracy` — the ε2 error metric.
"""

from .compress import CompressionReport, compress
from .hmatrix import CompressedMatrix
from .accuracy import relative_error

__all__ = [
    "compress",
    "CompressionReport",
    "CompressedMatrix",
    "relative_error",
]

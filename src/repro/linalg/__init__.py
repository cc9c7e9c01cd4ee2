"""Dense linear-algebra building blocks used by GOFMM and the baselines.

The public pieces are:

* :func:`repro.linalg.id.interpolative_decomposition` — column ID via a
  rank-revealing (pivoted) QR, the analogue of the paper's GEQP3 + TRSM
  skeletonization kernel,
* :func:`repro.linalg.aca.adaptive_cross_approximation` — partially pivoted
  ACA, used by the HODLR baseline,
* :mod:`repro.linalg.norms` — sampled norm estimators used by the accuracy
  metric ε2.
"""

from .id import InterpolativeDecomposition, interpolative_decomposition
from .aca import ACAResult, adaptive_cross_approximation
from .norms import relative_frobenius_error, sampled_spectral_norm

__all__ = [
    "InterpolativeDecomposition",
    "interpolative_decomposition",
    "ACAResult",
    "adaptive_cross_approximation",
    "sampled_spectral_norm",
    "relative_frobenius_error",
]

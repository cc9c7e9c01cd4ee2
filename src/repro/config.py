"""Configuration objects for GOFMM compression and evaluation.

The paper exposes five user-facing knobs (§3, "Parameter selection"):

``m``
    leaf node size of the metric ball tree (paper uses 256–512, up to 800
    for kernel matrices),
``s``
    maximum skeleton rank (paper uses ``s = m`` typically),
``tau``
    adaptive rank tolerance ``τ`` — skeletonization keeps columns until the
    estimated ``σ_{s+1}`` of the sampled block drops below ``τ``,
``kappa``
    number of nearest neighbors ``κ`` per index used for the sparse
    correction and for importance sampling,
``budget``
    fraction controlling the number of direct (dense) leaf-leaf
    evaluations: ``|Near(β)| ≤ budget · (N / m)``.  ``budget == 0`` yields a
    pure HSS/HODLR approximation (``S = 0`` in Eq. (1)); ``budget > 0``
    yields the FMM variant.

In addition the distance metric used for tree partitioning and neighbor
search is selectable (§2.1): geometric ℓ2 (needs points), Gram ℓ2
("kernel"), Gram angle, plus the two no-metric reference orderings used in
Figure 7 (lexicographic and random).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigurationError

__all__ = ["DistanceMetric", "GOFMMConfig", "default_config", "hss_config", "fmm_config"]


class DistanceMetric(str, Enum):
    """Distance measure used to permute the matrix and find neighbors.

    ``GEOMETRIC``      point-based Euclidean distance (requires coordinates),
    ``KERNEL``         Gram-space ℓ2 distance,  d²(i,j) = Kii + Kjj − 2 Kij,
    ``ANGLE``          Gram-space angle distance, d(i,j) = 1 − Kij² / (Kii Kjj),
    ``LEXICOGRAPHIC``  keep the input ordering (no metric; HSS only),
    ``RANDOM``         random permutation (no metric; HSS only).
    """

    GEOMETRIC = "geometric"
    KERNEL = "kernel"
    ANGLE = "angle"
    LEXICOGRAPHIC = "lexicographic"
    RANDOM = "random"

    @property
    def needs_coordinates(self) -> bool:
        return self is DistanceMetric.GEOMETRIC

    @property
    def defines_distance(self) -> bool:
        """Whether the metric defines pairwise distances usable for ANN/pruning."""
        return self in (DistanceMetric.GEOMETRIC, DistanceMetric.KERNEL, DistanceMetric.ANGLE)


@dataclass(frozen=True)
class GOFMMConfig:
    """All tunable parameters of a GOFMM compression.

    Parameters
    ----------
    leaf_size:
        ``m`` — maximum number of indices owned by a leaf of the metric tree.
    max_rank:
        ``s`` — cap on the skeleton size of any node.
    tolerance:
        ``τ`` — adaptive-rank tolerance on the estimated trailing singular
        value of the sampled off-diagonal block.
    neighbors:
        ``κ`` — nearest neighbors per index used for neighbor-based pruning
        and importance sampling.  Ignored when the metric defines no distance.
    budget:
        fraction in ``[0, 1]``; caps ``|Near(β)|`` at ``budget · (N/m)``
        candidate leaves (plus β itself).  ``0`` gives an HSS approximation.
    distance:
        the :class:`DistanceMetric` used for partitioning / neighbor search.
    num_neighbor_trees:
        maximum number of randomized-projection-tree iterations for the
        all-nearest-neighbor search (paper: 10).
    neighbor_accuracy_target:
        stop the iterative ANN search once the neighbor lists stop changing
        by more than ``1 - target`` (paper: 0.8).
    sample_size:
        number of off-node rows sampled when skeletonizing a node (``|I'|``).
        The effective sample is ``max(sample_size, oversampling · rank cap)``.
    oversampling:
        multiplier on the rank cap used to size the row sample.
    centroid_samples:
        ``n_c`` — number of Gram vectors averaged to form the approximate
        centroid in Algorithm 2.1.
    adaptive_rank:
        if ``False``, always use ``max_rank`` columns (no adaptive truncation).
    cache_near_blocks / cache_far_blocks:
        evaluate and store ``K_{βα}`` / ``K_{β̃α̃}`` during compression (tasks
        Kba / SKba) rather than re-evaluating them in every matvec.
    symmetrize_lists:
        enforce ``α ∈ Near(β) ⇒ β ∈ Near(α)`` (and the same for Far lists) so
        the approximation is symmetric.
    secure_accuracy:
        if ``True``, raise when a node's skeletonization falls back to an
        empty skeleton instead of silently producing a rank-0 block.
    streaming_chunk_bytes:
        workspace budget of the evaluation plan's fill chunks, in bytes —
        the blocks it does not find cached (memoryless caching, partly
        cached targets, rows a store holds in the older flat layout; see
        :mod:`repro.core.streaming`).  The plan partitions those blocks
        into chunks and pipelines their materialization against GEMM
        execution through a small set of cycling buffers (currently four,
        each sized an eighth of this budget, always holding at least one
        block); all in-flight chunk buffers *together* stay within this
        budget, so the evaluation-phase block memory is bounded regardless
        of how many interaction pairs the compression has.
    neighbor_workers:
        thread count of the ANN search (:mod:`repro.core.neighbors`):
        above 1, projection-tree iterations are fanned out in waves over a
        thread pool.  Purely an execution knob: the per-iteration seed
        schedule is drawn up front and iterations are merged in order, so
        any worker count yields the same table bit for bit — which is why
        this field enters no stage fingerprint and never invalidates
        session artifacts.
    compression_workers:
        thread count of the skeletonization level sweep
        (:mod:`repro.core.skeletonization`): above 1, whole subtrees are
        skeletonized on a thread pool.  Like ``neighbor_workers``, an
        execution knob only: per-node sampling streams and a batched ID
        whose result never depends on a block's bucket-mates make
        skeletons and coefficients bitwise worker-count independent, so
        it enters no stage fingerprint.
    plan_rank_bucketing:
        how the ``"planned"`` plan (``CompressedMatrix.plan()``) pads
        skeleton ranks so that adaptive-rank trees batch into fewer,
        larger GEMM groups (the ``"streamed"`` plan always packs exactly):
        ``"pow2"`` (default) rounds each rank up to the next power of
        two, ``"max"`` pads to the per-level maximum, ``"none"`` packs
        exact ranks.  Padding only engages when a tree's active ranks are
        actually non-uniform.
    prebuild_plan:
        build the evaluation plan during compression (phase ``"plan"`` of
        the report) instead of lazily on the first planned matvec.
    storage_read_retries:
        how many times a *transient* ``OSError`` (EIO, EAGAIN, ESTALE …)
        on a store manifest/array read is retried (with capped jittered
        backoff) before :class:`~repro.errors.StorageRetryExhaustedError`
        is raised.  Non-transient errors (missing files, corrupt data)
        fail immediately as :class:`~repro.errors.ArtifactMismatchError`.
    executor_stall_timeout:
        watchdog for the threaded executor (:mod:`repro.runtime.executor`):
        if no task of an evaluation completes within this many seconds
        while tasks are still in flight, the run is abandoned with a
        :class:`~repro.errors.SchedulingError` instead of hanging forever.
        ``None`` disables the watchdog.  Long-running server evaluations
        (huge n, few workers) should raise this rather than risk a
        false positive — it bounds the *gap between task completions*,
        not total evaluation time.
    telemetry:
        enable span tracing (:mod:`repro.obs`) for sessions built with
        this config: :class:`~repro.api.session.Session` creates a
        :class:`~repro.obs.Tracer` and installs it for the duration of
        every ``compress()``, so stage, per-level skeletonization,
        evaluation-pass, chunk-pipeline and worker spans are recorded and
        exportable as a Chrome trace (``repro.obs.write_chrome_trace``).
        Purely an execution knob — it changes no numerical result and,
        like ``neighbor_workers``, enters no stage fingerprint, so
        toggling it never invalidates session artifacts.  When ``False``
        (default), instrumented hot paths pay one attribute check.
    dtype:
        floating point type of the compressed representation.
    seed:
        seed for all randomized components (projection trees, sampling).
    """

    leaf_size: int = 256
    max_rank: int = 256
    tolerance: float = 1e-5
    neighbors: int = 32
    budget: float = 0.03
    distance: DistanceMetric = DistanceMetric.ANGLE
    num_neighbor_trees: int = 10
    neighbor_accuracy_target: float = 0.8
    sample_size: int = 0
    oversampling: int = 2
    centroid_samples: int = 32
    adaptive_rank: bool = True
    cache_near_blocks: bool = True
    cache_far_blocks: bool = True
    symmetrize_lists: bool = True
    secure_accuracy: bool = False
    streaming_chunk_bytes: int = 32 * 2**20
    neighbor_workers: int = 1
    compression_workers: int = 1
    plan_rank_bucketing: str = "pow2"
    prebuild_plan: bool = False
    storage_read_retries: int = 2
    executor_stall_timeout: Optional[float] = 300.0
    telemetry: bool = False
    dtype: np.dtype = np.float64
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.leaf_size < 2:
            raise ConfigurationError(f"leaf_size must be >= 2, got {self.leaf_size}")
        if self.max_rank < 1:
            raise ConfigurationError(f"max_rank must be >= 1, got {self.max_rank}")
        if not (0.0 < self.tolerance):
            raise ConfigurationError(f"tolerance must be positive, got {self.tolerance}")
        if self.neighbors < 1:
            raise ConfigurationError(f"neighbors must be >= 1, got {self.neighbors}")
        if not (0.0 <= self.budget <= 1.0):
            raise ConfigurationError(f"budget must be in [0, 1], got {self.budget}")
        if self.num_neighbor_trees < 0:
            raise ConfigurationError("num_neighbor_trees must be >= 0")
        if not (0.0 < self.neighbor_accuracy_target <= 1.0):
            raise ConfigurationError("neighbor_accuracy_target must be in (0, 1]")
        if self.sample_size < 0:
            raise ConfigurationError("sample_size must be >= 0")
        if self.oversampling < 1:
            raise ConfigurationError("oversampling must be >= 1")
        if self.centroid_samples < 1:
            raise ConfigurationError("centroid_samples must be >= 1")
        if self.streaming_chunk_bytes < 1:
            raise ConfigurationError(
                f"streaming_chunk_bytes must be >= 1, got {self.streaming_chunk_bytes}"
            )
        if not isinstance(self.storage_read_retries, int) or self.storage_read_retries < 0:
            raise ConfigurationError(
                f"storage_read_retries must be a non-negative integer, "
                f"got {self.storage_read_retries!r}"
            )
        if self.executor_stall_timeout is not None and not (self.executor_stall_timeout > 0.0):
            raise ConfigurationError(
                f"executor_stall_timeout must be positive or None, got {self.executor_stall_timeout}"
            )
        if not isinstance(self.telemetry, bool):
            raise ConfigurationError(
                f"telemetry must be a bool, got {self.telemetry!r}"
            )
        if self.neighbor_workers < 1:
            raise ConfigurationError(
                f"neighbor_workers must be >= 1, got {self.neighbor_workers}"
            )
        if self.compression_workers < 1:
            raise ConfigurationError(
                f"compression_workers must be >= 1, got {self.compression_workers}"
            )
        from .core.plan import BUCKETING_MODES

        if self.plan_rank_bucketing not in BUCKETING_MODES:
            raise ConfigurationError(
                f"plan_rank_bucketing must be one of: {', '.join(BUCKETING_MODES)}; "
                f"got {self.plan_rank_bucketing!r}"
            )
        if isinstance(self.distance, str):
            object.__setattr__(self, "distance", DistanceMetric(self.distance))
        dt = np.dtype(self.dtype)
        if dt.kind != "f":
            raise ConfigurationError(f"dtype must be a float type, got {dt}")
        object.__setattr__(self, "dtype", dt)

    # -- convenience ------------------------------------------------------
    def replace(self, **changes) -> "GOFMMConfig":
        """Return a copy with the given fields replaced (validated)."""
        return dataclasses.replace(self, **changes)

    @property
    def is_hss(self) -> bool:
        """True when the configuration yields a pure HSS approximation (S = 0)."""
        return self.budget == 0.0

    def effective_sample_size(self) -> int:
        """Number of off-node rows sampled for each skeletonization."""
        return max(self.sample_size, self.oversampling * self.max_rank)

    def max_near_size(self, n: int) -> int:
        """Budget cap on |Near(β)| for a problem of size ``n`` (excluding β)."""
        if self.budget <= 0.0:
            return 0
        leaves = max(1, int(np.ceil(n / self.leaf_size)))
        return max(0, int(np.floor(self.budget * leaves)))

    def describe(self) -> str:
        """Single-line human-readable summary (used by benchmark harnesses)."""
        return (
            f"m={self.leaf_size} s={self.max_rank} tau={self.tolerance:g} "
            f"kappa={self.neighbors} budget={self.budget:.2%} dist={self.distance.value}"
        )


def default_config(**overrides) -> GOFMMConfig:
    """The paper's default-ish configuration (angle distance, 3% budget)."""
    return GOFMMConfig(**overrides)


def hss_config(**overrides) -> GOFMMConfig:
    """Configuration forcing a pure HSS approximation (budget = 0)."""
    overrides.setdefault("budget", 0.0)
    return GOFMMConfig(**overrides)


def fmm_config(budget: float = 0.03, **overrides) -> GOFMMConfig:
    """Configuration for the FMM variant with the given direct-evaluation budget."""
    return GOFMMConfig(budget=budget, **overrides)

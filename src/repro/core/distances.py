"""The geometry-oblivious distance measures of §2.1.

Because ``K`` is SPD it is the Gram matrix of some unknown vectors
``{φ_i} ⊂ R^N`` with ``K_ij = (φ_i, φ_j)``.  That lets us define distances
between *matrix indices* using only matrix entries:

* Gram ℓ2 ("kernel") distance:   ``d²_ij = K_ii + K_jj − 2 K_ij``,
* Gram angle distance:           ``d_ij = 1 − K_ij² / (K_ii K_jj)``,
* geometric ℓ2 distance:         ``d_ij = ||x_i − x_j||²`` when coordinates
  exist (the geometry-aware reference).

Each distance object serves two queries that the tree partitioner and the
neighbor search need:

``pairwise(I, J)``
    dense matrix of distances between two index sets, and
``to_centroid(I, sample)``
    distance of every index in ``I`` to the (Gram-space) centroid of a small
    sample — the quantity Algorithm 2.1 uses to seed the split without ever
    materializing the Gram vectors.

All distances are *squared* / monotone variants of the true metric: the
algorithms only compare values, so any order-equivalent form is valid (the
paper makes the same remark about the angle distance).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from ..config import DistanceMetric
from ..errors import ConfigurationError, NotSPDError
from ..matrices.base import SPDMatrix, elementwise_chunks

__all__ = [
    "Distance",
    "GeometricDistance",
    "KernelDistance",
    "AngleDistance",
    "make_distance",
]


class Distance(ABC):
    """Pairwise distance between matrix indices ``{0, …, N−1}``."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ConfigurationError("distance requires at least one index")
        self.n = int(n)

    @abstractmethod
    def pairwise(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Distance matrix ``d[i, j]`` for ``i ∈ rows``, ``j ∈ cols``."""

    def pairwise_blocks(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Stacked distance blocks ``d[b] = pairwise(rows[b], cols[b])``.

        ``rows`` is ``(B, p)`` and ``cols`` is ``(B, k)``; the result is
        ``(B, p, k)``.  The ANN search's leaf pass evaluates one batch of
        same-size leaves through this entry point.  The default loops over
        :meth:`pairwise`; the concrete distances override it with a single
        stacked evaluation whose per-slice values are bitwise identical to
        the loop (same expression, same GEMM per slice) — the driver-vs-oracle
        tests depend on that.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        out = np.empty((rows.shape[0], rows.shape[1], cols.shape[1]), dtype=np.float64)
        for b in range(rows.shape[0]):
            out[b] = self.pairwise(rows[b], cols[b])
        return out

    @abstractmethod
    def to_centroid(self, indices: np.ndarray, sample: np.ndarray) -> np.ndarray:
        """Distance of each index in ``indices`` to the centroid of ``sample``."""

    def to_point(self, indices: np.ndarray, point: int) -> np.ndarray:
        """Distance of each index in ``indices`` to a single index ``point``."""
        return self.pairwise(np.asarray(indices, dtype=np.intp), np.array([point], dtype=np.intp))[:, 0]


class GeometricDistance(Distance):
    """Point-based squared Euclidean distance (requires coordinates)."""

    def __init__(self, coordinates: np.ndarray) -> None:
        coordinates = np.asarray(coordinates, dtype=np.float64)
        if coordinates.ndim != 2:
            raise ConfigurationError("coordinates must be a 2-D array (N, d)")
        super().__init__(coordinates.shape[0])
        self.coordinates = coordinates

    def pairwise(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        x = self.coordinates[np.asarray(rows, dtype=np.intp)]
        y = self.coordinates[np.asarray(cols, dtype=np.intp)]
        xx = np.einsum("ij,ij->i", x, x)[:, None]
        yy = np.einsum("ij,ij->i", y, y)[None, :]
        d2 = xx + yy - 2.0 * (x @ y.T)
        np.clip(d2, 0.0, None, out=d2)
        return d2

    def pairwise_blocks(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        x = self.coordinates[np.asarray(rows, dtype=np.intp)]  # (B, p, d)
        y = self.coordinates[np.asarray(cols, dtype=np.intp)]  # (B, k, d)
        xx = np.einsum("bij,bij->bi", x, x)[:, :, None]
        yy = np.einsum("bij,bij->bi", y, y)[:, None, :]
        d2 = xx + yy - 2.0 * np.matmul(x, y.transpose(0, 2, 1))
        np.clip(d2, 0.0, None, out=d2)
        return d2

    def to_centroid(self, indices: np.ndarray, sample: np.ndarray) -> np.ndarray:
        centroid = self.coordinates[np.asarray(sample, dtype=np.intp)].mean(axis=0)
        x = self.coordinates[np.asarray(indices, dtype=np.intp)]
        diff = x - centroid[None, :]
        return np.einsum("ij,ij->i", diff, diff)


class _GramDistance(Distance):
    """Common machinery for the two Gram-space distances (caches the diagonal)."""

    def __init__(self, matrix: SPDMatrix) -> None:
        super().__init__(matrix.n)
        self.matrix = matrix
        diag = matrix.diagonal()
        if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
            raise NotSPDError(
                "Gram distances require a strictly positive diagonal; "
                "the supplied matrix is not SPD"
            )
        self.diag = diag

    def pairwise(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        return self.pairwise_blocks(rows[None], cols[None])[0]

    def pairwise_blocks(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Distances from one stacked entry evaluation, transformed in place.

        :meth:`~repro.matrices.base.SPDMatrix.entries_batched` writes the
        blocks ``K[rows[b]][:, cols[b]]`` into the returned buffer (same
        values and ``entry_evaluations`` as per-block :meth:`entries`
        calls); :meth:`_transform` then turns them into distances one
        L2-sized piece at a time, allocating no block-sized temporary.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        out = np.empty((rows.shape[0], rows.shape[1], cols.shape[1]), dtype=np.float64)
        self.matrix.entries_batched(rows, cols, out=out)
        diag_rows = self.diag[rows][:, :, None]
        diag_cols = self.diag[cols][:, None, :]
        for blocks, band, view, scratch in elementwise_chunks(out):
            self._transform(view, diag_rows[blocks, band], diag_cols[blocks], scratch)
        return out

    @abstractmethod
    def _transform(
        self, k: np.ndarray, diag_rows: np.ndarray, diag_cols: np.ndarray, scratch: np.ndarray
    ) -> None:
        """Overwrite entries ``k`` with their distances, bit for bit the per-block formula."""


class KernelDistance(_GramDistance):
    """Gram ℓ2 distance ``d²_ij = K_ii + K_jj − 2 K_ij`` (Eq. (3))."""

    def _transform(self, k, diag_rows, diag_cols, scratch) -> None:
        np.add(diag_rows, diag_cols, out=scratch)
        np.multiply(k, 2.0, out=k)
        np.subtract(scratch, k, out=k)
        np.clip(k, 0.0, None, out=k)

    def to_centroid(self, indices: np.ndarray, sample: np.ndarray) -> np.ndarray:
        """``||φ_i − c||²`` with ``c`` the mean of the sampled Gram vectors.

        Expanding the square needs only matrix entries:
        ``K_ii − (2/n_c) Σ_j K_ij + (1/n_c²) Σ_{j,j'} K_jj'``.
        """
        indices = np.asarray(indices, dtype=np.intp)
        sample = np.asarray(sample, dtype=np.intp)
        k_is = self.matrix.entries(indices, sample)
        k_ss = self.matrix.entries(sample, sample)
        cross = k_is.mean(axis=1)
        centroid_norm_sq = float(k_ss.mean())
        d2 = self.diag[indices] - 2.0 * cross + centroid_norm_sq
        np.clip(d2, 0.0, None, out=d2)
        return d2


class AngleDistance(_GramDistance):
    """Gram angle distance ``d_ij = 1 − K_ij² / (K_ii K_jj)`` (Eq. (4))."""

    def _transform(self, k, diag_rows, diag_cols, scratch) -> None:
        np.multiply(diag_rows, diag_cols, out=scratch)
        np.multiply(k, k, out=k)
        np.divide(k, scratch, out=k)
        np.subtract(1.0, k, out=k)
        np.clip(k, 0.0, None, out=k)

    def to_centroid(self, indices: np.ndarray, sample: np.ndarray) -> np.ndarray:
        """``sin²`` of the angle between ``φ_i`` and the sampled centroid.

        ``cos² = (φ_i · c)² / (||φ_i||² ||c||²)`` with ``φ_i · c`` the mean of
        ``K_ij`` over the sample and ``||c||²`` the mean of the sampled block.
        """
        indices = np.asarray(indices, dtype=np.intp)
        sample = np.asarray(sample, dtype=np.intp)
        k_is = self.matrix.entries(indices, sample)
        k_ss = self.matrix.entries(sample, sample)
        dot = k_is.mean(axis=1)
        centroid_norm_sq = max(float(k_ss.mean()), np.finfo(np.float64).tiny)
        cos_sq = (dot * dot) / (self.diag[indices] * centroid_norm_sq)
        d = 1.0 - cos_sq
        np.clip(d, 0.0, None, out=d)
        return d


def make_distance(
    matrix: SPDMatrix,
    metric: DistanceMetric,
    coordinates: Optional[np.ndarray] = None,
) -> Optional[Distance]:
    """Build the distance object for the requested metric.

    Returns ``None`` for the two metric-free orderings (lexicographic and
    random), which is how the rest of the pipeline knows that no neighbor
    search or near/far pruning is possible (HSS-only, as in Figure 7).
    """
    metric = DistanceMetric(metric)
    if metric is DistanceMetric.GEOMETRIC:
        coords = coordinates if coordinates is not None else matrix.coordinates
        if coords is None:
            raise ConfigurationError(
                "geometric distance requested but the matrix carries no coordinates"
            )
        return GeometricDistance(coords)
    if metric is DistanceMetric.KERNEL:
        return KernelDistance(matrix)
    if metric is DistanceMetric.ANGLE:
        return AngleDistance(matrix)
    return None

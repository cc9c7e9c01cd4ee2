"""The entry-evaluation interface consumed by GOFMM and the baselines.

The compression algorithm never needs the whole matrix: it needs a routine
that returns ``K[I, J]`` for arbitrary row/column index sets, plus the
diagonal (for the Gram distances of §2.1).  :class:`SPDMatrix` captures that
contract and adds bookkeeping (how many entries were evaluated) so the
benchmark harness can report sampling cost alongside wall-clock time.

Three concrete implementations cover every use in the repo:

* :class:`DenseSPD` wraps an explicit ``N × N`` array (the test matrices
  K02–K18 and G01–G05 are generated densely at laptop scale),
* :class:`KernelMatrix` evaluates ``K_ij = k(x_i, x_j)`` on the fly from a
  point set and a kernel function (the machine-learning matrices),
* :class:`CallbackMatrix` adapts an arbitrary ``f(I, J) -> K[I, J]``
  callable, the fully matrix-free case.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import NotSPDError
from .kernels import pairwise_sq_dists

__all__ = ["SPDMatrix", "DenseSPD", "KernelMatrix", "CallbackMatrix", "as_spd_matrix"]


#: Per-block element cap of the vectorized kernel batch path: blocks above
#: this stay cache-resident in per-block evaluation but would turn the
#: stacked distance/kernel temporaries into main-memory traffic.
_KERNEL_BATCH_MAX_BLOCK_ELEMENTS = 8192

#: Guards every ``entry_evaluations`` update: the compression fan-outs and
#: the streamed engine's fill threads evaluate entries concurrently.
_COUNT_LOCK = threading.Lock()


def _as_index_array(indices: Sequence[int] | np.ndarray) -> np.ndarray:
    out = np.asarray(indices, dtype=np.intp)
    if out.ndim == 0:
        out = out.reshape(1)
    return out


class SPDMatrix(ABC):
    """Abstract SPD matrix accessed through entry evaluation.

    Subclasses must implement :meth:`entries` and :attr:`shape`; everything
    else (diagonal, rows, dense materialization, matvec) has a default
    implementation in terms of those.

    Attributes
    ----------
    entry_evaluations:
        running count of scalar entries served, used by benchmarks to report
        the sampling cost of compression.  Updated only through
        :meth:`_count_entries`, so it is exact under concurrent calls.
    """

    def __init__(self) -> None:
        self.entry_evaluations: int = 0

    def _count_entries(self, count: int) -> None:
        """Add ``count`` served entries to :attr:`entry_evaluations` (thread-safe)."""
        with _COUNT_LOCK:
            self.entry_evaluations += int(count)

    # -- required interface ------------------------------------------------
    @property
    @abstractmethod
    def shape(self) -> tuple[int, int]:
        """Matrix dimensions ``(N, N)``."""

    @abstractmethod
    def _entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Return the dense block ``K[rows][:, cols]`` without bookkeeping."""

    # -- optional geometric side information --------------------------------
    @property
    def coordinates(self) -> Optional[np.ndarray]:
        """Point coordinates ``(N, d)`` when available, else ``None``.

        GOFMM does not require them; when present they enable the
        geometric-ℓ2 distance (the paper's geometry-aware reference).
        """
        return None

    # -- derived operations --------------------------------------------------
    @property
    def n(self) -> int:
        return self.shape[0]

    def entries(self, rows: Sequence[int] | np.ndarray, cols: Sequence[int] | np.ndarray) -> np.ndarray:
        """Dense block ``K[rows][:, cols]`` as a ``(len(rows), len(cols))`` array."""
        rows = _as_index_array(rows)
        cols = _as_index_array(cols)
        self._count_entries(rows.size * cols.size)
        block = np.asarray(self._entries(rows, cols), dtype=np.float64)
        if block.shape != (rows.size, cols.size):
            block = block.reshape(rows.size, cols.size)
        return block

    def entries_batched(
        self,
        row_sets: Sequence[np.ndarray],
        col_sets: Sequence[np.ndarray],
        out: Optional[np.ndarray] = None,
    ) -> list[np.ndarray]:
        """Dense blocks ``K[rows_i][:, cols_i]`` for several index sets at once.

        The skeletonization sweep evaluates one tree level's sampled
        blocks through this entry point, and the streamed evaluation engine
        materializes its chunks here — both **from several worker threads
        concurrently** (the subtree fan-out of ``compression_workers``,
        the engine's chunk pipeline): implementations, including
        :meth:`entries` overrides this default delegates to, must be
        thread-safe for concurrent reads.  The built-in matrix classes are
        (pure functions of immutable state); a custom subclass that
        memoizes or wraps a non-reentrant library must either lock
        internally or avoid the streamed engine and the worker knobs.  The
        default simply loops over :meth:`entries`; matrix classes with
        vectorizable entry formulas (:class:`KernelMatrix` for
        distance-based kernels) override it to evaluate the whole batch
        with a handful of stacked array operations.  Overrides must produce
        the same values and account the same ``entry_evaluations`` (through
        :meth:`_count_entries`) as the per-block loop.

        ``out``, when given, is a preallocated ``(len(row_sets), p, k)``
        array receiving the blocks (all index sets must then share the
        shape ``(p, k)``); the returned list holds views into it.  The
        values are identical with or without ``out`` — it only lets
        callers that own a reusable workspace (the streamed engine's chunk
        buffers) skip one allocation + copy per block.
        """
        if out is None:
            return [self.entries(rows, cols) for rows, cols in zip(row_sets, col_sets)]
        for i, (rows, cols) in enumerate(zip(row_sets, col_sets)):
            out[i] = self.entries(rows, cols)
        return [out[i] for i in range(len(row_sets))]

    def diagonal(self, indices: Optional[np.ndarray] = None) -> np.ndarray:
        """Diagonal entries ``K_ii`` for the given indices (all by default)."""
        if indices is None:
            indices = np.arange(self.n, dtype=np.intp)
        else:
            indices = _as_index_array(indices)
        self._count_entries(indices.size)
        return self._diagonal(indices)

    def _diagonal(self, indices: np.ndarray) -> np.ndarray:
        # Default: evaluate one entry at a time via the block interface.
        out = np.empty(indices.size, dtype=np.float64)
        for k, i in enumerate(indices):
            out[k] = self._entries(np.array([i], dtype=np.intp), np.array([i], dtype=np.intp))[0, 0]
        return out

    def rows(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Full rows ``K[indices, :]`` (used by the sampled ε2 estimator)."""
        return self.entries(indices, np.arange(self.n, dtype=np.intp))

    def to_dense(self) -> np.ndarray:
        """Materialize the full matrix (only sensible at test scale)."""
        idx = np.arange(self.n, dtype=np.intp)
        return self.entries(idx, idx)

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """Exact product ``K @ w`` (O(N²); reference for accuracy checks)."""
        return self.to_dense() @ np.asarray(w, dtype=np.float64)

    def reset_counter(self) -> None:
        self.entry_evaluations = 0

    # -- validation ----------------------------------------------------------
    def validate_spd(self, sample: int = 64, rng: Optional[np.random.Generator] = None) -> None:
        """Cheap SPD sanity check: positive diagonal and symmetric sampled entries.

        A full eigenvalue check is O(N³); this samples entries so it is
        usable inside the compression path (and by tests).  Raises
        :class:`NotSPDError` on violation.
        """
        rng = rng or np.random.default_rng(0)
        n = self.n
        idx = rng.choice(n, size=min(sample, n), replace=False)
        diag = self.diagonal(idx)
        if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
            raise NotSPDError("matrix has non-positive or non-finite diagonal entries")
        block = self.entries(idx, idx)
        if not np.allclose(block, block.T, rtol=1e-8, atol=1e-10 * max(1.0, float(np.abs(block).max()))):
            raise NotSPDError("sampled block is not symmetric")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"


class DenseSPD(SPDMatrix):
    """SPD matrix stored as an explicit dense array.

    Parameters
    ----------
    matrix:
        the ``N × N`` symmetric array.
    coordinates:
        optional point coordinates associated with the rows/columns.
    validate:
        if true, check symmetry on construction (cheap relative to having
        built the dense matrix in the first place).
    """

    def __init__(
        self,
        matrix: np.ndarray,
        coordinates: Optional[np.ndarray] = None,
        validate: bool = True,
        name: str = "dense",
    ) -> None:
        super().__init__()
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise NotSPDError(f"expected a square matrix, got shape {matrix.shape}")
        if validate and not np.allclose(matrix, matrix.T, rtol=1e-8, atol=1e-10 * max(1.0, float(np.abs(matrix).max()))):
            raise NotSPDError("matrix is not symmetric")
        self._matrix = matrix
        self._coords = None if coordinates is None else np.asarray(coordinates, dtype=np.float64)
        self.name = name

    @property
    def shape(self) -> tuple[int, int]:
        return self._matrix.shape

    @property
    def coordinates(self) -> Optional[np.ndarray]:
        return self._coords

    def _entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._matrix[np.ix_(rows, cols)]

    def _diagonal(self, indices: np.ndarray) -> np.ndarray:
        return np.diag(self._matrix)[indices].astype(np.float64)

    def to_dense(self) -> np.ndarray:
        self._count_entries(self.n * self.n)
        return self._matrix.copy()

    def matvec(self, w: np.ndarray) -> np.ndarray:
        return self._matrix @ np.asarray(w, dtype=np.float64)

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the underlying dense array (no bookkeeping)."""
        return self._matrix


class KernelMatrix(SPDMatrix):
    """Kernel matrix ``K_ij = k(x_i, x_j)`` evaluated lazily from points.

    Parameters
    ----------
    points:
        ``(N, d)`` array of coordinates.
    kernel:
        a kernel object from :mod:`repro.matrices.kernels` exposing
        ``__call__(X, Y) -> pairwise kernel block`` and ``diagonal(X)``.
    regularization:
        value added to the diagonal (``K + λ I``); kernel matrices of
        clustered data are frequently numerically rank-deficient and a small
        shift keeps them safely SPD, matching common practice.
    """

    def __init__(
        self,
        points: np.ndarray,
        kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
        regularization: float = 0.0,
        name: str = "kernel",
    ) -> None:
        super().__init__()
        self._points = np.asarray(points, dtype=np.float64)
        if self._points.ndim != 2:
            raise NotSPDError("points must be a 2-D array (N, d)")
        self._kernel = kernel
        self._reg = float(regularization)
        self.name = name

    @property
    def shape(self) -> tuple[int, int]:
        n = self._points.shape[0]
        return (n, n)

    @property
    def coordinates(self) -> np.ndarray:
        return self._points

    @property
    def kernel(self):
        return self._kernel

    def _entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        block = self._kernel(self._points[rows], self._points[cols])
        if self._reg != 0.0:
            same = rows[:, None] == cols[None, :]
            if np.any(same):
                block = block + self._reg * same
        return block

    def entries_batched(
        self,
        row_sets: Sequence[np.ndarray],
        col_sets: Sequence[np.ndarray],
        out: Optional[np.ndarray] = None,
    ) -> list[np.ndarray]:
        """Stacked evaluation of many blocks for distance-based kernels.

        Kernels exposing ``from_sq_dists`` (Gaussian, Laplace, inverse
        multiquadric, Matérn) are a pointwise function of the pairwise
        squared distances, so a batch of same-shape blocks reduces to one
        stacked GEMM plus one vectorized kernel application — the entry
        values (and the ``entry_evaluations`` count) are identical to the
        per-block loop, which remains the fallback for dot-product
        kernels.  Mixed-shape batches are grouped by shape first.

        With ``out`` (a same-shape batch from the streamed engine) the
        kernel values are written directly into the caller's buffer —
        ``from_sq_dists(..., out=...)`` — skipping the stacked result
        allocation and the per-block copies.
        """
        from_sq_dists = getattr(self._kernel, "from_sq_dists", None)
        if from_sq_dists is None or len(row_sets) < 2:
            return super().entries_batched(row_sets, col_sets, out=out)

        if (
            isinstance(row_sets, np.ndarray) and row_sets.ndim == 2
            and isinstance(col_sets, np.ndarray) and col_sets.ndim == 2
            and 0 < row_sets.shape[1] * col_sets.shape[1] <= _KERNEL_BATCH_MAX_BLOCK_ELEMENTS
        ):
            # Pre-stacked same-shape batch (the streamed engine's hot path):
            # one distance GEMM + one kernel application, no regrouping.
            self._count_entries(row_sets.size * col_sets.shape[1])
            blocks, direct = self._stacked_kernel_blocks(from_sq_dists, row_sets, col_sets, out)
            if out is not None and not direct:
                for g in range(len(row_sets)):
                    out[g] = blocks[g]
                return [out[g] for g in range(len(row_sets))]
            return [blocks[g] for g in range(len(row_sets))]

        row_sets = [np.asarray(r, dtype=np.intp) for r in row_sets]
        col_sets = [np.asarray(c, dtype=np.intp) for c in col_sets]
        groups: dict[tuple[int, int], list[int]] = {}
        for i, (rows, cols) in enumerate(zip(row_sets, col_sets)):
            groups.setdefault((rows.size, cols.size), []).append(i)

        results: list[Optional[np.ndarray]] = [None] * len(row_sets)
        for (p, k), members in groups.items():
            if p * k > _KERNEL_BATCH_MAX_BLOCK_ELEMENTS or len(members) < 2:
                # Large blocks: the stacked temporaries (distances, kernel
                # values) fall out of cache and lose to per-block calls.
                for i in members:
                    results[i] = self.entries(row_sets[i], col_sets[i])
                    if out is not None:
                        out[i] = results[i]
                        results[i] = out[i]
                continue
            self._count_entries(len(members) * p * k)
            if p == 0 or k == 0:
                for i in members:
                    results[i] = np.zeros((p, k))
                continue
            rows = np.stack([row_sets[i] for i in members])
            cols = np.stack([col_sets[i] for i in members])
            # Only a single shape group covering the whole batch may write
            # straight into the caller's buffer (group order == out order).
            whole = out is not None and len(members) == len(row_sets)
            blocks, direct = self._stacked_kernel_blocks(
                from_sq_dists, rows, cols, out if whole else None
            )
            if direct:
                for g, i in enumerate(members):
                    results[i] = out[i]
            else:
                for g, i in enumerate(members):
                    if out is not None:
                        out[i] = blocks[g]
                        results[i] = out[i]
                    else:
                        results[i] = blocks[g]
        return results  # type: ignore[return-value]

    def _stacked_kernel_blocks(
        self,
        from_sq_dists,
        rows: np.ndarray,
        cols: np.ndarray,
        out: Optional[np.ndarray],
    ) -> tuple[np.ndarray, bool]:
        """Kernel values of one stacked ``(g, p) × (g, k)`` index batch.

        Writes into ``out`` when given and the kernel supports it (returns
        ``direct=True``); the values — including the diagonal
        regularization, applied in place — are bitwise identical either
        way.  Both ``entries_batched`` paths evaluate through this one
        helper so they can never drift apart.
        """
        d2 = pairwise_sq_dists(self._points[rows], self._points[cols])
        direct = out is not None
        if direct:
            try:
                blocks = np.asarray(from_sq_dists(d2, out=out), dtype=np.float64)
            except TypeError:  # custom kernel without an out parameter
                direct = False
            else:
                # Trust the buffer only if the kernel really wrote it: a
                # kernel that accepts ``out`` but returns a fresh array (or
                # a non-float64 one that asarray had to copy) must fall
                # back to the copy path, not hand out uninitialized memory.
                direct = blocks is out
        if not direct:
            blocks = np.asarray(from_sq_dists(d2), dtype=np.float64)
        if self._reg != 0.0:
            same = rows[:, :, None] == cols[:, None, :]
            if np.any(same):
                # ``block + reg * same`` of the per-block path, touching only
                # the matching entries: ``v + reg * 1.0 == v + reg`` exactly.
                blocks[same] += self._reg
        return blocks, direct

    def _diagonal(self, indices: np.ndarray) -> np.ndarray:
        diag_fn = getattr(self._kernel, "diagonal", None)
        if diag_fn is not None:
            diag = np.asarray(diag_fn(self._points[indices]), dtype=np.float64)
        else:
            x = self._points[indices]
            diag = np.array([self._kernel(x[k : k + 1], x[k : k + 1])[0, 0] for k in range(indices.size)])
        return diag + self._reg


class CallbackMatrix(SPDMatrix):
    """Matrix defined purely by a submatrix callback ``f(rows, cols)``.

    This is the fully geometry-oblivious, matrix-free case: GOFMM only sees
    entry values.
    """

    def __init__(
        self,
        entry_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        n: int,
        coordinates: Optional[np.ndarray] = None,
        name: str = "callback",
    ) -> None:
        super().__init__()
        if n < 1:
            raise NotSPDError("matrix dimension must be positive")
        self._fn = entry_fn
        self._n = int(n)
        self._coords = None if coordinates is None else np.asarray(coordinates, dtype=np.float64)
        self.name = name

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self._n)

    @property
    def coordinates(self) -> Optional[np.ndarray]:
        return self._coords

    def _entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(rows, cols), dtype=np.float64)


def as_spd_matrix(obj) -> SPDMatrix:
    """Coerce an object into the :class:`SPDMatrix` interface.

    Accepts an existing :class:`SPDMatrix`, a dense ``numpy`` array, or a
    tuple ``(callback, n)``.
    """
    if isinstance(obj, SPDMatrix):
        return obj
    if isinstance(obj, np.ndarray):
        return DenseSPD(obj)
    if isinstance(obj, tuple) and len(obj) == 2 and callable(obj[0]):
        return CallbackMatrix(obj[0], int(obj[1]))
    raise TypeError(f"cannot interpret {type(obj)!r} as an SPD matrix")

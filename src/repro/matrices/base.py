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

:class:`KernelMatrix` evaluates every block — one from :meth:`~SPDMatrix.entries`
or a stack of any size from :meth:`~SPDMatrix.entries_batched` — through one
in-place evaluator: the distance GEMM writes straight into the output, and
the remaining elementwise passes (norms, clip, kernel, regularization) run
over :func:`elementwise_chunks` of it that stay in L2.  Its scratch is
allocated per call, so concurrent calls share nothing but immutable state.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..errors import NotSPDError

__all__ = ["SPDMatrix", "DenseSPD", "KernelMatrix", "CallbackMatrix", "as_spd_matrix"]


#: Elements per piece of :func:`elementwise_chunks`: a piece of the output
#: and a same-size scratch (512 KiB together) stay in L2 across the four to
#: nine in-place passes an evaluation makes over them.  Flat from 16 Ki to
#: 32 Ki elements on a 2 MiB-L2 Xeon; 8 Ki costs ~10 % more per entry.
_CHUNK_ELEMENTS = 32768

#: Guards every ``entry_evaluations`` update: the compression fan-outs and
#: the streamed engine's fill threads evaluate entries concurrently.
_COUNT_LOCK = threading.Lock()


def _as_index_array(indices: Sequence[int] | np.ndarray) -> np.ndarray:
    out = np.asarray(indices, dtype=np.intp)
    if out.ndim == 0:
        out = out.reshape(1)
    return out


def elementwise_chunks(
    out: np.ndarray,
) -> Iterator[tuple[slice, slice, np.ndarray, np.ndarray]]:
    """Cover a C-contiguous ``(g, p, k)`` stack in cache-sized pieces.

    Yields ``(blocks, rows, view, scratch)``: ``view = out[blocks, rows]`` is
    a contiguous piece of about :data:`_CHUNK_ELEMENTS` entries (whole
    blocks when they are small, row bands of one block when they are
    large) and ``scratch`` a same-shape buffer, reused across pieces and
    allocated once per call.  In-place elementwise transforms run piece by
    piece, so their passes read L2 instead of main memory; the values do
    not depend on the pieces.
    """
    g, p, k = out.shape
    if p * k <= _CHUNK_ELEMENTS:
        step = _CHUNK_ELEMENTS // max(1, p * k)
        spans = [(slice(b, b + step), slice(None)) for b in range(0, g, step)]
        size = min(g, step) * p * k
    else:
        step = max(1, _CHUNK_ELEMENTS // k)
        spans = [(slice(b, b + 1), slice(r, r + step)) for b in range(g) for r in range(0, p, step)]
        size = min(p, step) * k
    scratch = np.empty(size)
    for blocks, rows in spans:
        view = out[blocks, rows]
        yield blocks, rows, view, scratch[: view.size].reshape(view.shape)


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
        (pure functions of immutable state, scratch allocated per call); a
        custom subclass that memoizes or wraps a non-reentrant library must
        either lock internally or avoid the streamed engine and the worker
        knobs.  The default simply loops over :meth:`entries`;
        :class:`KernelMatrix` overrides it to evaluate each same-shape stack
        in one pass of its evaluator, at any block size.  Overrides must
        produce the same values and account the same ``entry_evaluations``
        (through :meth:`_count_entries`) as the per-block loop.

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
        ``(N, d)`` array of coordinates.  The matrix keeps a read-only copy
        (its :attr:`coordinates`), so later changes to ``points`` do not
        reach it.
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
        # A private, read-only C-ordered copy: the squared norms below are
        # cached from it, so the points must not change under them.
        self._points = np.array(points, dtype=np.float64, order="C")
        if self._points.ndim != 2:
            raise NotSPDError("points must be a 2-D array (N, d)")
        self._points.setflags(write=False)
        self._kernel = kernel
        self._reg = float(regularization)
        self.name = name
        # Squared norms for the distance expansion; C order makes each row
        # sum exactly like the gathered rows of the per-block formula.
        self._sq_norms = np.einsum("ij,ij->i", self._points, self._points)

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
        out = np.empty((1, rows.size, cols.size))
        self._fill(rows[None], cols[None], out)
        return out[0]

    def entries_batched(
        self,
        row_sets: Sequence[np.ndarray],
        col_sets: Sequence[np.ndarray],
        out: Optional[np.ndarray] = None,
    ) -> list[np.ndarray]:
        """Each same-shape stack of blocks in one :meth:`_fill` pass.

        Pre-stacked ``(g, p)`` / ``(g, k)`` index tables (the streamed
        engine's segments, the blocks stage's slabs) and ``out`` batches
        go through as one stack; a list of mixed shapes is grouped by
        shape first.  Values and ``entry_evaluations`` equal the per-block
        :meth:`entries` loop's.
        """
        if len(row_sets) == 0:
            return []
        stacked = all(isinstance(s, np.ndarray) and s.ndim == 2 for s in (row_sets, col_sets))
        if out is not None or stacked:
            rows = np.asarray(row_sets, dtype=np.intp)
            cols = np.asarray(col_sets, dtype=np.intp)
            shape = (rows.shape[0], rows.shape[1], cols.shape[1])
            self._count_entries(rows.size * shape[2])
            fits = out is not None and out.dtype == np.float64 and out.flags.c_contiguous
            blocks = out if fits else np.empty(shape)
            self._fill(rows, cols, blocks)
            if out is not None and not fits:
                out[...] = blocks
                blocks = out
            return list(blocks)
        groups: dict[tuple[int, int], list[int]] = {}
        for i, (rows, cols) in enumerate(zip(row_sets, col_sets)):
            groups.setdefault((np.size(rows), np.size(cols)), []).append(i)
        results: list[np.ndarray] = [None] * len(row_sets)  # type: ignore[list-item]
        for members in groups.values():
            blocks = self.entries_batched(
                np.stack([_as_index_array(row_sets[i]) for i in members]),
                np.stack([_as_index_array(col_sets[i]) for i in members]),
            )
            for i, block in zip(members, blocks):
                results[i] = block
        return results

    def _fill(self, rows: np.ndarray, cols: np.ndarray, out: np.ndarray) -> None:
        """Write ``K[rows[b]][:, cols[b]]`` into ``out[b]`` for a ``(g, p)`` × ``(g, k)`` stack.

        The one evaluator behind :meth:`entries` and :meth:`entries_batched`;
        ``out`` is a C-contiguous float64 ``(g, p, k)`` array.  For distance
        kernels it computes, bit for bit, ``kernel(x, y) + reg · (r == c)``
        of the per-block formula (:func:`~repro.matrices.kernels.pairwise_sq_dists`
        then ``from_sq_dists``):

        1. ``out = (−2x) yᵀ`` — the same ``matmul`` per slice as the
           per-block path (scaling an operand by −2 is exact), written
           straight into ``out``;
        2. per :func:`elementwise_chunks` piece: ``(‖x‖² + ‖y‖²) + out``
           from the norms cached at construction, the clip at 0, the
           kernel's ``from_sq_dists_inplace``, and ``+ reg`` where a row
           index meets its column index.

        The GEMM itself is never chunked: BLAS edge tiles would move the
        last bit.  Other kernels are called once per block.
        """
        if out.size == 0:
            return
        inplace = getattr(self._kernel, "from_sq_dists_inplace", None)
        if inplace is None:
            for b in range(out.shape[0]):
                out[b] = self._kernel(self._points[rows[b]], self._points[cols[b]])
        else:
            # ``take`` gathers rows 3-4x faster than fancy indexing, same copy.
            x = np.take(self._points, rows, axis=0)
            np.multiply(x, -2.0, out=x)
            np.matmul(x, np.take(self._points, cols, axis=0).transpose(0, 2, 1), out=out)
            row_norms = self._sq_norms[rows][:, :, None]
            col_norms = self._sq_norms[cols][:, None, :]
        for blocks, band, view, scratch in elementwise_chunks(out):
            if inplace is not None:
                np.add(row_norms[blocks, band], col_norms[blocks], out=scratch)
                np.add(scratch, view, out=view)
                np.clip(view, 0.0, None, out=view)
                inplace(view, scratch)
            if self._reg != 0.0:
                same = rows[blocks, band, None] == cols[blocks, None, :]
                if same.any():
                    np.add(view, self._reg, out=view, where=same)

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

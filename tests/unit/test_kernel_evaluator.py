"""``KernelMatrix``'s one in-place evaluator against the per-block formula (exact equality).

Every block — single or stacked, at any size — goes through
``KernelMatrix._fill``.  The oracle is the public allocating form,
``kernel(points[r], points[c]) + reg · (r == c)``, which evaluates
``pairwise_sq_dists`` then ``from_sq_dists``; the evaluator must equal it
bit for bit and account the same ``entry_evaluations``.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.distances import AngleDistance, KernelDistance
from repro.matrices import DenseSPD, KernelMatrix
from repro.matrices.base import elementwise_chunks
from repro.matrices.kernels import (
    GaussianKernel,
    InverseMultiquadricKernel,
    LaplaceKernel,
    MaternKernel,
)

KERNELS = {
    "gaussian": GaussianKernel(bandwidth=1.3),
    "laplace": LaplaceKernel(bandwidth=0.7),
    "imq": InverseMultiquadricKernel(shift=0.5, power=2.0),
    "matern": MaternKernel(bandwidth=1.1),
}

#: Single blocks: scalar, cache-sized, several row bands with odd edges,
#: wider than tall, and the two degenerate tall/wide shapes.
SINGLE_SHAPES = [(1, 1), (64, 64), (640, 300), (96, 700), (16384, 1), (1, 5000)]

#: Stacks: many blocks per piece, and two per piece.
STACK_SHAPES = [(17, 64, 64), (4, 128, 128)]

N = 3000


@pytest.fixture(scope="module")
def points():
    gen = np.random.default_rng(11)
    centers = gen.standard_normal((4, 6)) * 2.0
    return np.vstack([c + gen.standard_normal((N // 4, 6)) for c in centers])


def oracle_block(matrix, rows, cols):
    block = matrix.kernel(matrix.coordinates[rows], matrix.coordinates[cols])
    return block + matrix._reg * (rows[:, None] == cols[None, :])


def counted(matrix, call):
    before = matrix.entry_evaluations
    result = call()
    return result, matrix.entry_evaluations - before


@pytest.mark.parametrize("reg", [0.0, 1e-6])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
class TestLattice:
    @pytest.mark.parametrize("shape", SINGLE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_single_block(self, points, kernel, reg, shape):
        matrix = KernelMatrix(points, KERNELS[kernel], regularization=reg)
        rng = np.random.default_rng(shape[0] * 7 + shape[1])
        rows = rng.integers(0, N, shape[0])
        cols = rng.integers(0, N, shape[1])
        block, evaluations = counted(matrix, lambda: matrix.entries(rows, cols))
        assert np.array_equal(block, oracle_block(matrix, rows, cols))
        assert evaluations == rows.size * cols.size

    @pytest.mark.parametrize("shape", STACK_SHAPES, ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("form", ["stacked", "list", "out"])
    def test_stack(self, points, kernel, reg, shape, form):
        matrix = KernelMatrix(points, KERNELS[kernel], regularization=reg)
        g, p, k = shape
        rng = np.random.default_rng(g * p)
        rows = rng.integers(0, N, (g, p))
        cols = rng.integers(0, N, (g, k))
        cols[::3, :8] = rows[::3, :8]              # diagonal hits in every third block
        out = np.empty(shape)
        call = {
            "stacked": lambda: matrix.entries_batched(rows, cols),
            "list": lambda: matrix.entries_batched(list(rows), list(cols)),
            "out": lambda: matrix.entries_batched(rows, cols, out=out),
        }[form]
        blocks, evaluations = counted(matrix, call)
        assert evaluations == g * p * k
        for b in range(g):
            assert np.array_equal(blocks[b], oracle_block(matrix, rows[b], cols[b]))
            if form == "out":
                assert np.shares_memory(blocks[b], out[b])

    def test_repeated_indices_and_diagonal_hits(self, points, kernel, reg):
        matrix = KernelMatrix(points, KERNELS[kernel], regularization=reg)
        rows = np.array([5, 5, 9, 2999, 9, 0, 5])
        cols = np.array([9, 5, 5, 0, 2999, 9, 9, 5])
        assert np.array_equal(matrix.entries(rows, cols), oracle_block(matrix, rows, cols))
        leaf = np.arange(700, 1340)                 # a near-diagonal block, several pieces
        block = matrix.entries(leaf, leaf)
        assert np.array_equal(block, oracle_block(matrix, leaf, leaf))

    def test_empty_blocks(self, points, kernel, reg):
        matrix = KernelMatrix(points, KERNELS[kernel], regularization=reg)
        none, some = np.empty(0, dtype=np.intp), np.arange(7)
        for rows, cols in [(none, some), (some, none), (none, none)]:
            block, evaluations = counted(matrix, lambda: matrix.entries(rows, cols))
            assert block.shape == (rows.size, cols.size) and evaluations == 0
        stacked = matrix.entries_batched(np.empty((3, 0), dtype=np.intp), np.zeros((3, 4), dtype=np.intp))
        assert [b.shape for b in stacked] == [(0, 4)] * 3
        assert matrix.entries_batched([], []) == []


def test_mixed_shape_list_keeps_order(points):
    matrix = KernelMatrix(points, KERNELS["gaussian"], regularization=1e-6)
    rng = np.random.default_rng(3)
    shapes = [(5, 7), (640, 30), (5, 7), (1, 1), (640, 30)]
    rows = [rng.integers(0, N, p) for p, _ in shapes]
    cols = [rng.integers(0, N, k) for _, k in shapes]
    blocks, evaluations = counted(matrix, lambda: matrix.entries_batched(rows, cols))
    assert evaluations == sum(p * k for p, k in shapes)
    for r, c, block in zip(rows, cols, blocks):
        assert np.array_equal(block, oracle_block(matrix, r, c))


def test_non_contiguous_out_receives_the_same_values(points):
    matrix = KernelMatrix(points, KERNELS["imq"], regularization=1e-6)
    rng = np.random.default_rng(4)
    rows, cols = rng.integers(0, N, (3, 40)), rng.integers(0, N, (3, 50))
    out = np.empty((3, 50, 40)).transpose(0, 2, 1)
    blocks = matrix.entries_batched(rows, cols, out=out)
    for b in range(3):
        assert np.array_equal(out[b], oracle_block(matrix, rows[b], cols[b]))
        assert np.shares_memory(blocks[b], out)


def test_points_are_copied_and_frozen(points):
    # The squared norms are cached at construction, so the matrix must not
    # see later writes to the caller's points, nor allow its own.
    caller = np.asfortranarray(points)
    matrix = KernelMatrix(caller, KERNELS["gaussian"], regularization=1e-6)
    rows, cols = np.arange(0, N, 7), np.arange(0, N, 5)
    before = matrix.entries(rows, cols)
    caller[:] += 1.0
    assert np.array_equal(matrix.entries(rows, cols), before)
    assert np.array_equal(before, oracle_block(matrix, rows, cols))
    with pytest.raises(ValueError):
        matrix.coordinates[0, 0] = 0.0


def test_chunks_cover_every_entry_once():
    for shape in [(1, 1, 1), (17, 64, 64), (4, 128, 128), (1, 640, 300), (1, 16384, 1), (1, 1, 50000), (3, 0, 5)]:
        out = np.zeros(shape)
        for _, _, view, scratch in elementwise_chunks(out):
            assert view.shape == scratch.shape and view.flags.c_contiguous
            view += 1.0
        assert np.all(out == 1.0)


@pytest.mark.parametrize("distance_class", [KernelDistance, AngleDistance])
@pytest.mark.parametrize("source", ["kernel", "dense"])
def test_gram_distances_match_their_formulas(points, distance_class, source):
    matrix = KernelMatrix(points[:1000], KERNELS["laplace"], regularization=1e-6)
    if source == "dense":
        matrix = DenseSPD(matrix.to_dense())
    distance = distance_class(matrix)
    diag = distance.diag
    rng = np.random.default_rng(5)

    def formula(r, c):
        k = matrix.entries(r, c)
        if distance_class is KernelDistance:
            d = diag[r][:, None] + diag[c][None, :] - 2.0 * k
        else:
            d = 1.0 - (k * k) / (diag[r][:, None] * diag[c][None, :])
        return np.clip(d, 0.0, None)

    for p, k in [(1, 1), (640, 300), (1000, 1), (33, 700)]:
        rows, cols = rng.integers(0, 1000, p), rng.integers(0, 1000, k)
        got, evaluations = counted(matrix, lambda: distance.pairwise(rows, cols))
        assert np.array_equal(got, formula(rows, cols)) and evaluations == p * k
    rows = rng.integers(0, 1000, (9, 128))
    stacked, evaluations = counted(matrix, lambda: distance.pairwise_blocks(rows, rows))
    assert evaluations == 9 * 128 * 128
    for b in range(9):
        assert np.array_equal(stacked[b], formula(rows[b], rows[b]))


def test_concurrent_callers_get_the_serial_results(points):
    """Four threads (more than this suite's cores) share one matrix; scratch is per call."""
    matrix = KernelMatrix(points, KERNELS["matern"], regularization=1e-6)
    distance = KernelDistance(matrix)
    rng = np.random.default_rng(6)
    calls = []
    for i in range(24):
        g, p, k = [(17, 64, 64), (1, 640, 300), (4, 128, 128), (1, 16384, 1)][i % 4]
        calls.append((rng.integers(0, N, (g, p)), rng.integers(0, N, (g, k)), i % 3 == 0))

    def run(call):
        rows, cols, as_distance = call
        if as_distance:
            return distance.pairwise_blocks(rows, cols)
        return np.stack(matrix.entries_batched(rows, cols))

    serial = [run(call) for call in calls]
    before = matrix.entry_evaluations
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(run, call) for call in calls]
            concurrent = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for expected, got in zip(serial, concurrent):
        assert np.array_equal(expected, got)
    assert matrix.entry_evaluations - before == sum(r.size * c.shape[1] for r, c, _ in calls)

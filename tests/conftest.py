"""Shared fixtures for the test suite.

Fixtures keep the problem sizes small (N ≤ 512) so the whole suite runs in
a couple of minutes while still exercising multi-level trees (several
levels below the root) and every code path of the compression pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GOFMMConfig
from repro.matrices import DenseSPD, KernelMatrix
from repro.matrices.kernels import GaussianKernel
from repro.storage import read_array_dir, write_array_dir


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_gaussian_kernel_matrix(n: int = 256, d: int = 3, bandwidth: float = 1.0, seed: int = 0) -> KernelMatrix:
    """Well-conditioned Gaussian kernel matrix on clustered points."""
    gen = np.random.default_rng(seed)
    centers = gen.standard_normal((4, d)) * 3.0
    points = np.vstack([c + gen.standard_normal((n // 4 + 1, d)) for c in centers])[:n]
    return KernelMatrix(points, GaussianKernel(bandwidth=bandwidth), regularization=1e-8, name="test-gaussian")


def make_random_spd(n: int = 64, seed: int = 0, decay: float = 2.0) -> DenseSPD:
    """Random SPD matrix with controllable spectral decay (no geometric structure)."""
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    eigenvalues = np.array([1.0 / (1 + k) ** decay for k in range(n)])
    a = (q * eigenvalues) @ q.T
    a = 0.5 * (a + a.T) + 1e-10 * np.eye(n)
    return DenseSPD(a, name="random-spd")


def _pop_stored_near_blocks(arrays) -> dict:
    """Every listed near block of a row-slab store, both directions of a folded
    pair included, popped out of ``arrays`` (``(β, α)`` → block)."""
    sizes = np.diff(arrays["node_offsets"])
    near_indptr, near_cols = arrays["near_indptr"], arrays["near_cols"]
    shapes, offsets = arrays.pop("near_slab_shapes"), arrays.pop("near_slab_offsets")
    leaves, data = arrays.pop("near_slab_leaves"), arrays.pop("near_slab_data")
    col_indptr = arrays.pop("near_slab_col_indptr", None)
    cols, mirror = arrays.pop("near_slab_cols", None), arrays.pop("near_slab_mirror", None)
    blocks, start = {}, 0
    for (g, m, width), offset in zip(shapes, offsets):
        slab = data[offset : offset + g * m * width].reshape(g, m, width)
        for i, (row, beta) in enumerate(zip(slab, leaves[start : start + g]), start):
            if col_indptr is None:          # a full-row store: the leaf's Near list
                row_cols = near_cols[near_indptr[beta] : near_indptr[beta + 1]]
                flags = np.zeros(row_cols.size, dtype=bool)
            else:
                row_cols = cols[col_indptr[i] : col_indptr[i + 1]]
                flags = mirror[col_indptr[i] : col_indptr[i + 1]]
            col = 0
            for alpha, flag in zip(row_cols, flags):
                block = row[:, col : col + sizes[alpha]]
                blocks[int(beta), int(alpha)] = block
                if flag:
                    blocks[int(alpha), int(beta)] = np.ascontiguousarray(block.T)
                col += sizes[alpha]
        start += g
    return blocks


def rewrite_in_flat_layout(path) -> None:
    """Rewrite a store's near row slabs as key-ordered flat ``near_block_*``
    arrays holding every listed direction, the layout of earlier writers."""
    manifest, arrays = read_array_dir(path, mmap=False)
    blocks = _pop_stored_near_blocks(arrays)
    keys = sorted(blocks)
    block_shapes = np.array([blocks[k].shape for k in keys], dtype=np.intp).reshape(-1, 2)
    indptr = np.zeros(len(keys) + 1, dtype=np.intp)
    np.cumsum(block_shapes[:, 0] * block_shapes[:, 1], out=indptr[1:])
    arrays["near_block_keys"] = np.array(keys, dtype=np.intp).reshape(-1, 2)
    arrays["near_block_shapes"] = block_shapes
    arrays["near_block_indptr"] = indptr
    arrays["near_block_data"] = np.concatenate([blocks[k].ravel() for k in keys] or [np.empty(0)])
    write_array_dir(path, manifest, arrays)


def rewrite_in_full_row_layout(path) -> None:
    """Rewrite a store's near row slabs as full rows without a column table,
    the layout of writers before each symmetric pair was stored once: every
    leaf's row is its whole Near list, applied one way, one slab per row
    shape in leaf order."""
    manifest, arrays = read_array_dir(path, mmap=False)
    blocks = _pop_stored_near_blocks(arrays)
    sizes = np.diff(arrays["node_offsets"])
    near_indptr, near_cols = arrays["near_indptr"], arrays["near_cols"]
    groups = {}
    for beta in range(sizes.size):
        cols = near_cols[near_indptr[beta] : near_indptr[beta + 1]]
        if cols.size:
            row = np.hstack([blocks[beta, int(alpha)] for alpha in cols])
            groups.setdefault(row.shape, []).append((beta, row))
    members = [member for group in groups.values() for member in group]
    arrays["near_slab_shapes"] = np.array(
        [(len(group),) + shape for shape, group in groups.items()], dtype=np.intp
    ).reshape(-1, 3)
    offsets = np.zeros(len(groups) + 1, dtype=np.intp)
    np.cumsum([len(group) * shape[0] * shape[1] for shape, group in groups.items()], out=offsets[1:])
    arrays["near_slab_offsets"] = offsets
    arrays["near_slab_leaves"] = np.array([beta for beta, _ in members], dtype=np.intp)
    arrays["near_slab_data"] = np.concatenate([row.ravel() for _, row in members] or [np.empty(0)])
    write_array_dir(path, manifest, arrays)


@pytest.fixture(scope="session")
def kernel_matrix() -> KernelMatrix:
    return make_gaussian_kernel_matrix(n=256, d=3, bandwidth=1.5, seed=0)


@pytest.fixture(scope="session")
def small_kernel_matrix() -> KernelMatrix:
    return make_gaussian_kernel_matrix(n=96, d=2, bandwidth=1.0, seed=1)


@pytest.fixture(scope="session")
def random_spd_matrix() -> DenseSPD:
    return make_random_spd(n=96, seed=2)


@pytest.fixture()
def small_config() -> GOFMMConfig:
    """Configuration sized for N≈100–300 test problems (multi-level tree)."""
    return GOFMMConfig(
        leaf_size=32,
        max_rank=32,
        tolerance=1e-7,
        neighbors=8,
        budget=0.25,
        num_neighbor_trees=4,
        seed=0,
    )


@pytest.fixture()
def hss_small_config(small_config) -> GOFMMConfig:
    return small_config.replace(budget=0.0)

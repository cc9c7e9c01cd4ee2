"""Unit tests for the interpolative decomposition (pivoted-QR ID)."""

import numpy as np
import pytest

from repro.linalg import interpolative_decomposition
from repro.linalg.id import batched_interpolative_decomposition, id_reconstruction


def low_rank_matrix(p, n, rank, seed=0, noise=0.0):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((p, rank)) @ gen.standard_normal((rank, n))
    if noise:
        a += noise * gen.standard_normal((p, n))
    return a


class TestExactRank:
    def test_exact_low_rank_recovery(self):
        a = low_rank_matrix(60, 40, rank=7, seed=1)
        decomposition = interpolative_decomposition(a, max_rank=20, tolerance=1e-10)
        assert decomposition.rank == 7
        err = np.linalg.norm(id_reconstruction(a, decomposition) - a) / np.linalg.norm(a)
        assert err < 1e-10

    def test_full_rank_matrix_uses_cap(self):
        gen = np.random.default_rng(2)
        a = gen.standard_normal((50, 30))
        decomposition = interpolative_decomposition(a, max_rank=10, tolerance=1e-15)
        assert decomposition.rank == 10

    def test_identity_coefficients_on_skeleton(self):
        a = low_rank_matrix(40, 25, rank=5, seed=3)
        decomposition = interpolative_decomposition(a, max_rank=10, tolerance=1e-12)
        sub = decomposition.coeffs[:, decomposition.skeleton]
        assert np.allclose(sub, np.eye(decomposition.rank), atol=1e-10)


class TestAdaptiveRank:
    def test_tolerance_controls_rank(self):
        # Singular values decay geometrically; looser tolerance => smaller rank.
        gen = np.random.default_rng(4)
        u, _ = np.linalg.qr(gen.standard_normal((80, 80)))
        v, _ = np.linalg.qr(gen.standard_normal((50, 50)))
        s = np.array([10.0 ** (-k / 2) for k in range(50)])
        a = u[:, :50] @ np.diag(s) @ v.T
        loose = interpolative_decomposition(a, max_rank=50, tolerance=1e-2)
        tight = interpolative_decomposition(a, max_rank=50, tolerance=1e-8)
        assert loose.rank < tight.rank

    def test_tighter_tolerance_lowers_error(self):
        a = low_rank_matrix(60, 40, rank=40, seed=5, noise=0.0)
        errs = []
        for tol in (1e-1, 1e-3, 1e-6):
            dec = interpolative_decomposition(a, max_rank=40, tolerance=tol)
            errs.append(np.linalg.norm(id_reconstruction(a, dec) - a) / np.linalg.norm(a))
        assert errs[0] >= errs[1] >= errs[2]

    def test_non_adaptive_uses_max_rank(self):
        a = low_rank_matrix(30, 20, rank=3, seed=6)
        dec = interpolative_decomposition(a, max_rank=10, tolerance=1e-1, adaptive=False)
        assert dec.rank == 10

    def test_error_bounded_by_trailing_singular_values(self):
        gen = np.random.default_rng(7)
        a = gen.standard_normal((64, 48))
        dec = interpolative_decomposition(a, max_rank=20, tolerance=0.0, adaptive=False)
        err = np.linalg.norm(id_reconstruction(a, dec) - a, 2)
        sigma = np.linalg.svd(a, compute_uv=False)
        # Column ID error is bounded by a modest polynomial factor of sigma_{k+1}.
        assert err <= 50.0 * sigma[20]


class TestEdgeCases:
    def test_zero_matrix(self):
        dec = interpolative_decomposition(np.zeros((10, 6)), max_rank=4, tolerance=1e-8)
        assert dec.rank == 0
        assert dec.coeffs.shape == (0, 6)

    def test_empty_matrix(self):
        dec = interpolative_decomposition(np.zeros((0, 5)), max_rank=4)
        assert dec.rank == 0

    def test_no_columns(self):
        dec = interpolative_decomposition(np.zeros((5, 0)), max_rank=4)
        assert dec.rank == 0
        assert dec.coeffs.shape[1] == 0

    def test_single_column(self):
        a = np.arange(1.0, 6.0).reshape(5, 1)
        dec = interpolative_decomposition(a, max_rank=3, tolerance=1e-10)
        assert dec.rank == 1
        assert np.allclose(id_reconstruction(a, dec), a)

    def test_rank_one_cap(self):
        a = low_rank_matrix(20, 15, rank=6, seed=8)
        dec = interpolative_decomposition(a, max_rank=1, tolerance=1e-12)
        assert dec.rank == 1

    def test_skeleton_indices_are_valid_columns(self):
        a = low_rank_matrix(30, 12, rank=4, seed=9)
        dec = interpolative_decomposition(a, max_rank=6, tolerance=1e-10)
        assert np.all(dec.skeleton >= 0)
        assert np.all(dec.skeleton < 12)
        assert len(np.unique(dec.skeleton)) == dec.rank

    def test_reconstruct_method(self):
        a = low_rank_matrix(25, 18, rank=5, seed=10)
        dec = interpolative_decomposition(a, max_rank=8, tolerance=1e-12)
        recon = dec.reconstruct(a[:, dec.skeleton])
        assert np.allclose(recon, a, atol=1e-8)


class TestBatchedID:
    """batched_interpolative_decomposition vs the per-block reference."""

    @pytest.mark.parametrize("adaptive,tolerance,max_rank", [(True, 1e-6, 10), (False, 0.0, 10)])
    def test_padded_stack_matches_per_block(self, adaptive, tolerance, max_rank):
        rng = np.random.default_rng(7)
        g, P, K = 12, 40, 24
        stack = np.zeros((g, P, K))
        blocks, rc, cc = [], [], []
        for i in range(g):
            p, k = int(rng.integers(8, P + 1)), int(rng.integers(3, K + 1))
            r = int(rng.integers(1, min(p, k) + 1))
            b = rng.standard_normal((p, r)) @ rng.standard_normal((r, k))
            b += 1e-10 * rng.standard_normal((p, k))
            blocks.append(b)
            rc.append(p)
            cc.append(k)
            stack[i, :p, :k] = b
        results = batched_interpolative_decomposition(
            stack, max_rank, tolerance, adaptive=adaptive,
            row_counts=np.array(rc), col_counts=np.array(cc),
        )
        for i in range(g):
            ref = interpolative_decomposition(blocks[i], max_rank, tolerance, adaptive=adaptive)
            assert results[i].rank == ref.rank
            assert np.array_equal(results[i].skeleton, ref.skeleton)
            if ref.rank:
                approx_ref = blocks[i][:, ref.skeleton] @ ref.coeffs
                approx_bat = blocks[i][:, results[i].skeleton] @ results[i].coeffs
                scale = np.linalg.norm(blocks[i])
                assert np.linalg.norm(approx_bat - blocks[i]) <= np.linalg.norm(
                    approx_ref - blocks[i]
                ) + 1e-9 * scale

    @pytest.mark.parametrize("trial", range(20))
    def test_block_result_independent_of_bucket_mates(self, trial):
        """A block decomposes bitwise alike alone and beside a higher-rank mate.

        The subtree fan-out slices a tree level across threads, so which
        blocks share a bucket varies with the worker count.
        """
        rng = np.random.default_rng(100 + trial)
        P, K, max_rank = 32, 32, 24
        low_rank = int(rng.integers(2, 9))
        low = low_rank_matrix(P, K, low_rank, seed=200 + trial, noise=1e-12)
        high = low_rank_matrix(P, K, int(rng.integers(low_rank + 4, max_rank + 1)), seed=300 + trial)
        alone = batched_interpolative_decomposition(low[None], max_rank, 1e-8)[0]
        paired, mate = batched_interpolative_decomposition(np.stack([low, high]), max_rank, 1e-8)
        assert alone.rank == low_rank < mate.rank
        assert paired.rank == alone.rank
        assert np.array_equal(paired.skeleton, alone.skeleton)
        assert np.array_equal(paired.coeffs, alone.coeffs)

    def test_padding_never_enters_skeleton(self):
        rng = np.random.default_rng(1)
        stack = np.zeros((9, 16, 16))
        cc = np.full(9, 5)
        stack[:, :10, :5] = rng.standard_normal((9, 10, 5))
        results = batched_interpolative_decomposition(
            stack, 16, 0.0, adaptive=False, row_counts=np.full(9, 10), col_counts=cc
        )
        for res in results:
            assert res.rank <= 5
            assert np.all(res.skeleton < 5)
            assert res.coeffs.shape[1] == 5

    def test_empty_and_zero_blocks(self):
        stack = np.zeros((8, 6, 4))
        results = batched_interpolative_decomposition(stack, 4, 1e-8, adaptive=True)
        assert all(r.rank == 0 for r in results)
        assert batched_interpolative_decomposition(np.zeros((0, 4, 4)), 4) == []

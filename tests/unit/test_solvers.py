"""Unit tests for the CG solver, the block-Jacobi preconditioner and the HSS factor."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

import repro.solvers as solvers
from repro import EvaluationError, GOFMMConfig, compress
from repro.api import Session
from repro.config import DistanceMetric
from repro.matrices import DenseSPD, build_matrix
from repro.solvers import (
    BlockJacobiPreconditioner,
    HSSFactor,
    conjugate_gradient,
    has_hss_structure,
    make_preconditioner,
    solve,
)

from ..conftest import make_gaussian_kernel_matrix, make_random_spd


@pytest.fixture(scope="module")
def compressed_pair():
    matrix = make_gaussian_kernel_matrix(n=200, d=3, bandwidth=1.5, seed=0)
    config = GOFMMConfig(
        leaf_size=25, max_rank=25, tolerance=1e-9, neighbors=8,
        budget=0.3, num_neighbor_trees=3, distance=DistanceMetric.KERNEL, seed=0,
    )
    return matrix, compress(matrix, config)


class TestConjugateGradient:
    def test_solves_dense_spd_system(self):
        matrix = make_random_spd(60, seed=0, decay=1.0)
        a = matrix.array + 0.1 * np.eye(60)
        b = np.random.default_rng(0).standard_normal(60)
        result = conjugate_gradient(lambda v: a @ v, b, tolerance=1e-10, max_iterations=300)
        assert result.converged
        assert np.linalg.norm(a @ result.solution - b) / np.linalg.norm(b) < 1e-8

    def test_shift_applied(self):
        matrix = make_random_spd(40, seed=1, decay=1.0)
        a = matrix.array
        b = np.random.default_rng(1).standard_normal(40)
        result = conjugate_gradient(lambda v: a @ v, b, shift=0.5, tolerance=1e-10)
        assert result.converged
        assert np.allclose((a + 0.5 * np.eye(40)) @ result.solution, b, atol=1e-6)

    def test_residual_history_monotone_overall(self):
        matrix = make_random_spd(50, seed=2, decay=1.5)
        a = matrix.array + 0.2 * np.eye(50)
        b = np.ones(50)
        result = conjugate_gradient(lambda v: a @ v, b, tolerance=1e-12, max_iterations=200)
        assert result.residual_history[-1] < result.residual_history[0]
        assert result.iterations == len(result.residual_history) - 1

    def test_rejects_higher_dimensional_rhs(self):
        with pytest.raises(EvaluationError):
            conjugate_gradient(lambda v: v, np.zeros((5, 2, 2)))

    def test_zero_rhs_converges_immediately(self):
        result = conjugate_gradient(lambda v: v, np.zeros(10))
        assert result.converged
        assert result.iterations == 0

    @pytest.mark.parametrize("columns", [None, 3])
    def test_zero_initial_guess_skips_the_a0_product(self, columns):
        matrix = make_random_spd(50, seed=8, decay=1.0)
        a = matrix.array + 0.1 * np.eye(50)
        shape = (50,) if columns is None else (50, columns)
        b = np.random.default_rng(8).standard_normal(shape)
        calls = []

        def matvec(v):
            calls.append(v.shape)
            return a @ v

        implicit = conjugate_gradient(matvec, b, tolerance=1e-10)
        implicit_calls = len(calls)
        calls.clear()
        explicit = conjugate_gradient(matvec, b, tolerance=1e-10, x0=np.zeros(shape))
        assert implicit.converged
        assert implicit_calls == implicit.iterations
        assert len(calls) == explicit.iterations + 1
        assert np.array_equal(implicit.solution, explicit.solution)
        assert implicit.residual_history == explicit.residual_history


class TestBlockedConjugateGradient:
    def test_multi_rhs_matches_column_by_column(self):
        matrix = make_random_spd(60, seed=4, decay=1.0)
        a = matrix.array + 0.1 * np.eye(60)
        b = np.random.default_rng(4).standard_normal((60, 5))
        blocked = conjugate_gradient(lambda v: a @ v, b, tolerance=1e-10, max_iterations=300)
        assert blocked.converged
        assert blocked.solution.shape == (60, 5)
        assert blocked.column_converged.shape == (5,)
        assert blocked.column_converged.all()
        for j in range(5):
            single = conjugate_gradient(lambda v: a @ v, b[:, j], tolerance=1e-10, max_iterations=300)
            assert np.allclose(blocked.solution[:, j], single.solution, atol=1e-7)

    def test_multi_rhs_residuals_small(self):
        matrix = make_random_spd(50, seed=5, decay=1.5)
        a = matrix.array + 0.2 * np.eye(50)
        b = np.random.default_rng(5).standard_normal((50, 3))
        result = conjugate_gradient(lambda v: a @ v, b, tolerance=1e-10, max_iterations=300)
        res = np.linalg.norm(a @ result.solution - b, axis=0) / np.linalg.norm(b, axis=0)
        assert np.all(res < 1e-8)
        assert np.all(result.column_residual_norms >= 0)

    def test_single_column_block_matches_vector_path(self):
        matrix = make_random_spd(40, seed=6, decay=1.0)
        a = matrix.array + 0.1 * np.eye(40)
        b = np.random.default_rng(6).standard_normal(40)
        vec = conjugate_gradient(lambda v: a @ v, b, tolerance=1e-10)
        blk = conjugate_gradient(lambda v: a @ v, b[:, None], tolerance=1e-10)
        assert blk.solution.shape == (40, 1)
        assert np.allclose(vec.solution, blk.solution[:, 0], atol=1e-12)
        assert vec.iterations == blk.iterations

    def test_multi_rhs_with_preconditioner(self):
        diag = np.logspace(0, 5, 64)
        a = np.diag(diag)
        b = np.random.default_rng(7).standard_normal((64, 4))
        plain = conjugate_gradient(lambda v: a @ v, b, tolerance=1e-10, max_iterations=2000)
        precond = conjugate_gradient(
            lambda v: a @ v, b, tolerance=1e-10, max_iterations=2000,
            preconditioner=lambda r: r / diag[:, None] if r.ndim == 2 else r / diag,
        )
        assert precond.converged
        assert precond.iterations < plain.iterations or plain.iterations == 2000

    def test_solve_accepts_block_rhs(self, compressed_pair):
        matrix, cm = compressed_pair
        b = np.random.default_rng(8).standard_normal((matrix.n, 3))
        result = solve(cm, b, shift=1.0, tolerance=1e-8, max_iterations=400)
        assert result.solution.shape == (matrix.n, 3)
        assert result.converged
        # The compressed solve approximately inverts the true shifted matrix
        # (the residual floor is the compression error, not the CG tolerance).
        dense = matrix.to_dense() + 1.0 * np.eye(matrix.n)
        res = np.linalg.norm(dense @ result.solution - b, axis=0) / np.linalg.norm(b, axis=0)
        assert np.all(res < 5e-2)

    def test_preconditioner_reduces_iterations(self):
        # Ill-conditioned diagonal system: Jacobi preconditioning should help a lot.
        diag = np.logspace(0, 6, 80)
        a = np.diag(diag)
        b = np.random.default_rng(3).standard_normal(80)
        plain = conjugate_gradient(lambda v: a @ v, b, tolerance=1e-10, max_iterations=2000)
        precond = conjugate_gradient(
            lambda v: a @ v, b, tolerance=1e-10, max_iterations=2000, preconditioner=lambda r: r / diag
        )
        assert precond.converged
        assert precond.iterations < plain.iterations or plain.iterations == 2000


class TestBlockJacobi:
    def test_applies_inverse_of_leaf_blocks(self, compressed_pair):
        matrix, cm = compressed_pair
        precond = BlockJacobiPreconditioner(cm, shift=0.0)
        r = np.random.default_rng(0).standard_normal(matrix.n)
        z = precond(r)
        # For each leaf, K_leaf @ z_leaf == r_leaf.
        leaf = cm.tree.leaves[0]
        block = matrix.entries(leaf.indices, leaf.indices)
        assert np.allclose(block @ z[leaf.indices], r[leaf.indices], atol=1e-8)

    def test_shift_incorporated(self, compressed_pair):
        matrix, cm = compressed_pair
        shift = 0.7
        precond = BlockJacobiPreconditioner(cm, shift=shift)
        r = np.random.default_rng(1).standard_normal(matrix.n)
        z = precond(r)
        leaf = cm.tree.leaves[1]
        block = matrix.entries(leaf.indices, leaf.indices) + shift * np.eye(leaf.size)
        assert np.allclose(block @ z[leaf.indices], r[leaf.indices], atol=1e-8)


class TestSolve:
    def test_cg_solves_the_compressed_operator_exactly(self, compressed_pair):
        """Against K̃ itself (its dense form), CG converges to the true solution."""
        matrix, cm = compressed_pair
        shift = 0.1
        b = np.random.default_rng(2).standard_normal(matrix.n)
        result = solve(cm, b, shift=shift, tolerance=1e-12, max_iterations=2000)
        assert result.converged
        dense_tilde = cm.to_dense() + shift * np.eye(matrix.n)
        exact = np.linalg.solve(dense_tilde, b)
        rel = np.linalg.norm(result.solution - exact) / np.linalg.norm(exact)
        assert rel < 1e-8

    def test_solution_close_to_true_system_for_well_conditioned_shift(self, compressed_pair):
        """With a shift that keeps the system well conditioned, the K̃-solve tracks the K-solve."""
        matrix, cm = compressed_pair
        shift = 0.5
        b = np.random.default_rng(2).standard_normal(matrix.n)
        result = solve(cm, b, shift=shift, tolerance=1e-10, max_iterations=2000)
        assert result.converged
        dense = matrix.to_dense() + shift * np.eye(matrix.n)
        exact = np.linalg.solve(dense, b)
        rel = np.linalg.norm(result.solution - exact) / np.linalg.norm(exact)
        assert rel < 5e-2

    def test_unpreconditioned_option(self, compressed_pair):
        matrix, cm = compressed_pair
        b = np.ones(matrix.n)
        result = solve(cm, b, shift=0.1, tolerance=1e-8, use_preconditioner=False)
        assert result.converged

    def test_preconditioning_does_not_increase_iterations_much(self, compressed_pair):
        matrix, cm = compressed_pair
        b = np.random.default_rng(3).standard_normal(matrix.n)
        plain = solve(cm, b, shift=0.1, tolerance=1e-8, use_preconditioner=False, max_iterations=2000)
        precond = solve(cm, b, shift=0.1, tolerance=1e-8, use_preconditioner=True, max_iterations=2000)
        assert precond.converged
        assert precond.iterations <= plain.iterations * 1.5 + 5


# -- the HSS factor ----------------------------------------------------------------

#: Rank policies of the factor lattice: adaptive (ranks up to the leaf width, so
#: some nodes keep every unknown) and fixed.
_RANK_CASES = {
    "adaptive": dict(tolerance=1e-7, max_rank=32),
    "fixed": dict(max_rank=24, adaptive_rank=False),
}


@pytest.fixture(
    scope="module",
    params=[(name, n, case) for name in ("K05", "G03") for n in (256, 250) for case in _RANK_CASES],
    ids=lambda p: f"{p[0]}-{'uniform' if p[1] == 256 else 'ragged'}-{p[2]}",
)
def hss_case(request):
    name, n, case = request.param
    config = GOFMMConfig(leaf_size=32, budget=0.0, seed=0, **_RANK_CASES[case])
    cm = compress(build_matrix(name, n=n), config)
    return cm, cm.to_dense()


def _relative(x: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(x - reference) / np.linalg.norm(reference))


def _storage_bound(cm) -> int:
    """8 bytes × (Σ leaf |β|² + Σ internal (s_l + s_r)² + Σ non-root s²)."""
    entries = 0
    for node in cm.tree.nodes:
        if node.is_leaf:
            entries += node.size**2
        else:
            entries += (node.left.skeleton_rank + node.right.skeleton_rank) ** 2
        if not node.is_root:
            entries += node.skeleton_rank**2
    return 8 * entries


class TestHSSFactor:
    """The factor is the exact inverse: it matches a dense solve of ``K̃ + σI``."""

    @pytest.mark.parametrize("shift", [1e-2, 10.0])
    def test_matches_dense_solve(self, hss_case, shift):
        cm, dense = hss_case
        assert has_hss_structure(cm)
        factor = HSSFactor(cm, shift=shift)
        b = np.random.default_rng(0).standard_normal((cm.n, 3))
        expected = np.linalg.solve(dense + shift * np.eye(cm.n), b)
        assert _relative(factor(b), expected) <= 1e-12
        assert _relative(factor(b[:, 0]), expected[:, 0]) <= 1e-12
        assert factor(b[:, 0]).shape == (cm.n,)

    def test_storage_guard(self, hss_case):
        cm, _ = hss_case
        assert HSSFactor(cm, shift=1.0).nbytes <= _storage_bound(cm)

    def test_rank_zero_nodes(self):
        """Uncoupled blocks give rank-0 skeletons; their subtrees decouple exactly."""
        n, coupled = 128, 48
        dense = np.eye(n)
        spd = np.random.default_rng(0).standard_normal((coupled, coupled))
        dense[:coupled, :coupled] = spd @ spd.T / n + np.eye(coupled)
        config = GOFMMConfig(
            leaf_size=16, max_rank=8, tolerance=1e-3, budget=0.0, secure_accuracy=False,
            distance=DistanceMetric.LEXICOGRAPHIC,
        )
        cm = compress(DenseSPD(dense), config)
        ranks = [node.skeleton_rank for node in cm.tree.nodes if not node.is_root]
        assert 0 in ranks and max(ranks) > 0
        assert has_hss_structure(cm)
        b = np.random.default_rng(1).standard_normal((n, 2))
        factor = HSSFactor(cm, shift=0.5)
        expected = np.linalg.solve(cm.to_dense() + 0.5 * np.eye(n), b)
        assert _relative(factor(b), expected) <= 1e-12
        assert factor.nbytes <= _storage_bound(cm)

    def test_single_leaf_tree(self):
        matrix = make_random_spd(24, seed=9, decay=1.0)
        cm = compress(matrix, GOFMMConfig(leaf_size=32, max_rank=8, budget=0.0))
        assert cm.tree.root.is_leaf and has_hss_structure(cm)
        b = np.random.default_rng(9).standard_normal(24)
        expected = np.linalg.solve(matrix.array + 0.3 * np.eye(24), b)
        assert _relative(HSSFactor(cm, shift=0.3)(b), expected) <= 1e-12


@pytest.fixture(scope="module")
def hss_operator():
    matrix = build_matrix("K05", n=512)
    return Session(matrix, GOFMMConfig(leaf_size=64, max_rank=32, budget=0.0, seed=0)).compress()


class TestPreconditionerChoice:
    def test_hss_operator_gets_the_factor_and_solves_in_one_iteration(self, hss_operator):
        assert isinstance(hss_operator.preconditioner(1.0), HSSFactor)
        assert hss_operator.preconditioner(1.0) is hss_operator.preconditioner(1.0)
        b = np.random.default_rng(2).standard_normal((hss_operator.n, 4))
        result = hss_operator.solve(b, shift=1.0, tolerance=1e-10)
        assert result.converged and result.iterations == 1
        expected = np.linalg.solve(hss_operator.compressed.to_dense() + np.eye(hss_operator.n), b)
        assert _relative(result.solution, expected) <= 1e-12

    def test_both_entry_points_agree(self, hss_operator):
        b = np.random.default_rng(3).standard_normal(hss_operator.n)
        direct = solve(hss_operator.compressed, b, shift=1.0, tolerance=1e-10)
        assert direct.iterations == 1
        assert np.array_equal(direct.solution, hss_operator.solve(b, shift=1.0, tolerance=1e-10).solution)

    def test_non_hss_operator_gets_block_jacobi(self, compressed_pair):
        _, cm = compressed_pair
        assert not has_hss_structure(cm)
        assert isinstance(make_preconditioner(cm, shift=1.0), BlockJacobiPreconditioner)

    def test_far_lists_must_be_siblings(self, hss_operator):
        cm = hss_operator.compressed
        far = {**cm.lists.far, cm.tree.leaves[0].node_id: []}
        lists = dataclasses.replace(cm.lists, far=far)
        assert lists.is_hss()
        assert not has_hss_structure(dataclasses.replace(cm, lists=lists))

    def test_missing_coefficients_fall_back(self):
        cm = compress(build_matrix("K05", n=256), GOFMMConfig(leaf_size=32, max_rank=16, budget=0.0))
        node = next(n for n in cm.tree.nodes if not n.is_root and n.skeleton_rank > 0)
        node.coeffs = None
        with pytest.raises(EvaluationError, match="coefficients"):
            HSSFactor(cm, shift=1.0)
        assert isinstance(make_preconditioner(cm, shift=1.0), BlockJacobiPreconditioner)

    def test_factorization_breakdown_falls_back(self, hss_operator, monkeypatch):
        def broken(*args, **kwargs):
            raise solvers.sla.LinAlgError("forced breakdown")

        monkeypatch.setattr(solvers.sla, "lu_factor", broken)
        with pytest.raises(EvaluationError, match="forced breakdown"):
            HSSFactor(hss_operator.compressed, shift=1.0)
        preconditioner = make_preconditioner(hss_operator.compressed, shift=1.0)
        assert isinstance(preconditioner, BlockJacobiPreconditioner)

    def test_concurrent_solves_are_identical(self, hss_operator):
        """More threads than cores share one cached factor; every answer is the same array."""
        b = np.random.default_rng(4).standard_normal((hss_operator.n, 2))
        expected = hss_operator.solve(b, shift=2.0, tolerance=1e-10).solution
        results = [[] for _ in range(8)]

        def worker(i):
            for _ in range(5):
                results[i].append(hss_operator.solve(b, shift=2.0, tolerance=1e-10).solution)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        answers = [answer for per_thread in results for answer in per_thread]
        assert len(answers) == 40
        assert all(np.array_equal(answer, expected) for answer in answers)

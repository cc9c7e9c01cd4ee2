"""`scipy.sparse.linalg.LinearOperator`-compatible compressed operator.

:class:`CompressedOperator` wraps the :class:`~repro.core.hmatrix.CompressedMatrix`
a session produced and presents it as a first-class SciPy linear operator:
``_matvec`` / ``_rmatvec`` / ``_matmat`` dispatch to the default
evaluation engine (chosen by block residency), so the operator drops
directly into ``scipy.sparse.linalg.cg`` / ``gmres`` / ``lobpcg`` /
``aslinearoperator`` and any other consumer of the ``LinearOperator``
protocol.  On top of the
protocol it carries the library-native conveniences: ``solve`` (CG on the
compressed matvec, preconditioned by the factor of the operator's HSS part —
a direct solve for HSS operators, where that factor is the exact inverse),
``relative_error`` (the paper's ε2),
and the rank / storage / plan / interaction reports.

**Thread safety.**  ``matvec`` / ``matmat`` / ``apply`` / ``solve`` are safe
to call from concurrent threads on one operator — the serving runtime
(:mod:`repro.serving`) does exactly that.  The compressed representation
(tree, both plans, cached blocks) is immutable after compression; all
per-call state lives in per-call contexts, whose skeleton workspaces come
from a small thread-safe pool on the plan
(:meth:`repro.core.streaming.StreamingPlan.new_context`), with chunk
buffers allocated per call.  Two caveats: the FLOP
``counters`` carried by the underlying :class:`CompressedMatrix` (and the
source matrix's ``entry_evaluations``, which streamed matvecs advance) are
updated without a lock (concurrent calls may under-count — they are
diagnostics, never results), and the first ``plan()`` /
``streaming_plan()`` build is not synchronized, so prebuild the default
engine's plan before fanning out threads — the server does this at
registration.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Optional

import numpy as np
from scipy.sparse.linalg import LinearOperator

from ..core.compress import CompressionReport
from ..core.hmatrix import CompressedMatrix

__all__ = ["CompressedOperator", "OperatorReport"]

#: Schema version of the dict :meth:`OperatorReport.__call__` returns.
#: v2 adds ``stage_seconds`` — the per-stage wall-clock breakdown of the
#: compression (the report's ``phase_seconds``, empty for stages that were
#: reused from a session cache or for operators opened from a store).
REPORT_SCHEMA_VERSION = 2


class OperatorReport(CompressionReport):
    """The operator's compression report, callable for the stable summary.

    Field access (``operator.report.average_rank``, ``isinstance(...,
    CompressionReport)``) behaves exactly like the wrapped
    :class:`~repro.core.compress.CompressionReport`; *calling* it —
    ``operator.report()`` — returns a stable-schema dict whose keys are
    always present, including the live ``bytes_resident`` /
    ``bytes_on_disk`` memory split of the operator's representation
    (mmap-opened stores report their coefficients and blocks on disk).

    It holds the :class:`CompressedMatrix`, not the operator: the operator
    holds the report, and a reference back would make every operator cyclic
    garbage, keeping an mmap-opened store mapped until a ``gc.collect()``.
    """

    def __init__(self, compressed: CompressedMatrix, base: Optional[CompressionReport] = None) -> None:
        base = base if base is not None else CompressionReport()
        super().__init__(
            **{f.name: getattr(base, f.name) for f in dataclasses.fields(CompressionReport)}
        )
        self._compressed = compressed

    def __call__(self) -> dict:
        compressed = self._compressed
        memory = compressed.memory_report()
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "n": int(compressed.n),
            "engine": compressed.default_engine(),
            "bytes_resident": int(memory["bytes_resident"]),
            "bytes_on_disk": int(memory["bytes_on_disk"]),
            "average_rank": float(self.average_rank),
            "max_rank": int(self.max_rank),
            "num_leaves": int(self.num_leaves),
            "tree_depth": int(self.tree_depth),
            "near_pairs": int(self.near_pairs),
            "far_pairs": int(self.far_pairs),
            "compression_seconds": float(self.total_seconds),
            "stage_seconds": {
                phase: float(seconds) for phase, seconds in self.phase_seconds.items()
            },
        }


class CompressedOperator(LinearOperator):
    """A compressed SPD operator ``K̃ ≈ K`` with the SciPy operator protocol.

    ``K̃`` is symmetric by construction (symmetrized interaction lists), so
    the adjoint product reuses the forward matvec.  ``operator @ w`` and
    ``operator.matmat(w)`` evaluate all right-hand sides in one wide-GEMM
    pass of the default engine's plan.
    """

    #: Preconditioners kept per operator (one per distinct shift).
    _PRECONDITIONER_CACHE_MAX = 8

    def __init__(self, compressed: CompressedMatrix, report: Optional[CompressionReport] = None) -> None:
        self.compressed = compressed
        # ``report`` is both the compression report (attribute access, the
        # historical contract) and callable for the stable summary dict with
        # the bytes_resident / bytes_on_disk split.
        self.report = OperatorReport(compressed, report)
        # Preconditioners per shift, built once and shared across solves (they
        # are read-only after construction): a serving batch of solves must not
        # re-factor the operator per request batch.
        self._preconditioners: dict[float, object] = {}
        self._preconditioner_lock = threading.Lock()
        super().__init__(dtype=np.dtype(compressed.config.dtype), shape=compressed.shape)

    # -- out-of-core persistence --------------------------------------------------
    def save(self, path) -> None:
        """Persist the operator as a format-v2 store directory.

        The directory (``manifest.json`` + per-array ``.npy`` files) is the
        out-of-core counterpart of ``Session.save_artifacts``: it carries
        the *complete* compressed representation — tree, skeletons,
        coefficients, interaction lists and every cached block — so
        :meth:`open` can cold-start a serving replica without the source
        matrix or any recompression.
        """
        from ..storage.store import OperatorStore

        OperatorStore.save(self, path)

    @classmethod
    def open(
        cls, path, resident: str = "mmap", matrix=None, **config_overrides
    ) -> "CompressedOperator":
        """Open an operator store directory written by :meth:`save`.

        ``resident="mmap"`` (default) keeps coefficients and cached blocks
        as read-only mmap views — the OS pages them in on demand, so the
        operator cold-starts with near-zero resident footprint and serves
        through the ``"streamed"`` engine's bounded workspace.
        ``resident="ram"`` loads everything eagerly (the classic behavior:
        a fully cached store runs the ``"planned"`` engine).  ``matrix``
        re-attaches the source SPD matrix — required for stores saved from
        memoryless compressions (no cached blocks), and for an FMM store's
        solves to get the HSS-part factor (near siblings' couplings are
        evaluated from it; without it they use block-Jacobi).  Extra keyword
        arguments override config fields of the opened operator (e.g.
        ``streaming_chunk_bytes=...`` to re-budget the workspace).
        """
        from ..storage.store import OperatorStore

        store = OperatorStore(path)
        compressed = store.open(resident=resident, matrix=matrix, **config_overrides)
        return cls(compressed)

    # -- LinearOperator protocol ------------------------------------------------
    def _matvec(self, x: np.ndarray) -> np.ndarray:
        return self.compressed.matvec(x)

    def _rmatvec(self, x: np.ndarray) -> np.ndarray:
        return self.compressed.matvec_transpose(x)

    def _matmat(self, X: np.ndarray) -> np.ndarray:
        return self.compressed.matvec(X)

    def _adjoint(self) -> "CompressedOperator":
        return self  # symmetric

    # -- engine-aware products ---------------------------------------------------
    def apply(self, w: np.ndarray, engine: Optional[str] = None) -> np.ndarray:
        """Shape-preserving product ``K̃ w`` with an explicit engine choice.

        Unlike :meth:`matvec` (which follows SciPy's strict vector-shape
        contract), ``apply`` accepts ``(N,)`` or ``(N, r)`` and forwards
        ``engine`` to the underlying :class:`CompressedMatrix`.
        """
        return self.compressed.matvec(w, engine=engine)

    def default_engine(self) -> str:
        return self.compressed.default_engine()

    # -- solving / accuracy -------------------------------------------------------
    def preconditioner(self, shift: float = 0.0):
        """The preconditioner for ``K̃ + shift·I``, cached per shift.

        :func:`repro.solvers.make_preconditioner` picks it: every operator
        gets the :class:`~repro.solvers.HSSFactor` of its HSS part — the
        exact inverse of an HSS operator (every Near list the leaf, every
        Far list the sibling), a preconditioner for an FMM one — unless it
        cannot be built (no matrix to evaluate a sibling coupling from, or
        an HSS part that is not positive definite at this shift); then the
        block-Jacobi factors of the leaf diagonal blocks.  Either costs as
        much as several CG iterations to build, so a server answering a
        stream of solves pays it once per operator and shift, not once per
        request batch.  The returned object is immutable and safe to share across
        threads.  The cache is bounded (oldest shift evicted) so request
        streams sweeping ``shift`` — a client-controllable solve parameter
        — cannot grow memory without limit.
        """
        from ..solvers import make_preconditioner

        key = float(shift)
        with self._preconditioner_lock:
            preconditioner = self._preconditioners.pop(key, None)
            if preconditioner is not None:
                # re-insert on hit: insertion order approximates LRU, so a
                # sweep of fresh shifts evicts cold entries, not the hot one
                self._preconditioners[key] = preconditioner
        if preconditioner is not None:
            return preconditioner
        # Build outside the lock: the factorization is expensive and must not
        # serialize concurrent solves with other shifts (racing builders of
        # the same shift duplicate work once; the first insert wins).
        preconditioner = make_preconditioner(self.compressed, shift=key)
        with self._preconditioner_lock:
            existing = self._preconditioners.get(key)
            if existing is not None:
                return existing
            while len(self._preconditioners) >= self._PRECONDITIONER_CACHE_MAX:
                self._preconditioners.pop(next(iter(self._preconditioners)))
            self._preconditioners[key] = preconditioner
        return preconditioner

    def solve(
        self,
        rhs: np.ndarray,
        shift: float = 0.0,
        tolerance: float = 1e-8,
        max_iterations: int = 500,
        use_preconditioner: bool = True,
        engine: Optional[str] = None,
    ):
        """Solve ``(K̃ + shift·I) x = b`` with preconditioned CG.

        For an HSS operator the preconditioner is the exact inverse, so
        this is a direct solve: CG converges in one iteration (one matvec
        plus one factor application).  An FMM operator runs CG
        preconditioned by the inverse of its HSS part, in a handful of
        iterations.  ``rhs`` may be a vector or an ``(N, k)`` block
        of right-hand sides; the blocked solver evaluates all Krylov
        products as one wide GEMM per iteration.  The preconditioner is
        cached per ``shift`` (see :meth:`preconditioner`), so repeated
        solves — a serving workload — skip the per-call factorization of
        :func:`repro.solvers.solve`.  Returns a :class:`repro.solvers.CGResult`.
        """
        from ..solvers import conjugate_gradient

        return conjugate_gradient(
            matvec=lambda v: self.compressed.matvec(v, engine=engine),
            rhs=rhs,
            shift=shift,
            tolerance=tolerance,
            max_iterations=max_iterations,
            preconditioner=self.preconditioner(shift) if use_preconditioner else None,
        )

    def relative_error(
        self,
        num_rhs: int = 10,
        num_sample_rows: int = 100,
        rng: np.random.Generator | None = None,
        engine: Optional[str] = None,
    ) -> float:
        """Sampled ε2 of the compression against its source matrix."""
        return self.compressed.relative_error(
            num_rhs=num_rhs, num_sample_rows=num_sample_rows, rng=rng, engine=engine
        )

    # -- reports ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.compressed.n

    @property
    def config(self):
        return self.compressed.config

    @property
    def tree(self):
        return self.compressed.tree

    @property
    def lists(self):
        return self.compressed.lists

    def rank_summary(self) -> dict:
        return self.compressed.rank_summary()

    def storage_report(self) -> dict:
        return self.compressed.storage_report()

    def plan_report(self) -> dict:
        return self.compressed.plan_report()

    def interaction_report(self) -> dict:
        return self.compressed.interaction_report()

    def evaluation_flops(self, num_rhs: int = 1) -> float:
        return self.compressed.evaluation_flops(num_rhs)

    def __repr__(self) -> str:
        cfg = self.compressed.config
        return (
            f"<CompressedOperator {self.shape[0]}x{self.shape[1]} dtype={self.dtype} "
            f"engine={self.default_engine()} budget={cfg.budget:g} tol={cfg.tolerance:g}>"
        )

"""End-to-end pass: the path a user walks, timed from outside with tracing off.

compress -> (plan) -> matvec -> recompress -> solve -> (save) -> open(mmap) ->
first matvec -> file-backed panel matvec, walked ``reps`` times; eps2 at the end.

Only the five public names below are imported, so this file survives the
refactors ROADMAP plans for everything underneath them.  Everything else is
reached through attributes of the objects those names return.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro import GOFMMConfig
from repro.api import CompressedOperator, Session
from repro.matrices import build_matrix

from .stats import median


@dataclass
class Inputs:
    """Everything generated from the seed; the program sees only these."""

    matrix: object
    config: GOFMMConfig
    weights: np.ndarray          # (n, panel_cols) matvec block
    rhs: np.ndarray              # (n, 4) solve right-hand sides
    panel_weights: np.ndarray    # (n, panel_rhs) for the file-backed path; starts with `weights`
    seed: int


#: The point cloud (K05 / K07: four random clusters) or graph (G03) belongs to the workload,
#: not to the run: seeding it moves ranks 2x and CG iterations +-25 %, so every seed would be a
#: different workload and no spread across seeds could be told from noise (README, protocol).
GEOMETRY_SEED = 0


def make_inputs(spec, seed: int) -> Inputs:
    """``seed`` drives the randomised algorithm (tree, ANN, sampling) and every vector."""
    matrix = build_matrix(spec.matrix, spec.n, seed=GEOMETRY_SEED)
    config = GOFMMConfig(seed=seed, **spec.config)
    rng = np.random.default_rng([seed, 1])
    panel_weights = rng.standard_normal((spec.n, spec.panel_rhs))
    return Inputs(
        matrix=matrix,
        config=config,
        weights=np.ascontiguousarray(panel_weights[:, :spec.panel_cols]),
        rhs=rng.standard_normal((spec.n, 4)),
        panel_weights=panel_weights,
        seed=seed,
    )


@dataclass
class Tally:
    """Timing samples by metric name plus the attempted / failed operation count."""

    samples: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failures: list = field(default_factory=list)     # one line per failed operation

    @property
    def failed(self) -> int:
        return len(self.failures)

    @contextmanager
    def timed(self, name: str):
        start = time.perf_counter()
        yield
        self.samples[name].append(time.perf_counter() - start)

    def check(self, ok: bool, what: str) -> None:
        """One operation attempted; a false ``ok`` is a failed one."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def close(a: np.ndarray, b: np.ndarray, rtol: float = 1e-10) -> bool:
    """``allclose`` with the absolute floor scaled to the reference's magnitude."""
    return bool(np.allclose(a, b, rtol=rtol, atol=rtol * float(np.max(np.abs(b)))))


def solve_residual(op, solution, rhs, shift: float) -> float:
    """Worst-column ``||(K~ + shift I) x - b|| / ||b||``, recomputed from the operator."""
    residual = op.apply(solution) + shift * solution - rhs
    return float(np.max(np.linalg.norm(residual, axis=0) / np.linalg.norm(rhs, axis=0)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Cold starts timed per rep: the noisiest phase (page faults, file opens), so it gets two.
OPENS_PER_REP = 2


def eps2_of(op, seed: int) -> float:
    """The paper's sampled relative error of ``op``; repeats exactly at a fixed seed."""
    return float(op.relative_error(rng=np.random.default_rng(seed + 2)))


def run(spec, inputs: Inputs, scale: float, scratch: str) -> Tally:
    """The end-to-end pass; ``scale`` is ``--seconds`` over the benchmark's ``run_seconds``.

    One rep walks the whole path on a freshly compressed operator, so every
    metric gets one sample per rep (``matvec_s``: the median of the rep's
    calls; ``store_open_matvec_s``: two), spread over the run: a burst of
    noise from outside costs some samples of each metric, never all samples
    of one.  Each rep drops the previous session first: without the collect
    the blocks stage is bimodal (README, protocol).
    """
    tally = Tally()
    weights, shift, tolerance = inputs.weights, spec.solve_shift, spec.solve_tolerance
    store = os.path.join(scratch, "operator.store")
    w_path, u_path = os.path.join(scratch, "w.npy"), os.path.join(scratch, "u.npy")
    np.save(w_path, inputs.panel_weights)
    session = op = opened = plan = None
    # A fixed count, not a deadline: every run of a workload does the same work.
    for rep in range(max(1, round(spec.reps * scale))):
        session = op = opened = plan = None          # noqa: F841 - frees the previous rep
        gc.collect()
        session = Session(inputs.matrix, inputs.config)
        with tally.timed("compress_s"):
            op = session.compress()
        tally.check(op.shape == (spec.n, spec.n), "compress shape")

        if op.default_engine() == "planned":         # plan prebuilt: matvecs time execution only
            op.compressed.plan()
        else:
            op.compressed.streaming_plan()
        calls = []
        for _ in range(spec.matvec_calls):
            start = time.perf_counter()
            reference = op.apply(weights)
            calls.append(time.perf_counter() - start)
            tally.check(bool(np.isfinite(reference).all()), "matvec finite")
        tally.samples["matvec_s"].append(median(calls))

        with tally.timed("recompress_s"):
            looser = session.recompress(tolerance=10 * inputs.config.tolerance)
        tally.check(
            set(session.last_reused) >= {"partition", "neighbors"}, "recompress reused stages"
        )
        del looser

        op.preconditioner(shift)                     # cached: the solve times CG, not the factoring
        with tally.timed("solve_s"):
            result = op.solve(inputs.rhs, shift=shift, tolerance=tolerance)
        residual = solve_residual(op, result.solution, inputs.rhs, shift)
        tally.check(
            bool(result.converged) and residual <= 1.01 * tolerance,
            f"solve converged={result.converged} residual={residual:.3e}",
        )

        if rep == 0:                                 # compress repeats exactly, so one store serves
            op.save(store)                           # every rep: each must reproduce its own matvec
            os.sync()                                # opens below must not race the write-back
        for _ in range(OPENS_PER_REP):
            # An opened operator is cyclic garbage; until a collection unmaps it its store
            # pages count in RSS, and when that happens moved peak_rss_mb by 13 % with the seed.
            opened = plan = None
            gc.collect()
            with tally.timed("store_open_matvec_s"):
                opened = CompressedOperator.open(store, resident="mmap", matrix=inputs.matrix)
                answer = opened.apply(weights)
            tally.check(close(answer, reference), "mmap-opened matvec != in-memory matvec")

        # Out of core on both sides: mmap'd store, RHS and result in .npy files.
        plan = opened.compressed.streaming_plan()
        with tally.timed("panel_matvec_s"):
            plan.execute(w_path, out=u_path, panel_cols=spec.panel_cols)
        # the first panel is `weights`, so its answer is `reference` at matched width
        first_panel = np.load(u_path, mmap_mode="r")[:, :spec.panel_cols]
        tally.check(close(first_panel, reference), "panel output != in-memory matvec")
        del first_panel
        if rep == 0:        # the high-water mark of one walk; later reps only add what the
            tally.samples["peak_rss_mb"].append(peak_rss_mb())      # pinned heap did not reuse

    eps2 = eps2_of(op, inputs.seed)
    tally.samples["eps2"].append(eps2)
    tally.check(eps2 <= spec.eps2_ceiling, f"eps2 {eps2:.3e} > {spec.eps2_ceiling:g}")
    tally.samples["cg_iterations"].append(result.iterations)
    return tally

"""Neighbor-search backend registry.

The iterative ANN search of Algorithm 2.2 (steps 1–3) has interchangeable
execution back ends, mirroring the evaluation-engine registry of
:mod:`repro.core.engines`.  A backend's contract is

    ``run(distance, config, rng) -> NeighborTable``

where ``rng`` is the neighbors-stage generator with nothing consumed yet.
Backends are registered here by name;
``core/neighbors.py``'s :func:`~repro.core.neighbors.all_nearest_neighbors`
and the :class:`~repro.config.GOFMMConfig` validation both consult the
registry, so a new backend plugs in with one :func:`register` call and no
call-site changes::

    from repro.core import neighbor_backends

    def run_mine(distance, config, rng):
        ...

    neighbor_backends.register("mine", run_mine)
    GOFMMConfig(neighbor_backend="mine")   # validates against the registry

Built-ins:

``"reference"``
    the per-row merge loop (one :func:`~repro.core.neighbors._merge_candidates`
    call per index, per leaf, per tree) — the correctness oracle.
``"blocked"`` (default)
    one vectorized pass per batch of leaves: the leaf distance blocks are
    stacked, ``argpartition``'d along the last axis, and merged into the
    global table by :func:`~repro.core.neighbors.merge_candidate_block`
    with no per-row Python.
``"sharded"``
    the blocked leaf pass fanned out over a ``fork`` process pool
    (``config.neighbor_workers``): each projection-tree iteration draws
    its seed from the shared schedule and writes its candidate table into
    a shared-memory slab; the parent merges the slabs *in iteration
    order* and applies the convergence check per iteration, so the
    resulting table is identical for any worker count (iterations
    speculatively computed past convergence are discarded).

All three consume the identical rng stream and share the merge
tie-breaking rules, so they return bit-identical tables — the parity
tests pin this, and it is why ``neighbor_workers`` stays out of every
stage fingerprint while ``neighbor_backend`` participates only as a
cache key for the artifact's provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import CompressionError, WorkerCrashError
from ..obs import counters as _obs_counters
from ..obs import get_logger
from .distances import Distance
from .sharding import SharedSlab, SupervisedPool, fork_available
from .tree import build_tree

_LOG = get_logger("core.neighbor_backends")

__all__ = [
    "NeighborBackendSpec",
    "register",
    "unregister",
    "get_neighbor_backend",
    "available_neighbor_backends",
    "is_registered",
]

# A backend body: (distance, config, rng) -> NeighborTable
NeighborBackendFn = Callable[..., object]


@dataclass(frozen=True)
class NeighborBackendSpec:
    """One registered neighbor-search backend.

    ``exact_parity`` marks backends that honor the shared rng-stream and
    merge-tie-breaking contract (bit-identical tables to ``"reference"``);
    third-party backends with their own randomness or merge discipline may
    set it to ``False``.
    """

    name: str
    run: NeighborBackendFn = field(repr=False)
    exact_parity: bool = True
    description: str = ""

    def __call__(self, distance, config, rng):
        return self.run(distance, config, rng)


_REGISTRY: dict[str, NeighborBackendSpec] = {}


def register(
    name: str,
    run: NeighborBackendFn,
    *,
    exact_parity: bool = True,
    description: str = "",
    overwrite: bool = False,
) -> NeighborBackendSpec:
    """Register a neighbor backend under ``name`` and return its spec."""
    if not name or not isinstance(name, str):
        raise CompressionError(f"neighbor backend name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not overwrite:
        raise CompressionError(
            f"neighbor backend {name!r} is already registered (pass overwrite=True to replace)"
        )
    spec = NeighborBackendSpec(name=name, run=run, exact_parity=exact_parity, description=description)
    _REGISTRY[name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a registered backend (built-ins may be removed too; tests use this)."""
    if name not in _REGISTRY:
        raise CompressionError(f"neighbor backend {name!r} is not registered")
    del _REGISTRY[name]


def get_neighbor_backend(name: str) -> NeighborBackendSpec:
    """Look up a backend by name; raises with the list of known backends."""
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(_REGISTRY))
        raise CompressionError(f"unknown neighbor backend {name!r}; registered backends: {known}")
    return spec


def available_neighbor_backends() -> tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def is_registered(name: str) -> bool:
    return name in _REGISTRY


# ---------------------------------------------------------------------------
# built-in backends
# ---------------------------------------------------------------------------
# Bodies import repro.core.neighbors lazily: neighbors.py dispatches through
# this registry, and config validation imports this module, so a top-level
# import of neighbors here would cycle.


def _iterate_trees(distance: Distance, config, rng: np.random.Generator, tree_pass) -> "object":
    """The shared single-process iteration driver of the reference/blocked backends.

    Initializes the table, materializes the seed schedule, then per
    iteration builds the projection tree, runs ``tree_pass`` over its
    leaves, and applies the set-overlap convergence check.  A pass returns
    ``(touched, overlap)`` — how many rows it merged and their integer
    :func:`~repro.core.neighbors.row_set_overlap` sum against their
    previous contents; skipped rows are bitwise-untouched distinct rows
    contributing exactly κ each, so the reconstructed fraction equals the
    full-table :func:`~repro.core.neighbors.unchanged_fraction` bit for bit.
    """
    from . import neighbors as nb

    n = distance.n
    kappa = min(config.neighbors, n)
    idx_table, dist_table = nb.init_table(n, kappa, rng)
    seeds = nb.tree_seed_schedule(rng, config.num_neighbor_trees)

    converged = False
    iterations = 0
    for it, seed in enumerate(seeds):
        iterations = it + 1
        tree = build_tree(
            n, config, distance, rng=np.random.default_rng(seed), randomized_pivots=True
        )
        touched, overlap = tree_pass(tree, distance, idx_table, dist_table, kappa, screen=it > 0)
        unchanged = (overlap + (n - touched) * kappa) / (n * kappa) if kappa else 1.0
        if unchanged >= config.neighbor_accuracy_target and it > 0:
            converged = True
            break
    return nb.NeighborTable(
        indices=idx_table, distances=dist_table, iterations=iterations, converged=converged
    )


def _reference_pass(tree, distance, idx_table, dist_table, kappa, screen=False):
    from .neighbors import _leaf_exhaustive_update, row_set_overlap

    previous = idx_table.copy()
    for leaf in tree.leaves:
        _leaf_exhaustive_update(leaf.indices, distance, idx_table, dist_table, kappa)
    return idx_table.shape[0], int(row_set_overlap(previous, idx_table).sum())


def _blocked_pass(tree, distance, idx_table, dist_table, kappa, screen=True):
    from .neighbors import leaf_candidate_batches, screened_merge

    leaves = [leaf.indices for leaf in tree.leaves]
    touched = 0
    overlap = 0
    for rows, cand_idx, cand_dist in leaf_candidate_batches(leaves, distance, kappa):
        merged, part = screened_merge(idx_table, dist_table, rows, cand_idx, cand_dist, screen=screen)
        touched += merged.size
        overlap += part
    return touched, overlap


def _run_reference(distance, config, rng):
    return _iterate_trees(distance, config, rng, _reference_pass)


def _run_blocked(distance, config, rng):
    return _iterate_trees(distance, config, rng, _blocked_pass)


# -- sharded ----------------------------------------------------------------

#: Read-only state the forked workers inherit (set in the parent right
#: before the pool forks, cleared right after it joins).
_SHARD: Optional[dict] = None


def _neighbor_shard_task(task: tuple[int, int, int, int]) -> int:
    """One worker unit: (slot, seed, chunk, num_chunks).

    Builds (or reuses, per process) the iteration's projection tree and
    writes its share of the leaves' κ-NN candidates into slab slot
    ``slot``.  Unused candidate columns of short leaves are padded with
    the row's own index at distance ``+inf``, which the parent-side merge
    discards for free (the row's self entry at distance 0 always wins the
    dedup).  Leaf chunks partition the leaf list, so any chunk count
    yields the same slab contents.
    """
    slot, seed, chunk, num_chunks = task
    from .neighbors import leaf_candidate_batches

    state = _SHARD
    distance = state["distance"]
    config = state["config"]
    kappa = state["kappa"]
    cached = state.get("tree")
    if cached is None or cached[0] != seed:
        tree = build_tree(
            distance.n, config, distance, rng=np.random.default_rng(seed), randomized_pivots=True
        )
        state["tree"] = (seed, tree)  # visible only inside this worker process
    tree = state["tree"][1]

    leaves = [leaf.indices for leaf in tree.leaves]
    mine = leaves[chunk::num_chunks]
    idx_out = state["idx"].array[slot]
    dist_out = state["dist"].array[slot]
    for rows, cand_idx, cand_dist in leaf_candidate_batches(mine, distance, kappa):
        k_local = cand_idx.shape[1]
        idx_out[rows, :k_local] = cand_idx
        dist_out[rows, :k_local] = cand_dist
        if k_local < kappa:
            idx_out[rows, k_local:] = rows[:, None]
            dist_out[rows, k_local:] = np.inf
    return slot


def _finish_blocked(distance, config, idx_table, dist_table, remaining_seeds, iterations, kappa):
    """Finish an interrupted sharded search sequentially, bit-identically.

    Resumes from the current table state and the *remaining* seed schedule
    with the blocked backend's per-iteration pass + convergence check.
    Iterations are merged in the same seed order with the same screening
    rule (``screen`` from the second global iteration on), so the table
    trajectory is exactly what the healthy sharded run — and the blocked
    backend — would have produced.
    """
    from . import neighbors as nb

    n = distance.n
    converged = False
    for seed in remaining_seeds:
        iterations += 1
        tree = build_tree(
            n, config, distance, rng=np.random.default_rng(seed), randomized_pivots=True
        )
        touched, overlap = _blocked_pass(
            tree, distance, idx_table, dist_table, kappa, screen=iterations > 1
        )
        unchanged = (overlap + (n - touched) * kappa) / (n * kappa) if kappa else 1.0
        if unchanged >= config.neighbor_accuracy_target and iterations > 1:
            converged = True
            break
    return nb.NeighborTable(
        indices=idx_table, distances=dist_table, iterations=iterations, converged=converged
    )


def _run_sharded(distance, config, rng):
    """Wave-parallel tree iterations over a fork pool + shared-memory slabs.

    Worker-count invariance: the seed schedule is fixed up front, every
    iteration's candidates depend only on its seed, and the parent merges
    slab slots strictly in iteration order with the convergence check
    applied after each merge — so the table trajectory is the blocked
    backend's, bit for bit, regardless of ``neighbor_workers`` (waves
    merely bound how many iterations are speculatively in flight; overshoot
    past convergence is discarded).

    Supervision: tasks run on a :class:`~repro.core.sharding.SupervisedPool`
    (killed/stalled workers detected and retried, safe because every task
    rewrites its full slab slot); past the retry budget the search *resumes
    sequentially* from the current table and the remaining seeds
    (:func:`_finish_blocked`) — same trajectory, one process.
    """
    from . import neighbors as nb

    workers = max(1, config.neighbor_workers)
    if workers == 1 or not fork_available() or config.num_neighbor_trees <= 1:
        return _run_blocked(distance, config, rng)

    n = distance.n
    kappa = min(config.neighbors, n)
    idx_table, dist_table = nb.init_table(n, kappa, rng)
    seeds = nb.tree_seed_schedule(rng, config.num_neighbor_trees)
    wave = min(workers, len(seeds))

    all_rows = np.arange(n, dtype=np.intp)
    converged = False
    iterations = 0

    global _SHARD
    from contextlib import ExitStack

    with ExitStack() as stack:
        # Slabs join the stack as they are created so no later failure
        # (allocation, crashed pool, injected fault) leaks a segment.
        idx_slab = stack.enter_context(SharedSlab((wave, n, kappa), np.int64))
        dist_slab = stack.enter_context(SharedSlab((wave, n, kappa), np.float64))
        _SHARD = {
            "distance": distance,
            "config": config,
            "kappa": kappa,
            "idx": idx_slab,
            "dist": dist_slab,
        }
        try:
            supervised = stack.enter_context(
                SupervisedPool(
                    workers,
                    retries=config.shard_retries,
                    task_timeout=config.shard_task_timeout_s,
                    label="neighbors.sharded",
                )
            )
            start = 0
            while start < len(seeds) and not converged:
                batch = seeds[start : start + wave]
                # Split leaf work within iterations so a partial wave (or a
                # final lone iteration) still occupies every worker.
                chunks = max(1, workers // len(batch))
                tasks = [
                    (slot, seed, chunk, chunks)
                    for slot, seed in enumerate(batch)
                    for chunk in range(chunks)
                ]
                try:
                    supervised.map(_neighbor_shard_task, tasks)
                except WorkerCrashError as exc:
                    _LOG.warning(
                        "sharded neighbor search exhausted its retry budget (%s); "
                        "finishing the remaining %d iteration(s) single-process",
                        exc,
                        len(seeds) - start,
                    )
                    _obs_counters.add("faults_degraded")
                    _SHARD = None
                    return _finish_blocked(
                        distance, config, idx_table, dist_table,
                        seeds[start:], iterations, kappa,
                    )
                for slot in range(len(batch)):
                    iterations += 1
                    touched, overlap = nb.screened_merge(
                        idx_table,
                        dist_table,
                        all_rows,
                        idx_slab.array[slot],
                        dist_slab.array[slot],
                        screen=iterations > 1,
                    )
                    unchanged = (overlap + (n - touched.size) * kappa) / (n * kappa) if kappa else 1.0
                    if unchanged >= config.neighbor_accuracy_target and iterations > 1:
                        converged = True
                        break
                start += len(batch)
        finally:
            _SHARD = None

    return nb.NeighborTable(
        indices=idx_table, distances=dist_table, iterations=iterations, converged=converged
    )


register(
    "reference",
    _run_reference,
    description="per-row candidate merges (correctness oracle)",
)
register(
    "blocked",
    _run_blocked,
    description="vectorized per-leaf-batch candidate merges (default)",
)
register(
    "sharded",
    _run_sharded,
    description="blocked passes fanned out over a fork pool (neighbor_workers)",
)

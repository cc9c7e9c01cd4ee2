"""Staged compression sessions with reusable pipeline artifacts.

A :class:`Session` owns the compression pipeline as seven first-class,
individually cached stage artifacts (see :mod:`repro.api.stages`).  Each
artifact records the exact :class:`~repro.config.GOFMMConfig` fields it was
built under; :meth:`Session.recompress` replaces config fields, rebuilds
only the stages those fields (or their upstream) touch, and reuses the
rest.  Changing only ``tolerance`` / ``budget`` / ``max_rank`` — the knobs
every ablation sweeps — reuses the ball tree and the ANN table, which
dominate compression cost at large n, so a warm sweep point costs
O(skeletonize) instead of O(full pipeline); a ``tolerance`` sweep also
shares the near blocks (most of the cached bytes) between its operators.

Typical usage::

    from repro.api import Session

    session = Session(matrix, config)
    operator = session.compress()                  # cold: every stage runs
    op_tight = session.recompress(tolerance=1e-7)  # warm: skeletonize onward
    op_wide = session.recompress(budget=0.1)       # warm: lists onward

    x = operator.solve(b).solution                 # PCG; direct for HSS (budget=0)
    eigs = scipy.sparse.linalg.lobpcg(operator, X) # SciPy operator protocol

    # A family of operators (e.g. kernel bandwidths) on one shared partition:
    other = session.attach(other_matrix)
    op_other = other.compress()                    # no new ANN / tree work

Results are identical to the one-shot :func:`repro.core.compress.compress`
path: both run the same stage functions, and every stage draws from its own
deterministic generator (:func:`repro.core.compress.stage_rng`), so reuse
never shifts downstream randomness.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

import importlib
import itertools
from contextlib import nullcontext

from ..config import DistanceMetric, GOFMMConfig
from ..core.compress import CompressionReport, _PhaseTimer
from ..obs import get_logger
from ..obs.trace import NULL_TRACER, Tracer, get_tracer, tracing

# ``repro.core`` re-exports the ``compress`` *function*, which shadows the
# submodule under ``from ..core import compress`` — resolve the module itself
# so the stage functions stay monkeypatchable at ``repro.core.compress.*``.
_pipeline = importlib.import_module(__name__.rsplit(".", 2)[0] + ".core.compress")
from ..core.hmatrix import CompressedMatrix
from ..errors import ArtifactMismatchError, CompressionError, ConfigurationError
from ..matrices.base import as_spd_matrix
from .operator import CompressedOperator
from .stages import (
    STAGE_ORDER,
    STAGE_UPSTREAM,
    FarBlocks,
    Interactions,
    NearBlocks,
    Neighbors,
    Partition,
    Plan,
    Skeletons,
    changed_fields,
    invalidated_stages,
    stage_fingerprint,
)

__all__ = ["Session"]

_LOG = get_logger("api.session")

#: CompressionReport phase name for each pipeline stage (matches the
#: monolithic :func:`repro.core.compress.compress` report keys).
_PHASE_NAME = {
    "partition": "tree",
    "neighbors": "neighbors",
    "interactions": "lists",
    "skeletons": "skeletonization",
    "near_blocks": "caching",
    "far_blocks": "caching",
    "plan": "plan",
}

#: Stages whose artifacts never touch matrix entries beyond the distance
#: oracle — these are shared with sessions created by :meth:`Session.attach`.
_SHARED_ON_ATTACH = ("partition", "neighbors", "interactions")


def _jsonable_fingerprint(fingerprint: dict) -> dict:
    """A stage fingerprint as JSON-stable values (enums to their string value)."""
    return {
        key: (value.value if isinstance(value, DistanceMetric) else value)
        for key, value in sorted(fingerprint.items())
    }


def _fingerprint_matches(stored: dict, config, stage: str) -> bool:
    """Whether a saved stage fingerprint agrees with ``config`` on every tracked field.

    Only the keys of the current ``STAGE_FIELDS[stage]`` are compared, so a
    key that names a retired config field is ignored and artifacts saved
    before it was retired still load; a missing or differing tracked key
    is a mismatch.
    """
    current = _jsonable_fingerprint(stage_fingerprint(config, stage))
    return all(key in stored and stored[key] == value for key, value in current.items())


#: Monotonic artifact version numbers.  Global (not per-session) because
#: :meth:`Session.attach` shares cache entries across sessions — versions
#: must stay unique so upstream-identity checks cannot collide.
_VERSION_COUNTER = itertools.count(1)


@dataclass
class _CachedStage:
    """One cached artifact plus the provenance it was built under.

    ``fingerprint`` snapshots the artifact's own config fields;
    ``upstream_versions`` records the exact versions of the upstream
    artifacts it was built from.  An entry is valid only when both still
    match — comparing versions (rather than remembering what was rebuilt
    in the current pass) keeps the cache consistent even when a compress()
    pass aborts between stage rebuilds.
    """

    value: object
    fingerprint: dict
    version: int = 0
    upstream_versions: dict = None


class Session:
    """Staged compression of one SPD matrix with reusable pipeline artifacts.

    Parameters
    ----------
    matrix:
        an :class:`repro.matrices.base.SPDMatrix`, dense array, or
        ``(callback, n)`` pair — anything :func:`as_spd_matrix` accepts.
    config:
        the initial :class:`GOFMMConfig` (default: paper defaults).
    coordinates:
        optional point coordinates for the geometric distance.
    tracer:
        an optional :class:`repro.obs.Tracer`.  When given (or when
        ``config.telemetry`` is true, which creates one), every
        ``compress()`` installs it as the process-wide active tracer for
        its duration, so stage spans, per-level skeletonization spans and
        any nested evaluation spans land in one trace.  Export it with
        :func:`repro.obs.write_chrome_trace`.
    """

    def __init__(
        self,
        matrix,
        config: Optional[GOFMMConfig] = None,
        coordinates: Optional[np.ndarray] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.matrix = as_spd_matrix(matrix)
        if self.matrix.n < 2:
            raise CompressionError("cannot compress a 1x1 matrix")
        self._config = config or GOFMMConfig()
        self.coordinates = coordinates
        self.tracer = tracer if tracer is not None else (
            Tracer() if self._config.telemetry else NULL_TRACER
        )
        self._cache: dict[str, _CachedStage] = {}
        self._distance = None
        self._distance_metric = None
        #: Seconds spent in the most recent build of each stage (plus the
        #: ``"distance"`` oracle when it ran); see :attr:`stage_timings`.
        self._stage_seconds: dict[str, float] = {}
        #: How many times each stage has actually been built by this session.
        self.stage_builds: Counter = Counter()
        #: Stages rebuilt / reused by the most recent compress() call.
        self.last_built: tuple[str, ...] = ()
        self.last_reused: tuple[str, ...] = ()

    # -- configuration ---------------------------------------------------------
    @property
    def config(self) -> GOFMMConfig:
        return self._config

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def stage_timings(self) -> dict[str, float]:
        """Seconds spent building each pipeline stage (most recent build).

        Keys are the stage names of :data:`~repro.api.stages.STAGE_ORDER`
        (plus ``"distance"`` when the distance oracle was rebuilt); stages
        never built by this session are absent, reused stages keep the
        timing of their last actual build.  Wall-clock accurate: each value
        is the ``perf_counter`` interval around that stage's build call.
        """
        return dict(self._stage_seconds)

    def stale_stages(self, **changes) -> frozenset:
        """Stages :meth:`recompress` would rebuild for the given config changes.

        Includes stages that have never been built.  With no arguments this
        reports what a plain :meth:`compress` call would have to build.
        """
        new_config = self._config.replace(**changes) if changes else self._config
        stale = set(invalidated_stages(changed_fields(self._config, new_config)))
        for stage in STAGE_ORDER:
            if not self._entry_valid(stage, stage_fingerprint(new_config, stage)):
                stale.add(stage)
        # Cascade: anything downstream of a stale stage is stale too.
        for stage in STAGE_ORDER:
            if any(up in stale for up in STAGE_UPSTREAM[stage]):
                stale.add(stage)
        return frozenset(stale)

    def artifact(self, stage: str):
        """The cached artifact for a stage, or ``None`` if not built."""
        entry = self._cache.get(stage)
        return entry.value if entry is not None else None

    def invalidate(self, *stages: str) -> frozenset:
        """Drop cached stage artifacts so the next :meth:`compress` rebuilds them.

        Everything downstream of a dropped stage is dropped too (it could
        not be reused anyway — its upstream version no longer exists).
        With no arguments every stage is dropped.  Returns the set of
        stages removed.  This is the supported way for tooling (e.g. the
        compression benchmark) to force warm rebuilds of specific stages.
        """
        targets = set(stages) if stages else set(STAGE_ORDER)
        unknown = targets - set(STAGE_ORDER)
        if unknown:
            raise CompressionError(
                f"unknown stage(s) {sorted(unknown)}; stages are {list(STAGE_ORDER)}"
            )
        for stage in STAGE_ORDER:  # build order: cascade downstream
            if any(up in targets for up in STAGE_UPSTREAM[stage]):
                targets.add(stage)
        for stage in targets:
            self._cache.pop(stage, None)
        return frozenset(targets)

    # -- pipeline --------------------------------------------------------------
    def _distance_oracle(self, timer: Optional[_PhaseTimer] = None):
        """The distance object, rebuilt only when the metric changes."""
        if self._distance is None or self._distance_metric != self._config.distance:
            t0 = time.perf_counter()
            with (timer("distance") if timer is not None else nullcontext()):
                with get_tracer().span("session.distance"):
                    self._distance = _pipeline.run_distance_stage(self.matrix, self._config, self.coordinates)
            self._stage_seconds["distance"] = time.perf_counter() - t0
            self._distance_metric = self._config.distance
        return self._distance

    def _entry_valid(self, stage: str, fingerprint: dict) -> bool:
        """Whether the cached entry for ``stage`` is current.

        Valid iff its own config fields are unchanged *and* every direct
        upstream artifact is still the exact artifact (by version) it was
        built from.  Version comparison — not "was it rebuilt this pass" —
        keeps validity correct even after an aborted compress() left the
        cache with a fresh upstream but stale downstream entries.
        """
        entry = self._cache.get(stage)
        if entry is None or entry.fingerprint != fingerprint:
            return False
        for up in STAGE_UPSTREAM[stage]:
            up_entry = self._cache.get(up)
            if up_entry is None or (entry.upstream_versions or {}).get(up) != up_entry.version:
                return False
        return True

    def _ensure(self, stage: str, rebuilt: set, build, timer: Optional[_PhaseTimer]):
        """Return the stage artifact, rebuilding it iff it is stale."""
        fingerprint = stage_fingerprint(self._config, stage)
        if self._entry_valid(stage, fingerprint):
            return self._cache[stage].value
        t0 = time.perf_counter()
        with (timer(_PHASE_NAME[stage]) if timer is not None else nullcontext()):
            with get_tracer().span(f"session.{stage}"):
                value = build()
        self._stage_seconds[stage] = time.perf_counter() - t0
        self._cache[stage] = _CachedStage(
            value=value,
            fingerprint=fingerprint,
            version=next(_VERSION_COUNTER),
            upstream_versions={up: self._cache[up].version for up in STAGE_UPSTREAM[stage]},
        )
        rebuilt.add(stage)
        self.stage_builds[stage] += 1
        return value

    def _ensure_partition_and_neighbors(
        self, timer: Optional[_PhaseTimer], rebuilt: set
    ) -> tuple[Partition, Neighbors]:
        """Ensure just the two disk-persistable artifacts (tree + ANN table)."""
        config = self._config

        # Build the distance oracle up front (its own "distance" phase), but
        # only when a stage that consumes it is actually stale — nesting it
        # inside a stage timer would double-count its cost in the report.
        needs_distance = not self._entry_valid(
            "partition", stage_fingerprint(config, "partition")
        ) or not self._entry_valid("neighbors", stage_fingerprint(config, "neighbors"))
        distance = self._distance_oracle(timer) if needs_distance else None

        partition: Partition = self._ensure(
            "partition",
            rebuilt,
            lambda: Partition(tree=_pipeline.run_partition_stage(self.matrix.n, config, distance)),
            timer,
        )
        neighbors: Neighbors = self._ensure(
            "neighbors",
            rebuilt,
            lambda: Neighbors(table=_pipeline.run_neighbors_stage(distance, config)),
            timer,
        )
        return partition, neighbors

    def prepare(self, timer: Optional[_PhaseTimer] = None, rebuilt: Optional[set] = None) -> tuple:
        """Ensure the matrix-light artifacts (partition, ANN, interaction lists).

        These are exactly the artifacts :meth:`attach` shares across a family
        of operators.  Returns ``(Partition, Neighbors, Interactions)``.
        """
        rebuilt = set() if rebuilt is None else rebuilt
        config = self._config
        partition, neighbors = self._ensure_partition_and_neighbors(timer, rebuilt)

        # The interactions stage annotates a fresh clone of the partition; the
        # clone is kept for this pass so a following skeletons rebuild does not
        # need to clone + stamp again.
        scratch: dict[str, object] = {}

        def build_interactions() -> Interactions:
            tree = partition.working_tree()
            lists = _pipeline.run_interactions_stage(tree, neighbors.table, config)
            scratch["tree"] = tree
            return Interactions.capture(tree, lists)

        interactions: Interactions = self._ensure("interactions", rebuilt, build_interactions, timer)
        self._scratch_tree = scratch.get("tree")
        return partition, neighbors, interactions

    def compress(self) -> CompressedOperator:
        """Run (or reuse) every pipeline stage and return the operator.

        Only stale stages execute; the returned operator's ``report`` lists
        executed phases in ``phase_seconds`` and reused ones in
        ``reused_phases``.  When this session has an enabled tracer
        (``Session(tracer=...)`` or ``config.telemetry``), it is installed
        as the active tracer for the duration of the call, so stage and
        per-level spans are recorded.
        """
        if self._config.telemetry and not self.tracer.enabled:
            self.tracer = Tracer()
        if self.tracer.enabled:
            with tracing(self.tracer):
                return self._compress_impl()
        return self._compress_impl()

    def _compress_impl(self) -> CompressedOperator:
        report = CompressionReport()
        timer = _PhaseTimer(report)
        start_evals = self.matrix.entry_evaluations
        rebuilt: set[str] = set()
        config = self._config

        partition, neighbors, interactions = self.prepare(timer, rebuilt)

        def build_skeletons() -> Skeletons:
            tree = self._scratch_tree
            if tree is None or "interactions" not in rebuilt:
                tree = partition.working_tree()
                interactions.materialize(tree)
            stats = _pipeline.run_skeletons_stage(tree, self.matrix, config, neighbors.table)
            return Skeletons(tree=tree, lists=interactions.lists, stats=stats)

        skeletons: Skeletons = self._ensure("skeletons", rebuilt, build_skeletons, timer)
        self._scratch_tree = None

        # Near blocks are bound to the pristine partition, not to this pass's
        # skeletonized tree: the provider is reused by later operators and
        # must not keep one operator's skeletons / coefficients alive.
        near: NearBlocks = self._ensure(
            "near_blocks",
            rebuilt,
            lambda: NearBlocks(
                _pipeline.run_near_blocks_stage(
                    partition.tree, self.matrix, config, interactions.lists
                )
            ),
            timer,
        )
        far: FarBlocks = self._ensure(
            "far_blocks",
            rebuilt,
            lambda: FarBlocks(_pipeline.run_far_blocks_stage(skeletons.tree, self.matrix, config)),
            timer,
        )

        previous_plan_entry = self._cache.get("plan")

        def build_plan() -> Plan:
            compressed = CompressedMatrix(
                tree=skeletons.tree,
                lists=skeletons.lists,
                config=config,
                near_blocks=near.blocks,
                far_blocks=far.blocks,
                matrix=self.matrix,
                neighbors=neighbors.table,
            )
            if previous_plan_entry is not None and all(
                previous_plan_entry.upstream_versions.get(up) == self._cache[up].version
                for up in STAGE_UPSTREAM["plan"]
            ):
                # The previous plans were built against these exact blocks
                # (same tree / lists / providers): still exact — only the
                # config wrapper changed.  Both plans' fill chunks follow
                # the chunk budget, and the padded plan also its rank
                # bucketing: each is reused only if its knobs are unchanged.
                old = previous_plan_entry.fingerprint
                previous = previous_plan_entry.value.compressed
                if old.get("streaming_chunk_bytes") == config.streaming_chunk_bytes:
                    compressed._streaming_plan = previous._streaming_plan
                    if old.get("plan_rank_bucketing") == config.plan_rank_bucketing:
                        compressed._plan = previous._plan
            if config.prebuild_plan:
                compressed.plan()
            return Plan(compressed=compressed)

        plan: Plan = self._ensure("plan", rebuilt, build_plan, timer)

        # -- report ----------------------------------------------------------
        report.num_leaves = partition.num_leaves
        report.tree_depth = partition.depth
        report.neighbor_iterations = neighbors.iterations
        report.neighbor_converged = neighbors.converged
        report.near_pairs = interactions.lists.total_near_pairs()
        report.far_pairs = interactions.lists.total_far_pairs()
        report.average_rank = skeletons.average_rank
        report.max_rank = skeletons.max_rank
        report.entry_evaluations = self.matrix.entry_evaluations - start_evals
        # A phase counts as reused only when every stage behind it was
        # ("caching" sums the near and the far blocks stage).
        ran = {_PHASE_NAME[stage] for stage in rebuilt}
        report.reused_phases = list(
            dict.fromkeys(_PHASE_NAME[s] for s in STAGE_ORDER if _PHASE_NAME[s] not in ran)
        )
        self.last_built = tuple(stage for stage in STAGE_ORDER if stage in rebuilt)
        self.last_reused = tuple(stage for stage in STAGE_ORDER if stage not in rebuilt)

        return CompressedOperator(plan.compressed, report=report)

    def recompress(self, **config_changes) -> CompressedOperator:
        """Replace config fields and compress, reusing every unaffected stage.

        ``session.recompress(tolerance=1e-3, budget=0.05)`` rebuilds the
        interaction lists and everything downstream but performs zero ANN
        iterations and zero tree builds.  A change that leaves the
        partition, the lists and ``cache_near_blocks`` alone — ``tolerance``,
        ``adaptive_rank``, ``secure_accuracy`` — also reuses the near blocks:
        the new operator shares the previous one's (read-only) provider and
        evaluates only far blocks.  A ``max_rank`` / ``sample_size`` /
        ``oversampling`` sweep still rebuilds them, because ``interactions``
        fingerprints those fields (they cap the node neighbor lists); that
        is left to the math / execution config split.
        """
        if config_changes:
            self._config = self._config.replace(**config_changes)
        return self.compress()

    # -- artifact persistence ----------------------------------------------------
    def save_artifacts(self, path, format: str = "npz") -> None:
        """Persist the Partition, Neighbors and Interactions artifacts.

        These are the matrix-light artifacts that dominate a cold
        compression at large n (tree build + iterative ANN search +
        interaction-list construction) and are plain arrays; a later
        process can :meth:`load_artifacts` them and pay only for
        skeletonization onward — the on-disk analogue of :meth:`attach`
        for repeated processes / service sharding, and the cold-start path
        of the serving runtime (:mod:`repro.serving`).  The file records
        each artifact's config fingerprint, and loading validates it
        against the loading session's config.

        ``format="npz"`` writes the legacy single ``.npz`` (loaded fully
        into memory — fine up to the RAM ceiling, kept for compatibility).
        ``format="dir"`` writes the format-v2 directory of
        :mod:`repro.storage.store` (``manifest.json`` + one ``.npy`` per
        array), which :meth:`load_artifacts` opens via ``mmap_mode="r"``
        so artifacts much larger than RAM page in on demand — prefer it
        for any new deployment; the ``.npz`` path is a migration shim.
        """
        partition, neighbors, interactions = self.prepare()
        arrays = partition.to_arrays()
        table = neighbors.table
        lists = interactions.lists
        num_nodes = len(partition.tree.nodes)

        def csr(values_of) -> tuple[np.ndarray, np.ndarray]:
            """Node-id-indexed ragged lists as (indptr, cols); order-preserving."""
            indptr = np.zeros(num_nodes + 1, dtype=np.intp)
            cols: list[int] = []
            for node_id in range(num_nodes):
                cols.extend(values_of(node_id))
                indptr[node_id + 1] = len(cols)
            return indptr, np.asarray(cols, dtype=np.intp)

        near_indptr, near_cols = csr(lambda i: lists.near.get(i, []))
        far_indptr, far_cols = csr(lambda i: lists.far.get(i, []))
        nl_present = np.zeros(num_nodes, dtype=bool)
        for node_id in interactions.neighbor_lists:
            nl_present[node_id] = True
        nl_indptr, nl_cols = csr(
            lambda i: interactions.neighbor_lists.get(i, np.empty(0, dtype=np.intp))
        )
        meta = {
            "format": 2,
            "n": int(self.matrix.n),
            "depth": int(partition.depth),
            "has_neighbors": table is not None,
            "iterations": int(neighbors.iterations),
            "converged": bool(neighbors.converged),
            "budget_cap": int(lists.budget_cap),
            "num_leaves": int(lists.num_leaves),
            "fingerprints": {
                stage: _jsonable_fingerprint(stage_fingerprint(self._config, stage))
                for stage in ("partition", "neighbors", "interactions")
            },
        }
        payload = {
            "node_offsets": arrays["node_offsets"],
            "node_indices": arrays["node_indices"],
            "neighbor_indices": table.indices if table is not None else np.empty((0, 0), dtype=np.intp),
            "neighbor_distances": table.distances if table is not None else np.empty((0, 0)),
            "near_indptr": near_indptr,
            "near_cols": near_cols,
            "far_indptr": far_indptr,
            "far_cols": far_cols,
            "nl_present": nl_present,
            "nl_indptr": nl_indptr,
            "nl_cols": nl_cols,
        }
        if format == "dir":
            from ..storage.store import STORE_SCHEMA_VERSION, write_array_dir

            manifest = {"kind": "session-artifacts", "schema_version": STORE_SCHEMA_VERSION}
            manifest.update(meta)
            write_array_dir(path, manifest, payload)
        elif format == "npz":
            payload["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
            with open(path, "wb") as fh:
                np.savez(fh, **payload)
        else:
            raise ConfigurationError(
                f"unknown artifact format {format!r}: expected 'npz' or 'dir'"
            )

    def load_artifacts(self, path) -> tuple[str, ...]:
        """Install the artifacts saved by :meth:`save_artifacts`.

        Format-2 files carry Partition + Neighbors + Interactions (servers
        cold-start without re-running interaction-list construction);
        format-1 files (pre-Interactions) still load their two stages.
        Accepts either the legacy ``.npz`` file or the format-v2 directory
        (``format="dir"``); a directory's arrays are opened with
        ``mmap_mode="r"`` so the load itself stays near-zero-resident.
        Validates the stored problem size and per-stage config fingerprints
        against this session's matrix and config; a mismatch — or a
        truncated / hand-edited file — raises
        :class:`~repro.errors.ArtifactMismatchError` rather than silently
        compressing against a foreign partition.  Returns the names of the
        installed stages; a following :meth:`compress` skips them all.
        """
        import os
        import zipfile

        if os.path.isdir(path):
            from ..storage.store import read_array_dir

            meta, data = read_array_dir(path, mmap=True)
            if meta.get("kind") != "session-artifacts":
                raise ArtifactMismatchError(
                    f"{path!s} is a {meta.get('kind', 'unknown')!r} store, not a "
                    f"session-artifacts directory"
                )
            try:
                node_offsets = data["node_offsets"]
                node_indices = data["node_indices"]
                neighbor_indices = data["neighbor_indices"]
                neighbor_distances = data["neighbor_distances"]
                fmt = int(meta.get("format", 1))
                if fmt >= 2:
                    near_indptr = data["near_indptr"]
                    near_cols = data["near_cols"]
                    far_indptr = data["far_indptr"]
                    far_cols = data["far_cols"]
                    nl_present = data["nl_present"]
                    nl_indptr = data["nl_indptr"]
                    nl_cols = data["nl_cols"]
            except KeyError as exc:
                raise ArtifactMismatchError(
                    f"artifact directory {path!s} is missing array {exc}"
                ) from exc
        else:
            _LOG.info(
                "loading legacy .npz session artifacts from %s (fully resident); "
                "prefer save_artifacts(format='dir') for mmap cold starts",
                path,
            )
            try:
                with np.load(path) as data:
                    meta = json.loads(bytes(data["meta"]))
                    node_offsets = data["node_offsets"]
                    node_indices = data["node_indices"]
                    neighbor_indices = data["neighbor_indices"]
                    neighbor_distances = data["neighbor_distances"]
                    fmt = int(meta.get("format", 1))
                    if fmt >= 2:
                        near_indptr = data["near_indptr"]
                        near_cols = data["near_cols"]
                        far_indptr = data["far_indptr"]
                        far_cols = data["far_cols"]
                        nl_present = data["nl_present"]
                        nl_indptr = data["nl_indptr"]
                        nl_cols = data["nl_cols"]
            except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
                # np.load raises zipfile.BadZipFile on a truncated archive,
                # KeyError on a missing member, and ValueError on corrupt
                # npy headers / malformed meta JSON.
                raise ArtifactMismatchError(
                    f"artifact file {path!s} is truncated or corrupt: {exc}"
                ) from exc
        if int(meta["n"]) != self.matrix.n:
            raise ArtifactMismatchError(
                f"artifact file holds a partition of n={meta['n']}, session matrix has n={self.matrix.n}"
            )
        stale = []
        for stage in ("partition", "neighbors"):
            if not _fingerprint_matches(meta["fingerprints"][stage], self._config, stage):
                stale.append(stage)
        if stale:
            raise ArtifactMismatchError(
                f"artifact fingerprints do not match the session config for stage(s) "
                f"{', '.join(stale)}; recompute with save_artifacts under the current config"
            )
        # The interactions artifact is optional cargo: a fingerprint mismatch
        # (e.g. the loading session sweeps ``budget``) just means the lists
        # must be rebuilt — it never blocks loading the partition + ANN table.
        load_interactions = fmt >= 2 and _fingerprint_matches(
            meta["fingerprints"]["interactions"], self._config, "interactions"
        )

        try:
            partition = Partition.from_arrays(node_offsets, node_indices, meta["depth"], meta["n"])
            # Structural validation at the trust boundary: a truncated or
            # hand-edited file must fail here, not deep inside compression.
            partition.tree.check_invariants(self._config.leaf_size)
        except ArtifactMismatchError:
            raise
        except Exception as exc:
            raise ArtifactMismatchError(
                f"artifact file holds a malformed partition: {exc}"
            ) from exc
        if meta["has_neighbors"]:
            from ..core.neighbors import NeighborTable

            indices = np.asarray(neighbor_indices, dtype=np.intp)
            distances = np.asarray(neighbor_distances)
            # Same trust-boundary validation as the partition: a truncated
            # table must fail here, not as an IndexError inside compression.
            if (
                indices.ndim != 2
                or indices.shape[0] != self.matrix.n
                or distances.shape != indices.shape
                or (indices.size and (indices.min() < 0 or indices.max() >= self.matrix.n))
            ):
                raise ArtifactMismatchError(
                    f"artifact file holds a malformed neighbor table "
                    f"(shape {indices.shape} for n={self.matrix.n})"
                )
            table = NeighborTable(
                indices=indices,
                distances=distances,
                iterations=int(meta["iterations"]),
                converged=bool(meta["converged"]),
            )
        else:
            table = None
        for stage, value in (("partition", partition), ("neighbors", Neighbors(table=table))):
            self._cache[stage] = _CachedStage(
                value=value,
                fingerprint=stage_fingerprint(self._config, stage),
                version=next(_VERSION_COUNTER),
                upstream_versions={},
            )
        if not load_interactions:
            return ("partition", "neighbors")

        # -- interactions (format >= 2): CSR over node ids, order-preserving --
        num_nodes = len(partition.tree.nodes)
        interactions = self._decode_interactions(
            partition, num_nodes,
            near_indptr, near_cols, far_indptr, far_cols,
            nl_present, nl_indptr, nl_cols,
            budget_cap=int(meta["budget_cap"]), num_leaves=int(meta["num_leaves"]),
        )
        self._cache["interactions"] = _CachedStage(
            value=interactions,
            fingerprint=stage_fingerprint(self._config, "interactions"),
            version=next(_VERSION_COUNTER),
            upstream_versions={
                up: self._cache[up].version for up in STAGE_UPSTREAM["interactions"]
            },
        )
        return ("partition", "neighbors", "interactions")

    def _decode_interactions(
        self, partition, num_nodes,
        near_indptr, near_cols, far_indptr, far_cols,
        nl_present, nl_indptr, nl_cols,
        budget_cap: int, num_leaves: int,
    ) -> Interactions:
        """Rebuild the :class:`Interactions` artifact from its CSR encoding.

        Same trust-boundary stance as the partition/neighbor loaders: a
        truncated or hand-edited file must fail here with a
        :class:`CompressionError`, not as an IndexError deep inside
        compression.
        """
        from ..core.interactions import InteractionLists

        def decode(indptr, cols, what: str, bound: int) -> dict[int, list[int]]:
            # ``bound``: node ids for Near/Far lists, global point indices
            # (``n``) for the per-node neighbor lists N(α).
            indptr = np.asarray(indptr, dtype=np.intp)
            cols = np.asarray(cols, dtype=np.intp)
            if (
                indptr.shape != (num_nodes + 1,)
                or indptr[0] != 0
                or np.any(np.diff(indptr) < 0)
                or indptr[-1] != cols.size
                or (cols.size and (cols.min() < 0 or cols.max() >= bound))
            ):
                raise ArtifactMismatchError(f"artifact file holds malformed {what} lists")
            return {
                i: cols[indptr[i] : indptr[i + 1]].tolist() for i in range(num_nodes)
            }

        tree = partition.tree
        leaf_ids = {leaf.node_id for leaf in tree.leaves}
        if num_leaves != len(leaf_ids):
            raise ArtifactMismatchError(
                f"artifact file holds interaction lists over {num_leaves} leaves, "
                f"partition has {len(leaf_ids)}"
            )
        near_all = decode(near_indptr, near_cols, "Near", num_nodes)
        far = decode(far_indptr, far_cols, "Far", num_nodes)
        # Near lists exist for leaves only (matching build_near_lists); a
        # non-empty Near list on an internal node is a malformed file.
        near = {i: members for i, members in near_all.items() if i in leaf_ids}
        if any(members for i, members in near_all.items() if i not in leaf_ids):
            raise ArtifactMismatchError("artifact file holds Near lists on internal nodes")
        nl_all = decode(nl_indptr, nl_cols, "node-neighbor", self.matrix.n)
        nl_present = np.asarray(nl_present, dtype=bool)
        if nl_present.shape != (num_nodes,):
            raise ArtifactMismatchError("artifact file holds a malformed node-neighbor mask")
        neighbor_lists = {
            i: np.asarray(nl_all[i], dtype=np.intp)
            for i in range(num_nodes)
            if nl_present[i]
        }
        lists = InteractionLists(
            near=near,
            far=far,
            leaf_position={leaf.node_id: pos for pos, leaf in enumerate(tree.leaves)},
            num_leaves=num_leaves,
            budget_cap=budget_cap,
        )
        return Interactions(lists=lists, neighbor_lists=neighbor_lists)

    # -- operator families -----------------------------------------------------
    def attach(self, matrix, **config_changes) -> "Session":
        """A new session for another matrix sharing this session's partition.

        The partition, ANN table and interaction lists — all matrix-light —
        are shared, so compressing a family of operators (kernel bandwidths,
        regularizations, …) pays the tree / neighbor cost once.  The new
        matrix must have the same dimension.  Skeletons and cached blocks
        are always rebuilt against the new matrix's entries.

        This is also how a serving cluster
        (:class:`~repro.serving.cluster.ShardRouter`) hosts an operator
        family cheaply: build one session, ``attach`` per family member,
        compress, and ``router.register`` each resulting operator — the
        shards then share the matrix-light artifacts through the shared
        session caches (or, across processes, through one
        :meth:`save_artifacts` file loaded per build).
        """
        matrix = as_spd_matrix(matrix)
        if matrix.n != self.matrix.n:
            raise CompressionError(
                f"attach requires a matrix of the same size (session n={self.matrix.n}, got n={matrix.n})"
            )
        # Make sure the shareable artifacts exist before handing them over.
        self.prepare()
        other = Session(
            matrix,
            self._config.replace(**config_changes) if config_changes else self._config,
            coordinates=self.coordinates,
        )
        for stage in _SHARED_ON_ATTACH:
            entry = self._cache.get(stage)
            if entry is not None:
                other._cache[stage] = entry
        return other

    def __repr__(self) -> str:
        built = ", ".join(s for s in STAGE_ORDER if s in self._cache) or "none"
        return f"<Session n={self.matrix.n} built=[{built}] config=({self._config.describe()})>"

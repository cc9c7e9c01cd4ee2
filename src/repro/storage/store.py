"""Mmap artifact format v2: directory-backed operator and session stores.

The legacy persistence path (PR 3) packs everything into a single ``.npz``
— loading it materializes every array in memory, which caps ``n`` at what
RAM holds.  Format v2 is a *directory*: a ``manifest.json`` carrying the
``schema_version``, the full config, per-stage fingerprints and an array
inventory (name → file, dtype, shape, nbytes), next to one plain ``.npy``
file per array.  Every array then opens read-only through
``np.load(..., mmap_mode="r")``, so skeleton coefficients, interaction
lists and cached near/far blocks page in on demand — a server can
cold-start an operator much larger than RAM.

Two stores share the layout machinery:

* :class:`OperatorStore` — the complete compressed operator (tree +
  skeletons + coefficients + interaction lists + cached blocks), written
  by :meth:`OperatorStore.save` / ``CompressedOperator.save`` and opened
  by :meth:`OperatorStore.open` / ``CompressedOperator.open``.  Near
  blocks are stored as the near cache's row slabs, the L2L operand of
  both engines, so an opened operator multiplies the stored bytes in
  place.  Each symmetric pair is stored once: a leaf's row holds its
  diagonal block and the pairs it owns, and a per-row column table names
  each row's columns and flags those that also apply transposed.  A store
  written before the column table held every leaf's whole Near list in
  its row; it reads through the same code as rows with no transposed
  column.  Far blocks are stored flat, key by key.
* the session-artifact directory written by
  ``Session.save_artifacts(path, format="dir")`` — same arrays as the
  legacy ``.npz``, one file each, manifest instead of the JSON-in-uint8
  ``meta`` buffer.

Writes are crash-safe: everything lands in a uniquely named temp
directory next to the target (manifest last) and is renamed into place in
one step, so a crashed writer can never leave a half-valid store behind.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import random
import shutil
import tempfile
import time
from typing import Callable, Dict, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from ..config import DistanceMetric, GOFMMConfig
from ..core.hmatrix import BlockProvider, RowSlab, evaluate_block
from ..errors import (
    ArtifactMismatchError,
    ConfigurationError,
    StorageError,
    StorageRetryExhaustedError,
)
from ..faults import injection as _faults
from ..obs import counters as _obs_counters
from ..obs import get_logger

__all__ = [
    "Concatenated",
    "MANIFEST_NAME",
    "STORE_SCHEMA_VERSION",
    "DEFAULT_READ_RETRIES",
    "OperatorStore",
    "StoredBlockProvider",
    "StoredRowProvider",
    "write_array_dir",
    "read_array_dir",
    "config_to_jsonable",
    "config_from_jsonable",
    "is_disk_backed",
]

MANIFEST_NAME = "manifest.json"

#: Version of the directory layout.  v1 is the legacy single-``.npz``
#: session format; v2 is the manifest + per-array ``.npy`` directory.
STORE_SCHEMA_VERSION = 2

_LOG = get_logger("storage.store")

#: Module default for the transient-read retry budget; callers with a
#: config pass ``GOFMMConfig.storage_read_retries`` instead.
DEFAULT_READ_RETRIES = 2

#: Base/backoff of the retry delay (exponential, jittered, capped).
_READ_BACKOFF_S = 0.02
_READ_BACKOFF_MAX_S = 0.5

#: ``errno`` values treated as *transient* — a device hiccup worth
#: retrying, as opposed to a missing or corrupt artifact.  ``ENOENT`` is
#: deliberately absent (missing file → :class:`ArtifactMismatchError`).
_TRANSIENT_ERRNOS = frozenset(
    {errno.EIO, errno.EAGAIN, errno.EBUSY, errno.EINTR, errno.ETIMEDOUT, errno.ESTALE}
)


def _is_transient(exc: OSError) -> bool:
    return not isinstance(exc, FileNotFoundError) and exc.errno in _TRANSIENT_ERRNOS


def _read_with_retry(what: str, fn: Callable, retries: int):
    """Run ``fn`` retrying transient ``OSError``\\ s with jittered backoff.

    Non-transient errors propagate on the first occurrence; transient ones
    are retried up to ``retries`` extra attempts (each survived retry
    counts ``faults_recovered``) and then surface as a typed
    :class:`~repro.errors.StorageRetryExhaustedError`.
    """
    attempt = 0
    while True:
        try:
            result = fn()
        except OSError as exc:
            if not _is_transient(exc):
                raise
            if attempt >= retries:
                raise StorageRetryExhaustedError(
                    f"transient read error on {what} persisted past "
                    f"{attempt + 1} attempt(s) (storage_read_retries={retries}): {exc}",
                    path=what,
                    attempts=attempt + 1,
                ) from exc
            delay = min(_READ_BACKOFF_MAX_S, _READ_BACKOFF_S * (2**attempt))
            delay *= 1.0 + 0.25 * random.random()  # jitter: desynchronize cold-start herds
            _LOG.warning(
                "transient read error on %s (%s); retry %d/%d in %.0f ms",
                what, exc, attempt + 1, retries, delay * 1e3,
            )
            time.sleep(delay)
            attempt += 1
            continue
        if attempt:
            _obs_counters.add("faults_recovered")
            _LOG.warning("read of %s recovered after %d retry/retries", what, attempt)
        return result


# ---------------------------------------------------------------------------
# generic directory layout
# ---------------------------------------------------------------------------

class Concatenated(NamedTuple):
    """Arrays written back to back as one flat ``.npy`` of ``dtype``, never
    concatenated in memory: the file holds the bytes ``np.save`` would
    write for ``np.concatenate([p.ravel() for p in pieces])``."""

    pieces: list
    dtype: np.dtype


def _save_concatenated(file_path: str, value: Concatenated) -> Tuple[np.dtype, tuple]:
    """Write ``value`` as one 1-D ``.npy``: the header, then each piece's bytes."""
    dtype = np.dtype(value.dtype)
    shape = (sum(int(np.size(piece)) for piece in value.pieces),)
    header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": shape}
    with open(file_path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for piece in value.pieces:
            np.asarray(piece, dtype=dtype).tofile(fh)
    return dtype, shape


def write_array_dir(path, manifest: dict, arrays: Dict[str, np.ndarray]) -> None:
    """Atomically publish ``arrays`` + ``manifest`` as a format-v2 directory.

    The arrays are written into a uniquely named sibling temp directory
    (one ``.npy`` per array, manifest last) which is then renamed onto
    ``path`` — a crash mid-write leaves only an inert ``*.tmp-*`` orphan,
    never a directory that parses as a store.  An existing directory at
    ``path`` is replaced.  A :class:`Concatenated` value is streamed to its
    file piece by piece.
    """
    path = os.path.abspath(os.fspath(path))
    parent = os.path.dirname(path)
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=os.path.basename(path) + ".tmp-", dir=parent)
    try:
        inventory: Dict[str, dict] = {}
        for name, array in arrays.items():
            filename = f"{name}.npy"
            if isinstance(array, Concatenated):
                dtype, shape = _save_concatenated(os.path.join(tmp, filename), array)
            else:
                array = np.ascontiguousarray(array)
                np.save(os.path.join(tmp, filename), array)
                dtype, shape = array.dtype, array.shape
            inventory[name] = {
                "file": filename,
                "dtype": dtype.str,
                "shape": list(shape),
                "nbytes": int(np.prod(shape, dtype=np.int64)) * dtype.itemsize,
            }
        manifest = dict(manifest)
        manifest["arrays"] = inventory
        with open(os.path.join(tmp, MANIFEST_NAME), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            raise StorageError(f"store target {path!r} exists and is not a directory")
        os.rename(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def read_array_dir(
    path, mmap: bool = True, retries: Optional[int] = None
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Open a format-v2 directory; validate the inventory at the trust boundary.

    With ``mmap=True`` every array is an ``np.load(..., mmap_mode="r")``
    view — nothing is read until the pages are touched.  A missing /
    truncated / dtype-shifted file raises
    :class:`~repro.errors.ArtifactMismatchError` here rather than
    surfacing as an IndexError deep inside evaluation.  *Transient*
    ``OSError``\\ s (EIO, EAGAIN, ESTALE …) are retried with jittered
    backoff up to ``retries`` extra attempts (default
    :data:`DEFAULT_READ_RETRIES`; pass ``GOFMMConfig.storage_read_retries``
    when a config is at hand) and then raise the typed
    :class:`~repro.errors.StorageRetryExhaustedError`.
    """
    path = os.fspath(path)
    if retries is None:
        retries = DEFAULT_READ_RETRIES
    manifest_path = os.path.join(path, MANIFEST_NAME)

    def _load_manifest():
        _faults.fire("storage.read", path=manifest_path, what="manifest")
        with open(manifest_path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    try:
        manifest = _read_with_retry(manifest_path, _load_manifest, retries)
    except FileNotFoundError as exc:
        raise ArtifactMismatchError(
            f"{path!r} is not an artifact directory (no {MANIFEST_NAME})"
        ) from exc
    except StorageRetryExhaustedError:
        raise
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactMismatchError(f"corrupt manifest in {path!r}: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("arrays"), dict):
        raise ArtifactMismatchError(f"corrupt manifest in {path!r}: no array inventory")

    arrays: Dict[str, np.ndarray] = {}
    for name, spec in manifest["arrays"].items():
        filename = spec.get("file", "")
        if os.path.basename(filename) != filename or not filename:
            raise ArtifactMismatchError(f"manifest entry {name!r} names an invalid file {filename!r}")
        file_path = os.path.join(path, filename)

        def _load_array(file_path=file_path):
            _faults.fire("storage.read", path=file_path, what="array")
            return np.load(file_path, mmap_mode="r" if mmap else None, allow_pickle=False)

        try:
            array = _read_with_retry(file_path, _load_array, retries)
        except FileNotFoundError as exc:
            raise ArtifactMismatchError(f"artifact array {name!r} is missing ({filename})") from exc
        except StorageRetryExhaustedError:
            raise
        except (OSError, ValueError) as exc:
            raise ArtifactMismatchError(
                f"artifact array {name!r} is truncated or corrupt ({filename}): {exc}"
            ) from exc
        if array.dtype.str != spec.get("dtype") or list(array.shape) != list(spec.get("shape", [])):
            raise ArtifactMismatchError(
                f"artifact array {name!r} does not match its manifest entry "
                f"(file has {array.dtype.str}{list(array.shape)}, "
                f"manifest says {spec.get('dtype')}{spec.get('shape')})"
            )
        arrays[name] = array
    return manifest, arrays


def dir_bytes_on_disk(manifest: dict) -> int:
    """Total payload bytes recorded in a manifest's array inventory."""
    return sum(int(spec.get("nbytes", 0)) for spec in manifest.get("arrays", {}).values())


# ---------------------------------------------------------------------------
# config (de)serialization
# ---------------------------------------------------------------------------

def config_to_jsonable(config: GOFMMConfig) -> dict:
    """Every config field as a JSON-stable value."""
    out = {}
    for f in dataclasses.fields(GOFMMConfig):
        value = getattr(config, f.name)
        if isinstance(value, DistanceMetric):
            value = value.value
        elif isinstance(value, np.dtype):
            value = value.name
        out[f.name] = value
    return out


def config_from_jsonable(data: dict) -> GOFMMConfig:
    """Rebuild a config from :func:`config_to_jsonable` output.

    Unknown keys are ignored so stores written by a newer library version,
    or naming a retired field, still open; ``__post_init__`` coerces the string-encoded distance
    metric and dtype back to their rich types and re-validates everything.
    """
    known = {f.name for f in dataclasses.fields(GOFMMConfig)}
    try:
        return GOFMMConfig(**{k: v for k, v in data.items() if k in known})
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ArtifactMismatchError(f"store manifest holds an invalid config: {exc}") from exc


def is_disk_backed(array: Optional[np.ndarray]) -> bool:
    """True when an array (or any base it views) is an ``np.memmap``."""
    while isinstance(array, np.ndarray):
        if isinstance(array, np.memmap):
            return True
        array = array.base
    return False


# ---------------------------------------------------------------------------
# stored blocks
# ---------------------------------------------------------------------------

class StoredBlockProvider:
    """Read-only block provider over a store's flat block arrays.

    The same protocol as :class:`repro.core.hmatrix.BlockProvider`
    (``in`` / ``get`` / ``cached_entries`` / ``len``) but backed by one
    flat data array — an mmap view when the store was opened with
    ``resident="mmap"``, so a block's bytes are only paged in when an
    evaluation actually touches it.  A block the store does not hold is
    evaluated from ``matrix`` when one is attached (stores saved from
    memoryless compressions), exactly as the in-memory provider does.

    Holds the far blocks of every store, and the near blocks of a store in
    the older flat layout (``near_block_*`` arrays, in any order).  Such a
    provider has no row slabs, so both engines fill their L2L operands from
    it block by block.
    """

    def __init__(
        self,
        keys: np.ndarray,
        indptr: np.ndarray,
        shapes: np.ndarray,
        data: np.ndarray,
        tree=None,
        matrix=None,
        use_skeletons: bool = False,
    ) -> None:
        keys = np.asarray(keys, dtype=np.intp).reshape(-1, 2)
        indptr = np.asarray(indptr, dtype=np.intp)
        shapes = np.asarray(shapes, dtype=np.intp).reshape(-1, 2)
        num = keys.shape[0]
        if (
            indptr.shape != (num + 1,)
            or shapes.shape != (num, 2)
            or indptr[0] != 0
            or np.any(np.diff(indptr) < 0)
            or indptr[-1] != data.size
            or (num and np.any(np.diff(indptr) != shapes[:, 0] * shapes[:, 1]))
        ):
            raise ArtifactMismatchError("store holds malformed block index arrays")
        self._keys = keys
        self._indptr = indptr
        self._shapes = shapes
        # A plain-ndarray view (its .base is the memmap, so disk_backed
        # still sees it) spares every get() the np.memmap subclass hooks.
        self._data = np.asarray(data)
        self._index = {(int(keys[i, 0]), int(keys[i, 1])): i for i in range(num)}
        if len(self._index) != num:
            raise ArtifactMismatchError("store holds duplicate block keys")
        self._tree = tree
        self._matrix = matrix
        self._use_skeletons = use_skeletons

    def store(self, key: tuple, block: np.ndarray) -> None:
        raise StorageError("stored block providers are read-only")

    def __contains__(self, key: tuple) -> bool:
        return key in self._index

    def get(self, key: tuple) -> Optional[np.ndarray]:
        i = self._index.get(key)
        if i is None:
            return evaluate_block(self._tree, self._matrix, self._use_skeletons, key)
        rows, cols = self._shapes[i]
        return self._data[self._indptr[i] : self._indptr[i + 1]].reshape(int(rows), int(cols))

    def cached_items(self) -> Iterator[tuple]:
        for key in self._index:
            yield key, self.get(key)

    @property
    def cached_entries(self) -> int:
        return int(self._data.size)

    def __len__(self) -> int:
        return len(self._index)

    @property
    def disk_backed(self) -> bool:
        return is_disk_backed(self._data)

    @property
    def bytes_resident(self) -> int:
        return 0 if self.disk_backed else int(self._data.nbytes)

    @property
    def bytes_on_disk(self) -> int:
        return int(self._data.nbytes) if self.disk_backed else 0


class StoredRowProvider(BlockProvider):
    """Read-only near-block provider over a store's row slabs.

    The near cache's own format, read back: :meth:`row_slabs` hands out the
    stored ``(g, m, Σk)`` slabs — read-only mmap views with
    ``resident="mmap"`` — and ``get((β, α))`` the column view of β's row
    at α, or the transposed view of α's row at β for the mirrored
    direction of a folded pair, so both engines run L2L on the stored
    bytes.  A block the store does not hold is evaluated from ``matrix``
    when one is attached.
    """

    def __init__(self, slabs: list, data: np.ndarray, tree, matrix=None) -> None:
        super().__init__(tree, matrix, use_skeletons=False)
        index_sets = [node.indices for node in tree.nodes]
        self.store_rows(slabs, dict(pair for slab in slabs for pair in slab.blocks(index_sets)))
        self._data = data

    def store(self, key: tuple, block: np.ndarray) -> None:
        raise StorageError("stored block providers are read-only")

    @property
    def disk_backed(self) -> bool:
        return is_disk_backed(self._data)

    @property
    def bytes_resident(self) -> int:
        return 0 if self.disk_backed else int(self._data.nbytes)

    @property
    def bytes_on_disk(self) -> int:
        return int(self._data.nbytes) if self.disk_backed else 0


def _row_columns(arrays: Dict[str, np.ndarray], leaves: np.ndarray, near: Dict[int, list]) -> list:
    """``(cols, mirror)`` of each stored row, from the store's column table.

    A store written before the column table held each leaf's whole Near
    list in its row, applied one way: its rows read as exactly that.
    """
    if "near_slab_cols" not in arrays:
        full = [tuple(near.get(beta) or ()) for beta in leaves.tolist()]
        return [(cols, (False,) * len(cols)) for cols in full]
    indptr = arrays["near_slab_col_indptr"]
    cols = arrays["near_slab_cols"]
    mirror = arrays["near_slab_mirror"]
    if (
        indptr.shape != (leaves.size + 1,)
        or cols.ndim != 1 or cols.dtype.kind not in "iu"
        or mirror.shape != cols.shape or mirror.dtype != np.bool_
        or indptr[0] != 0 or np.any(np.diff(indptr) < 0) or indptr[-1] != cols.size
    ):
        raise ArtifactMismatchError("store holds a malformed near row column table")
    cols, mirror = cols.tolist(), mirror.tolist()
    return [
        (tuple(cols[a:b]), tuple(mirror[a:b]))
        for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())
    ]


def _stored_row_slabs(arrays: Dict[str, np.ndarray], tree, near: Dict[int, list]) -> list:
    """The store's near row slabs, checked against the tree and the Near lists.

    Slab ``i`` is ``data[offsets[i]:offsets[i+1]]`` viewed ``shapes[i] =
    (g, m, Σk)``; its rows are the next ``g`` entries of ``leaves``, each
    row's columns and mirror flags those of the column table
    (:func:`_row_columns`).  Every pair the rows apply must be listed, and
    none applied twice.
    """
    shapes = arrays["near_slab_shapes"]
    offsets = arrays["near_slab_offsets"]
    leaves = arrays["near_slab_leaves"]
    data = np.asarray(arrays["near_slab_data"])  # plain views, yet disk-backed through .base
    num = shapes.shape[0] if shapes.ndim == 2 else -1
    if (
        shapes.shape != (num, 3)
        or offsets.shape != (num + 1,)
        or (num and shapes.min() < 1)
        or offsets[0] != 0
        or np.any(np.diff(offsets) != np.prod(shapes, axis=1))
        or offsets[-1] != data.size
    ):
        raise ArtifactMismatchError("store near row-slab offsets do not cover its data array")
    if leaves.ndim != 1 or leaves.dtype.kind not in "iu":
        raise ArtifactMismatchError("store holds a malformed near row-slab leaf list")
    if np.unique(leaves).size != leaves.size:
        raise ArtifactMismatchError("store near row slabs list a leaf in two slabs")
    columns = _row_columns(arrays, leaves, near)
    listed = {(beta, alpha) for beta, cols in near.items() for alpha in cols}
    applied: set = set()
    slabs, start = [], 0
    for i, (g, m, width) in enumerate(shapes.tolist()):
        rows = tuple(zip(leaves[start : start + g].tolist(), columns[start : start + g]))
        start += g
        if len(rows) != g or any(
            not cols or tree.node(beta).size != m or sum(tree.node(a).size for a in cols) != width
            for beta, (cols, _) in rows
        ):
            raise ArtifactMismatchError(
                f"store near row slab {i} of shape {(g, m, width)} disagrees with its "
                "leaves' sizes and columns"
            )
        slab = RowSlab(
            data[offsets[i] : offsets[i + 1]].reshape(g, m, width),
            tuple((beta, cols) for beta, (cols, _) in rows),
            tuple(flags for _, (_, flags) in rows),
        )
        keys = slab.directions()
        if not set(keys) <= listed or len(set(keys)) != len(keys) or not applied.isdisjoint(keys):
            raise ArtifactMismatchError(
                f"store near row slab {i} applies a pair its Near lists do not list, or twice"
            )
        applied.update(keys)
        slab.array.flags.writeable = False
        slabs.append(slab)
    if start != leaves.size:
        raise ArtifactMismatchError("store near row-slab leaf list is longer than its slabs")
    return slabs


# ---------------------------------------------------------------------------
# the operator store
# ---------------------------------------------------------------------------

class OperatorStore:
    """A compressed operator persisted as a format-v2 directory.

    ``OperatorStore.save(operator, path)`` writes the complete operator —
    tree structure, skeletons, interpolation coefficients, Near/Far lists
    and every cached block — as flat arrays: the near blocks as the near
    cache's row slabs with their column table (each symmetric pair once),
    the far blocks key by key.  Stores with full rows and no column table,
    and stores in the older flat near-block layout, open and evaluate as
    well.
    ``OperatorStore(path)`` validates the manifest;
    :meth:`open` rebuilds a :class:`~repro.core.hmatrix.CompressedMatrix`
    whose large arrays stay on disk (``resident="mmap"``) or are loaded
    eagerly (``resident="ram"``).
    """

    KIND = "operator-store"

    def __init__(self, path, retries: Optional[int] = None) -> None:
        self.path = os.path.abspath(os.fspath(path))
        manifest, _ = read_array_dir(self.path, mmap=True, retries=retries)
        self._validate_manifest(manifest)
        self.manifest = manifest
        if retries is None:
            # Adopt the store's own knob for subsequent reads: stores written
            # with a tuned ``storage_read_retries`` open with it (older
            # manifests without the field keep the module default).
            stored = manifest.get("config", {}).get("storage_read_retries", DEFAULT_READ_RETRIES)
            retries = stored if isinstance(stored, int) and stored >= 0 else DEFAULT_READ_RETRIES
        self.retries = int(retries)

    @classmethod
    def _validate_manifest(cls, manifest: dict) -> None:
        if manifest.get("kind") != cls.KIND:
            raise ArtifactMismatchError(
                f"directory is not an operator store (kind={manifest.get('kind')!r})"
            )
        version = manifest.get("schema_version")
        if version != STORE_SCHEMA_VERSION:
            raise ArtifactMismatchError(
                f"unsupported operator-store schema_version {version!r} "
                f"(this library reads version {STORE_SCHEMA_VERSION})"
            )

    # -- properties ---------------------------------------------------------

    @property
    def n(self) -> int:
        return int(self.manifest["n"])

    @property
    def bytes_on_disk(self) -> int:
        """Total array payload bytes of the store (from the manifest inventory)."""
        return dir_bytes_on_disk(self.manifest)

    @property
    def fingerprints(self) -> dict:
        return dict(self.manifest.get("fingerprints", {}))

    def config(self) -> GOFMMConfig:
        return config_from_jsonable(self.manifest["config"])

    # -- save ---------------------------------------------------------------

    @staticmethod
    def save(operator, path) -> "OperatorStore":
        """Write an operator (or a bare ``CompressedMatrix``) to ``path``.

        The near blocks are written as the near cache's
        :class:`~repro.core.hmatrix.RowSlab` arrays, unchanged, back to back
        in one data array (streamed slab by slab into its ``.npy``, never
        concatenated in memory), with each slab's ``(g, m, Σk)`` shape, its
        leaf list and the column table of its rows
        (``near_slab_col_indptr`` / ``near_slab_cols`` /
        ``near_slab_mirror``): each symmetric pair once, as its owner's
        block, flagged to apply transposed too.  Listed pairs no intact
        row holds but the provider caches are laid out in fresh rows from
        ``provider.get`` (:func:`~repro.core.plan.near_row_slabs`).  Far
        blocks stay flat, in key order, and coefficients flat by node; both
        stream to disk the same way.  With memoryless compressions (no
        cached blocks) the store still round-trips the skeleton
        representation, and an opened operator then needs a source matrix
        attached for what it lacks.
        """
        from ..core.plan import near_row_slabs

        compressed = getattr(operator, "compressed", operator)
        tree = compressed.tree
        lists = compressed.lists
        nodes = tree.nodes
        num_nodes = len(nodes)
        dtype = np.dtype(compressed.config.dtype)

        def ragged(rows) -> Tuple[np.ndarray, np.ndarray]:
            indptr = np.zeros(num_nodes + 1, dtype=np.intp)
            chunks = []
            for i, row in enumerate(rows):
                indptr[i + 1] = indptr[i] + len(row)
                if len(row):
                    chunks.append(np.asarray(row))
            flat = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.intp)
            return indptr, flat.astype(np.intp, copy=False)

        skeleton_indptr, skeleton_indices = ragged(
            [n.skeleton if n.skeleton is not None else () for n in nodes]
        )
        skeleton_ranks = np.array([n.skeleton_rank for n in nodes], dtype=np.intp)
        coeff_shapes = np.array(
            [n.coeffs.shape if n.coeffs is not None else (0, 0) for n in nodes], dtype=np.intp
        )
        coeff_indptr = np.zeros(num_nodes + 1, dtype=np.intp)
        np.cumsum(coeff_shapes[:, 0] * coeff_shapes[:, 1], out=coeff_indptr[1:])
        coeff_data = Concatenated([n.coeffs for n in nodes if n.coeffs is not None], dtype)

        near_indptr, near_cols = ragged([lists.near.get(n.node_id, []) for n in nodes])
        far_indptr, far_cols = ragged([lists.far.get(n.node_id, []) for n in nodes])

        slabs = near_row_slabs(compressed)
        offsets = np.zeros(len(slabs) + 1, dtype=np.intp)
        np.cumsum([slab.array.size for slab in slabs], out=offsets[1:])
        rows = [row for slab in slabs for row in slab.rows]
        mirror = [flag for slab in slabs for flags in slab.mirror for flag in flags]
        col_indptr = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum([len(cols) for _, cols in rows], out=col_indptr[1:])
        near_slabs = {
            "shapes": np.array([slab.array.shape for slab in slabs], dtype=np.intp).reshape(-1, 3),
            "offsets": offsets,
            "leaves": np.array([beta for beta, _ in rows], dtype=np.intp),
            "col_indptr": col_indptr,
            "cols": np.array([a for _, cols in rows for a in cols], dtype=np.intp),
            "mirror": np.array(mirror, dtype=bool),
            "data": Concatenated([slab.array for slab in slabs], np.float64),
        }
        # Listed near pairs the rows apply: one per column, two per mirrored one.
        num_near_blocks = int(col_indptr[-1]) + sum(mirror)

        cached = dict(compressed.far_blocks.cached_items())
        order = sorted(cached)
        shapes = np.array([cached[k].shape for k in order], dtype=np.intp).reshape(-1, 2)
        indptr = np.zeros(len(order) + 1, dtype=np.intp)
        np.cumsum(shapes[:, 0] * shapes[:, 1], out=indptr[1:])
        data = Concatenated([cached[key] for key in order], dtype)
        far_blocks = {
            "keys": np.array(order, dtype=np.intp).reshape(-1, 2),
            "indptr": indptr,
            "shapes": shapes,
            "data": data,
        }

        from ..api.stages import STAGE_ORDER, stage_fingerprint

        def jsonable_fingerprint(fingerprint: dict) -> dict:
            # Unlike the session's three persisted stages, the full six
            # include the skeletons stage whose fingerprint carries a dtype.
            return {
                key: (
                    value.value
                    if isinstance(value, DistanceMetric)
                    else value.name if isinstance(value, np.dtype) else value
                )
                for key, value in sorted(fingerprint.items())
            }

        partition_arrays = {
            "node_offsets": np.concatenate(
                [[0], np.cumsum([n.indices.size for n in nodes])]
            ).astype(np.intp),
            "node_indices": np.concatenate([n.indices for n in nodes]),
        }
        near_pairs = lists.total_near_pairs()
        far_pairs = lists.total_far_pairs()
        manifest = {
            "kind": OperatorStore.KIND,
            "schema_version": STORE_SCHEMA_VERSION,
            "n": int(tree.n),
            "depth": int(tree.depth),
            "num_nodes": num_nodes,
            "num_leaves": int(lists.num_leaves),
            "budget_cap": int(lists.budget_cap),
            "config": config_to_jsonable(compressed.config),
            "fingerprints": {
                stage: jsonable_fingerprint(stage_fingerprint(compressed.config, stage))
                for stage in STAGE_ORDER
            },
            "counts": {
                "near_pairs": int(near_pairs),
                "far_pairs": int(far_pairs),
                "near_blocks": int(num_near_blocks),
                "far_blocks": int(len(order)),
            },
            # Whether every interaction pair has a stored block.  When
            # False (memoryless compression) an opened operator needs its
            # source matrix re-attached before it can evaluate.
            "blocks_complete": bool(num_near_blocks == near_pairs and len(order) == far_pairs),
        }
        arrays: Dict[str, np.ndarray] = {
            **partition_arrays,
            "skeleton_indptr": skeleton_indptr,
            "skeleton_indices": skeleton_indices,
            "skeleton_ranks": skeleton_ranks,
            "coeff_indptr": coeff_indptr,
            "coeff_shapes": coeff_shapes,
            "coeff_data": coeff_data,
            "near_indptr": near_indptr,
            "near_cols": near_cols,
            "far_indptr": far_indptr,
            "far_cols": far_cols,
        }
        for prefix, packed in (("near_slab", near_slabs), ("far_block", far_blocks)):
            for part, array in packed.items():
                arrays[f"{prefix}_{part}"] = array
        write_array_dir(path, manifest, arrays)
        return OperatorStore(path)

    # -- open ---------------------------------------------------------------

    def open(self, resident: str = "mmap", matrix=None, **config_overrides):
        """Rebuild the :class:`~repro.core.hmatrix.CompressedMatrix`.

        ``resident="mmap"`` keeps coefficients and blocks as read-only
        mmap views (paged in on demand), so matvecs default to the
        ``"streamed"`` engine, which runs L2L on the stored row slabs in
        place and fills its bounded chunk workspace only with blocks the
        store lacks; ``resident="ram"`` loads everything eagerly, so a
        fully cached store runs the ``"planned"`` engine like a fresh
        operator, on the loaded row slabs.  Either way the near provider
        (:class:`StoredRowProvider`) hands the slabs out through
        ``row_slabs()`` and reads a folded pair's other direction as the
        transposed view.  A store without a column table (written before
        each symmetric pair was stored once; readable for one release) opens
        its rows as each leaf's whole Near list, applied one way — the same
        reader, the same in-place L2L.  A store in the older flat
        near-block layout opens through :class:`StoredBlockProvider` and
        both engines fill its rows.  ``matrix`` re-attaches the source SPD
        matrix (required to evaluate stores saved from memoryless
        compressions).  The slab tables are validated here: a shape that
        disagrees with its leaves, offsets that do not cover the data, a
        leaf in two slabs, a malformed column table, or rows applying a pair
        the Near lists do not list, or twice, raise
        :class:`~repro.errors.ArtifactMismatchError`.
        """
        if resident not in ("mmap", "ram"):
            raise ConfigurationError(f"resident must be 'mmap' or 'ram', got {resident!r}")
        mmap = resident == "mmap"
        manifest, arrays = read_array_dir(self.path, mmap=mmap, retries=self.retries)
        self._validate_manifest(manifest)

        config = config_from_jsonable(manifest["config"])
        if config_overrides:
            config = config.replace(**config_overrides)

        from ..api.stages import Partition
        from ..core.hmatrix import CompressedMatrix
        from ..core.interactions import InteractionLists

        n = int(manifest["n"])
        num_nodes = int(manifest["num_nodes"])
        try:
            partition = Partition.from_arrays(
                arrays["node_offsets"], arrays["node_indices"], int(manifest["depth"]), n
            )
            partition.tree.check_invariants(config.leaf_size)
        except ArtifactMismatchError:
            raise
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            # The specific shapes of a hand-edited / truncated partition:
            # bad offsets (ValueError/IndexError), wrong dtypes (TypeError),
            # missing arrays (KeyError).  Anything else — MemoryError, a
            # transient OSError from the mmap — is a real failure and
            # propagates instead of masquerading as a corrupt artifact.
            _LOG.warning(
                "store partition rejected at the trust boundary: %s: %s",
                type(exc).__name__, exc,
            )
            raise ArtifactMismatchError(f"store holds a malformed partition: {exc}") from exc
        tree = partition.tree
        if len(tree.nodes) != num_nodes:
            raise ArtifactMismatchError(
                f"store manifest says {num_nodes} nodes, partition has {len(tree.nodes)}"
            )

        def check_indptr(name: str, flat_name: str) -> np.ndarray:
            indptr = arrays[name]
            flat = arrays[flat_name]
            if (
                indptr.shape != (num_nodes + 1,)
                or indptr[0] != 0
                or np.any(np.diff(indptr) < 0)
                or indptr[-1] != flat.size
            ):
                raise ArtifactMismatchError(f"store holds malformed {name} arrays")
            return indptr

        skeleton_indptr = check_indptr("skeleton_indptr", "skeleton_indices")
        coeff_indptr = check_indptr("coeff_indptr", "coeff_data")
        near_indptr = check_indptr("near_indptr", "near_cols")
        far_indptr = check_indptr("far_indptr", "far_cols")
        skeleton_indices = arrays["skeleton_indices"]
        skeleton_ranks = arrays["skeleton_ranks"]
        coeff_shapes = arrays["coeff_shapes"]
        coeff_data = arrays["coeff_data"]
        near_cols = arrays["near_cols"]
        far_cols = arrays["far_cols"]
        if skeleton_ranks.shape != (num_nodes,) or coeff_shapes.shape != (num_nodes, 2):
            raise ArtifactMismatchError("store holds malformed skeleton rank/shape arrays")
        for cols, what in ((near_cols, "Near"), (far_cols, "Far")):
            if cols.size and (cols.min() < 0 or cols.max() >= num_nodes):
                raise ArtifactMismatchError(f"store holds {what} lists referencing unknown nodes")

        near: Dict[int, list] = {}
        far: Dict[int, list] = {}
        leaf_ids = {leaf.node_id for leaf in tree.leaves}
        for i, node in enumerate(tree.nodes):
            rank = int(skeleton_ranks[i])
            skeleton = skeleton_indices[skeleton_indptr[i] : skeleton_indptr[i + 1]]
            if skeleton.size != rank:
                raise ArtifactMismatchError(
                    f"store skeleton of node {i} has {skeleton.size} indices, rank says {rank}"
                )
            if rank:
                node.skeleton = skeleton
                node.skeleton_rank = rank
            rows, cols_ = (int(coeff_shapes[i, 0]), int(coeff_shapes[i, 1]))
            span = int(coeff_indptr[i + 1] - coeff_indptr[i])
            if rows * cols_ != span:
                raise ArtifactMismatchError(f"store coefficients of node {i} are truncated")
            if span:
                node.coeffs = coeff_data[coeff_indptr[i] : coeff_indptr[i + 1]].reshape(rows, cols_)
            node.near = near_cols[near_indptr[i] : near_indptr[i + 1]].tolist()
            node.far = far_cols[far_indptr[i] : far_indptr[i + 1]].tolist()
            if node.near:
                if i not in leaf_ids:
                    raise ArtifactMismatchError("store holds Near lists on internal nodes")
                near[i] = node.near
            elif i in leaf_ids:
                near[i] = []
            if node.far:
                far[i] = node.far

        lists = InteractionLists(
            near=near,
            far=far,
            leaf_position={leaf.node_id: pos for pos, leaf in enumerate(tree.leaves)},
            num_leaves=int(manifest["num_leaves"]),
            budget_cap=int(manifest["budget_cap"]),
        )
        if "near_slab_data" in arrays:
            near_provider = StoredRowProvider(
                _stored_row_slabs(arrays, tree, near), arrays["near_slab_data"], tree, matrix
            )
        else:  # the older flat layout
            near_provider = StoredBlockProvider(
                arrays["near_block_keys"], arrays["near_block_indptr"],
                arrays["near_block_shapes"], arrays["near_block_data"],
                tree=tree, matrix=matrix,
            )
        far_provider = StoredBlockProvider(
            arrays["far_block_keys"], arrays["far_block_indptr"],
            arrays["far_block_shapes"], arrays["far_block_data"],
            tree=tree, matrix=matrix, use_skeletons=True,
        )
        self.manifest = manifest
        return CompressedMatrix(
            tree=tree,
            lists=lists,
            config=config,
            near_blocks=near_provider,
            far_blocks=far_provider,
            matrix=matrix,
        )

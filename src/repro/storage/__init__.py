"""Out-of-core operator storage.

Two pillars let operators larger than RAM compress, cold-start and
serve (the ROADMAP's "out-of-core end-to-end" thread):

* :mod:`repro.storage.store` — the mmap artifact format v2: a directory
  of per-array ``.npy`` files behind a fingerprinted ``manifest.json``,
  opened read-only with ``np.load(..., mmap_mode="r")`` so coefficients,
  interaction lists and cached blocks page in on demand.
* :mod:`repro.storage.panels` — :class:`PanelSource` / :class:`PanelSink`
  adapters that stream RHS weights and outputs through the evaluation as
  bounded column panels instead of full ``(n, r)`` arrays.
"""

from .panels import (
    ArrayPanelSink,
    ArrayPanelSource,
    MmapPanelSink,
    MmapPanelSource,
    PanelSink,
    PanelSource,
    as_panel_sink,
    as_panel_source,
)
from .store import (
    MANIFEST_NAME,
    STORE_SCHEMA_VERSION,
    OperatorStore,
    StoredBlockProvider,
    is_disk_backed,
    read_array_dir,
    write_array_dir,
)

__all__ = [
    "PanelSource",
    "PanelSink",
    "ArrayPanelSource",
    "ArrayPanelSink",
    "MmapPanelSource",
    "MmapPanelSink",
    "as_panel_source",
    "as_panel_sink",
    "MANIFEST_NAME",
    "STORE_SCHEMA_VERSION",
    "OperatorStore",
    "StoredBlockProvider",
    "is_disk_backed",
    "read_array_dir",
    "write_array_dir",
]

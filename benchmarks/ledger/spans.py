"""The ledger's own span recorder, used by the traced pass only.

Spans are recorded from the benchmark's files around calls into each layer's
public functions; nothing under ``src/`` is edited.  A span is (name, start,
end, parent, run id); spans stay in memory and are written when the run ends.
A layer's self time is its span minus the part its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._open.__dict__.setdefault("stack", [])
        record = {"name": name, "parent": stack[-1] if stack else None, "run": self.run_id,
                  "start": 0.0, "end": 0.0, **attrs}
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def child_seconds(self, name: str) -> list[dict[str, float]]:
        """For each span called ``name``: seconds spent in its direct children, by child name."""
        by_parent = {i: defaultdict(float) for i, s in enumerate(self.spans) if s["name"] == name}
        for span in self.spans:
            if span["parent"] in by_parent:
                by_parent[span["parent"]][span["name"]] += span["end"] - span["start"]
        return [dict(children) for children in by_parent.values()]

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name (children overlap nothing: one thread per tree)."""
        covered = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span["name"]] += span["end"] - span["start"] - covered[index]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"run": self.run_id, "spans": self.spans}, handle)

"""Thread-aware span tracing with a module-level no-op fast path.

The tracer is the substrate of the repo's observability layer: every
instrumented site — the seven :class:`~repro.api.session.Session` stages,
the per-level skeletonization loops, the four evaluation passes, the
streaming chunk pipeline, :class:`~repro.runtime.executor.WorkerPool`
tasks and the serving batch phases — opens a span through the same API::

    with tracer.span("skeletonize.level", level=3, nodes=128):
        ...

Design constraints, in the order the hot paths care about them:

* **Disabled cost is one attribute check.**  :func:`get_tracer` returns a
  module-level singleton; when tracing is off that singleton is
  :data:`NULL_TRACER`, whose class attribute ``enabled`` is ``False``.
  Hot paths do ``if get_tracer().enabled:`` — a module-global load plus
  an attribute read — and skip all instrumentation: no allocation, no
  clock read, no lock.  The pinned overhead guard in
  ``tests/unit/test_obs.py`` holds this to ≤3% of a planned-engine
  matvec.
* **Thread-aware, lock-free recording.**  Every thread owns a private
  span buffer and depth counter (``threading.local``); a finished span
  is recorded with one ``list.append`` onto the owning thread's buffer,
  which is atomic under the GIL — no lock on the record path.  The
  tracer's lock is taken once per thread (buffer registration) and on
  snapshot/export, so worker threads never contend while tracing.
* **Monotonic clocks.**  All timestamps come from
  :func:`time.perf_counter` (monotonic, sub-microsecond); exporters
  rebase them against the tracer's epoch so traces start at t=0.

Spans never alter the numerical work they wrap — tracing on or off, every
engine stays bit-identical (pinned in tests).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "tracing",
]


class Span:
    """One finished (or instant) span: name, interval, thread, attributes."""

    __slots__ = ("name", "start", "end", "thread_id", "thread_name", "depth", "attrs")

    def __init__(
        self,
        name: str,
        start: float,
        end: float,
        thread_id: int,
        thread_name: str,
        depth: int,
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.thread_id = thread_id
        self.thread_name = thread_name
        self.depth = depth
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_instant(self) -> bool:
        return self.end == self.start

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
            f"thread={self.thread_name!r}, depth={self.depth}, attrs={self.attrs})"
        )


class _ThreadState(threading.local):
    """Per-thread recording state: the buffer, the nesting depth, identity."""

    def __init__(self) -> None:  # called once per thread by threading.local
        self.buffer: List[Span] = []
        self.depth = 0
        self.ident = 0
        self.name = ""
        self.registered = False


class _SpanCtx:
    """Context manager for one live span (allocated per ``span()`` call)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start", "_state")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._start = 0.0
        self._state: Optional[_ThreadState] = None

    def set(self, **attrs: Any) -> "_SpanCtx":
        """Attach attributes discovered while the span is open."""
        self._attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanCtx":
        state = self._tracer._state()
        state.depth += 1
        self._state = state
        self._start = self._tracer._clock()
        return self

    def __exit__(self, *exc: Any) -> bool:
        end = self._tracer._clock()
        state = self._state
        state.depth -= 1
        state.buffer.append(
            Span(self._name, self._start, end, state.ident, state.name, state.depth, self._attrs)
        )
        return False


class _NullSpanCtx:
    """Reusable no-op span: enter/exit/set do nothing, allocate nothing."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpanCtx":
        return self

    def __enter__(self) -> "_NullSpanCtx":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpanCtx()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``enabled`` is a *class* attribute, so the hot-path check
    ``get_tracer().enabled`` never touches instance state.
    """

    enabled = False
    __slots__ = ()

    def span(self, name: str, **attrs: Any) -> _NullSpanCtx:
        return _NULL_SPAN

    def instant(self, name: str, **attrs: Any) -> None:
        return None

    def add_span(self, name: str, start: float, end: float, **attrs: Any) -> None:
        return None

    def spans(self) -> List[Span]:
        return []

    def thread_names(self) -> Dict[int, str]:
        return {}

    def clear(self) -> None:
        return None


#: The process-wide disabled tracer; ``get_tracer()`` returns it whenever
#: no real tracer is installed.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans from any number of threads; see the module docstring."""

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        # thread ident -> (thread name, that thread's buffer).  Buffers are
        # appended to lock-free by their owning thread; this registry is the
        # only shared structure and is touched once per thread + on export.
        self._threads: Dict[int, Tuple[str, List[Span]]] = {}
        self._tls = _ThreadState()
        self.epoch = clock()

    # -- recording ----------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = self._tls
        if not state.registered:
            t = threading.current_thread()
            state.name = t.name
            state.registered = True
            with self._lock:
                # OS thread idents are reused once a thread exits; a reused
                # ident must not overwrite the finished thread's track, so
                # probe forward to a free id for the new thread.
                tid = t.ident or 0
                while tid in self._threads:
                    tid += 1
                state.ident = tid
                self._threads[tid] = (state.name, state.buffer)
        return state

    def span(self, name: str, **attrs: Any) -> _SpanCtx:
        """Open a span; use as a context manager (``with tracer.span(...)``)."""
        return _SpanCtx(self, name, attrs)

    def instant(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration event (e.g. a shed, a stall)."""
        state = self._state()
        now = self._clock()
        state.buffer.append(Span(name, now, now, state.ident, state.name, state.depth, attrs))

    def add_span(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """Record a span with explicit timestamps (synthetic / aggregated spans)."""
        state = self._state()
        state.buffer.append(Span(name, start, end, state.ident, state.name, state.depth, attrs))

    # -- inspection / export -------------------------------------------------
    def spans(self) -> List[Span]:
        """Snapshot of every recorded span across all threads, by start time."""
        with self._lock:
            buffers = [list(buf) for _, buf in self._threads.values()]
        out: List[Span] = []
        for buf in buffers:
            out.extend(buf)
        out.sort(key=lambda s: s.start)
        return out

    def thread_names(self) -> Dict[int, str]:
        with self._lock:
            return {ident: name for ident, (name, _) in self._threads.items()}

    def clear(self) -> None:
        """Drop every recorded span (buffers stay registered); reset the epoch."""
        with self._lock:
            for _, buf in self._threads.values():
                del buf[:]
        self.epoch = self._clock()

    def __len__(self) -> int:
        return len(self.spans())


# ---------------------------------------------------------------------------
# the module-level active tracer (the no-op fast path)
# ---------------------------------------------------------------------------

_active: Any = NULL_TRACER


def get_tracer():
    """The active tracer — :data:`NULL_TRACER` unless one was installed."""
    return _active


def set_tracer(tracer: Optional[Tracer]):
    """Install ``tracer`` as the process-wide active tracer.

    ``None`` (or a disabled tracer) restores the no-op fast path.  Returns
    the tracer actually installed.
    """
    global _active
    _active = tracer if (tracer is not None and tracer.enabled) else NULL_TRACER
    return _active


@contextmanager
def tracing(tracer: Optional[Tracer]) -> Iterator[Any]:
    """Scoped activation: install ``tracer``, restore the previous one on exit."""
    previous = _active
    installed = set_tracer(tracer)
    try:
        yield installed
    finally:
        set_tracer(previous if isinstance(previous, Tracer) else None)

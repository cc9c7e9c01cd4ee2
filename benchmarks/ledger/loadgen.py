"""One-thread load generator for the serving phases (closed bursts, open loop).

The box has two cores: this thread generates, the server's batcher thread
serves.  An open loop submits on a fixed schedule whatever the server does;
every latency is timed from the moment the request was *due*, so a stall is
charged to the requests that queued behind it, and how late the generator
itself ran is reported next to the latencies it produced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.serving import BatchPolicy, ShardRouter

from .stats import median, percentile

NAME = "operator"


def start_router(op, serve) -> ShardRouter:
    policy = BatchPolicy(
        max_batch=serve.max_batch, max_wait_ms=serve.max_wait_ms, max_queue=serve.max_queue
    )
    router = ShardRouter(num_shards=1, policy=policy)
    router.register(NAME, op)
    return router.start()


@dataclass
class Phase:
    """Outcome of one traffic phase; latencies in ms by request class."""

    latency_ms: dict = field(default_factory=dict)   # "throughput" | "interactive" | "solve"
    late_ms: list = field(default_factory=list)
    submit_us: list = field(default_factory=list)
    responses: list = field(default_factory=list)    # (class, vector index, result)
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0

    @property
    def achieved_rate(self) -> float:
        return self.attempted / self.seconds if self.seconds else 0.0

    def p50(self, kind: str) -> float:
        return median(self.latency_ms[kind])

    def tail(self, kind: str, p: float) -> float:
        return percentile(self.latency_ms[kind], p)


def _drain(phase: Phase, pending, timeout: float = 60.0) -> None:
    """Wait for every future; an error, a shed or a timeout is a failed request."""
    for kind, index, due, future, done in pending:
        try:
            result = future.result(timeout=timeout)
        except Exception:  # the request failed: that is the measurement, not a crash
            phase.failed += 1
            continue
        while not done[0]:                          # result() can return before the callback ran
            time.sleep(0)
        phase.latency_ms.setdefault(kind, []).append((done[0] - due) * 1e3)
        phase.responses.append((kind, index, result))


def _submit(router, phase: Phase, pending, kind, index, vector, due, **params) -> None:
    done = [0.0]
    phase.attempted += 1
    start = time.perf_counter()
    try:
        if kind == "solve":
            future = router.submit(NAME, vector, "solve", **params)
        else:
            future = router.submit(NAME, vector, lane=kind)
    except Exception:  # rejected at the door (overload): counted, never retried
        phase.failed += 1
        return
    phase.submit_us.append((time.perf_counter() - start) * 1e6)
    future.add_done_callback(lambda _f, done=done: done.__setitem__(0, time.perf_counter()))
    pending.append((kind, index, due, future, done))


def closed_burst(router, vectors: np.ndarray, count: int) -> Phase:
    """``count`` throughput-lane matvecs submitted at once, then drained."""
    phase, pending = Phase(), []
    start = time.perf_counter()
    for i in range(count):
        index = i % vectors.shape[1]
        _submit(router, phase, pending, "throughput", index, vectors[:, index], start)
    _drain(phase, pending)
    phase.seconds = time.perf_counter() - start
    return phase


def open_loop(router, vectors: np.ndarray, rate: float, seconds: float,
              interactive_every: int = 0, solve_every: int = 0, **solve_params) -> Phase:
    """Requests due every ``1/rate`` s for ``seconds``; every k-th on another class."""
    phase, pending = Phase(), []
    total = int(rate * seconds)
    start = time.perf_counter()
    for i in range(total):
        due = start + i / rate
        while True:
            now = time.perf_counter()
            if now >= due:
                break
            if due - now > 1e-3:
                time.sleep(due - now - 5e-4)       # then spin the last half millisecond
        phase.late_ms.append((now - due) * 1e3)
        index = i % vectors.shape[1]
        if solve_every and i % solve_every == solve_every - 1:
            _submit(router, phase, pending, "solve", index, vectors[:, index], due, **solve_params)
        elif interactive_every and i % interactive_every == interactive_every - 1:
            _submit(router, phase, pending, "interactive", index, vectors[:, index], due)
        else:
            _submit(router, phase, pending, "throughput", index, vectors[:, index], due)
    phase.seconds = time.perf_counter() - start
    _drain(phase, pending)
    return phase

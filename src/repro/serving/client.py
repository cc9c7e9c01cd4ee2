"""Serving clients: a blocking thread-based client and an ``asyncio`` front end.

Both are thin wrappers over :meth:`MatvecServer.submit` (or anything
with the same ``submit`` surface)
that add the two behaviours a caller should not hand-roll:

* **overload retry** — :class:`~repro.errors.ServerOverloadedError` carries
  the server's ``retry_after_s`` hint; the clients honor it with *capped
  exponential backoff plus jitter*: attempt ``i`` sleeps
  ``min(max_backoff_s, retry_after_s · backoff_growth^i)`` scaled by a
  uniform jitter factor in ``[1 - jitter, 1]`` (jitter decorrelates
  retrying clients so a rejected burst does not come back as the same
  burst), up to ``retries`` times before re-raising.  Deadline sheds
  (:class:`~repro.errors.DeadlineExceededError`) are *not* retried — the
  deadline already expired; the caller owns that decision,
* **event-loop integration** — :class:`AsyncServingClient` wraps the
  request future with :func:`asyncio.wrap_future`, so thousands of
  outstanding requests cost coroutines, not threads, while the batcher
  coalesces them into wide evaluations exactly as with the sync client.

Both clients pass latency-lane and deadline selection through:
``client.matvec(name, w, lane="interactive", deadline_ms=50.0)``.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Optional

import numpy as np

from ..errors import ServerOverloadedError, ServingConfigError
from .batcher import MATVEC, SOLVE

__all__ = ["ServingClient", "AsyncServingClient"]


class _BackoffMixin:
    """Shared retry-budget bookkeeping for the two clients."""

    def _init_backoff(self, retries: int, backoff_growth: float, max_backoff_s: float,
                      jitter: float, rng: Optional[random.Random]) -> None:
        if retries < 0:
            raise ServingConfigError(f"retries must be >= 0, got {retries}")
        if backoff_growth < 1.0:
            raise ServingConfigError(f"backoff_growth must be >= 1, got {backoff_growth}")
        if max_backoff_s <= 0.0:
            raise ServingConfigError(f"max_backoff_s must be positive, got {max_backoff_s}")
        if not (0.0 <= jitter < 1.0):
            raise ServingConfigError(f"jitter must be in [0, 1), got {jitter}")
        self.retries = int(retries)
        self.backoff_growth = float(backoff_growth)
        self.max_backoff_s = float(max_backoff_s)
        self.jitter = float(jitter)
        self._rng = rng if rng is not None else random.Random()

    def _backoff_s(self, retry_after_s: float, attempt: int) -> float:
        """Capped exponential backoff from the server's hint, with jitter."""
        base = max(retry_after_s, 1e-4) * self.backoff_growth ** attempt
        capped = min(self.max_backoff_s, base)
        return capped * (1.0 - self.jitter * self._rng.random())


class ServingClient(_BackoffMixin):
    """Blocking client with bounded, jittered retry on backpressure rejections."""

    def __init__(self, server, retries: int = 3, *, backoff_growth: float = 2.0,
                 max_backoff_s: float = 1.0, jitter: float = 0.5,
                 rng: Optional[random.Random] = None) -> None:
        self.server = server
        self._init_backoff(retries, backoff_growth, max_backoff_s, jitter, rng)

    def _submit(self, name: str, w: np.ndarray, kind: str, params: dict,
                lane: Optional[str], deadline_ms: Optional[float]):
        for attempt in range(self.retries + 1):
            try:
                return self.server.submit(name, w, kind=kind, lane=lane,
                                          deadline_ms=deadline_ms, **params)
            except ServerOverloadedError as exc:
                if attempt == self.retries:
                    raise
                time.sleep(self._backoff_s(exc.retry_after_s, attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    def matvec(self, name: str, w: np.ndarray, timeout: Optional[float] = None, *,
               lane: Optional[str] = None, deadline_ms: Optional[float] = None) -> np.ndarray:
        return self._submit(name, w, MATVEC, {}, lane, deadline_ms).result(timeout)

    def solve(self, name: str, rhs: np.ndarray, timeout: Optional[float] = None, *,
              lane: Optional[str] = None, deadline_ms: Optional[float] = None, **solve_params):
        return self._submit(name, rhs, SOLVE, solve_params, lane, deadline_ms).result(timeout)


class AsyncServingClient(_BackoffMixin):
    """``asyncio`` front end: awaitable requests over the same thread-based server.

    Usage::

        client = AsyncServingClient(server)
        results = await asyncio.gather(*(client.matvec("kernel", w) for w in vectors))

    Submissions happen on the event-loop thread (they only enqueue);
    responses are awaited without blocking the loop.  Backpressure retries
    use ``asyncio.sleep`` with the same capped-exponential-plus-jitter
    schedule as the sync client, so a congested server never stalls
    unrelated coroutines.
    """

    def __init__(self, server, retries: int = 3, *, backoff_growth: float = 2.0,
                 max_backoff_s: float = 1.0, jitter: float = 0.5,
                 rng: Optional[random.Random] = None) -> None:
        self.server = server
        self._init_backoff(retries, backoff_growth, max_backoff_s, jitter, rng)

    async def _submit(self, name: str, w: np.ndarray, kind: str, params: dict,
                      lane: Optional[str], deadline_ms: Optional[float]):
        for attempt in range(self.retries + 1):
            try:
                future = self.server.submit(name, w, kind=kind, lane=lane,
                                            deadline_ms=deadline_ms, **params)
            except ServerOverloadedError as exc:
                if attempt == self.retries:
                    raise
                await asyncio.sleep(self._backoff_s(exc.retry_after_s, attempt))
                continue
            return await asyncio.wrap_future(future)
        raise AssertionError("unreachable")  # pragma: no cover

    async def matvec(self, name: str, w: np.ndarray, *, lane: Optional[str] = None,
                     deadline_ms: Optional[float] = None) -> np.ndarray:
        return await self._submit(name, w, MATVEC, {}, lane, deadline_ms)

    async def solve(self, name: str, rhs: np.ndarray, *, lane: Optional[str] = None,
                    deadline_ms: Optional[float] = None, **solve_params):
        return await self._submit(name, rhs, SOLVE, solve_params, lane, deadline_ms)

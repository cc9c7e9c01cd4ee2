"""Structured logging for the repo, rooted at the ``"repro"`` namespace.

Every module logs through :func:`get_logger`, so one handler / level
configuration covers the whole library (``logging.getLogger("repro")``)
and embedders can route it like any stdlib logger.  The root carries a
``NullHandler`` — importing the library never prints anything; call
:func:`configure` (or attach your own handler) to see events.

The library emits events only where behaviour silently degrades or
changes shape: deadline sheds, a streaming plan whose workspace exceeds
its chunk budget, and legacy ``.npz`` artifact fallbacks.
"""

from __future__ import annotations

import logging
from typing import Optional

__all__ = ["ROOT_NAME", "get_logger", "configure"]

ROOT_NAME = "repro"

_root = logging.getLogger(ROOT_NAME)
_root.addHandler(logging.NullHandler())


def get_logger(name: str = "") -> logging.Logger:
    """Logger under the ``"repro"`` namespace (``get_logger("serving.batcher")``)."""
    return _root if not name else logging.getLogger(f"{ROOT_NAME}.{name}")


def configure(level: int = logging.INFO, stream=None, fmt: Optional[str] = None) -> logging.Logger:
    """Attach one stream handler to the ``"repro"`` root (idempotent).

    Returns the root logger.  Repeated calls update the level and keep a
    single handler, so benchmark scripts can call it unconditionally.
    """
    _root.setLevel(level)
    fmt = fmt or "%(asctime)s %(levelname)s %(name)s: %(message)s"
    for handler in _root.handlers:
        if isinstance(handler, logging.StreamHandler) and not isinstance(handler, logging.NullHandler):
            handler.setLevel(level)
            handler.setFormatter(logging.Formatter(fmt))
            return _root
    handler = logging.StreamHandler(stream)
    handler.setLevel(level)
    handler.setFormatter(logging.Formatter(fmt))
    _root.addHandler(handler)
    return _root

"""One construction log: the steps of a build, recorded only when asked.

    with obs.recording() as log:
        general_expander(g, 0.05)
    [e["op"] for e in log]      # strong-gens, square, compact, ...

Each event is a dict with its "op" first, then its fields (totals, bounds,
spans). Outside ``recording()`` an event costs one context-variable read.
A nested ``recording()`` takes the events until it exits. Events raised
inside the ``lru_cache``d builders (``abexp._final_r_cached``,
``abexp._compact_r_points``) are recorded only on a cache miss: a second
build that reuses their result logs none of their steps.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

_log: ContextVar[list | None] = ContextVar("cayexp_log", default=None)


@contextmanager
def recording():
    """Collect the events raised in the block; yields the event list."""
    events: list[dict] = []
    token = _log.set(events)
    try:
        yield events
    finally:
        _log.reset(token)


def active() -> bool:
    """Whether a recording is open: work done only for an event can wait
    on it."""
    return _log.get() is not None


def event(op: str, **fields) -> None:
    """Append {"op": op, **fields} to the active recording, if any."""
    log = _log.get()
    if log is not None:
        log.append({"op": op, **fields})

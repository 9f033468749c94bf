"""A cheap span/event recorder keyed by wire-propagated trace ids.

Publication lifecycles cross threads, asyncio tasks and -- in the
federation -- process boundaries.  Rather than a full tracing stack, each
server-side component owns one :class:`TraceRecorder`: a bounded ring of
compact event tuples.  Clients mint a trace id (:func:`new_trace_id`)
and attach it to wire frames as the optional ``trace`` body field; every
layer that sees the id appends events (``op``, ``queue.wait``,
``runtime.publish``, ``verdict.push``, ``verdict.flip``...) stamped with a
wall-clock timestamp.  The ``trace`` wire op exports the ring, and the
CLI / :meth:`Federation.trace` merge rings across processes -- on one
host the wall clocks are directly comparable, which is the loopback
federation's deployment model.

Recording sits on the publication hot path (the service op loop and the
shard workers both record), so it is built to be cheap: a disabled
recorder or a missing trace id returns before any work, and a live
record is one tuple build plus one ``deque.append`` -- atomic under the
GIL, so no lock is taken; event dicts are only materialized at export
time, off the hot path.  Ring entries are *flat tuples of atomic values*
(strings, numbers, bools, None) on purpose: CPython untracks such
tuples at the first gen-0 pass, so the ring's constant churn of
surviving events never feeds the cyclic GC's older generations -- with
dict-shaped events, tracing measurably increased full-collection
frequency under load.
"""

from __future__ import annotations

import os
import time
from collections import deque
from contextlib import contextmanager
from typing import Optional

__all__ = ["TraceRecorder", "new_trace_id"]

#: Default bound of a recorder's event ring.
DEFAULT_TRACE_CAPACITY = 4096


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (random, collision-safe per session).

    ``os.urandom`` instead of ``uuid.uuid4`` -- same 64 bits of
    randomness, ~6x cheaper, and the load generator mints one per
    publication when tracing a whole run.
    """
    return os.urandom(8).hex()


class TraceRecorder:
    """A bounded in-memory ring of trace events, safe from any thread.

    Events are stored as flat ``(trace_id, name, ts, duration_ms,
    key, value, key, value, ...)`` tuples -- atomics only, so the GC
    untracks them -- and only expanded to dicts by :meth:`export`; the
    recorder's ``component`` is stamped at export time (it is fixed
    before traffic starts, so every retained event belongs to it).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        enabled: bool = True,
        component: str = "service",
    ) -> None:
        if capacity < 1:
            raise ValueError("the trace ring needs at least one slot")
        self.capacity = capacity
        self.enabled = enabled
        self.component = component
        # deque.append/list(deque) are GIL-atomic: no lock on the hot path.
        self._events: deque[tuple] = deque(maxlen=capacity)

    def record(
        self,
        trace_id: Optional[str],
        name: str,
        duration_ms: Optional[float] = None,
        **attrs,
    ) -> None:
        """Append one event; a no-op without a trace id or when disabled."""
        if not self.enabled or not trace_id:
            return
        if attrs:
            flat: tuple = (trace_id, name, time.time(), duration_ms)
            for pair in attrs.items():
                flat += pair
            self._events.append(flat)
        else:
            self._events.append((trace_id, name, time.time(), duration_ms))

    def record_flat(self, trace_id: Optional[str], name: str, duration_ms, *pairs) -> None:
        """:meth:`record` for hot paths: attrs as flat positional pairs.

        ``record_flat(tid, "queue.wait", ms, "function", fn)`` skips the
        kwargs-dict build -- one tuple concat and one append.
        """
        if not self.enabled or not trace_id:
            return
        self._events.append((trace_id, name, time.time(), duration_ms) + pairs)

    @contextmanager
    def span(self, trace_id: Optional[str], name: str, **attrs):
        """Record ``name`` with its wall-clock duration around a block."""
        if not self.enabled or not trace_id:
            yield
            return
        started = time.perf_counter()
        try:
            yield
        finally:
            self.record(
                trace_id, name, duration_ms=1000 * (time.perf_counter() - started), **attrs
            )

    def export(self, trace_id: Optional[str] = None, limit: Optional[int] = None) -> list[dict]:
        """The retained events (optionally one trace's), oldest first."""
        events = list(self._events)
        if trace_id is not None:
            events = [event for event in events if event[0] == trace_id]
        if limit is not None and limit >= 0:
            events = events[-limit:]
        component = self.component
        exported = []
        for raw in events:
            tid, name, ts, duration_ms = raw[:4]
            event = {"trace": tid, "name": name, "component": component, "ts": ts}
            if duration_ms is not None:
                event["ms"] = round(duration_ms, 4)
            for index in range(4, len(raw), 2):
                event[raw[index]] = raw[index + 1]
            exported.append(event)
        return exported

    def __len__(self) -> int:
        return len(self._events)

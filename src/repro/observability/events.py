"""One bounded event log per member, read through a trace view and a log view.

Publication lifecycles cross threads, asyncio tasks and -- in the
federation -- process boundaries.  Each server-side component (server,
runtime, pod, directory) owns one :class:`EventLog`: two bounded rings
of compact event tuples, one for events with a trace id and one for
events without, so untraced traffic can never evict a traced
publication's spans.  Clients mint a trace id (:func:`new_trace_id`) and
attach it to wire frames as the optional ``trace`` body field; every
hook that sees the id stamps it on the one event it emits.

An event carries both a span ``name`` (``op``, ``queue.wait``,
``runtime.publish``, ``verdict.push``...) and a prose ``msg`` ("op
completed", "publication settled"...), so the two questions an operator
asks read the same tuples:

* the **trace view** (:meth:`EventLog.trace`, the ``trace`` wire op):
  events with a trace id and a name -- how long did each hop take;
* the **log view** (:meth:`EventLog.logs`, the ``logs`` wire op):
  events with a message, at or above a severity floor -- what happened,
  in words.  Log events are emitted with or without a trace id: a lease
  failure or a shed burst matters whether or not a client traced it.

A trace-only hook passes ``msg=None``; a log-only hook passes
``name=None``.  The CLI and :meth:`Federation.trace` / ``logs`` merge
the members' rings by wall-clock timestamp -- on one host the clocks are
directly comparable, which is the loopback federation's deployment model.

Emitting sits on the publication hot path (the service op loop and the
runtime both emit), so it is one tuple build plus one ``deque.append``
on the ring the trace id selects -- atomic under the GIL, so no lock is
taken; event dicts are only built at export time.  Ring entries are
*flat tuples of atomic values* (strings, numbers, bools, None) on
purpose: CPython untracks such tuples at the first gen-0 pass, so the
rings' churn never feeds the cyclic GC's older generations -- with
dict-shaped events, recording measurably increased full-collection
frequency under load.
"""

from __future__ import annotations

import os
import time
from collections import deque
from operator import itemgetter
from typing import Optional

__all__ = ["EVENT_CAPACITY", "EventLog", "LEVELS", "new_trace_id"]

#: Bound of a member's event log, split evenly between the traced and
#: the untraced ring (oldest events of a ring are evicted first).
EVENT_CAPACITY = 8192

#: Severity levels, least to most severe (the syslog-ish subset we need).
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

# Slots of a ring tuple: (trace_id, level, name, msg, ts, ms, *pairs).
_PAIRS = 6


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (random, collision-safe per session).

    ``os.urandom`` instead of ``uuid.uuid4`` -- same 64 bits of
    randomness, ~6x cheaper, and the load generator mints one per
    publication when tracing a whole run.
    """
    return os.urandom(8).hex()


def _select(events: list, limit: Optional[int]) -> list:
    """The last ``limit`` events (all of them when ``limit`` is None or negative)."""
    if limit is None or limit < 0:
        return events
    return events[max(0, len(events) - limit):]


class EventLog:
    """Two bounded in-memory rings of events, safe from any thread.

    Events with a trace id go to the traced ring, the rest to the
    untraced ring, each holding ``EVENT_CAPACITY // 2`` events; the
    trace view reads the traced ring, the log view merges both by
    timestamp.  Events are stored as flat ``(trace_id, level, name, msg,
    ts, ms, key, value, ...)`` tuples -- atomics only, so the GC untracks them --
    and only expanded to dicts by :meth:`trace` and :meth:`logs`; the
    ``component`` is stamped at export time (it is fixed before traffic
    starts, so every retained event belongs to it).  ``enabled`` is the
    off switch: a disabled log returns from :meth:`emit` before any work.
    """

    def __init__(self, component: str = "service") -> None:
        self.component = component
        self.enabled = True
        # deque.append/list(deque) are GIL-atomic: no lock on the hot path.
        self._traced: deque[tuple] = deque(maxlen=EVENT_CAPACITY // 2)
        self._untraced: deque[tuple] = deque(maxlen=EVENT_CAPACITY // 2)

    def emit(
        self,
        level: str,
        name: Optional[str],
        msg: Optional[str],
        trace_id: Optional[str],
        ms: Optional[float],
        *pairs,
    ) -> None:
        """Append one event; attributes come as flat ``key, value`` pairs.

        ``emit("info", "op", "op completed", tid, 1.5, "op", "publish")``
        is one tuple concat and one append.
        """
        if self.enabled:
            (self._traced if trace_id else self._untraced).append(
                (trace_id or None, level, name, msg, time.time(), ms) + pairs
            )

    def trace(self, trace_id: Optional[str] = None, limit: Optional[int] = None) -> list[dict]:
        """The trace view: events with a trace id and a name, oldest first."""
        events = [
            raw for raw in list(self._traced)  # GIL-atomic snapshot
            if raw[2] is not None and (trace_id is None or raw[0] == trace_id)
        ]
        component = self.component
        exported = []
        for raw in _select(events, limit):
            event = {"trace": raw[0], "name": raw[2], "component": component, "ts": raw[4]}
            exported.append(_expand(event, raw))
        return exported

    def logs(
        self,
        trace_id: Optional[str] = None,
        limit: Optional[int] = None,
        level: Optional[str] = None,
    ) -> list[dict]:
        """The log view: events with a message at or above ``level``, oldest first.

        Raises :class:`ValueError` for a level outside :data:`LEVELS`.
        """
        floor = 0
        if level is not None:
            floor = LEVELS.get(level, -1)
            if floor < 0:
                raise ValueError(f"unknown log level {level!r}: expected one of {sorted(LEVELS)}")
        ring = list(self._traced)  # GIL-atomic snapshot
        if trace_id is None:
            ring = sorted(ring + list(self._untraced), key=itemgetter(4))
        events = [
            raw for raw in ring
            if raw[3] is not None and LEVELS.get(raw[1], 0) >= floor
            and (trace_id is None or raw[0] == trace_id)
        ]
        component = self.component
        exported = []
        for raw in _select(events, limit):
            event = {"level": raw[1], "component": component, "msg": raw[3], "ts": raw[4]}
            if raw[0] is not None:
                event["trace"] = raw[0]
            exported.append(_expand(event, raw))
        return exported

    def __len__(self) -> int:
        return len(self._traced) + len(self._untraced)


def _expand(event: dict, raw: tuple) -> dict:
    """Add a ring tuple's duration and attribute pairs to its view's dict."""
    if raw[5] is not None:
        event["ms"] = round(raw[5], 4)
    for index in range(_PAIRS, len(raw), 2):
        event[raw[index]] = raw[index + 1]
    return event

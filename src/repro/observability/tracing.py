"""The old import path of :func:`new_trace_id`.

The event ring lives in :mod:`repro.observability.events`; this module
only keeps ``from repro.observability.tracing import new_trace_id``
working for the benchmark harness (``perfbench/service.py``).
"""

from repro.observability.events import new_trace_id

__all__ = ["new_trace_id"]

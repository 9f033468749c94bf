"""Pluggable validation backends: ``python`` and ``codegen``.

A *backend* decides how a compiled schema turns documents into verdicts;
it never changes **what** the verdict is.  The interpreted ``python``
kernel (:class:`~repro.engine.batch.CompiledSchema` and
:class:`~repro.streaming.machine.StreamingRun`) is the differential
oracle: every other backend must be verdict-identical to it on every
input, including malformed and truncated payloads (see
``tests/engine/test_backend_identity.py``).

* ``python`` -- the interpreted big-int bitset loops.  O(depth) streaming
  memory, no codegen, always available.  The default.
* ``codegen`` -- per-schema generated validator functions
  (:mod:`repro.engine.codegen`): the whole-payload hot path parses with
  the bare C parser and folds the element tree through a generated
  recursive mask function with per-label memo tables.  ~3x faster on the
  benchmark workloads; trades the streaming path's O(depth) bound for
  O(document) (the parser's element tree is materialized).

Selection precedence: explicit API argument (``backend=...`` / the CLI
``--backend`` flag) > the ``REPRO_BACKEND`` environment variable >
``python``.  Unknown backends raise a typed
:class:`~repro.errors.DesignError` naming the fallback.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import DesignError

__all__ = ["BACKENDS", "BACKEND_ENV_VAR", "resolve_backend"]

#: Every backend name the registry knows.
BACKENDS = ("python", "codegen")

#: Environment variable consulted when no explicit backend is requested.
BACKEND_ENV_VAR = "REPRO_BACKEND"


def resolve_backend(requested: Optional[str] = None) -> str:
    """Resolve a backend request to a concrete backend name.

    ``None`` falls back to ``$REPRO_BACKEND``, then to ``"python"``.
    Unknown names raise :class:`~repro.errors.DesignError` naming the
    interpreted fallback, so callers fail fast at construction time
    rather than deep inside a validation loop.
    """
    name = requested
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or "python"
    name = str(name).strip().lower()
    if name not in BACKENDS:
        raise DesignError(
            f"unknown validation backend {name!r}: expected one of "
            f"{', '.join(BACKENDS)} (the interpreted fallback is 'python')"
        )
    return name

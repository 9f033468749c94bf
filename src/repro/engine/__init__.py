"""The compiled-schema engine: memoized automaton compilation and batch validation.

Every decision procedure of the paper -- consistency ``cons[S]``, the
perfect-automaton construction ``Ω(A, w)``, the existence problems ``∃-loc``
and ``∃-ml``, and plain document validation -- bottoms out in the same
handful of automaton operations: epsilon removal, subset construction,
minimisation, and pairwise inclusion / equivalence.  The seed recompiled
these from scratch at every call site; this package provides the shared
compilation seam instead:

* :mod:`repro.engine.fingerprint` content-addresses automata with a
  canonical fingerprint over states, transitions and final states;
* :mod:`repro.engine.cache` is the bounded LRU cache with hit / miss /
  eviction statistics;
* :mod:`repro.engine.compilation` is the :class:`CompilationEngine` that
  memoizes the full NFA → ε-free → DFA → minimal-DFA pipeline plus pairwise
  inclusion / equivalence verdicts (string *and* tree languages);
* :mod:`repro.engine.batch` compiles a schema once and validates many
  documents against it in a single pass (:class:`BatchValidator`);
* :mod:`repro.engine.backends` is the pluggable validation-backend
  registry (``python`` / ``codegen``) and :mod:`repro.engine.codegen`
  the per-schema code generator behind the ``codegen`` backend.

A process-wide default engine is installed at import time; the layers above
(:mod:`repro.schemas.content_model`, :mod:`repro.automata.equivalence`,
:mod:`repro.schemas.compare`, :mod:`repro.core`, :mod:`repro.distributed`)
route through it unless an explicit engine is injected (see
:func:`use_engine` and the ``engine`` parameter of
:func:`repro.api.analyze_design`).
"""

from __future__ import annotations

from repro.engine.backends import BACKENDS, resolve_backend
from repro.engine.batch import BatchReport, BatchValidator, CompiledSchema
from repro.engine.codegen import CodegenValidator, codegen_validator_for
from repro.engine.cache import CacheStats, LRUCache
from repro.engine.compilation import (
    CompilationEngine,
    get_default_engine,
    reset_default_engine,
    set_default_engine,
    use_engine,
)
from repro.engine.fingerprint import (
    alphabet_key,
    dfa_fingerprint,
    nfa_fingerprint,
    payload_fingerprint,
    tree_fingerprint,
    uta_fingerprint,
)

__all__ = [
    "BACKENDS",
    "BatchReport",
    "BatchValidator",
    "CacheStats",
    "CodegenValidator",
    "CompilationEngine",
    "CompiledSchema",
    "LRUCache",
    "alphabet_key",
    "codegen_validator_for",
    "dfa_fingerprint",
    "get_default_engine",
    "nfa_fingerprint",
    "payload_fingerprint",
    "resolve_backend",
    "reset_default_engine",
    "set_default_engine",
    "tree_fingerprint",
    "use_engine",
    "uta_fingerprint",
]

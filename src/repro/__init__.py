"""repro -- a reproduction of "Distributed XML Design" (Abiteboul, Gottlob, Manna; PODS 2009).

The library implements the paper's theory of typing distributed XML
documents: kernel documents with docking points for external resources,
bottom-up consistency (``cons[S]`` and ``typeT(τn)``), and top-down typing
(sound / local / maximal-local / perfect typings, their verification and
existence problems), together with every substrate those results rely on
(string automata, regular expressions, unranked tree automata and the
R-DTD / R-SDTD / R-EDTD schema abstractions).

The convenient entry points live in :mod:`repro.api`; the most common ones
are re-exported lazily here so that ``import repro`` stays cheap and the
subpackages (``repro.automata``, ``repro.trees``, ...) can also be imported
directly without pulling in the whole library.
"""

from __future__ import annotations

from typing import Any

__version__ = "1.0.0"

#: Names re-exported from :mod:`repro.api` (resolved lazily, PEP 562).
_API_EXPORTS = (
    "BatchValidator",
    "CompilationEngine",
    "Design",
    "DesignReport",
    "DesignSession",
    "ExecutionConfig",
    "Federation",
    "analyze_design",
    "bottom_up_design",
    "dtd",
    "sdtd",
    "edtd",
    "get_default_engine",
    "kernel",
    "new_trace_id",
    "top_down_design",
    "tree",
    "use_engine",
    "ServiceHandle",
    "StreamingValidator",
    "ValidationRuntime",
    "WorkloadReport",
)

__all__ = list(_API_EXPORTS) + ["__version__"]


def __getattr__(name: str) -> Any:
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)

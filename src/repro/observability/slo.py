"""Service-level objectives evaluated as multi-window burn rates.

The missing judgment layer over the raw metric families: the families
say what happened, an :class:`SloEvaluator` says whether that is *okay*.
Two kinds of objective are declared:

* **per-op latency** (:class:`LatencyObjective`): the op's p99 -- the
  bucket estimate of the existing ``repro_request_latency_ms`` histogram
  family, at most one bucket (19%) above the exact value -- must stay at
  or below a target.  Reading it creates no series: an objective op that
  has not been served yet reads as p99 ``0`` with count ``0``;
* **availability**: the fraction of requests answered with a
  server-fault error code (``internal-error``, ``overloaded``) must stay
  within an error budget.  The budget is evaluated as **burn rates**
  over multiple trailing windows -- the classic fast-burn/slow-burn
  pair: a short window catches a sudden outage within seconds, a long
  window catches a slow leak that a short window would forgive.  A burn
  rate of ``1.0`` means the budget is being spent exactly as fast as it
  accrues; alerting convention pages above ``~2`` on the short window.

Counter families are cumulative, so windowed rates are computed from a
small history ring of ``(ts, requests, budget_errors)`` points -- one
appended per :meth:`SloEvaluator.refresh`, which the server calls on
every ``/metrics`` scrape and every ``stats`` request.  Everything is
exported as ``repro_slo_*`` gauges in the same registry the exposition
renders, so the federation's ``scrape_all()`` single pane carries the
SLO verdicts of every member with no extra plumbing.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "DEFAULT_ERROR_BUDGET",
    "DEFAULT_OBJECTIVES",
    "DEFAULT_WINDOWS",
    "LatencyObjective",
    "SloEvaluator",
]

#: Error codes that spend the availability budget: server faults and
#: shed load.  Typed client mistakes (``unknown-design``, ``bad-request``,
#: ``invalid-xml``...) are the *client's* problem, not the service's.
BUDGET_CODES = frozenset({"internal-error", "overloaded", "shutting-down"})

#: Default availability error budget: 1% of requests may be server-faulted.
DEFAULT_ERROR_BUDGET = 0.01

#: Default burn-rate windows (seconds): fast-burn and slow-burn.
DEFAULT_WINDOWS = (60.0, 300.0)


@dataclass(frozen=True)
class LatencyObjective:
    """One op's latency objective: p99 at or below ``p99_ms``."""

    op: str
    p99_ms: float


#: Default per-op latency objectives, sized for the loopback deployment
#: the benchmarks gate (a real deployment overrides these).
DEFAULT_OBJECTIVES: tuple[LatencyObjective, ...] = (
    LatencyObjective("publish", 250.0),
    LatencyObjective("publish_stream_end", 500.0),
    LatencyObjective("validate", 250.0),
    LatencyObjective("ping", 50.0),
)


class SloEvaluator:
    """Evaluate latency and availability objectives from a server's metrics.

    ``metrics`` is a :class:`~repro.service.metrics.ServiceMetrics`; the
    evaluator registers its ``repro_slo_*`` gauge families into the same
    registry and rewrites them on every :meth:`refresh`.  Refresh runs on
    the exporter's scrape thread and the event loop alike, so the small
    history ring is lock-guarded.
    """

    def __init__(
        self,
        metrics,
        objectives: Sequence[LatencyObjective] = DEFAULT_OBJECTIVES,
        error_budget: float = DEFAULT_ERROR_BUDGET,
        windows: Sequence[float] = DEFAULT_WINDOWS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not 0.0 < error_budget < 1.0:
            raise ValueError("the error budget is a request fraction in (0, 1)")
        self._metrics = metrics
        self.objectives = tuple(objectives)
        self.error_budget = error_budget
        self.windows = tuple(sorted(windows))
        self._clock = clock
        self._lock = threading.Lock()
        #: (ts, requests_total, budget_errors_total) points, oldest first.
        #: Bounded generously past the longest window at one point per
        #: scrape-second; the window scan below tolerates a sparse ring.
        self._history: deque[tuple[float, int, int]] = deque(maxlen=4096)
        registry = metrics.registry
        self._gauge_p99 = registry.gauge_family(
            "repro_slo_latency_p99_ms", "observed p99 latency of each objective op", ("op",)
        )
        self._gauge_target = registry.gauge_family(
            "repro_slo_latency_target_ms", "declared p99 latency objective per op", ("op",)
        )
        self._gauge_latency_ok = registry.gauge_family(
            "repro_slo_latency_ok", "1 when the op's p99 meets its objective", ("op",)
        )
        self._gauge_burn = registry.gauge_family(
            "repro_slo_error_burn_rate",
            "availability error-budget burn rate per trailing window",
            ("window",),
        )
        self._gauge_budget = registry.gauge_family(
            "repro_slo_error_budget_ratio", "declared availability error budget"
        )

    # ------------------------------------------------------------------ #
    # raw totals
    # ------------------------------------------------------------------ #

    def _totals(self) -> tuple[int, int]:
        """Cumulative ``(requests, budget-spending errors)`` right now."""
        requests = sum(child.value for _key, child in self._metrics.requests.children())
        errors = sum(
            child.value
            for (code,), child in self._metrics.errors.children()
            if code in BUDGET_CODES
        )
        return requests, errors

    def _burn_rates(self, now: float) -> dict[str, float]:
        """Burn rate per window from the history ring (including ``now``)."""
        requests, errors = self._totals()
        with self._lock:
            self._history.append((now, requests, errors))
            points = list(self._history)
        rates: dict[str, float] = {}
        for window in self.windows:
            horizon = now - window
            # The oldest retained point inside the window (or the first
            # point ever, while the process is younger than the window).
            base = points[0]
            for point in points:
                if point[0] >= horizon:
                    base = point
                    break
            d_requests = requests - base[1]
            d_errors = errors - base[2]
            ratio = (d_errors / d_requests) if d_requests > 0 else 0.0
            rates[f"{int(window)}s"] = ratio / self.error_budget
        return rates

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def refresh(self) -> dict:
        """Re-evaluate every objective, rewrite the gauges, return a summary."""
        now = self._clock()
        burn = self._burn_rates(now)
        self._gauge_budget.labels().set(self.error_budget)
        for window, rate in burn.items():
            self._gauge_burn.labels(window=window).set(round(rate, 6))
        latency: dict[str, dict] = {}
        served = dict(self._metrics.latency.children())
        for objective in self.objectives:
            histogram = served.get((objective.op,))
            p99 = histogram.quantile(0.99) if histogram else 0.0
            ok = p99 <= objective.p99_ms
            self._gauge_p99.labels(op=objective.op).set(round(p99, 4))
            self._gauge_target.labels(op=objective.op).set(objective.p99_ms)
            self._gauge_latency_ok.labels(op=objective.op).set(1 if ok else 0)
            latency[objective.op] = {
                "p99_ms": round(p99, 4),
                "target_ms": objective.p99_ms,
                "count": histogram.count if histogram else 0,
                "ok": ok,
            }
        requests, errors = self._totals()
        return {
            "error_budget": self.error_budget,
            "burn_rates": {window: round(rate, 6) for window, rate in burn.items()},
            "requests_total": requests,
            "budget_errors_total": errors,
            "latency": latency,
            "ok": all(entry["ok"] for entry in latency.values())
            and all(rate <= 1.0 for rate in burn.values()),
        }

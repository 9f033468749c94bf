"""Shared counters, histograms and traffic ledgers.

One counter implementation serves every accounting need of the system:

* :class:`Counter` -- a thread-safe monotonic counter;
* :class:`Gauge` -- a thread-safe settable value (queue depths, live pods);
* :class:`Histogram` -- counts over one fixed log-spaced bucket layout
  (:data:`BUCKET_BOUNDS`) plus exact count/sum/max (request latencies,
  batch sizes, queue depths).  Every histogram shares the layout, so
  histograms from different pods or scrapes merge by adding counts;
* :class:`TrafficLedger` -- the message/byte pair used both by the
  simulated peer :class:`~repro.distributed.network.Network` and by the
  validation service's socket accounting
  (:mod:`repro.service.metrics`), so "bytes shipped" means the same thing
  whether the traffic is simulated control messages or real TCP frames;
* :class:`CounterFamily` / :class:`GaugeFamily` / :class:`HistogramFamily`
  -- labeled metric families with a *frozen* label set (``op``,
  ``design``, ``shard``, ``backend``, ``pod``...), the unit the
  Prometheus exposition in :mod:`repro.observability` renders;
* :class:`MetricsRegistry` -- a named collection of families and
  ledgers with one ``snapshot()`` (the base of the service's ``stats``
  reply) and a ``collect()`` view the exposition renderer consumes;
* :func:`exact_quantile` -- the exact nearest-rank quantile of a finished
  sample list, for load generators and benchmarks.

The module sits beside :mod:`repro.engine` at the bottom of the layer
stack on purpose: ``distributed`` and ``service`` both import it, never
each other's accounting.  Everything here is synchronised with plain
locks and safe to update from pool workers, shard tasks and the asyncio
event loop thread alike.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from itertools import accumulate
from typing import NamedTuple, Sequence

#: The one histogram bucket layout (upper bounds; ``+Inf`` is implicit):
#: four per power of two, ``2 ** -9.75`` (~0.0012) to ``2 ** 20``.  A
#: quantile estimate of a value in ``(2 ** -10, 2 ** 20]`` overshoots by
#: under 19% (``2 ** 0.25``), below it by under 0.0012; above it, it is ``max``.
BUCKET_BOUNDS: tuple[float, ...] = tuple(2.0 ** (k / 4) for k in range(-39, 81))

_UPPER_BOUNDS = BUCKET_BOUNDS + (math.inf,)

#: The repo's metric-name convention, checked at family creation (and by
#: the CI lint): a ``repro_`` prefix, lower-snake, optional unit suffix.
METRIC_NAME_RE = re.compile(r"^repro_[a-z][a-z0-9_]*$")

#: Label names are plain lower-snake identifiers.
LABEL_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def _rank(count: int, fraction: float) -> int:
    """The 0-based nearest-rank index of quantile ``fraction`` among ``count`` values."""
    top = count - 1
    return min(top, int(round(fraction * top)))


def exact_quantile(samples: Sequence[float], fraction: float) -> float:
    """The exact nearest-rank ``fraction`` quantile (0..1) of finished samples.

    For benchmark and load-generator sample lists; the same rank as a
    :class:`Histogram` estimate, without its bucket rounding.  An empty
    sequence yields ``0.0``.
    """
    if not samples:
        return 0.0
    return sorted(samples)[_rank(len(samples), fraction)]


class Counter:
    """A thread-safe monotonic counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A thread-safe settable value (the non-monotonic sibling of Counter)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A fixed-bucket histogram: mergeable counts plus exact totals.

    Every histogram shares the one bucket layout :data:`BUCKET_BOUNDS`,
    so two histograms (two pods, two scrapes) combine by adding their
    per-bucket counts.  ``count``, ``sum`` and ``max`` are exact; a
    quantile is estimated as the upper bound of the bucket holding the
    nearest-rank observation, capped at ``max`` -- never below the exact
    nearest-rank value and at most one bucket (a factor ``2 ** 0.25``)
    above it.  Observations are expected to be non-negative.
    """

    __slots__ = ("_lock", "_counts", "_count", "_sum", "_max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def record(self, value: float) -> None:
        index = bisect_left(BUCKET_BOUNDS, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def buckets(self) -> tuple[list[int], float]:
        """Cumulative per-bucket counts (the last is ``count``) and the exact sum."""
        with self._lock:
            counts, total = list(self._counts), self._sum
        return list(accumulate(counts)), total

    def quantile(self, fraction: float) -> float:
        """The estimated nearest-rank ``fraction`` quantile (0..1); 0 when empty."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("a quantile fraction lies in [0, 1]")
        with self._lock:
            counts, count, maximum = list(self._counts), self._count, self._max
        return _estimates(counts, count, maximum, (fraction,))[0]

    def snapshot(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            count, total, maximum = self._count, self._sum, self._max
        p50, p90, p99, p999 = _estimates(counts, count, maximum, (0.50, 0.90, 0.99, 0.999))
        return {
            "count": count,
            "mean": total / count if count else 0.0,
            "p50": p50,
            "p90": p90,
            "p99": p99,
            "p999": p999,
            "max": maximum,
        }


def _estimates(
    counts: list[int], count: int, maximum: float, fractions: Sequence[float]
) -> list[float]:
    """Bucket estimates of nearest-rank quantiles: the holding bucket's bound, capped at max."""
    if not count:
        return [0.0 for _ in fractions]
    cumulative = list(accumulate(counts))
    return [
        min(_UPPER_BOUNDS[bisect_left(cumulative, _rank(count, fraction) + 1)], maximum)
        for fraction in fractions
    ]


class LedgerSnapshot(NamedTuple):
    """An atomically-read ``(messages, bytes)`` point of a :class:`TrafficLedger`."""

    messages: int
    bytes: int

    def delta(self, base: "LedgerSnapshot") -> "LedgerSnapshot":
        """The traffic recorded between ``base`` and this snapshot."""
        return LedgerSnapshot(self.messages - base.messages, self.bytes - base.bytes)


class TrafficLedger:
    """A message/byte pair with O(1) atomic reads.

    The simulated peer network and the service's socket layer both account
    their traffic through this one class, so the ``stats`` request can
    report simulated control-message costs and real wire bytes side by
    side without two drifting implementations.
    """

    __slots__ = ("_lock", "_messages", "_bytes")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._messages = 0
        self._bytes = 0

    def record(self, nbytes: int, messages: int = 1) -> None:
        with self._lock:
            self._messages += messages
            self._bytes += nbytes

    @property
    def messages(self) -> int:
        with self._lock:
            return self._messages

    @property
    def bytes(self) -> int:
        with self._lock:
            return self._bytes

    def snapshot(self) -> LedgerSnapshot:
        with self._lock:
            return LedgerSnapshot(self._messages, self._bytes)

    def since(self, base: LedgerSnapshot) -> LedgerSnapshot:
        """The traffic recorded since ``base`` (one atomic read)."""
        return self.snapshot().delta(base)

    def reset(self) -> None:
        with self._lock:
            self._messages = 0
            self._bytes = 0


class _MetricFamily:
    """A labeled metric family: one name, a frozen label set, many children.

    ``labels(op="publish")`` returns (creating on first use) the child
    metric for that label combination; the label *names* are fixed at
    family creation and every ``labels()`` call must supply exactly those
    names, so a family can never grow surprise dimensions.  Children are
    memoized -- the hot path is one dict lookup under the family lock,
    and call sites are encouraged to cache the child itself.
    """

    kind = "untyped"
    _child_factory = staticmethod(lambda: None)

    __slots__ = ("name", "help", "label_names", "_lock", "_children")

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        if not METRIC_NAME_RE.match(name):
            raise ValueError(
                f"metric family name {name!r} violates the convention {METRIC_NAME_RE.pattern}"
            )
        for label in labels:
            if not LABEL_NAME_RE.match(label):
                raise ValueError(f"label name {label!r} violates {LABEL_NAME_RE.pattern}")
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labels: str):
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"family {self.name!r} takes labels {self.label_names}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._child_factory()
            return child

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        """``(label_values, child)`` pairs in deterministic (sorted) order."""
        with self._lock:
            return sorted(self._children.items())

    def snapshot(self) -> dict:
        """A JSON-ready ``{"label=value,...": value_or_snapshot}`` mapping."""
        return {
            ",".join(
                f"{name}={value}" for name, value in zip(self.label_names, key)
            ): self._child_value(child)
            for key, child in self.children()
        }

    @staticmethod
    def _child_value(child):
        return child.value

    _child_sample = _child_value


class CounterFamily(_MetricFamily):
    kind = "counter"
    _child_factory = staticmethod(Counter)
    __slots__ = ()


class GaugeFamily(_MetricFamily):
    kind = "gauge"
    _child_factory = staticmethod(Gauge)

    __slots__ = ()

    def clear(self) -> None:
        """Drop every child (federation aggregates are rebuilt per scrape)."""
        with self._lock:
            self._children.clear()


class HistogramFamily(_MetricFamily):
    kind = "histogram"
    _child_factory = staticmethod(Histogram)
    __slots__ = ()

    @staticmethod
    def _child_value(child):
        return child.snapshot()

    @staticmethod
    def _child_sample(child):
        return child.buckets()


class MetricsRegistry:
    """A named collection of labeled metric families and traffic ledgers.

    Families and ledgers are created on first use
    (``counter_family("repro_requests_total", ...)``), so call sites
    never need registration boilerplate; ``snapshot()`` returns one
    JSON-ready dict and ``collect()`` the view the exposition renders.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ledgers: dict[str, TrafficLedger] = {}
        self._families: dict[str, _MetricFamily] = {}

    def ledger(self, name: str) -> TrafficLedger:
        with self._lock:
            ledger = self._ledgers.get(name)
            if ledger is None:
                ledger = self._ledgers[name] = TrafficLedger()
            return ledger

    # -- labeled families ------------------------------------------------ #

    def _family(self, cls, name: str, help: str, labels: Sequence[str]):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = cls(name, help, labels)
            elif not isinstance(family, cls) or family.label_names != tuple(labels):
                raise ValueError(
                    f"family {name!r} already registered as {type(family).__name__}"
                    f" with labels {family.label_names}"
                )
            return family

    def counter_family(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> CounterFamily:
        return self._family(CounterFamily, name, help, labels)

    def gauge_family(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> GaugeFamily:
        return self._family(GaugeFamily, name, help, labels)

    def histogram_family(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> HistogramFamily:
        return self._family(HistogramFamily, name, help, labels)

    def families(self) -> list[_MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def collect(self) -> list[dict]:
        """A normalized, renderer-ready view of every family and ledger.

        Each entry is ``{"name", "kind", "help", "samples"}`` where a
        sample is ``(label_pairs, value)`` for counters/gauges and
        ``(label_pairs, (cumulative_bucket_counts, sum))`` for histograms
        (see :meth:`Histogram.buckets`); ``label_pairs`` is a tuple of
        ``(label_name, label_value)`` tuples.  Ledgers surface as two
        counter families (``<name>_messages_total`` /
        ``<name>_bytes_total``).
        """
        collected = []
        for family in self.families():
            samples = [
                (tuple(zip(family.label_names, key)), family._child_sample(child))
                for key, child in family.children()
            ]
            collected.append(
                {
                    "name": family.name,
                    "kind": family.kind,
                    "help": family.help,
                    "samples": samples,
                }
            )
        with self._lock:
            ledgers = sorted(self._ledgers.items())
        for name, ledger in ledgers:
            snap = ledger.snapshot()
            base = "repro_" + re.sub(r"[^a-z0-9_]", "_", name.lower())
            for suffix, value in (("messages", snap.messages), ("bytes", snap.bytes)):
                collected.append(
                    {
                        "name": f"{base}_{suffix}_total",
                        "kind": "counter",
                        "help": f"{suffix} recorded by the {name!r} traffic ledger",
                        "samples": [((), value)],
                    }
                )
        return collected

    def snapshot(self) -> dict:
        """``{"ledgers": ..., "families": ...}``, JSON-ready."""
        with self._lock:
            ledgers = sorted(self._ledgers.items())
            families = sorted(self._families.items())
        return {
            "ledgers": {name: ledger.snapshot()._asdict() for name, ledger in ledgers},
            "families": {name: family.snapshot() for name, family in families},
        }

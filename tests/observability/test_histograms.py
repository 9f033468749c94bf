"""Property tests of the fixed-bucket histogram: merging and quantile bounds.

Histograms of k shards must add up -- bucket by bucket, ``sum`` and
``count`` -- to the histogram of the shards' union, both as objects and
through the federation's merged exposition, and every quantile estimate
must sit between the exact nearest-rank value and that value's bucket
bound.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.metrics import BUCKET_BOUNDS, Histogram, MetricsRegistry, exact_quantile
from repro.observability.exposition import (
    SAMPLE_LINE_RE,
    merge_expositions,
    render_exposition,
)

# Multiples of 2**-10 up to 2**22 (past the last finite bound), plus the
# power-of-two bounds themselves: every sum of them is exact in a float,
# so merged and union sums compare with ``==``.
values = st.one_of(
    st.integers(min_value=0, max_value=2**32).map(lambda n: n / 1024),
    st.sampled_from(BUCKET_BOUNDS[3::4]),
)
shards = st.lists(st.lists(values, max_size=30), min_size=1, max_size=4)
FRACTIONS = (0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0)


def _histogram(samples) -> Histogram:
    histogram = Histogram()
    for value in samples:
        histogram.record(value)
    return histogram


def _exposition(samples) -> str:
    registry = MetricsRegistry()
    family = registry.histogram_family("repro_latency_ms", "latency", ("op",))
    for value in samples:
        family.labels(op="publish").record(value)
    return render_exposition(registry.collect())


def _series(text: str) -> dict[tuple[str, str], float]:
    """``(sample name, le)`` -> value, summed over every other label (the pods)."""
    totals: dict[tuple[str, str], float] = defaultdict(float)
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = SAMPLE_LINE_RE.match(line)
        assert match is not None, line
        labels = match.group("labels") or "{}"
        pairs = dict(part.split("=", 1) for part in labels[1:-1].split(",") if part)
        totals[match.group("name"), pairs.get("le", "")] += float(match.group("value"))
    return dict(totals)


@given(shards)
def test_merged_shards_equal_the_union(parts):
    union = _histogram(value for part in parts for value in part)
    histograms = [_histogram(part) for part in parts]
    summed = [sum(column) for column in zip(*(h.buckets()[0] for h in histograms))]
    union_cumulative, union_sum = union.buckets()
    assert summed == union_cumulative
    assert sum(h.buckets()[1] for h in histograms) == union_sum
    assert sum(h.count for h in histograms) == union.count


@given(shards)
def test_merged_expositions_add_up_to_the_union(parts):
    merged = merge_expositions(
        [((("pod", f"pod-{index}"),), _exposition(part)) for index, part in enumerate(parts)]
    )
    union = _exposition([value for part in parts for value in part])
    assert _series(merged) == _series(union)


@given(st.lists(values, min_size=1, max_size=60), st.sampled_from(FRACTIONS))
def test_estimate_lies_between_exact_value_and_its_bucket_bound(samples, fraction):
    histogram = _histogram(samples)
    exact = exact_quantile(samples, fraction)
    index = bisect_left(BUCKET_BOUNDS, exact)
    bound = BUCKET_BOUNDS[index] if index < len(BUCKET_BOUNDS) else max(samples)
    assert exact <= histogram.quantile(fraction) <= bound
    assert histogram.quantile(1.0) == max(samples) == histogram.snapshot()["max"]


def test_fraction_outside_the_unit_interval_is_rejected():
    with pytest.raises(ValueError):
        Histogram().quantile(1.5)
    with pytest.raises(ValueError):
        Histogram().quantile(-0.1)

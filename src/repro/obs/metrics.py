"""Labelled metrics with deterministic snapshots.

A :class:`MetricsRegistry` holds named series — :class:`Counter`
(monotone), :class:`Gauge` (set/inc/dec), :class:`Histogram` (log-spaced
:class:`StreamingHistogram` buckets) — keyed by name plus sorted labels,
Prometheus-style: ``serve.requests{outcome=completed}``.  Snapshots and
exports sort every key, so the same run produces byte-identical output.

:class:`StreamingHistogram` is a generic streaming-percentile
structure shared by serving and the fleet: log-spaced buckets with
constant relative error ~6%, O(1) record, O(buckets) percentile.
"""

from __future__ import annotations

import json
from typing import Any, Callable, TypeVar

import numpy as np

from repro.common.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StreamingHistogram",
    "series_key",
]


class StreamingHistogram:
    """Log-spaced latency histogram with O(1) record, O(B) percentiles."""

    def __init__(
        self,
        low_s: float = 1e-4,
        high_s: float = 60.0,
        buckets_per_decade: int = 40,
    ) -> None:
        if low_s <= 0 or high_s <= low_s or buckets_per_decade < 1:
            raise ConfigurationError(
                f"invalid histogram range [{low_s}, {high_s}] "
                f"x{buckets_per_decade}/decade"
            )
        self.low_s = float(low_s)
        self.high_s = float(high_s)
        decades = np.log10(high_s / low_s)
        n_buckets = int(np.ceil(decades * buckets_per_decade)) + 1
        # Upper edge of bucket i: low * 10**(i / buckets_per_decade).
        self._edges = self.low_s * np.power(
            10.0, np.arange(1, n_buckets + 1) / buckets_per_decade
        )
        self._counts = np.zeros(n_buckets + 2, dtype=np.int64)  # +under/over
        self.count = 0
        self.sum_s = 0.0
        self.max_s = 0.0

    def record(self, value_s: float) -> None:
        """Fold one latency sample into the histogram."""
        if value_s < 0:
            raise ConfigurationError(f"latency cannot be negative: {value_s}")
        self.count += 1
        self.sum_s += value_s
        self.max_s = max(self.max_s, value_s)
        if value_s < self.low_s:
            self._counts[0] += 1
        else:
            idx = int(np.searchsorted(self._edges, value_s, side="left"))
            self._counts[min(idx + 1, len(self._counts) - 1)] += 1

    def percentile(self, q: float) -> float:
        """Latency at quantile ``q`` in [0, 1] (bucket upper edge)."""
        if not 0 <= q <= 1:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for idx, bucket_count in enumerate(self._counts):
            cumulative += int(bucket_count)
            if cumulative >= target and bucket_count:
                if idx == 0:
                    return self.low_s
                if idx >= len(self._edges):
                    return self.max_s
                return float(min(self._edges[idx - 1], self.max_s))
        return self.max_s

    @property
    def mean_s(self) -> float:
        """Mean recorded latency."""
        return self.sum_s / self.count if self.count else 0.0


def series_key(name: str, labels: dict[str, str]) -> str:
    """Canonical series key: ``name{k1=v1,k2=v2}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotone non-decreasing count."""

    __slots__ = ("key", "value")

    def __init__(self, key: str) -> None:
        self.key = key
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative — counters never go down)."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.key} cannot decrease (inc by {amount})"
            )
        self.value += float(amount)


class Gauge:
    """A value that can move both ways (fleet size, queue depth)."""

    __slots__ = ("key", "value")

    def __init__(self, key: str) -> None:
        self.key = key
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by ``amount``."""
        self.value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        self.value -= float(amount)


class Histogram:
    """A labelled series over a :class:`StreamingHistogram`."""

    __slots__ = ("key", "hist")

    def __init__(
        self,
        key: str,
        low_s: float = 1e-4,
        high_s: float = 60.0,
        buckets_per_decade: int = 40,
    ) -> None:
        self.key = key
        self.hist = StreamingHistogram(low_s, high_s, buckets_per_decade)

    def observe(self, value: float) -> None:
        """Fold one sample into the histogram."""
        self.hist.record(value)

    def summary(self) -> dict[str, float]:
        """Deterministic digest: count, sum, mean, max, p50/p95/p99."""
        hist = self.hist
        return {
            "count": float(hist.count),
            "sum": hist.sum_s,
            "mean": hist.mean_s,
            "max": hist.max_s,
            "p50": hist.percentile(0.50),
            "p95": hist.percentile(0.95),
            "p99": hist.percentile(0.99),
        }


_SeriesT = TypeVar("_SeriesT", Counter, Gauge, Histogram)


class MetricsRegistry:
    """Get-or-create home for every metric series in a run."""

    def __init__(self) -> None:
        self._series: dict[str, Counter | Gauge | Histogram] = {}
        self._kinds: dict[str, type] = {}

    def _get(
        self,
        name: str,
        labels: dict[str, str],
        kind: type[_SeriesT],
        factory: Callable[[str], _SeriesT],
    ) -> _SeriesT:
        if not name:
            raise ConfigurationError("metric name must be non-empty")
        registered = self._kinds.setdefault(name, kind)
        if registered is not kind:
            raise ConfigurationError(
                f"metric {name!r} is already a {registered.__name__}, "
                f"not a {kind.__name__}"
            )
        key = series_key(name, labels)
        series = self._series.get(key)
        if series is None:
            series = factory(key)
            self._series[key] = series
        return series

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter series ``name`` + ``labels``."""
        return self._get(name, labels, Counter, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge series ``name`` + ``labels``."""
        return self._get(name, labels, Gauge, Gauge)

    def histogram(
        self,
        name: str,
        low_s: float = 1e-4,
        high_s: float = 60.0,
        buckets_per_decade: int = 40,
        **labels: str,
    ) -> Histogram:
        """Get or create the histogram series ``name`` + ``labels``."""
        return self._get(
            name,
            labels,
            Histogram,
            lambda key: Histogram(key, low_s, high_s, buckets_per_decade),
        )

    def __len__(self) -> int:
        return len(self._series)

    # ----------------------------------------------------------- export

    def snapshot(self) -> dict[str, Any]:
        """Deterministic point-in-time view of every series."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, float]] = {}
        for key in sorted(self._series):
            series = self._series[key]
            if isinstance(series, Counter):
                counters[key] = series.value
            elif isinstance(series, Gauge):
                gauges[key] = series.value
            else:
                histograms[key] = series.summary()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json(self) -> str:
        """Stable JSON rendering of :meth:`snapshot`."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        """Fixed-format text rendering, one series per line."""
        snap = self.snapshot()
        lines = []
        for key, value in snap["counters"].items():
            lines.append(f"counter   {key} {value:.6g}")
        for key, value in snap["gauges"].items():
            lines.append(f"gauge     {key} {value:.6g}")
        for key, digest in snap["histograms"].items():
            lines.append(
                f"histogram {key} count={digest['count']:.0f} "
                f"mean={digest['mean']:.6g} p50={digest['p50']:.6g} "
                f"p95={digest['p95']:.6g} p99={digest['p99']:.6g} "
                f"max={digest['max']:.6g}"
            )
        return "\n".join(lines) + ("\n" if lines else "")

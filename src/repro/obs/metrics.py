"""Metric value types: histograms and snapshot samples.

Counters and gauges are *derived* at snapshot time from the live simulation
objects (flow entries, link channels, host/switch tallies) — the hot path
pays nothing beyond the counting it already does.  Histograms are the only
accumulating structure: they store raw observations and compute exact
nearest-rank percentiles on demand, which is the right trade for simulated
runs (thousands to low millions of observations, no streaming constraint).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

__all__ = [
    "Histogram",
    "Sample",
    "MetricsSnapshot",
    "labels_key",
    "DEFAULT_BUCKET_BOUNDS",
]

#: default histogram bucket upper bounds (seconds): a 1-2-5 ladder from 1 µs
#: to 10 s, wide enough for per-hop queue waits and end-to-end RTTs alike.
DEFAULT_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    for base in (1.0, 2.0, 5.0)
) + (10.0,)


def labels_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    """Canonical hashable form of a label set (sorted, stringified)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Histogram:
    """Exact-percentile histogram over float observations."""

    __slots__ = ("values", "_sorted")

    def __init__(self) -> None:
        self.values: list[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        """Record one observation."""
        if self._sorted and self.values and value < self.values[-1]:
            self._sorted = False
        self.values.append(value)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self.values.sort()
            self._sorted = True

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self.values)

    @property
    def total(self) -> float:
        """Sum of observations."""
        return sum(self.values)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        return self.total / len(self.values) if self.values else 0.0

    @property
    def min(self) -> float:
        """Smallest observation (0.0 when empty)."""
        return min(self.values) if self.values else 0.0

    @property
    def max(self) -> float:
        """Largest observation (0.0 when empty)."""
        return max(self.values) if self.values else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100] (0.0 when empty)."""
        if not self.values:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} out of [0, 100]")
        self._ensure_sorted()
        rank = max(1, -(-len(self.values) * p // 100))  # ceil, 1-based
        return self.values[int(rank) - 1]

    def buckets(
        self, bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS
    ) -> list[tuple[float, int]]:
        """Cumulative buckets: ``(le, count ≤ le)`` pairs.

        The implicit ``+Inf`` bucket is :attr:`count`.
        """
        self._ensure_sorted()
        return [
            (le, bisect.bisect_right(self.values, le)) for le in sorted(bounds)
        ]

    def summary(
        self, bucket_bounds: Optional[Sequence[float]] = DEFAULT_BUCKET_BOUNDS
    ) -> dict[str, Any]:
        """The export form: count/sum/min/mean/p50/p95/p99/max (+ buckets).

        ``buckets`` — cumulative ``[le, count]`` pairs — ride along so a
        JSON snapshot keeps the distribution, not only its quantiles; pass
        ``bucket_bounds=None`` to omit them.
        """
        out: dict[str, Any] = {
            "count": float(self.count),
            "sum": self.total,
            "min": self.min,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max,
        }
        if bucket_bounds is not None:
            out["buckets"] = [list(b) for b in self.buckets(bucket_bounds)]
        return out

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Sample:
    """One exported counter/gauge reading at snapshot time."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float

    def label(self, key: str) -> Optional[str]:
        """One label's value, or None."""
        for k, v in self.labels:
            if k == key:
                return v
        return None

    def matches(self, **criteria: Any) -> bool:
        """True iff every criterion equals the sample's label value."""
        have = dict(self.labels)
        return all(have.get(k) == str(v) for k, v in criteria.items())


@dataclass
class MetricsSnapshot:
    """A point-in-time reading of every derived counter and gauge.

    ``samples`` covers counters/gauges; ``histograms`` maps
    ``(name, labels)`` to summary dicts; ``spans`` carries the completed
    span records.  Produced by :meth:`repro.obs.Observer.snapshot`.

    ``version`` stamps the export schema (2 since the self-profiling
    layer; version-1 documents predate the stamp entirely and consumers
    must treat a missing key as 1).  ``profile`` is the optional
    :meth:`repro.obs.prof.ProfileReport.to_doc` section, present only when
    a profiler was hooked at snapshot time.
    """

    #: current snapshot export schema version
    VERSION = 2

    sim_time_s: float
    samples: list[Sample] = field(default_factory=list)
    histograms: dict[tuple[str, tuple[tuple[str, str], ...]], dict[str, Any]] = field(
        default_factory=dict
    )
    spans: list = field(default_factory=list)  # list[SpanRecord]
    version: int = VERSION
    profile: Optional[dict[str, Any]] = None

    # -- building ---------------------------------------------------------
    def add(self, name: str, value: float, **labels: Any) -> None:
        """Append one counter/gauge sample."""
        self.samples.append(Sample(name, labels_key(labels), float(value)))

    # -- queries ----------------------------------------------------------
    def select(self, name: str, **criteria: Any) -> Iterator[Sample]:
        """Samples with a given name whose labels match all criteria."""
        for s in self.samples:
            if s.name == name and s.matches(**criteria):
                yield s

    def value(self, name: str, **criteria: Any) -> float:
        """The unique matching sample's value (KeyError if 0 or >1 match)."""
        found = list(self.select(name, **criteria))
        if len(found) != 1:
            raise KeyError(
                f"{name} with {criteria}: {len(found)} matches (need exactly 1)"
            )
        return found[0].value

    def total(self, name: str, **criteria: Any) -> float:
        """Sum over all matching samples (0.0 if none)."""
        return sum(s.value for s in self.select(name, **criteria))

    def histogram(self, name: str, **labels: Any) -> dict[str, Any]:
        """A histogram's summary dict (KeyError if absent)."""
        return self.histograms[(name, labels_key(labels))]

    def names(self) -> set[str]:
        """Every distinct name this snapshot exports (samples + histograms + spans)."""
        out = {s.name for s in self.samples}
        out.update(name for name, _ in self.histograms)
        out.update(rec.name for rec in self.spans)
        return out

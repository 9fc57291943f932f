"""Low-overhead statistic collectors.

These are deliberately plain classes with integer/float fields rather than
numpy arrays: each simulated event touches at most a handful of them, and
attribute increments are faster than array indexing at this scale.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Counter:
    """A named monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def merge(self, other: "Counter") -> None:
        """Fold another counter into this one (for cross-core totals)."""
        self.value += other.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class LatencyStat:
    """Accumulates a latency distribution: count, sum, min, max.

    The paper reports *total* memory latency (Figure 7), so the sum is the
    primary output; mean/min/max come along for diagnostics.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def record(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def record_many(self, value: int, count: int) -> None:
        """``count`` records of one ``value`` (the sums are order-free)."""
        if count <= 0:
            return
        self.count += count
        self.total += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "LatencyStat") -> None:
        """Fold another accumulator into this one (for cross-core totals)."""
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max


class Histogram:
    """Power-of-two bucketed histogram with percentile estimates.

    :class:`LatencyStat` keeps only count/sum/min/max, which is enough for
    the paper's Figure 7 (total memory latency) but says nothing about the
    *shape* of the distribution — a protocol change that helps the median
    while wrecking the tail looks identical. This collector buckets each
    value by its bit length (bucket ``i`` holds values in
    ``[2**(i-1), 2**i - 1]``, bucket 0 holds 0), so recording is two integer
    ops and the memory footprint is ~64 ints regardless of sample count.

    Percentiles are estimated from the bucket geometry: within the bucket
    containing the requested rank the value is linearly interpolated, which
    bounds the relative error by the bucket width (a factor of 2 worst case,
    far less in practice for smooth latency distributions).
    """

    __slots__ = ("name", "buckets", "count", "total", "min", "max")

    #: Enough buckets for values up to 2**63 (cycle counts never exceed it).
    NUM_BUCKETS = 64

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets: List[int] = [0] * self.NUM_BUCKETS
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def record(self, value: int) -> None:
        if value < 0:
            value = 0
        self.buckets[value.bit_length()] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def record_many(self, value: int, count: int) -> None:
        """``count`` records of one ``value`` (bucket counts are order-free)."""
        if count <= 0:
            return
        if value < 0:
            value = 0
        self.buckets[value.bit_length()] += count
        self.count += count
        self.total += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated value at percentile ``p`` (0-100).

        Exact at the recorded min/max endpoints; linearly interpolated
        within the power-of-two bucket containing the target rank.
        """
        if self.count == 0:
            return 0.0
        if p <= 0:
            return float(self.min or 0)
        if p >= 100:
            return float(self.max or 0)
        # 1-based rank of the requested percentile (nearest-rank method,
        # then interpolate within the bucket).
        rank = p / 100.0 * self.count
        seen = 0
        for i, bucket_count in enumerate(self.buckets):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                low = 0 if i == 0 else 1 << (i - 1)
                high = 0 if i == 0 else (1 << i) - 1
                # Clamp the bucket to the observed range so small sample
                # sets do not report values never seen.
                if self.min is not None:
                    low = max(low, self.min)
                if self.max is not None:
                    high = min(high, self.max)
                if high <= low or bucket_count == 1:
                    return float(low)
                frac = (rank - seen) / bucket_count
                return low + frac * (high - low)
            seen += bucket_count
        return float(self.max or 0)  # pragma: no cover - counts always sum

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram into this one (for cross-core totals)."""
        for i, bucket_count in enumerate(other.buckets):
            if bucket_count:
                self.buckets[i] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot (sparse buckets; stable under schema checks)."""
        return {
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {
                str(i): c for i, c in enumerate(self.buckets) if c
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Histogram":
        hist = cls(str(payload["name"]))
        hist.count = int(payload["count"])  # type: ignore[arg-type]
        hist.total = int(payload["total"])  # type: ignore[arg-type]
        hist.min = payload["min"]  # type: ignore[assignment]
        hist.max = payload["max"]  # type: ignore[assignment]
        for key, value in payload.get("buckets", {}).items():  # type: ignore[union-attr]
            hist.buckets[int(key)] = int(value)
        return hist


class BinnedHistogram:
    """Histogram over fixed inclusive bins, e.g. Figure 5's sharer-count bins.

    Parameters
    ----------
    name:
        Display name.
    bin_edges:
        Sequence of (low, high) inclusive bounds. ``high`` may be ``None``
        for an open-ended final bin ("50+").
    """

    def __init__(
        self, name: str, bin_edges: Sequence[Tuple[int, Optional[int]]]
    ) -> None:
        self.name = name
        self.bins: List[Tuple[int, Optional[int]]] = list(bin_edges)
        self.counts: List[int] = [0] * len(self.bins)
        self.overflow = 0  # values below the first bin or between gaps

    def record(self, value: int, weight: int = 1) -> None:
        for i, (low, high) in enumerate(self.bins):
            if value >= low and (high is None or value <= high):
                self.counts[i] += weight
                return
        self.overflow += weight

    @property
    def total(self) -> int:
        return sum(self.counts) + self.overflow

    def fractions(self) -> List[float]:
        """Per-bin fraction of all recorded values (overflow excluded)."""
        recorded = sum(self.counts)
        if recorded == 0:
            return [0.0] * len(self.bins)
        return [c / recorded for c in self.counts]

    def labels(self) -> List[str]:
        out = []
        for low, high in self.bins:
            if high is None:
                out.append(f"{low}+")
            elif low == high:
                out.append(str(low))
            else:
                out.append(f"{low}-{high}")
        return out

    def merge(self, other: "BinnedHistogram") -> None:
        """Fold another histogram (same bin edges) into this one."""
        if other.bins != self.bins:
            raise ValueError(
                f"cannot merge {other.name!r} into {self.name!r}: bin edges differ"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.overflow += other.overflow


class StatsRegistry:
    """A named group of collectors, one per component instance.

    Components call :meth:`counter` / :meth:`histogram`
    once at construction; the same object is returned on repeat calls so the
    harness can look stats up by name after a run.

    Counter values are read through the registry (:meth:`counter`,
    :meth:`counters`, :meth:`get_counter`): each read runs :meth:`flush`
    first, so counters that a component tallies on its hot path and adds
    in later read as if every event had bumped them.
    """

    def __init__(self, name: str = "stats") -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._binned: Dict[str, BinnedHistogram] = {}
        #: Insertion-ordered set of flush callbacks.
        self._flushes: Dict[Callable[[], None], None] = {}

    def add_flush(self, flush: Callable[[], None]) -> None:
        """Run ``flush`` before every counter read (adding it again is a
        no-op).

        A core adds :meth:`Core._fold <repro.cpu.core.Core._fold>`, which
        adds its reference and instruction tallies to its counters.
        """
        self._flushes[flush] = None

    def flush(self) -> None:
        """Bring every tallied counter up to date (see :meth:`add_flush`)."""
        for flush in self._flushes:
            flush()

    def counter(self, name: str) -> Counter:
        self.flush()
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def adder(self, name: str):
        """The counter's bound ``add`` method — the hot-path fast path.

        Components that bump a counter per simulated event store this bound
        method once at construction and call it directly, skipping the
        per-event attribute walk (``self._counter.add`` resolves a slot
        descriptor and builds a bound method on every call; the stored
        bound method does neither).
        """
        return self.counter(name).add

    def histogram(
        self, name: str, bins: Sequence[Tuple[int, Optional[int]]]
    ) -> BinnedHistogram:
        if name not in self._binned:
            self._binned[name] = BinnedHistogram(name, bins)
        return self._binned[name]

    def counters(self) -> Dict[str, int]:
        """Snapshot of all counter values (for assertions and reports)."""
        self.flush()
        return {n: c.value for n, c in self._counters.items()}

    def get_counter(self, name: str) -> int:
        """Value of a counter, 0 if it was never created."""
        self.flush()
        counter = self._counters.get(name)
        return counter.value if counter else 0

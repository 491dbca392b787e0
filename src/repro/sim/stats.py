"""Statistics primitives: counters, histograms, and busy-interval tracking.

:class:`BusyTracker` is the heart of the Figure 4 reproduction: it plays the
role of the Xeon's integrated-memory-controller occupancy counters.  It
accumulates the number of picoseconds a resource (the read queue, the write
queue) was non-empty, and also records the *actual* idle-gap distribution so
the paper's lower-bound estimate can be compared against ground truth.

All samples in this package are integer picosecond (or count) values, so the
histogram accumulates exact integer sums; ``mean``/``stddev`` are derived at
read time.  Each primitive exposes a ``snapshot()`` dict — the one reporting
schema used by :class:`repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import math

from ..errors import SimulationError


class Counter:
    """A named monotonic counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise SimulationError(f"counter {self.name!r}: negative increment")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Histogram:
    """A streaming histogram with exact integer moments and bucketed counts.

    Buckets are power-of-two sized by default, which matches how hardware
    profilers bucket latency/occupancy samples.  Samples must be
    non-negative integers (everything recorded in this package is a
    picosecond delta or a count), which keeps ``total``/``total_sq`` exact
    at any count — no float accumulation drift.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.total_sq = 0
        self.min: int | None = None
        self.max: int | None = None
        self.buckets: dict[int, int] = {}

    def record(self, value: int) -> None:
        if value < 0:
            raise SimulationError(f"histogram {self.name!r}: negative sample {value}")
        if value != int(value):
            raise SimulationError(
                f"histogram {self.name!r}: non-integer sample {value!r}"
            )
        value = int(value)
        self.count += 1
        self.total += value
        self.total_sq += value * value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        bucket = 0 if value < 1 else value.bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def quantile(self, q: float) -> float:
        """Approximate quantile from the power-of-two buckets.

        Exact at the extremes (returns ``min``/``max``); interior values are
        linearly interpolated inside the containing bucket and clamped to
        the observed range.  Good enough for reporting p50/p95 of idle-gap
        distributions whose buckets are already the unit of interest.
        """
        if self.count == 0:
            return 0.0
        assert self.min is not None and self.max is not None
        if q <= 0:
            return float(self.min)
        if q >= 1:
            return float(self.max)
        target = q * self.count
        cum = 0
        for key in sorted(self.buckets):
            n = self.buckets[key]
            lo = 0 if key == 0 else (1 << (key - 1))
            hi = 1 if key == 0 else (1 << key)
            if cum + n >= target:
                value = lo + (target - cum) / n * (hi - lo)
                return float(min(max(value, self.min), self.max))
            cum += n
        return float(self.max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        if self.count < 2:
            return 0.0
        var = self.total_sq / self.count - self.mean**2
        return math.sqrt(max(var, 0.0))

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.min,
            "max": self.max,
            "buckets": {str(k): self.buckets[k] for k in sorted(self.buckets)},
        }

    def reset(self) -> None:
        self.__init__(self.name)


class BusyTracker:
    """Tracks the busy/idle timeline of a resource.

    Clients mark half-open busy intervals ``[start, end)``; overlapping or
    abutting intervals coalesce.  Intervals must be reported in
    non-decreasing order of start time, which every queue model in this
    package naturally satisfies.

    Two views are exposed:

    * ``busy_ps`` — total busy picoseconds (the hardware-counter view the
      paper's methodology is limited to), and
    * ``idle_gaps_ps()`` — the actual idle gaps between busy intervals
      (ground truth the paper could not observe).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.busy_ps = 0
        self.intervals = 0
        self._cur_start: int | None = None
        self._cur_end: int | None = None
        self._gaps = Histogram(f"{name}.idle_gaps")
        self._first_start: int | None = None
        self._last_end: int | None = None

    def mark_busy(self, start_ps: int, end_ps: int) -> None:
        """Mark ``[start_ps, end_ps)`` busy.  Zero-length intervals ignored."""
        if end_ps < start_ps:
            raise SimulationError(
                f"busy tracker {self.name!r}: interval ends before it starts"
            )
        if end_ps == start_ps:
            return
        if self._cur_start is None:
            self._open(start_ps, end_ps)
            return
        if start_ps < self._cur_start:
            raise SimulationError(
                f"busy tracker {self.name!r}: intervals must arrive in order"
            )
        assert self._cur_end is not None
        if start_ps <= self._cur_end:
            # Overlaps or abuts the open interval: extend it.
            self._cur_end = max(self._cur_end, end_ps)
        else:
            self._close()
            self._gaps.record(start_ps - (self._last_end or 0))
            self._open(start_ps, end_ps)

    def _open(self, start_ps: int, end_ps: int) -> None:
        self._cur_start = start_ps
        self._cur_end = end_ps
        if self._first_start is None:
            self._first_start = start_ps

    def _close(self) -> None:
        assert self._cur_start is not None and self._cur_end is not None
        self.busy_ps += self._cur_end - self._cur_start
        self.intervals += 1
        self._last_end = self._cur_end
        self._cur_start = None
        self._cur_end = None

    def finish(self) -> None:
        """Close any open interval.  Call once at the end of a run."""
        if self._cur_start is not None:
            self._close()

    def idle_gaps_ps(self) -> Histogram:
        """Histogram of observed idle gaps (between coalesced busy spans)."""
        return self._gaps

    def span_ps(self) -> int:
        """Wall time from first busy start to last busy end."""
        if self._first_start is None:
            return 0
        end = self._cur_end if self._cur_end is not None else self._last_end
        assert end is not None
        return end - self._first_start

    def utilisation(self, total_ps: int) -> float:
        """Fraction of ``total_ps`` the resource was busy."""
        if total_ps <= 0:
            raise SimulationError("utilisation window must be positive")
        open_ps = 0
        if self._cur_start is not None and self._cur_end is not None:
            open_ps = self._cur_end - self._cur_start
        return min(1.0, (self.busy_ps + open_ps) / total_ps)

    def snapshot(self) -> dict:
        return {
            "type": "busy_tracker",
            "busy_ps": self.busy_ps,
            "intervals": self.intervals,
            "span_ps": self.span_ps(),
            "idle_gaps": self._gaps.snapshot(),
        }

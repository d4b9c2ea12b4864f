"""Lightweight metrics registry for the virtual machine.

Three metric kinds, mirroring the usual monitoring vocabulary:

* :class:`Counter` — monotonically increasing total.
* :class:`Gauge` — last-set value, with a high-water convenience.
* :class:`Histogram` — fixed-boundary distribution with count/sum, so
  message sizes and wait times can be summarised without retaining every
  observation.

Each rank owns one :class:`MetricsRegistry` (created by its ``Comm``),
touched only from that rank's thread; the engine merges them into a
machine-wide registry on :class:`~repro.machine.engine.RunReport`.
Metric updates never charge any virtual clock, so they cannot perturb
virtual timings.

Metric names used by the machine and the simulation driver:

``comm.msg_bytes``            histogram of sent payload sizes (bytes)
``comm.recv_wait_seconds``    histogram of virtual arrival waits
``mailbox.max_pending``       gauge, queue depth high-water mark
``sim.step_seconds``          histogram of per-rank per-step virtual time
``sim.particles_shipped``     counter, particles sent to another owner
``sim.particles_moved_in``    counter, particles gained in rebalancing
``recovery.restarts``         counter, crash/worker-loss recoveries (host)
``recovery.rollback_steps``   counter, step progress lost to rollbacks
``recovery.wall_seconds``     histogram, real seconds per recovery
``recovery.quiesce_seconds``  histogram, real seconds quiescing workers

The ``recovery.*`` family is host-side (kept by the simulation driver,
not any rank) and measures *real* time — recovery is a property of the
physical run, invisible to virtual clocks.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any

#: Default byte-size buckets: powers of four from 1 B to ~1 GB.
BYTE_BUCKETS = tuple(4 ** k for k in range(16))
#: Default duration buckets: powers of four from 1 us up to ~18 min.
TIME_BUCKETS = tuple(1e-6 * 4 ** k for k in range(16))


class Counter:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up, got {n}")
        self.value += n

    def merge_from(self, other: "Counter") -> None:
        self.value += other.value

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    __slots__ = ("value", "high_water")

    def __init__(self):
        self.value = 0.0
        self.high_water = 0.0

    def set(self, v: float) -> None:
        self.value = v
        if v > self.high_water:
            self.high_water = v

    def merge_from(self, other: "Gauge") -> None:
        # Merging ranks: the machine-wide gauge reports the maximum.
        self.value = max(self.value, other.value)
        self.high_water = max(self.high_water, other.high_water)

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value,
                "high_water": self.high_water}


class Histogram:
    """Fixed upper-boundary histogram (last bucket is +inf overflow)."""

    __slots__ = ("bounds", "counts", "total", "count", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = TIME_BUCKETS):
        self.bounds = tuple(bounds)
        if any(b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, x: float) -> None:
        self.counts[bisect_left(self.bounds, x)] += 1
        self.total += x
        self.count += 1
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge_from(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.count += other.count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": [
                {"le": le, "count": c}
                for le, c in zip(list(self.bounds) + ["+inf"], self.counts)
                if c
            ],
        }


class MetricsRegistry:
    """Get-or-create store of named metrics for one rank (or one run)."""

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind, factory):
        m = self._metrics.get(name)
        if m is None:
            m = factory()
            self._metrics[name] = m
        elif not isinstance(m, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(m).__name__}, not {kind.__name__}"
            )
        return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, Gauge)

    def histogram(self, name: str,
                  bounds: tuple[float, ...] | None = None) -> Histogram:
        return self._get(
            name, Histogram,
            lambda: Histogram(bounds) if bounds is not None else Histogram()
        )

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def merge_from(self, other: "MetricsRegistry") -> None:
        for name, metric in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                mine = type(metric)() if not isinstance(metric, Histogram) \
                    else Histogram(metric.bounds)
                self._metrics[name] = mine
            mine.merge_from(metric)

    @classmethod
    def merged(cls, registries: "list[MetricsRegistry]") -> "MetricsRegistry":
        out = cls()
        for reg in registries:
            out.merge_from(reg)
        return out

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-ready ``{name: {type, ...}}`` view of every metric."""
        return {name: m.snapshot()
                for name, m in sorted(self._metrics.items())}

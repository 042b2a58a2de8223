"""Counters, timers, and histograms for run-level observability.

A :class:`MetricsRegistry` is a plain in-process aggregation point: layers
``count()`` discrete happenings (rows evaluated, cache hits, guarded
batches), ``observe()`` durations (kernel wall time), and ``record()``
values into fixed-bound histograms.  Everything is snapshot-able as plain
dicts for the JSONL event stream and renderable as an ASCII table for the
CLI's ``--metrics`` flag.

The registry is deliberately dependency-free and cheap: a counter update
is one dict operation (taken under a lock, so concurrent service threads
can report through one registry without losing increments), so even
per-chunk instrumentation stays invisible next to a kernel pass.
"""

from __future__ import annotations

import bisect
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence


@dataclass
class TimerStats:
    """Aggregated observations of one named duration."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        self.min_s = min(self.min_s, seconds)
        self.max_s = max(self.max_s, seconds)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


#: Default histogram bucket edges: decades from 1 µs to 100 s, natural for
#: both durations (seconds) and row counts.
DEFAULT_BOUNDS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0
)


@dataclass
class Histogram:
    """A fixed-bound histogram: ``counts[i]`` covers values <= ``bounds[i]``,
    with one overflow bucket at the end."""

    bounds: tuple[float, ...] = DEFAULT_BOUNDS
    counts: list[int] = field(default_factory=list)
    total: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def record(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1

    def as_dict(self) -> dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
        }


class MetricsRegistry:
    """Named counters, timers, and histograms for one run."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.timers: dict[str, TimerStats] = {}
        self.histograms: dict[str, Histogram] = {}
        # Read-modify-write updates are not atomic across bytecodes; the
        # service reports from many request threads, so every mutation
        # (and the snapshot) takes this lock.
        self._lock = threading.Lock()

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named counter (creating it at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration observation under ``name``."""
        with self._lock:
            stats = self.timers.get(name)
            if stats is None:
                stats = self.timers[name] = TimerStats()
            stats.observe(seconds)

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Time the block and :meth:`observe` it under ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - started)

    def record(
        self, name: str, value: float, bounds: Sequence[float] | None = None
    ) -> None:
        """Record ``value`` into the named histogram."""
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram(
                    bounds=tuple(bounds) if bounds is not None else DEFAULT_BOUNDS
                )
            histogram.record(value)

    def counter(self, name: str) -> float:
        """The counter's current value (0 if never incremented)."""
        with self._lock:
            return self.counters.get(name, 0)

    def snapshot(self) -> dict[str, object]:
        """Everything recorded so far, as plain JSON-serializable dicts."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "timers": {
                    name: stats.as_dict() for name, stats in self.timers.items()
                },
                "histograms": {
                    name: histogram.as_dict()
                    for name, histogram in self.histograms.items()
                },
            }

    def render(self) -> str:
        """Counters and timers as aligned text for terminal output."""
        with self._lock:
            counters = dict(self.counters)
            timers = dict(self.timers)
            histograms = dict(self.histograms)
        lines = []
        if counters:
            lines.append("counters:")
            width = max(len(name) for name in counters)
            for name in sorted(counters):
                value = counters[name]
                text = f"{value:g}" if isinstance(value, float) else str(value)
                lines.append(f"  {name:<{width}}  {text}")
        if timers:
            lines.append("timers:")
            width = max(len(name) for name in timers)
            for name in sorted(timers):
                stats = timers[name]
                lines.append(
                    f"  {name:<{width}}  n={stats.count}  "
                    f"total={stats.total_s * 1e3:.3f} ms  "
                    f"mean={stats.mean_s * 1e3:.3f} ms"
                )
        if histograms:
            lines.append("histograms:")
            for name in sorted(histograms):
                histogram = histograms[name]
                lines.append(f"  {name}  n={histogram.total}")
        return "\n".join(lines) if lines else "(no metrics recorded)"

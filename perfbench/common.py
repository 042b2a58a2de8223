"""Shared pieces of the benchmark workloads: timing, stage tracing,
statistics, host facts and the result record.

Everything here runs inside the workload process (``workload.py``).  The
tracer is the benchmark's own instrumentation: it wraps the program's
public functions at their call sites for the duration of a traced phase
and restores them afterwards, so untraced phases run the program
exactly as a user would.
"""

from __future__ import annotations

import itertools
import math
import os
import platform
import resource
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: How many times a workload repeats its set-up unless it says otherwise;
#: ``setup_s`` is the median, so one slow process start or page-cache
#: miss does not move it.
SETUP_REPEATS = 5

#: Every per-layer metric, with its unit.  Each workload reports all of
#: them in a traced run; a stage the workload never enters reads 0.
PER_LAYER_UNITS: dict[str, str] = {
    "analysis.sample_s": "s",
    "engine.cache_key_s": "s",
    "engine.cache_hit_ratio": "ratio",
    "engine.batch_build_s": "s",
    "engine.kernel_s": "s",
    "engine.kernel_rows": "count",
    "engine.plan_s": "s",
    "engine.plan_evaluate_s": "s",
    "engine.plan_verify_s": "s",
    "engine.planner_engaged_ratio": "ratio",
    "engine.output_bytes": "B",
    "engine.dense_call_s": "s",
    "robustness.guard_s": "s",
    "robustness.persist_s": "s",
    "robustness.fsyncs": "count",
    "robustness.bytes_written": "B",
    "parallel.runner_s": "s",
    "scheduling.build_s": "s",
    "scheduling.evaluate_s": "s",
    "scheduling.summarize_s": "s",
    "service.handle_s": "s",
    "service.transport_s": "s",
    "service.cache_hit_ratio": "ratio",
    "service.batch_rows_mean": "count",
    "service.latency_p50_ms.cache": "ms",
    "service.latency_p50_ms.batch": "ms",
    "service.rejected": "count",
    "loadgen.lag_ms": "ms",
    "import_s": "s",
    "unattributed_fraction": "ratio",
    "tracing_overhead_fraction": "ratio",
    "failed_fraction": "ratio",
    "latency_samples": "count",
    "latency_p99_ms": "ms",
}

END_TO_END_UNITS: dict[str, str] = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class CorrectnessError(Exception):
    """An output of the program disagreed with the benchmark's oracle."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CorrectnessError` unless ``condition`` holds."""
    if not condition:
        raise CorrectnessError(message)


def percentile(values: "list[float]", q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation."""
    if len(values) == 0:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def median(values: "list[float]") -> float:
    return percentile(values, 50.0)


#: A window of :func:`windowed_median` and :func:`windowed_rate` spans at
#: least this long (s) and holds at least this many samples.
WINDOW_S = 0.25
WINDOW_MIN = 100
#: :func:`windowed_median` reports this percentile of the window medians,
#: :func:`windowed_rate` the same share from the top of the window rates.
WINDOW_PERCENTILE = 10.0


def windowed_median(values: "list[float]", clock: "list[float]") -> float:
    """The median of ``values`` in the run's quicker windows: the
    :data:`WINDOW_PERCENTILE`-th percentile of the medians of consecutive
    windows.

    ``clock[i]`` is when ``values[i]`` was taken (non-decreasing).  Each
    window spans at least :data:`WINDOW_S` of the clock and holds at
    least :data:`WINDOW_MIN` samples; a shorter tail joins the last
    window.  A small shared host slows down by up to half for seconds
    to minutes at a time, and how much of a run it spends slowed
    differs from run to run, so the plain median (or the mean of the
    window medians) follows that share.  The lower decile of the window
    medians only needs a tenth of the run on a quiet host, and a change
    to the program moves every window alike.
    """
    windows: list[list[float]] = []
    current: list[float] = []
    start = clock[0]
    for value, at in zip(values, clock):
        current.append(value)
        if at - start >= WINDOW_S and len(current) >= WINDOW_MIN:
            windows.append(current)
            current, start = [], at
    if current:
        if windows:
            windows[-1].extend(current)
        else:
            windows.append(current)
    return percentile([median(window) for window in windows], WINDOW_PERCENTILE)


def windowed_rate(items: "list[float]", durations: "list[float]", group: int) -> float:
    """Work per second in the run's quicker windows: the
    (100 - :data:`WINDOW_PERCENTILE`)-th percentile of the rates of
    consecutive windows.

    ``items[i]`` is the work operation ``i`` completed in ``durations[i]``
    seconds.  A window holds whole groups of ``group`` operations (so
    every window has the workload's exact mix), at least
    :data:`WINDOW_MIN` operations, and spans at least :data:`WINDOW_S`
    of operation time; a shorter tail joins the last window.  Each
    window's rate is its work over its time, so slow operations within
    a window lower it; see :func:`windowed_median` for why a quantile
    over windows.
    """
    windows: list[list[float]] = []
    current = [0.0, 0.0]
    first = 0
    for start in range(group, len(durations) + group, group):
        current[0] += math.fsum(items[start - group : start])
        current[1] += math.fsum(durations[start - group : start])
        if current[1] >= WINDOW_S and start - first >= WINDOW_MIN:
            windows.append(current)
            current, first = [0.0, 0.0], start
    if current[1] > 0.0:
        if windows:
            windows[-1][0] += current[0]
            windows[-1][1] += current[1]
        else:
            windows.append(current)
    return percentile(
        [done / seconds for done, seconds in windows], 100.0 - WINDOW_PERCENTILE
    )


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def filesystem_type(path: str) -> str:
    """The type of the filesystem holding ``path`` (from mountinfo)."""
    target = os.path.realpath(path)
    best, best_type = "", "unknown"
    with open("/proc/self/mountinfo", encoding="utf-8") as handle:
        for line in handle:
            left, _, right = line.partition(" - ")
            mount_point = left.split()[4]
            inside = target == mount_point or target.startswith(
                mount_point.rstrip("/") + "/"
            )
            if inside and len(mount_point) >= len(best):
                best, best_type = mount_point, right.split()[0]
    return best_type


def host_facts(seed: int, fs_path: str) -> dict[str, object]:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "fs_type": filesystem_type(fs_path),
        "fs_path": os.path.relpath(fs_path),
    }


def op_seed(seed: int, *stream: int) -> int:
    """A 32-bit seed derived from the run seed and a stream position."""
    import numpy as np

    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


# --- stage tracing ---------------------------------------------------------


class Tracer:
    """Wall-clock stage spans recorded around calls into program layers.

    A span's *self* time is its duration minus the spans nested inside
    it, so the self times of one operation's spans never double-count.
    Spans are kept as per-stage totals in memory.
    """

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, stage: str) -> Iterator[None]:
        stack = self._stack()
        stack.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            nested = stack.pop()
            self.total[stage] += elapsed
            self.self_time[stage] += elapsed - nested
            self.calls[stage] += 1
            if stack:
                stack[-1] += elapsed

    def add(self, stage: str, elapsed: float) -> None:
        """Record a span measured by the caller (no nesting)."""
        self.total[stage] += elapsed
        self.self_time[stage] += elapsed
        self.calls[stage] += 1

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def per_op(self, stage: str, ops: int) -> float:
        """Mean self time of ``stage`` per operation."""
        return self.self_time.get(stage, 0.0) / ops

    def wrap(
        self,
        owner: object,
        attribute: str,
        stage: str,
        rows: "Callable[..., int] | None" = None,
    ) -> None:
        """Time every call of ``owner.attribute`` as ``stage``.

        ``rows``, given the call's arguments, returns a row count added
        to the ``<stage>.rows`` counter.  Class-, static- and plain
        methods are all supported; :meth:`restore` undoes every wrap.
        """
        raw = (
            owner.__dict__[attribute]
            if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if binder is not None else raw
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(stage):
                result = function(*args, **kwargs)
            if rows is not None:
                tracer.count(stage + ".rows", rows(*args, **kwargs))
            return result

        traced.__wrapped__ = function
        setattr(owner, attribute, binder(traced) if binder else traced)
        self._patches.append((owner, attribute, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)


# --- the result record -------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured.

    ``latencies_s`` are the timed operations (untraced phase), taken at
    the times ``latency_clock_s``, and ``items_per_s`` the work they
    completed per second.  ``failed`` counts every failed operation,
    ``incorrect`` the subset whose output disagreed with the oracle.
    """

    setup_s: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    latency_clock_s: list[float] = field(default_factory=list)
    items_per_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    peak_rss_mb: float | None = None
    layers: dict[str, float] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": median(self.setup_s),
            "items_per_s": self.items_per_s,
            "latency_p50_ms": windowed_median(self.latencies_s, self.latency_clock_s)
            * 1e3,
            "peak_rss_mb": (
                self.peak_rss_mb if self.peak_rss_mb is not None else peak_rss_mb()
            ),
        }

    def p99_ms(self) -> float:
        """The 99th percentile latency, or 0 with fewer than ten samples
        beyond it (fewer than 1000 operations)."""
        if len(self.latencies_s) < 1000:
            return 0.0
        return percentile(self.latencies_s, 99.0) * 1e3


def timed_loop(
    operation: Callable[[int], float],
    seconds: float,
    *,
    first: int = 0,
    min_ops: int = 3,
    block: int = 1,
) -> tuple[list[float], float, int]:
    """Run ``operation(i)`` for ``i = first, first + 1, ...`` until
    ``seconds`` have been spent inside it (and at least ``min_ops`` ran).

    ``operation`` times its own timed region and returns its duration
    (so it can check its output outside that region).  The loop stops
    only at a multiple of ``block`` operations, keeping a workload's mix
    exact.  Returns ``(durations, total, next_index)``.
    """
    durations: list[float] = []
    total = 0.0
    index = first
    while total < seconds or len(durations) < min_ops or (index - first) % block:
        elapsed = operation(index)
        durations.append(elapsed)
        total += elapsed
        index += 1
    return durations, total, index


class OpWorkload:
    """A workload of timed operations, run the same way for every kind.

    Subclasses implement :meth:`setup` and :meth:`timed`, and for traced
    runs :meth:`begin_trace` and :meth:`layers`.  :meth:`run` runs
    untraced operations for ``--seconds`` (half of it in a traced run) in
    :attr:`setup_repeats` equal parts, each after a set-up, and, in a
    traced run, the other half with the tracer's wraps installed.
    """

    #: Operations run in whole blocks of this many (keeps a mix exact).
    block = 1
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = SETUP_REPEATS
    #: Stages whose self times partition a traced operation.
    stages: tuple[str, ...] = ()

    def __init__(self, ctx):
        self.ctx = ctx
        self.tracer: Tracer | None = None
        #: Work done by the operations of the current phase.
        self.items = 0.0
        self.attempted = 0
        self.failures: list[str] = []

    def setup(self, repeat: int) -> None:
        """Everything before the first timed operation, warm-up included."""
        raise NotImplementedError

    def timed(self, index: int) -> float:
        """Run and check operation ``index``; return the time it took
        (the check excluded) after adding its size to :attr:`items`."""
        raise NotImplementedError

    def checked(self, check: Callable[[], None]) -> None:
        """Run one operation's output check, recording a mismatch."""
        self.attempted += 1
        try:
            check()
        except CorrectnessError as error:
            self.failures.append(str(error))

    def begin_trace(self, tracer: Tracer) -> None:
        """Install the tracer's wraps (restored by :meth:`Tracer.restore`)."""

    def end_trace(self) -> None:
        """Undo what :meth:`begin_trace` did besides the wraps."""

    def layers(self, tracer: Tracer, ops: int) -> dict[str, float]:
        """Per-layer metrics from ``ops`` traced operations."""
        return {}

    def run(self) -> Outcome:
        outcome = Outcome()
        budget = self.ctx.seconds / 2 if self.ctx.trace else self.ctx.seconds
        durations: list[float] = []
        op_items: list[float] = []

        def measured(index: int) -> float:
            before = self.items
            elapsed = self.timed(index)
            op_items.append(self.items - before)
            return elapsed

        # The set-ups are spread over the untraced phase, the first before
        # any timed operation, so their median samples the host across
        # the run rather than during its first seconds only.
        self.items = 0.0
        next_index = 0
        for repeat in range(self.setup_repeats):
            started = time.perf_counter()
            self.setup(repeat)
            outcome.setup_s.append(time.perf_counter() - started)
            part, _, next_index = timed_loop(
                measured, budget / self.setup_repeats, first=next_index, block=self.block
            )
            durations += part
        # Warm-ups between the parts count no work of the timed phase.
        items = math.fsum(op_items)
        total = math.fsum(durations)
        outcome.latencies_s = durations
        # The operations' own time is the clock: output checks between
        # them do not stretch a window.
        outcome.latency_clock_s = list(itertools.accumulate(durations))
        outcome.items_per_s = windowed_rate(op_items, durations, self.block)
        if self.ctx.trace:
            self.items = 0.0
            tracer = self.tracer = Tracer()
            self.begin_trace(tracer)
            try:
                traced, traced_total, _ = timed_loop(
                    self.timed, budget, first=next_index, block=self.block
                )
            finally:
                tracer.restore()
                self.end_trace()
                self.tracer = None
            explained = sum(tracer.self_time.get(stage, 0.0) for stage in self.stages)
            outcome.layers = {
                **self.layers(tracer, len(traced)),
                "unattributed_fraction": max(0.0, 1.0 - explained / traced_total),
                # Time per item, traced over untraced.
                "tracing_overhead_fraction": (traced_total / self.items)
                / (total / items)
                - 1.0,
            }
        outcome.attempted = self.attempted
        outcome.failed = outcome.incorrect = len(self.failures)
        outcome.peak_rss_mb = peak_rss_mb()
        outcome.notes["failures"] = self.failures[:5]
        return outcome

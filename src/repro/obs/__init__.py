"""Observability spine: tracing, metrics, events, and run manifests.

Every layer of the stack — engine kernels and cache, guarded evaluation,
checkpointed runners, Monte Carlo / sensitivity / sweep analyses, and the
experiment registry — reports through one :class:`RunContext` instead of
ad-hoc prints and buried counters:

* :mod:`repro.obs.trace` — :class:`Tracer` builds a tree of nested, timed
  :class:`Span` objects (experiment → analysis/sweep → engine kernels);
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` aggregates counters
  (rows evaluated, cache hits/misses/evictions, guarded batches), timers,
  and histograms;
* :mod:`repro.obs.events` — :class:`JsonlEventSink` streams one structured
  JSON event per line (the CLI's ``--trace`` file);
* :mod:`repro.obs.manifest` — :class:`RunManifest` pins seed, git
  describe, and parameter fingerprints so runs are auditable.

The default context is :data:`NULL_CONTEXT`, a no-op whose overhead on the
batched engine is below the noise floor (measured by
``benchmarks/test_perf_engine.py``); instrumentation only costs anything
when a real context is installed via :func:`use_context` or the CLI's
``--trace`` / ``--metrics`` / ``profile`` surfaces.
"""

from repro.obs.context import (
    NULL_CONTEXT,
    NullRunContext,
    RunContext,
    current_context,
    use_context,
)
from repro.obs.events import (
    EventSink,
    JsonlEventSink,
    MemoryEventSink,
    read_events,
)
from repro.obs.manifest import (
    RunManifest,
    build_manifest,
    fingerprint_parameters,
    git_describe,
    write_manifest,
)
from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    Histogram,
    MetricsRegistry,
    TimerStats,
)
from repro.obs.trace import Span, Tracer, span_cost_table

__all__ = [
    "DEFAULT_BOUNDS",
    "EventSink",
    "Histogram",
    "JsonlEventSink",
    "MemoryEventSink",
    "MetricsRegistry",
    "NULL_CONTEXT",
    "NullRunContext",
    "RunContext",
    "RunManifest",
    "Span",
    "TimerStats",
    "Tracer",
    "build_manifest",
    "current_context",
    "fingerprint_parameters",
    "git_describe",
    "read_events",
    "span_cost_table",
    "use_context",
    "write_manifest",
]

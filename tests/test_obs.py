"""Observability spine: tracer, metrics, events, manifest, RunContext,
and the instrumentation hooks threaded through the stack."""

import json

import numpy as np
import pytest

from repro.analysis import ActScenario, run_monte_carlo, tornado
from repro.dse.sweep import sweep_grid_batched
from repro.engine.batch import ScenarioBatch
from repro.engine.cache import CacheStats, EvaluationCache
from repro.engine.kernels import evaluate_batch
from repro.experiments import run_experiment
from repro.obs import (
    NULL_CONTEXT,
    Histogram,
    JsonlEventSink,
    MemoryEventSink,
    MetricsRegistry,
    RunContext,
    Span,
    Tracer,
    build_manifest,
    current_context,
    fingerprint_parameters,
    span_cost_table,
    use_context,
)

BASE = ActScenario()


def batch_of(energy):
    return ScenarioBatch.from_columns(
        BASE, len(energy), {"energy_kwh": np.asarray(energy, dtype=np.float64)}
    )


class TestTracer:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert [child.name for child in root.children] == ["inner", "sibling"]
        assert tracer.max_depth() == 2

    def test_span_records_duration_and_attributes(self):
        tracer = Tracer()
        with tracer.span("work", rows=7) as span:
            pass
        assert span.ended_s is not None
        assert span.duration_s >= 0
        assert span.attributes["rows"] == 7

    def test_exception_marks_span_status_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("broken"):
                raise ValueError("boom")
        assert tracer.roots[0].status == "error"
        assert tracer.roots[0].ended_s is not None

    def test_current_tracks_the_open_span(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("a"):
            assert tracer.current.name == "a"
            with tracer.span("b"):
                assert tracer.current.name == "b"
            assert tracer.current.name == "a"
        assert tracer.current is None

    def test_find_and_walk(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("b"):
            pass
        assert len(tracer.find("b")) == 2
        depths = [depth for depth, _ in tracer.walk()]
        assert depths == [0, 1, 0]

    def test_render_tree_indents_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", rows=3):
                pass
        text = tracer.render_tree()
        assert "outer" in text
        assert "- inner" in text
        assert "rows=3" in text

    def test_span_cost_table_filters_experiment_roots(self):
        tracer = Tracer()
        with tracer.span("experiment.fig1"):
            pass
        with tracer.span("other"):
            pass
        costs = span_cost_table(tracer)
        assert [name for name, _ in costs] == ["fig1"]
        assert all(seconds >= 0 for _, seconds in costs)

    def test_on_event_callback_fires_on_start_and_end(self):
        seen = []
        tracer = Tracer(on_event=lambda kind, span: seen.append((kind, span.name)))
        with tracer.span("x"):
            pass
        assert seen == [("span_start", "x"), ("span_end", "x")]


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.count("rows")
        registry.count("rows", 9)
        assert registry.counter("rows") == 10
        assert registry.counter("missing") == 0

    def test_timers_aggregate_observations(self):
        registry = MetricsRegistry()
        registry.observe("kernel", 0.25)
        registry.observe("kernel", 0.75)
        stats = registry.timers["kernel"]
        assert stats.count == 2
        assert stats.total_s == pytest.approx(1.0)
        assert stats.mean_s == pytest.approx(0.5)
        assert stats.min_s == pytest.approx(0.25)
        assert stats.max_s == pytest.approx(0.75)

    def test_time_context_manager_observes(self):
        registry = MetricsRegistry()
        with registry.time("block"):
            pass
        assert registry.timers["block"].count == 1

    def test_histogram_buckets_and_overflow(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.record(value)
        assert histogram.counts == [1, 1, 1]
        assert histogram.total == 3

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.count("c", 2)
        registry.observe("t", 0.1)
        registry.record("h", 0.01)
        json.dumps(registry.snapshot())

    def test_render_lists_counters_and_timers(self):
        registry = MetricsRegistry()
        registry.count("cache.hits", 3)
        registry.observe("kernel", 0.5)
        text = registry.render()
        assert "cache.hits" in text and "kernel" in text

    def test_render_empty(self):
        assert "no metrics" in MetricsRegistry().render()


class TestEventSinks:
    def test_memory_sink_records_and_filters(self):
        sink = MemoryEventSink()
        sink.emit("chunk", completed=5, total=10)
        sink.emit("other")
        chunks = sink.of_type("chunk")
        assert len(chunks) == 1
        assert chunks[0]["completed"] == 5
        assert "ts" in chunks[0]

    def test_numpy_scalars_are_coerced(self):
        sink = MemoryEventSink()
        sink.emit("chunk", value=np.float64(1.5), count=np.int64(3))
        record = sink.events[0]
        json.dumps(record)
        assert record["value"] == 1.5
        assert record["count"] == 3

    def test_jsonl_sink_writes_one_valid_object_per_line(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlEventSink(path)
        sink.emit("run_start", seed=7)
        sink.emit("run_end")
        sink.close()
        lines = open(path, encoding="utf-8").read().splitlines()
        events = [json.loads(line) for line in lines]
        assert [event["event"] for event in events] == ["run_start", "run_end"]
        assert sink.emitted == 2

    def test_jsonl_sink_flushes_per_event(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlEventSink(path)
        sink.emit("run_start")
        # Readable before close: a killed run leaves a valid prefix.
        assert json.loads(open(path, encoding="utf-8").readline())


class TestManifest:
    def test_fingerprint_is_deterministic_and_order_free(self):
        a = fingerprint_parameters({"x": 1.0, "y": "taiwan"})
        b = fingerprint_parameters({"y": "taiwan", "x": 1.0})
        c = fingerprint_parameters({"x": 2.0, "y": "taiwan"})
        assert a == b
        assert a != c

    def test_build_manifest_captures_provenance(self):
        manifest = build_manifest(
            seed=42, parameters={"p": 1}, argv=["montecarlo"],
            describe_git=False,
        )
        payload = manifest.as_dict()
        assert payload["seed"] == 42
        assert payload["argv"] == ["montecarlo"]
        assert payload["python"]
        assert payload["parameters_fingerprint"]
        json.dumps(payload)


class TestRunContext:
    def test_default_is_the_null_context(self):
        assert current_context() is NULL_CONTEXT
        assert not NULL_CONTEXT.enabled

    def test_null_context_operations_are_noops(self):
        with NULL_CONTEXT.span("anything", rows=1):
            pass
        NULL_CONTEXT.count("x")
        NULL_CONTEXT.observe("x", 1.0)
        NULL_CONTEXT.event("x")
        NULL_CONTEXT.close()

    def test_use_context_installs_and_restores(self):
        context = RunContext.create(describe_git=False)
        with use_context(context):
            assert current_context() is context
            inner = RunContext.create(describe_git=False)
            with use_context(inner):
                assert current_context() is inner
            assert current_context() is context
        assert current_context() is NULL_CONTEXT

    def test_spans_mirror_into_the_event_sink(self):
        context = RunContext.create(describe_git=False)
        with context.span("work", rows=2):
            pass
        sink = context.sink
        assert [e["event"] for e in sink.events[:1]] == ["run_start"]
        assert sink.of_type("span_start")[0]["name"] == "work"
        assert sink.of_type("span_end")[0]["duration_s"] >= 0

    def test_close_emits_run_end_with_metrics_and_is_idempotent(self):
        context = RunContext.create(describe_git=False)
        context.count("rows", 5)
        context.close()
        context.close()
        ends = context.sink.of_type("run_end")
        assert len(ends) == 1
        assert ends[0]["metrics"]["counters"]["rows"] == 5


class TestEngineInstrumentation:
    def test_evaluate_batch_counts_rows_and_opens_a_span(self):
        context = RunContext.create(describe_git=False)
        batch = batch_of([1.0, 2.0, 3.0])
        with use_context(context):
            result = evaluate_batch(batch)
        assert context.metrics.counter("engine.rows_evaluated") == 3
        assert context.metrics.counter("engine.batches_evaluated") == 1
        assert context.metrics.timers["engine.kernel_seconds"].count == 1
        assert context.tracer.find("engine.evaluate_batch")
        # Instrumented path returns the same numbers as the null path.
        np.testing.assert_allclose(result.total_g, evaluate_batch(batch).total_g)

    def test_cache_counts_hits_misses_evictions(self):
        context = RunContext.create(describe_git=False)
        cache = EvaluationCache(capacity=1)
        with use_context(context):
            cache.evaluate(batch_of([1.0]))   # miss
            cache.evaluate(batch_of([1.0]))   # hit
            cache.evaluate(batch_of([2.0]))   # miss + eviction
        assert context.metrics.counter("engine.cache.hits") == 1
        assert context.metrics.counter("engine.cache.misses") == 2
        assert context.metrics.counter("engine.cache.evictions") == 1


class TestCacheStats:
    def test_stats_snapshot_counts_hits_misses_evictions(self):
        cache = EvaluationCache(capacity=1)
        cache.evaluate(batch_of([1.0]))
        cache.evaluate(batch_of([1.0]))
        cache.evaluate(batch_of([2.0]))
        stats = cache.stats()
        assert stats == CacheStats(
            hits=1, misses=2, evictions=1, size=1, capacity=1
        )
        assert stats.hit_rate == pytest.approx(1 / 3)
        json.dumps(stats.as_dict())

    def test_reset_stats_keeps_entries(self):
        cache = EvaluationCache()
        cache.evaluate(batch_of([1.0]))
        cache.reset_stats()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)
        assert stats.size == 1
        cache.evaluate(batch_of([1.0]))
        assert cache.stats().hits == 1

    def test_clear_resets_stats_and_entries(self):
        cache = EvaluationCache()
        cache.evaluate(batch_of([1.0]))
        cache.clear()
        stats = cache.stats()
        assert (stats.size, stats.hits, stats.misses) == (0, 0, 0)

    def test_hit_rate_zero_when_unused(self):
        assert EvaluationCache().stats().hit_rate == 0.0


class TestAnalysisInstrumentation:
    def test_monte_carlo_span_and_draw_count(self):
        context = RunContext.create(describe_git=False)
        with use_context(context):
            run_monte_carlo(BASE, draws=50, seed=1)
        spans = context.tracer.find("analysis.montecarlo")
        assert spans and spans[0].attributes["draws"] == 50
        assert context.metrics.counter("analysis.montecarlo.draws") == 50

    def test_tornado_span(self):
        context = RunContext.create(describe_git=False)
        with use_context(context):
            tornado(BASE)
        assert context.tracer.find("analysis.tornado")
        assert context.metrics.counter("analysis.tornado.parameters") > 0

    def test_sweep_grid_batched_span_and_point_count(self):
        context = RunContext.create(describe_git=False)
        with use_context(context):
            sweep_grid_batched(
                BASE,
                {"energy_kwh": [1.0, 2.0], "duration_hours": [100.0, 200.0]},
            )
        spans = context.tracer.find("dse.sweep_grid")
        assert spans and spans[0].attributes["dimensions"] == 2
        assert context.metrics.counter("dse.sweep.points") == 4


class TestGuardInstrumentation:
    def test_strict_policy_reports_batches_and_rows(self):
        from repro.robustness import GuardedEngine

        context = RunContext.create(describe_git=False)
        guard = GuardedEngine(cache=EvaluationCache())
        columns = {"energy_kwh": np.asarray([1.0, 5.0])}
        with use_context(context):
            guard.evaluate_columns(BASE, 2, columns)
        assert context.metrics.counter("guard.batches") == 1
        assert context.metrics.counter("guard.strict.batches") == 1
        assert context.metrics.counter("guard.strict.rows") == 2
        assert context.tracer.find("guard.evaluate_columns")


class TestCheckpointInstrumentation:
    def test_chunked_monte_carlo_emits_chunk_and_save_events(self, tmp_path):
        from repro.robustness import run_monte_carlo_chunked

        context = RunContext.create(describe_git=False)
        checkpoint = str(tmp_path / "mc.ckpt")
        with use_context(context):
            run_monte_carlo_chunked(
                BASE, draws=100, seed=3, chunk_rows=40, checkpoint=checkpoint
            )
        assert context.metrics.counter("analysis.montecarlo.chunks") == 3
        assert context.metrics.counter("checkpoint.saves") >= 3
        chunk_events = context.sink.of_type("chunk")
        assert chunk_events[-1]["completed"] == 100
        assert context.tracer.find("analysis.montecarlo_chunked")

    def test_resume_emits_restore_event(self, tmp_path):
        from repro.core.errors import RunInterrupted
        from repro.robustness import CancelToken, run_monte_carlo_chunked

        checkpoint = str(tmp_path / "mc.ckpt")
        cancel = CancelToken()
        cancel.cancel()
        with pytest.raises(RunInterrupted):
            run_monte_carlo_chunked(
                BASE, draws=100, seed=3, chunk_rows=40,
                checkpoint=checkpoint, cancel=cancel,
            )
        context = RunContext.create(describe_git=False)
        with use_context(context):
            run_monte_carlo_chunked(
                BASE, draws=100, seed=3, chunk_rows=40,
                checkpoint=checkpoint, resume=True,
            )
        assert context.metrics.counter("checkpoint.restores") == 1
        assert context.sink.of_type("checkpoint_restore")


class TestExperimentTracing:
    def test_fig10_trace_is_at_least_three_levels_deep(self):
        context = RunContext.create(describe_git=False)
        with use_context(context):
            result = run_experiment("fig10")
        assert result.all_passed
        assert context.tracer.max_depth() >= 3
        root = context.tracer.roots[0]
        assert root.name == "experiment.fig10"
        assert root.attributes["passed"] is True
        assert context.metrics.counter("experiments.run") == 1

    def test_null_context_leaves_experiments_untraced(self):
        result = run_experiment("fig14")
        assert result.all_passed
        assert current_context() is NULL_CONTEXT

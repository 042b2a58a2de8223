"""EvaluationCache: LRU mechanics, caller-cache routing, and guard purity."""

import hashlib

import numpy as np
import pytest

from repro.analysis import ActScenario
from repro.core.errors import ParameterError
from repro.engine.batch import FIELD_NAMES, ScenarioBatch
from repro.engine.cache import (
    DEFAULT_CACHE,
    EvaluationCache,
    batch_key,
    evaluate_cached,
    scenario_key,
)
from repro.engine.plan import plan_product
from repro.core.errors import ValidationError
from repro.robustness import GuardedEngine

BASE = ActScenario()
PRODUCT_GRIDS = {
    "energy_kwh": [1.0, 2.0, 3.0],
    "ci_use_g_per_kwh": [50.0, 400.0],
}


def batch_of(energy):
    return ScenarioBatch.from_columns(
        BASE, len(energy), {"energy_kwh": np.asarray(energy, dtype=np.float64)}
    )


class TestBatchKey:
    def test_equal_content_hashes_identically_across_constructors(self):
        a = ScenarioBatch.from_product(BASE, {"energy_kwh": [1.0, 2.0]})
        b = ScenarioBatch.from_scenarios(
            [BASE.replace(energy_kwh=1.0), BASE.replace(energy_kwh=2.0)]
        )
        assert batch_key(a) == batch_key(b)

    def test_different_content_hashes_differently(self):
        assert batch_key(batch_of([1.0, 2.0])) != batch_key(batch_of([1.0, 3.0]))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: batch_of(np.linspace(1.0, 9.0, 257)),
            # The planner's dense batch keeps constant columns as
            # zero-stride broadcast views of the base values.
            lambda: plan_product(BASE, PRODUCT_GRIDS).batch(),
        ],
        ids=["contiguous-float64", "zero-stride-from-product"],
    )
    def test_digest_matches_the_tobytes_layout(self, build):
        batch = build()
        digest = hashlib.sha256()
        digest.update(len(batch).to_bytes(8, "little"))
        digest.update(b"float64")
        for name in FIELD_NAMES:
            digest.update(name.encode("ascii"))
            digest.update(batch.column(name).tobytes())
        assert batch_key(batch) == digest.hexdigest()

    def test_zero_stride_columns_key_like_their_dense_copies(self):
        planned = plan_product(BASE, PRODUCT_GRIDS).batch()
        assert planned.column("dram_gb").strides == (0,)
        dense = ScenarioBatch.from_product(BASE, PRODUCT_GRIDS)
        assert batch_key(planned) == batch_key(dense)


class TestOneKernel:
    def test_evaluate_with_origin_accepts_only_a_none_backend(self):
        cache = EvaluationCache()
        batch = batch_of([1.0, 2.0])
        result, from_cache = cache.evaluate_with_origin(batch, None)
        assert not from_cache and len(result) == 2
        with pytest.raises(ParameterError):
            cache.evaluate_with_origin(batch, "reference")


class TestLru:
    def test_eviction_order_is_least_recently_used(self):
        cache = EvaluationCache(capacity=2)
        a, b, c = batch_of([1.0]), batch_of([2.0]), batch_of([3.0])
        cache.evaluate(a)
        cache.evaluate(b)
        cache.evaluate(c)  # evicts a
        assert len(cache) == 2
        cache.evaluate(b)
        assert cache.hits == 1
        cache.evaluate(a)  # was evicted: a miss again
        assert cache.misses == 4

    def test_hit_moves_entry_to_most_recent(self):
        cache = EvaluationCache(capacity=2)
        a, b, c = batch_of([1.0]), batch_of([2.0]), batch_of([3.0])
        cache.evaluate(a)
        cache.evaluate(b)
        cache.evaluate(a)  # refresh a; b becomes least recent
        cache.evaluate(c)  # evicts b, not a
        cache.evaluate(a)
        assert cache.hits == 2
        cache.evaluate(b)
        assert cache.misses == 4

    def test_capacity_must_be_positive(self):
        with pytest.raises(ParameterError):
            EvaluationCache(capacity=0)

    def test_clear_resets_store_and_counters(self):
        cache = EvaluationCache()
        cache.evaluate(batch_of([1.0]))
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0
        assert cache.hit_rate == 0.0

    def test_hit_rate(self):
        cache = EvaluationCache()
        a = batch_of([1.0])
        cache.evaluate(a)
        cache.evaluate(a)
        assert cache.hit_rate == pytest.approx(0.5)


class TestCallerCacheRouting:
    def test_empty_caller_cache_is_used_not_default(self):
        """Regression: an empty EvaluationCache is falsy (len() == 0), so a
        truthiness check would silently reroute to the process-wide default
        cache.  The explicitly-passed cache must take the traffic."""
        cache = EvaluationCache()
        assert not cache  # the trap: empty caches are falsy
        default_before = (DEFAULT_CACHE.hits, DEFAULT_CACHE.misses)
        batch = batch_of([4.0, 5.0])
        evaluate_cached(batch, cache)
        evaluate_cached(batch, cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert (DEFAULT_CACHE.hits, DEFAULT_CACHE.misses) == default_before

    def test_none_routes_to_default_cache(self):
        before = DEFAULT_CACHE.hits + DEFAULT_CACHE.misses
        evaluate_cached(batch_of([6.0]))
        assert DEFAULT_CACHE.hits + DEFAULT_CACHE.misses == before + 1


class TestGuardCachePurity:
    def test_rejected_batches_never_reach_the_cache(self):
        """The strict guard diagnoses the columns *before* evaluation, so
        corrupted columns are never evaluated, keyed or cached, and a
        clean batch is cached under its content."""
        cache = EvaluationCache()
        engine = GuardedEngine(cache=cache)
        bad = np.array([1.0, np.nan, 3.0, np.inf])
        with pytest.raises(ValidationError):
            engine.evaluate_columns(BASE, 4, {"energy_kwh": np.array(bad)})
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)
        guarded = engine.evaluate_columns(
            BASE, 2, {"energy_kwh": np.array([1.0, 3.0])}
        )
        clean = batch_of([1.0, 3.0])
        evaluate_cached(clean, cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert batch_key(guarded.batch) == batch_key(clean)

    def test_repeated_guarded_evaluation_hits_cache(self):
        cache = EvaluationCache()
        engine = GuardedEngine(cache=cache)
        columns = {"energy_kwh": np.array([1.0, 2.0, 3.0])}
        for _ in range(2):
            engine.evaluate_columns(
                BASE, 3, {k: np.array(v) for k, v in columns.items()}
            )
        assert (cache.hits, cache.misses) == (1, 1)


class TestThreadSafety:
    def test_concurrent_mixed_access_is_consistent(self):
        """Many threads hammering evaluate/peek/put/stats on a small cache
        must never corrupt the store: every returned result is correct for
        its batch, counters balance, and size respects capacity."""
        import threading

        cache = EvaluationCache(capacity=8)
        batches = [batch_of([float(i + 1), float(i + 2)]) for i in range(16)]
        expected = [evaluate_cached(b, EvaluationCache()) for b in batches]
        failures = []

        def worker(offset):
            for step in range(120):
                index = (offset + step) % len(batches)
                result = cache.evaluate(batches[index])
                if not np.array_equal(
                    result.total_g, expected[index].total_g
                ):
                    failures.append(index)
                cache.peek(batches[(index + 1) % len(batches)])
                cache.put(batches[index], expected[index])
                cache.stats()

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        stats = cache.stats()
        assert stats.size <= cache.capacity
        assert stats.hits + stats.misses == 8 * 120 * 2  # evaluate + peek

    def test_put_rejects_row_count_mismatch(self):
        cache = EvaluationCache()
        two = batch_of([1.0, 2.0])
        three = batch_of([1.0, 2.0, 3.0])
        result = evaluate_cached(three, EvaluationCache())
        with pytest.raises(ParameterError, match="rows"):
            cache.put(two, result)

    def test_peek_never_computes(self):
        cache = EvaluationCache()
        batch = batch_of([4.0])
        assert cache.peek(batch) is None
        assert cache.stats().misses == 1
        evaluate_cached(batch, cache)
        assert cache.peek(batch) is not None


class TestScenarioKey:
    def test_matches_single_row_batch_key(self):
        """The scalar fast path must hash exactly like the one-row batch,
        or the service's per-query entries stop interoperating with
        batch-level ones."""
        scenarios = [
            BASE,
            BASE.replace(energy_kwh=123.456),
            BASE.replace(lifetime_hours=1.0, dram_gb=0.125),
        ]
        for scenario in scenarios:
            assert scenario_key(scenario) == batch_key(
                ScenarioBatch.from_scenarios((scenario,))
            )

    def test_distinct_scenarios_hash_differently(self):
        assert scenario_key(BASE) != scenario_key(
            BASE.replace(energy_kwh=BASE.energy_kwh + 1e-9)
        )

    def test_key_level_entries_interoperate_with_batch_level(self):
        """A row stored via put_by_key is served to a peek of the
        equivalent one-row batch, and vice versa."""
        cache = EvaluationCache()
        scenario = BASE.replace(energy_kwh=7.5)
        one_row = ScenarioBatch.from_scenarios((scenario,))
        result = evaluate_cached(one_row, cache)
        assert cache.peek_by_key(scenario_key(scenario), 1) is result

    def test_put_many_is_equivalent_to_individual_puts(self):
        cache = EvaluationCache(capacity=2)
        batch = batch_of([1.0])
        result = evaluate_cached(batch, EvaluationCache())
        cache.put_many_by_key([("a", result), ("b", result), ("c", result)])
        assert cache.peek_by_key("a") is None  # evicted (capacity 2)
        assert cache.peek_by_key("b") is result
        assert cache.peek_by_key("c") is result
        assert cache.stats().evictions == 1

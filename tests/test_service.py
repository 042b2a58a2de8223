"""The carbon-query service: failure matrix, batching, and admission.

Everything here runs at the transport-independent ``handle`` level (no
sockets) except the HTTP-adapter class, which gets one bound server.
The chaos suite (breaker under a flaky backend, SIGTERM subprocess,
worker kills) lives in ``test_service_chaos.py``.
"""

import json
import threading
import time

import pytest

from repro.analysis import ActScenario, run_monte_carlo
from repro.core.errors import (
    DivergenceError,
    ParameterError,
    ReproError,
    RunInterrupted,
    ValidationError,
)
from repro.engine.cache import EvaluationCache
from repro.engine.kernels import evaluate_batch
from repro.obs import RunContext, use_context
from repro.service import (
    AdmissionQueue,
    CarbonQueryService,
    CircuitBreaker,
    DeadlineExceeded,
    MicroBatcher,
    QueueFull,
    RateLimiter,
    ServiceConfig,
    ServiceUnavailable,
    TokenBucket,
    error_response,
)
from repro.service.batcher import single_row_batch

BASE = ActScenario()


def post(service, path, payload=None, client="test"):
    body = json.dumps(payload).encode() if payload is not None else b"{}"
    return service.handle("POST", path, body, client)


@pytest.fixture
def service():
    svc = CarbonQueryService(ServiceConfig(max_wait_s=0.001))
    yield svc
    svc.drain(5.0)


class TestValidation:
    def test_malformed_json_is_400(self, service):
        response = service.handle("POST", "/v1/footprint", b"{not json")
        assert response.status == 400
        assert response.payload["error"] == "validation"

    def test_non_object_body_is_400(self, service):
        response = service.handle("POST", "/v1/footprint", b"[1, 2]")
        assert response.status == 400

    def test_unknown_parameter_is_422_with_suggestion(self, service):
        response = post(
            service, "/v1/footprint", {"params": {"lifetime_hrs": 1000}}
        )
        assert response.status == 422
        assert response.payload["error"] == "unknown_parameter"
        assert response.payload["suggestion"] == "lifetime_hours"

    def test_out_of_domain_value_is_422(self, service):
        response = post(
            service, "/v1/footprint", {"params": {"fab_yield": -1.0}}
        )
        assert response.status == 422
        assert "fab_yield" in response.payload["message"]

    def test_non_numeric_value_is_400(self, service):
        response = post(
            service, "/v1/footprint", {"params": {"fab_yield": "high"}}
        )
        assert response.status == 400

    def test_unknown_route_is_404_and_wrong_method_405(self, service):
        assert service.handle("POST", "/v1/nope").status == 404
        response = service.handle("GET", "/v1/footprint")
        assert response.status == 405
        assert response.headers["Allow"] == "POST"

    def test_bad_deadline_is_422(self, service):
        response = post(service, "/v1/footprint", {"deadline_ms": -5})
        assert response.status == 422

    def test_nan_deadline_is_422(self, service):
        body = b'{"deadline_ms": NaN}'
        response = service.handle("POST", "/v1/footprint", body)
        assert response.status == 422
        assert response.payload["error"] == "parameter"

    @pytest.mark.parametrize(
        "body",
        [
            # JSON numbers beyond float range parse as inf.
            b'{"draws": 1e400}',
            b'{"seed": 1e400}',
            b'{"workers": 1e400}',
            b'{"draws": NaN}',
            b'{"seed": 2.7}',
            b'{"seed": -1}',
        ],
    )
    def test_montecarlo_counts_must_be_integers(self, service, body):
        response = service.handle("POST", "/v1/montecarlo", body)
        assert response.status == 422
        assert response.payload["error"] == "parameter"


class TestFootprint:
    def test_result_is_bit_identical_to_direct_engine_call(self, service):
        scenario = BASE.replace(lifetime_hours=35040.0)
        direct = evaluate_batch(single_row_batch(scenario))
        response = post(
            service, "/v1/footprint", {"params": {"lifetime_hours": 35040.0}}
        )
        assert response.status == 200
        assert response.payload["total_g"] == float(direct.total_g[0])
        assert response.payload["embodied_g"] == float(direct.embodied_g[0])

    def test_repeat_query_is_served_from_cache(self, service):
        body = {"params": {"energy_kwh": 7.0}}
        first = post(service, "/v1/footprint", body)
        second = post(service, "/v1/footprint", body)
        assert first.payload["total_g"] == second.payload["total_g"]
        assert second.payload["served_from"] == "cache"

    def test_concurrent_queries_coalesce_and_stay_bit_identical(self):
        svc = CarbonQueryService(
            ServiceConfig(max_wait_s=0.05, max_batch=64)
        )
        try:
            hours = [1000.0 * (i + 1) for i in range(16)]
            responses = [None] * len(hours)

            def query(index):
                responses[index] = post(
                    svc,
                    "/v1/footprint",
                    {"params": {"lifetime_hours": hours[index]}},
                )

            threads = [
                threading.Thread(target=query, args=(i,))
                for i in range(len(hours))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for index, response in enumerate(responses):
                assert response.status == 200
                direct = evaluate_batch(
                    single_row_batch(
                        BASE.replace(lifetime_hours=hours[index])
                    )
                )
                assert response.payload["total_g"] == float(
                    direct.total_g[0]
                )
            # At least one response must have ridden a coalesced batch.
            assert max(r.payload["batch_rows"] for r in responses) > 1
            assert svc.batcher.stats.ticks < len(hours)
        finally:
            svc.drain(5.0)


class TestGatherRule:
    """A tick waits for co-travellers only while one can be admitted."""

    def test_lone_query_is_dispatched_at_once(self):
        # max_wait_s=5.0 means a 625 ms idle gap for a tick that gathers.
        svc = CarbonQueryService(ServiceConfig(max_wait_s=5.0))
        try:
            started = time.perf_counter()
            response = post(
                svc, "/v1/footprint", {"params": {"energy_kwh": 5.55}}
            )
            elapsed = time.perf_counter() - started
            assert response.status == 200
            assert response.payload["batch_rows"] == 1
            assert elapsed < 0.3
            batcher = svc.handle("GET", "/statz").payload["batcher"]
            assert batcher["ticks"] == 1
            assert batcher["gathered"] == 0
        finally:
            svc.drain(5.0)

    def test_query_waits_while_another_request_is_admitted(self):
        svc = CarbonQueryService(ServiceConfig(max_wait_s=5.0))
        # The slot the second query stands for: admitted, not yet
        # submitted, so the first query's tick must wait for it.
        assert svc.queue.try_enter()
        first = []
        thread = threading.Thread(
            target=lambda: first.append(
                post(svc, "/v1/footprint", {"params": {"energy_kwh": 6.0}})
            )
        )
        try:
            thread.start()
            give_up = time.monotonic() + 5.0
            while svc.batcher.stats.queries < 1 or svc.batcher._queue:
                assert time.monotonic() < give_up
                time.sleep(0.001)
            second = svc.batcher.submit(
                BASE.replace(energy_kwh=7.0), timeout_s=5.0
            )
            result = second.wait()
            thread.join(5.0)
            assert first[0].status == 200
            assert first[0].payload["batch_rows"] == 2
            assert second.batch_rows == 2
            assert result.total_g[0] == evaluate_batch(
                single_row_batch(BASE.replace(energy_kwh=7.0))
            ).total_g[0]
            assert svc.batcher.stats.ticks == 1
            assert svc.batcher.stats.gathered == 1
        finally:
            svc.queue.leave()
            thread.join(5.0)
            svc.drain(5.0)

    def test_gather_time_is_observed_per_tick(self):
        context = RunContext.create(describe_git=False)
        svc = CarbonQueryService(ServiceConfig(max_wait_s=0.001))
        try:
            with use_context(context):
                post(svc, "/v1/footprint", {"params": {"energy_kwh": 8.0}})
                post(svc, "/v1/footprint", {"params": {"energy_kwh": 9.0}})
        finally:
            svc.drain(5.0)
        timers = context.metrics.snapshot()["timers"]
        assert timers["service.batcher.gather_seconds"]["count"] == 2
        assert timers["service.batcher.tick_seconds"]["count"] == 2


class TestMetricEndpoint:
    DESIGNS = [
        {"name": "a", "embodied_carbon_g": 1e6, "energy_kwh": 10, "delay_s": 1},
        {"name": "b", "embodied_carbon_g": 2e6, "energy_kwh": 5, "delay_s": 2},
    ]

    def test_scores_and_winners(self, service):
        response = post(service, "/v1/metric", {"designs": self.DESIGNS})
        assert response.status == 200
        # Without area_mm2 the area metrics have no scores, so winners
        # covers a subset of the returned metric names.
        assert set(response.payload["winners"]) <= set(
            response.payload["metrics"]
        )
        assert response.payload["winners"]["CDP"] == "a"
        assert response.payload["scores"]["CDP"]["a"] == pytest.approx(1e6)

    def test_missing_field_is_400(self, service):
        response = post(
            service, "/v1/metric", {"designs": [{"name": "x"}]}
        )
        assert response.status == 400

    def test_unknown_design_field_is_422(self, service):
        broken = dict(self.DESIGNS[0], embodied_g=1.0)
        response = post(service, "/v1/metric", {"designs": [broken]})
        assert response.status == 422

    def test_unknown_metric_name_is_422(self, service):
        response = post(
            service,
            "/v1/metric",
            {"designs": self.DESIGNS, "metrics": ["XYZ"]},
        )
        assert response.status == 422


    def test_repeated_design_name_is_422(self, service):
        designs = self.DESIGNS + [dict(self.DESIGNS[1], name="a")]
        response = post(service, "/v1/metric", {"designs": designs})
        assert response.status == 422
        assert "'a' is repeated" in response.payload["message"]


class TestSweepEndpoint:
    def test_grid_sweep_matches_direct_evaluation(self, service):
        response = post(
            service,
            "/v1/sweep",
            {"grids": {"lifetime_hours": [17520.0, 35040.0]}},
        )
        assert response.status == 200
        direct = [
            float(
                evaluate_batch(
                    single_row_batch(BASE.replace(lifetime_hours=h))
                ).total_g[0]
            )
            for h in (17520.0, 35040.0)
        ]
        assert response.payload["values"] == direct

    def test_oversized_sweep_is_422(self):
        svc = CarbonQueryService(ServiceConfig(max_sweep_points=4))
        try:
            response = post(
                svc,
                "/v1/sweep",
                {"grids": {"lifetime_hours": [1.0, 2.0, 3.0, 4.0, 5.0]}},
            )
            assert response.status == 422
            assert "cap" in response.payload["message"]
        finally:
            svc.drain(5.0)

    def test_unknown_response_series_is_422(self, service):
        response = post(
            service,
            "/v1/sweep",
            {"grids": {"energy_kwh": [1.0]}, "response": "total_kg"},
        )
        assert response.status == 422
        assert response.payload["suggestion"] == "total_g"


class TestMonteCarloEndpoint:
    def test_distribution_summary(self, service):
        response = post(
            service, "/v1/montecarlo", {"draws": 400, "seed": 7}
        )
        assert response.status == 200
        payload = response.payload
        assert payload["draws"] == 400
        assert payload["percentiles"]["p5"] < payload["percentiles"]["p95"]
        # Same seed, same answer: the service adds no nondeterminism.
        again = post(service, "/v1/montecarlo", {"draws": 400, "seed": 7})
        assert again.payload["mean_g"] == payload["mean_g"]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_answer_equals_the_direct_call(self, service, workers):
        # Two blocks of the draw stream: the answer is run_monte_carlo's
        # for the same seed, whether or not the request sets workers.
        request = {"draws": 70_000, "seed": 7, "percentiles": [5, 95]}
        if workers is not None:
            request["workers"] = workers
        response = post(service, "/v1/montecarlo", request)
        direct = run_monte_carlo(ActScenario(), draws=70_000, seed=7)
        assert response.status == 200
        assert response.payload["mean_g"] == direct.mean
        assert response.payload["std_g"] == direct.std
        assert response.payload["percentiles"] == {
            "p5": direct.p5,
            "p95": direct.p95,
        }

    def test_distinct_seeds_leave_the_shared_cache_unchanged(self):
        # Fresh draws never repeat: chunk results must not pile up in the
        # shared cache, whose capacity counts entries rather than bytes.
        svc = CarbonQueryService(ServiceConfig(mc_chunk_rows=256))
        try:
            post(svc, "/v1/footprint", {"params": {"energy_kwh": 5.0}})
            before = len(svc.cache)
            for seed in range(8):
                response = post(
                    svc, "/v1/montecarlo", {"draws": 1024, "seed": seed}
                )
                assert response.status == 200
            assert len(svc.cache) == before
        finally:
            svc.drain(5.0)

    def test_worker_pool_never_outgrows_the_chunk_count(self, monkeypatch):
        # A client-chosen worker count must not size the pool: a run of
        # two chunks has work for two workers at most.  The stub records
        # each requested pool size and fails before spawning anything.
        from repro.parallel import pool as pool_module

        sizes = []

        class RecordingPool:
            def __init__(self, workers, **kwargs):
                sizes.append(workers)
                raise RuntimeError("stub pool starts no processes")

        monkeypatch.setattr(pool_module, "WorkerPool", RecordingPool)
        svc = CarbonQueryService(ServiceConfig(mc_chunk_rows=64))
        try:
            for draws in (64, 128):
                post(
                    svc,
                    "/v1/montecarlo",
                    {"draws": draws, "seed": 1, "workers": 100_000},
                )
        finally:
            svc.drain(5.0)
        assert sizes and max(sizes) <= 2

    def test_draw_cap_is_422(self):
        svc = CarbonQueryService(ServiceConfig(max_draws=100))
        try:
            response = post(svc, "/v1/montecarlo", {"draws": 101})
            assert response.status == 422
        finally:
            svc.drain(5.0)

    def test_deadline_cancels_run_as_504(self):
        svc = CarbonQueryService(
            ServiceConfig(mc_chunk_rows=64, max_deadline_s=30.0)
        )
        try:
            response = post(
                svc,
                "/v1/montecarlo",
                {"draws": 1_000_000, "deadline_ms": 30},
            )
            assert response.status == 504
            assert response.payload["error"] == "deadline_exceeded"
            assert response.payload["completed"] < response.payload["total"]
        finally:
            svc.drain(5.0)


def strict_json(body):
    """Parse ``body`` as strict JSON: ``Infinity``/``NaN`` are errors."""

    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(body, parse_constant=reject)


class TestNonFiniteResults:
    OVERFLOW = {"energy_kwh": 1e308, "ci_use_g_per_kwh": 1e308}

    def test_overflowing_footprint_is_422_not_a_200_with_infinity(
        self, service
    ):
        response = post(service, "/v1/footprint", {"params": self.OVERFLOW})
        assert response.status == 422
        payload = strict_json(response.body())
        assert payload["error"] == "non_finite_result"
        assert "total_g" in payload["diagnostics"]
        # Client-shaped: the breaker stays closed and the next query is fine.
        assert service.breaker.state == "closed"
        assert post(service, "/v1/footprint", {"params": {}}).status == 200

    @pytest.mark.parametrize(
        "path, payload",
        [
            ("/v1/sweep", {"grids": {"energy_kwh": [1.0, 1e308]},
                           "params": {"ci_use_g_per_kwh": 1e308}}),
            ("/v1/metric", {"designs": [{"name": "a",
                                         "embodied_carbon_g": 1e308,
                                         "energy_kwh": 1e308,
                                         "delay_s": 1e308}]}),
        ],
    )
    def test_other_endpoints_reject_non_finite_results(
        self, service, path, payload
    ):
        response = post(service, path, payload)
        assert response.status == 422
        assert strict_json(response.body())["error"] == "non_finite_result"

    def test_every_success_body_is_strict_json(self, service):
        requests = [
            ("/v1/footprint", {"params": {"energy_kwh": 7.0}}),
            ("/v1/metric", {"designs": [{"name": "a",
                                         "embodied_carbon_g": 1.0,
                                         "energy_kwh": 2.0,
                                         "delay_s": 3.0}]}),
            ("/v1/sweep", {"grids": {"lifetime_hours": [17520.0, 35040.0]}}),
            ("/v1/montecarlo", {"draws": 200, "seed": 3}),
        ]
        for path, payload in requests:
            response = post(service, path, payload)
            assert response.status == 200, path
            strict_json(response.body())
        for path in ("/healthz", "/readyz", "/statz"):
            response = service.handle("GET", path)
            assert response.status == 200, path
            strict_json(response.body())


def hold_first_tick(monkeypatch):
    """Hold the batcher's first kernel call until ``release`` is set;
    returns ``(holding, release)``, ``holding`` set once that call has
    started."""
    import repro.service.batcher as batcher_module

    holding = threading.Event()
    release = threading.Event()

    def held(batch, backend=None):
        if not holding.is_set():
            holding.set()
            release.wait(5.0)
        return evaluate_batch(batch)

    monkeypatch.setattr(batcher_module, "evaluate_batch", held)
    return holding, release


class TestDeadlines:
    def test_deadline_expired_while_queued_is_504(self, monkeypatch):
        # A first tick stuck in the kernel keeps the batcher thread busy:
        # the second query times out queued, resolves to
        # DeadlineExceeded, and the tick after the release drops the
        # cancelled entry.
        holding, release = hold_first_tick(monkeypatch)
        svc = CarbonQueryService(ServiceConfig(default_deadline_s=5.0))
        decoy = []
        thread = threading.Thread(
            target=lambda: decoy.append(
                post(svc, "/v1/footprint", {"params": {"energy_kwh": 1.0}})
            )
        )
        try:
            thread.start()
            assert holding.wait(5.0)
            response = post(
                svc,
                "/v1/footprint",
                {"params": {"energy_kwh": 3.33}, "deadline_ms": 20},
            )
            assert response.status == 504
            assert response.payload["error"] == "deadline_exceeded"
            assert response.payload["stage"] == "queued"
        finally:
            release.set()
            thread.join(5.0)
            svc.drain(5.0)
        assert decoy[0].status == 200

    def test_deadline_expired_mid_tick_is_504_batched(self, monkeypatch):
        # The query's own tick is held inside the kernel past its
        # deadline: it was taken, so the 504 names the batched stage.
        holding, release = hold_first_tick(monkeypatch)
        svc = CarbonQueryService(ServiceConfig(default_deadline_s=5.0))
        try:
            response = post(
                svc,
                "/v1/footprint",
                {"params": {"energy_kwh": 4.44}, "deadline_ms": 50},
            )
            assert holding.is_set()
            assert response.status == 504
            assert response.payload["error"] == "deadline_exceeded"
            assert response.payload["stage"] == "batched"
        finally:
            release.set()
            svc.drain(5.0)

    def test_deadline_is_capped_at_config_max(self, service):
        assert (
            service._deadline_s({"deadline_ms": 10_000_000})
            == service.config.max_deadline_s
        )


class TestAdmission:
    def test_queue_full_sheds_with_429_and_retry_after(self):
        svc = CarbonQueryService(ServiceConfig(queue_limit=1))
        try:
            assert svc.queue.try_enter()  # occupy the only slot
            response = post(svc, "/v1/footprint", {})
            assert response.status == 429
            assert response.payload["error"] == "queue_full"
            assert float(response.headers["Retry-After"]) > 0
            svc.queue.leave()
            assert post(svc, "/v1/footprint", {}).status == 200
        finally:
            svc.drain(5.0)

    def test_rate_limit_is_429_per_client(self):
        svc = CarbonQueryService(
            ServiceConfig(rate_limit_per_s=0.001, rate_burst=1.0)
        )
        try:
            assert post(svc, "/v1/footprint", {}, client="a").status == 200
            limited = post(svc, "/v1/footprint", {}, client="a")
            assert limited.status == 429
            assert limited.payload["error"] == "rate_limited"
            # An independent client still has its own bucket.
            assert post(svc, "/v1/footprint", {}, client="b").status == 200
        finally:
            svc.drain(5.0)

    def test_health_endpoints_bypass_admission(self):
        svc = CarbonQueryService(
            ServiceConfig(rate_limit_per_s=0.001, rate_burst=1.0)
        )
        try:
            post(svc, "/v1/footprint", {}, client="a")
            post(svc, "/v1/footprint", {}, client="a")
            assert svc.handle("GET", "/healthz", b"", "a").status == 200
            assert svc.handle("GET", "/readyz", b"", "a").status == 200
        finally:
            svc.drain(5.0)


class TestBreaker:
    def _tripped_service(self):
        svc = CarbonQueryService(
            ServiceConfig(breaker_threshold=2, breaker_cooldown_s=60.0)
        )
        for _ in range(2):
            svc.breaker.record_failure()
        return svc

    def test_open_breaker_serves_cached_queries_degraded(self):
        svc = CarbonQueryService(ServiceConfig(breaker_threshold=2))
        try:
            body = {"params": {"energy_kwh": 9.0}}
            warm = post(svc, "/v1/footprint", body)
            assert warm.status == 200
            svc.breaker.record_failure()
            svc.breaker.record_failure()
            degraded = post(svc, "/v1/footprint", body)
            assert degraded.status == 200
            assert degraded.payload["degraded"] is True
            assert degraded.headers["X-Degraded"] == "true"
            assert degraded.payload["total_g"] == warm.payload["total_g"]
        finally:
            svc.drain(5.0)

    def test_open_breaker_uncached_query_is_503(self):
        svc = self._tripped_service()
        try:
            response = post(
                svc, "/v1/footprint", {"params": {"energy_kwh": 123.456}}
            )
            assert response.status == 503
            assert "Retry-After" in response.headers
        finally:
            svc.drain(5.0)

    def test_open_breaker_rejects_montecarlo(self):
        svc = self._tripped_service()
        try:
            assert post(svc, "/v1/montecarlo", {"draws": 10}).status == 503
        finally:
            svc.drain(5.0)

    def test_client_errors_never_trip_the_breaker(self, service):
        for _ in range(service.config.breaker_threshold + 1):
            post(service, "/v1/footprint", {"params": {"fab_yield": -1}})
        assert service.breaker.state == "closed"
        assert service.breaker.trips == 0

    def test_readyz_reports_degraded_when_open(self):
        svc = self._tripped_service()
        try:
            response = svc.handle("GET", "/readyz")
            assert response.status == 200
            assert response.payload["status"] == "degraded"
        finally:
            svc.drain(5.0)

    @staticmethod
    def _force_half_open(svc):
        """Rewind the breaker's trip time so the cooldown has elapsed."""
        svc.breaker._opened_at -= 2 * svc.config.breaker_cooldown_s
        assert svc.breaker.state == "half_open"

    def test_cache_hot_probe_releases_slot_and_backend_recovers(self):
        svc = CarbonQueryService(
            ServiceConfig(breaker_threshold=2, breaker_cooldown_s=60.0)
        )
        try:
            body = {"params": {"energy_kwh": 9.0}}
            assert post(svc, "/v1/footprint", body).status == 200
            svc.breaker.record_failure()
            svc.breaker.record_failure()
            self._force_half_open(svc)
            # Post-outage, cached queries are exactly what clients retry
            # first: this one claims the half-open probe, is answered
            # from cache without touching the backend, and must hand the
            # slot back — a leak here pins the service cache-only.
            hot = post(svc, "/v1/footprint", body)
            assert hot.status == 200
            assert hot.payload["served_from"] == "cache"
            assert svc.breaker.state == "half_open"  # a hit proves nothing
            # The freed slot lets a cold query actually probe the backend.
            cold = post(
                svc, "/v1/footprint", {"params": {"energy_kwh": 123.0}}
            )
            assert cold.status == 200
            assert svc.breaker.state == "closed"
            assert svc.breaker.recoveries == 1
        finally:
            svc.drain(5.0)

    def test_cached_sweep_neither_closes_nor_leaks_a_probing_breaker(self):
        svc = CarbonQueryService(
            ServiceConfig(breaker_threshold=2, breaker_cooldown_s=60.0)
        )
        try:
            body = {"grids": {"energy_kwh": [1.0, 2.0]}}
            assert post(svc, "/v1/sweep", body).status == 200
            svc.breaker.record_failure()
            svc.breaker.record_failure()
            self._force_half_open(svc)
            hot = post(svc, "/v1/sweep", body)
            assert hot.status == 200
            assert svc.breaker.state == "half_open"
            cold = post(svc, "/v1/sweep", {"grids": {"energy_kwh": [3.0]}})
            assert cold.status == 200
            assert svc.breaker.state == "closed"
        finally:
            svc.drain(5.0)


class TestDrain:
    def test_drain_completes_in_flight_requests(self):
        svc = CarbonQueryService(ServiceConfig(max_wait_s=0.05))
        responses = []

        def query(index):
            responses.append(
                post(
                    svc,
                    "/v1/footprint",
                    {"params": {"lifetime_hours": 100.0 * (index + 1)}},
                )
            )

        threads = [
            threading.Thread(target=query, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.01)  # let them enter admission
        assert svc.drain(10.0) is True
        for thread in threads:
            thread.join()
        assert [r.status for r in responses] == [200] * 8

    def test_requests_after_drain_are_503(self):
        svc = CarbonQueryService(ServiceConfig())
        svc.drain(5.0)
        response = post(svc, "/v1/footprint", {})
        assert response.status == 503
        assert svc.handle("GET", "/readyz").status == 503


class TestErrorMapping:
    CONFIG = ServiceConfig()

    def test_divergence_is_500_with_diagnostics(self):
        error = DivergenceError(
            "engine disagrees",
            series="total_g",
            indices=(3,),
            batched=(1.0,),
            reference=(2.0,),
            tolerance=1e-9,
        )
        response = error_response(error, self.CONFIG)
        assert response.status == 500
        assert response.payload["series"] == "total_g"
        assert response.payload["batched"] == [1.0]
        assert response.payload["reference"] == [2.0]

    def test_run_interrupted_is_504_with_progress(self):
        response = error_response(
            RunInterrupted("cancelled", completed=10, total=100), self.CONFIG
        )
        assert response.status == 504
        assert response.payload["completed"] == 10

    def test_validation_diagnostics_are_serialized(self):
        response = error_response(
            ValidationError("bad columns", diagnostics=("energy_kwh nan",)),
            self.CONFIG,
        )
        assert response.status == 400
        assert response.payload["diagnostics"] == ["energy_kwh nan"]

    def test_unexpected_exception_is_opaque_500(self):
        response = error_response(RuntimeError("boom"), self.CONFIG)
        assert response.status == 500
        assert response.payload["error"] == "internal"

    def test_model_error_is_500_with_retry_after(self):
        response = error_response(ReproError("engine broke"), self.CONFIG)
        assert response.status == 500
        assert "Retry-After" in response.headers


class TestAdmissionPrimitives:
    def test_token_bucket_refills_at_rate(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: clock[0])
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        clock[0] += 0.5  # one token refilled
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_rate_limiter_bounds_client_map(self):
        limiter = RateLimiter(rate=1.0, burst=1.0, max_clients=2)
        for client in ("a", "b", "c"):
            limiter.allow(client)
        assert len(limiter._buckets) == 2

    def test_admission_queue_drain_waits_for_leavers(self):
        queue = AdmissionQueue(limit=4)
        assert queue.try_enter()
        done = []

        def leaver():
            time.sleep(0.05)
            queue.leave()
            done.append(True)

        threading.Thread(target=leaver).start()
        assert queue.drain(5.0) is True
        assert done
        assert not queue.try_enter()  # draining refuses new work

    def test_breaker_trip_probe_recover_cycle(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            threshold=2, cooldown_s=10.0, clock=lambda: clock[0]
        )
        assert breaker.allow_backend()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow_backend()
        clock[0] += 10.0
        assert breaker.state == "half_open"
        assert breaker.allow_backend()  # the single probe
        assert not breaker.allow_backend()  # everyone else waits
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.recoveries == 1

    def test_breaker_failed_probe_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            threshold=1, cooldown_s=5.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        clock[0] += 5.0
        assert breaker.allow_backend()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2

    def test_breaker_probe_lease_release_frees_the_slot(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            threshold=1, cooldown_s=5.0, clock=lambda: clock[0]
        )
        lease = breaker.allow_backend()
        assert lease and not lease.is_probe  # closed leases carry no claim
        lease.release()  # and releasing one is harmless
        breaker.record_failure()
        clock[0] += 5.0
        probe = breaker.allow_backend()
        assert probe and probe.is_probe
        assert not breaker.allow_backend()
        probe.release()  # resolved without ever touching the backend
        again = breaker.allow_backend()
        assert again and again.is_probe
        probe.release()  # double release is a no-op
        assert not breaker.allow_backend()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_stale_lease_release_cannot_free_a_newer_probe(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            threshold=1, cooldown_s=5.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        clock[0] += 5.0
        stale = breaker.allow_backend()
        breaker.record_failure()  # the probe failed; breaker re-opens
        clock[0] += 5.0
        fresh = breaker.allow_backend()
        assert fresh and fresh.is_probe
        stale.release()  # older generation: must not free fresh's claim
        assert not breaker.allow_backend()

    def test_rate_limiter_evicts_idle_clients_not_active_ones(self):
        limiter = RateLimiter(rate=0.001, burst=1.0, max_clients=2)
        assert limiter.allow("active")
        assert limiter.allow("idle")
        assert not limiter.allow("active")  # exhausted, but recently seen
        limiter.allow("newcomer")  # at capacity: evicts "idle", not "active"
        assert "idle" not in limiter._buckets
        assert not limiter.allow("active")  # bucket survived, still empty


class TestBatcherUnit:
    def test_submit_after_close_is_refused(self):
        batcher = MicroBatcher(EvaluationCache(), max_wait_s=0.0)
        assert batcher.close(5.0)
        with pytest.raises(ServiceUnavailable):
            batcher.submit(BASE, timeout_s=1.0)

    def test_kernel_failure_fails_exactly_that_tick(self, monkeypatch):
        import repro.service.batcher as batcher_module

        failures = []

        def broken(batch, backend=None):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(batcher_module, "evaluate_batch", broken)
        batcher = MicroBatcher(
            EvaluationCache(), max_wait_s=0.0, on_failure=failures.append
        )
        try:
            pending = batcher.submit(BASE, timeout_s=5.0)
            with pytest.raises(RuntimeError, match="kernel exploded"):
                pending.wait()
            assert failures
            assert batcher.stats.failed == 1
            assert batcher.alive  # one bad tick must not kill the loop
        finally:
            batcher.close(5.0)

    def test_tick_failure_gives_each_waiter_its_own_exception(
        self, monkeypatch
    ):
        import repro.service.batcher as batcher_module

        holding = threading.Event()
        release = threading.Event()
        calls = []

        def broken(batch, backend=None):
            calls.append(len(batch))
            if len(calls) == 1:
                holding.set()
                release.wait(5.0)
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(batcher_module, "evaluate_batch", broken)
        batcher = MicroBatcher(EvaluationCache(), max_wait_s=0.0)
        try:
            decoy = batcher.submit(BASE.replace(energy_kwh=1.0), timeout_s=5.0)
            assert holding.wait(5.0)  # tick 1 is now stuck in the kernel
            pair = [
                batcher.submit(BASE.replace(energy_kwh=2.0), timeout_s=5.0),
                batcher.submit(BASE.replace(energy_kwh=3.0), timeout_s=5.0),
            ]
            release.set()
            with pytest.raises(RuntimeError):
                decoy.wait()
            errors = []
            for pending in pair:
                with pytest.raises(
                    RuntimeError, match="kernel exploded"
                ) as info:
                    pending.wait()
                errors.append(info.value)
            assert calls == [1, 2]  # the pair failed in one shared tick
            # Each waiter re-raises its own copy — a shared instance
            # gets its __traceback__ cross-contaminated by concurrent
            # raises — chained to the one original kernel error.
            assert errors[0] is not errors[1]
            assert errors[0].__cause__ is errors[1].__cause__
        finally:
            batcher.close(5.0)


class TestServiceConfig:
    def test_bad_knobs_raise_parameter_error(self):
        with pytest.raises(ParameterError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ParameterError):
            ServiceConfig(port=70000)
        with pytest.raises(ParameterError):
            ServiceConfig(default_deadline_s=60.0, max_deadline_s=30.0)
        with pytest.raises(ParameterError):
            ServiceConfig(rate_limit_per_s=-1.0)


class TestHttpAdapter:
    @pytest.fixture
    def server(self):
        from repro.service.http import make_server

        svc = CarbonQueryService(
            ServiceConfig(port=0, max_wait_s=0.001)
        )
        server = make_server(svc)
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        svc.drain(5.0)

    def _request(self, server, method, path, body=b"", headers=None):
        import http.client

        conn = http.client.HTTPConnection(
            *server.server_address, timeout=10
        )
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_footprint_over_http_matches_engine(self, server):
        status, payload = self._request(
            server,
            "POST",
            "/v1/footprint",
            json.dumps({"params": {"energy_kwh": 2.0}}).encode(),
        )
        assert status == 200
        direct = evaluate_batch(
            single_row_batch(BASE.replace(energy_kwh=2.0))
        )
        assert payload["total_g"] == float(direct.total_g[0])

    def test_oversized_body_is_413_and_closes_the_connection(self, server):
        import http.client

        from repro.service.http import MAX_BODY_BYTES

        conn = http.client.HTTPConnection(*server.server_address, timeout=10)
        try:
            conn.request(
                "POST", "/v1/footprint", body=b"x" * (MAX_BODY_BYTES + 1)
            )
            response = conn.getresponse()
            assert response.status == 413
            assert json.loads(response.read())["error"] == "payload_too_large"
            # The unread body desyncs HTTP/1.1 framing; the server must
            # not pretend the connection is reusable.
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_malformed_content_length_is_400_not_a_dropped_conn(self, server):
        for bad in ("banana", "-5"):
            status, payload = self._request(
                server,
                "POST",
                "/v1/footprint",
                b"",
                {"Content-Length": bad},
            )
            assert status == 400
            assert payload["error"] == "validation"

    def test_query_string_is_ignored_for_routing(self, server):
        status, _ = self._request(server, "GET", "/healthz?probe=1")
        assert status == 200


class TestCliServe:
    def test_bad_flag_exits_2(self, capsys):
        from repro.cli import main

        assert main(["serve", "--max-batch", "0"]) == 2
        assert "max_batch" in capsys.readouterr().err

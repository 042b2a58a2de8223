"""The carbon-query application: endpoints, validation, failure mapping.

:class:`CarbonQueryService` is the transport-independent core of the
service — it takes parsed requests (method, path, raw body, client id)
and returns ``(status, payload, headers)`` triples, so the whole failure
matrix is testable without opening a socket.  The stdlib HTTP wrapper in
:mod:`repro.service.http` is a thin adapter over :meth:`~CarbonQueryService.handle`.

Every model-stack error maps to a *typed* HTTP failure — never a silent
wrong answer:

=====================================  ======  =================================
error                                  status  meaning
=====================================  ======  =================================
malformed body / wrong shape           400     ``ValidationError``
unknown parameter / bad value          422     ``UnknownEntryError`` (with
                                               suggestion) / ``ParameterError``
result overflows float64               422     ``NonFiniteResult``
rate limit or queue full               429     shed; ``Retry-After`` set
breaker open, draining                 503     degraded / unavailable
deadline expired, run cancelled        504     ``DeadlineExceeded`` /
                                               ``RunInterrupted``
engine/reference divergence            500     ``DivergenceError`` + diagnostics
anything unexpected                    500     opaque internal error
=====================================  ======  =================================

Success bodies are strict JSON: a 2xx payload carrying an ``inf`` or
``nan`` (inputs whose Eq. 1-8 result overflows float64) is turned into a
422 ``NonFiniteResult`` naming the offending fields, and kernel overflow
inside the service is computed silently and judged by that check rather
than surfacing as a 500.
"""

from __future__ import annotations

import json
import time
from typing import Mapping, Sequence

import numpy as np

from repro.analysis.scenario import ActScenario
from repro.core.errors import (
    DivergenceError,
    ParameterError,
    ReproError,
    RunInterrupted,
    UnknownEntryError,
    ValidationError,
)
from repro.core.metrics import METRICS, DesignPoint
from repro.core.parameters import beyond_float_range
from repro.engine.batch import FIELD_NAMES, ScenarioBatch
from repro.engine.cache import EvaluationCache, scenario_key
from repro.engine.kernels import BatchResult
from repro.engine.metrics import score_table_batched, winners_batched
from repro.obs.context import current_context
from repro.obs.events import EventSink
from repro.service.admission import (
    AdmissionQueue,
    CircuitBreaker,
    DeadlineExceeded,
    OPEN,
    QueueFull,
    RateLimited,
    RateLimiter,
    ServiceOverload,
    ServiceUnavailable,
)
from repro.service.batcher import MicroBatcher
from repro.service.config import ServiceConfig

#: Output series a sweep request may ask for (BatchResult columns).
RESPONSE_SERIES: tuple[str, ...] = tuple(BatchResult.__dataclass_fields__)


class NonFiniteResult(ValidationError):
    """A well-formed query whose result is not finite (422).

    Its ``diagnostics`` are the payload paths holding ``inf`` or ``nan``
    — values JSON cannot carry.
    """


class Response:
    """One HTTP-shaped answer: status, JSON payload, extra headers."""

    __slots__ = ("status", "payload", "headers", "_body")

    def __init__(
        self,
        status: int,
        payload: Mapping[str, object],
        headers: Mapping[str, str] | None = None,
    ) -> None:
        self.status = status
        self.payload = dict(payload)
        self.headers = dict(headers or {})
        self._body: bytes | None = None

    def body(self) -> bytes:
        """The payload as strict JSON (``ValueError`` on ``inf``/``nan``),
        encoded once."""
        if self._body is None:
            self._body = json.dumps(self.payload, allow_nan=False).encode(
                "utf-8"
            )
        return self._body


def _non_finite_paths(value: object, path: str) -> list[str]:
    """Payload paths (``scores.EDP.a``, ``values[3]``) of non-finite floats."""
    if isinstance(value, float):
        return [] if np.isfinite(value) else [path]
    if isinstance(value, dict):
        return [
            found
            for key, item in value.items()
            for found in _non_finite_paths(
                item, f"{path}.{key}" if path else str(key)
            )
        ]
    if isinstance(value, (list, tuple)):
        return [
            found
            for index, item in enumerate(value)
            for found in _non_finite_paths(item, f"{path}[{index}]")
        ]
    return []


def _require_finite(response: Response) -> Response:
    """``response`` once its body encodes as strict JSON.

    Raises :class:`NonFiniteResult` (422) when the payload holds a
    non-finite number — a 200 carrying ``Infinity`` is invalid JSON and
    a silently wrong answer at once.
    """
    try:
        response.body()
    except ValueError:
        paths = _non_finite_paths(response.payload, "")
        shown = ", ".join(paths[:4]) + (
            f" and {len(paths) - 4} more" if len(paths) > 4 else ""
        )
        raise NonFiniteResult(
            f"the result is not finite at {shown}: the query's inputs "
            "overflow float64",
            paths,
        ) from None
    return response


def _require_mapping(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(
            f"{what} must be a JSON object, got {type(value).__name__}"
        )
    return value


def _number(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise beyond_float_range(what) from None


def parse_body(raw: bytes) -> dict:
    """The request body as a JSON object (400 on anything else)."""
    if not raw:
        return {}
    try:
        decoded = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValidationError(f"malformed JSON body: {error}") from None
    return _require_mapping(decoded, "request body")


def parse_scenario(params: object) -> ActScenario:
    """A ``params`` object as a validated :class:`ActScenario`.

    Unknown names raise :class:`UnknownEntryError` with the usual
    did-you-mean suggestion; out-of-domain values raise
    :class:`ParameterError`.  Both surface as 422.
    """
    overrides = _require_mapping(params if params is not None else {}, "params")
    unknown = set(overrides) - set(FIELD_NAMES)
    if unknown:
        raise UnknownEntryError(
            "scenario parameter", ", ".join(sorted(unknown)), FIELD_NAMES
        )
    values = {
        name: _number(value, f"params.{name}")
        for name, value in overrides.items()
    }
    return ActScenario(**values)


def error_response(error: BaseException, config: ServiceConfig) -> Response:
    """The typed HTTP answer for one failure (the failure matrix)."""
    retry = {"Retry-After": f"{config.retry_after_s:g}"}
    if isinstance(error, ServiceOverload):
        status = 503 if isinstance(error, ServiceUnavailable) else 429
        kind = {
            RateLimited: "rate_limited",
            QueueFull: "queue_full",
        }.get(type(error), "unavailable")
        return Response(
            status,
            {"error": kind, "message": str(error)},
            {"Retry-After": f"{error.retry_after_s:g}"},
        )
    if isinstance(error, DeadlineExceeded):
        return Response(
            504,
            {
                "error": "deadline_exceeded",
                "message": str(error),
                "stage": error.stage,
            },
        )
    if isinstance(error, RunInterrupted):
        return Response(
            504,
            {
                "error": "deadline_exceeded",
                "message": str(error),
                "completed": error.completed,
                "total": error.total,
            },
        )
    if isinstance(error, NonFiniteResult):
        return Response(
            422,
            {
                "error": "non_finite_result",
                "message": str(error),
                "diagnostics": list(error.diagnostics),
            },
        )
    if isinstance(error, ValidationError):
        return Response(
            400,
            {
                "error": "validation",
                "message": str(error),
                "diagnostics": [str(d) for d in error.diagnostics],
            },
        )
    if isinstance(error, UnknownEntryError):
        payload: dict[str, object] = {
            "error": "unknown_parameter",
            "message": str(error),
        }
        if error.suggestion:
            payload["suggestion"] = error.suggestion
        if error.available is not None:
            payload["available"] = [str(name) for name in error.available]
        return Response(422, payload)
    if isinstance(error, ParameterError):
        return Response(422, {"error": "parameter", "message": str(error)})
    if isinstance(error, DivergenceError):
        return Response(
            500,
            {
                "error": "divergence",
                "message": str(error),
                "series": error.series,
                "indices": list(error.indices),
                "batched": list(error.batched),
                "reference": list(error.reference),
                "tolerance": error.tolerance,
            },
        )
    if isinstance(error, ReproError):
        return Response(
            500, {"error": "model", "message": str(error)}, retry
        )
    return Response(
        500,
        {"error": "internal", "message": f"{type(error).__name__}: {error}"},
        retry,
    )


class CarbonQueryService:
    """The long-running carbon-query application.

    Owns the shared cache, the micro-batcher, and the admission stack;
    every endpoint is a ``_endpoint_*`` method returning a
    :class:`Response`.  Transport adapters call :meth:`handle`.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        cache: EvaluationCache | None = None,
        access_log: EventSink | None = None,
        fault_plan: object = None,
    ) -> None:
        #: Armed :class:`~repro.robustness.faultinject.ProcessFaultPlan`
        #: threaded into parallel Monte Carlo runs — chaos testing only.
        self.fault_plan = fault_plan
        self.config = config or ServiceConfig()
        self.cache = cache or EvaluationCache(
            capacity=self.config.cache_capacity
        )
        self.access_log = access_log or EventSink()
        self.limiter = RateLimiter(
            self.config.rate_limit_per_s, self.config.rate_burst
        )
        self.queue = AdmissionQueue(self.config.queue_limit)
        self.breaker = CircuitBreaker(
            self.config.breaker_threshold, self.config.breaker_cooldown_s
        )
        self.batcher = MicroBatcher(
            self.cache,
            max_batch=self.config.max_batch,
            max_wait_s=self.config.max_wait_s,
            on_success=self.breaker.record_success,
            on_failure=self._backend_failure,
        )
        self.started_at = time.monotonic()
        self._closed = False

    # --- failure accounting ---------------------------------------------

    def _backend_failure(self, error: BaseException) -> None:
        """Report a kernel-call failure to the breaker.

        Client-shaped errors (bad values, unknown names) are the
        caller's fault and never trip the breaker; everything else —
        including a :class:`DivergenceError`, which means the fast path
        cannot be trusted — counts.
        """
        if isinstance(
            error, (ValidationError, ParameterError, UnknownEntryError)
        ):
            return
        self.breaker.record_failure()
        context = current_context()
        if context.enabled:
            context.count("service.backend_failures")

    # --- request plumbing -----------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        client: str = "anonymous",
    ) -> Response:
        """Route one request through admission to its endpoint.

        Health endpoints bypass admission entirely (a saturated service
        must still answer its orchestrator).
        """
        started = time.perf_counter()
        context = current_context()
        route = path.rstrip("/") or "/"
        try:
            if route == "/healthz":
                response = self._endpoint_healthz()
            elif route == "/readyz":
                response = self._endpoint_readyz()
            elif route == "/statz":
                response = self._endpoint_statz()
            else:
                response = self._handle_query(method, route, body, client)
            if response.status < 300:
                response = _require_finite(response)
        except Exception as error:  # noqa: BLE001 - mapped, never silent
            response = error_response(error, self.config)
        elapsed = time.perf_counter() - started
        if context.enabled:
            context.count("service.requests")
            context.count(f"service.responses.{response.status}")
            context.observe("service.request_seconds", elapsed)
        self.access_log.emit(
            "access",
            client=client,
            method=method,
            path=path,
            status=response.status,
            duration_ms=round(elapsed * 1e3, 3),
        )
        return response

    def _handle_query(
        self, method: str, route: str, body: bytes, client: str
    ) -> Response:
        endpoint = {
            "/v1/footprint": self._endpoint_footprint,
            "/v1/metric": self._endpoint_metric,
            "/v1/sweep": self._endpoint_sweep,
            "/v1/montecarlo": self._endpoint_montecarlo,
        }.get(route)
        if endpoint is None:
            return Response(
                404, {"error": "not_found", "message": f"no route {route}"}
            )
        if method != "POST":
            return Response(
                405,
                {"error": "method_not_allowed", "message": f"{route} is POST"},
                {"Allow": "POST"},
            )
        if not self.limiter.allow(client):
            raise RateLimited(
                f"client {client!r} exceeded "
                f"{self.config.rate_limit_per_s:g} requests/sec",
                retry_after_s=self.config.retry_after_s,
            )
        if not self.queue.try_enter():
            if self.queue.draining:
                raise ServiceUnavailable(
                    "service is draining for shutdown",
                    retry_after_s=self.config.retry_after_s,
                )
            raise QueueFull(
                f"admission queue full ({self.queue.limit} in flight)",
                retry_after_s=self.config.retry_after_s,
            )
        context = current_context()
        try:
            # Overflowing inputs evaluate to inf/nan, judged afterwards by
            # _require_finite — not a RuntimeWarning escaping as a 500.
            with context.span("service.request", route=route), np.errstate(
                over="ignore", invalid="ignore"
            ):
                request = parse_body(body)
                return endpoint(request)
        finally:
            self.queue.leave()

    def _deadline_s(self, request: Mapping[str, object]) -> float:
        raw = request.get("deadline_ms")
        if raw is None:
            return self.config.default_deadline_s
        deadline = _number(raw, "deadline_ms") / 1e3
        if deadline <= 0:
            raise ParameterError(
                f"deadline_ms must be > 0, got {raw!r}"
            )
        return min(deadline, self.config.max_deadline_s)

    # --- endpoints ------------------------------------------------------

    def _endpoint_footprint(self, request: Mapping[str, object]) -> Response:
        scenario = parse_scenario(request.get("params"))
        deadline_s = self._deadline_s(request)
        lease = self.breaker.allow_backend()
        if lease is None:
            cached = self.cache.peek_by_key(scenario_key(scenario), 1)
            if cached is None:
                raise ServiceUnavailable(
                    "backend circuit breaker is open and this query is "
                    "not cached",
                    retry_after_s=self.config.breaker_cooldown_s,
                )
            return Response(
                200,
                self._footprint_payload(cached, "cache", 1, degraded=True),
                {"X-Degraded": "true"},
            )
        try:
            pending = self.batcher.submit(scenario, timeout_s=deadline_s)
            result = pending.wait()
        finally:
            # The batcher settles real kernel outcomes with the breaker
            # before waiters wake, making this release a no-op; what it
            # catches is every path that never reached the backend —
            # cache hit inside submit, deadline expiry before
            # evaluation, drain refusal — where a claimed half-open
            # probe would otherwise leak and pin the service cache-only.
            lease.release()
        return Response(
            200,
            self._footprint_payload(
                result, pending.served_from, pending.batch_rows
            ),
        )

    @staticmethod
    def _footprint_payload(
        result: BatchResult,
        served_from: str,
        batch_rows: int,
        *,
        degraded: bool = False,
    ) -> dict[str, object]:
        payload: dict[str, object] = {
            "total_g": float(result.total_g[0]),
            "operational_g": float(result.operational_g[0]),
            "embodied_g": float(result.embodied_g[0]),
            "amortized_embodied_g": float(result.amortized_embodied_g[0]),
            "breakdown": {
                "soc_g": float(result.soc_embodied_g[0]),
                "dram_g": float(result.dram_embodied_g[0]),
                "ssd_g": float(result.ssd_embodied_g[0]),
                "hdd_g": float(result.hdd_embodied_g[0]),
                "packaging_g": float(result.packaging_g[0]),
            },
            "served_from": served_from,
            "batch_rows": batch_rows,
        }
        if degraded:
            payload["degraded"] = True
        return payload

    def _endpoint_metric(self, request: Mapping[str, object]) -> Response:
        designs = request.get("designs")
        if not isinstance(designs, list) or not designs:
            raise ValidationError("designs must be a non-empty JSON array")
        points = []
        for index, entry in enumerate(designs):
            design = _require_mapping(entry, f"designs[{index}]")
            extra = set(design) - {
                "name", "embodied_carbon_g", "energy_kwh", "delay_s",
                "area_mm2",
            }
            if extra:
                raise UnknownEntryError(
                    "design field",
                    ", ".join(sorted(extra)),
                    ("name", "embodied_carbon_g", "energy_kwh", "delay_s",
                     "area_mm2"),
                )
            for required in ("embodied_carbon_g", "energy_kwh", "delay_s"):
                if required not in design:
                    raise ValidationError(
                        f"designs[{index}] is missing {required}"
                    )
            points.append(
                DesignPoint(
                    name=str(design.get("name", f"design-{index}")),
                    embodied_carbon_g=_number(
                        design["embodied_carbon_g"],
                        f"designs[{index}].embodied_carbon_g",
                    ),
                    energy_kwh=_number(
                        design["energy_kwh"], f"designs[{index}].energy_kwh"
                    ),
                    delay_s=_number(
                        design["delay_s"], f"designs[{index}].delay_s"
                    ),
                    area_mm2=(
                        _number(
                            design["area_mm2"], f"designs[{index}].area_mm2"
                        )
                        if design.get("area_mm2") is not None
                        else None
                    ),
                )
            )
        metric_names = request.get("metrics")
        if metric_names is not None and (
            not isinstance(metric_names, list)
            or not all(isinstance(name, str) for name in metric_names)
        ):
            raise ValidationError("metrics must be a JSON array of names")
        table = score_table_batched(points, metric_names)
        return Response(
            200,
            {
                "scores": table,
                "winners": winners_batched(points, metric_names),
                "metrics": sorted(table),
                "available_metrics": list(METRICS),
            },
        )

    def _endpoint_sweep(self, request: Mapping[str, object]) -> Response:
        scenario = parse_scenario(request.get("params"))
        grids_raw = _require_mapping(request.get("grids"), "grids")
        if not grids_raw:
            raise ValidationError("grids must name at least one parameter")
        grids: dict[str, Sequence[float]] = {}
        points = 1
        for name, axis in grids_raw.items():
            if name not in FIELD_NAMES:
                raise UnknownEntryError(
                    "scenario parameter", name, FIELD_NAMES
                )
            if not isinstance(axis, list) or not axis:
                raise ValidationError(
                    f"grids.{name} must be a non-empty JSON array"
                )
            grids[name] = [
                _number(value, f"grids.{name}[{i}]")
                for i, value in enumerate(axis)
            ]
            points *= len(axis)
        if points > self.config.max_sweep_points:
            raise ParameterError(
                f"sweep would evaluate {points} points, above the service "
                f"cap of {self.config.max_sweep_points}"
            )
        series = str(request.get("response", "total_g"))
        if series not in RESPONSE_SERIES:
            raise UnknownEntryError("response series", series, RESPONSE_SERIES)
        batch = ScenarioBatch.from_product(scenario, grids)
        result = self._evaluate_guarded(batch)
        values = getattr(result, series)
        return Response(
            200,
            {
                "response": series,
                "points": int(len(batch)),
                "grids": {name: list(axis) for name, axis in grids.items()},
                "values": [float(v) for v in values],
                "min": float(np.min(values)),
                "max": float(np.max(values)),
            },
        )

    def _evaluate_guarded(self, batch: ScenarioBatch) -> BatchResult:
        """One cached batch evaluation with breaker accounting.

        The sweep endpoint's equivalent of a batcher tick: breaker-open
        requests may only be served from cache, kernel failures are
        reported to the breaker, and cache hits report *nothing* — a hit
        proves no backend health, so recording it as a success would
        close a half-open breaker against a still-broken backend.
        """
        lease = self.breaker.allow_backend()
        if lease is None:
            cached = self.cache.peek(batch)
            if cached is None:
                raise ServiceUnavailable(
                    "backend circuit breaker is open and this sweep is "
                    "not cached",
                    retry_after_s=self.config.breaker_cooldown_s,
                )
            return cached
        try:
            result, from_cache = self.cache.evaluate_with_origin(batch)
        except Exception as error:
            self._backend_failure(error)
            # No-op when the failure tripped/re-opened the breaker; frees
            # the probe slot when it was a client-shaped error that never
            # exercised the backend.
            lease.release()
            raise
        if from_cache:
            lease.release()
        else:
            self.breaker.record_success()
        return result

    def _endpoint_montecarlo(self, request: Mapping[str, object]) -> Response:
        from repro.robustness.checkpoint import (
            CancelToken,
            run_monte_carlo_chunked,
        )

        scenario = parse_scenario(request.get("params"))
        draws = int(_number(request.get("draws", 10_000), "draws"))
        if not 0 < draws <= self.config.max_draws:
            raise ParameterError(
                f"draws must be in [1, {self.config.max_draws}], got {draws}"
            )
        seed = int(_number(request.get("seed", 2022), "seed"))
        distribution = str(request.get("distribution", "triangular"))
        parameters = request.get("parameters")
        if parameters is not None and (
            not isinstance(parameters, list)
            or not all(isinstance(name, str) for name in parameters)
        ):
            raise ValidationError("parameters must be a JSON array of names")
        percentiles_raw = request.get("percentiles", [5.0, 50.0, 95.0])
        if not isinstance(percentiles_raw, list) or not percentiles_raw:
            raise ValidationError("percentiles must be a non-empty JSON array")
        percentiles = [
            _number(q, f"percentiles[{i}]")
            for i, q in enumerate(percentiles_raw)
        ]
        if any(not 0 <= q <= 100 for q in percentiles):
            raise ParameterError("percentiles must be in [0, 100]")
        policy = None
        workers_raw = request.get("workers")
        if workers_raw is not None:
            workers = int(_number(workers_raw, "workers"))
            if workers < 1:
                raise ParameterError(
                    f"workers must be >= 1, got {workers}"
                )
            from repro.parallel.policy import ExecutionPolicy

            # Retry-on-failure so a dying worker degrades latency, not
            # correctness: lost shards are re-executed bit-identically.
            policy = ExecutionPolicy(
                workers=workers, failure_policy="retry"
            )
        lease = self.breaker.allow_backend()
        if lease is None:
            raise ServiceUnavailable(
                "backend circuit breaker is open; Monte Carlo queries are "
                "not served degraded",
                retry_after_s=self.config.breaker_cooldown_s,
            )
        deadline_s = self._deadline_s(request)
        # Chunked execution is what makes the deadline *cooperative*: the
        # runner polls the token at every chunk boundary and raises
        # RunInterrupted (mapped to 504) instead of running away.
        cancel = CancelToken(deadline_seconds=deadline_s)
        try:
            result = run_monte_carlo_chunked(
                scenario,
                tuple(parameters) if parameters is not None else None,
                draws=draws,
                seed=seed,
                distribution=distribution,
                chunk_rows=min(self.config.mc_chunk_rows, draws),
                cancel=cancel,
                # No cache: fresh draws never repeat, so the driver keeps
                # its chunks out of the shared one (whose capacity counts
                # entries, not bytes).
                policy=policy,
                fault_plan=self.fault_plan,
            )
        except Exception as error:
            if not isinstance(error, (RunInterrupted, ReproError)):
                self._backend_failure(error)
            # A run that ended without a recorded backend outcome
            # (cancelled mid-flight, client-shaped error) must hand a
            # claimed half-open probe slot back; after a recorded
            # failure this is a no-op.
            lease.release()
            raise
        self.breaker.record_success()
        return Response(
            200,
            {
                "draws": draws,
                "seed": seed,
                "distribution": distribution,
                "base_total_g": result.base_response,
                "mean_g": result.mean,
                "std_g": result.std,
                "percentiles": {
                    f"p{q:g}": value
                    for q, value in zip(
                        percentiles, result.percentiles(percentiles)
                    )
                },
            },
        )

    # --- health ---------------------------------------------------------

    def _endpoint_healthz(self) -> Response:
        return Response(
            200,
            {
                "status": "ok",
                "uptime_s": round(time.monotonic() - self.started_at, 3),
            },
        )

    def _endpoint_readyz(self) -> Response:
        if self.queue.draining:
            return Response(
                503, {"status": "draining"}, {"Retry-After": "5"}
            )
        if not self.batcher.alive:
            return Response(503, {"status": "batcher-dead"})
        state = self.breaker.state
        if state == OPEN:
            # Still ready: cached queries are served.  Orchestrators see
            # the degradation without being told to stop routing.
            return Response(200, {"status": "degraded", "breaker": state})
        return Response(200, {"status": "ready", "breaker": state})

    def _endpoint_statz(self) -> Response:
        return Response(
            200,
            {
                "uptime_s": round(time.monotonic() - self.started_at, 3),
                "batcher": self.batcher.stats.as_dict(),
                "queue": {
                    "depth": self.queue.depth,
                    "limit": self.queue.limit,
                    "draining": self.queue.draining,
                },
                "breaker": {
                    "state": self.breaker.state,
                    "trips": self.breaker.trips,
                    "recoveries": self.breaker.recoveries,
                },
                "cache": self.cache.stats().as_dict(),
                "config": {
                    "max_batch": self.config.max_batch,
                    "max_wait_s": self.config.max_wait_s,
                    "queue_limit": self.config.queue_limit,
                },
            },
        )

    # --- lifecycle ------------------------------------------------------

    def drain(self, timeout_s: float | None = None) -> bool:
        """Stop admitting, finish in-flight work, stop the batcher.

        Returns ``True`` when everything completed within the timeout.
        Idempotent — the SIGTERM handler and ``close()`` can both call it.
        """
        if self._closed:
            return True
        timeout = (
            timeout_s if timeout_s is not None else self.config.drain_timeout_s
        )
        drained = self.queue.drain(timeout)
        closed = self.batcher.close(timeout)
        self._closed = True
        context = current_context()
        if context.enabled:
            context.event("service_drained", clean=drained and closed)
        return drained and closed

    close = drain

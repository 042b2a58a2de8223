"""Tuning knobs of the carbon-query service, validated at construction.

One frozen dataclass holds every operational parameter — batching
geometry, admission limits, rate limits, deadlines, breaker thresholds —
so a service instance is fully described by one value that tests and the
CLI can construct identically.  Validation happens here, with the same
:class:`~repro.core.errors.ParameterError` contract as the model layer,
so a bad ``--max-batch`` exits the CLI with code 2 exactly like a bad
``--workers``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ParameterError
from repro.core.parameters import require_positive


@dataclass(frozen=True)
class ServiceConfig:
    """Every tunable of one :class:`~repro.service.app.CarbonQueryService`.

    Attributes:
        host / port: Bind address.  ``port=0`` asks the OS for a free
            port; the CLI prints the bound port for test harnesses.
        max_batch: Most queries coalesced into one kernel call per tick.
            ``1`` disables cross-request batching (the benchmark's
            baseline configuration).
        max_wait_s: Longest a query waits for co-travelers before the
            tick fires anyway.  A tick waits only while another admitted
            request is in flight, so a lone query pays no batching wait;
            under concurrency the wait is bounded by this number.
        queue_limit: Bound on queries admitted but not yet answered.
            Above it the service sheds load with 429 + ``Retry-After``
            instead of building an unbounded backlog.
        default_deadline_s / max_deadline_s: Per-request deadline when
            the client names none, and the cap on what a client may ask
            for.  Expired requests resolve to 504, cooperatively
            cancelled rather than abandoned.
        rate_limit_per_s / rate_burst: Token-bucket refill rate and
            bucket depth per client id (0 rate disables rate limiting).
        breaker_threshold: Consecutive backend failures that trip the
            circuit breaker into cache-only serving.
        breaker_cooldown_s: Seconds the breaker stays open before one
            probe request may test the backend again.
        cache_capacity: Entries in the shared
            :class:`~repro.engine.cache.EvaluationCache`.
        max_sweep_points / max_draws: Upper bounds on per-request work so
            one query cannot monopolize the engine.
        mc_chunk_rows: Draws per chunk on the Monte Carlo endpoint — the
            deadline-poll granularity of cooperative cancellation and the
            draw stream's block size; the default is ``DEFAULT_SHARD_ROWS``
            so answers equal ``run_monte_carlo``'s for the same seed.
        drain_timeout_s: Longest a SIGTERM drain waits for in-flight
            requests before giving up on stragglers.
        retry_after_s: Hint sent with 429/503 responses.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_batch: int = 256
    max_wait_s: float = 0.002
    queue_limit: int = 1024
    default_deadline_s: float = 2.0
    max_deadline_s: float = 30.0
    rate_limit_per_s: float = 0.0
    rate_burst: float = 50.0
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 1.0
    cache_capacity: int = 4096
    max_sweep_points: int = 100_000
    max_draws: int = 1_000_000
    mc_chunk_rows: int = 65_536
    drain_timeout_s: float = 10.0
    retry_after_s: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ParameterError(f"port must be in [0, 65535], got {self.port}")
        require_positive("max_batch", self.max_batch)
        if self.max_wait_s < 0:
            raise ParameterError(
                f"max_wait_s must be >= 0, got {self.max_wait_s}"
            )
        require_positive("queue_limit", self.queue_limit)
        require_positive("default_deadline_s", self.default_deadline_s)
        require_positive("max_deadline_s", self.max_deadline_s)
        if self.default_deadline_s > self.max_deadline_s:
            raise ParameterError(
                "default_deadline_s must not exceed max_deadline_s "
                f"({self.default_deadline_s} > {self.max_deadline_s})"
            )
        if self.rate_limit_per_s < 0:
            raise ParameterError(
                f"rate_limit_per_s must be >= 0, got {self.rate_limit_per_s}"
            )
        require_positive("rate_burst", self.rate_burst)
        require_positive("breaker_threshold", self.breaker_threshold)
        require_positive("breaker_cooldown_s", self.breaker_cooldown_s)
        require_positive("cache_capacity", self.cache_capacity)
        require_positive("max_sweep_points", self.max_sweep_points)
        require_positive("max_draws", self.max_draws)
        require_positive("mc_chunk_rows", self.mc_chunk_rows)
        require_positive("drain_timeout_s", self.drain_timeout_s)
        require_positive("retry_after_s", self.retry_after_s)

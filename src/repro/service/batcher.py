"""Cross-request micro-batching: many scalar queries, one kernel call.

The engine evaluates ~2.5M points/sec batched but only ~75K/sec as
one-row calls, so a service answering concurrent scalar footprint
queries leaves a ~30x factor on the table unless it coalesces them.
:class:`MicroBatcher` is that coalescing point: request threads
:meth:`~MicroBatcher.submit` one scenario each and block on a per-query
event; a single batcher thread gathers waiting queries into a
:class:`~repro.engine.batch.ScenarioBatch` (up to ``max_batch`` rows or
``max_wait_s``, whichever first), runs **one** Eq. 1-8 pass, and hands
each thread its row.

Per-row results are also written back into the shared
:class:`~repro.engine.cache.EvaluationCache` under their single-row
content key, and every tick peeks that cache first — so hot queries are
answered without touching the kernels at all, and the breaker's
cache-only degraded mode has something to serve.

Failure semantics:

* A query whose deadline expires while queued is dropped before
  evaluation and resolves to
  :class:`~repro.service.admission.DeadlineExceeded` (the waiter may
  also time out on its own; both paths agree).
* A kernel failure fails exactly the queries in that tick — each with
  its own copy of the original exception, chained to it — and is
  reported to the ``on_failure`` hook (the circuit breaker) before any
  waiter wakes.  Queries served from cache in the same tick still
  succeed.
* :meth:`close` drains: queued queries are still evaluated, then the
  thread exits.  Submissions after close are refused.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.scenario import ActScenario
from repro.engine.batch import ScenarioBatch
from repro.engine.cache import EvaluationCache, scenario_key
from repro.engine.kernels import BatchResult, evaluate_batch
from repro.obs.context import current_context
from repro.service.admission import DeadlineExceeded, ServiceUnavailable


def single_row_batch(scenario: ActScenario) -> ScenarioBatch:
    """One scenario as a one-row batch — the per-query cache unit."""
    return ScenarioBatch.from_scenarios((scenario,))


def per_query_error(error: BaseException) -> BaseException:
    """A private copy of a tick's failure for one waiting query.

    Every waiter re-raises its query's error, possibly concurrently, and
    CPython mutates ``__traceback__`` on each raise — so re-raising one
    shared instance from many request threads cross-contaminates the
    tracebacks rendered into error responses and logs.  Each waiter gets
    its own shallow copy, chained (``__cause__``) to the original so the
    kernel-side traceback stays visible.  Exceptions that refuse
    ``copy.copy`` (constructors pickle/copy cannot replay) fall back to
    the shared instance — the status quo, never worse.
    """
    try:
        clone = copy.copy(error)
    except Exception:  # pragma: no cover - exotic __reduce__ failures
        return error
    if type(clone) is not type(error):
        return error
    clone.__cause__ = error
    return clone


#: Column names sliced by :func:`result_row`, resolved once at import.
_RESULT_FIELDS = tuple(BatchResult.__dataclass_fields__)


def result_row(result: BatchResult, index: int) -> BatchResult:
    """Row ``index`` of a batched result as a one-row :class:`BatchResult`.

    ``__post_init__`` is bypassed: a slice of an already-validated column
    keeps its dtype, contiguity, and read-only flag, so revalidating all
    ten columns per row would only re-derive what the parent result
    already guarantees — and at service rates that validation dominates
    the per-row cost.
    """
    row = object.__new__(BatchResult)
    set_field = object.__setattr__
    for name in _RESULT_FIELDS:
        set_field(row, name, getattr(result, name)[index : index + 1])
    return row


class PendingQuery:
    """One submitted query: its scenario, deadline, and completion slot.

    The submitting thread blocks in :meth:`wait`; the batcher thread (or
    a cache hit inside :meth:`MicroBatcher.submit`) calls one of the
    ``_complete*`` methods exactly once.

    The completion latch is a raw pre-acquired :class:`threading.Lock`
    rather than an :class:`threading.Event`: the semantics are the same
    (one releaser, one timed waiter) but a lock costs a fraction of an
    Event to allocate, release, and wait on — and this object is built
    once per service query.  Resolution state lives in ``result`` /
    ``error``, which are always written *before* the latch is released.
    """

    __slots__ = (
        "scenario",
        "key",
        "deadline",
        "enqueued_at",
        "_latch",
        "result",
        "error",
        "served_from",
        "batch_rows",
        "cancelled",
    )

    def __init__(
        self, scenario: ActScenario, key: str, deadline: float
    ) -> None:
        self.scenario = scenario
        self.key = key
        self.deadline = deadline
        self.enqueued_at = time.monotonic()
        self._latch = threading.Lock()
        self._latch.acquire()
        self.result: BatchResult | None = None
        self.error: BaseException | None = None
        self.served_from = ""
        self.batch_rows = 0
        self.cancelled = False

    @property
    def resolved(self) -> bool:
        """Whether a completion (result or error) has landed."""
        return self.result is not None or self.error is not None

    def _complete(self, result: BatchResult, served_from: str, rows: int) -> None:
        self.result = result
        self.served_from = served_from
        self.batch_rows = rows
        self._latch.release()

    def _fail(self, error: BaseException) -> None:
        self.error = error
        self._latch.release()

    def wait(self) -> BatchResult:
        """Block until the query resolves or its deadline expires.

        Raises the query's failure, or :class:`DeadlineExceeded` on
        timeout — in which case the query is also cooperatively
        cancelled, so a still-queued entry is dropped without ever
        being evaluated.
        """
        remaining = self.deadline - time.monotonic()
        if not self._latch.acquire(timeout=max(0.0, remaining)):
            self.cancelled = True
            # A completion racing the timeout may have landed just now;
            # prefer the real answer when it did.
            if not self.resolved:
                raise DeadlineExceeded(
                    "deadline expired while the query was "
                    + ("being evaluated" if self.batch_rows else "queued"),
                    deadline_s=self.deadline - self.enqueued_at,
                    stage="batched" if self.batch_rows else "queued",
                )
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


@dataclass
class BatcherStats:
    """Point-in-time counters of one batcher (all monotone)."""

    ticks: int = 0
    queries: int = 0
    coalesced: int = 0
    cache_served: int = 0
    expired: int = 0
    failed: int = 0
    max_batch_rows: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "ticks": self.ticks,
            "queries": self.queries,
            "coalesced": self.coalesced,
            "cache_served": self.cache_served,
            "expired": self.expired,
            "failed": self.failed,
            "max_batch_rows": self.max_batch_rows,
        }


class MicroBatcher:
    """Coalesces concurrent scalar queries into one kernel call per tick.

    Args:
        cache: The shared evaluation cache (peeked per query, populated
            per row).
        max_batch: Most queries evaluated in one kernel call.
        max_wait_s: Longest the first query of a tick waits for
            co-travelers.
        backend: Kernel backend name for every evaluation (``None`` =
            process-wide selection).
        on_success / on_failure: Hooks reporting each kernel call's
            outcome — the circuit breaker's sensors.
    """

    def __init__(
        self,
        cache: EvaluationCache,
        *,
        max_batch: int = 256,
        max_wait_s: float = 0.002,
        backend: str | None = None,
        on_success: Callable[[], None] | None = None,
        on_failure: Callable[[BaseException], None] | None = None,
    ) -> None:
        self.cache = cache
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.backend = backend
        self.on_success = on_success
        self.on_failure = on_failure
        self.stats = BatcherStats()
        self._queue: deque[PendingQuery] = deque()
        self._cond = threading.Condition()
        self._closing = False
        self._thread = threading.Thread(
            target=self._loop, name="micro-batcher", daemon=True
        )
        self._thread.start()

    @property
    def alive(self) -> bool:
        """Whether the batcher thread is still running (readiness)."""
        return self._thread.is_alive()

    def submit(self, scenario: ActScenario, *, timeout_s: float) -> PendingQuery:
        """Enqueue one query; returns the pending handle to ``wait`` on.

        The single-row cache is consulted *here*, in the submitting
        thread, by hashing the scenario's scalar fields directly
        (:func:`~repro.engine.cache.scenario_key`) — no per-query batch
        is ever built: a hit completes immediately without waking the
        batcher, and a miss carries only the scenario and its key.
        """
        key = scenario_key(scenario)
        deadline = time.monotonic() + timeout_s
        query = PendingQuery(scenario, key, deadline)
        cached = self.cache.peek_by_key(key, 1, self.backend)
        if cached is not None:
            query._complete(cached, "cache", 1)
            with self._cond:
                self.stats.queries += 1
                self.stats.cache_served += 1
            return query
        with self._cond:
            if self._closing:
                raise ServiceUnavailable(
                    "service is draining; not accepting new queries",
                    retry_after_s=5.0,
                )
            self.stats.queries += 1
            self._queue.append(query)
            # Only the empty->non-empty transition needs a wakeup: while
            # the queue is non-empty the batcher is already gathering (it
            # drains via timed waits), and skipping redundant notifies
            # measurably cuts per-query submit cost under load.
            if len(self._queue) == 1:
                self._cond.notify()
        return query

    # --- the batcher thread ---------------------------------------------

    def _take_locked(self, room: int) -> list[PendingQuery]:
        """Pop up to ``room`` live queries (dropping dead ones). Lock held."""
        taken: list[PendingQuery] = []
        now = time.monotonic()
        while self._queue and len(taken) < room:
            query = self._queue.popleft()
            if query.cancelled:
                continue
            if query.deadline <= now:
                self.stats.expired += 1
                query._fail(
                    DeadlineExceeded(
                        "deadline expired while the query was queued",
                        deadline_s=query.deadline - query.enqueued_at,
                        stage="queued",
                    )
                )
                continue
            taken.append(query)
        return taken

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closing:
                    self._cond.wait()
                if not self._queue and self._closing:
                    return
                items = self._take_locked(self.max_batch)
                if not self._closing and self.max_wait_s > 0:
                    # Gather co-travelers for at most max_wait_s, but stop
                    # as soon as arrivals go quiet for one idle gap: the
                    # queries this tick would still be waiting for are
                    # usually blocked on this very tick, so dead waiting
                    # only adds latency without growing the batch.
                    idle_gap = max(self.max_wait_s / 8, 50e-6)
                    gather_until = time.monotonic() + self.max_wait_s
                    while len(items) < self.max_batch:
                        remaining = gather_until - time.monotonic()
                        if remaining <= 0 or self._closing:
                            break
                        notified = self._cond.wait(min(remaining, idle_gap))
                        fresh = self._take_locked(self.max_batch - len(items))
                        if not fresh and not notified:
                            break
                        items.extend(fresh)
            if items:
                self._evaluate(items)

    def _evaluate(self, items: list[PendingQuery]) -> None:
        context = current_context()
        rows = len(items)
        with self._cond:
            self.stats.ticks += 1
            self.stats.coalesced += rows
            self.stats.max_batch_rows = max(self.stats.max_batch_rows, rows)
        started = time.perf_counter()
        try:
            coalesced = ScenarioBatch.from_scenarios(
                tuple(item.scenario for item in items)
            )
            # One overflowing query must not fail its co-batched
            # neighbours: its row comes back non-finite and the service
            # answers it with a 422 (errstate is per thread).
            with np.errstate(over="ignore", invalid="ignore"):
                result = evaluate_batch(coalesced, backend=self.backend)
        except Exception as error:  # noqa: BLE001 - forwarded per query
            with self._cond:
                self.stats.failed += rows
            # Settle the breaker before any waiter wakes: an endpoint
            # releasing its probe lease on the error path must observe
            # the recorded failure, not race ahead of it.
            if self.on_failure is not None:
                self.on_failure(error)
            for item in items:
                item._fail(per_query_error(error))
            if context.enabled:
                context.count("service.batcher.failed_ticks")
            return
        row_of = [
            result_row(result, index) if rows > 1 else result
            for index in range(rows)
        ]
        self.cache.put_many_by_key(
            [(item.key, row) for item, row in zip(items, row_of)],
            self.backend,
        )
        # Success is recorded before waiters wake for the same reason as
        # the failure path: a half-open probe's lease release must find
        # the breaker already closed.
        if self.on_success is not None:
            self.on_success()
        for item, row in zip(items, row_of):
            item._complete(row, "batch", rows)
        if context.enabled:
            context.count("service.batcher.ticks")
            context.count("service.batcher.rows", rows)
            context.record("service.batcher.batch_rows", rows)
            context.observe(
                "service.batcher.tick_seconds", time.perf_counter() - started
            )

    # --- lifecycle ------------------------------------------------------

    def close(self, timeout_s: float = 10.0) -> bool:
        """Drain queued queries, stop the thread; ``True`` on clean join."""
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        self._thread.join(timeout_s)
        return not self._thread.is_alive()

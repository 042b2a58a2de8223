"""Shard supervision: liveness, bounded retry, and graceful degradation.

:class:`ShardSupervisor` is the one loop that dispatches shards to a
:class:`~repro.parallel.pool.WorkerPool` and reads their results — every
parallel wave of the chunked driver
(:func:`~repro.robustness.checkpoint.run_monte_carlo_chunked`,
:func:`~repro.robustness.checkpoint.run_schedule_sweep_chunked`) runs
through it, under every failure policy of
:class:`~repro.parallel.policy.ExecutionPolicy`.  Each shard is a
:class:`ShardTask` — one chunk function and its picklable arguments —
that :func:`run_shard` runs in a worker:

* **Liveness.**  The parent polls results with a timeout, watching worker
  exit codes and heartbeats between polls.  A dead worker (OOM kill,
  SIGKILL) is respawned into the pool and the shard it held is retried; a
  worker whose current shard outlives ``shard_deadline_seconds`` is
  declared hung, killed, respawned, and its shard retried.  A result
  message that vanishes without a corpse (dropped on the queue) is caught
  by a stall backstop: no progress while every live worker sits idle
  means outstanding shards were lost, so they are resubmitted.
* **Bounded retry.**  Each shard gets a retry budget of re-executions
  past its first attempt — ``max_retries`` under ``"retry"`` and
  ``"degrade"``, none under ``"fail_fast"`` — spaced by exponential backoff
  (``backoff_seconds * 2**(attempt-1)``).  Retries are *safe* by the
  determinism contract: a shard's inputs — its row range and SeedSequence
  child stream — are pure functions of its index, and shard outputs write
  by absolute row range, so a retried (or accidentally duplicated) shard
  is bit-identical to a first-try shard.
* **Graceful degradation.**  Under ``failure_policy="fail_fast"`` or
  ``"retry"`` an exhausted shard raises
  :class:`~repro.core.errors.ShardFailedError`, chained to the worker's
  exception (or to a :class:`~repro.core.errors.WorkerError` naming the
  dead worker's exit code).
  Under ``"degrade"`` it is quarantined instead and the run completes;
  the caller receives a :class:`PartialResult` naming exactly the
  quarantined shards and why each one died.

Model errors are exempt from all of this: any
:class:`~repro.core.errors.ReproError` raised by a shard's evaluation
(e.g. a strict-guard ``ValidationError``) is deterministic — retrying it
re-fails identically — so it propagates immediately under every policy.

Everything the supervisor does is reported through the ambient
:class:`~repro.obs.context.RunContext`: counters ``parallel.retries`` /
``parallel.respawns`` / ``parallel.quarantined`` and structured events
``shard_retry`` / ``worker_respawn`` / ``shard_quarantined``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.core.errors import ReproError, ShardFailedError, WorkerError
from repro.obs.context import current_context
from repro.parallel.policy import DEGRADE, FAIL_FAST, ExecutionPolicy
from repro.parallel.pool import WorkerPool

#: Failure causes recorded on :class:`ShardFailure`.
ERROR = "error"
WORKER_DEATH = "worker-death"
DEADLINE = "deadline"
LOST = "lost"

#: Floor for the stall backstop: how long the run may make no progress
#: (with every live worker idle) before outstanding shards are declared
#: lost.  ``shard_deadline_seconds`` raises this when set.
_MIN_STALL_SECONDS = 1.0


@dataclass(frozen=True)
class ShardTask:
    """One shard for a worker: ``fn(*args)``.

    ``fn`` must be module-level (pickled by reference under both ``fork``
    and ``spawn``) and ``args`` picklable.  ``shard`` is the run-wide
    shard number a :class:`~repro.robustness.faultinject.ProcessFaultPlan`
    targets; ``fault`` is that plan's :meth:`spec` when one is armed.
    """

    fn: Callable[..., Any]
    args: tuple
    shard: int
    fault: Mapping[str, Any] | None = None


def run_shard(task: ShardTask) -> tuple[Any, float]:
    """Worker entry point: ``task.fn(*task.args)`` and its wall seconds.

    When the task carries an armed fault plan, faults fire here: at shard
    start (kill / stall) and at shard finish (result-message drop, after
    the work completed).  The import is lazy and only on faulted tasks,
    so the healthy path never touches the robustness package from a
    worker.
    """
    started = time.perf_counter()
    if task.fault is not None:
        from repro.robustness.faultinject import apply_process_faults

        apply_process_faults(task.fault, task.shard, "start")
    out = task.fn(*task.args)
    if task.fault is not None:
        apply_process_faults(task.fault, task.shard, "finish")
    return out, time.perf_counter() - started


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard attempt, as observed by the supervisor.

    Attributes:
        shard: Index of the shard that failed (its run-wide number).
        attempt: Which execution failed (1 = first try).
        cause: ``"error"`` (the shard raised), ``"worker-death"`` (its
            worker's process died), ``"deadline"`` (the shard outlived
            ``shard_deadline_seconds``), or ``"lost"`` (its result never
            arrived and no corpse explains why).
        detail: Human-readable specifics (exception repr, exit code, …).
        worker: The worker involved, ``-1`` when unattributable.
    """

    shard: int
    attempt: int
    cause: str
    detail: str = ""
    worker: int = -1


@dataclass(frozen=True)
class SupervisionReport:
    """What supervision cost one run (healthy runs report all zeros).

    Attributes:
        retries: Shard re-executions performed (all causes).
        respawns: Worker processes replaced during the run.
        quarantined: Shard indices abandoned after exhausting retries
            (``degrade`` only), ascending.
        failures: Every failed attempt observed, in observation order —
            including attempts that later succeeded on retry.
        backoff_seconds: Total wall-clock spent waiting out backoff.
    """

    retries: int = 0
    respawns: int = 0
    quarantined: tuple[int, ...] = ()
    failures: tuple[ShardFailure, ...] = ()
    backoff_seconds: float = 0.0


@dataclass(frozen=True)
class PartialResult:
    """A degraded run's account of what is missing and why.

    Attached to the result of a chunked run
    (:attr:`~repro.analysis.montecarlo.MonteCarloResult.partial`) when a
    ``failure_policy="degrade"`` run completes with quarantined shards.
    The quarantined rows are NaN in every output series, so every
    downstream consumer that already skips NaN rows (samples,
    statistics, ``argmin``) degrades gracefully without new code, and a
    chunked run's checkpoint records :attr:`ranges` for a later resume.

    Attributes:
        quarantined: Quarantined shard indices, ascending.
        ranges: The global ``(start, stop)`` row range of each
            quarantined shard, aligned with :attr:`quarantined`.
        failures: Final failure of each quarantined shard, aligned with
            :attr:`quarantined`.
        retries: Shard re-executions the run performed before giving up.
        respawns: Worker processes replaced during the run.
    """

    quarantined: tuple[int, ...]
    ranges: tuple[tuple[int, int], ...]
    failures: tuple[ShardFailure, ...]
    retries: int = 0
    respawns: int = 0

    @property
    def rows(self) -> int:
        """Total rows lost to quarantine."""
        return sum(stop - start for start, stop in self.ranges)

    def causes(self) -> dict[int, str]:
        """Per-shard final failure cause, keyed by shard index."""
        return {
            failure.shard: failure.cause for failure in self.failures
        }

    def summary(self) -> str:
        """One operator-readable line: what was lost, and why.

        The degraded-run counterpart of
        :meth:`repro.robustness.durability.SalvageReport.summary` —
        warnings and error messages embed it so operators see the blast
        radius (shards, rows, causes) without digging through
        diagnostics.
        """
        shown = ", ".join(str(shard) for shard in self.quarantined[:8])
        if len(self.quarantined) > 8:
            shown += ", …"
        parts = [
            f"quarantined {len(self.quarantined)} shard(s) [{shown}] "
            f"({self.rows} rows NaN-masked)"
        ]
        causes = sorted({failure.cause for failure in self.failures})
        if causes:
            parts.append(f"causes: {', '.join(causes)}")
        if self.retries:
            parts.append(f"{self.retries} retry(ies)")
        if self.respawns:
            parts.append(f"{self.respawns} worker respawn(s)")
        return "; ".join(parts)


class RetryLedger:
    """The one retry decision: back off and retry, then quarantine or raise.

    :class:`ShardSupervisor` routes every failed shard attempt through
    :meth:`fail`.  The budget is ``max_retries`` re-executions per shard,
    or none under ``fail_fast``, whose first failure therefore raises.
    """

    def __init__(self, policy: ExecutionPolicy):
        self.policy = policy
        self.budget = (
            0 if policy.failure_policy == FAIL_FAST else policy.max_retries
        )
        self.context = current_context()
        self.attempts: dict[int, int] = {}  # shard -> executions started
        self.failures: list[ShardFailure] = []
        self.quarantined: list[int] = []
        self.retries = 0
        self.respawns = 0
        self.backoff_seconds = 0.0

    def fail(
        self,
        shard: int,
        cause: str,
        detail: str,
        worker: int,
        error: BaseException | None = None,
    ) -> float | None:
        """Record the failure of ``shard``'s current attempt and decide.

        Returns the backoff (seconds) to wait before the next attempt
        while the budget lasts, or ``None`` once the shard is quarantined
        (``degrade``).  Raises :class:`ShardFailedError` (chained to
        ``error``) when the budget is spent under ``fail_fast`` or
        ``retry``.
        """
        policy, context = self.policy, self.context
        attempt = self.attempts.get(shard, 1)
        self.failures.append(
            ShardFailure(shard, attempt, cause, detail=detail, worker=worker)
        )
        if attempt <= self.budget:
            delay = policy.backoff_seconds * (2 ** (attempt - 1))
            self.attempts[shard] = attempt + 1
            self.retries += 1
            self.backoff_seconds += delay
            context.count("parallel.retries")
            context.event(
                "shard_retry",
                shard=shard,
                attempt=attempt + 1,
                cause=cause,
                backoff_seconds=round(delay, 6),
                detail=detail,
            )
            return delay
        if policy.failure_policy == DEGRADE:
            self.quarantined.append(shard)
            context.count("parallel.quarantined")
            context.event(
                "shard_quarantined",
                shard=shard,
                attempts=attempt,
                cause=cause,
                detail=detail,
            )
            return None
        raise ShardFailedError(
            f"shard {shard} failed {attempt} attempt(s); "
            f"last cause: {cause} ({detail})",
            worker=worker,
            shard=shard,
            original=detail,
            attempts=attempt,
            cause=cause,
        ) from error

    def report(self) -> SupervisionReport:
        """Everything recorded so far, as a :class:`SupervisionReport`."""
        return SupervisionReport(
            retries=self.retries,
            respawns=self.respawns,
            quarantined=tuple(sorted(self.quarantined)),
            failures=tuple(self.failures),
            backoff_seconds=self.backoff_seconds,
        )


class ShardSupervisor:
    """Executes one task batch on a pool under a failure policy.

    Each :meth:`run` is one batch (one wave of a chunked run); the pool
    persists across batches — respawned workers stay in it for the next
    one, and results of a batch abandoned by a raise are discarded by the
    next run epoch.
    """

    def __init__(self, pool: WorkerPool, policy: ExecutionPolicy):
        self.pool = pool
        self.policy = policy

    def run(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        labels: Sequence[int],
    ) -> tuple[list[tuple[int, Any] | None], SupervisionReport]:
        """Map ``fn`` over ``payloads``, surviving infrastructure faults.

        Returns ``(outcomes, report)`` where ``outcomes[i]`` is the
        ``(worker_id, result)`` pair for payload ``i`` — or ``None`` when
        payload ``i`` was quarantined (``degrade`` only).  Failures,
        events and the report name payload ``i`` as shard ``labels[i]``.
        Raises the shard's own :class:`ReproError` immediately on a model
        error, and :class:`ShardFailedError` when a shard exhausts its
        budget under ``fail_fast`` (the first failure) or ``retry``.
        """
        if not payloads:
            return [], SupervisionReport()
        policy = self.policy
        pool = self.pool
        context = current_context()
        run_id = pool.begin_run()

        total = len(payloads)
        outcomes: list[tuple[int, Any] | None] = [None] * total
        done = [False] * total
        lost_resubmits = [0] * total  # stall-backstop resubmissions
        in_flight: set[int] = set(range(total))
        waiting: dict[int, float] = {}  # shard -> monotonic ready-at
        ledger = RetryLedger(policy)
        completed = 0
        last_progress = time.monotonic()

        for index, payload in enumerate(payloads):
            pool.submit(run_id, index, fn, payload)

        def fail(
            index: int,
            cause: str,
            detail: str,
            worker: int,
            error: BaseException | None = None,
        ) -> None:
            """Route one failed attempt: retry, quarantine, or raise."""
            in_flight.discard(index)
            if done[index]:
                return  # stale duplicate of a shard that already finished
            delay = ledger.fail(labels[index], cause, detail, worker, error)
            if delay is None:
                done[index] = True
            else:
                waiting[index] = time.monotonic() + delay

        def revive(worker_id: int, reason: str) -> None:
            pool.respawn(worker_id)
            ledger.respawns += 1
            context.count("parallel.respawns")
            context.event(
                "worker_respawn", worker=worker_id, reason=reason
            )

        while completed + len(ledger.quarantined) < total:
            now = time.monotonic()

            # Launch retries whose backoff has elapsed.
            for index in [s for s, at in waiting.items() if at <= now]:
                del waiting[index]
                in_flight.add(index)
                pool.submit(run_id, index, fn, payloads[index])

            timeout = pool.poll_seconds
            if waiting:
                timeout = min(
                    timeout, max(0.0, min(waiting.values()) - now)
                )
            item = pool.poll(timeout)

            if item is not None:
                index, worker_id, ok, out = item
                if done[index]:
                    continue  # duplicate delivery; shards are idempotent
                if ok:
                    done[index] = True
                    in_flight.discard(index)
                    waiting.pop(index, None)
                    outcomes[index] = (worker_id, out)
                    completed += 1
                    last_progress = time.monotonic()
                    continue
                kind, payload = out
                if kind == "exc":
                    if isinstance(payload, ReproError):
                        # Deterministic model error: retrying cannot
                        # change it.
                        raise payload
                    fail(index, ERROR, repr(payload), worker_id, payload)
                else:
                    original, trace = payload
                    fail(
                        index,
                        ERROR,
                        original,
                        worker_id,
                        WorkerError(
                            f"worker {worker_id} failed on shard "
                            f"{labels[index]}: {original}",
                            worker=worker_id,
                            shard=labels[index],
                            original=trace,
                        ),
                    )
                last_progress = time.monotonic()
                continue

            # --- poll timed out: liveness pass ---------------------------
            progressed = False
            for worker_id, exitcode, claimed in pool.dead_workers():
                revive(worker_id, f"exit code {exitcode}")
                if claimed is not None and claimed in in_flight:
                    detail = f"worker {worker_id} died (exit code {exitcode})"
                    fail(
                        claimed,
                        WORKER_DEATH,
                        detail,
                        worker_id,
                        WorkerError(
                            detail,
                            worker=worker_id,
                            shard=labels[claimed],
                            original=f"exit code {exitcode}",
                        ),
                    )
                progressed = True

            deadline = policy.shard_deadline_seconds
            if deadline is not None:
                for worker_id in range(pool.workers):
                    claimed = pool.claimed_task(worker_id)
                    if claimed is None or claimed not in in_flight:
                        continue
                    age = pool.heartbeat_age(worker_id)
                    if age <= deadline:
                        continue
                    pool.terminate_worker(worker_id)
                    revive(worker_id, f"shard deadline ({age:.2f}s)")
                    fail(
                        claimed,
                        DEADLINE,
                        f"shard ran {age:.2f}s, deadline {deadline}s",
                        worker_id,
                    )
                    progressed = True

            if progressed:
                last_progress = time.monotonic()
                continue

            # --- stall backstop: results lost without a corpse -----------
            stall = max(_MIN_STALL_SECONDS, deadline or 0.0)
            if (
                in_flight
                and not waiting
                and time.monotonic() - last_progress > stall
                and all(
                    pool.claimed_task(worker_id) is None
                    for worker_id in range(pool.workers)
                )
            ):
                # Every live worker is idle yet results never arrived:
                # the messages were lost.  Resubmit — not charged to the
                # retry budget (the shards may never have run), but
                # bounded so a black-hole queue cannot loop forever.
                for index in sorted(in_flight):
                    if lost_resubmits[index] > ledger.budget:
                        fail(index, LOST, "result message lost", -1)
                        continue
                    lost_resubmits[index] += 1
                    pool.submit(run_id, index, fn, payloads[index])
                    context.event(
                        "shard_retry",
                        shard=labels[index],
                        attempt=ledger.attempts.get(labels[index], 1),
                        cause=LOST,
                        backoff_seconds=0.0,
                        detail="result message lost; resubmitted",
                    )
                last_progress = time.monotonic()

        return outcomes, ledger.report()


def final_failures(
    report: SupervisionReport,
) -> tuple[ShardFailure, ...]:
    """The last observed failure of each quarantined shard, in order."""
    last: dict[int, ShardFailure] = {}
    for failure in report.failures:
        if failure.shard in set(report.quarantined):
            last[failure.shard] = failure
    return tuple(last[shard] for shard in report.quarantined)


__all__ = [
    "ShardTask",
    "run_shard",
    "ShardFailure",
    "SupervisionReport",
    "PartialResult",
    "ShardSupervisor",
    "final_failures",
    "ERROR",
    "WORKER_DEATH",
    "DEADLINE",
    "LOST",
]

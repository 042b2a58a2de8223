"""Execution policies: how a scenario workload is split across processes.

An :class:`ExecutionPolicy` is the one knob the analysis, DSE, and
robustness layers expose for parallel execution: how many worker
processes, how many rows per shard, and which transport moves batch
columns between processes (zero-copy ``shared_memory`` views or plain
pickling).  The policy deliberately carries no state — the runner in
:mod:`repro.parallel.runner` owns the pool and the shared segments.

Like the observability :class:`~repro.obs.context.RunContext`, a policy
can be installed process-wide with :func:`use_execution_policy`; entry
points that accept ``policy=None`` then pick it up via
:func:`current_policy`.  That is how ``act-repro experiment --workers 4``
parallelizes every sweep an experiment runs without threading a parameter
through each figure module.

Shard geometry is part of the *result contract*, not just a tuning knob:
Monte Carlo sampling derives one ``np.random.SeedSequence`` child stream
per shard (see :func:`shard_plan`), so the same ``shard_rows`` yields
bit-identical samples at any worker count — ``workers=1`` and
``workers=8`` agree to the last bit.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.core.errors import ParameterError

#: Transport moving shard inputs/outputs between parent and workers.
SHM = "shm"
PICKLE = "pickle"
TRANSPORTS = (SHM, PICKLE)

#: Failure policies: what happens when a shard fails or its worker dies.
FAIL_FAST = "fail_fast"
RETRY = "retry"
DEGRADE = "degrade"
FAILURE_POLICIES = (FAIL_FAST, RETRY, DEGRADE)

#: Default rows per shard.  Large enough that the Eq. 1-8 kernel pass
#: dominates per-shard dispatch overhead, small enough that a handful of
#: shards exist even for modest workloads.
DEFAULT_SHARD_ROWS = 65_536


def default_start_method() -> str:
    """The preferred multiprocessing start method on this platform.

    ``fork`` (cheap, shares the already-imported numpy) when the platform
    offers it, ``spawn`` otherwise.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass(frozen=True)
class ExecutionPolicy:
    """How to shard and execute one scenario workload.

    Attributes:
        workers: Worker processes evaluating shards.  ``1`` runs the
            serial shard-ordered reference path in-process — same shard
            plan, same per-shard seed streams, bit-identical results to
            any higher worker count.
        shard_rows: Rows per shard.  Part of the determinism contract for
            Monte Carlo: changing it changes which SeedSequence child
            samples which rows (changing ``workers`` never does).
        transport: ``"shm"`` (zero-copy ``multiprocessing.shared_memory``
            views of the batch columns) or ``"pickle"`` (column slices
            serialized through the task queue).
        start_method: Explicit multiprocessing start method, or ``None``
            to pick the platform default (``fork`` where available).
        failure_policy: What happens when a shard fails for an
            *infrastructure* reason (worker death, blown deadline, lost
            result, shm attach error).  ``"fail_fast"`` raises on the
            first failure (the historical behavior); ``"retry"``
            re-executes the shard up to ``max_retries`` times under
            exponential backoff, respawning dead workers, and raises
            :class:`~repro.core.errors.ShardFailedError` only when the
            budget is exhausted; ``"degrade"`` retries the same way but
            quarantines exhausted shards and completes the run with a
            structured :class:`~repro.parallel.supervisor.PartialResult`.
            Model errors (any :class:`~repro.core.errors.ReproError`,
            e.g. a strict-guard ``ValidationError``) are deterministic
            and always propagate immediately under every policy.
        max_retries: Re-executions granted per shard beyond its first
            attempt (``retry``/``degrade`` only).
        backoff_seconds: Base of the exponential backoff between retry
            attempts (attempt ``k`` waits ``backoff_seconds * 2**(k-1)``).
        shard_deadline_seconds: Wall-clock budget per shard attempt.
            A worker whose current shard exceeds it (stale heartbeat)
            is declared hung, killed, and respawned; the shard is
            retried.  ``None`` disables the deadline watch.
        join_timeout_seconds: How long :meth:`WorkerPool.close` waits for
            a worker to exit cooperatively before terminating it.
        term_timeout_seconds: How long close waits after ``terminate()``
            before escalating to ``kill()``.
        serial_fallback: Under ``degrade``, re-run quarantined shards
            once in the parent process before declaring them lost —
            heals faults confined to the worker fleet.
    """

    workers: int = 1
    shard_rows: int = DEFAULT_SHARD_ROWS
    transport: str = SHM
    start_method: str | None = None
    failure_policy: str = FAIL_FAST
    max_retries: int = 2
    backoff_seconds: float = 0.05
    shard_deadline_seconds: float | None = None
    join_timeout_seconds: float = 10.0
    term_timeout_seconds: float = 5.0
    serial_fallback: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise ParameterError(
                f"workers must be an integer >= 1, got {self.workers!r}"
            )
        if self.workers < 1:
            raise ParameterError(
                f"workers must be >= 1, got {self.workers}"
            )
        if not isinstance(self.shard_rows, int) or self.shard_rows < 1:
            raise ParameterError(
                f"shard_rows must be an integer >= 1, got {self.shard_rows!r}"
            )
        if self.transport not in TRANSPORTS:
            raise ParameterError(
                f"unknown transport {self.transport!r}; use one of {TRANSPORTS}"
            )
        if self.start_method is not None:
            available = multiprocessing.get_all_start_methods()
            if self.start_method not in available:
                raise ParameterError(
                    f"start method {self.start_method!r} is not available "
                    f"on this platform (have: {', '.join(available)})"
                )
        if self.failure_policy not in FAILURE_POLICIES:
            raise ParameterError(
                f"unknown failure policy {self.failure_policy!r}; use one "
                f"of {FAILURE_POLICIES}"
            )
        if not isinstance(self.max_retries, int) or isinstance(
            self.max_retries, bool
        ) or self.max_retries < 0:
            raise ParameterError(
                f"max_retries must be an integer >= 0, got {self.max_retries!r}"
            )
        if not self.backoff_seconds >= 0.0:
            raise ParameterError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds!r}"
            )
        if self.shard_deadline_seconds is not None and not (
            self.shard_deadline_seconds > 0.0
        ):
            raise ParameterError(
                f"shard_deadline_seconds must be > 0 or None, got "
                f"{self.shard_deadline_seconds!r}"
            )
        for name in ("join_timeout_seconds", "term_timeout_seconds"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ParameterError(f"{name} must be > 0, got {value!r}")

    @property
    def parallel(self) -> bool:
        """Whether this policy actually fans out to worker processes."""
        return self.workers > 1

    def replace(self, **changes: object) -> "ExecutionPolicy":
        """A copy with some fields changed (validation re-runs)."""
        return dataclasses.replace(self, **changes)


def shard_plan(rows: int, shard_rows: int) -> tuple[tuple[int, int], ...]:
    """Contiguous ``(start, stop)`` row ranges covering ``rows``.

    The plan is a pure function of ``(rows, shard_rows)`` — worker count
    never enters — which is what makes shard-seeded Monte Carlo sampling
    reproducible at any parallelism level.
    """
    if rows < 1:
        raise ParameterError(f"cannot shard {rows} rows")
    if shard_rows < 1:
        raise ParameterError(f"shard_rows must be >= 1, got {shard_rows}")
    return tuple(
        (start, min(start + shard_rows, rows))
        for start in range(0, rows, shard_rows)
    )


_ACTIVE: list[ExecutionPolicy | None] = [None]


def current_policy() -> ExecutionPolicy | None:
    """The innermost installed policy, or ``None`` (the serial paths)."""
    return _ACTIVE[-1]


@contextmanager
def use_execution_policy(
    policy: ExecutionPolicy | None,
) -> Iterator[ExecutionPolicy | None]:
    """Install ``policy`` as the process-wide default for the block.

    Entry points called with ``policy=None`` resolve to the installed
    policy; installing ``None`` explicitly shadows an outer policy back to
    the serial paths.  Activations nest like
    :func:`~repro.obs.context.use_context`.
    """
    _ACTIVE.append(policy)
    try:
        yield policy
    finally:
        _ACTIVE.pop()


def resolve_policy(
    policy: "ExecutionPolicy | int | None",
) -> ExecutionPolicy | None:
    """Normalize a ``policy=`` argument to an :class:`ExecutionPolicy`.

    ``None`` falls back to the installed :func:`current_policy`; a bare
    integer is shorthand for ``ExecutionPolicy(workers=n)``.
    """
    if policy is None:
        return current_policy()
    if isinstance(policy, ExecutionPolicy):
        return policy
    if isinstance(policy, int) and not isinstance(policy, bool):
        return ExecutionPolicy(workers=policy)
    raise ParameterError(
        f"policy must be an ExecutionPolicy, an integer worker count, or "
        f"None, got {policy!r}"
    )

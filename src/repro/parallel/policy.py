"""Execution policies: how a scenario workload is split across processes.

An :class:`ExecutionPolicy` is the one knob the Monte Carlo, DSE and
scheduling entry points expose for parallel execution: how many worker
processes, how many rows per shard, and what happens when a shard fails.
The policy deliberately carries no state — the runner in
:mod:`repro.parallel.runner` owns the pool.  Every entry point takes it
explicitly as ``policy=``; ``None`` is the serial path.

Shard geometry is part of the *result contract*, not just a tuning knob:
Monte Carlo sampling derives one ``np.random.SeedSequence`` child stream
per shard (see :func:`shard_plan`), so the same ``shard_rows`` yields
bit-identical samples at any worker count — ``workers=1`` and
``workers=8`` agree to the last bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.errors import ParameterError

#: Failure policies: what happens when a shard fails or its worker dies.
FAIL_FAST = "fail_fast"
RETRY = "retry"
DEGRADE = "degrade"
FAILURE_POLICIES = (FAIL_FAST, RETRY, DEGRADE)

#: Default rows per shard.  Large enough that the Eq. 1-8 kernel pass
#: dominates per-shard dispatch overhead, small enough that a handful of
#: shards exist even for modest workloads.
DEFAULT_SHARD_ROWS = 65_536


@dataclass(frozen=True)
class ExecutionPolicy:
    """How to shard and execute one scenario workload.

    Attributes:
        workers: Worker processes evaluating shards.  ``1`` is a
            one-worker pool — same shard plan, same per-shard seed
            streams, bit-identical results to any higher worker count.
        shard_rows: Rows per shard.  Part of the determinism contract for
            Monte Carlo: changing it changes which SeedSequence child
            samples which rows (changing ``workers`` never does).
        failure_policy: What happens when a shard fails for an
            *infrastructure* reason (worker death, blown deadline, lost
            result).  ``"fail_fast"`` is a zero retry budget: the first
            failure raises
            :class:`~repro.core.errors.ShardFailedError`; ``"retry"``
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
            attempt (``retry``/``degrade`` only; ``fail_fast`` grants
            none).
        backoff_seconds: Base of the exponential backoff between retry
            attempts (attempt ``k`` waits ``backoff_seconds * 2**(k-1)``).
        shard_deadline_seconds: Wall-clock budget per shard attempt.
            A worker whose current shard exceeds it (stale heartbeat)
            is declared hung, killed, and respawned; the shard is
            retried.  ``None`` disables the deadline watch.
    """

    workers: int = 1
    shard_rows: int = DEFAULT_SHARD_ROWS
    failure_policy: str = FAIL_FAST
    max_retries: int = 2
    backoff_seconds: float = 0.05
    shard_deadline_seconds: float | None = None

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


def resolve_policy(
    policy: "ExecutionPolicy | int | None",
) -> ExecutionPolicy | None:
    """Normalize a ``policy=`` argument to an :class:`ExecutionPolicy`.

    ``None`` stays ``None`` (the serial path); a bare integer is shorthand
    for ``ExecutionPolicy(workers=n)``.
    """
    if policy is None:
        return None
    if isinstance(policy, ExecutionPolicy):
        return policy
    if isinstance(policy, int) and not isinstance(policy, bool):
        return ExecutionPolicy(workers=policy)
    raise ParameterError(
        f"policy must be an ExecutionPolicy, an integer worker count, or "
        f"None, got {policy!r}"
    )

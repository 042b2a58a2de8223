"""Parallel execution of the workloads whose workers make their own inputs.

Shards Monte Carlo runs (workers sample from shipped seeds) and
scheduling policy sweeps (workers rebuild rows from the spec) across a
persistent worker-process pool with **bit-identical** results at any
worker count — the shard plan and per-shard SeedSequence child streams
depend only on ``(rows, shard_rows, seed)``, never on ``workers``.  Grid
sweeps stay serial: shipping their columns costs more than the kernel
they spread.

The one knob is :class:`ExecutionPolicy` (worker count, shard size,
failure policy), passed explicitly as ``policy=`` to the
Monte Carlo and scheduling entry points.  Their chunked driver
(:mod:`repro.robustness.checkpoint`) owns the :class:`WorkerPool`: it
pickles each chunk as a small :class:`ShardTask` (seeds and specs, not
columns) and writes every returned chunk into the run's series by its
absolute row range.  Every wave runs through one
:class:`ShardSupervisor` loop, which watches worker liveness and shard
deadlines, respawns dead workers, and spends each shard's retry budget
(none under the default ``failure_policy="fail_fast"``; retries are
bit-identical by the determinism contract) before raising
:class:`~repro.core.errors.ShardFailedError` — or, under ``"degrade"``,
quarantining the shard into a structured :class:`PartialResult` instead
of failing the run.  See ``docs/PARALLEL.md``.
"""

from repro.parallel.policy import (
    DEFAULT_SHARD_ROWS,
    DEGRADE,
    FAIL_FAST,
    FAILURE_POLICIES,
    RETRY,
    ExecutionPolicy,
    resolve_policy,
    shard_plan,
)
from repro.parallel.pool import (
    BLAS_ENV_PINS,
    WorkerPool,
    default_start_method,
    pin_blas_threads,
)
from repro.parallel.supervisor import (
    PartialResult,
    ShardFailure,
    ShardSupervisor,
    ShardTask,
    SupervisionReport,
    run_shard,
)

__all__ = [
    "BLAS_ENV_PINS",
    "DEFAULT_SHARD_ROWS",
    "DEGRADE",
    "ExecutionPolicy",
    "FAIL_FAST",
    "FAILURE_POLICIES",
    "PartialResult",
    "RETRY",
    "ShardFailure",
    "ShardSupervisor",
    "ShardTask",
    "SupervisionReport",
    "WorkerPool",
    "default_start_method",
    "pin_blas_threads",
    "resolve_policy",
    "run_shard",
    "shard_plan",
]

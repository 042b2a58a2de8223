"""Chunked, checkpointed, cancellable execution of long batched runs.

A 100k-draw Monte Carlo or a million-point sweep should survive being
killed: these runners split the work into chunks, persist every completed
wave through the crash-consistent chunk store
(:class:`~repro.robustness.durability.DurableChunkStore` — write-ahead
CRC-framed records plus an atomically-replaced manifest), and resume from
the last committed generation.  A kill, torn write, or full disk mid-
checkpoint can cost at most the uncommitted tail; on resume the salvage
path recovers the longest valid committed prefix and recomputes only what
was actually lost.

Resumption is **bit-for-bit**: every row's inputs are a pure function of
the run configuration — grid columns by construction, Monte Carlo draws
through their seed (the sharded stream samples each chunk from its own
``SeedSequence`` child when that chunk is evaluated) — so the values a
resumed run evaluates are exactly the values the uninterrupted run would
have; the chunk boundaries only decide *when* a row is evaluated, never
*what* it is.  A content fingerprint (the SHA-256 of the run
configuration, including — for sweeps — the grid columns) is stored in
the checkpoint and verified on resume, so a checkpoint can never
silently continue a *different* run
(:class:`~repro.core.errors.CheckpointError` otherwise).

Cooperative cancellation goes through :class:`CancelToken` — a deadline
or an explicit ``cancel()`` makes the runner stop at the next chunk
boundary, checkpoint what it has, and raise
:class:`~repro.core.errors.RunInterrupted` carrying the partial results.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.analysis.montecarlo import (
    TRIANGULAR,
    MonteCarloResult,
    ShardColumnSource,
    monte_carlo_chunk,
)

# perfbench's ``montecarlo_durable`` workload times this module attribute
# as its ``analysis.sample`` stage; the driver samples through
# ``ShardColumnSource`` directly, so the stage reads about zero.
from repro.analysis.montecarlo import (  # noqa: F401
    sample_parameter_columns as sample_parameter_columns_sharded,
)
from repro.analysis.scenario import PARAMETER_RANGES, ActScenario
from repro.core.errors import CheckpointError, RunInterrupted
from repro.core.parameters import require_positive
from repro.dse.sweep import BatchSweepResult
from repro.engine.batch import ScenarioBatch, product_columns
from repro.engine.cache import EvaluationCache, evaluate_cached
from repro.engine.kernels import BatchResult
from repro.obs.context import current_context
from repro.robustness.durability import DurableChunkStore
from repro.robustness.guard import RobustnessWarning

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.policy import ExecutionPolicy
    from repro.parallel.supervisor import PartialResult, SupervisionReport
    from repro.robustness.guard import GuardedEngine
    from repro.scheduling.sweep import ScheduleSweepSpec

#: Default rows evaluated between two checkpoint writes.
DEFAULT_CHUNK_ROWS = 4096


@dataclass
class CancelToken:
    """Cooperative cancellation: a deadline, an explicit cancel, or both.

    Runners poll :meth:`should_stop` at chunk boundaries — nothing is
    interrupted mid-kernel, so checkpoints are always consistent.

    Attributes:
        deadline_seconds: Wall-clock budget measured from construction
            (``None`` = no deadline).
    """

    deadline_seconds: float | None = None
    _started: float = field(default_factory=time.monotonic, repr=False)
    _cancelled: bool = field(default=False, repr=False)

    def cancel(self) -> None:
        """Request a stop at the next chunk boundary."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def elapsed(self) -> float:
        """Seconds since the token was created."""
        return time.monotonic() - self._started

    def should_stop(self) -> bool:
        """Whether a runner polling this token must stop now."""
        if self._cancelled:
            return True
        return (
            self.deadline_seconds is not None
            and self.elapsed() >= self.deadline_seconds
        )


class CountingCancelToken(CancelToken):
    """A token that cancels itself after N polls — the test-suite's way of
    interrupting a run at a deterministic chunk boundary."""

    def __init__(self, stop_after_checks: int):
        super().__init__()
        self.stop_after_checks = stop_after_checks
        self.checks = 0

    def should_stop(self) -> bool:
        self.checks += 1
        return self.checks > self.stop_after_checks or super().should_stop()


# --- checkpoint file format ---------------------------------------------


def _fingerprint(
    kind: str, columns: Mapping[str, np.ndarray], metadata: Iterable[str]
) -> str:
    """Content hash binding a checkpoint to one exact run."""
    digest = hashlib.sha256()
    digest.update(kind.encode("ascii"))
    for item in metadata:
        digest.update(b"\x00")
        digest.update(str(item).encode("utf-8"))
    for name in sorted(columns):
        digest.update(name.encode("ascii"))
        digest.update(np.ascontiguousarray(columns[name]).tobytes())
    return digest.hexdigest()


#: The kernel entry every fingerprint carries.  There is one float64
#: kernel; the entry keeps the value earlier versions wrote by default,
#: so their checkpoints still resume.
_BACKEND_TOKEN = "backend=reference"

#: The planner entry every sweep fingerprint carries.  Grid size alone
#: picks the sweep path; the entry keeps the value earlier versions wrote
#: by default, so their sweep checkpoints still resume.
_PLANNER_TOKEN = "planner=auto"


# --- the chunked driver --------------------------------------------------


def _run_chunked(
    *,
    kind: str,
    span: str,
    size_field: str,
    counter: str,
    label: str,
    unit: str,
    total: int,
    chunk_rows: int,
    fingerprint: str,
    series: Mapping[str, np.ndarray],
    chunk: Callable[..., Mapping[str, np.ndarray]],
    chunk_args: Callable[[int, int], tuple],
    cache: object,
    policy: "ExecutionPolicy | None",
    checkpoint: str | os.PathLike | None,
    resume: bool,
    cancel: CancelToken | None,
    partial: "Callable[[int], object] | None" = None,
    fault_plan: object = None,
    single_wave: bool = False,
) -> "PartialResult | None":
    """The one wave / cancel / checkpoint / quarantine loop of every
    chunked runner; returns the run's :class:`PartialResult` when rows
    stay quarantined at the end (``None`` otherwise).

    Rows ``[lo, hi)`` of one chunk are ``chunk(*chunk_args(lo, hi))``, a
    mapping of ``series`` name to values.  At one worker the driver calls
    ``chunk`` in-process with ``cache=cache``.  At more, it owns a
    :class:`~repro.parallel.pool.WorkerPool`, hands each wave's chunks to
    :meth:`~repro.parallel.supervisor.ShardSupervisor.run` as
    :class:`~repro.parallel.supervisor.ShardTask` payloads (so ``chunk``
    must be module-level and its arguments picklable), and writes each
    returned chunk into ``series`` by its absolute row range.  Chunks a
    ``"degrade"`` policy quarantines stay ``NaN``; their row ranges are
    committed with every wave, a ``resume=True`` run re-attempts only
    them, and those still lost at the end make the one
    :class:`PartialResult` and its ``RobustnessWarning``.  A cancelled
    run commits what it has and raises ``RunInterrupted`` carrying
    ``partial(completed)``.  ``single_wave`` dispatches every chunk of a
    parallel run in one wave, for runs that commit and poll nothing
    between waves.  The remaining names label the checkpoint, span,
    chunk counter and interrupt message of the workload.  A run with a
    ``checkpoint`` path calls one
    :class:`~repro.robustness.durability.DurableChunkStore` directly.
    """
    context = current_context()
    store = None
    if checkpoint is not None:
        store = DurableChunkStore(
            checkpoint, kind=kind, fingerprint=fingerprint, total=total
        )

    def persist(operation: str, *args: object) -> object:
        """``store.<operation>(*args)`` when the run has a store; the one
        place an ``OSError`` becomes ``CheckpointError(reason="io")``."""
        if store is None:
            return None
        try:
            return getattr(store, operation)(*args)
        except OSError as error:
            raise CheckpointError(
                f"checkpoint {operation} failed for {store.path!r}: {error}",
                path=store.path,
                reason="io",
            ) from error

    def write(start: int, stop: int) -> None:
        """Write-ahead ``series`` rows [start, stop) (visible once saved)."""
        rows = {name: values[start:stop] for name, values in series.items()}
        persist("append", start, stop, rows)

    def place(start: int, stop: int, values: Mapping[str, np.ndarray]) -> None:
        for name, column in series.items():
            column[start:stop] = values[name]

    # Global (start, stop) row ranges lost to quarantined chunks; persisted
    # with the checkpoint so a resume knows exactly which completed rows
    # are holes to re-attempt (older checkpoints simply lack the key).
    completed, quarantined = 0, []
    if not resume:
        persist("start")
    elif store is None:
        raise CheckpointError(
            "resume requested without a checkpoint path", reason="missing"
        )
    else:
        completed, quarantined = persist("resume", series)

    wave_rows = chunk_rows
    chunks = -(-total // chunk_rows)
    # A pool never holds more workers than the run has chunks, and a
    # one-chunk run evaluates in-process, whatever worker count was asked.
    workers = min(policy.workers, chunks) if policy else 1
    pool = None
    pool_scope = contextlib.nullcontext()
    reports: "list[SupervisionReport]" = []
    if workers > 1:
        from repro.parallel.pool import WorkerPool
        from repro.parallel.supervisor import (
            ShardSupervisor,
            ShardTask,
            run_shard,
        )

        # One wave dispatches `workers` chunks at once; `completed` always
        # stays a whole-chunk prefix, so a checkpoint written mid-run at
        # one worker count resumes cleanly at any other.
        wave_rows = total if single_wave else chunk_rows * workers
        pool_scope = pool = WorkerPool(workers)
        supervisor = ShardSupervisor(pool, policy)
        fault = fault_plan.spec() if fault_plan is not None else None

    def evaluate(start: int, stop: int) -> list[tuple[int, int]]:
        """Fill ``series`` rows [start, stop) chunk by chunk; return the
        chunk ranges lost to quarantine."""
        plan = [
            (lo, min(lo + chunk_rows, stop))
            for lo in range(start, stop, chunk_rows)
        ]
        if pool is None:
            for lo, hi in plan:
                place(lo, hi, chunk(*chunk_args(lo, hi), cache=cache))
            return []
        # Chunks keep their run-wide numbers in every wave, for fault
        # plans, supervision and spans.
        shards = [lo // chunk_rows for lo, _ in plan]
        tasks = [
            ShardTask(chunk, chunk_args(lo, hi), shard, fault)
            for (lo, hi), shard in zip(plan, shards)
        ]
        lost = []
        with context.span(
            "parallel.evaluate",
            kind=kind,
            rows=stop - start,
            shards=len(tasks),
            workers=workers,
        ):
            outcomes, report = supervisor.run(run_shard, tasks, shards)
            reports.append(report)
            for (lo, hi), shard, outcome in zip(plan, shards, outcomes):
                if outcome is None:
                    # A quarantined row stays NaN — a flagged missing
                    # answer, never a silent zero.
                    lost.append((lo, hi))
                    continue
                worker, (values, seconds) = outcome
                place(lo, hi, values)
                if context.enabled:
                    with context.span(
                        "parallel.shard",
                        shard=shard,
                        worker=worker,
                        rows=hi - lo,
                        worker_seconds=round(seconds, 6),
                    ):
                        pass
                    context.count("parallel.shards")
                    context.count(f"parallel.worker{worker}.rows", hi - lo)
                    context.observe("parallel.shard_seconds", seconds)
        return lost

    try:
        with pool_scope, context.span(
            span,
            **{size_field: total},
            chunk_rows=chunk_rows,
            workers=policy.workers if policy else 0,
        ):
            while completed < total:
                if cancel is not None and cancel.should_stop():
                    persist("save", completed, quarantined)
                    error = RunInterrupted(
                        f"{label} interrupted at {completed}/{total} {unit}"
                        + (
                            f"; resume from {os.fspath(checkpoint)!r}"
                            if checkpoint is not None
                            else " (no checkpoint path — partial results not "
                            "persisted)"
                        ),
                        completed=completed,
                        total=total,
                        checkpoint=checkpoint,
                    )
                    if partial is not None:
                        error.partial = partial(completed)
                    raise error
                start, completed = completed, min(completed + wave_rows, total)
                quarantined.extend(evaluate(start, completed))
                context.count(counter)
                context.event(
                    "chunk", kind=kind, completed=completed, total=total
                )
                write(start, completed)
                persist("save", completed, quarantined)
            if resume and quarantined:
                # A resumed partial run re-attempts ONLY the quarantined
                # holes — every healthy row rides along from the
                # checkpoint — and converges bit-identically once the
                # fault is cleared (every row's inputs are a pure function
                # of the run configuration, so re-evaluation timing cannot
                # change values).
                still: list[tuple[int, int]] = []
                for start, stop in quarantined:
                    lost = evaluate(start, stop)
                    still.extend(lost)
                    context.count("checkpoint.quarantine_retries")
                    context.event(
                        "quarantine_retry",
                        kind=kind,
                        start=int(start),
                        stop=int(stop),
                        healed=not lost,
                    )
                    # Write-ahead the re-attempted rows: the record
                    # overlays the already-committed chunk on replay.
                    write(start, stop)
                quarantined = still
                persist("save", completed, quarantined)
    finally:
        if store is not None:
            store.close()
    if not quarantined:
        return None
    from repro.parallel.supervisor import PartialResult, final_failures

    failures = {
        failure.shard: failure
        for report in reports
        for failure in final_failures(report)
    }
    shards = tuple(int(start) // chunk_rows for start, _ in quarantined)
    degraded = PartialResult(
        quarantined=shards,
        ranges=tuple((int(start), int(stop)) for start, stop in quarantined),
        failures=tuple(failures[s] for s in shards if s in failures),
        retries=sum(report.retries for report in reports),
        respawns=sum(report.respawns for report in reports),
    )
    warnings.warn(
        f"degraded run ({chunks} shard(s) planned): {degraded.summary()}",
        RobustnessWarning,
        stacklevel=3,
    )
    return degraded


# --- Monte Carlo ---------------------------------------------------------


def run_monte_carlo_chunked(
    base: ActScenario,
    parameters: Iterable[str] | None = None,
    *,
    draws: int = 2000,
    seed: int = 2022,
    distribution: str = TRIANGULAR,
    ranges: Mapping[str, tuple[float, float]] | None = None,
    chunk_rows: int | None = None,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    cancel: CancelToken | None = None,
    cache: EvaluationCache | None = None,
    guard: "GuardedEngine | None" = None,
    policy: "object | int | None" = None,
    fault_plan: object = None,
) -> MonteCarloResult:
    """The one Monte Carlo driver: chunked, checkpointed, cancellable.

    :func:`~repro.analysis.montecarlo.run_monte_carlo` is this driver
    without a checkpoint.
    The draws are *streamed* from the one draw stream
    (:class:`~repro.analysis.montecarlo.ShardColumnSource` with
    ``shard_rows=chunk_rows``): each wave samples only its own chunks,
    each from its ``SeedSequence(seed).spawn(n)[i]`` child, just before
    evaluating them (in the workers, for a parallel policy).  Sampling
    memory is ``O(chunk_rows × parameters × workers)``, a resumed run
    never samples the chunks it already committed, and the samples are
    a pure function of (base, ranges, distribution, seed, draws,
    chunk_rows): the worker count, failure policy, guard and checkpoint
    never change them.

    Chunked runs compose with graceful degradation: under a
    ``failure_policy="degrade"`` policy, shards quarantined in a wave are
    recorded (as global row ranges) in the checkpoint, and a later
    ``resume=True`` re-attempts **only** those quarantined ranges — every
    healthy row is taken from the checkpoint untouched — converging to
    the bit-identical full result once the fault is gone (each chunk's
    draws are a pure function of its child seed, so when a row is
    evaluated never changes what it evaluates to).

    Args:
        chunk_rows: Rows per chunk: the stream's block size, the unit of
            parallel dispatch, and the checkpoint cadence.  Defaults to
            the policy's ``shard_rows`` (65,536 without a policy).
        checkpoint: Checkpoint file path (``None`` disables persistence).
        resume: Load ``checkpoint`` and continue from its last chunk.
        cancel: Cooperative cancellation token polled at chunk boundaries.
        cache: Evaluation cache for in-process chunks (and for a
            ``guard`` without a cache of its own).  Chunks are keyed by
            the draw stream's identity, not by hashing their columns, so
            a repeated run on the same cache hits every chunk.  Without
            one, a private one-entry cache keeps fresh draws out of the
            process-wide default.
        guard: Optional :class:`~repro.robustness.guard.GuardedEngine`;
            a bad draw or an overflow raises its
            :class:`~repro.core.errors.ValidationError`, whose
            diagnostics name rows of the run, serially or in a worker.
        policy: An :class:`~repro.parallel.ExecutionPolicy`, a bare worker
            count, or ``None`` for the serial path.  A parallel policy
            dispatches ``workers`` chunks per wave (every chunk at once
            when there is neither a checkpoint nor a cancel token) on a
            pool of at most one worker per chunk; a checkpoint written
            at one worker count resumes at any other.
        fault_plan: An armed
            :class:`~repro.robustness.faultinject.ProcessFaultPlan`
            carried by every chunk sent to a worker (chaos testing only).

    Raises:
        CheckpointError: ``resume`` without a usable, matching checkpoint.
        RunInterrupted: ``cancel`` fired; partial results are checkpointed
            (and carried on the exception's ``partial`` attribute).
    """
    from repro.parallel.policy import DEFAULT_SHARD_ROWS, resolve_policy

    resolved_policy = resolve_policy(policy)
    if chunk_rows is None:
        chunk_rows = (
            resolved_policy.shard_rows if resolved_policy else DEFAULT_SHARD_ROWS
        )
    require_positive("chunk_rows", chunk_rows)
    source = ShardColumnSource.create(
        base,
        parameters,
        draws=draws,
        seed=seed,
        shard_rows=chunk_rows,
        distribution=distribution,
        ranges=ranges,
    )
    guard_tag = guard.policy if guard is not None else "off"
    # The sampled columns are a pure function of the entries below, so
    # the fingerprint hashes the configuration, not the (potentially
    # hundreds of MB of) column data itself: same identity guarantee,
    # none of the hashing cost on the hot path.
    metadata: list[object] = [
        draws,
        seed,
        distribution,
        guard_tag,
        _BACKEND_TOKEN,
        f"columns={','.join(sorted(source.names))}",
        f"ranges={sorted(ranges.items()) if ranges else None}",
        f"sharded={chunk_rows}",
        sorted(base.as_dict().items()),
    ]
    table_order = tuple(name for name in PARAMETER_RANGES if name in source.ranges)
    if source.names != table_order:
        # The sampling order decides which draws each column gets; Table 1
        # order adds no entry, so those fingerprints stay as they were.
        metadata.append(f"order={','.join(source.names)}")
    fingerprint = _fingerprint("montecarlo", {}, metadata)
    # Without a cache the chunks go to a private one-entry cache: fresh
    # draws would only fill the process-wide default.
    if cache is None:
        cache = EvaluationCache(capacity=1)
    if guard is not None and guard.cache is None:
        guard = dataclasses.replace(guard, cache=cache)
    samples = np.full(draws, np.nan)

    def chunk_args(start: int, stop: int) -> tuple:
        return (
            base,
            source.ranges,
            distribution,
            source.seeds[start // chunk_rows],
            start,
            stop,
            source.identity_key(start, stop),
            guard,
        )

    context = current_context()
    with context.span(
        "analysis.montecarlo",
        draws=draws,
        seed=seed,
        distribution=distribution,
        guarded=guard is not None,
        workers=resolved_policy.workers if resolved_policy else 0,
    ):
        if context.enabled:
            context.count("analysis.montecarlo.draws", draws)
        degraded = _run_chunked(
            kind="montecarlo",
            span="analysis.montecarlo_chunked",
            size_field="draws",
            counter="analysis.montecarlo.chunks",
            label="Monte Carlo",
            unit="draws",
            total=draws,
            chunk_rows=chunk_rows,
            fingerprint=fingerprint,
            series={"samples": samples},
            chunk=monte_carlo_chunk,
            chunk_args=chunk_args,
            cache=cache,
            partial=lambda completed: samples[:completed][
                np.isfinite(samples[:completed])
            ],
            policy=resolved_policy,
            checkpoint=checkpoint,
            resume=resume,
            cancel=cancel,
            fault_plan=fault_plan,
            single_wave=checkpoint is None and cancel is None,
        )

    # Quarantined shards leave NaN rows; drop them.  ``samples`` is this
    # call's own array, so it is returned as is when nothing was dropped:
    # copying it would hold a second draws-long array at the run's memory
    # peak.
    finished = samples if degraded is None else samples[np.isfinite(samples)]
    return MonteCarloResult(
        samples=finished,
        base_response=base.total_g(),
        partial=degraded,
    )


# --- grid sweeps ---------------------------------------------------------


def sweep_grid_batched_chunked(
    base: ActScenario,
    grids: Mapping[str, Sequence[float]],
    *,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    cancel: CancelToken | None = None,
    cache: EvaluationCache | None = None,
) -> BatchSweepResult:
    """:func:`~repro.dse.sweep.sweep_grid_batched`, chunked and resumable.

    Evaluates the Cartesian grid ``chunk_rows`` rows at a time, in
    process like the one-shot sweep, and reassembles a
    :class:`~repro.dse.sweep.BatchSweepResult` bit-identical to it (the
    kernels are elementwise, so chunk boundaries cannot change any
    value).  A sweep of at least :data:`~repro.engine.plan.AUTO_MIN_ROWS`
    points factors Eq. 1-8 once into per-axis partial tables
    (:mod:`repro.engine.plan`) and each chunk only gathers its row range
    — bit-identical values, spot-checked against the dense kernel by
    :func:`~repro.engine.plan.verify_plan` as in the one-shot sweep.

    Raises:
        CheckpointError: ``resume`` without a usable, matching checkpoint.
        DivergenceError: A planned row disagrees with the dense kernel.
        RunInterrupted: ``cancel`` fired; completed rows are checkpointed
            and carried on the exception's ``partial`` attribute as a
            :class:`~repro.engine.kernels.BatchResult` of the first
            ``completed`` rows.
    """
    require_positive("chunk_rows", chunk_rows)
    from repro.engine.plan import plan_product, planner_engaged, verify_plan

    size, columns = product_columns(base, grids)
    names = tuple(grids)
    fingerprint = _fingerprint(
        "sweep",
        columns,
        (
            size,
            names,
            _BACKEND_TOKEN,
            _PLANNER_TOKEN,
            sorted(base.as_dict().items()),
        ),
    )
    series_names = tuple(BatchResult.__dataclass_fields__)
    series = {name: np.full(size, np.nan) for name in series_names}
    plan = factor_tables = None
    if planner_engaged(size):
        # Factor Eq. 1-8 once up front; each chunk below then only
        # gathers its row range out of the broadcasted outer product.
        # Values are bit-identical to the dense chunk evaluation.
        plan = plan_product(base, grids)
        factor_tables = plan.partial_series()

    def sweep_chunk(
        start: int, stop: int, cache: EvaluationCache | None
    ) -> Mapping[str, np.ndarray]:
        """Rows [start, stop) of the sweep (always in-process)."""
        if factor_tables is not None:
            return plan.gather_rows(factor_tables, start, stop)
        chunk_batch = ScenarioBatch(
            **{
                name: np.ascontiguousarray(column[start:stop])
                for name, column in columns.items()
            }
        )
        chunk_result = evaluate_cached(chunk_batch, cache)
        return {name: getattr(chunk_result, name) for name in series_names}

    _run_chunked(
        kind="sweep",
        span="dse.sweep_grid_chunked",
        size_field="points",
        counter="dse.sweep.chunks",
        label="grid sweep",
        unit="rows",
        total=size,
        chunk_rows=chunk_rows,
        fingerprint=fingerprint,
        series=series,
        chunk=sweep_chunk,
        chunk_args=lambda start, stop: (start, stop),
        cache=cache,
        partial=lambda completed: BatchResult(
            **{name: series[name][:completed].copy() for name in series_names}
        ),
        policy=None,
        checkpoint=checkpoint,
        resume=resume,
        cancel=cancel,
    )
    result = BatchResult(**series)
    if plan is not None:
        verify_plan(plan, result)
    return BatchSweepResult(
        names=names, batch=ScenarioBatch(**columns), result=result
    )


# --- scheduling policy sweeps --------------------------------------------


def schedule_chunk(
    spec: "ScheduleSweepSpec",
    start: int,
    stop: int,
    cache: EvaluationCache | None = None,
) -> dict[str, np.ndarray]:
    """Rebuild and evaluate rows ``[start, stop)`` of a scheduling sweep.

    :func:`~repro.scheduling.sweep.build_schedule_batch` is a pure
    function of ``(spec, row)``, so a chunk is the same in any process.
    The chunked driver calls this in-process with the run's ``cache``; a
    worker calls it without one and evaluates uncached.  Returns the
    chunk's :data:`~repro.scheduling.batch.SCHEDULE_SERIES`.
    """
    # Lazy imports: repro.scheduling.sweep reaches back into this module
    # for its chunked path.
    from repro.scheduling.batch import (
        SCHEDULE_SERIES,
        evaluate_schedule_batch,
        evaluate_schedule_cached,
    )
    from repro.scheduling.sweep import build_schedule_batch

    batch = build_schedule_batch(spec, start, stop)
    if cache is None:
        result = evaluate_schedule_batch(batch)
    else:
        result = evaluate_schedule_cached(batch, cache)
    return {name: getattr(result, name) for name in SCHEDULE_SERIES}


def run_schedule_sweep_chunked(
    spec: "object",
    *,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    checkpoint_path: str | os.PathLike | None = None,
    resume: bool = False,
    cancel: CancelToken | None = None,
    policy: "object | int | None" = None,
    cache: EvaluationCache | None = None,
) -> dict[str, np.ndarray]:
    """A scheduling policy sweep, chunked, checkpointed, and cancellable.

    Evaluates a :class:`~repro.scheduling.sweep.ScheduleSweepSpec`
    ``chunk_rows`` rows at a time through the vectorized
    :func:`~repro.scheduling.batch.evaluate_schedule_batch` path and
    returns the raw per-row series
    (:data:`~repro.scheduling.batch.SCHEDULE_SERIES`, each ``spec.rows``
    long, float64) for :func:`~repro.scheduling.sweep.summarize_sweep`.

    Scenario rows are *regenerated* per chunk from the spec's seed
    (:func:`~repro.scheduling.sweep.build_schedule_batch` is pure in
    ``(spec, row)``), so the checkpoint fingerprint is the spec's own
    identity — no materialized columns to hash — and a checkpoint
    written at one worker count or chunk size resumes bit-identically at
    any other.
    Rows a ``"degrade"`` policy loses to quarantined shards are ``NaN``,
    recorded in the checkpoint, and re-attempted on ``resume=True``.

    Args:
        chunk_rows: Rows per evaluation chunk (and checkpoint cadence).
        checkpoint_path: Checkpoint file (``None`` disables persistence).
        resume: Load ``checkpoint_path`` and continue where it stopped.
        cancel: Cooperative cancellation token polled at chunk boundaries.
        policy: An :class:`~repro.parallel.ExecutionPolicy`, a bare worker
            count, or ``None`` for the serial path; a parallel policy
            dispatches ``workers`` chunks per wave to a worker pool.
        cache: Schedule-batch evaluation cache for in-process chunks
            (default: the process-wide one); workers evaluate uncached.

    Raises:
        CheckpointError: ``resume`` without a usable, matching checkpoint.
        RunInterrupted: ``cancel`` fired; completed rows are checkpointed
            and carried on the exception's ``partial`` attribute as a
            name → array mapping.
    """
    require_positive("chunk_rows", chunk_rows)
    from repro.engine.cache import DEFAULT_CACHE
    from repro.parallel.policy import resolve_policy
    from repro.scheduling.batch import SCHEDULE_SERIES
    from repro.scheduling.sweep import ScheduleSweepSpec

    if not isinstance(spec, ScheduleSweepSpec):
        raise CheckpointError(
            "run_schedule_sweep_chunked needs a ScheduleSweepSpec, got "
            f"{type(spec).__name__}",
            reason="mismatch",
        )
    resolved_policy = resolve_policy(policy)
    rows = spec.rows
    fingerprint = _fingerprint(
        "schedule",
        {},
        tuple(
            f"{key}={value}"
            for key, value in sorted(spec.fingerprint_metadata().items())
        )
        + (_BACKEND_TOKEN,),
    )
    series = {name: np.full(rows, np.nan) for name in SCHEDULE_SERIES}
    _run_chunked(
        kind="schedule",
        span="scheduling.sweep_chunked",
        size_field="rows",
        counter="scheduling.sweep.chunks",
        label="schedule sweep",
        unit="rows",
        total=rows,
        chunk_rows=chunk_rows,
        fingerprint=fingerprint,
        series=series,
        chunk=schedule_chunk,
        chunk_args=lambda start, stop: (spec, start, stop),
        cache=DEFAULT_CACHE if cache is None else cache,
        partial=lambda completed: {
            name: np.array(series[name][:completed], copy=True)
            for name in SCHEDULE_SERIES
        },
        policy=resolved_policy,
        checkpoint=checkpoint_path,
        resume=resume,
        cancel=cancel,
    )
    return series

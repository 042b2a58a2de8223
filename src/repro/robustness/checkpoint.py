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
)

# perfbench's ``montecarlo_durable`` workload times this module attribute
# as its ``analysis.sample`` stage; the driver samples through
# ``ShardColumnSource`` directly, so the stage reads about zero.
from repro.analysis.montecarlo import (  # noqa: F401
    sample_parameter_columns as sample_parameter_columns_sharded,
)
from repro.analysis.scenario import PARAMETER_RANGES, ActScenario
from repro.core.errors import (
    CheckpointError,
    DivergenceError,
    RunInterrupted,
    ValidationError,
)
from repro.core.parameters import require_positive
from repro.dse.sweep import BatchSweepResult
from repro.engine.batch import ScenarioBatch, product_columns
from repro.engine.cache import EvaluationCache, evaluate_cached
from repro.engine.kernels import BatchResult
from repro.obs.context import current_context
from repro.robustness.durability import DurableChunkStore, load_store_state
from repro.robustness.guard import RobustnessWarning, at_run_rows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.policy import ExecutionPolicy
    from repro.parallel.runner import ParallelEvaluation, ParallelRunner
    from repro.parallel.supervisor import ShardFailure
    from repro.robustness.guard import GuardedEngine

#: Checkpoint schema version; bumped on incompatible layout changes.
#: Version 2: the durable chunk-store format (write-ahead CRC-framed
#: records + manifest) with the kernel entry (:data:`_BACKEND_TOKEN`) and
#: the planner entry (:data:`_PLANNER_TOKEN`) folded into fingerprints.
CHECKPOINT_VERSION = 2

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


def _coverage(spans: Iterable[tuple[int, int]]) -> int:
    """Rows covered contiguously from row 0 by ``spans``."""
    covered = 0
    for start, stop in sorted(spans):
        if start > covered:
            break
        covered = max(covered, stop)
    return covered


class _Checkpointer:
    """Adapter between the chunked runners and the durable chunk store.

    A no-op when ``path`` is ``None`` (persistence disabled).  Otherwise
    every completed wave is appended to the write-ahead log and committed
    (:class:`~repro.robustness.durability.DurableChunkStore`), and resume
    goes through the salvage-aware loader: a torn or partially-corrupt
    store yields the longest valid committed prefix, quarantines the rest
    for recompute, and surfaces what happened as a
    :class:`~repro.robustness.guard.RobustnessWarning` plus a
    ``checkpoint_salvage`` event — never silent acceptance, never
    wholesale discard.
    """

    def __init__(
        self,
        path: "str | os.PathLike | None",
        *,
        kind: str,
        fingerprint: str,
        total: int,
        series: Mapping[str, np.ndarray],
    ):
        self.path = os.fspath(path) if path is not None else None
        self.kind = kind
        self.fingerprint = fingerprint
        self.total = int(total)
        self.series = series
        self.context = current_context()
        self._store: "DurableChunkStore | None" = None

    def _meta(
        self, completed: int, quarantined: Iterable[tuple[int, int]]
    ) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "completed": int(completed),
            "total": self.total,
            "quarantined": [
                [int(start), int(stop)] for start, stop in quarantined
            ],
        }

    def _io_error(self, operation: str, error: OSError) -> CheckpointError:
        return CheckpointError(
            f"checkpoint {operation} failed for {self.path!r}: {error}",
            path=self.path,
            reason="io",
        )

    def begin(self) -> tuple[int, list[tuple[int, int]]]:
        """Start a fresh store (commits an empty generation immediately);
        returns the empty ``(completed, quarantined_ranges)``."""
        if self.path is None:
            return 0, []
        self._store = DurableChunkStore(
            self.path, kind=self.kind, fingerprint=self.fingerprint
        )
        try:
            self._store.create(self._meta(0, ()))
        except OSError as error:
            raise self._io_error("create", error) from error
        return 0, []

    def resume(self) -> tuple[int, list[tuple[int, int]]]:
        """Load (salvaging if needed) and reopen the store for appending.

        Fills :attr:`series` with the recovered rows and returns
        ``(completed, quarantined_ranges)``.  Raises
        :class:`~repro.core.errors.CheckpointError` — with the salvage
        summary in the message — when nothing usable was recovered or the
        store belongs to a different run configuration.
        """
        if self.path is None:
            raise CheckpointError(
                "resume requested without a checkpoint path", reason="missing"
            )
        state = load_store_state(self.path)
        report = state.report
        salvage = report.summary()
        chunks = [
            record
            for record in state.chunks
            if record.kind == self.kind
            and record.fingerprint == self.fingerprint
        ]
        meta = state.meta
        if meta is None:
            if not chunks:
                # An empty log with no manifest is a crash one instant
                # after create(): nothing committed, nothing torn —
                # treat it as absent so callers can restart fresh.
                reason = "corrupt" if report.torn_bytes else "missing"
                raise CheckpointError(
                    f"cannot resume: checkpoint {self.path!r} has no "
                    f"committed state ({salvage})",
                    path=self.path,
                    reason=reason,
                    salvage=salvage,
                )
            # Manifest destroyed but the log itself is healthy: the
            # fingerprint-matched records are trustworthy (CRC + content
            # hash), so synthesize the metadata instead of discarding.
            meta = self._meta(_coverage((r.start, r.stop) for r in chunks), ())
        if int(meta.get("version", -1)) != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"cannot resume: checkpoint {self.path!r} has version "
                f"{meta.get('version')}, expected {CHECKPOINT_VERSION}",
                path=self.path,
                reason="version",
                salvage=salvage,
            )
        if str(meta.get("kind", "")) != self.kind:
            raise CheckpointError(
                f"cannot resume: checkpoint {self.path!r} holds a "
                f"{str(meta.get('kind', ''))!r} run, not {self.kind!r}",
                path=self.path,
                reason="mismatch",
                salvage=salvage,
            )
        if str(meta.get("fingerprint", "")) != self.fingerprint:
            raise CheckpointError(
                f"cannot resume: checkpoint {self.path!r} was written by a "
                "different run configuration (seed, draws, parameters, "
                "or policy differ)",
                path=self.path,
                reason="mismatch",
                salvage=salvage,
            )
        committed = int(meta.get("completed", 0))
        if committed > self.total or int(meta.get("total", -1)) != self.total:
            raise CheckpointError(
                f"checkpoint {self.path!r} covers "
                f"{committed}/{meta.get('total')} rows, expected {self.total}",
                path=self.path,
                reason="mismatch",
                salvage=salvage,
            )
        spans = []
        for record in chunks:
            for name, values in record.arrays.items():
                if name in self.series:
                    self.series[name][record.start : record.stop] = values
            spans.append((record.start, record.stop))
        completed = min(committed, _coverage(spans))
        # Quarantined holes sit inside the completed prefix; any range a
        # lossy salvage pushed past `completed` gets recomputed by the
        # main loop anyway.
        quarantined = [
            (int(start), int(stop))
            for start, stop in meta.get("quarantined", [])
            if int(stop) <= completed
        ]
        if report.lossy or completed < committed:
            warnings.warn(
                f"checkpoint {self.path!r} was damaged; recovered the "
                f"longest valid committed prefix ({salvage}); "
                f"{committed - completed} row(s) will be recomputed",
                RobustnessWarning,
                stacklevel=3,
            )
            self.context.count("checkpoint.salvages")
            self.context.event(
                "checkpoint_salvage",
                kind=self.kind,
                path=self.path,
                chunks_kept=report.chunks_kept,
                chunks_quarantined=len(report.chunks_quarantined),
                generation=report.generation,
                completed=completed,
                committed=committed,
                summary=salvage,
            )
        self.context.count("checkpoint.restores")
        self.context.event(
            "checkpoint_restore",
            kind=self.kind,
            path=self.path,
            completed=completed,
            total=self.total,
        )
        self._store = DurableChunkStore(
            self.path, kind=self.kind, fingerprint=self.fingerprint
        )
        try:
            self._store.open_resume(state)
        except OSError as error:
            raise self._io_error("reopen", error) from error
        return completed, quarantined

    def append_range(self, start: int, stop: int) -> None:
        """Write-ahead one series row range (visible after next commit)."""
        if self._store is None or stop <= start:
            return
        arrays = {
            name: values[start:stop] for name, values in self.series.items()
        }
        try:
            self._store.append(start, stop, arrays)
        except OSError as error:
            raise self._io_error("append", error) from error

    def commit(
        self, completed: int, quarantined: Iterable[tuple[int, int]]
    ) -> None:
        """Commit every appended record under updated run metadata."""
        if self._store is None:
            return
        try:
            self._store.commit(self._meta(completed, quarantined))
        except OSError as error:
            raise self._io_error("commit", error) from error
        self.context.count("checkpoint.saves")
        self.context.event(
            "checkpoint_save",
            kind=self.kind,
            path=self.path,
            completed=int(completed),
            total=self.total,
        )

    def close(self) -> None:
        """Release the append handle (safe when persistence is off)."""
        if self._store is not None:
            self._store.close()
            self._store = None


# --- the chunked driver --------------------------------------------------


def _absorb(
    evaluation: "ParallelEvaluation",
    start: int,
    series: Mapping[str, np.ndarray],
) -> list[tuple[int, int]]:
    """Copy a wave evaluated from row ``start`` into ``series`` (keyed by
    evaluation series name) and return the wave's quarantined shard
    ranges, shifted to global rows."""
    for name, values in series.items():
        values[start : start + evaluation.rows] = evaluation.full_series(name)
    if evaluation.partial is None:
        return []
    return [(start + lo, start + hi) for lo, hi in evaluation.partial.ranges]


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
    evaluate: "Callable[[ParallelRunner | None, int, int], list[tuple]]",
    policy: "ExecutionPolicy | None",
    checkpoint: str | os.PathLike | None,
    resume: bool,
    cancel: CancelToken | None,
    partial: "Callable[[int], object] | None" = None,
    fault_plan: object = None,
    single_wave: bool = False,
) -> list[tuple[int, int]]:
    """The one wave / cancel / checkpoint / quarantine loop of every
    chunked runner; returns the row ranges still quarantined at the end.

    ``evaluate(runner, start, stop)`` fills rows ``[start, stop)`` of
    ``series`` (through ``runner`` under a parallel policy, in-process
    when it is ``None``) and returns the global row ranges it lost to
    quarantined shards.  Those ranges are committed with every wave, and
    a ``resume=True`` run re-attempts only them.  A cancelled run commits
    what it has and raises ``RunInterrupted`` carrying
    ``partial(completed)``.  ``single_wave`` dispatches every chunk of a
    parallel run in one wave, for runs that commit and poll nothing
    between waves.  The remaining names label the checkpoint, span,
    chunk counter and interrupt message of the workload.
    """
    context = current_context()
    ckpt = _Checkpointer(
        checkpoint,
        kind=kind,
        fingerprint=fingerprint,
        total=total,
        series=series,
    )
    # Global (start, stop) row ranges lost to quarantined shards; persisted
    # with the checkpoint so a resume knows exactly which completed rows
    # are holes to re-attempt (older checkpoints simply lack the key).
    completed, quarantined = ckpt.resume() if resume else ckpt.begin()

    wave_rows = chunk_rows
    runner_scope = contextlib.nullcontext()
    # A wave never holds more chunks than the run, and a one-chunk run
    # evaluates in-process, whatever worker count was asked for (the
    # runner sizes its pool by each wave's chunk count).
    workers = min(policy.workers, -(-total // chunk_rows)) if policy else 1
    if workers > 1:
        from repro.parallel.runner import ParallelRunner

        # One wave dispatches `workers` chunks at once; `completed` always
        # stays a whole-chunk prefix, so a checkpoint written mid-run at
        # one worker count resumes cleanly at any other.
        wave_rows = total if single_wave else chunk_rows * workers
        runner_scope = ParallelRunner(
            policy.replace(shard_rows=chunk_rows, workers=workers),
            fault_plan=fault_plan,
        )
    try:
        with runner_scope as runner, context.span(
            span,
            **{size_field: total},
            chunk_rows=chunk_rows,
            workers=policy.workers if policy else 0,
        ):
            while completed < total:
                if cancel is not None and cancel.should_stop():
                    ckpt.commit(completed, quarantined)
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
                quarantined.extend(evaluate(runner, start, completed))
                context.count(counter)
                context.event(
                    "chunk", kind=kind, completed=completed, total=total
                )
                ckpt.append_range(start, completed)
                ckpt.commit(completed, quarantined)
            if resume and quarantined:
                # A resumed partial run re-attempts ONLY the quarantined
                # holes — every healthy row rides along from the
                # checkpoint — and converges bit-identically once the
                # fault is cleared (every row's inputs are a pure function
                # of the run configuration, so re-evaluation timing cannot
                # change values).
                still: list[tuple[int, int]] = []
                for start, stop in quarantined:
                    lost = evaluate(runner, start, stop)
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
                    ckpt.append_range(start, stop)
                quarantined = still
                ckpt.commit(completed, quarantined)
    finally:
        ckpt.close()
    return quarantined


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
            threaded into the parallel runner (chaos testing only).

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
    # The last failure of each quarantined chunk, and the retries and
    # respawns of every parallel wave.
    failures: "dict[int, ShardFailure]" = {}
    supervision = {"retries": 0, "respawns": 0}

    def evaluate(
        runner: "ParallelRunner | None", start: int, stop: int
    ) -> list[tuple[int, int]]:
        """Fill ``samples[start:stop]``; return the rows lost to quarantine."""
        if runner is not None:
            # Workers sample their own chunks from the shipped seeds.
            evaluation = runner.evaluate_source(
                source, start, stop, guard=guard
            )
            for name in supervision:
                supervision[name] += getattr(evaluation.supervision, name)
            if evaluation.partial is not None:
                failures.update(
                    (failure.shard, failure)
                    for failure in evaluation.partial.failures
                )
            return _absorb(evaluation, start, {"total_g": samples})
        chunk = source.columns(start, stop)
        key = source.identity_key(start, stop)
        if guard is None:
            batch = ScenarioBatch.from_columns(
                base, stop - start, chunk, identity_key=key
            )
            samples[start:stop] = evaluate_cached(batch, cache).total_g
            return []
        try:
            guarded = guard.evaluate_columns(
                base, stop - start, chunk, identity_key=key
            )
        except (ValidationError, DivergenceError) as error:
            raise at_run_rows(error, start) from None
        samples[start:stop] = guarded.result.total_g
        return []

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
        quarantined_ranges = _run_chunked(
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
            evaluate=evaluate,
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

    partial = None
    if quarantined_ranges:
        from repro.parallel.supervisor import PartialResult

        lost = tuple(quarantined_ranges)
        quarantined = tuple(start // chunk_rows for start, _ in lost)
        partial = PartialResult(
            quarantined=quarantined,
            ranges=lost,
            failures=tuple(failures[c] for c in quarantined if c in failures),
            **supervision,
        )
    # Quarantined shards leave NaN rows; drop them.  ``samples`` is this
    # call's own array, so it is returned as is when nothing was dropped:
    # copying it would hold a second draws-long array at the run's memory
    # peak.
    finite = np.isfinite(samples) if partial else None
    finished = samples if finite is None or finite.all() else samples[finite]
    return MonteCarloResult(
        samples=finished,
        base_response=base.total_g(),
        partial=partial,
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
    — bit-identical values.

    Raises:
        CheckpointError: ``resume`` without a usable, matching checkpoint.
        RunInterrupted: ``cancel`` fired; completed rows are checkpointed
            and carried on the exception's ``partial`` attribute as a
            :class:`~repro.engine.kernels.BatchResult` of the first
            ``completed`` rows.
    """
    require_positive("chunk_rows", chunk_rows)
    from repro.engine.plan import plan_product, planner_engaged

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

    def evaluate(_: None, start: int, stop: int) -> list[tuple[int, int]]:
        """Fill ``series`` rows [start, stop); in-process, no row is lost."""
        if factor_tables is not None:
            chunk_series = plan.gather_rows(factor_tables, start, stop)
        else:
            chunk_batch = ScenarioBatch(
                **{
                    name: np.ascontiguousarray(column[start:stop])
                    for name, column in columns.items()
                }
            )
            chunk_result = evaluate_cached(chunk_batch, cache)
            chunk_series = {
                name: getattr(chunk_result, name) for name in series_names
            }
        for name in series:
            series[name][start:stop] = chunk_series[name]
        return []

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
        evaluate=evaluate,
        partial=lambda completed: BatchResult(
            **{name: series[name][:completed].copy() for name in series_names}
        ),
        policy=None,
        checkpoint=checkpoint,
        resume=resume,
        cancel=cancel,
    )
    batch = ScenarioBatch(**columns)
    result = BatchResult(**series)
    return BatchSweepResult(names=names, batch=batch, result=result)


# --- scheduling policy sweeps --------------------------------------------


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
            dispatches ``workers`` chunks per wave through
            :meth:`ParallelRunner.evaluate_schedule`.
        cache: Schedule-batch evaluation cache (serial path only — worker
            processes keep their own).

    Raises:
        CheckpointError: ``resume`` without a usable, matching checkpoint.
        RunInterrupted: ``cancel`` fired; completed rows are checkpointed
            and carried on the exception's ``partial`` attribute as a
            name → array mapping.
    """
    require_positive("chunk_rows", chunk_rows)
    from repro.parallel.policy import resolve_policy
    from repro.scheduling.batch import (
        SCHEDULE_SERIES,
        evaluate_schedule_cached,
    )
    from repro.scheduling.sweep import ScheduleSweepSpec, build_schedule_batch

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

    def evaluate(
        runner: "ParallelRunner | None", start: int, stop: int
    ) -> list[tuple[int, int]]:
        """Fill ``series`` rows [start, stop); return the rows lost."""
        if runner is not None:
            return _absorb(
                runner.evaluate_schedule(spec, start=start, stop=stop),
                start,
                series,
            )
        chunk_result = evaluate_schedule_cached(
            build_schedule_batch(spec, start, stop), cache
        )
        for name in SCHEDULE_SERIES:
            series[name][start:stop] = getattr(chunk_result, name)
        return []

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
        evaluate=evaluate,
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

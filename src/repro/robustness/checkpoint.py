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
configuration, including the resolved kernel backend and — for sweeps —
the grid columns and the resolved planner mode) is stored in the
checkpoint and verified on resume, so a checkpoint can never silently
continue a *different* run (:class:`~repro.core.errors.CheckpointError`
otherwise).

Cooperative cancellation goes through :class:`CancelToken` — a deadline
or an explicit ``cancel()`` makes the runner stop at the next chunk
boundary, checkpoint what it has, and raise
:class:`~repro.core.errors.RunInterrupted` carrying the partial results.
"""

from __future__ import annotations

import hashlib
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.analysis.montecarlo import (
    TRIANGULAR,
    MonteCarloResult,
    ShardColumnSource,
    sample_parameter_columns,
    sample_parameter_columns_sharded,  # noqa: F401 - perfbench wraps it here
)
from repro.analysis.scenario import ActScenario
from repro.core.errors import CheckpointError, RunInterrupted
from repro.core.parameters import require_positive
from repro.dse.sweep import BatchSweepResult
from repro.engine.batch import ScenarioBatch, product_columns
from repro.engine.cache import EvaluationCache, evaluate_cached
from repro.engine.kernels import BatchResult
from repro.obs.context import current_context
from repro.robustness.durability import DurableChunkStore, load_store_state

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.robustness.guard import GuardedEngine

#: Checkpoint schema version; bumped on incompatible layout changes.
#: Version 2: the durable chunk-store format (write-ahead CRC-framed
#: records + manifest) with backend/planner folded into fingerprints.
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


def _checkpoint_backend_token(resolved_policy: "object | None") -> str:
    """The backend name a checkpoint must be bound to.

    The policy's explicit backend wins; otherwise the process-wide
    default — the same resolution order the serial chunk evaluation and
    the worker processes use, so serial and parallel runs of one
    configuration still share a fingerprint while a run evaluated under
    ``--backend fused`` can never silently resume a reference-backend
    checkpoint.
    """
    from repro.engine.backends import resolve_backend

    name = getattr(resolved_policy, "backend", None)
    if name:
        return str(name)
    return resolve_backend(None).name


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

    @property
    def enabled(self) -> bool:
        return self.path is not None

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

    def begin(self) -> None:
        """Start a fresh store (commits an empty generation immediately)."""
        if not self.enabled:
            return
        self._store = DurableChunkStore(
            self.path, kind=self.kind, fingerprint=self.fingerprint
        )
        try:
            self._store.create(self._meta(0, ()))
        except OSError as error:
            raise self._io_error("create", error) from error

    def resume(self) -> tuple[int, list[tuple[int, int]]]:
        """Load (salvaging if needed) and reopen the store for appending.

        Fills :attr:`series` with the recovered rows and returns
        ``(completed, quarantined_ranges)``.  Raises
        :class:`~repro.core.errors.CheckpointError` — with the salvage
        summary in the message — when nothing usable was recovered or the
        store belongs to a different run configuration.
        """
        if not self.enabled:
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
                "backend, planner, or policy differ)",
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
        lossy = report.lossy or completed < committed
        if lossy:
            from repro.robustness.guard import RobustnessWarning

            warnings.warn(
                f"checkpoint {self.path!r} was damaged; recovered the "
                f"longest valid committed prefix ({salvage}); "
                f"{committed - completed} row(s) will be recomputed",
                RobustnessWarning,
                stacklevel=3,
            )
            if self.context.enabled:
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
        if self.context.enabled:
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

    def save(
        self,
        start: int,
        stop: int,
        *,
        completed: int,
        quarantined: Iterable[tuple[int, int]] = (),
    ) -> None:
        """Append rows [start, stop) and commit the new generation."""
        if not self.enabled:
            return
        self.append_range(start, stop)
        self.commit(completed, quarantined)

    def commit(
        self,
        completed: int,
        quarantined: Iterable[tuple[int, int]] = (),
    ) -> None:
        """Commit every appended record under updated run metadata."""
        if self._store is None:
            return
        try:
            self._store.commit(self._meta(completed, quarantined))
        except OSError as error:
            raise self._io_error("commit", error) from error
        if self.context.enabled:
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


# --- Monte Carlo ---------------------------------------------------------


def run_monte_carlo_chunked(
    base: ActScenario,
    parameters: Iterable[str] | None = None,
    *,
    draws: int = 2000,
    seed: int = 2022,
    distribution: str = TRIANGULAR,
    ranges: Mapping[str, tuple[float, float]] | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    cancel: CancelToken | None = None,
    cache: EvaluationCache | None = None,
    guard: "GuardedEngine | None" = None,
    policy: "object | int | None" = None,
    fault_plan: object = None,
) -> MonteCarloResult:
    """:func:`~repro.analysis.montecarlo.run_monte_carlo`, chunked.

    Identical results to the one-shot runner (same seed ⇒ bit-identical
    samples), but evaluated ``chunk_rows`` at a time with an atomic
    checkpoint after every chunk, an optional guard per chunk, and
    cooperative cancellation between chunks.

    Under a resolved policy the draws are *streamed*: each wave samples
    only its own chunks, each from its ``SeedSequence(seed).spawn(n)[i]``
    child, just before evaluating them (in the workers, for a parallel
    policy), so sampling memory is ``O(chunk_rows × parameters ×
    workers)`` rather than ``O(draws × parameters)`` and a resumed run
    never samples the chunks it already committed.  The legacy
    ``policy=None`` single stream still samples every draw up front.

    Chunked runs compose with graceful degradation: under a
    ``failure_policy="degrade"`` policy, shards quarantined in a wave are
    recorded (as global row ranges) in the checkpoint, and a later
    ``resume=True`` re-attempts **only** those quarantined ranges — every
    healthy row is taken from the checkpoint untouched — converging to
    the bit-identical full result once the fault is gone (each chunk's
    draws are a pure function of its child seed, so when a row is
    evaluated never changes what it evaluates to).

    Args:
        chunk_rows: Rows per evaluation chunk (and checkpoint cadence).
        checkpoint: Checkpoint file path (``None`` disables persistence).
        resume: Load ``checkpoint`` and continue from its last chunk.
        cancel: Cooperative cancellation token polled at chunk boundaries.
        guard: Optional :class:`~repro.robustness.guard.GuardedEngine`;
            masked rows are dropped from the final sample set exactly as
            in the one-shot guarded runner.
        policy: An :class:`~repro.parallel.ExecutionPolicy`, a bare worker
            count, or ``None`` to pick up an installed process-wide
            policy.  Any resolved policy (even ``workers=1``) switches the
            sampler to the sharded per-chunk SeedSequence streams (one
            child stream per ``chunk_rows`` chunk) so the chunk is the
            unit of both checkpointing and parallel dispatch; the samples
            are then bit-identical across worker counts, and a checkpoint
            written at one worker count resumes at any other.  Sharded
            streams differ from the legacy ``policy=None`` single stream,
            so their fingerprints differ and the two cannot resume each
            other's checkpoints.
        fault_plan: An armed
            :class:`~repro.robustness.faultinject.ProcessFaultPlan`
            threaded into the parallel runner (chaos testing only).

    Raises:
        CheckpointError: ``resume`` without a usable, matching checkpoint.
        RunInterrupted: ``cancel`` fired; partial results are checkpointed
            (and carried on the exception's ``partial`` attribute).
    """
    require_positive("chunk_rows", chunk_rows)
    from repro.parallel.policy import resolve_policy

    resolved_policy = resolve_policy(policy)
    context = current_context()
    source: ShardColumnSource | None = None
    if resolved_policy is not None:
        # Streamed: each wave samples only its own chunks, from their
        # child seeds, just before evaluating them.
        source = ShardColumnSource.create(
            base,
            parameters,
            draws=draws,
            seed=seed,
            shard_rows=chunk_rows,
            distribution=distribution,
            ranges=ranges,
        )
        names = source.names
        draw = source.columns
    else:
        columns = sample_parameter_columns(
            base,
            parameters,
            draws=draws,
            seed=seed,
            distribution=distribution,
            ranges=ranges,
        )
        names = tuple(columns)

        def draw(start: int, stop: int) -> dict[str, np.ndarray]:
            return {name: col[start:stop] for name, col in columns.items()}

    guard_tag = guard.policy if guard is not None else "off"
    # The sampled columns are a pure function of the entries below, so
    # the fingerprint hashes the configuration, not the (potentially
    # hundreds of MB of) column data itself: same identity guarantee,
    # none of the hashing cost on the hot path.
    fingerprint = _fingerprint(
        "montecarlo",
        {},
        (
            draws,
            seed,
            distribution,
            guard_tag,
            f"backend={_checkpoint_backend_token(resolved_policy)}",
            f"columns={','.join(sorted(names))}",
            f"ranges={sorted(ranges.items()) if ranges else None}",
            f"sharded={chunk_rows if resolved_policy is not None else None}",
            sorted(base.as_dict().items()),
        ),
    )
    samples = np.full(draws, np.nan)
    completed = 0
    ckpt = _Checkpointer(
        checkpoint,
        kind="montecarlo",
        fingerprint=fingerprint,
        total=draws,
        series={"samples": samples},
    )
    # Global (start, stop) row ranges lost to quarantined shards; persisted
    # with the checkpoint so a resume knows exactly which completed rows
    # are holes to re-attempt (older checkpoints simply lack the key).
    quarantined_ranges: list[tuple[int, int]] = []
    if resume:
        completed, quarantined_ranges = ckpt.resume()
    else:
        ckpt.begin()

    parallel = resolved_policy is not None and resolved_policy.parallel
    # One wave dispatches `workers` chunks at once; `completed` always
    # stays a whole-chunk prefix, so a checkpoint written mid-run at one
    # worker count resumes cleanly at any other.
    wave_rows = (
        chunk_rows * resolved_policy.workers if parallel else chunk_rows
    )
    runner = None
    if parallel:
        from repro.parallel.runner import ParallelRunner

        runner = ParallelRunner(resolved_policy, fault_plan=fault_plan)

    def evaluate(start: int, stop: int) -> list[tuple[int, int]]:
        """Evaluate rows [start, stop) into ``samples``; return the global
        row ranges lost to quarantined shards."""
        if runner is not None:
            # Workers sample their own chunks from the shipped seeds.
            evaluation = runner.evaluate_source(
                source, start, stop, guard=guard
            )
            samples[start:stop] = evaluation.full_series("total_g")
            if evaluation.partial is None:
                return []
            return [
                (start + lo, start + hi)
                for lo, hi in evaluation.partial.ranges
            ]
        chunk = draw(start, stop)
        if guard is not None:
            guarded = guard.evaluate_columns(base, stop - start, chunk)
            samples[start:stop] = guarded.full_series("total_g")
        else:
            batch = ScenarioBatch.from_columns(base, stop - start, chunk)
            samples[start:stop] = evaluate_cached(batch, cache).total_g
        return []

    try:
        with context.span(
            "analysis.montecarlo_chunked",
            draws=draws,
            chunk_rows=chunk_rows,
            workers=resolved_policy.workers if resolved_policy else 0,
        ):
            while completed < draws:
                if cancel is not None and cancel.should_stop():
                    ckpt.commit(completed, quarantined_ranges)
                    error = RunInterrupted(
                        f"Monte Carlo interrupted at {completed}/{draws} draws"
                        + (
                            f"; resume from {os.fspath(checkpoint)!r}"
                            if checkpoint is not None
                            else " (no checkpoint path — partial results not "
                            "persisted)"
                        ),
                        completed=completed,
                        total=draws,
                        checkpoint=checkpoint,
                    )
                    error.partial = samples[:completed][
                        np.isfinite(samples[:completed])
                    ]
                    raise error
                stop = min(completed + wave_rows, draws)
                # Shard-local holes → global rows, checkpointed so a
                # resume can target them.
                quarantined_ranges.extend(evaluate(completed, stop))
                wave_start = completed
                completed = stop
                if context.enabled:
                    context.count("analysis.montecarlo.chunks")
                    context.event(
                        "chunk",
                        kind="montecarlo",
                        completed=completed,
                        total=draws,
                    )
                ckpt.save(
                    wave_start,
                    completed,
                    completed=completed,
                    quarantined=quarantined_ranges,
                )
            if resume and quarantined_ranges:
                # A resumed partial run re-attempts ONLY the quarantined
                # holes — every healthy row rides along from the
                # checkpoint — and converges bit-identically once the
                # fault is cleared (sample columns are seed-determined,
                # so re-evaluation timing cannot change values).
                still: list[tuple[int, int]] = []
                for start, stop in quarantined_ranges:
                    lost = evaluate(start, stop)
                    still.extend(lost)
                    if context.enabled:
                        context.count("checkpoint.quarantine_retries")
                        context.event(
                            "quarantine_retry",
                            kind="montecarlo",
                            start=int(start),
                            stop=int(stop),
                            healed=not lost,
                        )
                    # Write-ahead the re-attempted rows: the record
                    # overlays the already-committed chunk on replay.
                    ckpt.append_range(start, stop)
                quarantined_ranges = still
                ckpt.commit(completed, quarantined_ranges)
    finally:
        ckpt.close()
        if runner is not None:
            runner.close()

    # Guarded runs mark masked rows NaN — and so do quarantined shards;
    # drop them like the one-shot path.  Boolean indexing already copies.
    holes = bool(quarantined_ranges)
    finished = (
        samples[np.isfinite(samples)]
        if (guard is not None or holes)
        else samples
    )
    partial = None
    if holes:
        from repro.parallel.supervisor import PartialResult

        ranges = tuple(quarantined_ranges)
        partial = PartialResult(
            quarantined=tuple(start // chunk_rows for start, _ in ranges),
            ranges=ranges,
            failures=(),
        )
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
    policy: "object | int | None" = None,
    planner: str | None = None,
) -> BatchSweepResult:
    """:func:`~repro.dse.sweep.sweep_grid_batched`, chunked and resumable.

    Evaluates the Cartesian grid ``chunk_rows`` rows at a time and
    reassembles a :class:`~repro.dse.sweep.BatchSweepResult` bit-identical
    to the one-shot sweep (the kernels are elementwise, so chunk
    boundaries cannot change any value).

    Args:
        policy: An :class:`~repro.parallel.ExecutionPolicy`, a bare worker
            count, or ``None`` to pick up an installed process-wide
            policy.  A parallel policy dispatches ``workers`` chunks per
            wave; grid columns (and so the checkpoint fingerprint) are
            unchanged, so serial and parallel runs of the same sweep
            resume each other's checkpoints freely.
        planner: ``"auto"`` / ``"on"`` / ``"off"``, or ``None`` for the
            process-wide mode.  On the serial path an engaged planner
            (:mod:`repro.engine.plan`) factors Eq. 1-8 once into
            per-axis partial tables and each chunk only gathers its row
            range — bit-identical values.  The *resolved* mode is folded
            into the checkpoint fingerprint, so a run checkpointed under
            one planner mode refuses (``CheckpointError``, reason
            ``"mismatch"``) to resume under another — re-run with the
            original mode instead.  Parallel waves always evaluate
            densely.
    """
    require_positive("chunk_rows", chunk_rows)
    from repro.engine.plan import (
        plan_product,
        planner_engaged,
        resolve_planner_mode,
    )
    from repro.parallel.policy import resolve_policy

    resolved_policy = resolve_policy(policy)
    planner_mode = resolve_planner_mode(planner)
    context = current_context()
    size, columns = product_columns(base, grids)
    names = tuple(grids)
    fingerprint = _fingerprint(
        "sweep",
        columns,
        (
            size,
            names,
            f"backend={_checkpoint_backend_token(resolved_policy)}",
            f"planner={planner_mode}",
            sorted(base.as_dict().items()),
        ),
    )
    series_names = tuple(BatchResult.__dataclass_fields__)
    series = {name: np.full(size, np.nan) for name in series_names}
    completed = 0
    ckpt = _Checkpointer(
        checkpoint,
        kind="sweep",
        fingerprint=fingerprint,
        total=size,
        series=series,
    )
    if resume:
        completed, _ = ckpt.resume()
    else:
        ckpt.begin()

    parallel = resolved_policy is not None and resolved_policy.parallel
    wave_rows = (
        chunk_rows * resolved_policy.workers if parallel else chunk_rows
    )
    runner = None
    if parallel:
        from repro.parallel.runner import ParallelRunner

        runner = ParallelRunner(
            resolved_policy.replace(shard_rows=chunk_rows)
        )
    plan = factor_tables = None
    if not parallel and planner_engaged(planner_mode, size):
        # Factor Eq. 1-8 once up front; each chunk below then only
        # gathers its row range out of the broadcasted outer product.
        # Values are bit-identical to the dense chunk evaluation; the
        # resolved mode is still folded into the fingerprint so resumes
        # can never silently cross planner settings.
        plan = plan_product(base, grids)
        factor_tables = plan.partial_series()
    try:
        with context.span(
            "dse.sweep_grid_chunked",
            points=size,
            chunk_rows=chunk_rows,
            workers=resolved_policy.workers if resolved_policy else 0,
        ):
            while completed < size:
                if cancel is not None and cancel.should_stop():
                    ckpt.commit(completed)
                    raise RunInterrupted(
                        f"grid sweep interrupted at {completed}/{size} rows"
                        + (
                            f"; resume from {os.fspath(checkpoint)!r}"
                            if checkpoint is not None
                            else " (no checkpoint path — partial results not "
                            "persisted)"
                        ),
                        completed=completed,
                        total=size,
                        checkpoint=checkpoint,
                    )
                stop = min(completed + wave_rows, size)
                if runner is not None:
                    chunk = {
                        name: column[completed:stop]
                        for name, column in columns.items()
                    }
                    evaluation = runner.evaluate_columns(
                        base, stop - completed, chunk
                    )
                    for name in series_names:
                        series[name][completed:stop] = evaluation.full_series(
                            name
                        )
                elif factor_tables is not None:
                    chunk_series = plan.gather_rows(
                        factor_tables, completed, stop
                    )
                    for name in series_names:
                        series[name][completed:stop] = chunk_series[name]
                else:
                    chunk_batch = ScenarioBatch(
                        **{
                            name: np.ascontiguousarray(column[completed:stop])
                            for name, column in columns.items()
                        }
                    )
                    chunk_result = evaluate_cached(chunk_batch, cache)
                    for name in series_names:
                        series[name][completed:stop] = getattr(
                            chunk_result, name
                        )
                wave_start = completed
                completed = stop
                if context.enabled:
                    context.count("dse.sweep.chunks")
                    context.event(
                        "chunk", kind="sweep", completed=completed, total=size
                    )
                ckpt.save(wave_start, completed, completed=completed)
    finally:
        ckpt.close()
        if runner is not None:
            runner.close()

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
    backend: "object | str | None" = None,
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
    identity plus the resolved backend name — no materialized columns to
    hash — and a checkpoint written at one worker count or chunk size
    resumes bit-identically at any other (but never across backends).

    Args:
        chunk_rows: Rows per evaluation chunk (and checkpoint cadence).
        checkpoint_path: Checkpoint file (``None`` disables persistence).
        resume: Load ``checkpoint_path`` and continue where it stopped.
        cancel: Cooperative cancellation token polled at chunk boundaries.
        policy: An :class:`~repro.parallel.ExecutionPolicy`, a bare worker
            count, or ``None`` to pick up an installed process-wide
            policy; a parallel policy dispatches ``workers`` chunks per
            wave through :meth:`ParallelRunner.evaluate_schedule`.
        backend: Kernel backend (name or instance) for the vectorized
            evaluator; threaded to workers by name on the parallel path.
        cache: Schedule-batch evaluation cache (serial path only — worker
            processes keep their own).

    Raises:
        CheckpointError: ``resume`` without a usable, matching checkpoint.
        RunInterrupted: ``cancel`` fired; completed rows are checkpointed
            and carried on the exception's ``partial`` attribute as a
            name → array mapping.
    """
    require_positive("chunk_rows", chunk_rows)
    from repro.engine.backends import resolve_backend
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
    backend_name = (
        resolve_backend(backend).name if backend is not None else None
    )
    # The explicit backend argument wins; otherwise the policy's backend
    # or the process-wide default — the same resolution the evaluation
    # paths use, folded into the fingerprint so a sweep evaluated under
    # one backend cannot silently resume another's checkpoint.
    backend_token = (
        backend_name
        if backend_name is not None
        else _checkpoint_backend_token(resolved_policy)
    )
    context = current_context()
    rows = spec.rows
    fingerprint = _fingerprint(
        "schedule",
        {},
        tuple(
            f"{key}={value}"
            for key, value in sorted(spec.fingerprint_metadata().items())
        )
        + (f"backend={backend_token}",),
    )
    series = {name: np.full(rows, np.nan) for name in SCHEDULE_SERIES}
    completed = 0
    ckpt = _Checkpointer(
        checkpoint_path,
        kind="schedule",
        fingerprint=fingerprint,
        total=rows,
        series=series,
    )
    if resume:
        completed, _ = ckpt.resume()
    else:
        ckpt.begin()

    parallel = resolved_policy is not None and resolved_policy.parallel
    wave_rows = (
        chunk_rows * resolved_policy.workers if parallel else chunk_rows
    )
    runner = None
    if parallel:
        from repro.parallel.runner import ParallelRunner

        runner_policy = resolved_policy.replace(shard_rows=chunk_rows)
        if backend_name is not None:
            runner_policy = runner_policy.replace(backend=backend_name)
        runner = ParallelRunner(runner_policy)
    try:
        with context.span(
            "scheduling.sweep_chunked",
            rows=rows,
            chunk_rows=chunk_rows,
            workers=resolved_policy.workers if resolved_policy else 0,
        ):
            while completed < rows:
                if cancel is not None and cancel.should_stop():
                    ckpt.commit(completed)
                    error = RunInterrupted(
                        f"schedule sweep interrupted at {completed}/{rows} "
                        "rows"
                        + (
                            f"; resume from {os.fspath(checkpoint_path)!r}"
                            if checkpoint_path is not None
                            else " (no checkpoint path — partial results not "
                            "persisted)"
                        ),
                        completed=completed,
                        total=rows,
                        checkpoint=checkpoint_path,
                    )
                    error.partial = {
                        name: np.array(series[name][:completed], copy=True)
                        for name in SCHEDULE_SERIES
                    }
                    raise error
                stop = min(completed + wave_rows, rows)
                if runner is not None:
                    evaluation = runner.evaluate_schedule(
                        spec, start=completed, stop=stop
                    )
                    for name in SCHEDULE_SERIES:
                        series[name][completed:stop] = evaluation.full_series(
                            name
                        )
                else:
                    chunk_batch = build_schedule_batch(spec, completed, stop)
                    chunk_result = evaluate_schedule_cached(
                        chunk_batch, cache, backend_name
                    )
                    for name in SCHEDULE_SERIES:
                        series[name][completed:stop] = getattr(
                            chunk_result, name
                        )
                wave_start = completed
                completed = stop
                if context.enabled:
                    context.count("scheduling.sweep.chunks")
                    context.event(
                        "chunk",
                        kind="schedule",
                        completed=completed,
                        total=rows,
                    )
                ckpt.save(wave_start, completed, completed=completed)
    finally:
        ckpt.close()
        if runner is not None:
            runner.close()
    return series

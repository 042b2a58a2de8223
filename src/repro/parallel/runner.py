"""The parallel execution layer: shard, fan out, merge — bit-identically.

:class:`ParallelRunner` takes one scenario workload (raw columns, an
existing batch, or a Monte Carlo specification), splits it into
contiguous row shards with :func:`~repro.parallel.policy.shard_plan`,
evaluates the shards on a persistent worker-process pool, and merges the
per-shard outputs back in shard order into a :class:`ParallelEvaluation`.

Determinism contract (pinned by ``tests/test_parallel.py``):

* The shard plan is a pure function of ``(rows, shard_rows)`` — worker
  count only decides *which process* evaluates a shard, never which rows
  it covers.
* Monte Carlo sampling derives one ``np.random.SeedSequence`` child per
  shard (``SeedSequence(seed).spawn(n_shards)``), so shard ``i`` draws
  the same values whether one worker or eight evaluate the plan.  This is
  the one draw stream,
  :class:`~repro.analysis.montecarlo.ShardColumnSource`; the serial
  driver samples the same blocks in-process.
* Shard outputs are written by absolute row range, so completion order
  cannot reorder anything.

Transports: ``"shm"`` copies the input columns into one shared-memory
segment and lets workers slice zero-copy views (and write results
straight into a shared output segment); ``"pickle"`` ships sliced column
arrays through the task queue — simpler, measurably slower for large
batches (the benchmark's ``parallel`` section quantifies the gap).

Guarded evaluation works per shard: each worker reconstructs the
:class:`~repro.robustness.guard.GuardedEngine` from its config, evaluates
its shard, translates diagnostic indices from shard-local to global, and
captures any :class:`~repro.robustness.guard.RobustnessWarning` messages
for the parent to re-emit.  The parent merges validity masks and
diagnostics; a fully masked shard is ``NaN`` rows, and a whole run
raises the guard's all-rows-masked
:class:`~repro.core.errors.ValidationError` only when *no* shard kept a
row.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.analysis.montecarlo import (
    TRIANGULAR,
    ShardColumnSource,
    sample_shard_columns,
)
from repro.core.errors import (
    ParameterError,
    ReproError,
    ShardFailedError,
    ValidationError,
)
from repro.dse.pareto import pareto_mask as _serial_pareto_mask
from repro.engine.batch import (
    FIELD_NAMES,
    ScenarioBatch,
    broadcast_columns,
    prevalidated_batch,
)
from repro.engine.kernels import BatchResult, evaluate_batch
from repro.obs.context import current_context
from repro.parallel.policy import (
    FAIL_FAST,
    PICKLE,
    SHM,
    ExecutionPolicy,
    resolve_policy,
    shard_plan,
)
from repro.parallel.pool import WorkerPool
from repro.parallel.shm import SharedArrayStore
from repro.parallel.supervisor import (
    ERROR,
    LOST,
    PartialResult,
    RetryLedger,
    ShardSupervisor,
    SupervisionReport,
    final_failures,
)
from repro.robustness.guard import (
    OUTPUT,
    QUARANTINED,
    STRICT,
    ColumnDiagnostic,
    GuardedEngine,
    RobustnessWarning,
    offset_diagnostics,
    require_survivors,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.scenario import ActScenario
    from repro.scheduling.sweep import ScheduleSweepSpec

#: The Eq. 1-8 output series, in :class:`BatchResult` field order.
SERIES_NAMES: tuple[str, ...] = tuple(BatchResult.__dataclass_fields__)

#: Extra output column carrying each row's guard verdict (1.0 = kept).
_VALID = "valid"


def _guard_spec(guard: "GuardedEngine | None") -> dict[str, Any] | None:
    """A guard's picklable configuration (caches never cross processes)."""
    if guard is None:
        return None
    return {
        "policy": guard.policy,
        "ranges": dict(guard.ranges) if guard.ranges is not None else None,
        "tolerance": guard.tolerance,
    }


def _merge_diagnostics(
    outcomes: "Sequence[_ShardOutcome]",
) -> tuple[ColumnDiagnostic, ...]:
    """Fuse per-shard diagnostics into one per (column, reason).

    The serial guard reports each finding once with every offending row;
    shards report only their own slice.  Concatenating per-key in shard
    order (offsets are monotone, shard indices ascending) reproduces the
    serial guard's ascending global index lists exactly.
    """
    merged: dict[tuple[str, str, str], ColumnDiagnostic] = {}
    for outcome in outcomes:
        for diagnostic in outcome.diagnostics:
            key = (diagnostic.column, diagnostic.reason, diagnostic.detail)
            seen = merged.get(key)
            if seen is None:
                merged[key] = diagnostic
            else:
                merged[key] = ColumnDiagnostic(
                    column=diagnostic.column,
                    reason=diagnostic.reason,
                    indices=seen.indices + diagnostic.indices,
                    values=seen.values + diagnostic.values,
                    detail=diagnostic.detail,
                )
    return tuple(merged.values())


def _warn_merged(
    policy: str,
    rows: int,
    masked: int,
    repaired: bool,
    diagnostics: Sequence[ColumnDiagnostic],
) -> None:
    """Re-emit the serial guard's warnings from the merged global state.

    Workers capture (and suppress) their shard-local warnings — a shard
    that happens to be fully masked raises instead of warning at all — so
    the parent synthesizes the batch-level messages the serial guard
    would have produced, from the merged diagnostics and counts.
    """
    if not diagnostics:
        return
    detail = "; ".join(str(d) for d in diagnostics[:4])
    if len(diagnostics) > 4:
        detail += f"; … and {len(diagnostics) - 4} more diagnostic(s)"
    if repaired:
        inputs = [d for d in diagnostics if d.reason != OUTPUT]
        warnings.warn(
            f"guarded evaluation ({policy}): repaired "
            f"{sum(len(d.indices) for d in inputs)} value(s) across "
            f"{len({d.column for d in inputs})} column(s) — {detail}",
            RobustnessWarning,
            stacklevel=4,
        )
    if masked:
        warnings.warn(
            f"guarded evaluation ({policy}): masked {masked} of "
            f"{rows} row(s) — {detail}",
            RobustnessWarning,
            stacklevel=4,
        )


def _survivors_required(
    evaluation: "ParallelEvaluation", guard: "GuardedEngine | None"
) -> "ParallelEvaluation":
    """``evaluation`` after the guard's whole-run all-masked verdict."""
    if guard is not None:
        require_survivors(
            guard.policy,
            evaluation.valid,
            evaluation.partial.rows if evaluation.partial else 0,
            (d for d in evaluation.diagnostics if d.reason != QUARANTINED),
        )
    return evaluation


@dataclass(frozen=True)
class _ShardOutcome:
    """What one worker hands back for one shard."""

    shard: int
    start: int
    stop: int
    seconds: float
    series: dict[str, np.ndarray] | None  # pickle transport only
    valid: np.ndarray | None  # pickle transport only
    mask: np.ndarray | None  # pareto tasks only
    diagnostics: tuple[ColumnDiagnostic, ...]
    repaired: bool
    messages: tuple[str, ...]


def _shard_input_columns(task: dict) -> tuple[dict[str, np.ndarray], SharedArrayStore | None]:
    """This shard's input columns, as zero-copy views or pickled slices."""
    transport, payload = task["input"]
    if transport == SHM:
        store = SharedArrayStore.attach(payload)
        start, stop = task["start"], task["stop"]
        return {name: store.array(name)[start:stop] for name in store.names()}, store
    return dict(payload), None


#: One evaluated shard: full-shard series, validity mask, globally-indexed
#: diagnostics, the repair flag, and captured robustness-warning messages.
_ShardResult = tuple[
    dict[str, np.ndarray],
    np.ndarray,
    tuple[ColumnDiagnostic, ...],
    bool,
    tuple[str, ...],
]


def _evaluate_shard_guarded(
    task: dict, columns: Mapping[str, np.ndarray], count: int
) -> _ShardResult:
    """Run one shard through a locally-reconstructed guarded engine.

    Returns NaN-scattered full-shard series, the shard validity mask,
    globally-indexed diagnostics, the repair flag, and any captured
    robustness-warning messages (the parent re-emits them).  A fully
    masked shard is an *outcome* here, not an error — only the parent
    knows whether every other shard masked out too.
    """
    spec = task["guard"]
    guard = GuardedEngine(
        policy=spec["policy"],
        ranges=spec["ranges"],
        cache=None,
        tolerance=spec["tolerance"],
    )
    start = task["start"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            guarded = guard.evaluate_columns(task["base"], count, columns)
        except ValidationError as error:
            if spec["policy"] == STRICT:
                raise
            series = {name: np.full(count, np.nan) for name in SERIES_NAMES}
            valid = np.zeros(count, dtype=bool)
            diagnostics = offset_diagnostics(
                getattr(error, "diagnostics", ()), start
            )
            repaired = False
        else:
            series = {name: guarded.full_series(name) for name in SERIES_NAMES}
            valid = np.array(guarded.valid, dtype=bool)
            diagnostics = offset_diagnostics(guarded.diagnostics, start)
            repaired = guarded.repaired
    messages = tuple(
        str(warning.message)
        for warning in caught
        if issubclass(warning.category, RobustnessWarning)
    )
    return series, valid, diagnostics, repaired, messages


def _evaluate_shard(task: dict, count: int) -> _ShardResult:
    """Build one shard's columns, evaluate them, and return fresh arrays.

    Scoped so every reference into the input shared-memory segment (the
    column views and any batch built over them) dies when this function
    returns — the caller can then close the input mapping safely.  The
    returned series are kernel outputs or NaN-scatter copies, never views.
    """
    kind = task["kind"]
    if kind == "schedule":
        # Lazy imports keep the scheduling stack out of workers that never
        # run a scheduling shard (and avoid an import cycle at module
        # load: repro.scheduling.sweep itself reaches back into this
        # package for the chunked checkpoint path).
        from repro.scheduling.batch import (
            SCHEDULE_SERIES,
            evaluate_schedule_batch,
        )
        from repro.scheduling.sweep import build_schedule_batch

        offset = task["row_offset"]
        batch = build_schedule_batch(
            task["spec"], offset + task["start"], offset + task["stop"]
        )
        result = evaluate_schedule_batch(batch)
        series = {name: getattr(result, name) for name in SCHEDULE_SERIES}
        return series, np.ones(count, dtype=bool), (), False, ()
    if kind == "planned":
        # The parent already ran Eq. 1-8 once per marginal grid
        # (repro.engine.plan); this shard only gathers its row range out
        # of the broadcasted outer product.  Mirrors
        # SweepPlan.gather_rows, inlined so workers need only the factor
        # tables and grid shape, never the plan object itself.
        shape = tuple(task["shape"])
        indices = np.unravel_index(
            np.arange(task["start"], task["stop"], dtype=np.intp), shape
        )
        series = {
            name: np.ascontiguousarray(
                np.broadcast_to(np.asarray(factor), shape)[indices]
            )
            for name, factor in task["factors"].items()
        }
        return series, np.ones(count, dtype=bool), (), False, ()
    input_store: SharedArrayStore | None = None
    try:
        if kind == "montecarlo":
            columns: Mapping[str, np.ndarray] = sample_shard_columns(
                task["base"],
                task["ranges"],
                count,
                task["seed"],
                task["distribution"],
            )
        else:
            columns, input_store = _shard_input_columns(task)

        if task["guard"] is not None:
            return _evaluate_shard_guarded(task, columns, count)

        if kind == "montecarlo":
            batch = ScenarioBatch.from_columns(task["base"], count, columns)
        elif task.get("prevalidated"):
            batch = prevalidated_batch(columns)
        else:
            batch = ScenarioBatch(
                **{
                    name: np.ascontiguousarray(column)
                    for name, column in columns.items()
                }
            )
        result = evaluate_batch(batch)
        series = {name: getattr(result, name) for name in SERIES_NAMES}
        return series, np.ones(count, dtype=bool), (), False, ()
    finally:
        if input_store is not None:
            # Drop our own view references first; the caller's are gone
            # (the store object outlives this frame, the views do not).
            columns = None  # noqa: F841 - release shm views before unmap
            batch = None  # noqa: F841
            input_store.close()


def _run_shard(task: dict) -> _ShardOutcome:
    """Worker entry point: evaluate one shard of one workload.

    Must stay module-level (pickled by reference under both ``fork`` and
    ``spawn``).  Handles five task kinds — ``"columns"`` (pre-built
    column slices), ``"montecarlo"`` (sample this shard from its own
    SeedSequence child, then evaluate), ``"planned"`` (gather this
    shard's rows from parent-evaluated factor tables), ``"schedule"``
    (rebuild and evaluate this shard's scheduling rows), and ``"pareto"``
    (non-dominance of this shard's rows against the full objective
    matrix).

    When the runner armed a chaos plan, faults fire here: at shard start
    (kill / stall / shm-handle corruption, before any transport attach)
    and at shard finish (result-message drop, after the work completed).
    The import is lazy and only on faulted tasks, so the healthy path
    never touches the robustness package from a worker.
    """
    started = time.perf_counter()
    kind = task["kind"]
    shard = task["shard"]
    start, stop = task["start"], task["stop"]
    count = stop - start

    fault_spec = task.get("fault")
    if fault_spec is not None:
        from repro.robustness.faultinject import apply_process_faults

        apply_process_faults(fault_spec, shard, task, "start")

    series_out = valid_out = mask = None
    diagnostics, repaired, messages = (), False, ()
    if kind == "pareto":
        transport, payload = task["input"]
        store = None
        try:
            if transport == SHM:
                store = SharedArrayStore.attach(payload)
                matrix = store.array("objectives")
            else:
                matrix = np.asarray(payload, dtype=np.float64)
            block = matrix[start:stop]
            # Same comparison semantics as repro.dse.pareto.pareto_mask,
            # restricted to this shard's candidate rows.
            no_worse = (matrix[:, None, :] <= block[None, :, :]).all(axis=2)
            better = (matrix[:, None, :] < block[None, :, :]).any(axis=2)
            mask = np.array(~((no_worse & better).any(axis=0)), dtype=bool)
        finally:
            # Release the matrix views before unmapping the segment.
            matrix = block = None  # noqa: F841
            if store is not None:
                store.close()
    else:
        output_store: SharedArrayStore | None = None
        try:
            # The input-side shm views must all be dead before the input
            # store closes (an mmap with exported pointers cannot unmap),
            # so column construction and evaluation live in a helper whose
            # locals — the column views, the batch built over them — die
            # on return.  Every array it returns is a fresh kernel output
            # or an explicit copy.
            series, valid, diagnostics, repaired, messages = _evaluate_shard(
                task, count
            )
            if task["output"][0] == SHM:
                output_store = SharedArrayStore.attach(task["output"][1])
                # Iterate the evaluated series' own keys — scenario shards
                # carry the Eq. 1-8 names, schedule shards the scheduling
                # names; the parent sized the output store to match.
                for name in series:
                    output_store.array(name)[start:stop] = series[name]
                output_store.array(_VALID)[start:stop] = valid
            else:
                series_out = {
                    name: np.ascontiguousarray(values)
                    for name, values in series.items()
                }
                valid_out = valid
        finally:
            if output_store is not None:
                output_store.close()
    if fault_spec is not None:
        apply_process_faults(fault_spec, shard, task, "finish")
    return _ShardOutcome(
        shard=shard,
        start=start,
        stop=stop,
        seconds=time.perf_counter() - started,
        series=series_out,
        valid=valid_out,
        mask=mask,
        diagnostics=diagnostics,
        repaired=repaired,
        messages=messages,
    )


def _run_shard_in_process(task: dict) -> "_ShardOutcome | BaseException":
    """Run one shard in the parent, returning (not raising) a failure that
    another attempt might survive: a transport error or a chaos-dropped
    result.  Model errors and genuine interrupts propagate."""
    try:
        return _run_shard(task)
    except ReproError:
        raise  # deterministic model error: retrying cannot help
    except BaseException as exc:  # noqa: BLE001 - chaos included
        if isinstance(exc, (KeyboardInterrupt, SystemExit)) and not getattr(
            exc, "repro_dropped_result", False
        ):
            raise
        return exc


@dataclass(frozen=True)
class ShardReport:
    """Where and when one shard ran (merged into the parent's metrics)."""

    shard: int
    start: int
    stop: int
    worker: int
    seconds: float

    @property
    def rows(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ParallelEvaluation:
    """A merged parallel evaluation, aligned with the original rows.

    Attributes:
        rows: Rows in the original workload.
        valid: Per-row guard verdict (all ``True`` for unguarded runs).
        series: Every Eq. 1-8 output series at full length, ``NaN`` where
            the guard masked a row.
        diagnostics: Guard findings with **global** row indices.
        repaired: Whether any worker's guard clamped a value.
        shards: Per-shard placement and timing reports, in shard order.
        partial: Quarantine account of a degraded run (``None`` for
            complete runs).  Quarantined rows are ``NaN`` in every
            series, ``False`` in :attr:`valid`, and carry a
            ``"quarantined"`` diagnostic.
        supervision: Retry/respawn accounting when the run executed
            under a supervising failure policy (``None`` on the
            fail-fast path).
    """

    rows: int
    valid: np.ndarray
    series: Mapping[str, np.ndarray]
    diagnostics: tuple[ColumnDiagnostic, ...]
    repaired: bool
    shards: tuple[ShardReport, ...]
    partial: PartialResult | None = None
    supervision: SupervisionReport | None = None

    def __post_init__(self) -> None:
        valid = np.ascontiguousarray(self.valid, dtype=bool)
        valid.flags.writeable = False
        object.__setattr__(self, "valid", valid)
        frozen: dict[str, np.ndarray] = {}
        for name, column in self.series.items():
            column = np.ascontiguousarray(column, dtype=np.float64)
            column.flags.writeable = False
            frozen[name] = column
        object.__setattr__(self, "series", frozen)

    def __len__(self) -> int:
        return self.rows

    @property
    def masked_count(self) -> int:
        """How many rows the guard masked out."""
        return int(self.rows - np.count_nonzero(self.valid))

    @property
    def indices(self) -> np.ndarray:
        """Original row index of each surviving row."""
        return np.flatnonzero(self.valid)

    def full_series(self, name: str) -> np.ndarray:
        """One output series at original length, ``NaN`` where masked."""
        if name not in self.series:
            raise ParameterError(
                f"unknown output series {name!r} "
                f"(have: {', '.join(self.series)})"
            )
        return self.series[name]

    def samples(self) -> np.ndarray:
        """The surviving rows' total footprints (compact, original order)."""
        return np.ascontiguousarray(self.series["total_g"][self.valid])

    def batch_result(self) -> BatchResult:
        """The surviving rows as a compact :class:`BatchResult`."""
        return BatchResult(
            **{name: self.series[name][self.valid] for name in SERIES_NAMES}
        )


class ParallelRunner:
    """Shards workloads over a persistent worker pool, per one policy.

    The pool starts lazily on the first parallel call and is reused
    across calls until :meth:`close` (or context-manager exit) — reusing
    one runner amortizes worker startup across a whole sweep or
    benchmark.  With ``workers=1`` no pool exists: the same shard tasks
    run in-process, in shard order (the serial reference path).
    """

    def __init__(
        self,
        policy: "ExecutionPolicy | int | None" = None,
        *,
        fault_plan: object = None,
    ):
        resolved = resolve_policy(policy)
        self.policy = resolved if resolved is not None else ExecutionPolicy()
        self._fault_spec = fault_plan.spec() if fault_plan is not None else None
        self._pool: WorkerPool | None = None

    # --- execution core -------------------------------------------------

    def _execute(
        self, payloads: Sequence[dict]
    ) -> tuple[list[tuple[int, _ShardOutcome] | None], SupervisionReport | None]:
        """Run the shard payloads under the policy's failure semantics.

        Returns ``(outcomes, report)`` — ``outcomes[i]`` is the
        ``(worker, _ShardOutcome)`` pair for payload ``i`` or ``None``
        when it was quarantined; ``report`` is ``None`` on the fail-fast
        path (no supervision ran) and names shards by their payloads'
        ``"shard"`` numbers.
        """
        if self._fault_spec is not None:
            payloads = [
                dict(payload, fault=self._fault_spec) for payload in payloads
            ]
        if not self.policy.parallel:
            if self.policy.failure_policy == FAIL_FAST:
                return [(0, _run_shard(payload)) for payload in payloads], None
            return self._execute_serial_supervised(payloads)
        if self._pool is None:
            self._pool = WorkerPool(
                self.policy.workers,
                start_method=self.policy.start_method,
                join_timeout=self.policy.join_timeout_seconds,
                term_timeout=self.policy.term_timeout_seconds,
            )
        if self.policy.failure_policy == FAIL_FAST:
            # The historical fast path: no supervision bookkeeping at all.
            return self._pool.run(_run_shard, payloads), None
        supervisor = ShardSupervisor(self._pool, self.policy)
        return supervisor.run(
            _run_shard, payloads, [payload["shard"] for payload in payloads]
        )

    def _execute_serial_supervised(
        self, payloads: Sequence[dict]
    ) -> tuple[list[tuple[int, _ShardOutcome] | None], SupervisionReport]:
        """The ``workers=1`` twin of the supervisor: in-process retries.

        Shards run in shard order in the parent; an infrastructure
        failure (transport error, chaos-dropped result) is retried under
        the same budget and backoff as the parallel path, and model
        errors propagate immediately.  Each attempt gets a shallow task
        copy so a fault that mutates the task (shm-handle corruption)
        cannot leak into the retry.
        """
        outcomes: list[tuple[int, _ShardOutcome] | None] = [None] * len(payloads)
        ledger = RetryLedger(self.policy)
        for index, payload in enumerate(payloads):
            while True:
                outcome = _run_shard_in_process(dict(payload))
                if not isinstance(outcome, BaseException):
                    outcomes[index] = (0, outcome)
                    break
                dropped = getattr(outcome, "repro_dropped_result", False)
                cause = LOST if dropped else ERROR
                delay = ledger.fail(
                    payload["shard"], cause, repr(outcome), 0, outcome
                )
                if delay is None:
                    break  # quarantined
                if delay:
                    time.sleep(delay)
        return outcomes, ledger.report()

    def _heal_quarantined(
        self,
        payloads: Sequence[dict],
        outcomes: "list[tuple[int, _ShardOutcome] | None]",
        report: SupervisionReport | None,
    ) -> SupervisionReport | None:
        """Optionally re-run quarantined shards in the parent process.

        ``serial_fallback`` assumes the fault lives in the worker fleet
        (a poisoned environment, an shm restriction) and gives each
        quarantined shard one clean in-process attempt — with any armed
        chaos stripped, since faults target the fleet, never the parent.
        Healed shards leave quarantine; stubborn ones stay.
        """
        if (
            report is None
            or not report.quarantined
            or not self.policy.serial_fallback
        ):
            return report
        context = current_context()
        position = {
            payload["shard"]: index for index, payload in enumerate(payloads)
        }
        stubborn: list[int] = []
        for shard in report.quarantined:
            payload = dict(payloads[position[shard]])
            payload.pop("fault", None)
            outcome = _run_shard_in_process(payload)
            if isinstance(outcome, BaseException):
                stubborn.append(shard)
                continue
            outcomes[position[shard]] = (-1, outcome)  # -1: the parent
            context.event("shard_healed", shard=shard)
        return dataclasses.replace(report, quarantined=tuple(stubborn))

    def _map(
        self,
        kind: str,
        plan: Sequence[tuple[int, int]],
        task: Mapping[str, Any],
        *,
        guard: "GuardedEngine | None" = None,
        inputs: Mapping[str, np.ndarray] | None = None,
        series_names: Sequence[str] = SERIES_NAMES,
        per_shard: Sequence[Mapping[str, Any]] | None = None,
        shards: Sequence[int] | None = None,
    ) -> ParallelEvaluation:
        """The shard-map core: fan one workload out over ``plan``, merge it.

        Each payload is ``task`` plus the shard's row range, its
        ``per_shard`` fields, the guard spec and transport handles.
        ``inputs`` (full-length columns) travel as one shared segment or
        pickled per-shard slices; ``series_names`` come back the same
        way.  Shards execute, quarantined ones get the optional serial
        fallback, and the outcomes merge in shard order.  ``shards``
        numbers the plan's shards for fault plans, supervision, reports
        and spans (default ``0..len(plan)-1``); a map over one wave of a
        longer run passes the run-wide numbers.
        """
        rows = plan[-1][1] if plan else 0
        if shards is None:
            shards = range(len(plan))
        guard_spec = _guard_spec(guard)
        input_store: SharedArrayStore | None = None
        output_store: SharedArrayStore | None = None
        try:
            if self.policy.transport == SHM:
                if inputs is not None:
                    input_store = SharedArrayStore.create(inputs)
                output_store = SharedArrayStore.zeros(
                    {name: (rows,) for name in (*series_names, _VALID)}
                )
                output_spec: tuple = (SHM, output_store.handle())
            else:
                output_spec = (PICKLE,)
            payloads = []
            for index, (start, stop) in enumerate(plan):
                payload = dict(
                    task,
                    kind=kind,
                    shard=shards[index],
                    start=start,
                    stop=stop,
                    output=output_spec,
                    guard=guard_spec,
                )
                if input_store is not None:
                    payload["input"] = (SHM, input_store.handle())
                elif inputs is not None:
                    payload["input"] = (
                        PICKLE,
                        {
                            name: np.ascontiguousarray(column[start:stop])
                            for name, column in inputs.items()
                        },
                    )
                if per_shard is not None:
                    payload.update(per_shard[index])
                payloads.append(payload)
            context = current_context()
            with context.span(
                "parallel.evaluate",
                kind=kind,
                rows=rows,
                shards=len(plan),
                workers=self.policy.workers,
                transport=self.policy.transport,
            ):
                outcomes, report = self._execute(payloads)
                report = self._heal_quarantined(payloads, outcomes, report)
                return self._merge(
                    rows,
                    dict(zip(shards, plan)),
                    outcomes,
                    output_store,
                    guard.policy if guard is not None else None,
                    report,
                    series_names,
                )
        finally:
            if input_store is not None:
                input_store.unlink()
            if output_store is not None:
                output_store.unlink()

    def _merge(
        self,
        rows: int,
        plan: Mapping[int, tuple[int, int]],
        outcomes: Sequence[tuple[int, _ShardOutcome] | None],
        output_store: SharedArrayStore | None,
        guard_policy: str | None,
        supervision: SupervisionReport | None = None,
        series_names: Sequence[str] = SERIES_NAMES,
    ) -> ParallelEvaluation:
        quarantined = (
            tuple(supervision.quarantined) if supervision is not None else ()
        )
        placed = [entry for entry in outcomes if entry is not None]
        ordered = [outcome for _, outcome in placed]
        if output_store is not None:
            series = {
                name: np.array(output_store.array(name), copy=True)
                for name in series_names
            }
            valid = np.array(output_store.array(_VALID), copy=True) > 0.5
        else:
            # Quarantine can punch holes in the shard sequence, so fill
            # per-range instead of concatenating.
            series = {
                name: np.full(rows, np.nan) for name in series_names
            }
            valid = np.zeros(rows, dtype=bool)
            for outcome in ordered:
                for name in series_names:
                    series[name][outcome.start : outcome.stop] = (
                        outcome.series[name]
                    )
                valid[outcome.start : outcome.stop] = outcome.valid
        # The shm output store starts zeroed, so quarantined rows must be
        # NaN-masked explicitly — a silent zero is a wrong answer; a NaN
        # plus a False validity bit is a flagged missing one.
        kept = np.ones(rows, dtype=bool)
        for shard in quarantined:
            start, stop = plan[shard]
            for name in series_names:
                series[name][start:stop] = np.nan
            valid[start:stop] = kept[start:stop] = False
        diagnostics = _merge_diagnostics(ordered)
        partial: PartialResult | None = None
        if quarantined:
            fails = final_failures(supervision)
            ranges = tuple(plan[shard] for shard in quarantined)
            partial = PartialResult(
                quarantined=quarantined,
                ranges=ranges,
                failures=fails,
                retries=supervision.retries,
                respawns=supervision.respawns,
            )
            diagnostics = diagnostics + tuple(
                ColumnDiagnostic(
                    column="<run>",
                    reason=QUARANTINED,
                    indices=tuple(range(start, stop)),
                    values=(),
                    detail=(
                        f"shard {shard} quarantined after "
                        f"{failure.attempt} attempt(s): {failure.cause}"
                    ),
                )
                for shard, (start, stop), failure in zip(
                    quarantined, ranges, fails
                )
            )
            warnings.warn(
                f"degraded run ({len(plan)} shard(s) planned): "
                f"{partial.summary()}",
                RobustnessWarning,
                stacklevel=4,
            )
        shards = tuple(
            ShardReport(
                shard=outcome.shard,
                start=outcome.start,
                stop=outcome.stop,
                worker=worker,
                seconds=outcome.seconds,
            )
            for worker, outcome in placed
        )
        context = current_context()
        if context.enabled:
            for report in shards:
                with context.span(
                    "parallel.shard",
                    shard=report.shard,
                    worker=report.worker,
                    rows=report.rows,
                    worker_seconds=round(report.seconds, 6),
                ):
                    pass
                context.count("parallel.shards")
                context.count(
                    f"parallel.worker{report.worker}.rows", report.rows
                )
                context.observe("parallel.shard_seconds", report.seconds)
        if guard_policy is not None:
            # Judge the guard on the rows that actually evaluated (`kept`);
            # rows lost to quarantine are accounted by the PartialResult.
            # A fully masked evaluation warns like any other: whether the
            # whole run kept a row (`require_survivors`) is the caller's
            # verdict.
            _warn_merged(
                guard_policy,
                int(np.count_nonzero(kept)),
                int(np.count_nonzero(kept & ~valid)),
                any(outcome.repaired for outcome in ordered),
                tuple(d for d in diagnostics if d.reason != QUARANTINED),
            )
        return ParallelEvaluation(
            rows=rows,
            valid=valid,
            series=series,
            diagnostics=diagnostics,
            repaired=any(outcome.repaired for outcome in ordered),
            shards=shards,
            partial=partial,
            supervision=supervision,
        )

    # --- public workloads -----------------------------------------------

    def evaluate_columns(
        self,
        base: "ActScenario",
        size: int,
        columns: Mapping[str, np.ndarray] | None = None,
        *,
        guard: "GuardedEngine | None" = None,
        prevalidated: bool = False,
    ) -> ParallelEvaluation:
        """Shard and evaluate raw scenario columns over ``base``.

        The parallel twin of building a batch with
        :meth:`~repro.engine.batch.ScenarioBatch.from_columns` (or running
        ``guard.evaluate_columns``) and evaluating it — per-shard strict
        validation preserves the serial error behavior unless
        ``prevalidated`` asserts the columns were already validated.
        """
        return _survivors_required(
            self._map(
                "columns",
                shard_plan(size, self.policy.shard_rows),
                {"base": base, "prevalidated": prevalidated},
                guard=guard,
                inputs=broadcast_columns(base, size, columns),
            ),
            guard,
        )

    def evaluate_batch(
        self,
        batch: ScenarioBatch,
        *,
        guard: "GuardedEngine | None" = None,
    ) -> ParallelEvaluation:
        """Shard and evaluate an already-constructed scenario batch.

        The batch's strict constructor already validated every column, so
        unguarded shards skip per-element re-validation.
        """
        return self.evaluate_columns(
            batch.scenario(0),
            len(batch),
            {name: batch.column(name) for name in FIELD_NAMES},
            guard=guard,
            prevalidated=guard is None,
        )

    def evaluate_planned(self, plan) -> ParallelEvaluation:
        """Materialize a factored sweep plan's rows across workers.

        The parent evaluates Eq. 1-8 once per marginal grid
        (:meth:`repro.engine.plan.SweepPlan.partial_series`) and ships
        the small factor tables by series name inside every task;
        workers only gather their own row range out of the broadcasted
        outer product.  Results merge shard-ordered, so the evaluation
        is bit-identical to the serial planned path at any worker count.
        """
        factors = {
            name: np.ascontiguousarray(np.asarray(factor))
            for name, factor in plan.partial_series().items()
        }
        return self._map(
            "planned",
            shard_plan(len(plan), self.policy.shard_rows),
            {"shape": plan.shape, "factors": factors},
        )

    def run_monte_carlo(
        self,
        base: "ActScenario",
        parameters: Sequence[str] | None = None,
        *,
        draws: int = 2000,
        seed: int = 2022,
        distribution: str = TRIANGULAR,
        ranges: Mapping[str, tuple[float, float]] | None = None,
        guard: "GuardedEngine | None" = None,
    ) -> ParallelEvaluation:
        """Sample and evaluate a whole Monte Carlo run in one shard map.

        Workers sample their own shards from the one draw stream
        (:class:`~repro.analysis.montecarlo.ShardColumnSource` with
        ``shard_rows=policy.shard_rows``), so the samples equal
        :func:`~repro.analysis.montecarlo.run_monte_carlo`'s under the
        same policy.  Returns the full evaluation (validity, diagnostics,
        supervision report), which the supervision suites inspect;
        analysis code calls ``run_monte_carlo`` instead.
        """
        source = ShardColumnSource.create(
            base,
            parameters,
            draws=draws,
            seed=seed,
            shard_rows=self.policy.shard_rows,
            distribution=distribution,
            ranges=ranges,
        )
        return _survivors_required(
            self.evaluate_source(source, guard=guard), guard
        )

    def evaluate_source(
        self,
        source: ShardColumnSource,
        start: int = 0,
        stop: int | None = None,
        *,
        guard: "GuardedEngine | None" = None,
    ) -> ParallelEvaluation:
        """Sample and evaluate rows ``[start, stop)`` of a sharded stream.

        One task per source shard in the (shard-aligned) range, each
        carrying that shard's child seed rather than sampled columns, so
        the workers sample their own shards.  Shards keep their run-wide
        source numbers; the evaluation's rows and quarantined ranges are
        relative to ``start`` (the chunked Monte Carlo driver evaluates
        one wave of a long run per call).  A fully masked wave is ``NaN``
        rows: whether the run kept a row is the caller's verdict.
        """
        indices = source.shards(start, stop)
        return self._map(
            "montecarlo",
            tuple(
                (lo - start, hi - start)
                for lo, hi in (source.plan[index] for index in indices)
            ),
            {
                "base": source.base,
                "ranges": source.ranges,
                "distribution": source.distribution,
            },
            guard=guard,
            per_shard=[{"seed": source.seeds[index]} for index in indices],
            shards=indices,
        )

    def evaluate_schedule(
        self,
        spec: "ScheduleSweepSpec",
        *,
        start: int = 0,
        stop: int | None = None,
    ) -> ParallelEvaluation:
        """Shard and evaluate a scheduling policy sweep over ``spec``.

        Each worker rebuilds its shard's scenario rows from the spec with
        :func:`~repro.scheduling.sweep.build_schedule_batch` — a pure
        function of ``(spec, row)`` — and evaluates them through the
        vectorized :func:`~repro.scheduling.batch.evaluate_schedule_batch`
        path, so the merged series are bit-identical at any worker count,
        exactly like the Monte Carlo workload.  The returned evaluation's
        ``series`` carries :data:`~repro.scheduling.batch.SCHEDULE_SERIES`
        (not the Eq. 1-8 names); infeasible scenario rows are ``NaN``
        with ``feasible == 0.0`` rather than masked ``valid`` bits.

        ``start``/``stop`` select an absolute row range of the sweep
        (default: all ``spec.rows`` rows) — the chunked checkpoint path
        uses this to resume mid-sweep.
        """
        from repro.scheduling.batch import SCHEDULE_SERIES
        from repro.scheduling.sweep import ScheduleSweepSpec

        if not isinstance(spec, ScheduleSweepSpec):
            raise ParameterError(
                "evaluate_schedule needs a ScheduleSweepSpec, got "
                f"{type(spec).__name__}"
            )
        total = spec.rows
        if stop is None:
            stop = total
        if not 0 <= start < stop <= total:
            raise ParameterError(
                f"invalid schedule row range [{start}, {stop}) for a "
                f"{total}-row sweep"
            )
        return self._map(
            "schedule",
            shard_plan(stop - start, self.policy.shard_rows),
            {"spec": spec, "row_offset": start},
            series_names=SCHEDULE_SERIES,
        )

    def pareto_mask(self, objectives: np.ndarray) -> np.ndarray:
        """Sharded non-dominated mask over an ``(n, m)`` objective matrix.

        Each shard tests its candidate rows against the *full* matrix, so
        the merged mask equals :func:`repro.dse.pareto.pareto_mask`
        exactly (boolean comparisons — no arithmetic to reorder).  Falls
        back to the serial mask for workloads too small to shard.
        """
        matrix = np.ascontiguousarray(objectives, dtype=np.float64)
        rows = matrix.shape[0] if matrix.ndim == 2 else 0
        if not self.policy.parallel or rows < 2:
            return _serial_pareto_mask(matrix)
        # Pareto shards are quadratic in work, so split finer than the
        # row-linear kernel shards: one slice per worker, capped by the
        # policy's shard size.
        per_worker = -(-rows // self.policy.workers)
        plan = shard_plan(rows, min(self.policy.shard_rows, per_worker))
        input_store: SharedArrayStore | None = None
        try:
            if self.policy.transport == SHM:
                input_store = SharedArrayStore.create({"objectives": matrix})
                input_spec: tuple = (SHM, input_store.handle())
            else:
                input_spec = (PICKLE, matrix)
            payloads = [
                {
                    "kind": "pareto",
                    "shard": index,
                    "start": start,
                    "stop": stop,
                    "input": input_spec,
                }
                for index, (start, stop) in enumerate(plan)
            ]
            context = current_context()
            with context.span(
                "parallel.evaluate",
                kind="pareto",
                rows=rows,
                shards=len(plan),
                workers=self.policy.workers,
                transport=self.policy.transport,
            ):
                outcomes, report = self._execute(payloads)
            missing = [
                index
                for index, entry in enumerate(outcomes)
                if entry is None
            ]
            if missing:
                # A non-dominance mask with holes is not a weaker answer,
                # it is a wrong one — quarantine cannot degrade pareto.
                raise ShardFailedError(
                    f"pareto shard(s) {missing} quarantined; a partial "
                    f"non-dominance mask would be silently wrong",
                    shard=missing[0],
                    attempts=self.policy.max_retries + 1,
                    cause="quarantined",
                )
            return np.concatenate(
                [outcome.mask for _, outcome in outcomes]
            )
        finally:
            if input_store is not None:
                input_store.unlink()

    # --- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool (idempotent; runner stays reusable —
        the next parallel call starts a fresh pool)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

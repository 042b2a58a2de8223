"""The parallel execution layer: shard, fan out, merge — bit-identically.

:class:`ParallelRunner` takes one workload whose workers can make their
own inputs — a Monte Carlo draw stream (workers sample their shards from
shipped seeds), a scheduling sweep spec (workers rebuild their rows), or
a Pareto objective matrix — splits it into contiguous row shards with
:func:`~repro.parallel.policy.shard_plan`, evaluates the shards on a
persistent worker-process pool, and merges the per-shard outputs back in
shard order into a :class:`ParallelEvaluation`.  Grid sweeps are not
among them: the Eq. 1-8 kernel evaluates a row faster than the row's
columns can be shipped to a worker and back.

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

Transport: tasks and results are pickled between the parent and the pool.
Tasks carry seeds and specs, not columns, and each shard returns only
the series its task names (a Monte Carlo shard returns ``total_g``), so
no per-row data crosses a process boundary except the results the
caller keeps and, for Pareto shards, the objective matrix.

Guarded evaluation works per shard: each worker reconstructs the
:class:`~repro.robustness.guard.GuardedEngine` from its config and
evaluates its shard; a rejected shard raises the guard's
:class:`~repro.core.errors.ValidationError` with its diagnostics
translated to rows of the run.  Rows of a shard quarantined under
``failure_policy="degrade"`` are ``NaN`` with a ``False`` validity bit and
a ``"quarantined"`` diagnostic.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.analysis.montecarlo import ShardColumnSource, sample_shard_columns
from repro.core.errors import (
    ParameterError,
    ReproError,
    ShardFailedError,
    ValidationError,
)
from repro.dse.pareto import pareto_mask as _serial_pareto_mask
from repro.engine.batch import ScenarioBatch
from repro.engine.cache import EvaluationCache
from repro.engine.kernels import BatchResult, evaluate_batch
from repro.obs.context import current_context
from repro.parallel.policy import (
    FAIL_FAST,
    ExecutionPolicy,
    resolve_policy,
    shard_plan,
)
from repro.parallel.pool import WorkerPool
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
    QUARANTINED,
    ColumnDiagnostic,
    GuardedEngine,
    RobustnessWarning,
    at_run_rows,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduling.sweep import ScheduleSweepSpec

#: The one series a Monte Carlo shard returns: the driver keeps nothing else.
MC_SERIES: tuple[str, ...] = ("total_g",)


def _guard_spec(guard: "GuardedEngine | None") -> dict[str, Any] | None:
    """A guard's picklable configuration (caches never cross processes)."""
    if guard is None:
        return None
    return {
        "policy": guard.policy,
        "ranges": dict(guard.ranges) if guard.ranges is not None else None,
        "tolerance": guard.tolerance,
    }


@dataclass(frozen=True)
class _ShardOutcome:
    """What one worker hands back for one shard."""

    shard: int
    start: int
    stop: int
    seconds: float
    series: dict[str, np.ndarray] | None  # not for pareto tasks
    mask: np.ndarray | None  # pareto tasks only


def _evaluate_guarded(
    task: dict, columns: Mapping[str, np.ndarray], count: int
) -> BatchResult:
    """One shard through a locally-reconstructed guarded engine; a
    rejection names rows of the run (``row_offset`` + shard start)."""
    spec = task["guard"]
    guard = GuardedEngine(
        policy=spec["policy"],
        ranges=spec["ranges"],
        # A shard is evaluated once: keep it out of the process-wide cache.
        cache=EvaluationCache(capacity=1),
        tolerance=spec["tolerance"],
    )
    try:
        return guard.evaluate_columns(
            task["base"], count, columns, identity_key=task["identity_key"]
        ).result
    except ValidationError as error:
        raise at_run_rows(error, task["row_offset"] + task["start"]) from None


def _evaluate_shard(task: dict, count: int) -> dict[str, np.ndarray]:
    """Build one shard's rows from its task, evaluate them, and return the
    task's ``series_names``."""
    names = task["series_names"]
    if task["kind"] == "schedule":
        # Lazy imports keep the scheduling stack out of workers that never
        # run a scheduling shard (and avoid an import cycle at module
        # load: repro.scheduling.sweep itself reaches back into this
        # package for the chunked checkpoint path).
        from repro.scheduling.batch import evaluate_schedule_batch
        from repro.scheduling.sweep import build_schedule_batch

        offset = task["row_offset"]
        batch = build_schedule_batch(
            task["spec"], offset + task["start"], offset + task["stop"]
        )
        result = evaluate_schedule_batch(batch)
    else:
        columns = sample_shard_columns(
            task["base"],
            task["ranges"],
            count,
            task["seed"],
            task["distribution"],
        )
        if task["guard"] is not None:
            result = _evaluate_guarded(task, columns, count)
        else:
            result = evaluate_batch(
                ScenarioBatch.from_columns(
                    task["base"],
                    count,
                    columns,
                    identity_key=task["identity_key"],
                )
            )
    return {name: getattr(result, name) for name in names}


def _run_shard(task: dict) -> _ShardOutcome:
    """Worker entry point: evaluate one shard of one workload.

    Must stay module-level (pickled by reference under both ``fork`` and
    ``spawn``).  Handles three task kinds — ``"montecarlo"`` (sample this
    shard from its own SeedSequence child, then evaluate), ``"schedule"``
    (rebuild and evaluate this shard's scheduling rows), and ``"pareto"``
    (non-dominance of this shard's rows against the full objective
    matrix).

    When the runner armed a chaos plan, faults fire here: at shard start
    (kill / stall) and at shard finish (result-message drop, after the
    work completed).  The import is lazy and only on faulted tasks, so
    the healthy path never touches the robustness package from a worker.
    """
    started = time.perf_counter()
    shard = task["shard"]
    start, stop = task["start"], task["stop"]

    fault_spec = task.get("fault")
    if fault_spec is not None:
        from repro.robustness.faultinject import apply_process_faults

        apply_process_faults(fault_spec, shard, "start")

    series = mask = None
    if task["kind"] == "pareto":
        matrix = task["objectives"]
        block = matrix[start:stop]
        # Same comparison semantics as repro.dse.pareto.pareto_mask,
        # restricted to this shard's candidate rows.
        no_worse = (matrix[:, None, :] <= block[None, :, :]).all(axis=2)
        better = (matrix[:, None, :] < block[None, :, :]).any(axis=2)
        mask = np.array(~((no_worse & better).any(axis=0)), dtype=bool)
    else:
        series = _evaluate_shard(task, stop - start)
    if fault_spec is not None:
        apply_process_faults(fault_spec, shard, "finish")
    return _ShardOutcome(
        shard=shard,
        start=start,
        stop=stop,
        seconds=time.perf_counter() - started,
        series=series,
        mask=mask,
    )


def _run_shard_in_process(task: dict) -> "_ShardOutcome | BaseException":
    """Run one shard in the parent, returning (not raising) a failure that
    another attempt might survive: any non-model exception, a chaos-dropped
    result included.  Model errors and genuine interrupts propagate."""
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
        valid: Per-row flag, ``False`` only for rows of quarantined shards.
        series: The series the workload's tasks named (``total_g`` for
            Monte Carlo, the scheduling series for a schedule sweep) at
            full length, ``NaN`` on quarantined rows.
        diagnostics: One ``"quarantined"`` diagnostic per quarantined
            shard, with **global** row indices.
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

    def full_series(self, name: str) -> np.ndarray:
        """One output series at original length, ``NaN`` where quarantined."""
        if name not in self.series:
            raise ParameterError(
                f"unknown output series {name!r} "
                f"(have: {', '.join(self.series)})"
            )
        return self.series[name]

    def samples(self) -> np.ndarray:
        """The surviving rows' total footprints (compact, original order)."""
        return np.ascontiguousarray(self.series["total_g"][self.valid])


class ParallelRunner:
    """Shards workloads over a persistent worker pool, per one policy.

    The pool starts lazily on the first parallel call and is reused
    across calls until :meth:`close` (or context-manager exit) — reusing
    one runner amortizes worker startup across a whole chunked run or
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
        # A worker beyond the payload count would have nothing to do, so
        # the pool never outgrows a call's shards; a later call with more
        # shards replaces a pool that is too small for it.
        workers = max(1, min(self.policy.workers, len(payloads)))
        if self._pool is not None and self._pool.workers < workers:
            self.close()
        if self._pool is None:
            self._pool = WorkerPool(
                workers,
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
        failure (any non-model exception, a chaos-dropped result
        included) is retried under the same budget and backoff as the
        parallel path, and model errors propagate immediately.
        """
        outcomes: list[tuple[int, _ShardOutcome] | None] = [None] * len(payloads)
        ledger = RetryLedger(self.policy)
        for index, payload in enumerate(payloads):
            while True:
                outcome = _run_shard_in_process(payload)
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
        (a poisoned environment, a resource limit) and gives each
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
        series_names: Sequence[str],
        *,
        guard: "GuardedEngine | None" = None,
        per_shard: Sequence[Mapping[str, Any]] | None = None,
        shards: Sequence[int] | None = None,
    ) -> ParallelEvaluation:
        """The shard-map core: fan one workload out over ``plan``, merge it.

        Each payload is ``task`` plus the shard's row range, its
        ``per_shard`` fields, the guard spec and the ``series_names`` the
        worker returns.  Shards execute, quarantined ones get the
        optional serial fallback, and the outcomes merge in shard order.
        ``shards`` numbers the plan's shards for fault plans,
        supervision, reports and spans (default ``0..len(plan)-1``); a
        map over one wave of a longer run passes the run-wide numbers.
        """
        rows = plan[-1][1] if plan else 0
        if shards is None:
            shards = range(len(plan))
        series_names = tuple(series_names)
        guard_spec = _guard_spec(guard)
        payloads = []
        for index, (start, stop) in enumerate(plan):
            payload = dict(
                task,
                kind=kind,
                shard=shards[index],
                start=start,
                stop=stop,
                guard=guard_spec,
                series_names=series_names,
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
        ):
            outcomes, report = self._execute(payloads)
            report = self._heal_quarantined(payloads, outcomes, report)
            return self._merge(
                rows, dict(zip(shards, plan)), outcomes, report, series_names
            )

    def _merge(
        self,
        rows: int,
        plan: Mapping[int, tuple[int, int]],
        outcomes: Sequence[tuple[int, _ShardOutcome] | None],
        supervision: SupervisionReport | None,
        series_names: Sequence[str],
    ) -> ParallelEvaluation:
        quarantined = (
            tuple(supervision.quarantined) if supervision is not None else ()
        )
        placed = [entry for entry in outcomes if entry is not None]
        # Quarantine can punch holes in the shard sequence, so fill
        # per-range instead of concatenating: a quarantined row stays NaN
        # with a False validity bit — a flagged missing answer, never a
        # silent zero.
        series = {name: np.full(rows, np.nan) for name in series_names}
        valid = np.zeros(rows, dtype=bool)
        for _, outcome in placed:
            for name in series_names:
                series[name][outcome.start : outcome.stop] = outcome.series[name]
            valid[outcome.start : outcome.stop] = True
        diagnostics: tuple[ColumnDiagnostic, ...] = ()
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
            diagnostics = tuple(
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
        return ParallelEvaluation(
            rows=rows,
            valid=valid,
            series=series,
            diagnostics=diagnostics,
            shards=shards,
            partial=partial,
            supervision=supervision,
        )

    # --- public workloads -----------------------------------------------

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
        the workers sample their own shards, and the shard's
        :meth:`~repro.analysis.montecarlo.ShardColumnSource.identity_key`,
        so they key its batch without hashing the columns.  Workers
        return ``total_g`` only (:data:`MC_SERIES`), the one series the
        Monte Carlo driver keeps.  Shards keep their run-wide source
        numbers; the evaluation's rows and quarantined ranges are relative
        to ``start`` (the chunked Monte Carlo driver evaluates one wave of
        a long run per call), while a ``guard``'s rejection names rows of
        the whole stream.
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
                "row_offset": start,
            },
            MC_SERIES,
            guard=guard,
            per_shard=[
                {
                    "seed": source.seeds[index],
                    "identity_key": source.identity_key(*source.plan[index]),
                }
                for index in indices
            ],
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
        with ``feasible == 0.0``, not ``False`` ``valid`` bits.

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
            SCHEDULE_SERIES,
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
        payloads = [
            {
                "kind": "pareto",
                "shard": index,
                "start": start,
                "stop": stop,
                "objectives": matrix,
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
        ):
            outcomes, report = self._execute(payloads)
        missing = [
            index for index, entry in enumerate(outcomes) if entry is None
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
        return np.concatenate([outcome.mask for _, outcome in outcomes])

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

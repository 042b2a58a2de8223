"""The parallel execution layer: shard, fan out, merge — bit-identically.

:class:`ParallelRunner` takes one workload whose workers can make their
own inputs — a Monte Carlo draw stream (workers sample their shards from
shipped seeds), a scheduling sweep spec (workers rebuild their rows), or
a Pareto objective matrix — splits it into contiguous row shards with
:func:`~repro.parallel.policy.shard_plan`, evaluates the shards on a
persistent worker-process pool — one worker or many, always through the
one :class:`~repro.parallel.supervisor.ShardSupervisor` loop — and merges
the per-shard outputs back in shard order into a
:class:`ParallelEvaluation`.  Grid sweeps are not
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
:class:`~repro.core.errors.ValidationError` (or
:class:`~repro.core.errors.DivergenceError`) naming rows of the run.
Rows of a shard quarantined under ``failure_policy="degrade"`` are
``NaN``, and :attr:`ParallelEvaluation.partial` names their ranges.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.analysis.montecarlo import ShardColumnSource, sample_shard_columns
from repro.core.errors import (
    DivergenceError,
    ParameterError,
    ShardFailedError,
    ValidationError,
)
from repro.dse.pareto import pareto_mask as _serial_pareto_mask
from repro.engine.batch import ScenarioBatch
from repro.engine.cache import EvaluationCache
from repro.engine.kernels import BatchResult, evaluate_batch
from repro.obs.context import current_context
from repro.parallel.policy import ExecutionPolicy, resolve_policy, shard_plan
from repro.parallel.pool import WorkerPool
from repro.parallel.supervisor import (
    PartialResult,
    ShardSupervisor,
    SupervisionReport,
    final_failures,
)
from repro.robustness.guard import GuardedEngine, RobustnessWarning, at_run_rows

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
    except (ValidationError, DivergenceError) as error:
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
        series: The series the workload's tasks named (``total_g`` for
            Monte Carlo, the scheduling series for a schedule sweep) at
            full length, ``NaN`` on quarantined rows.
        shards: Per-shard placement and timing reports, in shard order.
        supervision: The run's retry/respawn/quarantine accounting.
        partial: Quarantine account of a degraded run (``None`` for
            complete runs): the shards lost and their row ranges, which
            are ``NaN`` in every series.
    """

    rows: int
    series: Mapping[str, np.ndarray]
    shards: tuple[ShardReport, ...]
    supervision: SupervisionReport
    partial: PartialResult | None = None

    def __post_init__(self) -> None:
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


class ParallelRunner:
    """Shards workloads over a persistent worker pool, per one policy.

    The pool starts lazily on the first call and is reused across calls
    until :meth:`close` (or context-manager exit) — reusing one runner
    amortizes worker startup across a whole chunked run or benchmark.
    ``workers=1`` is a one-worker pool; the in-process serial path is the
    chunked driver's, which every public entry point takes at one worker.
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
    ) -> tuple[list[tuple[int, _ShardOutcome] | None], SupervisionReport]:
        """Run the shard payloads on the pool under the policy's failure
        semantics.

        Returns ``(outcomes, report)`` — ``outcomes[i]`` is the
        ``(worker, _ShardOutcome)`` pair for payload ``i`` or ``None``
        when it was quarantined; ``report`` names shards by their
        payloads' ``"shard"`` numbers.
        """
        if self._fault_spec is not None:
            payloads = [
                dict(payload, fault=self._fault_spec) for payload in payloads
            ]
        # A worker beyond the payload count would have nothing to do, so
        # the pool never outgrows a call's shards; a later call with more
        # shards replaces a pool that is too small for it.
        workers = max(1, min(self.policy.workers, len(payloads)))
        if self._pool is not None and self._pool.workers < workers:
            self.close()
        if self._pool is None:
            self._pool = WorkerPool(workers)
        return ShardSupervisor(self._pool, self.policy).run(
            _run_shard, payloads, [payload["shard"] for payload in payloads]
        )

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
        worker returns.  Shards execute and the outcomes merge in shard
        order.
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
            return self._merge(
                rows, dict(zip(shards, plan)), outcomes, report, series_names
            )

    def _merge(
        self,
        rows: int,
        plan: Mapping[int, tuple[int, int]],
        outcomes: Sequence[tuple[int, _ShardOutcome] | None],
        supervision: SupervisionReport,
        series_names: Sequence[str],
    ) -> ParallelEvaluation:
        quarantined = supervision.quarantined
        placed = [entry for entry in outcomes if entry is not None]
        # Quarantine can punch holes in the shard sequence, so fill
        # per-range instead of concatenating: a quarantined row stays NaN
        # — a flagged missing answer, never a silent zero.
        series = {name: np.full(rows, np.nan) for name in series_names}
        for _, outcome in placed:
            for name in series_names:
                series[name][outcome.start : outcome.stop] = outcome.series[name]
        partial: PartialResult | None = None
        if quarantined:
            partial = PartialResult(
                quarantined=quarantined,
                ranges=tuple(plan[shard] for shard in quarantined),
                failures=final_failures(supervision),
                retries=supervision.retries,
                respawns=supervision.respawns,
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
            series=series,
            shards=shards,
            supervision=supervision,
            partial=partial,
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
        if rows < 2:
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
            outcomes, _ = self._execute(payloads)
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
        the next call starts a fresh pool)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

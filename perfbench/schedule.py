"""The ``schedule`` workload: serial ``run_policy_sweep`` calls over
20,000 windows x the four policies, a fresh seed per operation.

The engine kernel is not used at all; the cost sits in building the
window draws and in the vectorized fleet simulation.  Each result is
checked on sampled rows with ``verify_schedule_batch`` (the scalar
simulator as the oracle) over the rows the sweep itself produced.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.errors import ValidationError
from repro.core.intensity import solar_diurnal_trace
from repro.engine.cache import EvaluationCache
from repro.scheduling import batch as schedule_batch_module
from repro.scheduling import sweep as schedule_sweep_module
from repro.scheduling.batch import SCHEDULE_SERIES, ScheduleBatchResult, verify_schedule_batch
from repro.scheduling.sweep import ScheduleSweepSpec, build_schedule_batch, run_policy_sweep

from common import CorrectnessError, OpWorkload, Tracer, check, op_seed

#: The ``act-repro schedule`` default grid: solar diurnal at 400 g/kWh.
TRACE = solar_diurnal_trace(400.0)
#: Rows cross-checked against the scalar simulator per operation.
CHECKED_ROWS = 12


class Schedule(OpWorkload):
    name = "schedule"
    stages = (
        "scheduling.build",
        "engine.cache_key",
        "scheduling.evaluate",
        "scheduling.summarize",
    )

    def __init__(self, ctx):
        super().__init__(ctx)
        self.windows = 50 if ctx.tiny else 20_000
        self.rows = ScheduleSweepSpec(trace=TRACE, windows=self.windows).rows
        self.cache: EvaluationCache | None = None

    def operation(self, spec: ScheduleSweepSpec) -> float:
        started = time.perf_counter()
        result = run_policy_sweep(spec, cache=self.cache)
        elapsed = time.perf_counter() - started
        self.items += spec.rows
        self.checked(lambda: self.check(spec, result))
        return elapsed

    def check(self, spec: ScheduleSweepSpec, result) -> None:
        series = {name: np.asarray(result.series[name]) for name in SCHEDULE_SERIES}
        if self.ctx.corrupt:
            series["emissions_g"] = series["emissions_g"] * (1.0 + 1e-6)
        for name, values in series.items():
            check(values.shape == (spec.rows,), f"{name} has {values.shape} rows, not {spec.rows}")
        feasible = series["feasible"]
        check(bool(np.isin(feasible, (0.0, 1.0)).all()), "feasible is not 0/1")
        check(
            bool(np.isfinite(series["emissions_g"][feasible == 1.0]).all()),
            "non-finite emissions on a feasible row",
        )
        check(len(result.points) == len(spec.policies), "missing policy points")
        for row in np.unique(np.linspace(0, spec.rows - 1, CHECKED_ROWS).astype(int)):
            row = int(row)
            produced = ScheduleBatchResult(
                **{name: values[row : row + 1] for name, values in series.items()}
            )
            try:
                verify_schedule_batch(
                    build_schedule_batch(spec, row, row + 1), produced, sample=1
                )
            except ValidationError as error:
                raise CorrectnessError(f"row {row}: {error}") from None

    def setup(self, repeat: int) -> None:
        """A private cache and one warm-up sweep of a twentieth of the
        windows (a full one would triple the set-up time), checked."""
        self.cache = EvaluationCache(capacity=1)
        windows = max(1, self.windows // 20)
        self.operation(
            ScheduleSweepSpec(trace=TRACE, windows=windows, seed=op_seed(self.ctx.seed, 1, repeat))
        )

    def timed(self, index: int) -> float:
        return self.operation(
            ScheduleSweepSpec(trace=TRACE, windows=self.windows, seed=op_seed(self.ctx.seed, 0, index))
        )

    def begin_trace(self, tracer: Tracer) -> None:
        tracer.wrap(schedule_sweep_module, "build_schedule_batch", "scheduling.build")
        tracer.wrap(schedule_batch_module, "schedule_batch_key", "engine.cache_key")
        tracer.wrap(schedule_batch_module, "evaluate_schedule_batch", "scheduling.evaluate")
        tracer.wrap(schedule_sweep_module, "summarize_sweep", "scheduling.summarize")

    def layers(self, tracer: Tracer, ops: int) -> dict[str, float]:
        return {
            "scheduling.build_s": tracer.per_op("scheduling.build", ops),
            "scheduling.evaluate_s": tracer.per_op("scheduling.evaluate", ops),
            "scheduling.summarize_s": tracer.per_op("scheduling.summarize", ops),
            "engine.cache_key_s": tracer.per_op("engine.cache_key", ops),
            "engine.cache_hit_ratio": self.cache.stats().hit_rate,
        }


WORKLOADS = {Schedule.name: Schedule}

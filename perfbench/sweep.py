"""The ``sweep`` workload: a seeded stream of grid sweeps plus argmin.

Operations come in blocks of 20: nineteen small 2-3-axis grids below the
planner's 512-point threshold (dense path; per-call overhead dominates)
and one 4-axis grid of 10^5-10^6 points (the planner engages).  The
large grid's side length cycles through a fixed list so every seed sees
the same size mix; axis values are drawn fresh for every call, so the
private cache never hits.  ``latency_p50_ms`` follows the small calls,
``items_per_s`` and ``latency_p99_ms`` the planned ones.

Each result is checked against the scalar model at the argmin row and
at two random rows, whose parameters the benchmark computes from its own
grids; the argmin value must also be no larger than those rows' values.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.scenario import PARAMETER_RANGES, ActScenario
from repro.dse.sweep import sweep_grid_batched
from repro.engine import plan as plan_module
from repro.engine.batch import ScenarioBatch
from repro.engine.cache import EvaluationCache
from repro.engine.kernels import BatchResult

from common import OpWorkload, Tracer, check, op_seed
from montecarlo import trace_engine

SERIES_NAMES = tuple(BatchResult.__dataclass_fields__)
TOLERANCE = 1e-9
BASE = ActScenario()

#: Sweepable axes: every Table 1 parameter except the duration/lifetime
#: pair (a grid over both could put duration above lifetime).
AXES = tuple(
    name for name in PARAMETER_RANGES if name not in ("duration_hours", "lifetime_hours")
)
BLOCK = 20
#: Side lengths of the large 4-axis grids, cycled: 18^4 ~ 1.0e5 ... 32^4 ~ 1.0e6.
LARGE_SIDES = (18, 20, 22, 24, 26, 28, 30, 32)
TINY_SIDES = (6, 7)


class Sweep(OpWorkload):
    name = "sweep"
    #: One set-up is a fraction of a second, so a run can afford many.
    setup_repeats = 9
    stages = (
        "engine.plan",
        "engine.plan_evaluate",
        "engine.plan_verify",
        "engine.dense_call",
    )

    def __init__(self, ctx):
        super().__init__(ctx)
        self.sides = TINY_SIDES if ctx.tiny else LARGE_SIDES
        #: Whole cycles of the large sides, so every part of the run and
        #: every window of ``items_per_s`` holds the same sizes.
        self.block = BLOCK * len(self.sides)
        self.cache: EvaluationCache | None = None
        self.planned_calls = 0
        self.output_bytes = 0.0

    def grids(self, stream: int, index: int) -> dict[str, np.ndarray]:
        """The grid of operation ``index`` (a pure function of the seed)."""
        rng = np.random.default_rng(op_seed(self.ctx.seed, stream, index))
        if index % BLOCK == BLOCK - 1:
            side = self.sides[(index // BLOCK) % len(self.sides)]
            shape = (side,) * 4
        elif rng.random() < 0.5:
            shape = (int(rng.integers(4, 23)), int(rng.integers(4, 23)))
            while shape[0] * shape[1] >= 512:
                shape = (shape[0], shape[1] - 1)
        else:
            shape = tuple(int(n) for n in rng.integers(3, 8, size=3))
        names = rng.choice(len(AXES), size=len(shape), replace=False)
        grids = {}
        for position, count in zip(names, shape):
            name = AXES[position]
            low, high = PARAMETER_RANGES[name]
            grids[name] = rng.uniform(low, high, count)
        return grids

    def operation(self, stream: int, index: int) -> float:
        grids = self.grids(stream, index)
        tracer = self.tracer
        plans_before = tracer.calls["engine.plan"] if tracer else 0
        started = time.perf_counter()
        result = sweep_grid_batched(BASE, grids, cache=self.cache)
        best = result.argmin()
        elapsed = time.perf_counter() - started
        self.items += len(result)
        if tracer is not None:
            if tracer.calls["engine.plan"] > plans_before:
                self.planned_calls += 1
            else:
                tracer.add("engine.dense_call", elapsed)
            self.output_bytes += sum(
                np.asarray(getattr(result.result, name)).nbytes for name in SERIES_NAMES
            )
        self.checked(lambda: self.check(grids, result, best, np.random.default_rng(index)))
        return elapsed

    def check(self, grids, result, best: int, rng) -> None:
        shape = tuple(len(axis) for axis in grids.values())
        size = int(np.prod(shape))
        totals = np.asarray(result.result.total_g)
        if self.ctx.corrupt:
            totals = totals.copy()
            totals[best] *= 1.0 + 1e-6
        check(totals.shape == (size,), f"{totals.shape} outputs for {size} grid points")
        for row in (best, int(rng.integers(size)), int(rng.integers(size))):
            point = np.unravel_index(row, shape)
            params = {
                name: float(axis[i]) for (name, axis), i in zip(grids.items(), point)
            }
            expected = BASE.replace(**params).total_g()
            got = float(totals[row])
            check(
                np.isfinite(got)
                and abs(got - expected) <= TOLERANCE + TOLERANCE * abs(expected),
                f"grid point {row}: {got!r} vs scalar model {expected!r}",
            )
            check(totals[best] <= got, f"argmin {best} is above grid point {row}")

    def setup(self, repeat: int) -> None:
        """A private cache and a warm-up of one block per large side (so
        every large grid size is paid once and the set-up is not a few
        milliseconds of the smallest), checked."""
        # Eight entries hold at most one large result: large calls are
        # twenty operations apart.
        self.cache = EvaluationCache(capacity=8)
        for index in range(BLOCK * len(self.sides)):
            self.operation(1 + repeat, index)
        self.cache.reset_stats()

    def timed(self, index: int) -> float:
        return self.operation(0, index)

    def begin_trace(self, tracer: Tracer) -> None:
        tracer.wrap(plan_module, "plan_product", "engine.plan")
        tracer.wrap(plan_module, "evaluate_plan_cached", "engine.plan_evaluate")
        tracer.wrap(plan_module, "verify_plan", "engine.plan_verify")
        tracer.wrap(ScenarioBatch, "from_product", "engine.batch_build")
        trace_engine(tracer)

    def layers(self, tracer: Tracer, ops: int) -> dict[str, float]:
        planned = max(1, self.planned_calls)
        dense = max(1, ops - self.planned_calls)
        return {
            "engine.plan_s": tracer.total["engine.plan"] / planned,
            "engine.plan_evaluate_s": tracer.total["engine.plan_evaluate"] / planned,
            "engine.plan_verify_s": tracer.total["engine.plan_verify"] / planned,
            "engine.planner_engaged_ratio": self.planned_calls / ops,
            "engine.output_bytes": self.output_bytes / ops,
            "engine.dense_call_s": tracer.total["engine.dense_call"] / dense,
            "engine.batch_build_s": tracer.per_op("engine.batch_build", ops),
            "engine.cache_key_s": tracer.per_op("engine.cache_key", ops),
            "engine.cache_hit_ratio": self.cache.stats().hit_rate,
            "engine.kernel_s": tracer.per_op("engine.kernel", ops),
            "engine.kernel_rows": tracer.counts["engine.kernel.rows"] / ops,
        }


WORKLOADS = {Sweep.name: Sweep}

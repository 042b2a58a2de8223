"""Performance benchmark: batched engine vs the scalar reference path.

Times the two workloads the engine was built for — a 10k-draw Monte Carlo
and a Cartesian grid sweep — on both paths, asserts the batched engine's
advertised speedup (>= 10x points/sec on the Monte Carlo), the guarded
engine's strict-mode overhead budget (< 10% on the same Monte Carlo), and
the observability spine's null-context budget (< ~2%: an untraced run must
not pay for the instrumentation hooks), and writes the measurements to
``BENCH_engine.json`` at the repo root.

A second test appends a ``parallel`` section: a million-draw Monte Carlo,
its chunks dispatched to a persistent :class:`~repro.parallel.WorkerPool`
through :class:`~repro.parallel.ShardSupervisor` as the chunked driver's
parallel waves dispatch them, at several worker counts and shard sizes.
Every figure is best-of-N with the repeat count recorded alongside it;
overhead fractions are stored raw (negative = timer noise) and clamped
to zero only in the printed summary.

A ``backends`` section records the kernel-only throughput of the one
float64 kernel on the same two workloads, under the ``reference`` key
the perf-regression guard compares.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.analysis.montecarlo import run_monte_carlo
from repro.analysis.scenario import ActScenario
from repro.dse.sweep import sweep_grid
from repro.engine import (
    BatchResult,
    EvaluationCache,
    ScenarioBatch,
    evaluate_cached,
    evaluate_plan_cached,
    plan_product,
    verify_plan,
)
from repro.obs.context import RunContext, use_context
from repro.robustness import STRICT, GuardedEngine
from repro.robustness.durability import atomic_write_json

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_engine.json"


def _dense_sweep(base: ActScenario, grids) -> BatchResult:
    """Every Cartesian row of ``grids`` through the kernel (fresh cache)."""
    return evaluate_cached(
        ScenarioBatch.from_product(base, grids), EvaluationCache()
    )


def _planned_sweep(base: ActScenario, grids) -> BatchResult:
    """The factored sweep, as ``sweep_grid_batched`` runs it on a large
    grid: plan, evaluate (fresh cache), sampled cross-check."""
    plan = plan_product(base, grids)
    result = evaluate_plan_cached(plan, EvaluationCache())
    verify_plan(plan, result)
    return result


def _write_payload(payload: dict) -> None:
    """Commit the benchmark JSON atomically (a killed run must leave
    either the previous figures or the new ones, never a torn file —
    the perf-regression guard parses this unconditionally)."""
    atomic_write_json(OUTPUT_PATH, payload)

MC_DRAWS = 10_000
SWEEP_GRIDS = {
    "ci_fab_g_per_kwh": tuple(float(30 + 50 * k) for k in range(12)),
    "fab_yield": tuple(0.5 + 0.05 * k for k in range(10)),
    "ci_use_g_per_kwh": tuple(float(11 + 80 * k) for k in range(10)),
}

#: Monte Carlo size for the parallel section — large enough that the
#: Eq. 1-8 kernel pass, not dispatch overhead, dominates each shard.
PARALLEL_DRAWS = 1_000_000
PARALLEL_REPEATS = 2
PARALLEL_WORKER_COUNTS = (1, 2, 4)
PARALLEL_SHARD_SIZES = (16_384, 65_536, 262_144)


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _clamped(fraction: float) -> float:
    """Overhead for human eyes: timer noise below zero reads as zero."""
    return max(0.0, fraction)


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_perf_engine():
    """Batched Monte Carlo and grid sweep beat the scalar path >= 10x."""
    base = ActScenario()

    # Monte Carlo: identical draws, scalar per-scenario loop vs one kernel
    # pass over the sampled batch.
    scalar_mc = _best_seconds(
        lambda: run_monte_carlo(
            base, draws=MC_DRAWS, seed=2022, response=lambda s: s.total_g()
        ),
        repeats=2,
    )
    # A fresh cache per call keeps the timing honest: we measure the
    # kernels, not a content-hash cache hit on the repeated batch.
    batched_mc = _best_seconds(
        lambda: run_monte_carlo(
            base, draws=MC_DRAWS, seed=2022, cache=EvaluationCache()
        ),
        repeats=5,
    )

    # Grid sweep: 1200-point Cartesian product, scalar replace()+total_g()
    # per point vs one from_product batch.
    sweep_points = 1
    for values in SWEEP_GRIDS.values():
        sweep_points *= len(values)
    scalar_sweep = _best_seconds(
        lambda: sweep_grid(
            SWEEP_GRIDS, lambda **params: base.replace(**params).total_g()
        ),
        repeats=2,
    )
    # This series times the dense batched path it has always measured
    # (a sweep of this size would be planned); the planned path has its
    # own section and gates (test_perf_planner), so the historical
    # speedup keeps its meaning.
    batched_sweep = _best_seconds(
        lambda: _dense_sweep(base, SWEEP_GRIDS), repeats=5
    )

    # Guarded strict mode: the same batched Monte Carlo run through full
    # pre-validation (NaN/Inf, domains, Table 1 ranges) plus the overflow
    # cross-check.  The robustness budget is < 10% over the raw engine.
    guarded_mc = _best_seconds(
        lambda: run_monte_carlo(
            base,
            draws=MC_DRAWS,
            seed=2022,
            guard=GuardedEngine(policy=STRICT, cache=EvaluationCache()),
        ),
        repeats=5,
    )

    # Observability: the null-context budget is measured where the hooks
    # live — the instrumented kernel entry point vs a direct call to the
    # uninstrumented internals on the same batch — and the cost of tracing
    # when switched ON is recorded from a fully-traced Monte Carlo.
    from repro.analysis.montecarlo import sample_scenario_batch
    from repro.engine.kernels import _evaluate_batch_arrays, evaluate_batch

    obs_batch = sample_scenario_batch(base, draws=MC_DRAWS, seed=2022)
    for _ in range(3):  # warm caches so neither path pays first-call costs
        evaluate_batch(obs_batch)

    def _loop(fn, calls: int = 20):
        def run() -> None:
            for _ in range(calls):
                fn(obs_batch)

        return run

    # Interleave the two measurements so clock drift hits both equally.
    raw_kernel = null_kernel = float("inf")
    for _ in range(7):
        raw_kernel = min(
            raw_kernel, _best_seconds(_loop(_evaluate_batch_arrays), repeats=1)
        )
        null_kernel = min(
            null_kernel, _best_seconds(_loop(evaluate_batch), repeats=1)
        )
    raw_kernel /= 20
    null_kernel /= 20

    def _traced_run() -> None:
        with use_context(RunContext.create(describe_git=False)):
            run_monte_carlo(
                base, draws=MC_DRAWS, seed=2022, cache=EvaluationCache()
            )

    traced_mc = _best_seconds(_traced_run, repeats=5)

    mc_speedup = scalar_mc / batched_mc
    sweep_speedup = scalar_sweep / batched_sweep
    guard_overhead = guarded_mc / batched_mc - 1.0
    null_overhead = null_kernel / raw_kernel - 1.0
    traced_overhead = traced_mc / batched_mc - 1.0
    payload = {
        "benchmark": "engine",
        "monte_carlo": {
            "draws": MC_DRAWS,
            "repeats": 5,
            "scalar_seconds": scalar_mc,
            "batched_seconds": batched_mc,
            "scalar_points_per_sec": MC_DRAWS / scalar_mc,
            "batched_points_per_sec": MC_DRAWS / batched_mc,
            "speedup": mc_speedup,
        },
        "grid_sweep": {
            "points": sweep_points,
            "repeats": 5,
            "scalar_seconds": scalar_sweep,
            "batched_seconds": batched_sweep,
            "scalar_points_per_sec": sweep_points / scalar_sweep,
            "batched_points_per_sec": sweep_points / batched_sweep,
            "speedup": sweep_speedup,
        },
        "guarded_monte_carlo": {
            "draws": MC_DRAWS,
            "repeats": 5,
            "policy": STRICT,
            "unguarded_seconds": batched_mc,
            "guarded_seconds": guarded_mc,
            "guarded_points_per_sec": MC_DRAWS / guarded_mc,
            "overhead_fraction": guard_overhead,
        },
        "observability": {
            "rows": MC_DRAWS,
            "repeats": 7,
            "raw_kernel_seconds": raw_kernel,
            "null_context_kernel_seconds": null_kernel,
            "null_overhead_fraction": null_overhead,
            "traced_monte_carlo_seconds": traced_mc,
            "traced_overhead_fraction": traced_overhead,
        },
    }
    existing = {}
    if OUTPUT_PATH.exists():
        try:
            existing = json.loads(OUTPUT_PATH.read_text())
        except (OSError, json.JSONDecodeError):
            existing = {}
    for section in (
        "parallel",
        "supervision",
        "backends",
        "scheduling",
        "planner",
        "durability",
    ):
        if section in existing:
            payload[section] = existing[section]
    _write_payload(payload)
    print()
    print(json.dumps(payload, indent=2))
    # Human summary: raw fractions live in the JSON; negative overheads
    # (timer noise on a quiet run) read as zero here.
    print(
        f"summary: MC {mc_speedup:.1f}x, sweep {sweep_speedup:.1f}x, "
        f"guard overhead {_clamped(guard_overhead):.1%}, "
        f"null-context overhead {_clamped(null_overhead):.1%}, "
        f"traced overhead {_clamped(traced_overhead):.1%}"
    )

    assert mc_speedup >= 10.0, (
        f"batched Monte Carlo only {mc_speedup:.1f}x faster than scalar"
    )
    assert sweep_speedup >= 5.0, (
        f"batched grid sweep only {sweep_speedup:.1f}x faster than scalar"
    )
    assert guard_overhead < 0.10, (
        f"guarded strict mode costs {guard_overhead:.1%} over the raw "
        "engine (budget: 10%)"
    )
    # The null path adds one context lookup and an ``enabled`` check
    # (~100 ns against a ~300 µs kernel pass); the budget is ~2% with the
    # rest of the 5% gate absorbing perf_counter jitter on shared runners.
    assert null_overhead < 0.05, (
        f"null observability context costs {null_overhead:.1%} on the "
        "kernel pass (budget: ~2% + timer noise)"
    )


def test_perf_backends():
    """Kernel-only throughput of the float64 kernel.

    Evaluates the same prebuilt batches — the 10k-draw Monte Carlo sample
    and the 1200-point sweep product — through the raw kernel pass,
    interleaving the two workloads each round so clock drift hits both
    equally.  Merges a ``backends`` section into ``BENCH_engine.json``
    with one ``reference`` entry (the key the perf guard compares).
    """
    from repro.analysis.montecarlo import sample_scenario_batch
    from repro.engine import ScenarioBatch
    from repro.engine.kernels import _evaluate_batch_arrays

    base = ActScenario()
    mc_batch = sample_scenario_batch(base, draws=MC_DRAWS, seed=2022)
    sweep_batch = ScenarioBatch.from_product(base, SWEEP_GRIDS)
    sweep_points = len(sweep_batch)

    calls = 20
    rounds = 7

    def _loop(batch):
        def run() -> None:
            for _ in range(calls):
                _evaluate_batch_arrays(batch)

        return run

    _evaluate_batch_arrays(mc_batch)  # warm-up
    _evaluate_batch_arrays(sweep_batch)

    mc_seconds = sweep_seconds = float("inf")
    for _ in range(rounds):
        mc_seconds = min(
            mc_seconds, _best_seconds(_loop(mc_batch), repeats=1) / calls
        )
        sweep_seconds = min(
            sweep_seconds, _best_seconds(_loop(sweep_batch), repeats=1) / calls
        )

    section = {
        "reference": {
            "dtype": "float64",
            "tolerance": 0.0,
            "repeats": rounds,
            "calls_per_repeat": calls,
            "monte_carlo_rows": MC_DRAWS,
            "monte_carlo_seconds": mc_seconds,
            "monte_carlo_points_per_sec": MC_DRAWS / mc_seconds,
            "grid_sweep_rows": sweep_points,
            "grid_sweep_seconds": sweep_seconds,
            "grid_sweep_points_per_sec": sweep_points / sweep_seconds,
        }
    }

    payload = {}
    if OUTPUT_PATH.exists():
        try:
            payload = json.loads(OUTPUT_PATH.read_text())
        except (OSError, json.JSONDecodeError):
            payload = {}
    payload.setdefault("benchmark", "engine")
    payload["backends"] = section
    _write_payload(payload)
    print()
    print(json.dumps({"backends": section}, indent=2))
    print(
        "summary: "
        + ", ".join(
            f"{name}: MC {entry['monte_carlo_points_per_sec']:,.0f}/s, "
            f"sweep {entry['grid_sweep_points_per_sec']:,.0f}/s"
            for name, entry in section.items()
        )
    )


def _pooled_monte_carlo(pool, policy, base, draws):
    """One whole Monte Carlo run as a single supervised wave on ``pool``:
    every ``policy.shard_rows`` chunk a task of the one Monte Carlo chunk
    function, as a single-wave run of the chunked driver dispatches it."""
    from repro.analysis.montecarlo import ShardColumnSource, monte_carlo_chunk
    from repro.parallel import ShardSupervisor, ShardTask, run_shard

    source = ShardColumnSource.create(
        base, draws=draws, seed=2022, shard_rows=policy.shard_rows
    )
    tasks = [
        ShardTask(
            monte_carlo_chunk,
            (
                base,
                source.ranges,
                source.distribution,
                source.seeds[shard],
                start,
                stop,
                source.identity_key(start, stop),
            ),
            shard,
        )
        for shard, (start, stop) in enumerate(source.plan)
    ]
    return ShardSupervisor(pool, policy).run(
        run_shard, tasks, list(range(len(tasks)))
    )


def test_perf_parallel():
    """Million-draw Monte Carlo through a worker pool.

    Measures draws/sec against worker count and shard-size sensitivity,
    then merges a ``parallel`` section into ``BENCH_engine.json``.  The >= 2x speedup gate only applies on
    machines with at least 4 usable cores — the recorded numbers stay
    honest either way (``cpu_count`` is written next to them).
    """
    from repro.parallel import ExecutionPolicy, WorkerPool

    base = ActScenario()
    cores = _available_cores()
    shard_rows = 65_536

    def _throughput(policy: ExecutionPolicy) -> tuple[float, float]:
        with WorkerPool(policy.workers) as pool:
            _pooled_monte_carlo(pool, policy, base, 10_000)  # warm pool
            seconds = _best_seconds(
                lambda: _pooled_monte_carlo(
                    pool, policy, base, PARALLEL_DRAWS
                ),
                repeats=PARALLEL_REPEATS,
            )
        return seconds, PARALLEL_DRAWS / seconds

    by_workers: dict[str, dict[str, float]] = {}
    for workers in PARALLEL_WORKER_COUNTS:
        seconds, rate = _throughput(
            ExecutionPolicy(workers=workers, shard_rows=shard_rows)
        )
        by_workers[str(workers)] = {
            "seconds": seconds,
            "draws_per_sec": rate,
        }

    # Shard-size sensitivity at two workers: the smallest pool that
    # exercises cross-process dispatch on any machine.
    by_shard_rows: dict[str, float] = {}
    for size in PARALLEL_SHARD_SIZES:
        if size == shard_rows:
            by_shard_rows[str(size)] = by_workers["2"]["draws_per_sec"]
            continue
        _, rate = _throughput(ExecutionPolicy(workers=2, shard_rows=size))
        by_shard_rows[str(size)] = rate

    serial_rate = by_workers["1"]["draws_per_sec"]
    best_rate = max(entry["draws_per_sec"] for entry in by_workers.values())
    speedup_at_4 = by_workers["4"]["draws_per_sec"] / serial_rate
    # "gated" records whether the speedup assertion below actually ran —
    # a reader of the JSON must be able to tell a passed gate from a
    # skipped one (small CI machines record numbers but gate nothing).
    section = {
        "draws": PARALLEL_DRAWS,
        "repeats": PARALLEL_REPEATS,
        "cpu_count": cores,
        "shard_rows": shard_rows,
        "gated": cores >= 4,
        "throughput_by_workers": by_workers,
        "throughput_by_shard_rows": by_shard_rows,
        "speedup_workers4": speedup_at_4,
        "best_draws_per_sec": best_rate,
    }

    payload = {}
    if OUTPUT_PATH.exists():
        try:
            payload = json.loads(OUTPUT_PATH.read_text())
        except (OSError, json.JSONDecodeError):
            payload = {}
    payload.setdefault("benchmark", "engine")
    payload["parallel"] = section
    _write_payload(payload)
    print()
    print(json.dumps({"parallel": section}, indent=2))
    print(
        f"summary: {PARALLEL_DRAWS:,} draws on {cores} core(s) — "
        + ", ".join(
            f"workers={w}: {entry['draws_per_sec']:,.0f}/s"
            for w, entry in by_workers.items()
        )
    )

    if cores >= 4:
        assert speedup_at_4 >= 2.0, (
            f"workers=4 only {speedup_at_4:.2f}x over workers=1 on "
            f"{cores} cores (gate: 2x)"
        )


#: Scheduling sweep size: 10k windows x 4 policies = 40k scenario rows.
SCHED_WINDOWS = 10_000
#: Scalar-reference sample — the per-row Python loop is ~3 orders of
#: magnitude slower, so a subset keeps the benchmark interactive while
#: the points/sec figure stays representative.
SCHED_SCALAR_ROWS = 200


def test_perf_scheduling():
    """Vectorized policy sweep vs the scalar per-scenario reference.

    Evaluates a 10k-window x 4-policy sweep through the batched
    evaluator, times the pinned scalar ``simulate_fleet`` loop on an
    evenly sampled row subset, and merges a ``scheduling`` section into
    ``BENCH_engine.json``.  The gate is the whole point of the batched
    path: >= 20x scenario rows/sec over the scalar reference.
    """
    from repro.core.errors import ConstraintError
    from repro.core.intensity import CarbonIntensityTrace, solar_diurnal_trace
    from repro.scheduling.batch import evaluate_schedule_batch
    from repro.scheduling.policies import simulate_fleet
    from repro.scheduling.sweep import ScheduleSweepSpec, build_schedule_batch

    spec = ScheduleSweepSpec(
        trace=solar_diurnal_trace(500.0, solar_share_at_noon=0.7),
        windows=SCHED_WINDOWS,
    )
    batch = build_schedule_batch(spec)
    rows = len(batch)

    evaluate_schedule_batch(batch)  # warm-up
    vectorized_seconds = _best_seconds(
        lambda: evaluate_schedule_batch(batch), repeats=5
    )
    vectorized_pps = rows / vectorized_seconds

    # Scalar reference on an evenly spaced row sample (every policy and
    # window shape is represented; infeasible rows cost a raised error).
    stride = max(1, rows // SCHED_SCALAR_ROWS)
    sample = list(range(0, rows, stride))[:SCHED_SCALAR_ROWS]
    trace = CarbonIntensityTrace("bench", batch.trace_g_per_kwh)
    scenarios = [batch.row_scenario(row) for row in sample]

    def _scalar() -> None:
        for scenario in scenarios:
            try:
                simulate_fleet(
                    scenario.jobs,
                    scenario.fleet,
                    trace,
                    scenario.policy,
                    horizon_hours=batch.horizon_hours,
                    window_offset=scenario.window_offset,
                    threshold_quantile=batch.threshold_quantile,
                )
            except ConstraintError:
                pass

    scalar_seconds = _best_seconds(_scalar, repeats=3)
    scalar_pps = len(scenarios) / scalar_seconds
    speedup = vectorized_pps / scalar_pps

    section = {
        "windows": SCHED_WINDOWS,
        "policies": len(spec.policies),
        "rows": rows,
        "jobs_per_window": spec.jobs_per_window,
        "horizon_hours": spec.horizon_hours,
        "repeats": 5,
        "scalar_sample_rows": len(scenarios),
        "scalar_seconds": scalar_seconds,
        "scalar_points_per_sec": scalar_pps,
        "vectorized_seconds": vectorized_seconds,
        "vectorized_points_per_sec": vectorized_pps,
        "speedup": speedup,
    }

    payload = {}
    if OUTPUT_PATH.exists():
        try:
            payload = json.loads(OUTPUT_PATH.read_text())
        except (OSError, json.JSONDecodeError):
            payload = {}
    payload.setdefault("benchmark", "engine")
    payload["scheduling"] = section
    _write_payload(payload)
    print()
    print(json.dumps({"scheduling": section}, indent=2))
    print(
        f"summary: {rows:,} scenario rows — vectorized "
        f"{vectorized_pps:,.0f}/s vs scalar {scalar_pps:,.0f}/s "
        f"({speedup:.1f}x)"
    )

    assert speedup >= 20.0, (
        f"vectorized schedule evaluation only {speedup:.1f}x the scalar "
        "reference (gate: 20x)"
    )


def test_perf_supervision():
    """Healthy-path cost of fault supervision.

    Interleaves ``failure_policy="fail_fast"`` (no supervision machinery)
    against ``"retry"`` (per-shard attempt accounting, liveness checks,
    deadline watch) on an identical fault-free Monte Carlo and merges a
    ``supervision`` section into ``BENCH_engine.json``.  The gate is the
    workers=1 null path: supervision must cost < 2% when nothing fails.
    The workers=2 figure is recorded without a gate — at that scale the
    poll-loop timing is dominated by queue latency, not supervision.
    """
    from repro.parallel import RETRY, ExecutionPolicy, WorkerPool

    base = ActScenario()
    cores = _available_cores()
    draws = 200_000
    shard_rows = 16_384  # many shards, so per-shard accounting is visible

    def _measure(workers: int) -> tuple[float, float]:
        fail_fast_policy = ExecutionPolicy(
            workers=workers, shard_rows=shard_rows
        )
        retry_policy = ExecutionPolicy(
            workers=workers, shard_rows=shard_rows, failure_policy=RETRY
        )
        with WorkerPool(workers) as plain:
            with WorkerPool(workers) as supervised:
                _pooled_monte_carlo(plain, fail_fast_policy, base, 10_000)
                _pooled_monte_carlo(supervised, retry_policy, base, 10_000)
                # Interleave so clock drift and cache state hit both
                # paths equally instead of biasing whichever ran last.
                plain_best = supervised_best = float("inf")
                for _ in range(7):
                    plain_best = min(
                        plain_best,
                        _best_seconds(
                            lambda: _pooled_monte_carlo(
                                plain, fail_fast_policy, base, draws
                            ),
                            repeats=1,
                        ),
                    )
                    supervised_best = min(
                        supervised_best,
                        _best_seconds(
                            lambda: _pooled_monte_carlo(
                                supervised, retry_policy, base, draws
                            ),
                            repeats=1,
                        ),
                    )
        return plain_best, supervised_best

    serial_plain, serial_supervised = _measure(1)
    pool_plain, pool_supervised = _measure(2)
    serial_overhead = serial_supervised / serial_plain - 1.0
    pool_overhead = pool_supervised / pool_plain - 1.0

    section = {
        "draws": draws,
        "repeats": 7,
        "cpu_count": cores,
        "shard_rows": shard_rows,
        "workers1_fail_fast_seconds": serial_plain,
        "workers1_retry_seconds": serial_supervised,
        "workers1_overhead_fraction": serial_overhead,
        "workers2_fail_fast_seconds": pool_plain,
        "workers2_retry_seconds": pool_supervised,
        "workers2_overhead_fraction": pool_overhead,
    }

    payload = {}
    if OUTPUT_PATH.exists():
        try:
            payload = json.loads(OUTPUT_PATH.read_text())
        except (OSError, json.JSONDecodeError):
            payload = {}
    payload.setdefault("benchmark", "engine")
    payload["supervision"] = section
    _write_payload(payload)
    print()
    print(json.dumps({"supervision": section}, indent=2))
    print(
        f"summary: supervision null-path overhead "
        f"{_clamped(serial_overhead):.1%} at workers=1, "
        f"{_clamped(pool_overhead):.1%} at workers=2"
    )

    assert serial_overhead < 0.02, (
        f"supervised serial path costs {serial_overhead:.1%} over "
        "fail_fast on a healthy run (budget: 2%)"
    )


#: Separable 4-axis grid for the planner section: 10^4 = 10,000 points,
#: every axis swept with real fan-out, all values inside Table 1 ranges.
PLANNER_SEPARABLE_GRIDS = {
    "energy_kwh": tuple(2.0 + 0.6 * k for k in range(10)),
    "ci_use_g_per_kwh": tuple(50.0 + 60.0 * k for k in range(10)),
    "ci_fab_g_per_kwh": tuple(100.0 + 58.0 * k for k in range(10)),
    "dram_gb": tuple(4.0 + 1.2 * k for k in range(10)),
}
#: Mixed-fan-out 3-axis grid (40 x 30 x 5 = 6,000 points): one long
#: axis, one medium, one short — the shape where factoring helps less.
PLANNER_MIXED_GRIDS = {
    "energy_kwh": tuple(2.0 + 0.15 * k for k in range(40)),
    "ci_use_g_per_kwh": tuple(50.0 + 20.0 * k for k in range(30)),
    "dram_gb": tuple(4.0 + 2.4 * k for k in range(5)),
}


def test_perf_planner():
    """Structure-aware sweep planner vs the dense batched path.

    Times the planned sweep (``plan_product`` + ``evaluate_plan_cached``
    + ``verify_plan``) against the dense one (``evaluate_cached`` over
    ``ScenarioBatch.from_product``) on a separable 4-axis 10k-point grid and a
    mixed-fan-out grid (fresh caches per call, best-of-N) and asserts the
    planned result is bit-identical to the dense one.  Merges a
    ``planner`` section into ``BENCH_engine.json``; the speedup gates
    (>= 5x separable, >= 2x mixed) only apply when ``gated`` is true —
    the grids are large enough for the planner's fixed costs to
    amortize (both well past the ``auto`` threshold).
    """
    import numpy as np

    from repro.engine.plan import AUTO_MIN_ROWS, SERIES_NAMES

    base = ActScenario()
    cores = _available_cores()

    def _points(grids) -> int:
        total = 1
        for values in grids.values():
            total *= len(values)
        return total

    separable_points = _points(PLANNER_SEPARABLE_GRIDS)
    mixed_points = _points(PLANNER_MIXED_GRIDS)

    # Bit-identity first: the speedup below is only meaningful because
    # the planned series are the dense series, exactly.
    for grids in (PLANNER_SEPARABLE_GRIDS, PLANNER_MIXED_GRIDS):
        planned = _planned_sweep(base, grids)
        dense = _dense_sweep(base, grids)
        for name in SERIES_NAMES:
            np.testing.assert_array_equal(
                getattr(planned, name), getattr(dense, name)
            )

    sweeps = {"on": _planned_sweep, "off": _dense_sweep}

    def _sweep_seconds(grids, mode: str) -> float:
        return _best_seconds(lambda: sweeps[mode](base, grids), repeats=9)

    # Interleave planned/dense so clock drift hits both equally.
    separable = {"on": float("inf"), "off": float("inf")}
    mixed = {"on": float("inf"), "off": float("inf")}
    for _ in range(3):
        for mode in ("on", "off"):
            separable[mode] = min(
                separable[mode], _sweep_seconds(PLANNER_SEPARABLE_GRIDS, mode)
            )
            mixed[mode] = min(
                mixed[mode], _sweep_seconds(PLANNER_MIXED_GRIDS, mode)
            )
    separable_speedup = separable["off"] / separable["on"]
    mixed_speedup = mixed["off"] / mixed["on"]

    # "gated" records whether the speedup assertions below actually ran:
    # the planner is a serial optimization (no core requirement), so the
    # only way a host under-delivers is a grid too small for the fixed
    # costs to amortize.
    gated = separable_points >= AUTO_MIN_ROWS and mixed_points >= AUTO_MIN_ROWS
    section = {
        "repeats": 9,
        "rounds": 3,
        "cpu_count": cores,
        "gated": gated,
        "separable": {
            "points": separable_points,
            "axes": len(PLANNER_SEPARABLE_GRIDS),
            "dense_seconds": separable["off"],
            "planned_seconds": separable["on"],
            "dense_points_per_sec": separable_points / separable["off"],
            "planned_points_per_sec": separable_points / separable["on"],
            "speedup": separable_speedup,
        },
        "mixed": {
            "points": mixed_points,
            "axes": len(PLANNER_MIXED_GRIDS),
            "dense_seconds": mixed["off"],
            "planned_seconds": mixed["on"],
            "dense_points_per_sec": mixed_points / mixed["off"],
            "planned_points_per_sec": mixed_points / mixed["on"],
            "speedup": mixed_speedup,
        },
    }

    payload = {}
    if OUTPUT_PATH.exists():
        try:
            payload = json.loads(OUTPUT_PATH.read_text())
        except (OSError, json.JSONDecodeError):
            payload = {}
    payload.setdefault("benchmark", "engine")
    payload["planner"] = section
    _write_payload(payload)
    print()
    print(json.dumps({"planner": section}, indent=2))
    print(
        f"summary: separable {separable_speedup:.1f}x "
        f"({separable_points:,} pts), mixed {mixed_speedup:.1f}x "
        f"({mixed_points:,} pts)"
    )

    if gated:
        assert separable_speedup >= 5.0, (
            f"planned sweep only {separable_speedup:.1f}x the dense path "
            f"on the separable {separable_points:,}-point grid (gate: 5x)"
        )
        assert mixed_speedup >= 2.0, (
            f"planned sweep only {mixed_speedup:.1f}x the dense path on "
            f"the mixed {mixed_points:,}-point grid (gate: 2x)"
        )


#: Monte Carlo size for the durability section — big chunks amortize the
#: per-commit fsync cost, which is the whole design point of the store.
DURABILITY_DRAWS = 1_048_576
DURABILITY_CHUNK_ROWS = 262_144


def test_perf_durability(tmp_path):
    """The durability protocol costs < 5% on checkpointed chunked MC.

    Three configurations of the same 1M-draw chunked Monte Carlo are
    interleaved: no persistence, *buffered* checkpointing (the full
    store write path with every fsync downgraded to a flush — what any
    non-crash-safe checkpointer would pay), and the real *durable*
    protocol (fsyncs, atomic manifest rename, directory fsync).  The
    gated figure is the durable-over-buffered delta — the price of the
    crash-consistency guarantee itself.  The cost of writing checkpoint
    bytes at all (``checkpoint_cost_fraction``) is recorded but not
    gated: it is bounded by device bandwidth and page-allocation
    behavior, i.e. by the runner, not the code.  The store lives on a
    RAM-backed filesystem when one is available for the same reason; the
    directory used is recorded in the ``durability`` section of
    ``BENCH_engine.json`` alongside ``checkpointed_points_per_sec`` for
    the perf guard.
    """
    import tempfile

    from repro.robustness import run_monte_carlo_chunked
    from repro.robustness.durability import DurableIO, use_durable_io

    class BufferedIO(DurableIO):
        """The store's write path with durability switched off."""

        def fsync(self, handle, point):
            self.reached(point)
            handle.flush()  # buffered: no fsync

        def fsync_dir(self, path, point):
            self.reached(point)

    base = ActScenario()
    if os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK):
        store_dir = Path(
            tempfile.mkdtemp(prefix="repro-bench-", dir="/dev/shm")
        )
    else:  # pragma: no cover - platform without tmpfs
        store_dir = tmp_path

    runs = [0]

    def _run(checkpoint: bool) -> None:
        runs[0] += 1
        run_monte_carlo_chunked(
            base,
            draws=DURABILITY_DRAWS,
            seed=2022,
            chunk_rows=DURABILITY_CHUNK_ROWS,
            checkpoint=(
                store_dir / f"bench-{runs[0]}.ck" if checkpoint else None
            ),
        )

    def _buffered() -> None:
        with use_durable_io(BufferedIO()):
            _run(checkpoint=True)

    plain_seconds = buffered_seconds = durable_seconds = float("inf")
    for _ in range(3):  # interleave so clock drift hits all paths equally
        plain_seconds = min(
            plain_seconds,
            _best_seconds(lambda: _run(checkpoint=False), repeats=1),
        )
        buffered_seconds = min(
            buffered_seconds, _best_seconds(_buffered, repeats=1)
        )
        durable_seconds = min(
            durable_seconds,
            _best_seconds(lambda: _run(checkpoint=True), repeats=1),
        )

    durability_overhead = (
        durable_seconds - buffered_seconds
    ) / plain_seconds
    checkpoint_cost = (buffered_seconds - plain_seconds) / plain_seconds
    section = {
        "draws": DURABILITY_DRAWS,
        "chunk_rows": DURABILITY_CHUNK_ROWS,
        "storage": str(store_dir),
        "repeats": 3,
        "plain_seconds": plain_seconds,
        "buffered_seconds": buffered_seconds,
        "durable_seconds": durable_seconds,
        "points_per_sec": DURABILITY_DRAWS / plain_seconds,
        "checkpointed_points_per_sec": DURABILITY_DRAWS / durable_seconds,
        "checkpoint_cost_fraction": checkpoint_cost,
        "durability_overhead_fraction": durability_overhead,
    }

    payload = {}
    if OUTPUT_PATH.exists():
        try:
            payload = json.loads(OUTPUT_PATH.read_text())
        except (OSError, json.JSONDecodeError):
            payload = {}
    payload.setdefault("benchmark", "engine")
    payload["durability"] = section
    _write_payload(payload)
    print()
    print(json.dumps({"durability": section}, indent=2))
    print(
        f"summary: durability protocol {_clamped(durability_overhead):.1%}, "
        f"checkpoint writes {_clamped(checkpoint_cost):.1%} on "
        f"{DURABILITY_DRAWS:,} draws ({DURABILITY_CHUNK_ROWS:,}-row chunks)"
    )

    assert durability_overhead < 0.05, (
        f"the durability protocol (fsync + atomic manifest commit) costs "
        f"{durability_overhead:.1%} over buffered checkpointing "
        "(budget: 5%)"
    )

"""Monte Carlo policy sweeps over (window x job set x policy) scenarios.

A :class:`ScheduleSweepSpec` describes a randomized fleet workload: each
*window* draws a trace offset and a job set from a window-scoped seed
stream, and every configured policy schedules the identical job set, so
policy comparisons are paired.  Rows are laid out window-major::

    row = window * len(policies) + policy_index

and :func:`build_schedule_batch` is a *pure* function of
``(spec, start, stop)`` — any row range rebuilds bit-identically, which
is what lets :class:`~repro.parallel.runner.ParallelRunner` shard a sweep
across workers and :func:`repro.robustness.checkpoint.run_schedule_sweep_chunked`
resume it with bit-for-bit convergence at any worker count.

:func:`run_policy_sweep` aggregates the evaluated rows into per-policy
emissions/waiting points and extracts the emissions-vs-mean-waiting
Pareto front via :mod:`repro.dse.pareto` — ACT's Reduce-tenet trade-off,
quantified per policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import ParameterError
from repro.core.intensity import CarbonIntensityTrace
from repro.core.parameters import require_fraction, require_non_negative
from repro.dse.pareto import pareto_front
from repro.engine.cache import EvaluationCache
from repro.obs.context import current_context
from repro.scheduling.batch import (
    POLICY_IDS,
    ScheduleBatch,
    verify_schedule_batch,
)
from repro.scheduling.fleet import FleetSpec, single_machine_fleet
from repro.scheduling.policies import (
    DEFAULT_THRESHOLD_QUANTILE,
    POLICY_NAMES,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.policy import ExecutionPolicy


@dataclass(frozen=True)
class ScheduleSweepSpec:
    """A reproducible fleet-scheduling Monte Carlo sweep.

    Attributes:
        trace: Shared grid intensity profile.
        fleet: The fleet every window schedules onto; its DVFS throttle
            is applied to sampled durations/energies.
        windows: Number of sampled (offset, job set) windows.
        policies: Policy names compared per window (row-minor order).
        jobs_per_window: Jobs drawn per window.
        horizon_hours: Simulation window length.
        seed: Root seed; window ``w`` draws from
            ``SeedSequence(seed, spawn_key=(w,))`` so any row range
            regenerates identically.
        arrival_span_hours: Arrivals are uniform in ``[0, span)``.
        duration_hours_max: Whole-hour durations are uniform in
            ``[1, max]``; a ``half_hour_fraction`` share gains 0.5 h.
        energy_kwh_max: Job energy is uniform in ``[0.5, max]``.
        slack_hours_min / slack_hours_max: Deadline slack beyond the
            job's slot count.
        preemptible_fraction: Share of jobs that may suspend/resume.
        half_hour_fraction: Share of jobs with a fractional final hour.
        overhead_kwh: Suspend/resume energy overhead per gap.
        threshold_quantile: ``carbon_waiting``'s green-start quantile.
    """

    trace: CarbonIntensityTrace
    fleet: FleetSpec = field(default_factory=single_machine_fleet)
    windows: int = 1000
    policies: tuple[str, ...] = POLICY_NAMES
    jobs_per_window: int = 5
    horizon_hours: int = 48
    seed: int = 2022
    arrival_span_hours: int = 12
    duration_hours_max: int = 4
    energy_kwh_max: float = 8.0
    slack_hours_min: int = 4
    slack_hours_max: int = 24
    preemptible_fraction: float = 0.25
    half_hour_fraction: float = 0.25
    overhead_kwh: float = 0.05
    threshold_quantile: float = DEFAULT_THRESHOLD_QUANTILE

    def __post_init__(self) -> None:
        object.__setattr__(self, "policies", tuple(self.policies))
        if self.windows < 1:
            raise ParameterError(f"windows must be >= 1, got {self.windows}")
        if not self.policies:
            raise ParameterError("a sweep needs at least one policy")
        for name in self.policies:
            if name not in POLICY_IDS:
                raise ParameterError(
                    f"unknown policy {name!r} (available: "
                    f"{', '.join(POLICY_NAMES)})"
                )
        if len(set(self.policies)) != len(self.policies):
            raise ParameterError("policies must be unique")
        if self.jobs_per_window < 1:
            raise ParameterError(
                f"jobs_per_window must be >= 1, got {self.jobs_per_window}"
            )
        if self.arrival_span_hours < 1:
            raise ParameterError("arrival_span_hours must be >= 1")
        if self.duration_hours_max < 1:
            raise ParameterError("duration_hours_max must be >= 1")
        if self.energy_kwh_max <= 0.5:
            raise ParameterError("energy_kwh_max must exceed 0.5 kWh")
        if not 1 <= self.slack_hours_min <= self.slack_hours_max:
            raise ParameterError(
                "need 1 <= slack_hours_min <= slack_hours_max, got "
                f"[{self.slack_hours_min}, {self.slack_hours_max}]"
            )
        require_fraction(
            "preemptible_fraction", self.preemptible_fraction,
            allow_zero=True,
        )
        require_fraction(
            "half_hour_fraction", self.half_hour_fraction, allow_zero=True
        )
        require_non_negative("overhead_kwh", self.overhead_kwh)
        require_fraction(
            "threshold_quantile", self.threshold_quantile, allow_zero=True
        )
        max_slots = math.ceil(
            self.fleet.effective_duration(self.duration_hours_max + 0.5)
        )
        latest_deadline = (
            (self.arrival_span_hours - 1) + max_slots + self.slack_hours_max
        )
        if latest_deadline > self.horizon_hours:
            raise ParameterError(
                f"horizon_hours={self.horizon_hours} cannot hold the "
                f"latest possible deadline ({latest_deadline}h); raise the "
                "horizon or tighten arrivals/durations/slack"
            )

    @property
    def rows(self) -> int:
        """Total scenario rows: ``windows * len(policies)``."""
        return self.windows * len(self.policies)

    def fingerprint_metadata(self) -> dict[str, str]:
        """Checkpoint fingerprint entries pinning the sweep's identity."""
        return {
            "trace": ",".join(repr(v) for v in self.trace.hourly_g_per_kwh),
            "fleet": repr(
                (
                    self.fleet.capacity,
                    self.fleet.idle_power_w,
                    self.fleet.active_power_w,
                    self.fleet.slowdown,
                    self.fleet.energy_factor,
                )
            ),
            "windows": str(self.windows),
            "policies": ",".join(self.policies),
            "jobs_per_window": str(self.jobs_per_window),
            "horizon_hours": str(self.horizon_hours),
            "seed": str(self.seed),
            "arrival_span_hours": str(self.arrival_span_hours),
            "duration_hours_max": str(self.duration_hours_max),
            "energy_kwh_max": repr(self.energy_kwh_max),
            "slack_hours": f"{self.slack_hours_min},{self.slack_hours_max}",
            "preemptible_fraction": repr(self.preemptible_fraction),
            "half_hour_fraction": repr(self.half_hour_fraction),
            "overhead_kwh": repr(self.overhead_kwh),
            "threshold_quantile": repr(self.threshold_quantile),
        }


def _window_draw(
    spec: ScheduleSweepSpec, window: int
) -> tuple[int, list[tuple[float, ...]]]:
    """``(window_offset, job parameter rows)`` for one window.

    Pure in ``(spec, window)``: the window-scoped ``SeedSequence`` spawn
    key makes the draw independent of which shard asks for it.  Each job
    row is ``(arrival, duration, energy, deadline, preemptible,
    overhead)`` with the fleet's DVFS throttle already applied.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(spec.seed, spawn_key=(window,))
    )
    offset = int(rng.integers(0, len(spec.trace)))
    jobs = []
    for _ in range(spec.jobs_per_window):
        arrival = int(rng.integers(0, spec.arrival_span_hours))
        duration = float(rng.integers(1, spec.duration_hours_max + 1))
        if rng.random() < spec.half_hour_fraction:
            duration += 0.5
        energy = float(rng.uniform(0.5, spec.energy_kwh_max))
        slack = int(
            rng.integers(spec.slack_hours_min, spec.slack_hours_max + 1)
        )
        preemptible = float(rng.random() < spec.preemptible_fraction)
        duration_eff = spec.fleet.effective_duration(duration)
        energy_eff = spec.fleet.effective_energy(energy)
        deadline = arrival + math.ceil(duration_eff) + slack
        jobs.append(
            (
                float(arrival),
                duration_eff,
                energy_eff,
                float(deadline),
                preemptible,
                spec.overhead_kwh,
            )
        )
    return offset, jobs


def build_schedule_batch(
    spec: ScheduleSweepSpec, start: int = 0, stop: int | None = None
) -> ScheduleBatch:
    """Materialize rows ``[start, stop)`` of the sweep as a batch.

    Pure and range-independent: the same row carries identical columns no
    matter how the range is sharded, so parallel and resumed runs
    converge bit-identically.
    """
    total = spec.rows
    if stop is None:
        stop = total
    if not 0 <= start < stop <= total:
        raise ParameterError(
            f"row range [{start}, {stop}) invalid for {total} rows"
        )
    count = stop - start
    policies = spec.policies
    n_policies = len(policies)
    jobs = spec.jobs_per_window

    scenario = {
        "window_offset": np.zeros(count),
        "policy_id": np.zeros(count),
        "capacity": np.full(count, float(spec.fleet.capacity)),
        "idle_power_w": np.full(count, spec.fleet.idle_power_w),
        "active_power_w": np.full(count, spec.fleet.active_power_w),
    }
    job_cols = {
        "arrival_hour": np.zeros((count, jobs)),
        "duration_hours": np.zeros((count, jobs)),
        "energy_kwh": np.zeros((count, jobs)),
        "deadline_hour": np.zeros((count, jobs)),
        "preemptible": np.zeros((count, jobs)),
        "overhead_kwh": np.zeros((count, jobs)),
    }

    cached_window = -1
    cached_draw: tuple[int, list[tuple[float, ...]]] | None = None
    for index in range(count):
        row = start + index
        window, policy_index = divmod(row, n_policies)
        if window != cached_window:
            cached_draw = _window_draw(spec, window)
            cached_window = window
        offset, job_rows = cached_draw
        scenario["window_offset"][index] = offset
        scenario["policy_id"][index] = POLICY_IDS[policies[policy_index]]
        for j, (arr, dur, energy, deadline, pre, ovh) in enumerate(job_rows):
            job_cols["arrival_hour"][index, j] = arr
            job_cols["duration_hours"][index, j] = dur
            job_cols["energy_kwh"][index, j] = energy
            job_cols["deadline_hour"][index, j] = deadline
            job_cols["preemptible"][index, j] = pre
            job_cols["overhead_kwh"][index, j] = ovh
    return ScheduleBatch(
        **scenario,
        **job_cols,
        trace_g_per_kwh=spec.trace.hourly_g_per_kwh,
        horizon_hours=spec.horizon_hours,
        threshold_quantile=spec.threshold_quantile,
    )


@dataclass(frozen=True)
class PolicyPoint:
    """Aggregate outcome of one policy over its feasible windows.

    ``windows`` counts the windows that were evaluated: a degraded run's
    quarantined windows are excluded, not counted as infeasible.
    """

    policy: str
    mean_emissions_g: float
    mean_wait_hours: float
    max_wait_hours: float
    mean_energy_kwh: float
    total_preemptions: float
    feasible_windows: int
    windows: int

    @property
    def feasible_fraction(self) -> float:
        return self.feasible_windows / self.windows if self.windows else 0.0


@dataclass(frozen=True)
class PolicySweepResult:
    """A completed sweep: per-policy points, Pareto front, raw series."""

    spec: ScheduleSweepSpec
    points: tuple[PolicyPoint, ...]
    pareto: tuple[PolicyPoint, ...]
    series: dict[str, np.ndarray]

    @property
    def pareto_policies(self) -> tuple[str, ...]:
        return tuple(point.policy for point in self.pareto)

    def point_for(self, policy: str) -> PolicyPoint:
        for point in self.points:
            if point.policy == policy:
                return point
        raise ParameterError(f"no such policy in this sweep: {policy!r}")


def summarize_sweep(
    spec: ScheduleSweepSpec, series: "dict[str, np.ndarray]"
) -> PolicySweepResult:
    """Aggregate raw row series into per-policy points + Pareto front."""
    n_policies = len(spec.policies)
    points = []
    for index, name in enumerate(spec.policies):
        rows = {
            key: values[index::n_policies] for key, values in series.items()
        }
        feasible = rows["feasible"] >= 0.5
        count = int(feasible.sum())
        # Windows a degraded run lost to quarantine are NaN in every
        # series: they were never evaluated, so they count neither as
        # feasible nor as windows.
        windows = int(np.isfinite(rows["feasible"]).sum())
        if count:
            point = PolicyPoint(
                policy=name,
                mean_emissions_g=float(
                    rows["emissions_g"][feasible].mean()
                ),
                mean_wait_hours=float(
                    rows["mean_wait_hours"][feasible].mean()
                ),
                max_wait_hours=float(rows["max_wait_hours"][feasible].max()),
                mean_energy_kwh=float(rows["energy_kwh"][feasible].mean()),
                total_preemptions=float(
                    rows["preemptions"][feasible].sum()
                ),
                feasible_windows=count,
                windows=windows,
            )
        else:
            point = PolicyPoint(
                policy=name,
                mean_emissions_g=float("nan"),
                mean_wait_hours=float("nan"),
                max_wait_hours=float("nan"),
                mean_energy_kwh=float("nan"),
                total_preemptions=0.0,
                feasible_windows=0,
                windows=windows,
            )
        points.append(point)
    comparable = [
        point for point in points if point.feasible_windows > 0
    ]
    front = pareto_front(
        comparable,
        (
            lambda point: point.mean_emissions_g,
            lambda point: point.mean_wait_hours,
        ),
    )
    return PolicySweepResult(
        spec=spec,
        points=tuple(points),
        pareto=front,
        series=dict(series),
    )


def run_policy_sweep(
    spec: ScheduleSweepSpec,
    *,
    policy: "ExecutionPolicy | None" = None,
    cache: "EvaluationCache | None" = None,
    chunk_rows: int | None = None,
    checkpoint: "str | None" = None,
    resume: bool = False,
    cancel: object | None = None,
    verify_sample: int = 0,
) -> PolicySweepResult:
    """Run the sweep end to end and report the policy Pareto front.

    Always runs through the chunked driver
    (:func:`~repro.robustness.checkpoint.run_schedule_sweep_chunked`),
    ``chunk_rows`` rows at a time (default
    :data:`~repro.robustness.checkpoint.DEFAULT_CHUNK_ROWS`, 4,096): without
    a ``checkpoint`` it is that driver without a store, serial unless an
    :class:`~repro.parallel.policy.ExecutionPolicy` asks for workers.  The
    series are bit-identical at any chunk size or worker count.
    ``verify_sample`` > 0 additionally cross-checks that many evenly
    spaced rows against the scalar reference (the guarded-engine idiom
    for this workload family).
    """
    from repro.robustness.checkpoint import (
        DEFAULT_CHUNK_ROWS,
        run_schedule_sweep_chunked,
    )

    with current_context().span(
        "scheduling.policy_sweep",
        windows=spec.windows,
        policies=len(spec.policies),
    ):
        series = run_schedule_sweep_chunked(
            spec,
            chunk_rows=chunk_rows or DEFAULT_CHUNK_ROWS,
            checkpoint_path=checkpoint,
            resume=resume,
            cancel=cancel,
            policy=policy,
            cache=cache,
        )
        if verify_sample > 0:
            rows = np.unique(
                np.linspace(
                    0, spec.rows - 1, min(verify_sample, spec.rows)
                ).astype(int)
            )
            for row in rows:
                verify_schedule_batch(
                    build_schedule_batch(spec, int(row), int(row) + 1), sample=1
                )
        return summarize_sweep(spec, series)

"""Scheduling policies over the fleet model — the scalar reference path.

Four policies place :class:`~repro.scheduling.fleet.FleetJob` sets onto a
:class:`~repro.scheduling.fleet.FleetSpec`:

========================  =============================================
``fifo``                  Arrival order, earliest feasible contiguous
                          start.  The carbon-oblivious baseline.
``edf``                   Earliest-deadline-first order, earliest
                          feasible contiguous start.
``carbon_waiting``        Arrival order; each job defers until the
                          carbon intensity at its start hour drops to or
                          below a window quantile, or its slack runs out
                          (then it takes the *latest* feasible start).
``carbon_lowest``         Tightest-slack-first order; each job takes the
                          cheapest feasible placement.  Preemptible jobs
                          may split across the cheapest non-contiguous
                          hours (paying a resume overhead per gap);
                          non-preemptible jobs take the cheapest
                          contiguous start.
========================  =============================================

Only ``carbon_lowest`` exploits preemption — the other policies place
every job contiguously (they have no carbon signal that would justify a
split).  All policies are deterministic: ties break on earlier hours and
then on job input order.

This module is the *one scalar scheduler*: placements and emissions
are computed with plain Python loops in chronological order, one scenario
at a time.  The single-machine study (:mod:`repro.scheduling.simulator`)
runs through it.  The vectorized evaluator (:mod:`repro.scheduling.batch`)
reproduces these semantics as numpy columns and is cross-checked against
this path in the tests; it prices candidate starts with this module's
chronological arithmetic, so cost ties break identically on both paths.

Failure semantics: an infeasible job (no placement satisfies arrival,
deadline, and capacity) raises
:class:`~repro.core.errors.ConstraintError` here; the vectorized path
instead flags the scenario infeasible and NaNs its outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConstraintError, ParameterError, UnknownEntryError
from repro.core.intensity import CarbonIntensityTrace
from repro.core.parameters import require_fraction, require_non_negative
from repro.scheduling.fleet import FleetJob, FleetSpec

#: Canonical policy order — also the row-index order used by
#: :mod:`repro.scheduling.sweep` when expanding (window x policy) rows.
POLICY_NAMES: tuple[str, ...] = (
    "fifo",
    "edf",
    "carbon_waiting",
    "carbon_lowest",
)

#: Default carbon-waiting threshold: the median of the window's CI.
DEFAULT_THRESHOLD_QUANTILE = 0.5

WATTS_PER_KW = 1000.0


@dataclass(frozen=True)
class FleetPlacement:
    """One scheduled fleet job with its outcome.

    Attributes:
        job: The placed job.
        hours: Occupied hour slots, ascending.  Contiguous unless the job
            was preempted.
        emissions_g: Job energy (plus active slot power and resume
            overheads) priced at each occupied hour's carbon intensity.
        waiting_hours: Completion minus arrival minus runtime — zero for
            a job that starts on arrival and never suspends.
        preemptions: Number of suspend/resume gaps in ``hours``.
        active_energy_kwh: The fleet's per-slot active power drawn over
            the job's runtime (attributed to the job).
    """

    job: FleetJob
    hours: tuple[int, ...]
    emissions_g: float
    waiting_hours: float
    preemptions: int
    active_energy_kwh: float

    @property
    def start_hour(self) -> int:
        return self.hours[0]

    @property
    def completion_hour(self) -> float:
        """End of the job's partial final slot."""
        return self.hours[-1] + self.job.final_slot_fraction

    @property
    def energy_kwh(self) -> float:
        """Energy charged to the job: its own draw, resume overheads, and
        the active slot power over its runtime."""
        return (
            self.job.energy_kwh
            + self.preemptions * self.job.suspend_resume_overhead_kwh
            + self.active_energy_kwh
        )


@dataclass(frozen=True)
class FleetSchedule:
    """A complete fleet schedule with aggregate outcomes.

    ``placements`` are stored in *placement (priority) order* — the order
    the policy considered the jobs — and aggregate sums accumulate in
    that order, matching the vectorized path term for term.
    """

    policy: str
    placements: tuple[FleetPlacement, ...]
    idle_emissions_g: float
    idle_energy_kwh: float

    @property
    def total_emissions_g(self) -> float:
        total = self.idle_emissions_g
        for placement in self.placements:
            total = total + placement.emissions_g
        return total

    @property
    def total_energy_kwh(self) -> float:
        total = self.idle_energy_kwh
        for placement in self.placements:
            total = total + placement.energy_kwh
        return total

    @property
    def mean_waiting_hours(self) -> float:
        if not self.placements:
            return 0.0
        return sum(p.waiting_hours for p in self.placements) / len(
            self.placements
        )

    @property
    def max_waiting_hours(self) -> float:
        if not self.placements:
            return 0.0
        return max(p.waiting_hours for p in self.placements)

    @property
    def total_preemptions(self) -> int:
        return sum(p.preemptions for p in self.placements)

    def placement_for(self, job_name: str) -> FleetPlacement:
        for placement in self.placements:
            if placement.job.name == job_name:
                return placement
        raise ConstraintError(f"no placement for job {job_name!r}")


def _window_ci(
    trace: CarbonIntensityTrace, window_offset: int, horizon_hours: int
) -> list[float]:
    """The window's hourly intensities (slot ``h`` -> CI)."""
    return [trace.at_hour(window_offset + h) for h in range(horizon_hours)]


def _job_order(jobs: tuple[FleetJob, ...], policy: str) -> list[int]:
    """Deterministic priority order (indices into ``jobs``)."""
    indices = range(len(jobs))
    if policy in ("fifo", "carbon_waiting"):
        return sorted(indices, key=lambda i: (jobs[i].arrival_hour, i))
    if policy == "edf":
        return sorted(
            indices,
            key=lambda i: (jobs[i].deadline_hour, jobs[i].arrival_hour, i),
        )
    # carbon_lowest: tightest slack first.
    return sorted(
        indices,
        key=lambda i: (
            jobs[i].latest_start - jobs[i].arrival_hour,
            jobs[i].arrival_hour,
            i,
        ),
    )


def _contiguous_candidates(
    occupancy: list[int], capacity: int, job: FleetJob
) -> list[int]:
    """Feasible contiguous start slots for ``job`` (ascending)."""
    starts = []
    for start in range(job.arrival_hour, job.latest_start + 1):
        if all(
            occupancy[hour] < capacity
            for hour in range(start, start + job.slots)
        ):
            starts.append(start)
    return starts


def _placement_emissions(
    job: FleetJob,
    hours: list[int],
    ci: list[float],
    active_power_w: float,
) -> tuple[float, int]:
    """Chronological ``(emissions_g, preemptions)`` of one placement.

    The accumulation order — per hour: resume overhead first, then the
    energy term — is the pinned association the vectorized path mirrors
    bit for bit.
    """
    weight = job.energy_per_full_hour_kwh + active_power_w / WATTS_PER_KW
    emissions = 0.0
    preemptions = 0
    previous = None
    for index, hour in enumerate(hours):
        if previous is not None and hour > previous + 1:
            preemptions += 1
            emissions = emissions + job.suspend_resume_overhead_kwh * ci[hour]
        fraction = (
            job.final_slot_fraction if index == len(hours) - 1 else 1.0
        )
        emissions = emissions + (weight * fraction) * ci[hour]
        previous = hour
    return emissions, preemptions


def simulate_fleet(
    jobs: tuple[FleetJob, ...],
    fleet: FleetSpec,
    trace: CarbonIntensityTrace,
    policy: str,
    *,
    horizon_hours: int | None = None,
    window_offset: int = 0,
    threshold_quantile: float = DEFAULT_THRESHOLD_QUANTILE,
) -> FleetSchedule:
    """Place ``jobs`` on ``fleet`` under ``policy`` — scalar reference.

    Args:
        jobs: The job set, already expressed on this fleet (callers who
            want the DVFS cap applied stretch durations/energy with
            :meth:`FleetSpec.effective_duration` / ``effective_energy``
            before constructing the jobs; :mod:`repro.scheduling.sweep`
            does this when sampling).
        fleet: Slot capacity and power profile.
        trace: Grid intensity; slot ``h`` is priced at
            ``trace.at_hour(window_offset + h)``.
        policy: One of :data:`POLICY_NAMES`.
        horizon_hours: Simulation length; defaults to the latest
            deadline.  Every job's deadline must fit inside it.
        window_offset: Where in the trace the window begins (>= 0).
        threshold_quantile: ``carbon_waiting``'s green-start threshold,
            as a quantile of the window's CI values.

    Raises:
        ConstraintError: A job has no feasible placement.
        ParameterError: A deadline exceeds the horizon, or the offset is
            negative.
    """
    require_non_negative("window_offset", window_offset)
    require_fraction("threshold_quantile", threshold_quantile, allow_zero=True)
    if policy not in POLICY_NAMES:
        raise UnknownEntryError("scheduling policy", policy, POLICY_NAMES)
    if horizon_hours is None:
        horizon_hours = max(
            (job.deadline_hour for job in jobs), default=len(trace)
        )
    for job in jobs:
        if job.deadline_hour > horizon_hours:
            raise ParameterError(
                f"job {job.name!r}: deadline {job.deadline_hour} exceeds "
                f"the {horizon_hours}h simulation horizon"
            )

    ci = _window_ci(trace, window_offset, horizon_hours)
    capacity = fleet.capacity
    occupancy = [0] * horizon_hours
    threshold = (
        float(np.quantile(np.asarray(ci), threshold_quantile)) if ci else 0.0
    )

    placements = []
    for job_index in _job_order(jobs, policy):
        job = jobs[job_index]
        hours = _choose_hours(
            job, policy, occupancy, capacity, ci, threshold,
            fleet.active_power_w,
        )
        for hour in hours:
            occupancy[hour] += 1
        emissions, preemptions = _placement_emissions(
            job, hours, ci, fleet.active_power_w
        )
        completion = hours[-1] + job.final_slot_fraction
        waiting = completion - (job.arrival_hour + job.duration_hours)
        placements.append(
            FleetPlacement(
                job=job,
                hours=tuple(hours),
                emissions_g=emissions,
                waiting_hours=waiting,
                preemptions=preemptions,
                active_energy_kwh=(
                    fleet.active_power_w / WATTS_PER_KW * job.duration_hours
                ),
            )
        )

    idle_ci_sum = 0.0
    for value in ci:
        idle_ci_sum = idle_ci_sum + value
    idle_energy = fleet.idle_power_w / WATTS_PER_KW * horizon_hours
    idle_emissions = fleet.idle_power_w / WATTS_PER_KW * idle_ci_sum
    return FleetSchedule(
        policy=policy,
        placements=tuple(placements),
        idle_emissions_g=idle_emissions,
        idle_energy_kwh=idle_energy,
    )


def _choose_hours(
    job: FleetJob,
    policy: str,
    occupancy: list[int],
    capacity: int,
    ci: list[float],
    threshold: float,
    active_power_w: float,
) -> list[int]:
    """The hour slots ``policy`` assigns to ``job`` (ascending)."""
    if policy == "carbon_lowest" and job.preemptible:
        feasible = [
            hour
            for hour in range(job.arrival_hour, job.deadline_hour)
            if occupancy[hour] < capacity
        ]
        if len(feasible) < job.slots:
            raise ConstraintError(
                f"{policy}: no feasible slot for job {job.name!r}"
            )
        ranked = sorted(feasible, key=lambda hour: (ci[hour], hour))
        return sorted(ranked[: job.slots])

    candidates = _contiguous_candidates(occupancy, capacity, job)
    if not candidates:
        raise ConstraintError(
            f"{policy}: no feasible slot for job {job.name!r}"
        )
    if policy in ("fifo", "edf"):
        start = candidates[0]
    elif policy == "carbon_waiting":
        green = [start for start in candidates if ci[start] <= threshold]
        start = green[0] if green else candidates[-1]
    else:  # carbon_lowest, non-preemptible
        # Candidate cost is the placement's own emission arithmetic —
        # the same weighted chronological sum
        # :func:`_placement_emissions` will charge — so a strict ``<``
        # resolves cost ties to the earliest start.
        weight = job.energy_per_full_hour_kwh + active_power_w / WATTS_PER_KW
        best_start, best_cost = None, None
        for start in candidates:
            cost = 0.0
            for offset in range(job.slots):
                fraction = (
                    job.final_slot_fraction
                    if offset == job.slots - 1
                    else 1.0
                )
                cost = cost + (weight * fraction) * ci[start + offset]
            if best_cost is None or cost < best_cost:
                best_start, best_cost = start, cost
        start = best_start
    return list(range(start, start + job.slots))

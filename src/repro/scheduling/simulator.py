"""The single-machine carbon-aware batch scheduling study.

The Reduce tenet's "renewable energy driven hardware" lever only pays off
if software can follow the grid.  This module makes that concrete:
deferrable batch jobs (each with an arrival hour, a duration, an energy
draw, and a deadline) are placed on a machine whose grid follows a
:class:`~repro.core.intensity.CarbonIntensityTrace`.  Two policies are
compared — run-immediately FIFO and greedy carbon-aware placement — and
the total emissions of each expose the scheduling opportunity the
flat-average CI model hides.

Both run through the one scalar scheduler,
:func:`~repro.scheduling.policies.simulate_fleet`, on
:func:`~repro.scheduling.fleet.single_machine_fleet` (one job at a
time, no idle or active power); jobs are non-preemptible and occupy
whole hours.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.errors import ParameterError
from repro.core.intensity import CarbonIntensityTrace
from repro.core.parameters import require_non_negative, require_positive
from repro.scheduling.fleet import from_simulator_job, single_machine_fleet
from repro.scheduling.policies import FleetSchedule, simulate_fleet


@dataclass(frozen=True)
class Job:
    """One deferrable batch job.

    Attributes:
        name: Job label.
        arrival_hour: Earliest hour the job may start.
        duration_hours: Whole hours of runtime.
        energy_kwh: Total energy the job draws (spread evenly).
        deadline_hour: Latest hour by which the job must have *finished*.
    """

    name: str
    arrival_hour: int
    duration_hours: int
    energy_kwh: float
    deadline_hour: int

    def __post_init__(self) -> None:
        require_non_negative("arrival_hour", self.arrival_hour)
        require_positive("duration_hours", self.duration_hours)
        require_non_negative("energy_kwh", self.energy_kwh)
        if self.deadline_hour < self.arrival_hour + self.duration_hours:
            raise ParameterError(
                f"job {self.name!r}: deadline {self.deadline_hour} cannot be "
                f"met (arrival {self.arrival_hour} + duration "
                f"{self.duration_hours})"
            )

    @property
    def latest_start(self) -> int:
        """Last hour the job can start and still meet its deadline."""
        return self.deadline_hour - self.duration_hours

    def emissions_g(self, start_hour: int, trace: CarbonIntensityTrace) -> float:
        """Emissions of running the job starting at ``start_hour``."""
        per_hour = self.energy_kwh / self.duration_hours
        return sum(
            per_hour * trace.at_hour(start_hour + offset)
            for offset in range(self.duration_hours)
        )


def _simulate(
    jobs: tuple[Job, ...], trace: CarbonIntensityTrace, policy: str
) -> FleetSchedule:
    """``jobs`` under ``policy`` on the one-slot, zero-power fleet.

    The fleet policies break ties on input order; sorting by name first
    makes that the job-name order this study has always used.
    """
    return simulate_fleet(
        tuple(
            from_simulator_job(job)
            for job in sorted(jobs, key=lambda job: job.name)
        ),
        single_machine_fleet(),
        trace,
        policy,
    )


def schedule_fifo(
    jobs: tuple[Job, ...], trace: CarbonIntensityTrace
) -> FleetSchedule:
    """Run-immediately FIFO: each job starts at the earliest free slot.

    The carbon-oblivious baseline; deadlines are still respected as a
    feasibility check (an infeasible set raises
    :class:`~repro.core.errors.ConstraintError`).
    """
    return _simulate(jobs, trace, "fifo")


def schedule_carbon_aware(
    jobs: tuple[Job, ...], trace: CarbonIntensityTrace
) -> FleetSchedule:
    """Greedy carbon-aware placement (the fleet's ``carbon_lowest``).

    Jobs are considered in order of scheduling urgency (tightest slack
    first); each takes the feasible, non-overlapping start hour with the
    lowest emissions.  Greedy is not optimal, but it is the standard
    practical policy and enough to expose the opportunity.  Placements
    are listed, and their emissions summed, in ``(start hour, job name)``
    order.
    """
    schedule = _simulate(jobs, trace, "carbon_lowest")
    placements = sorted(
        schedule.placements, key=lambda p: (p.start_hour, p.job.name)
    )
    return replace(schedule, placements=tuple(placements))


#: Denominator floor (grams) for :func:`scheduling_benefit`.  When the
#: carbon-aware schedule lands entirely in zero-CI hours the true ratio is
#: unbounded; clamping the denominator keeps the reported benefit finite so
#: it can enter numpy columns without poisoning means and Pareto masks
#: downstream.
EMISSIONS_FLOOR_G = 1e-9


def scheduling_benefit(
    jobs: tuple[Job, ...], trace: CarbonIntensityTrace
) -> float:
    """Emission ratio FIFO / carbon-aware for one job set (>= ~1).

    A zero-emission carbon-aware schedule is rated against
    :data:`EMISSIONS_FLOOR_G` instead of returning ``inf``: the result is
    a finite (if huge) ratio that stays usable in aggregate statistics.
    Both schedules zero-emission means no opportunity, reported as 1.0.
    """
    fifo = schedule_fifo(jobs, trace)
    aware = schedule_carbon_aware(jobs, trace)
    if aware.total_emissions_g <= EMISSIONS_FLOOR_G:
        if fifo.total_emissions_g <= EMISSIONS_FLOOR_G:
            return 1.0
        return fifo.total_emissions_g / EMISSIONS_FLOOR_G
    return fifo.total_emissions_g / aware.total_emissions_g


def nightly_batch_workload(count: int = 4) -> tuple[Job, ...]:
    """A representative deferrable workload: jobs arriving in the evening
    with next-evening deadlines — plenty of slack to chase the sun."""
    require_positive("count", count)
    return tuple(
        Job(
            name=f"batch-{index}",
            arrival_hour=18 + index,
            duration_hours=2 + index % 3,
            energy_kwh=3.0 + index,
            deadline_hour=18 + index + 24,
        )
        for index in range(count)
    )

"""Fleet model for carbon-aware scheduling: machines, specs, fleet jobs.

The single-machine study (:mod:`repro.scheduling.simulator`) places
whole-hour, non-preemptible jobs on one machine.  This module generalizes
the *world* the policies schedule into:

* :class:`Machine` — a host with slot ``capacity``, idle/active power, and
  an optional DVFS power cap (via :class:`~repro.core.dvfs.DvfsModel`)
  that stretches job durations and rescales their energy.
* :class:`FleetSpec` — a homogeneous group of machines; jobs see the
  aggregate slot capacity.
* :class:`FleetJob` — a deferrable job generalized with ``preemptible``
  (may be split across non-contiguous hours), a per-suspend/resume energy
  overhead, and *fractional* durations (the chronologically last occupied
  hour is partial, drawing proportionally less energy).

Time is discretized into hour slots ``0..horizon-1``; a placement is the
set of hour slots a job occupies (contiguous unless preemptible).  The
vectorized evaluator (:mod:`repro.scheduling.batch`) and the scalar policy
reference (:mod:`repro.scheduling.policies`) both consume these types.

Homogeneity: the vectorized columns carry one idle/active/throttle profile
per scenario, so :class:`FleetSpec` rejects mixed power profiles at
construction (capacities may differ; they just sum).  Heterogeneous fleets
would need per-machine columns — a documented non-goal for now.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.dvfs import DvfsModel
from repro.core.errors import ConstraintError, ParameterError
from repro.core.parameters import require_non_negative, require_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduling.simulator import Job

#: Frequency-ladder resolution used to resolve a power cap to a DVFS
#: operating point.  Finer ladders change the chosen frequency by less
#: than the model's own fidelity; keeping it fixed keeps throttling
#: deterministic across processes and platforms.
THROTTLE_LADDER_STEPS = 49


@dataclass(frozen=True)
class Machine:
    """One host in the fleet.

    Attributes:
        name: Display name.
        capacity: Concurrent job slots the machine offers.
        idle_power_w: Power drawn every hour regardless of load.
        active_power_w: Extra power drawn per occupied slot-hour.
        dvfs: Optional DVFS model; required when ``power_cap_w`` is set.
        power_cap_w: Optional per-slot power cap.  The machine runs at the
            highest :meth:`~repro.core.dvfs.DvfsModel.frequency_ladder`
            point whose power fits under the cap, stretching job durations
            by ``f_max / f_cap`` and rescaling their energy by the capped
            power ratio times that stretch.
    """

    name: str
    capacity: int = 1
    idle_power_w: float = 0.0
    active_power_w: float = 0.0
    dvfs: DvfsModel | None = None
    power_cap_w: float | None = None

    def __post_init__(self) -> None:
        require_positive("capacity", self.capacity)
        if self.capacity != int(self.capacity):
            raise ParameterError(
                f"capacity must be a whole number of slots, got {self.capacity}"
            )
        require_non_negative("idle_power_w", self.idle_power_w)
        require_non_negative("active_power_w", self.active_power_w)
        if self.power_cap_w is not None:
            if self.dvfs is None:
                raise ParameterError(
                    f"machine {self.name!r}: a power cap needs a DvfsModel "
                    "to resolve the capped operating point"
                )
            require_positive("power_cap_w", self.power_cap_w)
        # Resolve the cap eagerly so an infeasible cap fails at
        # construction, not mid-simulation.
        self.throttle()

    def throttle(self) -> tuple[float, float]:
        """``(slowdown, energy_factor)`` implied by the power cap.

        ``slowdown`` multiplies job durations (>= 1); ``energy_factor``
        multiplies job energy (``power(f_cap)/power(f_max) * slowdown``,
        typically < 1 — DVFS trades time for energy).  ``(1.0, 1.0)``
        when the machine is uncapped.
        """
        if self.dvfs is None or self.power_cap_w is None:
            return 1.0, 1.0
        full_power = self.dvfs.power_w(self.dvfs.f_max_ghz)
        if self.power_cap_w >= full_power:
            return 1.0, 1.0
        ladder = self.dvfs.frequency_ladder(THROTTLE_LADDER_STEPS)
        feasible = [
            f for f in ladder if self.dvfs.power_w(f) <= self.power_cap_w
        ]
        if not feasible:
            raise ParameterError(
                f"machine {self.name!r}: power cap {self.power_cap_w} W is "
                f"below the minimum-frequency power "
                f"{self.dvfs.power_w(self.dvfs.f_min_ghz):.2f} W"
            )
        f_cap = max(feasible)
        slowdown = self.dvfs.f_max_ghz / f_cap
        energy_factor = self.dvfs.power_w(f_cap) / full_power * slowdown
        return slowdown, energy_factor


@dataclass(frozen=True)
class FleetSpec:
    """A homogeneous group of machines scheduled as one slot pool.

    Attributes:
        machines: The hosts.  All must share idle/active power and the
            same effective throttle (capacities may differ).
    """

    machines: tuple[Machine, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "machines", tuple(self.machines))
        if not self.machines:
            raise ParameterError("a fleet needs at least one machine")
        first = self.machines[0]
        profile = (
            first.idle_power_w,
            first.active_power_w,
            first.throttle(),
        )
        for machine in self.machines[1:]:
            if (
                machine.idle_power_w,
                machine.active_power_w,
                machine.throttle(),
            ) != profile:
                raise ConstraintError(
                    "the vectorized fleet model requires homogeneous "
                    f"machine power profiles; {machine.name!r} differs "
                    f"from {first.name!r}"
                )

    @property
    def capacity(self) -> int:
        """Total concurrent job slots across the fleet."""
        return sum(machine.capacity for machine in self.machines)

    @property
    def idle_power_w(self) -> float:
        """Fleet-wide always-on power (summed over machines)."""
        return sum(machine.idle_power_w for machine in self.machines)

    @property
    def active_power_w(self) -> float:
        """Extra power per occupied slot-hour (uniform by construction)."""
        return self.machines[0].active_power_w

    @property
    def slowdown(self) -> float:
        """Duration stretch implied by the (uniform) power cap."""
        return self.machines[0].throttle()[0]

    @property
    def energy_factor(self) -> float:
        """Job-energy rescale implied by the (uniform) power cap."""
        return self.machines[0].throttle()[1]

    def effective_duration(self, duration_hours: float) -> float:
        """A job's wall-clock hours on this fleet, cap applied."""
        return duration_hours * self.slowdown

    def effective_energy(self, energy_kwh: float) -> float:
        """A job's energy draw on this fleet, cap applied."""
        return energy_kwh * self.energy_factor


def single_machine_fleet(name: str = "m0") -> FleetSpec:
    """The degenerate fleet of the single-machine study: one machine,
    one slot, no idle/active power, no cap."""
    return FleetSpec((Machine(name),))


@dataclass(frozen=True)
class FleetJob:
    """One deferrable job in the generalized fleet model.

    Attributes:
        name: Job label.
        arrival_hour: Earliest hour slot the job may occupy.
        duration_hours: Runtime in hours; may be fractional.  The job
            occupies ``ceil(duration_hours)`` slots and the last occupied
            slot is partial, drawing ``duration - (slots - 1)`` of a full
            hour's energy.
        energy_kwh: Total energy drawn, spread evenly over the runtime.
        deadline_hour: Every occupied slot must satisfy
            ``arrival_hour <= slot < deadline_hour``.
        preemptible: Whether the job may be suspended and resumed, i.e.
            occupy non-contiguous hour slots.
        suspend_resume_overhead_kwh: Extra energy charged at each resume
            hour's carbon intensity, once per gap in the occupied slots.
    """

    name: str
    arrival_hour: int
    duration_hours: float
    energy_kwh: float
    deadline_hour: int
    preemptible: bool = False
    suspend_resume_overhead_kwh: float = 0.0

    def __post_init__(self) -> None:
        require_non_negative("arrival_hour", self.arrival_hour)
        require_positive("duration_hours", self.duration_hours)
        require_non_negative("energy_kwh", self.energy_kwh)
        require_non_negative(
            "suspend_resume_overhead_kwh", self.suspend_resume_overhead_kwh
        )
        if self.deadline_hour < self.arrival_hour + self.slots:
            raise ParameterError(
                f"job {self.name!r}: deadline {self.deadline_hour} cannot "
                f"be met (arrival {self.arrival_hour} + {self.slots} slots)"
            )

    @property
    def slots(self) -> int:
        """Hour slots the job occupies (``ceil(duration_hours)``)."""
        return math.ceil(self.duration_hours)

    @property
    def final_slot_fraction(self) -> float:
        """Fraction of the last occupied slot actually used (in (0, 1])."""
        return self.duration_hours - (self.slots - 1)

    @property
    def latest_start(self) -> int:
        """Last slot a *contiguous* placement can start in."""
        return self.deadline_hour - self.slots

    @property
    def energy_per_full_hour_kwh(self) -> float:
        """Energy drawn during one fully-used slot."""
        return self.energy_kwh / self.duration_hours


def from_simulator_job(job: "Job") -> FleetJob:
    """Lift a single-machine :class:`~repro.scheduling.simulator.Job`
    into the fleet model (non-preemptible, whole hours, no overhead)."""
    return FleetJob(
        name=job.name,
        arrival_hour=job.arrival_hour,
        duration_hours=float(job.duration_hours),
        energy_kwh=job.energy_kwh,
        deadline_hour=job.deadline_hour,
    )

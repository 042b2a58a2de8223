"""Property-based tests for the scheduling simulator and fleet policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConstraintError
from repro.core.intensity import CarbonIntensityTrace
from repro.scheduling.fleet import (
    FleetJob,
    FleetSpec,
    Machine,
    single_machine_fleet,
)
from repro.scheduling.batch import verify_schedule_batch
from repro.scheduling.policies import POLICY_NAMES, simulate_fleet
from repro.scheduling.simulator import (
    Job,
    schedule_carbon_aware,
    schedule_fifo,
)
from repro.scheduling.sweep import ScheduleSweepSpec, build_schedule_batch

# Non-overlapping arrival windows with generous slack keep both policies
# feasible, so the properties test optimality rather than admission control.
job_sets = st.lists(
    st.integers(min_value=0, max_value=5),  # duration seeds
    min_size=1,
    max_size=5,
).map(
    lambda seeds: tuple(
        Job(
            name=f"j{i}",
            arrival_hour=i * 8,
            duration_hours=1 + seed % 3,
            energy_kwh=1.0 + seed,
            deadline_hour=i * 8 + 48,
        )
        for i, seed in enumerate(seeds)
    )
)

traces = st.lists(
    st.floats(min_value=1.0, max_value=900.0), min_size=6, max_size=24
).map(lambda values: CarbonIntensityTrace("t", tuple(values)))


class TestSchedulerProperties:
    @given(jobs=job_sets, trace=traces)
    @settings(max_examples=60)
    def test_carbon_aware_never_worse_than_fifo(self, jobs, trace):
        fifo = schedule_fifo(jobs, trace)
        aware = schedule_carbon_aware(jobs, trace)
        assert aware.total_emissions_g <= fifo.total_emissions_g + 1e-9

    @given(jobs=job_sets, trace=traces)
    @settings(max_examples=60)
    def test_schedules_are_feasible(self, jobs, trace):
        for schedule in (schedule_fifo(jobs, trace),
                         schedule_carbon_aware(jobs, trace)):
            occupied: set[int] = set()
            for placement in schedule.placements:
                assert placement.start_hour >= placement.job.arrival_hour
                assert placement.hours[-1] < placement.job.deadline_hour
                hours = set(placement.hours)
                assert not hours & occupied
                occupied |= hours

    @given(jobs=job_sets, trace=traces)
    @settings(max_examples=60)
    def test_every_job_placed_exactly_once(self, jobs, trace):
        schedule = schedule_carbon_aware(jobs, trace)
        assert len(schedule.placements) == len(jobs)
        assert {p.job.name for p in schedule.placements} == {
            j.name for j in jobs
        }

    @given(jobs=job_sets, trace=traces)
    @settings(max_examples=60)
    def test_emissions_recomputable(self, jobs, trace):
        schedule = schedule_carbon_aware(jobs, trace)
        by_name = {job.name: job for job in jobs}
        for placement in schedule.placements:
            assert placement.emissions_g == by_name[
                placement.job.name
            ].emissions_g(placement.start_hour, trace)

    @given(trace=traces)
    def test_single_tight_job_has_no_choice(self, trace):
        job = Job("only", 0, 4, 2.0, 4)
        fifo = schedule_fifo((job,), trace)
        aware = schedule_carbon_aware((job,), trace)
        assert fifo.placements[0].start_hour == 0
        assert aware.placements[0].start_hour == 0
        assert fifo.total_emissions_g == aware.total_emissions_g


# Fleet jobs with generous slack (48h windows on 8h-staggered arrivals):
# on a capacity-2 fleet every policy stays feasible, so the properties
# exercise placement quality and accounting rather than admission.
fleet_job_sets = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),  # duration seed
        st.booleans(),                          # fractional final hour
        st.booleans(),                          # preemptible
    ),
    min_size=1,
    max_size=5,
).map(
    lambda rows: tuple(
        FleetJob(
            name=f"f{i}",
            arrival_hour=i * 8,
            duration_hours=1 + seed % 3 + (0.5 if fractional else 0.0),
            energy_kwh=1.0 + seed,
            deadline_hour=i * 8 + 48,
            preemptible=preemptible,
            suspend_resume_overhead_kwh=0.25 if preemptible else 0.0,
        )
        for i, (seed, fractional, preemptible) in enumerate(rows)
    )
)

# Disjoint 8h windows: jobs cannot interact through capacity, so the
# cheapest-placement policy is per-job optimal and provably <= FIFO.
disjoint_job_sets = st.lists(
    st.integers(min_value=0, max_value=5),
    min_size=1,
    max_size=5,
).map(
    lambda seeds: tuple(
        FleetJob(
            name=f"d{i}",
            arrival_hour=i * 8,
            duration_hours=1 + seed % 3,
            energy_kwh=1.0 + seed,
            deadline_hour=i * 8 + 8,
        )
        for i, seed in enumerate(seeds)
    )
)


class TestFleetPolicyProperties:
    @given(
        jobs=fleet_job_sets,
        trace=traces,
        policy=st.sampled_from(POLICY_NAMES),
    )
    @settings(max_examples=40)
    def test_capacity_never_exceeded(self, jobs, trace, policy):
        fleet = FleetSpec((Machine("m0", capacity=2),))
        schedule = simulate_fleet(jobs, fleet, trace, policy)
        occupancy: dict[int, int] = {}
        for placement in schedule.placements:
            for hour in placement.hours:
                occupancy[hour] = occupancy.get(hour, 0) + 1
        assert all(
            count <= fleet.capacity for count in occupancy.values()
        )

    @given(
        jobs=fleet_job_sets,
        trace=traces,
        policy=st.sampled_from(POLICY_NAMES),
    )
    @settings(max_examples=40)
    def test_placements_respect_arrival_and_deadline(
        self, jobs, trace, policy
    ):
        fleet = FleetSpec((Machine("m0", capacity=2),))
        schedule = simulate_fleet(jobs, fleet, trace, policy)
        assert len(schedule.placements) == len(jobs)
        for placement in schedule.placements:
            job = placement.job
            assert len(placement.hours) == job.slots
            assert list(placement.hours) == sorted(set(placement.hours))
            assert all(
                job.arrival_hour <= hour < job.deadline_hour
                for hour in placement.hours
            )
            if not job.preemptible:
                assert placement.hours == tuple(
                    range(placement.start_hour, placement.start_hour + job.slots)
                )
            assert placement.waiting_hours >= -1e-9

    @given(jobs=disjoint_job_sets, trace=traces)
    @settings(max_examples=40)
    def test_carbon_lowest_never_worse_than_fifo(self, jobs, trace):
        fleet = single_machine_fleet()
        fifo = simulate_fleet(jobs, fleet, trace, "fifo")
        lowest = simulate_fleet(jobs, fleet, trace, "carbon_lowest")
        assert (
            lowest.total_emissions_g <= fifo.total_emissions_g + 1e-6
        )

    @given(jobs=fleet_job_sets, trace=traces)
    @settings(max_examples=40)
    def test_preempted_jobs_conserve_energy_and_overhead(self, jobs, trace):
        fleet = FleetSpec((Machine("m0", capacity=2, active_power_w=50.0),))
        schedule = simulate_fleet(jobs, fleet, trace, "carbon_lowest")
        for placement in schedule.placements:
            job = placement.job
            gaps = sum(
                1
                for a, b in zip(placement.hours, placement.hours[1:])
                if b > a + 1
            )
            assert placement.preemptions == gaps
            if not job.preemptible:
                assert gaps == 0
            assert placement.energy_kwh == pytest.approx(
                job.energy_kwh
                + gaps * job.suspend_resume_overhead_kwh
                + placement.active_energy_kwh
            )
            # Emissions are recomputable chronologically from the hours.
            weight = job.energy_per_full_hour_kwh + fleet.active_power_w / 1000.0
            expected = 0.0
            previous = None
            for index, hour in enumerate(placement.hours):
                ci = trace.at_hour(hour)
                if previous is not None and hour > previous + 1:
                    expected += job.suspend_resume_overhead_kwh * ci
                fraction = (
                    job.final_slot_fraction
                    if index == len(placement.hours) - 1
                    else 1.0
                )
                expected += (weight * fraction) * ci
                previous = hour
            assert placement.emissions_g == pytest.approx(expected)


@st.composite
def sweep_specs(draw):
    """Small sweeps whose horizons fall on both sides of 64 hours.

    Trace values come from a short ladder so exact CI ties are common,
    and the widest slack puts the latest deadlines on the horizon.
    """
    horizon = draw(st.integers(min_value=24, max_value=96))
    duration_max = draw(st.integers(min_value=1, max_value=6))
    arrival_span = draw(st.integers(min_value=1, max_value=12))
    trace = CarbonIntensityTrace(
        "ladder",
        tuple(
            draw(
                st.lists(
                    st.sampled_from((41.0, 120.0, 250.0, 400.0, 750.0)),
                    min_size=1,
                    max_size=48,
                )
            )
        ),
    )
    fleet = FleetSpec(
        (
            Machine(
                "m0",
                capacity=draw(st.integers(min_value=1, max_value=3)),
                idle_power_w=draw(st.sampled_from((0.0, 150.0))),
                active_power_w=draw(st.sampled_from((0.0, 80.0))),
            ),
        )
    )
    return ScheduleSweepSpec(
        trace=trace,
        fleet=fleet,
        windows=draw(st.integers(min_value=1, max_value=6)),
        jobs_per_window=draw(st.integers(min_value=1, max_value=9)),
        horizon_hours=horizon,
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        arrival_span_hours=arrival_span,
        duration_hours_max=duration_max,
        slack_hours_min=1,
        slack_hours_max=horizon - (arrival_span - 1) - (duration_max + 1),
        preemptible_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        threshold_quantile=draw(st.floats(min_value=0.0, max_value=1.0)),
    )


class TestVectorizedMatchesScalar:
    @given(spec=sweep_specs())
    @settings(max_examples=60)
    def test_every_row_matches_scalar_reference(self, spec):
        batch = build_schedule_batch(spec)
        assert verify_schedule_batch(batch, sample=len(batch)) == len(batch)
